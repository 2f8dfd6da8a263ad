import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

import fraclap.mesh
import fraclap.solver
import fraclap.transfer
from fraclap import ichol
from fraclap.core import OverlayGrid, gamma
from fraclap.ichol import (IncompleteCholeskyError, MicFactor, mic_factor,
                           mic_factor_with_retry)
from fraclap.mesh import (SimplicialMesh, generate_ball_mesh, is_unit_ball, mesh_quality,
                          simplex_adjugates)
from fraclap.solver import (CirculantPreconditioner, OverlayOperator, Preconditioner,
                            SolveReport, SparsePreconditioner, assemble_rhs,
                            build_circulant_preconditioner, build_kernel,
                            build_sparse_preconditioner, cg_solve, circulant_payload,
                            exact_solution, setup, solve, solve_bvp, _near_field_stencil)
from fraclap.stiffness import analytic_1d, fft_uniform, restrict, spectral
from fraclap.toeplitz import ToeplitzPlan
from fraclap.transfer import (GRAM_DEGREE, GRAM_LOWER, GramSolver, build_transfer,
                              choose_grid, column_rank_check)

from conftest import (ball_mesh, dense_materialize, hand_transfer, rotated, scattered_ball,
                      square_mesh, whole_grid)


def small_operator(n_r=3, s=0.5, m=32, dim=2):
    mesh = ball_mesh(dim, n_r)
    grid = choose_grid(mesh_quality(mesh), 1.2)
    kernel = fft_uniform(s, dim, grid.n_fd, max(m, 2 * grid.n_fd + 1))
    transfer = build_transfer(mesh, grid)
    op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid, s=s)
    return mesh, op


def dense_operator_matrix(op):
    dense_grid = dense_materialize(op.plan.kernel)
    t = whole_grid(op.transfer).toarray()
    return t.T @ dense_grid @ t


def identity_transfer(grid):
    n = grid.n_nodes
    return hand_transfer(scipy.sparse.identity(n, format="csr"), grid, np.ones(n))


class TestOperator:
    def test_zero(self):
        mesh, op = small_operator()
        assert np.all(op.apply(np.zeros(op.transfer.cols)) == 0.0)

    def test_matches_dense_oracle(self):
        mesh, op = small_operator()
        dense = dense_operator_matrix(op)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(op.transfer.cols)
        got = op.apply(u)
        ref = dense @ u
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_symmetry(self):
        mesh, op = small_operator()
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(op.transfer.cols)
            w = rng.standard_normal(op.transfer.cols)
            a = op.apply(u) @ w
            b = u @ op.apply(w)
            assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)

    def test_positive_on_random_vectors(self):
        mesh, op = small_operator()
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.standard_normal(op.transfer.cols)
            assert op.apply(u) @ u > 0.0

    @pytest.mark.parametrize("n_fd", [9, 11])
    def test_rejects_a_grid_other_than_the_transfers(self, n_fd):
        # the h=0.2 disk's transfer lives on an n_fd=8 grid
        mesh = generate_ball_mesh(2, 0.2)
        transfer = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        assert transfer.grid.n_fd == 8
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=n_fd)
        plan = ToeplitzPlan(fft_uniform(0.5, 2, n_fd, 4 * n_fd))
        with pytest.raises(ValueError, match="is not the transfer's grid"):
            OverlayOperator(transfer=transfer, plan=plan, grid=grid, s=0.5)

    @pytest.mark.parametrize("dim,n_fd", [(2, 6), (3, 5)])
    def test_rejects_a_kernel_of_another_grid(self, dim, n_fd):
        mesh, op = small_operator()
        assert (op.grid.dim, op.grid.n_fd) == (2, 5)
        plan = ToeplitzPlan(fft_uniform(0.5, dim, n_fd, 4 * n_fd))
        with pytest.raises(ValueError, match=f"kernel of dim {dim} and n_fd {n_fd} on"):
            OverlayOperator(transfer=op.transfer, plan=plan, grid=op.grid, s=0.5)

    def test_rejects_an_order_other_than_the_kernels(self):
        mesh, op = small_operator(s=0.5)
        with pytest.raises(ValueError, match="not the kernel's order 0.5"):
            OverlayOperator(transfer=op.transfer, plan=op.plan, grid=op.grid, s=0.9)
        # an equal order given as another number type is accepted
        OverlayOperator(transfer=op.transfer, plan=op.plan, grid=op.grid, s=np.float32(0.5))


def mapped(mesh, matrix, shift):
    """The mesh under x -> matrix x + shift."""
    vertices = mesh.vertices @ np.asarray(matrix, dtype=float).T + shift
    return SimplicialMesh(dim=mesh.dim, vertices=vertices, simplices=mesh.simplices,
                          n_interior=mesh.n_interior)


def rotation_3d(a, b):
    rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, math.cos(b), -math.sin(b)], [0, math.sin(b), math.cos(b)]])
    return rz @ rx


def overlay_operator(mesh, s=0.5):
    grid = choose_grid(mesh_quality(mesh), 1.2)
    kernel = fft_uniform(s, mesh.dim, grid.n_fd, 2 * grid.n_fd + 2)
    return OverlayOperator(transfer=build_transfer(mesh, grid), plan=ToeplitzPlan(kernel),
                           grid=grid, s=s)


def full_grid_product(op, u):
    """I^T (A_grid (I u)) with the whole-grid plan, as the operator computed
    it before the product ran on a box."""
    matrix = whole_grid(op.transfer)
    g = matrix @ u
    return matrix.T @ op.plan.apply(g.reshape(op.grid.shape)).ravel()


def extent(nodes, grid):
    """Nodes per axis of the bounding box of these grid nodes."""
    return tuple(int(k.max() - k.min() + 1) for k in np.unravel_index(nodes, grid.shape))


def touched_extent(op):
    """Bounding box of the grid rows holding nonzero entries of the transfer."""
    return extent(np.flatnonzero(whole_grid(op.transfer).count_nonzero(axis=1)), op.grid)


def stored_extent(mesh, grid):
    """Bounding box of the covered nodes whose owner simplex has an interior
    vertex: the rows a transfer over the whole grid would store, zeros
    (coordinates clipped to 0) included."""
    nodes, owners, _ = fraclap.transfer._locate_nodes(mesh, grid)
    return extent(nodes[np.any(mesh.simplices[owners] < mesh.n_interior, axis=1)], grid)


BOX_MESHES = {
    "rotated 2D ball": lambda: mapped(ball_mesh(2, 8), [[0.6, -0.8], [0.8, 0.6]], 0.0),
    "rotated 3D ball": lambda: mapped(ball_mesh(3, 3), rotation_3d(0.7, 1.1), 0.0),
    "scattered ball": lambda: scattered_ball(8, 0.3),
    "off-centre 2D ellipse": lambda: mapped(ball_mesh(2, 8), np.diag([0.9, 0.45]),
                                            [0.15, -0.3]),
    "off-centre 3D ellipsoid": lambda: mapped(ball_mesh(3, 3), np.diag([0.8, 0.5, 0.95]),
                                              [0.1, 0.25, -0.15]),
}


class TestOperatorBox:
    @pytest.mark.parametrize("name", sorted(BOX_MESHES))
    def test_box_equals_full_grid_product(self, name):
        op = overlay_operator(BOX_MESHES[name]())
        box = op.box_plan.grid_shape
        assert box == touched_extent(op)
        assert all(b < n for b, n in zip(box, op.grid.shape))
        if name.startswith("off-centre"):
            assert len(set(box)) > 1
        rng = np.random.default_rng(0)
        for _ in range(3):
            u = rng.standard_normal(op.transfer.cols)
            ref = full_grid_product(op, u)
            got = op.apply(u)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim,n_fd", [(2, 6), (3, 3)])
    def test_whole_grid_box_plans_the_grid_shape(self, dim, n_fd):
        # a mesh has no interior vertex on the grid's edge nodes, so only a
        # transfer built by hand reaches them with nonzero entries
        grid = OverlayGrid(dim=dim, r_fd=1.2, n_fd=n_fd)
        op = OverlayOperator(transfer=identity_transfer(grid),
                             plan=ToeplitzPlan(fft_uniform(0.5, dim, n_fd, 2 * n_fd + 2)),
                             grid=grid, s=0.5)
        assert touched_extent(op) == op.grid.shape
        assert op.transfer.box == tuple(slice(0, n) for n in op.grid.shape)
        assert op.box_plan.grid_shape == op.plan.grid_shape == op.grid.shape
        assert op.transfer.matrix.shape == (op.grid.n_nodes, op.transfer.cols)
        u = np.random.default_rng(1).standard_normal(op.transfer.cols)
        np.testing.assert_array_equal(op.apply(u), full_grid_product(op, u))

    @pytest.mark.parametrize("dim,n_r", [(2, 6), (3, 3)])
    def test_stored_zeros_do_not_widen_the_box(self, dim, n_r):
        # a ball of radius r_fd = 1.2 has boundary vertices on the grid's
        # edge nodes, whose rows hold only (zero) entries of the transfer
        mesh = mapped(ball_mesh(dim, n_r), 1.2 * np.eye(dim), 0.0)
        op = overlay_operator(mesh)
        assert stored_extent(mesh, op.grid) == op.grid.shape
        # nor do rounding residues there: the box loses both edge nodes per axis
        box = op.box_plan.grid_shape
        assert box == touched_extent(op) == tuple(n - 2 for n in op.grid.shape)
        assert op.transfer.matrix.shape[0] == math.prod(box)
        u = np.random.default_rng(1).standard_normal(op.transfer.cols)
        ref = full_grid_product(op, u)
        assert np.linalg.norm(op.apply(u) - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_unrotated_disk_box_by_nonzero_entries(self):
        # the CLI's --ball 0.025 disk: stored zeros span 111 x 111 nodes, and
        # rounding residues reach a 110 x 111 box, which the tolerance drops
        mesh = generate_ball_mesh(2, 0.025)
        op = overlay_operator(mesh)
        assert stored_extent(mesh, op.grid) == (111, 111)
        assert op.box_plan.grid_shape == (109, 109)
        assert op.transfer.matrix.shape[0] == 109 * 109
        rng = np.random.default_rng(2)
        for _ in range(2):
            u = rng.standard_normal(op.transfer.cols)
            ref = full_grid_product(op, u)
            assert np.linalg.norm(op.apply(u) - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_rotated_disk_boxes_unchanged(self, seed):
        # the h=0.025 disk rotated by a seeded angle, as the multisource
        # benchmark workload draws it: both boxes are 109 x 109
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        mesh = mapped(generate_ball_mesh(2, 0.025), [[c, -s], [s, c]], 0.0)
        op = overlay_operator(mesh)
        assert stored_extent(mesh, op.grid) == (109, 109)
        assert op.box_plan.grid_shape == (109, 109)

    @pytest.mark.parametrize("name", sorted(BOX_MESHES))
    def test_stored_transposes_are_bitwise_the_transposed_products(self, name):
        op = overlay_operator(BOX_MESHES[name]())
        pre = build_circulant_preconditioner(op)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(op.transfer.cols)
        t = op.transfer
        g = op.box_plan.apply((t.matrix @ u).reshape(op.box_plan.grid_shape))
        np.testing.assert_array_equal(op.apply(u), t.matrix.T @ g.ravel())
        # the circulant preconditioner restricts with the transfer's one transpose
        assert pre.op is op
        assert t.transpose is t.transpose
        w = rng.standard_normal(op.grid.n_nodes)
        np.testing.assert_array_equal(t.transpose @ w.reshape(op.grid.shape)[t.box].ravel(),
                                      whole_grid(t).T @ w)

    def test_empty_transfer_keeps_the_whole_grid(self):
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=3)
        transfer = hand_transfer(scipy.sparse.csr_matrix((grid.n_nodes, 2)), grid)
        assert transfer.box == tuple(slice(0, n) for n in grid.shape)
        plan = ToeplitzPlan(fft_uniform(0.5, 2, 3, 16))
        op = OverlayOperator(transfer=transfer, plan=plan, grid=grid, s=0.5)
        assert op.box_plan.grid_shape == plan.grid_shape
        assert np.all(op.apply(np.ones(2)) == 0.0)

    def test_preconditioners_read_the_whole_grid_plan(self):
        op = overlay_operator(BOX_MESHES["off-centre 2D ellipse"]())
        assert op.plan.grid_shape == op.grid.shape
        assert op.box_plan.kernel is op.plan.kernel


class TestAssembleRhs:
    def test_zero_source(self):
        mesh, op = small_operator()
        b = assemble_rhs(mesh, op.transfer, 0.5, 0.0)
        assert np.all(b == 0.0)

    def test_constant_source_exponent(self):
        mesh, op = small_operator(s=0.5)
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        h = op.grid.h_fd
        np.testing.assert_allclose(b, h * op.transfer.column_sums, rtol=1e-14)

    def test_callable_source(self):
        mesh, op = small_operator()
        b = assemble_rhs(mesh, op.transfer, 0.25,
                         lambda pts: pts[:, 0] ** 2 + 1.0)
        x = mesh.vertices[:mesh.n_interior]
        expected = op.grid.h_fd ** 0.5 * op.transfer.column_sums * (x[:, 0] ** 2 + 1.0)
        np.testing.assert_allclose(b, expected, rtol=1e-14)


class TestCgSolve:
    def test_zero_rhs(self):
        mesh, op = small_operator()
        x, report = cg_solve(op, np.zeros(op.transfer.cols))
        assert report.converged and report.iterations == 0
        assert report.residual_history == []
        assert np.all(x == 0.0)

    def test_matches_dense_solve(self):
        mesh, op = small_operator()
        dense = dense_operator_matrix(op)
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        ref = np.linalg.solve(dense, b)
        x, report = cg_solve(op, b, tol=1e-13, max_iter=2000)
        assert report.converged
        assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_residual_history_properties(self):
        mesh, op = small_operator()
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        x, report = cg_solve(op, b, tol=1e-10)
        history = np.asarray(report.residual_history)
        assert np.all(history > 0.0)
        assert history[-1] <= 1e-10
        assert report.true_residual <= 1e-8

    def test_preconditioned_true_residual(self):
        mesh, op = small_operator(n_r=5)
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        for build in (build_sparse_preconditioner, build_circulant_preconditioner):
            precond = build(op)
            x, report = cg_solve(op, b, precond, tol=1e-10)
            assert report.converged
            assert report.true_residual <= 1e-8

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, math.inf, math.nan])
    def test_tolerance_outside_unit_interval(self, tol):
        # an infinite tol declared convergence after one iteration, since the
        # true-residual cross-check against sqrt(tol) cannot fire
        mesh, op = small_operator()
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"tol must lie strictly in \(0, 1\)"):
            cg_solve(op, b, tol=tol)


class _CraftedPreconditioner(Preconditioner):
    """Applies apply_fn(call_number, r)."""

    variant = "crafted"

    def __init__(self, apply_fn):
        self.apply_fn = apply_fn
        self.calls = 0

    def apply(self, r):
        self.calls += 1
        return self.apply_fn(self.calls, r)


class TestCgStopReason:
    def spd_system(self, n=12):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((n, n))
        a = q @ q.T + n * np.eye(n)
        return a, rng.standard_normal(n)

    def test_converged(self):
        mesh, op = small_operator()
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        x, report = cg_solve(op, b)
        assert report.converged and report.stop_reason == "converged"
        assert "stop_reason=converged\n" in report.to_text()

    def test_zero_rhs_converged(self):
        x, report = cg_solve(lambda v: v, np.zeros(3))
        assert report.stop_reason == "converged"

    def test_exact_zero_residual_converges(self):
        x, report = cg_solve(lambda v: 2.0 * v, np.ones(4))
        assert report.converged and report.stop_reason == "converged"
        assert report.iterations == 1
        assert report.residual_history == [1.0, 0.0]

    def test_max_iter(self):
        mesh, op = small_operator()
        b = assemble_rhs(mesh, op.transfer, 0.5, 1.0)
        x, report = cg_solve(op, b, max_iter=1)
        assert not report.converged
        assert report.stop_reason == "max_iter"
        assert report.iterations == 1
        assert len(report.residual_history) == 2

    def test_indefinite_preconditioner(self):
        a, b = self.spd_system()
        # positive on b, negative definite afterwards
        precond = _CraftedPreconditioner(lambda call, r: r if call == 1 else -r)
        x, report = cg_solve(lambda v: a @ v, b, precond)
        assert report.stop_reason == "preconditioner_indefinite"
        assert not report.converged and report.iterations == 1
        # the breaking iteration adds no entry: no fake zero
        assert report.residual_history == [1.0]

    def test_operator_not_positive(self):
        a, b = self.spd_system()
        x, report = cg_solve(lambda v: -(a @ v), b)
        assert report.stop_reason == "operator_not_positive"
        assert not report.converged and report.iterations == 0
        assert np.all(x == 0.0)

    def test_non_finite_operator(self):
        a, b = self.spd_system()
        x, report = cg_solve(lambda v: np.full_like(v, np.nan), b)
        assert report.stop_reason == "non_finite"
        assert not report.converged and report.iterations == 0

    def test_non_finite_preconditioner(self):
        a, b = self.spd_system()
        precond = _CraftedPreconditioner(
            lambda call, r: r if call == 1 else np.full_like(r, np.nan))
        x, report = cg_solve(lambda v: a @ v, b, precond)
        assert report.stop_reason == "non_finite"
        assert not report.converged and report.iterations == 1

    def test_true_residual_mismatch(self):
        a, b = self.spd_system()
        # shrinks every residual after the first: the preconditioned norm meets
        # tol at once while the true residual does not
        precond = _CraftedPreconditioner(lambda call, r: r if call == 1 else 1e-30 * r)
        x, report = cg_solve(lambda v: a @ v, b, precond)
        assert report.stop_reason == "true_residual_mismatch"
        assert not report.converged and report.iterations == 1
        assert report.true_residual > 1e-5

    @pytest.mark.parametrize("apply_fn,stop_reason", [
        (lambda call, r: -r, "preconditioner_indefinite"),
        (lambda call, r: np.zeros_like(r), "preconditioner_indefinite"),
        (lambda call, r: np.full_like(r, np.nan), "non_finite"),
    ], ids=["negative", "zero", "nan"])
    def test_initial_breakdown_reported(self, apply_fn, stop_reason):
        # a breakdown on the first residual is the report of a later one,
        # before any step: it raised ArithmeticError
        a, b = self.spd_system()
        precond = _CraftedPreconditioner(apply_fn)
        x, report = cg_solve(lambda v: a @ v, b, precond)
        assert report.stop_reason == stop_reason
        assert not report.converged and report.iterations == 0
        assert report.residual_history == [] and report.true_residual == 1.0
        assert np.all(x == 0.0) and precond.calls == 1
        assert report.preconditioner == "crafted"



class TestMic:
    def test_no_dropping_equals_cholesky(self):
        rng = np.random.default_rng(3)
        n = 40
        b = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        a = b @ b.T + n * np.eye(n)
        factor = mic_factor(scipy.sparse.csc_matrix(a), drop_tol=0.0)
        lower = factor.lower.toarray()
        assert np.max(np.abs(lower @ lower.T - a)) < 1e-11
        x = rng.standard_normal(n)
        assert np.max(np.abs(factor.solve(a @ x) - x)) < 1e-12

    def test_breakdown_raises(self):
        a = scipy.sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IncompleteCholeskyError) as err:
            mic_factor(a, drop_tol=0.0)
        assert err.value.shift == 0.0

    def test_retry_shift(self):
        # a clean SPD matrix factors on the first attempt, without the shift
        a = scipy.sparse.csc_matrix(np.diag([1.0, 2.0, 3.0]))
        factor = mic_factor_with_retry(a)
        assert factor.shift == 0.0

    def test_retry_reraises_when_the_shift_also_breaks_down(self):
        # the 1e-8 shift cannot lift column 1's pivot 1 - 2^2 = -3; the
        # error carries the retry's shift
        a = scipy.sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IncompleteCholeskyError) as err:
            mic_factor_with_retry(a)
        assert err.value.column == 1 and err.value.pivot < -2.9
        assert err.value.shift == 1e-8


def reference_mic_factor(matrix, drop_tol=1e-3, shift=0.0):
    """The numpy column loop that mic_factor replaced, kept as its bitwise
    reference: a dense working column updated by fancy indexing, the touched
    rows tracked by a mask.  The factor's most_dropped is the most entries
    dropped from one column."""
    a = scipy.sparse.csc_matrix(matrix)
    n = a.shape[0]
    a.sort_indices()
    drop_ref = drop_tol * np.asarray(np.abs(a).sum(axis=0)).ravel()

    col_rows, col_vals = [], []
    ptr = np.zeros(n, dtype=np.int64)
    heads = [[] for _ in range(n)]
    work = np.zeros(n)
    marked = np.zeros(n, dtype=bool)
    most_dropped = 0

    for j in range(n):
        touched = []
        seg = slice(a.indptr[j], a.indptr[j + 1])
        rows_a = a.indices[seg]
        vals_a = a.data[seg]
        lower_sel = rows_a >= j
        rows_j = rows_a[lower_sel]
        work[rows_j] = vals_a[lower_sel]
        marked[rows_j] = True
        touched.append(rows_j)
        if shift:
            if not marked[j]:
                marked[j] = True
                touched.append(np.array([j]))
            work[j] += shift

        for k in heads[j]:
            t = ptr[k]
            ljk = col_vals[k][t]
            seg_rows = col_rows[k][t:]
            work[seg_rows] -= ljk * col_vals[k][t:]
            new = seg_rows[~marked[seg_rows]]
            if new.size:
                marked[new] = True
                touched.append(new)
            ptr[k] = t + 1
            if t + 1 < col_rows[k].shape[0]:
                heads[col_rows[k][t + 1]].append(k)
        heads[j] = []

        touched_all = np.concatenate(touched)
        sub = touched_all[touched_all > j]
        sub_vals = work[sub]
        pivot = work[j]
        dropping = np.abs(sub_vals) < drop_ref[j]
        most_dropped = max(most_dropped, int(dropping.sum()))
        pivot += sub_vals[dropping].sum()
        if not pivot > 0.0:
            raise IncompleteCholeskyError(j, pivot)
        root = np.sqrt(pivot)
        keep = sub[~dropping]
        keep_vals = sub_vals[~dropping]
        order = np.argsort(keep)
        col_rows.append(np.concatenate(([j], keep[order])))
        col_vals.append(np.concatenate(([root], keep_vals[order] / root)))
        ptr[j] = 1
        if keep.size:
            heads[col_rows[j][1]].append(j)

        work[touched_all] = 0.0
        marked[touched_all] = False
        work[j] = 0.0
        marked[j] = False

    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([r.shape[0] for r in col_rows])
    lower = scipy.sparse.csc_matrix(
        (np.concatenate(col_vals), np.concatenate(col_rows), indptr), shape=(n, n))
    factor = MicFactor(lower, shift=shift)
    factor.most_dropped = most_dropped
    return factor


def mic_outcome(factorize, matrix, drop_tol):
    """What a factorization returns, as comparable values: the exact CSC
    arrays and shift, or the breakdown's column and pivot."""
    try:
        factor = factorize(matrix, drop_tol=drop_tol)
    except IncompleteCholeskyError as exc:
        return "breakdown", exc.column, exc.pivot
    lower = factor.lower
    return ("factor", lower.indptr.tolist(), lower.indices.tolist(), lower.data.tolist(),
            factor.shift)


@lru_cache(maxsize=None)
def mic_equivalence_cases():
    """(matrix, drop_tol) per case: a random SPD matrix at three thresholds,
    the singular grid Laplacian (needs the retry shift), n=1, and the sparse
    and Gram matrices of a small 2D and 3D ball."""
    rng = np.random.default_rng(21)
    n = 60
    b = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    spd = scipy.sparse.csc_matrix(b @ b.T + n * np.eye(n))
    cases = {f"spd_drop{tol:g}": (spd, tol) for tol in (0.0, 1e-3, 1e-1)}
    cases["retry_shift"] = (grid_laplacian(3), 1e-3)
    # x ** 0.5 rounds this one a unit in the last place off sqrt(x)
    cases["n1"] = (scipy.sparse.csc_matrix([[2.293947877959665]]), 1e-3)
    for dim, n_r in ((2, 5), (3, 3)):
        mesh, op = small_operator(n_r=n_r, dim=dim)
        near = reference_near_field_matrix(op.plan.kernel, op.grid)
        t = whole_grid(op.transfer)
        cases[f"sparse{dim}d"] = ((t.T @ (near @ t)).tocsc(), 1e-3)
        cases[f"gram{dim}d"] = ((t.T @ t).tocsc(), 1e-3)
    return cases


class TestMicMatchesReference:
    @pytest.mark.parametrize("case", ["spd_drop0", "spd_drop0.001", "spd_drop0.1",
                                      "retry_shift", "n1", "sparse2d", "gram2d",
                                      "sparse3d", "gram3d"])
    def test_bitwise_equal(self, case):
        matrix, drop_tol = mic_equivalence_cases()[case]
        factor = mic_factor_with_retry(matrix, drop_tol=drop_tol)
        ref = reference_mic_factor(matrix, drop_tol=drop_tol, shift=factor.shift)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(factor.lower, name), getattr(ref.lower, name)), name
        assert factor.shift == ref.shift

    def test_retry_case_breaks_down_unshifted(self):
        matrix, drop_tol = mic_equivalence_cases()["retry_shift"]
        assert mic_factor_with_retry(matrix, drop_tol=drop_tol).shift > 0.0
        assert mic_outcome(mic_factor, matrix, drop_tol)[0] == "breakdown"

    def test_cases_drop_eight_or_more_from_a_column(self):
        # from eight terms on the dropped sum takes numpy's pairwise order
        for case in ("spd_drop0.1", "sparse3d", "gram3d"):
            matrix, drop_tol = mic_equivalence_cases()[case]
            assert reference_mic_factor(matrix, drop_tol=drop_tol).most_dropped >= 8, case

    @pytest.mark.parametrize("case", ["2x2", "grid_laplacian"])
    def test_breakdown_matches(self, case):
        matrix = {"2x2": scipy.sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])),
                  "grid_laplacian": grid_laplacian(3)}[case]
        got = mic_outcome(mic_factor, matrix, 1e-3)
        assert got[0] == "breakdown"
        assert got == mic_outcome(reference_mic_factor, matrix, 1e-3)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), density=st.floats(0.05, 0.6),
           dominance=st.floats(0.0, 1.5), drop_tol=st.sampled_from([0.0, 1e-3, 1e-1, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_symmetric(self, n, density, dominance, drop_tol, seed):
        # diagonal = dominance x off-diagonal row sum: SPD from 1 on, often
        # indefinite below
        rng = np.random.default_rng(seed)
        b = scipy.sparse.random(n, n, density=density, random_state=rng,
                                data_rvs=rng.standard_normal)
        off = b + b.T
        diag = dominance * np.asarray(abs(off).sum(axis=1)).ravel() + 1e-3
        matrix = (off + scipy.sparse.diags(diag)).tocsc()
        assert (mic_outcome(mic_factor, matrix, drop_tol)
                == mic_outcome(reference_mic_factor, matrix, drop_tol))


def reference_mic_solve(lower, b):
    """(L L^T)^{-1} b by two sparse triangular substitutions, as the factor
    solved before it kept a SuperLU factorization."""
    y = spsolve_triangular(lower.tocsr(), np.asarray(b, dtype=float), lower=True)
    return spsolve_triangular(lower.T.tocsr(), y, lower=False)


def grid_laplacian(n):
    """Neumann Laplacian of an n x n grid: singular, so the compensated last
    pivot rounds to zero and the factor needs its retry shift."""
    path = scipy.sparse.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                               -np.ones(n - 1)], [-1, 0, 1])
    eye = scipy.sparse.identity(n)
    return (scipy.sparse.kron(path, eye) + scipy.sparse.kron(eye, path)).tocsc()


@lru_cache(maxsize=None)
def mic_factor_cases():
    rng = np.random.default_rng(11)
    n = 60
    b = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    a = scipy.sparse.csc_matrix(b @ b.T + n * np.eye(n))
    mesh, op = small_operator(n_r=5)
    return {
        "drop0": mic_factor(a, drop_tol=0.0),
        "drop1e-3": mic_factor(a, drop_tol=1e-3),
        "retry_shift": mic_factor_with_retry(grid_laplacian(3)),
        "n1": mic_factor(scipy.sparse.csc_matrix([[4.0]])),
        "sparse": build_sparse_preconditioner(op).factor,
        "gram": mic_factor_with_retry((op.transfer.matrix.T @ op.transfer.matrix).tocsc()),
    }


class TestMicSolve:
    def test_retry_case_is_shifted(self):
        assert mic_factor_cases()["retry_shift"].shift > 0.0

    @pytest.mark.parametrize("case", ["drop0", "drop1e-3", "retry_shift", "n1", "sparse",
                                      "gram"])
    def test_matches_triangular_substitution(self, case):
        factor = mic_factor_cases()[case]
        rng = np.random.default_rng(12)
        for _ in range(3):
            b = rng.standard_normal(factor.lower.shape[0])
            got = factor.solve(b)
            ref = reference_mic_solve(factor.lower, b)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["drop1e-3", "retry_shift", "sparse", "gram"])
    def test_superlu_keeps_the_triangle(self, case):
        factor = mic_factor_cases()[case]
        lower = factor.lower
        n = lower.shape[0]
        assert lower.format == "csc"
        lu = factor._lu
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert np.array_equal(lu.perm_c, np.arange(n))
        u = lu.U
        assert u.nnz == n and np.all(u.diagonal() > 0.0)
        # L D^-1 with unit diagonal, and nothing filled in
        assert lu.L.nnz == lower.nnz
        d = lower.diagonal()
        scaled = (lu.L @ scipy.sparse.diags(u.diagonal())).toarray()
        assert np.max(np.abs(scaled - lower.toarray())) <= 1e-14 * np.max(d)



def reference_near_field_matrix(kernel, grid):
    """Whole-grid near-field operator (kernel entries at offsets with
    Chebyshev norm <= 1) built entry by entry from per-offset COO indices, as
    the sparse preconditioner built it before the box stencil."""
    dim = grid.dim
    k = grid.nodes_per_axis
    total = grid.n_nodes
    strides = np.array([k ** (dim - 1 - a) for a in range(dim)])
    offsets = np.stack(np.meshgrid(*([np.arange(-1, 2)] * dim), indexing="ij"),
                       axis=-1).reshape(-1, dim)
    rows_all, cols_all, vals_all = [], [], []
    for off in offsets:
        value = kernel.coeffs[tuple(np.abs(off))]
        axis_rows = [np.arange(max(0, -o), k - max(0, o)) for o in off]
        grids = np.meshgrid(*axis_rows, indexing="ij")
        rows = sum(g.ravel() * st for g, st in zip(grids, strides))
        cols = rows + int(off @ strides)
        rows_all.append(rows)
        cols_all.append(cols)
        vals_all.append(np.full(rows.shape[0], value))
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(total, total))
    return mat.tocsr()


def assembled_near_field(op, monkeypatch):
    """The matrix build_sparse_preconditioner hands to its MIC factorization."""
    seen = []

    def capture(matrix):
        seen.append(matrix)
        return SimpleNamespace(shift=0.0)  # the preconditioner reads the factor's shift
    monkeypatch.setattr(fraclap.solver, "mic_factor_with_retry", capture)
    build_sparse_preconditioner(op)
    return seen[0]


def assert_bitwise_equal(a, b):
    """Same entries and values in CSC form with sorted row indices."""
    a, b = scipy.sparse.csc_matrix(a, copy=True), scipy.sparse.csc_matrix(b, copy=True)
    a.sort_indices()
    b.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def interval_mesh(n):
    """Uniform mesh of (-1, 1) with n elements, interior vertices first."""
    order = np.r_[1:n, 0, n]
    position = np.argsort(order)
    simplices = position[np.c_[np.arange(n), np.arange(1, n + 1)]]
    return SimplicialMesh(dim=1, vertices=np.linspace(-1.0, 1.0, n + 1)[order][:, None],
                          simplices=simplices, n_interior=n - 1)


def line_transfer(grid, row):
    """Transfer whose nonzero rows are one line of grid nodes along the last
    axis, at index ``row`` on the others, so the box is one node wide on
    every other axis."""
    k = grid.nodes_per_axis
    nodes = np.ravel_multi_index((np.full(k, row),) * (grid.dim - 1) + (np.arange(k),),
                                 grid.shape)
    weights = np.random.default_rng(7).uniform(0.5, 1.0, k)
    matrix = scipy.sparse.csr_matrix((weights, (nodes, np.arange(k))), shape=(grid.n_nodes, k))
    return hand_transfer(matrix, grid, weights)


def hand_operator(transfer, s=0.5):
    grid = transfer.grid
    kernel = fft_uniform(s, grid.dim, grid.n_fd, 4 * grid.n_fd + 4)
    return OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid, s=s)


NEAR_FIELD_CASES = {
    "1D interval": lambda: overlay_operator(interval_mesh(40)),
    # the CLI's --ball 0.025 disk, whose box is 110 x 111 nodes
    "2D ball": lambda: overlay_operator(generate_ball_mesh(2, 0.025)),
    "3D ball": lambda: overlay_operator(ball_mesh(3, 4)),
    "identity transfer": lambda: hand_operator(identity_transfer(
        OverlayGrid(dim=3, r_fd=1.0, n_fd=3))),
    "one-node-wide box": lambda: hand_operator(line_transfer(
        OverlayGrid(dim=2, r_fd=1.0, n_fd=4), 2)),
}


class TestSparsePreconditioner:
    @pytest.mark.parametrize("name", sorted(NEAR_FIELD_CASES))
    def test_box_assembly_equals_whole_grid_reference(self, name, monkeypatch):
        op = NEAR_FIELD_CASES[name]()
        box = op.box_plan.grid_shape
        if name == "identity transfer":
            assert box == op.grid.shape
        elif name == "one-node-wide box":
            assert box == (1, op.grid.nodes_per_axis)
        else:
            assert np.prod(box) < op.grid.n_nodes
        t = whole_grid(op.transfer)
        ref = t.T @ (reference_near_field_matrix(op.plan.kernel, op.grid) @ t)
        assert_bitwise_equal(assembled_near_field(op, monkeypatch), ref)

    def test_stencil_mask_size(self):
        mesh, op = small_operator()
        shape = op.box_plan.grid_shape
        near = _near_field_stencil(op.plan.kernel, shape)
        center = np.ravel_multi_index(tuple(n // 2 for n in shape), shape)
        row = near.getrow(center)
        assert row.nnz == 9  # Chebyshev-norm <= 1 neighborhood in 2 dimensions

    def test_identity_transfer_extracts_kernel(self, monkeypatch):
        grid = OverlayGrid(dim=2, r_fd=1.0, n_fd=4)
        kernel = fft_uniform(0.5, 2, 4, 32)
        transfer = identity_transfer(grid)
        op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel),
                             grid=grid, s=0.5)
        a_mesh = assembled_near_field(op, monkeypatch).toarray()
        k = grid.nodes_per_axis
        center = grid.n_nodes // 2
        row = a_mesh[center].reshape(k, k)
        np.testing.assert_allclose(row[4, 4], kernel.coeffs[0, 0], rtol=1e-14)
        np.testing.assert_allclose(row[4, 5], kernel.coeffs[0, 1], rtol=1e-14)
        np.testing.assert_allclose(row[5, 5], kernel.coeffs[1, 1], rtol=1e-14)
        assert row[4, 6] == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_variant_names_the_pattern(self, dim):
        mesh, op = small_operator(n_r=2, dim=dim)
        assert build_sparse_preconditioner(op).variant == f"sparse{3 ** dim}"

    def test_factorization_quality(self):
        mesh, op = small_operator(n_r=5)
        precond = build_sparse_preconditioner(op)
        near = reference_near_field_matrix(op.plan.kernel, op.grid)
        t = whole_grid(op.transfer)
        a_mesh = t.T @ (near @ t)
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = rng.standard_normal(op.transfer.cols)
            w = precond.apply(a_mesh @ v)
            assert np.linalg.norm(w - v) <= 0.5 * np.linalg.norm(v)

    def test_spd_application(self):
        mesh, op = small_operator(n_r=5)
        for build in (build_sparse_preconditioner, build_circulant_preconditioner):
            precond = build(op)
            rng = np.random.default_rng(5)
            for _ in range(5):
                u = rng.standard_normal(op.transfer.cols)
                v = rng.standard_normal(op.transfer.cols)
                pu = precond.apply(u)
                pv = precond.apply(v)
                assert u @ pu > 0.0
                assert abs(u @ pv - v @ pu) <= 1e-10 * max(abs(u @ pv), 1.0)


def naive_circulant_column(kernel, impulse_index):
    """Column of the reduced-grid surrogate operator evaluated through the
    explicit reduced transforms (frequency sums written out directly)."""
    n = kernel.n_fd
    size = 2 * n
    def t_entry(m):
        return kernel.at(m)

    p = np.arange(-n, n)
    # frequency samples of the kernel block
    t_hat = np.zeros(size, dtype=complex)
    for ip, pv in enumerate(p):
        acc = 0.0
        for mv in range(-n, n):
            acc += t_entry(mv) * np.exp(-2j * np.pi * (mv + n) * (pv + n) / size)
        t_hat[ip] = acc
    # impulse at grid index impulse_index (offset coordinates -n..n-1)
    u = np.zeros(size)
    u[impulse_index] = 1.0
    u_hat = np.array([np.sum(u * np.exp(-2j * np.pi * (np.arange(size)) * (pv + n) / size))
                      for pv in p])
    out = np.zeros(size, dtype=complex)
    for jv in range(size):
        acc = 0.0
        for ip, pv in enumerate(p):
            acc += (t_hat[ip] * u_hat[ip] * (-1.0) ** (pv + n)
                    * np.exp(2j * np.pi * (pv + n) * (jv) / size))
        out[jv] = acc / size
    return out.real


def circulant_apply(kernel, w_sub):
    """Action of the circulant surrogate itself: the real transform pair over
    the half spectrum of circulant_payload(kernel), as circulant_solve uses
    it."""
    half = circulant_payload(kernel)[..., :kernel.n_fd + 1]
    return scipy.fft.irfftn(scipy.fft.rfftn(w_sub) * half, s=w_sub.shape)


class TestCirculantPreconditioner:
    def test_surrogate_matches_naive_transform_oracle(self):
        kernel = analytic_1d(0.5, 8)
        for impulse in (0, 3, 11):
            w = np.zeros(16)
            w[impulse] = 1.0
            got = circulant_apply(kernel, w)
            ref = naive_circulant_column(kernel, impulse)
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_identity_transfer_inverse_round_trip(self):
        kernel = analytic_1d(0.5, 8)
        grid = OverlayGrid(dim=1, r_fd=1.0, n_fd=8)
        transfer = identity_transfer(grid)
        op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel),
                             grid=grid, s=0.5)
        precond = build_circulant_preconditioner(op)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(16)
        round_trip = precond.circulant_solve(circulant_apply(kernel, v))
        assert np.max(np.abs(round_trip - v)) < 1e-10

    @pytest.mark.parametrize("dim,n_fd", [(1, 8), (2, 6), (3, 3)])
    def test_real_transform_matches_complex(self, dim, n_fd):
        # payloads with floored and with negative entries (spectral surrogate)
        for kernel in (fft_uniform(0.5, dim, n_fd, 4 * n_fd + 4),
                       spectral(0.5, dim, n_fd, 16)):
            payload = circulant_payload(kernel)
            grid = OverlayGrid(dim=dim, r_fd=1.0, n_fd=n_fd)
            op = OverlayOperator(transfer=identity_transfer(grid), plan=ToeplitzPlan(kernel),
                                 grid=grid, s=0.5)
            precond = CirculantPreconditioner(payload, op)
            w = np.random.default_rng(dim).standard_normal((2 * n_fd,) * dim)
            spectrum = scipy.fft.fftn(w)
            for got, ref in ((precond.circulant_solve(w),
                              scipy.fft.ifftn(spectrum / payload).real),
                             (circulant_apply(kernel, w),
                              scipy.fft.ifftn(spectrum * payload).real)):
                assert got.shape == w.shape and got.dtype == np.float64
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_payload_positive_for_true_kernel(self):
        for kernel in (analytic_1d(0.5, 16), fft_uniform(0.5, 2, 12, 64),
                       fft_uniform(0.25, 2, 12, 64)):
            payload = circulant_payload(kernel)
            assert np.all(np.isreal(payload))
            assert np.all(payload > 0.0)

    def test_preconditioner_helps(self):
        mesh, op = small_operator(n_r=6, s=0.75)
        b = assemble_rhs(mesh, op.transfer, 0.75, 1.0)
        x0, rep0 = cg_solve(op, b, None, tol=1e-10)
        x1, rep1 = cg_solve(op, b, build_circulant_preconditioner(op), tol=1e-10)
        assert rep1.converged
        assert rep1.iterations < rep0.iterations


CIRCULANT_WINDOW_CASES = {
    **{name: (lambda build=build: overlay_operator(build())) for name, build in BOX_MESHES.items()},
    "identity transfer": NEAR_FIELD_CASES["identity transfer"],
    "one-node-wide box": NEAR_FIELD_CASES["one-node-wide box"],
}


def whole_grid_circulant(pre, op, r):
    """gram.solve(I^T pad(circ(I gram.solve(r)))) with the whole transfer and
    its whole-grid transpose, put back on every grid node (whole_grid)."""
    gram = op.transfer.gram_solver
    matrix = whole_grid(op.transfer)
    g = (matrix @ gram.solve(r)).reshape(op.grid.shape)
    sub = (slice(0, 2 * op.grid.n_fd),) * op.grid.dim
    padded = np.zeros(op.grid.shape)
    padded[sub] = pre.circulant_solve(g[sub])
    return gram.solve(matrix.T.tocsr() @ padded.ravel())


class TestPreconditionersReadTheWindow:
    @pytest.mark.parametrize("name", sorted(CIRCULANT_WINDOW_CASES))
    def test_circulant_apply_equals_whole_grid_formula(self, name):
        op = CIRCULANT_WINDOW_CASES[name]()
        box = op.transfer.box
        assert tuple(b.stop - b.start for b in box) == op.box_plan.grid_shape
        assert op.transfer.matrix.shape == (math.prod(op.box_plan.grid_shape), op.transfer.cols)
        if name == "identity transfer":
            assert box == tuple(slice(0, n) for n in op.grid.shape)
        pre = build_circulant_preconditioner(op)
        rng = np.random.default_rng(4)
        for _ in range(2):
            r = rng.standard_normal(op.transfer.cols)
            np.testing.assert_array_equal(pre.apply(r), whole_grid_circulant(pre, op, r))

    # (the identity transfer has as many unknowns as grid nodes)
    @pytest.mark.parametrize("name", sorted(set(CIRCULANT_WINDOW_CASES) - {"identity transfer"}))
    def test_no_preconditioner_matrix_spans_the_grid(self, name):
        op = CIRCULANT_WINDOW_CASES[name]()
        sparse, circulant = build_sparse_preconditioner(op), build_circulant_preconditioner(op)
        held = [*vars(sparse).values(), *vars(sparse.factor).values(), *vars(circulant).values()]
        matrices = [v for v in held if scipy.sparse.issparse(v)]
        assert matrices  # the factor's triangle
        assert all(op.grid.n_nodes not in m.shape for m in matrices)


GRAM_MESHES = {
    "2D ball": lambda: ball_mesh(2, 6),
    "3D ball": lambda: ball_mesh(3, 3),
    "rotated 2D ball": BOX_MESHES["rotated 2D ball"],
    "rotated 3D ball": BOX_MESHES["rotated 3D ball"],
}


def dense_gram_solve(solver, n):
    """The matrix of GramSolver.solve, one unit vector at a time."""
    return np.column_stack([solver.solve(e) for e in np.eye(n)])


def seeded_rotation(mesh, seed):
    """The mesh turned by the seeded rotation the benchmark workloads draw: a
    uniform angle in 2D, a sign-fixed QR factor of a Gaussian matrix in 3D."""
    rng = np.random.default_rng(seed)
    if mesh.dim == 2:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        q = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    else:
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
    return mapped(mesh, q, 0.0)


class TestGramSolver:
    @pytest.mark.parametrize("name", sorted(GRAM_MESHES))
    def test_upper_end_bounds_the_scaled_spectrum(self, name):
        t = overlay_operator(GRAM_MESHES[name]()).transfer.matrix.toarray()
        gram = t.T @ t
        scale = 1.0 / np.sqrt(np.diag(gram))
        solver = GramSolver(scipy.sparse.csr_matrix(t))
        np.testing.assert_allclose(solver.scaled.toarray(), scale[:, None] * gram * scale,
                                   rtol=1e-14, atol=0.0)
        eigvals = np.linalg.eigvalsh(solver.scaled.toarray())
        assert 0.0 < eigvals[0] and eigvals[-1] <= solver.hi
        assert solver.lo == GRAM_LOWER * solver.hi

    @pytest.mark.parametrize("name", sorted(GRAM_MESHES))
    def test_solve_is_symmetric_positive_definite(self, name):
        op = overlay_operator(GRAM_MESHES[name]())
        solver = op.transfer.gram_solver
        dense = dense_gram_solve(solver, op.transfer.cols)
        assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense))
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T))[0] > 0.0
        # on the scaled spectrum, x p(x) = 1 - r(x) with |r| < 1, and
        # |r| <= 1 / T_k((hi + lo) / (hi - lo)) from lo to hi
        lam, vecs = np.linalg.eigh(solver.scaled.toarray())
        root = np.sqrt(np.diag((op.transfer.matrix.T @ op.transfer.matrix).toarray()))
        p = np.diag(vecs.T @ (root[:, None] * dense * root) @ vecs)
        residual = 1.0 - lam * p
        assert np.all(np.abs(residual) < 1.0)
        level = 1.0 / math.cosh(GRAM_DEGREE * math.acosh(
            (solver.hi + solver.lo) / (solver.hi - solver.lo)))
        assert np.all(np.abs(residual[lam >= solver.lo]) <= level * (1.0 + 1e-9))

    def test_zero_gram_diagonal_raises(self):
        # an n_fd=3 grid leaves 218 of the h=0.1 disk's columns empty
        mesh = generate_ball_mesh(2, 0.1)
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=3)
        transfer = build_transfer(mesh, grid)
        with pytest.raises(ArithmeticError, match="218 zero diagonal entries"):
            GramSolver(transfer.matrix)
        op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(fft_uniform(0.5, 2, 3, 16)),
                             grid=grid, s=0.5)
        with pytest.raises(ArithmeticError, match="zero diagonal"):
            build_circulant_preconditioner(op)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_circulant_iterations_on_rotated_balls(self, seed):
        # the 2D refinement levels solved as the convergence benchmark solves
        # them (one default fft kernel restricted per level) and the 3D h=0.2
        # ball at m = 2^9; a Gram solve of degree 6 takes one more iteration
        # on every one of them
        meshes = [seeded_rotation(generate_ball_mesh(2, h), seed)
                  for h in (0.1, 0.07, 0.05, 0.035)]
        grids = [choose_grid(mesh_quality(mesh), 1.2) for mesh in meshes]
        shared = build_kernel("fft", 0.5, 2, max(g.n_fd for g in grids))
        counts = []
        for mesh, grid in zip(meshes, grids):
            _, report = solve_bvp(mesh, 0.5, "fft", n_fd=grid.n_fd, precond="circulant",
                                  kernel=restrict(shared, grid.n_fd))
            assert report.converged
            counts.append(report.iterations)
        assert counts == [9, 10, 10, 11]
        mesh = seeded_rotation(generate_ball_mesh(3, 0.2), seed)
        _, report = solve_bvp(mesh, 0.5, "fft", m=512, precond="circulant")
        assert report.converged and report.iterations == 9


class TestExactSolution:
    def test_vanishes_outside(self):
        assert exact_solution(2, 0.5, np.array([1.0, 0.5])) == 0.0
        assert exact_solution(3, 0.3, np.array([[2.0, 0, 0], [0, 0, 0]]))[0] == 0.0

    def test_center_value_2d(self):
        assert exact_solution(2, 0.5, np.zeros(2)) == pytest.approx(2 / math.pi, rel=1e-13)

    def test_center_value_3d(self):
        assert exact_solution(3, 0.5, np.zeros(3)) == pytest.approx(0.5, rel=1e-13)

    def test_coefficient_formula(self):
        s, dim = 0.3, 2
        coeff = gamma(dim / 2) / (2 ** (2 * s) * gamma(1 + s) * gamma(dim / 2 + s))
        x = np.array([0.3, -0.4])
        expected = coeff * (1 - 0.25) ** s
        assert exact_solution(dim, s, x) == pytest.approx(expected, rel=1e-13)


class TestUnitBallReference:
    """Without exact, l2_error is measured against the closed-form unit-ball
    solution, and only on a mesh of the unit ball."""

    @pytest.mark.parametrize("mesh", [ball_mesh(2, 4), rotated(ball_mesh(2, 8), 3),
                                      rotated(ball_mesh(3, 3), 7), scattered_ball(8, 0.3)],
                             ids=["ball", "rotated ball", "rotated 3D ball", "scattered ball"])
    def test_ball_error_is_the_closed_form_error(self, mesh):
        assert is_unit_ball(mesh)
        _, report = solve_bvp(mesh, 0.5, "fft", m=256)
        _, explicit = solve(setup(mesh, 0.5, "fft", m=256)[0], mesh,
                            exact=lambda pts: exact_solution(mesh.dim, 0.5, pts))
        assert report.converged and 0.0 < report.l2_error < 0.1
        assert report.l2_error == explicit.l2_error

    @pytest.mark.parametrize("dim,n_r", [(2, 8), (3, 3)])
    def test_mirror_image_solves_alike(self, dim, n_r):
        # x -> -x reverses every simplex's orientation, which nothing reads:
        # the mirror image keeps the volumes, a_h and the solve of the ball
        mesh = ball_mesh(dim, n_r)
        mirror = mapped(mesh, np.diag([-1.0] + [1.0] * (dim - 1)), 0.0)
        np.testing.assert_array_equal(mirror.element_volumes(), mesh.element_volumes())
        assert mesh_quality(mirror).a_h == mesh_quality(mesh).a_h
        (_, report), (_, mirrored) = (solve_bvp(m, 0.5, "fft", m=256, precond="circulant")
                                      for m in (mesh, mirror))
        assert report.converged and mirrored.converged
        assert mirrored.iterations == report.iterations
        assert mirrored.l2_error == pytest.approx(report.l2_error, rel=1e-12, abs=0.0)

    def test_square_has_no_default_error(self):
        mesh = square_mesh(20)
        assert mesh.n_interior == 361 and not is_unit_ball(mesh)
        _, report = solve_bvp(mesh, 0.5, "fft", m=256)
        assert report.converged and math.isnan(report.l2_error)
        _, explicit = solve(setup(mesh, 0.5, "fft", m=256)[0], mesh, f=0.0,
                            exact=lambda pts: 0.0 * pts[:, 0])
        assert explicit.l2_error == 0.0

    @pytest.mark.parametrize("scale,accepted", [(1.0 + 5e-13, True), (1.0 - 5e-13, True),
                                                (1.0 + 2e-12, False), (1.0 - 2e-12, False)])
    def test_boundary_tolerance(self, scale, accepted):
        mesh = ball_mesh(2, 4)
        vertices = mesh.vertices.copy()
        vertices[-1] *= scale
        moved = SimplicialMesh(dim=2, vertices=vertices, simplices=mesh.simplices,
                               n_interior=mesh.n_interior)
        assert is_unit_ball(moved) == accepted

    def test_interior_vertex_outside_the_ball(self):
        # a valid mesh with its boundary on the sphere lies inside the ball, so
        # the rule's second half is checked on the arrays it reads
        mesh = ball_mesh(2, 4)
        vertices = mesh.vertices.copy()
        assert is_unit_ball(SimpleNamespace(vertices=vertices, n_interior=mesh.n_interior))
        vertices[0] = [0.0, 1.0 + 2e-12]
        assert not is_unit_ball(SimpleNamespace(vertices=vertices, n_interior=mesh.n_interior))


class TestSolveBvp:
    def test_zero_source(self):
        mesh = ball_mesh(2, 4)
        u, report = solve(setup(mesh, 0.5, "fft", m=64)[0], mesh, f=0.0)
        assert report.converged and report.iterations == 0
        assert np.all(u == 0.0)

    def test_deterministic(self):
        mesh = ball_mesh(2, 4)
        u1, r1 = solve_bvp(mesh, 0.5, "fft", m=256)
        u2, r2 = solve_bvp(mesh, 0.5, "fft", m=256)
        np.testing.assert_array_equal(u1, u2)
        assert r1.iterations == r2.iterations
        assert r1.residual_history == r2.residual_history
        assert r1.l2_error == r2.l2_error

    def test_pipeline_produces_finite_error(self):
        mesh = ball_mesh(2, 8)
        u, report = solve_bvp(mesh, 0.5, "fft", m=512, precond="circulant")
        assert report.converged
        assert np.isfinite(report.l2_error) and report.l2_error < 0.1
        for phase in ("grid", "kernel", "transfer", "rank_check", "precond",
                      "solve", "error"):
            assert phase in report.wall_times

    def test_rejects_kernel_of_another_order(self):
        # a kernel of order 0.75 under s=0.5 converged to a wrong l2_error
        mesh = ball_mesh(2, 4)
        kernel = fft_uniform(0.75, 2, choose_grid(mesh_quality(mesh), 1.2).n_fd, 64)
        with pytest.raises(ValueError, match="s = 0.5 is not the kernel's order 0.75"):
            solve_bvp(mesh, 0.5, "fft", kernel=kernel)
        assert solve_bvp(mesh, 0.75, "fft", kernel=kernel)[1].converged

    def test_rejects_kernel_of_another_scheme(self):
        # an fft kernel under scheme="nufft" converged and said nothing
        mesh = ball_mesh(2, 4)
        kernel = build_kernel("fft", 0.5, 2, 8)
        with pytest.raises(ValueError, match="supplied kernel has scheme 'fft', not 'nufft'"):
            solve_bvp(mesh, 0.5, "nufft", n_fd=8, kernel=kernel)
        assert solve_bvp(mesh, 0.5, "fft", n_fd=8, kernel=kernel)[1].converged

    def test_analytic_scheme_needs_1d(self):
        mesh = ball_mesh(2, 4)
        with pytest.raises(ValueError):
            solve_bvp(mesh, 0.5, "analytic")

    def test_precond_shift_unshifted(self):
        mesh = ball_mesh(2, 5)
        for precond in ("none", "sparse", "circulant"):
            _, report = solve_bvp(mesh, 0.5, "fft", m=512, precond=precond)
            assert report.converged and report.precond_shift == 0.0
        assert "\nprecond_shift=0.0000000000000000e+00\n" in report.to_text()

    def test_precond_shift_after_retry(self, monkeypatch):
        # the first attempt breaks down, so the build takes the retry path
        real, shifts = ichol.mic_factor, []

        def first_attempt_breaks(matrix, drop_tol=1e-3, shift=0.0):
            if not shift:
                raise IncompleteCholeskyError(0, -1.0)
            shifts.append(shift)
            return real(matrix, drop_tol=drop_tol, shift=shift)

        monkeypatch.setattr(ichol, "mic_factor", first_attempt_breaks)
        mesh = ball_mesh(2, 5)
        _, report = solve_bvp(mesh, 0.5, "fft", m=512, precond="sparse")
        assert report.converged
        assert report.precond_shift == shifts[-1] > 0.0
        assert f"\nprecond_shift={shifts[-1]:.16e}\n" in report.to_text()

    def test_sparse_breakdown_reported(self, monkeypatch):
        # a MIC factor that breaks down after its retry is CG's first-residual
        # stop in solve(), reported with the retry's shift; it raised
        # IncompleteCholeskyError from solve_bvp.  build_sparse_preconditioner
        # itself still raises it
        shifts = []

        def breaks(matrix, drop_tol=1e-3, shift=0.0):
            shifts.append(shift)
            raise IncompleteCholeskyError(0, -1.0, shift)

        monkeypatch.setattr(ichol, "mic_factor", breaks)
        mesh = ball_mesh(2, 5)
        op, _ = setup(mesh, 0.5, "fft", m=512)
        with pytest.raises(IncompleteCholeskyError) as err:
            build_sparse_preconditioner(op)
        assert shifts[0] == 0.0 and err.value.shift == shifts[-1] > 0.0
        u, report = solve(op, mesh, "sparse")
        assert not report.converged and report.stop_reason == "preconditioner_indefinite"
        assert report.iterations == 0 and report.residual_history == []
        assert report.true_residual == 1.0 and np.all(u == 0.0)
        assert report.preconditioner == "sparse9" and report.precond_shift == shifts[-1]
        assert f"\nprecond_shift={shifts[-1]:.16e}\n" in report.to_text()
        assert report.l2_error > 0.0

    def test_preconditioner_carries_retry_shift(self):
        factor = mic_factor_with_retry(grid_laplacian(3))
        assert factor.shift > 0.0
        assert SparsePreconditioner(factor, 9).shift == factor.shift
        assert Preconditioner().shift == 0.0

    @pytest.mark.parametrize("chosen", [True, False])
    def test_3d_n_fd_cap_before_kernel(self, chosen, monkeypatch):
        # n_fd = 129 is one past the 3D cap, both as a chosen and as an
        # explicit grid; max_n_fd lifts the cap and the build is reached
        class KernelBuilt(Exception):
            pass

        def no_kernel(*args, **kwargs):
            raise KernelBuilt

        monkeypatch.setattr(fraclap.solver, "build_kernel", no_kernel)
        mesh = ball_mesh(3, 2)
        if chosen:
            grid = dict(r_fd=128.5 * mesh_quality(mesh).a_h)
        else:
            grid = dict(n_fd=129)
        with pytest.raises(MemoryError, match="n_fd = 129, beyond the cap 128"):
            solve_bvp(mesh, 0.5, "fft", **grid)
        with pytest.raises(KernelBuilt):
            solve_bvp(mesh, 0.5, "fft", max_n_fd=129, **grid)

    def test_report_serialization(self):
        report = SolveReport(iterations=3, residual_history=[1.0, 0.1],
                             l2_error=0.5, wall_times={"solve": 0.1}, converged=True,
                             true_residual=1e-12, preconditioner="none")
        text = report.to_text()
        assert "converged=True" in text
        assert "iterations=3" in text
        assert "time_solve=" in text
        assert "preconditioner=none\nprecond_shift=0.0000000000000000e+00\n" in text


class TestSetup:
    def test_times_in_pipeline_order(self):
        mesh = ball_mesh(2, 4)
        op, times = setup(mesh, 0.5, "fft", m=256)
        assert list(times) == ["grid", "kernel", "transfer", "rank_check"]
        assert op.grid == choose_grid(mesh_quality(mesh), 1.2)
        assert op.transfer.cols == mesh.n_interior

    @pytest.mark.parametrize("scheme,kernel_args,message", [
        ("fft", (0.5, 2, 9), "kernel of dim 2 and n_fd 9 on"),
        ("fft", (0.5, 3, 8), "kernel of dim 3 and n_fd 8 on"),
        ("fft", (0.75, 2, 8), "s = 0.5 is not the kernel's order 0.75"),
        ("nufft", (0.5, 2, 8), "supplied kernel has scheme 'fft', not 'nufft'")],
        ids=["n_fd", "dim", "order", "scheme"])
    def test_refuses_a_kernel_that_does_not_fit(self, scheme, kernel_args, message):
        # setup refuses another scheme, dim, n_fd or order
        mesh = ball_mesh(2, 4)
        with pytest.raises(ValueError, match=message):
            setup(mesh, 0.5, scheme, n_fd=8, kernel=fft_uniform(*kernel_args, 64))

    def test_rank_deficient_transfer(self):
        # n_fd = 3 leaves 218 interior vertices of this disk without a grid node
        mesh = generate_ball_mesh(2, 0.1)
        with pytest.raises(RuntimeError, match=r"rank deficient \(218 interior vertex "
                           r"column\(s\) received no grid node, first few: \[1, 2, 3, 4, "
                           r"5, 6, 7, 8\]\); refine"):
            setup(mesh, 0.5, "fft", n_fd=3, m=256)

    def test_rank_deficiency_without_empty_columns(self, monkeypatch):
        # a verdict of False with every column sum positive keeps the short text
        monkeypatch.setattr(fraclap.solver, "column_rank_check", lambda transfer: False)
        with pytest.raises(RuntimeError) as err:
            setup(ball_mesh(2, 4), 0.5, "fft", m=256)
        assert str(err.value) == ("rank_check: transfer matrix is rank deficient; refine "
                                  "the overlay grid (a larger n_fd) or the mesh")


    @pytest.mark.parametrize("kernel_args", [(0.5, 2, 9), (0.5, 3, 8), (0.75, 2, 8)],
                             ids=["n_fd", "dim", "order"])
    def test_refuses_a_kernel_before_the_transfer(self, kernel_args, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_transfer ran before the kernel check")
        monkeypatch.setattr(fraclap.solver, "build_transfer", refuse)
        with pytest.raises(ValueError, match="kernel of dim|is not the kernel's order"):
            setup(ball_mesh(2, 4), 0.5, "fft", n_fd=8, kernel=fft_uniform(*kernel_args, 64))

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, float("inf"), float("nan")])
    def test_solve_bvp_refuses_tol_before_setup(self, tol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("setup ran before the tolerance check")
        for name in ("choose_grid", "capped_grid", "build_kernel", "build_transfer"):
            monkeypatch.setattr(fraclap.solver, name, refuse)
        with pytest.raises(ValueError, match=r"tol must lie strictly in \(0, 1\), got "):
            solve_bvp(ball_mesh(2, 4), 0.5, "fft", tol=tol)

    def test_one_adjugate_pass_per_setup(self, monkeypatch):
        # the mesh's constructor keeps a_h from its own pass, so mesh_quality
        # runs none and setup runs only the transfer's screen
        mesh = ball_mesh(2, 4)
        calls = []

        def spy(corners):
            calls.append(corners.shape[0])
            return simplex_adjugates(corners)
        monkeypatch.setattr(fraclap.mesh, "simplex_adjugates", spy)
        monkeypatch.setattr(fraclap.transfer, "simplex_adjugates", spy)
        mesh_quality(mesh)
        assert calls == []
        setup(mesh, 0.5, "fft", m=256)
        assert calls == [mesh.n_elements]


class TestSolve:
    def test_shared_transfer_matches_solve_bvp(self):
        # one transfer serves every case below, so the circulant, auto and
        # fallback cases run on a Gram solver that an earlier case built
        mesh = ball_mesh(2, 6)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        transfer = build_transfer(mesh, grid)
        assert column_rank_check(transfer)
        for scheme, precond in (("fft", "none"), ("fft", "sparse"), ("fft", "circulant"),
                                ("fft", "auto"), ("modspec", "auto")):
            kernel = build_kernel(scheme, 0.75, 2, grid.n_fd, 256)
            op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid,
                                 s=0.75)
            u, report = solve(op, mesh, precond)
            u_ref, ref = solve_bvp(mesh, 0.75, scheme, m=256, precond=precond)
            np.testing.assert_array_equal(u, u_ref)
            assert report.converged and ref.converged
            assert report.iterations == ref.iterations
            assert report.residual_history == ref.residual_history
            assert report.l2_error == ref.l2_error
            assert report.precond_shift == ref.precond_shift
            assert report.preconditioner == ref.preconditioner
            assert list(report.wall_times) == ["precond", "solve", "error"]
            assert list(ref.wall_times) == ["grid", "kernel", "transfer", "rank_check",
                                            "precond", "solve", "error"]
        assert report.preconditioner == "none(fallback from circulant)"

    def test_circulant_builds_share_the_gram_factor(self, monkeypatch):
        # the transfer builds its Gram solver once, and every circulant
        # preconditioner over it applies that one
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return GramSolver(matrix)

        monkeypatch.setattr(fraclap.transfer, "GramSolver", counting)
        mesh, op = small_operator(n_r=4)
        first = build_circulant_preconditioner(op)
        second = build_circulant_preconditioner(op)
        assert first.gram_solver is second.gram_solver is op.transfer.gram_solver
        assert isinstance(first.gram_solver, GramSolver)
        assert calls == [op.transfer.matrix.shape]

    def test_unknown_preconditioner(self):
        mesh, op = small_operator()
        with pytest.raises(ValueError, match="unknown preconditioner"):
            solve(op, mesh, "jacobi")

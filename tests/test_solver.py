import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.fft
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

from fraclap import ichol
from fraclap.core import OverlayGrid, gamma
from fraclap.ichol import (IncompleteCholeskyError, MicFactor, mic_factor,
                           mic_factor_with_retry)
from fraclap.mesh import SimplicialMesh, mesh_quality
from fraclap.solver import (CirculantPreconditioner, OverlayOperator, Preconditioner,
                            SolveReport, SparsePreconditioner, assemble_rhs,
                            build_circulant_preconditioner, build_sparse_preconditioner,
                            cg_solve, circulant_payload, exact_solution,
                            solve_bvp, _near_field_matrix)
from fraclap.stiffness import analytic_1d, fft_uniform, spectral
from fraclap.toeplitz import ToeplitzPlan, dense_materialize
from fraclap.transfer import TransferMatrix, build_transfer, choose_grid

from conftest import ball_mesh, scattered_ball


def small_operator(n_r=3, s=0.5, m=32, dim=2):
    mesh = ball_mesh(dim, n_r)
    grid = choose_grid(mesh_quality(mesh), 1.2)
    kernel = fft_uniform(s, dim, grid.n_fd, max(m, 2 * grid.n_fd + 1))
    transfer = build_transfer(mesh, grid)
    op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid, s=s)
    return mesh, op


def dense_operator_matrix(op):
    dense_grid = dense_materialize(op.plan.kernel)
    t = op.transfer.matrix.toarray()
    return t.T @ dense_grid @ t


def identity_transfer(grid):
    n = grid.n_nodes
    return TransferMatrix(matrix=scipy.sparse.identity(n, format="csr"),
                          column_sums=np.ones(n), grid=grid)


class TestOperator:
    def test_zero(self):
        mesh, op = small_operator()
        assert np.all(op.apply(np.zeros(op.n_unknowns)) == 0.0)

    def test_matches_dense_oracle(self):
        mesh, op = small_operator()
        dense = dense_operator_matrix(op)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(op.n_unknowns)
        got = op.apply(u)
        ref = dense @ u
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_symmetry(self):
        mesh, op = small_operator()
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(op.n_unknowns)
            w = rng.standard_normal(op.n_unknowns)
            a = op.apply(u) @ w
            b = u @ op.apply(w)
            assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)

    def test_positive_on_random_vectors(self):
        mesh, op = small_operator()
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.standard_normal(op.n_unknowns)
            assert op.apply(u) @ u > 0.0


def mapped(mesh, matrix, shift):
    """The mesh under x -> matrix x + shift (orientation-preserving)."""
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
    g = op.transfer.matrix @ u
    return op.transfer.matrix.T @ op.plan.apply(g.reshape(op.grid.shape)).ravel()


def touched_extent(op):
    rows = np.flatnonzero(op.transfer.matrix.getnnz(axis=1))
    nodes = np.unravel_index(rows, op.grid.shape)
    return tuple(int(k.max() - k.min() + 1) for k in nodes)


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
        box = op._box_plan.grid_shape
        assert box == touched_extent(op)
        assert all(b < n for b, n in zip(box, op.grid.shape))
        if name.startswith("off-centre"):
            assert len(set(box)) > 1
        rng = np.random.default_rng(0)
        for _ in range(3):
            u = rng.standard_normal(op.n_unknowns)
            ref = full_grid_product(op, u)
            got = op.apply(u)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim,n_r", [(2, 6), (3, 3)])
    def test_whole_grid_box_reuses_the_plan(self, dim, n_r):
        # a ball of radius r_fd = 1.2 has vertices on the grid's edge nodes,
        # whose rows hold (zero) entries of the transfer
        op = overlay_operator(mapped(ball_mesh(dim, n_r), 1.2 * np.eye(dim), 0.0))
        assert touched_extent(op) == op.grid.shape
        assert op._box_plan is op.plan
        assert op._rows is op.transfer.matrix
        u = np.random.default_rng(1).standard_normal(op.n_unknowns)
        np.testing.assert_array_equal(op.apply(u), full_grid_product(op, u))

    def test_empty_transfer_keeps_the_whole_grid(self):
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=3)
        transfer = TransferMatrix(matrix=scipy.sparse.csr_matrix((grid.n_nodes, 2)),
                                  column_sums=np.zeros(2), grid=grid)
        plan = ToeplitzPlan(fft_uniform(0.5, 2, 3, 16))
        op = OverlayOperator(transfer=transfer, plan=plan, grid=grid, s=0.5)
        assert op._box_plan is plan
        assert np.all(op.apply(np.ones(2)) == 0.0)

    def test_preconditioners_read_the_whole_grid_plan(self):
        op = overlay_operator(BOX_MESHES["off-centre 2D ellipse"]())
        assert op.plan.grid_shape == op.grid.shape
        assert op._box_plan.kernel is op.plan.kernel


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
        x, report = cg_solve(op, np.zeros(op.n_unknowns))
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

    def test_initial_indefinite_still_raises(self):
        a, b = self.spd_system()
        with pytest.raises(ArithmeticError):
            cg_solve(lambda v: a @ v, b, _CraftedPreconditioner(lambda call, r: -r))



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
        with pytest.raises(IncompleteCholeskyError):
            mic_factor(a, drop_tol=0.0)

    def test_retry_shift(self):
        # a clean SPD matrix factors on the first attempt, without the shift
        a = scipy.sparse.csc_matrix(np.diag([1.0, 2.0, 3.0]))
        factor = mic_factor_with_retry(a)
        assert factor.shift == 0.0

    def test_retry_reraises_when_the_shift_also_breaks_down(self):
        # the 1e-8 shift cannot lift column 1's pivot 1 - 2^2 = -3
        a = scipy.sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IncompleteCholeskyError) as err:
            mic_factor_with_retry(a)
        assert err.value.column == 1 and err.value.pivot < -2.9


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
        near = _near_field_matrix(op.plan.kernel, op.grid)
        t = op.transfer.matrix
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
        "gram": build_circulant_preconditioner(op).gram_factor,
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



class TestSparsePreconditioner:
    def test_stencil_mask_size(self):
        mesh, op = small_operator()
        near = _near_field_matrix(op.plan.kernel, op.grid)
        center = op.grid.n_nodes // 2
        row = near.getrow(center)
        assert row.nnz == 9  # Chebyshev-norm <= 1 neighborhood in 2 dimensions

    def test_identity_transfer_extracts_kernel(self):
        grid = OverlayGrid(dim=2, r_fd=1.0, n_fd=4)
        kernel = fft_uniform(0.5, 2, 4, 32)
        transfer = identity_transfer(grid)
        op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel),
                             grid=grid, s=0.5)
        near = _near_field_matrix(kernel, grid)
        a_mesh = (transfer.matrix.T @ (near @ transfer.matrix)).toarray()
        k = grid.nodes_per_axis
        center = grid.n_nodes // 2
        row = a_mesh[center].reshape(k, k)
        np.testing.assert_allclose(row[4, 4], kernel.coeffs[0, 0], rtol=1e-14)
        np.testing.assert_allclose(row[4, 5], kernel.coeffs[0, 1], rtol=1e-14)
        np.testing.assert_allclose(row[5, 5], kernel.coeffs[1, 1], rtol=1e-14)
        assert row[4, 6] == 0.0

    def test_factorization_quality(self):
        mesh, op = small_operator(n_r=5)
        precond = build_sparse_preconditioner(op)
        near = _near_field_matrix(op.plan.kernel, op.grid)
        a_mesh = op.transfer.matrix.T @ (near @ op.transfer.matrix)
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = rng.standard_normal(op.n_unknowns)
            w = precond.apply(a_mesh @ v)
            assert np.linalg.norm(w - v) <= 0.5 * np.linalg.norm(v)

    def test_spd_application(self):
        mesh, op = small_operator(n_r=5)
        for build in (build_sparse_preconditioner, build_circulant_preconditioner):
            precond = build(op)
            rng = np.random.default_rng(5)
            for _ in range(5):
                u = rng.standard_normal(op.n_unknowns)
                v = rng.standard_normal(op.n_unknowns)
                pu = precond.apply(u)
                pv = precond.apply(v)
                assert u @ pu > 0.0
                assert abs(u @ pv - v @ pu) <= 1e-10 * max(abs(u @ pv), 1.0)

    def test_wrong_stencil_rejected(self):
        mesh, op = small_operator()
        with pytest.raises(ValueError):
            build_sparse_preconditioner(op, stencil=27)


def naive_circulant_column(kernel, impulse_index):
    """Column of the reduced-grid surrogate operator evaluated through the
    explicit reduced transforms (frequency sums written out directly)."""
    n = kernel.n_fd
    size = 2 * n
    full = kernel.full_tensor()

    def t_entry(m):
        return full[m + 2 * n]

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


class TestCirculantPreconditioner:
    def test_surrogate_matches_naive_transform_oracle(self):
        kernel = analytic_1d(0.5, 8)
        grid = OverlayGrid(dim=1, r_fd=1.0, n_fd=8)
        transfer = identity_transfer(grid)
        op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel),
                             grid=grid, s=0.5)
        precond = build_circulant_preconditioner(op)
        for impulse in (0, 3, 11):
            w = np.zeros(16)
            w[impulse] = 1.0
            got = precond.circulant_apply(w)
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
        round_trip = precond.circulant_solve(precond.circulant_apply(v))
        assert np.max(np.abs(round_trip - v)) < 1e-10

    @pytest.mark.parametrize("dim,n_fd", [(1, 8), (2, 6), (3, 3)])
    def test_real_transform_matches_complex(self, dim, n_fd):
        # payloads with floored and with negative entries (spectral surrogate)
        for kernel in (fft_uniform(0.5, dim, n_fd, 4 * n_fd + 4),
                       spectral(0.5, dim, n_fd, 16)):
            payload = circulant_payload(kernel)
            grid = OverlayGrid(dim=dim, r_fd=1.0, n_fd=n_fd)
            precond = CirculantPreconditioner(payload, None, identity_transfer(grid), grid)
            w = np.random.default_rng(dim).standard_normal((2 * n_fd,) * dim)
            spectrum = scipy.fft.fftn(w)
            for got, ref in ((precond.circulant_solve(w),
                              scipy.fft.ifftn(spectrum / payload).real),
                             (precond.circulant_apply(w),
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


class TestSolveBvp:
    def test_zero_source(self):
        mesh = ball_mesh(2, 4)
        u, report = solve_bvp(mesh, 0.5, "fft", m=64, f=0.0)
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
        for precond in ("sparse", "circulant"):
            _, report = solve_bvp(mesh, 0.5, "fft", m=512, precond=precond)
            assert report.converged
            assert report.precond_shift == shifts[-1] > 0.0
            assert f"\nprecond_shift={shifts[-1]:.16e}\n" in report.to_text()

    def test_preconditioner_carries_retry_shift(self):
        factor = mic_factor_with_retry(grid_laplacian(3))
        assert factor.shift > 0.0
        assert SparsePreconditioner(factor, 9).shift == factor.shift
        assert Preconditioner().shift == 0.0

    def test_report_serialization(self):
        report = SolveReport(iterations=3, residual_history=[1.0, 0.1],
                             l2_error=0.5, wall_times={"solve": 0.1}, converged=True,
                             true_residual=1e-12, preconditioner="none")
        text = report.to_text()
        assert "converged=True" in text
        assert "iterations=3" in text
        assert "time_solve=" in text
        assert "preconditioner=none\nprecond_shift=0.0000000000000000e+00\n" in text

import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclap.transfer as transfer_module
from fraclap.core import OverlayGrid
from fraclap.mesh import (MeshQuality, SimplicialMesh, generate_ball_mesh, mesh_quality,
                          simplex_adjugates)
from fraclap.solver import OverlayOperator
from fraclap.stiffness import fft_uniform
from fraclap.toeplitz import ToeplitzPlan
from fraclap.transfer import (N_FD_CAPS, TransferMatrix, build_transfer, capped_grid,
                              choose_grid, column_rank_check)

from conftest import ball_mesh, hand_transfer, rotated, scattered_ball, sliver_mesh, whole_grid


def quality(dim, a_h):
    return MeshQuality(dim=dim, a_h=a_h, h_bar=a_h, n_elements=100)


def strict_grid(quality, r_fd):
    """The paper's strict grid: the smallest n_fd with h_fd <= a_h / ((d+1) sqrt(d)),
    the spacing that guarantees a full-column-rank transfer."""
    target = quality.a_h / ((quality.dim + 1) * math.sqrt(quality.dim))
    return capped_grid(quality.dim, r_fd, max(1, math.ceil(r_fd / target - 1e-12)))


class TestChooseGrid:
    def test_practical_mode(self):
        grid = choose_grid(quality(2, 0.1), 1.2)
        assert grid.n_fd == 12
        assert grid.h_fd <= 0.1 + 1e-15

    def test_no_mode(self):
        with pytest.raises(TypeError):
            choose_grid(quality(2, 0.1), 1.2, mode="strict")

    def test_strict_grid_spacing(self):
        grid = strict_grid(quality(2, 0.1), 1.2)
        assert grid.n_fd == math.ceil(1.2 * 3 * math.sqrt(2) / 0.1)
        assert grid.n_fd == 51

    @pytest.mark.parametrize("r_fd", [0.0, -1.0, math.inf, math.nan])
    def test_r_fd_refused_before_the_ceil(self, r_fd):
        # the ceil raised OverflowError on inf and a bare ValueError on nan
        with pytest.raises(ValueError, match=f"r_fd must be positive and finite, got {r_fd}"):
            choose_grid(quality(2, 0.1), r_fd)

    def test_minimal_grid(self):
        assert choose_grid(quality(2, 1.3), 1.2).n_fd == 1

    def test_cap(self):
        with pytest.raises(MemoryError):
            choose_grid(quality(2, 1e-5), 1.2)
        grid = choose_grid(quality(2, 1e-3), 1.2, max_n_fd=2000)
        assert grid.n_fd == 1200

    def test_one_cap_table(self):
        assert N_FD_CAPS == {1: 4096, 2: 4096, 3: 128}
        for dim, cap in N_FD_CAPS.items():
            assert choose_grid(quality(dim, 1.0), float(cap)).n_fd == cap
            assert capped_grid(dim, 1.0, cap).n_fd == cap
            with pytest.raises(MemoryError):
                choose_grid(quality(dim, 1.0), float(cap + 1))
            with pytest.raises(MemoryError):
                capped_grid(dim, 1.0, cap + 1)
            assert choose_grid(quality(dim, 1.0), float(cap + 1), max_n_fd=cap + 1).n_fd == cap + 1
            assert capped_grid(dim, 1.0, cap + 1, max_n_fd=cap + 1).n_fd == cap + 1


def test_no_interior_vertex():
    # one triangle: every vertex is on the boundary, so no transfer column
    mesh = SimplicialMesh(dim=2, vertices=np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]),
                          simplices=np.array([[0, 1, 2]]), n_interior=0)
    with pytest.raises(ValueError, match="^mesh has no interior vertex, so the transfer has "
                                         "no column$"):
        build_transfer(mesh, OverlayGrid(dim=2, r_fd=1.0, n_fd=8))


def unit_triangle_mesh():
    """One triangle with an interior-vertex-free boundary: use a fan around a
    center so the center vertex is interior."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    simplices = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]])
    return SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=1)


class TestBuildTransfer:
    def test_coincident_node_gets_unit_weight(self):
        mesh = unit_triangle_mesh()
        grid = OverlayGrid(dim=2, r_fd=2.0, n_fd=2)  # node exactly at the origin
        transfer = build_transfer(mesh, grid)
        center_row = grid.n_nodes // 2
        row = whole_grid(transfer).getrow(center_row).toarray().ravel()
        assert row[0] == pytest.approx(1.0, abs=1e-12)

    def test_centroid_weights(self):
        # all-interior triangle around a grid node at the centroid
        pts = np.array([
            [0.0, 0.5], [0.5, -0.25], [-0.5, -0.25],     # interior triangle
            [0.0, 2.0], [1.9, -1.2], [-1.9, -1.2],       # boundary shell
        ])
        simplices = np.array([
            [0, 1, 2],
            [0, 3, 1], [1, 3, 4], [1, 4, 2], [2, 4, 5], [2, 5, 0], [0, 5, 3],
        ])
        mesh = SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=3)
        # centroid of the interior triangle is the origin
        grid = OverlayGrid(dim=2, r_fd=2.0, n_fd=2)
        transfer = build_transfer(mesh, grid)
        center_row = grid.n_nodes // 2
        row = whole_grid(transfer).getrow(center_row).toarray().ravel()
        np.testing.assert_allclose(row, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_outside_nodes_have_empty_rows(self):
        mesh = ball_mesh(2, 4)
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=8)
        transfer = build_transfer(mesh, grid)
        corner = whole_grid(transfer).getrow(0)
        assert corner.nnz == 0
        assert all(b.start > 0 for b in transfer.box)

    def test_entries_are_barycentric(self):
        mesh = ball_mesh(2, 4)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        transfer = build_transfer(mesh, grid)
        coo = whole_grid(transfer).tocoo()
        assert np.all(coo.data >= 0.0) and np.all(coo.data <= 1.0)
        rows = np.asarray(transfer.matrix.sum(axis=1)).ravel()
        assert rows.max() <= 1.0 + 1e-12

        # recompute a sample of entries by solving the affine system per simplex
        n = grid.n_fd
        h = grid.h_fd
        rng = np.random.default_rng(0)
        sample = rng.choice(coo.nnz, size=min(50, coo.nnz), replace=False)
        for idx in sample:
            node = coo.row[idx]
            j = coo.col[idx]
            k = np.array([node // (2 * n + 1) - n, node % (2 * n + 1) - n])
            x = k * h
            found = False
            for simp in mesh.simplices:
                pts = mesh.vertices[simp]
                mat = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
                lam_rest = np.linalg.solve(mat, x - pts[0])
                lam = np.array([1 - lam_rest.sum(), *lam_rest])
                if np.all(lam >= -1e-12) and j in simp:
                    slot = list(simp).index(j)
                    if abs(lam[slot] - coo.data[idx]) <= 1e-12:
                        found = True
                        break
            assert found

    def test_zero_column_rank_refusal(self):
        # a mesh with one interior vertex whose support has no grid node:
        # shrink the fan so the grid (n_fd=1) misses the center support
        pts = np.array([[0.55, 0.56], [0.5, 0.71], [0.7, 0.4], [0.3, 0.37]])
        simplices = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]])
        mesh = SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=1)
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=1)
        transfer = build_transfer(mesh, grid)
        assert transfer.column_sums[0] == 0.0
        assert not column_rank_check(transfer)

    def test_empty_columns_raise_no_warning(self):
        # n_fd = 3 leaves 218 columns of the h=0.1 disk empty; the build
        # reports nothing, and setup's rank refusal is the one report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transfer = build_transfer(generate_ball_mesh(2, 0.1), capped_grid(2, 1.2, 3))
        assert np.count_nonzero(transfer.column_sums == 0.0) == 218

    def test_requires_containment(self):
        mesh = ball_mesh(2, 4)
        grid = OverlayGrid(dim=2, r_fd=0.9, n_fd=4)
        with pytest.raises(ValueError):
            build_transfer(mesh, grid)


class TestApply:
    @pytest.fixture()
    def transfer(self):
        mesh = ball_mesh(2, 5)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        return build_transfer(mesh, grid), mesh

    def test_constant_inside_partition_of_unity(self, transfer):
        t, mesh = transfer
        values = t.matrix @ np.ones(mesh.n_interior)
        rows = np.asarray(t.matrix.sum(axis=1)).ravel()
        interior_only = rows > 1.0 - 1e-12
        assert interior_only.any()
        np.testing.assert_allclose(values[interior_only], 1.0, atol=1e-12)

    def test_zero(self, transfer):
        t, mesh = transfer
        assert np.all(t.matrix.T @ np.zeros(t.matrix.shape[0]) == 0.0)

    def test_adjoint_identity(self, transfer):
        t, mesh = transfer
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(t.cols)
            v = rng.standard_normal(t.matrix.shape[0])
            a = (t.matrix @ u) @ v
            b = u @ (t.matrix.T @ v)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_constant_preservation_rows(self, transfer):
        # row sums of D^-1 T^T equal one exactly
        t, mesh = transfer
        row_sums = (t.matrix.T @ np.ones(t.matrix.shape[0])) / t.column_sums
        np.testing.assert_allclose(row_sums, 1.0, rtol=1e-14)


class TestRankCheck:
    def test_identity_like(self):
        grid = OverlayGrid(dim=1, r_fd=1.0, n_fd=2)
        matrix = scipy.sparse.identity(5, format="csr")
        t = hand_transfer(matrix, grid, np.ones(5))
        assert column_rank_check(t)
        assert column_rank_check(t, mode="heuristic")

    def test_zero_column(self):
        grid = OverlayGrid(dim=1, r_fd=1.0, n_fd=2)
        matrix = scipy.sparse.csr_matrix(np.array([[1.0, 0.0]] * 5))
        t = hand_transfer(matrix, grid, np.array([5.0, 0.0]))
        assert not column_rank_check(t)
        assert not column_rank_check(t, mode="heuristic")

    def test_ball_mesh_full_rank(self):
        mesh = ball_mesh(2, 3)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        t = build_transfer(mesh, grid)
        assert column_rank_check(t)

    def test_strict_condition_implies_full_rank(self):
        for mesh in (ball_mesh(2, 3), ball_mesh(2, 5), ball_mesh(3, 3)):
            t = build_transfer(mesh, strict_grid(mesh_quality(mesh), 1.2))
            assert t.cols <= 5000
            assert column_rank_check(t)
            assert transfer_module._gram_full_rank(t.matrix)

    def test_exact_mode_is_gone(self):
        mesh = ball_mesh(2, 3)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            column_rank_check(t, "exact")


# ---------------------------------------------------------------------------
# Reference implementations the vectorised code must agree with: a
# per-element location loop, a per-column leading-row loop, and the dense
# Gram eigenvalue test.

def reference_locate(mesh, grid):
    """Scan simplices in index order; each grid node keeps the unclipped
    barycentric coordinates from the first simplex containing it.  Returns
    (node_ids, owners, lam) sorted by node id."""
    tol = 1e-12
    h, n, dim = grid.h_fd, grid.n_fd, mesh.dim
    strides = np.array([grid.nodes_per_axis ** (dim - 1 - a) for a in range(dim)])
    claimed = np.zeros(grid.n_nodes, dtype=bool)
    nodes, owners, lams = [], [], []
    for e in range(mesh.n_elements):
        pts = mesh.vertices[mesh.simplices[e]]
        lo = np.maximum(np.ceil((pts.min(axis=0) - tol) / h).astype(np.int64), -n)
        hi = np.minimum(np.floor((pts.max(axis=0) + tol) / h).astype(np.int64), n)
        if np.any(hi < lo):
            continue
        axes = np.meshgrid(*[np.arange(lo[a], hi[a] + 1) for a in range(dim)],
                           indexing="ij")
        k_multi = np.column_stack([g.ravel() for g in axes])
        node_ids = (k_multi + n) @ strides
        fresh = ~claimed[node_ids]
        if not np.any(fresh):
            continue
        k_multi, node_ids = k_multi[fresh], node_ids[fresh]
        span = (pts[1:] - pts[0]).T
        lam_rest = np.linalg.solve(span, (k_multi * h - pts[0]).T).T
        lam = np.column_stack([1.0 - lam_rest.sum(axis=1), lam_rest])
        inside = np.all(lam >= -tol, axis=1)
        claimed[node_ids[inside]] = True
        nodes.append(node_ids[inside])
        owners.append(np.full(int(inside.sum()), e))
        lams.append(lam[inside])
    node_ids = np.concatenate(nodes)
    order = np.argsort(node_ids)
    return node_ids[order], np.concatenate(owners)[order], np.concatenate(lams)[order]


def exact_coordinates(corners, x):
    """Barycentric coordinates of the point x in the simplex with corners
    ``corners``, in exact rational arithmetic on the given floats
    (Gauss-Jordan elimination on the edge matrix)."""
    v = [[Fraction(c) for c in p] for p in corners.tolist()]
    d = len(x)
    rows = [[v[j + 1][i] - v[0][i] for j in range(d)] + [Fraction(x[i]) - v[0][i]]
            for i in range(d)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(d):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    rest = [rows[i][d] / rows[i][i] for i in range(d)]
    return [1 - sum(rest), *rest]


def reference_matrix(mesh, grid):
    node_ids, owners, lam = reference_locate(mesh, grid)
    rows, cols, vals = [], [], []
    for node, e, weights in zip(node_ids, owners, np.clip(lam, 0.0, 1.0)):
        for j, w in zip(mesh.simplices[e], weights):
            if j < mesh.n_interior:
                rows.append(node)
                cols.append(j)
                vals.append(w)
    matrix = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(grid.n_nodes, mesh.n_interior)).tocsr()
    matrix.sort_indices()
    return matrix


def assert_box_holds_the_positive_entries(transfer, ref):
    """The whole-grid reference ``ref`` cut to the transfer's box, after
    checking that the box is the bounding box of ref's positive entries (the
    whole grid when it has none), so no positive entry lies outside it."""
    boxed = hand_transfer(ref, transfer.grid)
    assert transfer.box == boxed.box
    return boxed.matrix


def reference_heuristic(matrix):
    csc = matrix.tocsc()
    csc.sort_indices()
    if np.any(np.asarray(csc.sum(axis=0)).ravel() <= 0.0):
        return False
    leading = np.full(csc.shape[1], -1, dtype=np.int64)
    for j in range(csc.shape[1]):
        seg = slice(csc.indptr[j], csc.indptr[j + 1])
        if seg.start == seg.stop:
            return False
        leading[j] = csc.indices[seg][np.argmax(csc.data[seg])]
    return np.unique(leading).size == csc.shape[1]


def dense_full_rank(matrix):
    eigvals = np.linalg.eigvalsh((matrix.T @ matrix).toarray())
    return bool(eigvals[0] > 1e-12 * max(eigvals[-1], np.finfo(float).tiny))


def as_transfer(dense):
    """A hand-made transfer whose rows are the first nodes of a 1D grid."""
    dense = np.asarray(dense, dtype=float)
    rows = dense.shape[0]
    return TransferMatrix(matrix=scipy.sparse.csr_matrix(dense),
                          column_sums=dense.sum(axis=0),
                          grid=OverlayGrid(dim=1, r_fd=1.0, n_fd=max(2, rows // 2)),
                          box=(slice(0, rows),))


def with_grid(mesh, strict=False):
    quality = mesh_quality(mesh)
    return mesh, strict_grid(quality, 1.2) if strict else choose_grid(quality, 1.2)


def assert_same_bytes(transfer, expected):
    """The stored arrays and the box of two transfers, byte for byte."""
    for a, b in ((transfer.matrix.indptr, expected.matrix.indptr),
                 (transfer.matrix.indices, expected.matrix.indices),
                 (transfer.matrix.data, expected.matrix.data),
                 (transfer.column_sums, expected.column_sums)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert transfer.box == expected.box


def count_adjugate_passes(monkeypatch):
    """Element counts of every simplex_adjugates call that build_transfer makes."""
    passes = []

    def counting(corners):
        passes.append(len(corners))
        return simplex_adjugates(corners)
    monkeypatch.setattr(transfer_module, "simplex_adjugates", counting)
    return passes


EQUIVALENCE_CASES = {
    "disk": lambda: with_grid(ball_mesh(2, 10)),
    "ball3d": lambda: with_grid(ball_mesh(3, 4)),
    "disk_strict": lambda: with_grid(ball_mesh(2, 4), strict=True),
    "rotated_disk": lambda: with_grid(rotated(ball_mesh(2, 10), 3)),
    "rotated_ball3d": lambda: with_grid(rotated(ball_mesh(3, 4), 7)),
    "scattered": lambda: with_grid(scattered_ball(12, 0.3)),
    # nodes on the shared vertex (origin) and on the shared edges of the fan
    "fan_vertex": lambda: (unit_triangle_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=2)),
    "fan_edges": lambda: (unit_triangle_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=4)),
    "fan_fine": lambda: (unit_triangle_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=16)),
    # nodes on the long edge of a sliver whose condition estimate exceeds 1e7
    "sliver": lambda: (sliver_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=4)),
}


class TestVectorisedAssembly:
    @pytest.fixture(params=sorted(EQUIVALENCE_CASES))
    def case(self, request):
        return EQUIVALENCE_CASES[request.param]()

    def test_same_owners_and_coordinates(self, case):
        mesh, grid = case
        ref_nodes, ref_owners, ref_lam = reference_locate(mesh, grid)
        nodes, owners, lam = transfer_module._locate_nodes(mesh, grid)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(owners, ref_owners)
        np.testing.assert_allclose(lam, ref_lam, rtol=0.0, atol=1e-15)

    def test_same_matrix(self, case):
        mesh, grid = case
        ref = reference_matrix(mesh, grid)
        transfer = build_transfer(mesh, grid)
        assert transfer.matrix.has_canonical_format
        boxed = assert_box_holds_the_positive_entries(transfer, ref)
        np.testing.assert_array_equal(transfer.matrix.indptr, boxed.indptr)
        np.testing.assert_array_equal(transfer.matrix.indices, boxed.indices)
        np.testing.assert_allclose(transfer.matrix.data, boxed.data, rtol=0.0, atol=1e-15)
        # each stored entry may differ by 1e-15, so a column sum by its count of them
        stored = np.diff(transfer.matrix.tocsc().indptr)
        assert np.all(np.abs(transfer.column_sums - np.asarray(ref.sum(axis=0)).ravel())
                      <= stored * 1e-15)

    def test_chunking_does_not_change_the_result(self, case, monkeypatch):
        mesh, grid = case
        whole = build_transfer(mesh, grid)
        monkeypatch.setattr(transfer_module, "_CHUNK", 5)
        assert_same_bytes(build_transfer(mesh, grid), whole)

    @pytest.mark.parametrize("chunk", [1 << 10, 1 << 40])
    def test_chunking_does_not_change_a_3d_ball(self, chunk, monkeypatch):
        # the 3D h=0.1 ball spans several default chunks, each forming its
        # own elements' geometry; 1 << 40 forms the whole mesh's at once
        mesh, grid = with_grid(ball_mesh(3, 10))
        passes = count_adjugate_passes(monkeypatch)
        default = build_transfer(mesh, grid)
        assert len(passes) > 1 and sum(passes) == mesh.n_elements
        passes.clear()
        monkeypatch.setattr(transfer_module, "_CHUNK", chunk)
        assert_same_bytes(build_transfer(mesh, grid), default)
        assert (len(passes) == 1) == (chunk == 1 << 40)

    def test_traced_peak_of_a_3d_ball(self):
        # the whole mesh's corners, edge matrices and inverses, formed at
        # once, take the traced peak to 27.8 MiB; formed per chunk, 12.8 MiB
        mesh, grid = with_grid(ball_mesh(3, 10))
        tracemalloc.start()
        try:
            build_transfer(mesh, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    @pytest.mark.parametrize("name", ["rotated_disk", "rotated_ball3d", "sliver"])
    def test_coordinates_against_exact_rationals(self, name):
        # worst errors over these nodes: 2.6e-16 (disk), 3.2e-16 (3D ball)
        # and 2.5e-17 (sliver); a batched LAPACK solve gave 2.2e-16, 2.3e-16
        # and 2.8e-17
        mesh, grid = EQUIVALENCE_CASES[name]()
        nodes, owners, lam = transfer_module._locate_nodes(mesh, grid)
        sample = np.unique(np.linspace(0, nodes.size - 1, 150).astype(int))
        k = np.column_stack(np.unravel_index(nodes[sample], grid.shape)) - grid.n_fd
        for x, e, coordinates in zip(k * grid.h_fd, owners[sample], lam[sample]):
            exact = exact_coordinates(mesh.vertices[mesh.simplices[e]], x.tolist())
            assert max(abs(Fraction(c) - q) for c, q in zip(coordinates.tolist(), exact)) <= 1e-15

    def test_closed_form_inverses(self):
        rng = np.random.default_rng(2)
        for dim in (1, 2, 3):
            corners = rng.standard_normal((20, dim + 1, dim))
            spans = (corners[:, 1:] - corners[:, :1]).transpose(0, 2, 1)
            adjugate, det = simplex_adjugates(corners)
            np.testing.assert_allclose(det, np.linalg.det(spans), rtol=1e-9)
            np.testing.assert_allclose(adjugate / det[:, None, None], np.linalg.inv(spans),
                                       rtol=1e-9, atol=1e-12)

    def test_shared_vertex_goes_to_lowest_element(self):
        mesh = unit_triangle_mesh()
        grid = OverlayGrid(dim=2, r_fd=2.0, n_fd=2)
        nodes, owners, _ = transfer_module._locate_nodes(mesh, grid)
        assert owners[list(nodes).index(grid.n_nodes // 2)] == 0


class TestBoxedTransferProperties:
    """The transfer held on its box, over random scattered disks and grids
    from far too coarse to finer than the mesh."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_r=st.integers(3, 7),
           amplitude=st.floats(0.0, 0.3), n_fd=st.integers(2, 24))
    # a grid node within 1.2e-16 of a boundary vertex: the closed-form
    # coordinates give an interior vertex the weight 1.1e-16 there, the loop
    # reference 0.0
    @example(seed=0, n_r=7, amplitude=0.125, n_fd=18)
    def test_box_transfer(self, seed, n_r, amplitude, n_fd):
        mesh = scattered_ball(n_r, amplitude, seed)
        grid = capped_grid(2, 1.2, n_fd)
        t = build_transfer(mesh, grid)
        boxed = assert_box_holds_the_positive_entries(t, reference_matrix(mesh, grid))
        np.testing.assert_array_equal(t.matrix.indptr, boxed.indptr)
        np.testing.assert_array_equal(t.matrix.indices, boxed.indices)
        np.testing.assert_allclose(t.matrix.data, boxed.data, rtol=0.0, atol=1e-15)

        transpose = t.matrix.T.tocsr()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(t.transpose, name), getattr(transpose, name))

        rng = np.random.default_rng(seed)
        u, w = rng.standard_normal((2, t.cols))
        v = rng.standard_normal(t.matrix.shape[0])
        a, b = (t.matrix @ u) @ v, u @ (t.transpose @ v)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

        op = OverlayOperator(transfer=t, plan=ToeplitzPlan(fft_uniform(0.5, 2, n_fd, 2 * n_fd + 2)),
                             grid=grid, s=0.5)
        a, b = op.apply(u) @ w, u @ op.apply(w)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


class TestSparseRankCheck:
    @pytest.mark.parametrize("dim,n_r", [(2, 3), (2, 10), (3, 3)])
    def test_full_rank_transfers_match_dense(self, dim, n_r):
        mesh = ball_mesh(dim, n_r)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        assert column_rank_check(t) is dense_full_rank(t.matrix) is True
        assert transfer_module._gram_full_rank(t.matrix) is True

    @pytest.mark.parametrize("dense,expected", [
        ([[1.0, 0.0]] * 5, False),                                  # zero column
        ([[1.0, 2.0, 2.0], [0.5, 1.0, 1.0], [0.0, 3.0, 3.0],
          [2.0, 0.0, 0.0]], False),                                 # two equal columns
        ([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]], False),              # 2 columns, rank 1
        ([[1.0, 0.0], [2.0, 1.0], [0.5, 0.5]], True),               # 2 columns, full
        ([[0.0], [3.0]], True),                                     # 1 column
        ([[0.0], [0.0]], False),                                    # 1 empty column
    ])
    def test_small_matrices_match_dense(self, dense, expected):
        t = as_transfer(dense)
        assert dense_full_rank(t.matrix) is expected
        assert column_rank_check(t) is expected

    @pytest.mark.parametrize("mode", ["auto", "heuristic"])
    def test_no_columns(self, mode):
        assert column_rank_check(as_transfer(np.zeros((3, 0))), mode=mode)

    def test_equal_columns_inside_a_transfer(self):
        mesh = ball_mesh(2, 6)
        matrix = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2)).matrix.tolil()
        matrix[:, 5] = matrix[:, 4]
        t = as_transfer(matrix.toarray())
        assert np.all(t.column_sums > 0.0)
        assert not dense_full_rank(t.matrix)
        assert not column_rank_check(t)

    @pytest.mark.parametrize("dim,n_r", [(2, 6), (3, 3)])
    def test_appended_duplicate_column(self, dim, n_r):
        mesh = ball_mesh(dim, n_r)
        matrix = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2)).matrix
        t = as_transfer(scipy.sparse.hstack([matrix, matrix[:, [n_r]]]).toarray())
        assert np.all(t.column_sums > 0.0)
        assert not column_rank_check(t)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 8), cols=st.integers(1, 6))
    def test_random_small_matrices_match_dense(self, data, rows, cols):
        entries = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
        dense = np.array(data.draw(st.lists(entries, min_size=rows * cols,
                                            max_size=rows * cols))).reshape(rows, cols)
        copies = data.draw(st.lists(st.tuples(st.integers(0, cols - 1),
                                              st.sampled_from([1.0, 0.5, 3.0])),
                                    max_size=2))
        for col, scale in copies:
            dense = np.column_stack([dense, scale * dense[:, col]])
        t = as_transfer(dense)
        full = dense_full_rank(t.matrix)
        assert column_rank_check(t) is full
        assert transfer_module._gram_full_rank(t.matrix) is full


class TestInertiaFailureModes:
    """Every outcome of the factorisation other than a symmetric one with
    positive pivots reads as rank deficient, never as an error.  The
    certificate proves the ball transfer before any factorisation, so these
    call the inertia test itself."""

    @staticmethod
    def ball_transfer():
        mesh = ball_mesh(2, 3)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        assert transfer_module._gram_full_rank(t.matrix)
        return t

    @staticmethod
    def patch_factor(monkeypatch, edit):
        real = scipy.sparse.linalg.splu

        def factor(*args, **kwargs):
            lu = real(*args, **kwargs)
            fake = SimpleNamespace(perm_r=lu.perm_r.copy(), perm_c=lu.perm_c.copy(),
                                   U=lu.U.tocsc())
            edit(fake)
            return fake
        monkeypatch.setattr(scipy.sparse.linalg, "splu", factor)

    def test_exactly_singular_factor(self, monkeypatch):
        t = self.ball_transfer()

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        assert transfer_module._gram_full_rank(t.matrix) is False

    def test_unsymmetric_permutation(self, monkeypatch):
        t = self.ball_transfer()

        def swap(lu):
            lu.perm_r[[0, 1]] = lu.perm_r[[1, 0]]
        self.patch_factor(monkeypatch, swap)
        assert transfer_module._gram_full_rank(t.matrix) is False

    @pytest.mark.parametrize("pivot", [0.0, -1e-12])
    def test_nonpositive_pivot(self, monkeypatch, pivot):
        t = self.ball_transfer()

        def spoil(lu):
            diagonal = lu.U.diagonal()
            diagonal[len(diagonal) // 2] = pivot
            lu.U.setdiag(diagonal)
        self.patch_factor(monkeypatch, spoil)
        assert transfer_module._gram_full_rank(t.matrix) is False


def dense_lambda_min(matrix):
    return np.linalg.eigvalsh((matrix.T @ matrix).toarray())[0]


class TestDominanceCertificate:
    """The O(nnz) certificate: a lower bound on lambda_min(I^T I) that
    column_rank_check tries before the inertia test."""

    @pytest.mark.parametrize("dim,n_r,seed", [(2, 10, None), (2, 10, 1), (2, 10, 2),
                                              (2, 14, 3), (3, 4, 1), (3, 5, None),
                                              (3, 5, 2)])
    def test_bound_is_below_dense_lambda_min(self, dim, n_r, seed):
        mesh = ball_mesh(dim, n_r) if seed is None else rotated(ball_mesh(dim, n_r), seed)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        bound, sigma = transfer_module._dominance_certificate(t.matrix)
        assert sigma < bound <= dense_lambda_min(t.matrix)

    @pytest.mark.parametrize("dense", [
        [[1.0, 0.9, 0.9], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0], [0.2, 0.3, 0.1]],
        # bound within a factor 6 of lambda_min
        [[0.2, 0.9], [0.1, 1.0], [0.05, 0.0]],
    ])
    def test_sweeps_certify_what_row_dominance_rejects(self, monkeypatch, dense):
        # row 0 of S, the leading square block, is not diagonally dominant,
        # but S is an H-matrix: a positive row scaling makes it dominant
        t = as_transfer(dense)
        square = t.matrix[:t.cols].toarray()
        assert 2 * square.diagonal()[0] - square[0].sum() < 0.0
        bound, sigma = transfer_module._dominance_certificate(t.matrix)
        assert sigma < bound <= dense_lambda_min(t.matrix)
        assert column_rank_check(t)
        monkeypatch.setattr(transfer_module, "RANK_SWEEPS", 0)
        assert transfer_module._dominance_certificate(t.matrix)[0] == 0.0

    @staticmethod
    def count_inertia_tests(monkeypatch):
        calls = []
        real = transfer_module._gram_full_rank

        def counted(matrix):
            calls.append(matrix.shape[1])
            return real(matrix)
        monkeypatch.setattr(transfer_module, "_gram_full_rank", counted)
        return calls

    @pytest.mark.parametrize("dense,expected", [
        ([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]], False),    # empty column
        ([[0.2, 0.0], [0.8, 0.6], [0.0, 0.4]], True),     # both peak in row 1
    ])
    def test_failed_certificate_falls_back(self, monkeypatch, dense, expected):
        t = as_transfer(dense)
        assert transfer_module._dominance_certificate(t.matrix)[0] == 0.0
        calls = self.count_inertia_tests(monkeypatch)
        assert column_rank_check(t) is dense_full_rank(t.matrix) is expected
        assert calls == [2]

    def test_rank_deficient_transfer_falls_back(self, monkeypatch):
        # fraclap solve --dim 2 --nfd 3 --ball 0.1: 218 columns get no node
        t = build_transfer(ball_mesh(2, 10), capped_grid(2, 1.2, 3))
        assert transfer_module._dominance_certificate(t.matrix)[0] == 0.0
        calls = self.count_inertia_tests(monkeypatch)
        assert column_rank_check(t) is dense_full_rank(t.matrix) is False
        assert calls == [t.cols]

    def test_certified_transfer_skips_the_inertia_test(self, monkeypatch):
        mesh = rotated(ball_mesh(3, 5), 1)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        calls = self.count_inertia_tests(monkeypatch)
        assert column_rank_check(t)
        assert calls == []

    def test_auto_above_5000_columns(self, monkeypatch):
        mesh = generate_ball_mesh(2, 0.0125)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        assert t.cols > 5000
        # the heuristic reads column_sums and the certificate only the
        # matrix, so a zeroed column sum shows which of the two decided
        sums = t.column_sums.copy()
        sums[0] = 0.0
        marked = TransferMatrix(matrix=t.matrix, column_sums=sums, grid=t.grid, box=t.box)
        calls = self.count_inertia_tests(monkeypatch)
        assert column_rank_check(marked)
        monkeypatch.setattr(transfer_module, "_dominance_certificate",
                            lambda matrix: (0.0, 1.0))
        assert column_rank_check(t) and not column_rank_check(marked)
        assert calls == []

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_r=st.integers(3, 7),
           amplitude=st.floats(0.0, 0.3), n_fd=st.integers(2, 24))
    def test_certificate_implies_dense_full_rank(self, seed, n_r, amplitude, n_fd):
        mesh = scattered_ball(n_r, amplitude, seed)
        t = build_transfer(mesh, capped_grid(2, 1.2, n_fd))
        bound, sigma = transfer_module._dominance_certificate(t.matrix)
        if bound > sigma:
            assert dense_full_rank(t.matrix)
            assert bound <= dense_lambda_min(t.matrix)


class TestHeuristicRankCheck:
    def test_shared_leading_row(self):
        # both columns peak in row 1, so the heuristic cannot certify rank
        t = as_transfer([[0.2, 0.0], [0.8, 0.6], [0.0, 0.4]])
        assert dense_full_rank(t.matrix)
        assert not column_rank_check(t, mode="heuristic")

    def test_ties_take_the_lowest_row(self):
        t = as_transfer([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        assert column_rank_check(t, mode="heuristic")

    def test_matches_column_loop(self):
        rng = np.random.default_rng(4)
        verdicts = set()
        for _ in range(300):
            rows, cols = rng.integers(1, 9, size=2)
            dense = rng.integers(0, 4, size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
            t = as_transfer(dense)
            verdict = column_rank_check(t, mode="heuristic")
            assert verdict == reference_heuristic(t.matrix)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_ball_transfers_match_column_loop(self):
        for dim, n_r in ((2, 10), (3, 4)):
            mesh = ball_mesh(dim, n_r)
            t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
            assert column_rank_check(t, mode="heuristic") == reference_heuristic(t.matrix)

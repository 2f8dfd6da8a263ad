import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import fraclap.transfer as transfer_module
from fraclap.core import OverlayGrid
from fraclap.mesh import MeshQuality, SimplicialMesh, _orient_positive, mesh_quality
from fraclap.transfer import (TransferMatrix, TransferRankWarning, apply_transfer,
                              apply_transfer_transpose, build_transfer, choose_grid,
                              column_rank_check, write_transfer_coo)

from conftest import ball_mesh, scattered_ball


def quality(dim, a_h):
    return MeshQuality(dim=dim, a_h=a_h, h_bar=a_h, n_elements=100)


class TestChooseGrid:
    def test_practical_mode(self):
        grid = choose_grid(quality(2, 0.1), 1.2)
        assert grid.n_fd == 12
        assert grid.h_fd <= 0.1 + 1e-15

    def test_strict_mode(self):
        grid = choose_grid(quality(2, 0.1), 1.2, mode="strict")
        assert grid.n_fd == math.ceil(1.2 * 3 * math.sqrt(2) / 0.1)
        assert grid.n_fd == 51

    def test_minimal_grid(self):
        assert choose_grid(quality(2, 1.3), 1.2).n_fd == 1

    def test_cap(self):
        with pytest.raises(MemoryError):
            choose_grid(quality(2, 1e-5), 1.2)
        grid = choose_grid(quality(2, 1e-3), 1.2, max_n_fd=2000)
        assert grid.n_fd == 1200


def unit_triangle_mesh():
    """One triangle with an interior-vertex-free boundary: use a fan around a
    center so the center vertex is interior."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    simplices = _orient_positive(pts, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]]), 2)
    return SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=1)


class TestBuildTransfer:
    def test_coincident_node_gets_unit_weight(self):
        mesh = unit_triangle_mesh()
        grid = OverlayGrid(dim=2, r_fd=2.0, n_fd=2)  # node exactly at the origin
        transfer = build_transfer(mesh, grid)
        center_row = grid.n_nodes // 2
        row = transfer.matrix.getrow(center_row).toarray().ravel()
        assert row[0] == pytest.approx(1.0, abs=1e-12)

    def test_centroid_weights(self):
        # all-interior triangle around a grid node at the centroid
        pts = np.array([
            [0.0, 0.5], [0.5, -0.25], [-0.5, -0.25],     # interior triangle
            [0.0, 2.0], [1.9, -1.2], [-1.9, -1.2],       # boundary shell
        ])
        simplices = _orient_positive(pts, np.array([
            [0, 1, 2],
            [0, 3, 1], [1, 3, 4], [1, 4, 2], [2, 4, 5], [2, 5, 0], [0, 5, 3],
        ]), 2)
        mesh = SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=3)
        # centroid of the interior triangle is the origin
        grid = OverlayGrid(dim=2, r_fd=2.0, n_fd=2)
        transfer = build_transfer(mesh, grid)
        center_row = grid.n_nodes // 2
        row = transfer.matrix.getrow(center_row).toarray().ravel()
        np.testing.assert_allclose(row, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_outside_nodes_have_empty_rows(self):
        mesh = ball_mesh(2, 4)
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=8)
        transfer = build_transfer(mesh, grid)
        corner = transfer.matrix.getrow(0)
        assert corner.nnz == 0

    def test_entries_are_barycentric(self):
        mesh = ball_mesh(2, 4)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        transfer = build_transfer(mesh, grid)
        coo = transfer.matrix.tocoo()
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

    def test_zero_column_warning_and_strict(self):
        # a mesh with one interior vertex whose support has no grid node:
        # shrink the fan so the grid (n_fd=1) misses the center support
        pts = np.array([[0.55, 0.56], [0.5, 0.71], [0.7, 0.4], [0.3, 0.37]])
        simplices = _orient_positive(pts, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]]), 2)
        mesh = SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=1)
        grid = OverlayGrid(dim=2, r_fd=1.2, n_fd=1)
        with pytest.warns(TransferRankWarning):
            transfer = build_transfer(mesh, grid)
        assert transfer.column_sums[0] == 0.0
        with pytest.raises(ValueError):
            build_transfer(mesh, grid, strict=True)

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
        values = apply_transfer(t, np.ones(mesh.n_interior))
        rows = np.asarray(t.matrix.sum(axis=1)).ravel()
        interior_only = rows > 1.0 - 1e-12
        assert interior_only.any()
        np.testing.assert_allclose(values[interior_only], 1.0, atol=1e-12)

    def test_zero(self, transfer):
        t, mesh = transfer
        assert np.all(apply_transfer_transpose(t, np.zeros(t.rows)) == 0.0)

    def test_adjoint_identity(self, transfer):
        t, mesh = transfer
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(t.cols)
            v = rng.standard_normal(t.rows)
            a = apply_transfer(t, u) @ v
            b = u @ apply_transfer_transpose(t, v)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_constant_preservation_rows(self, transfer):
        # row sums of D^-1 T^T equal one exactly
        t, mesh = transfer
        row_sums = apply_transfer_transpose(t, np.ones(t.rows)) / t.column_sums
        np.testing.assert_allclose(row_sums, 1.0, rtol=1e-14)


class TestRankCheck:
    def test_identity_like(self):
        grid = OverlayGrid(dim=1, r_fd=1.0, n_fd=2)
        matrix = scipy.sparse.identity(5, format="csr")
        t = TransferMatrix(matrix=matrix, column_sums=np.ones(5), grid=grid)
        assert column_rank_check(t, mode="exact")
        assert column_rank_check(t, mode="heuristic")

    def test_zero_column(self):
        grid = OverlayGrid(dim=1, r_fd=1.0, n_fd=2)
        matrix = scipy.sparse.csr_matrix(np.array([[1.0, 0.0]] * 5))
        t = TransferMatrix(matrix=matrix, column_sums=np.array([5.0, 0.0]), grid=grid)
        assert not column_rank_check(t, mode="exact")
        assert not column_rank_check(t, mode="heuristic")

    def test_ball_mesh_full_rank(self):
        mesh = ball_mesh(2, 3)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        t = build_transfer(mesh, grid)
        assert column_rank_check(t, mode="exact")

    def test_strict_condition_implies_full_rank(self):
        for n_r in (3, 5):
            mesh = ball_mesh(2, n_r)
            grid = choose_grid(mesh_quality(mesh), 1.2, mode="strict")
            t = build_transfer(mesh, grid)
            assert column_rank_check(t, mode="exact")
        mesh = ball_mesh(3, 3)
        grid = choose_grid(mesh_quality(mesh), 1.2, mode="strict")
        t = build_transfer(mesh, grid)
        assert column_rank_check(t, mode="exact")

    def test_coo_dump(self, tmp_path):
        mesh = ball_mesh(2, 3)
        grid = choose_grid(mesh_quality(mesh), 1.2)
        t = build_transfer(mesh, grid)
        path = tmp_path / "transfer.txt"
        write_transfer_coo(t, path)
        first = path.read_text().splitlines()[0].split()
        assert len(first) == 3


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


def rotated(mesh, seed):
    """The mesh turned by a seeded proper rotation about the origin."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((mesh.dim, mesh.dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return SimplicialMesh(dim=mesh.dim, vertices=mesh.vertices @ q.T,
                          simplices=mesh.simplices, n_interior=mesh.n_interior)


def as_transfer(dense):
    dense = np.asarray(dense, dtype=float)
    return TransferMatrix(matrix=scipy.sparse.csr_matrix(dense),
                          column_sums=dense.sum(axis=0),
                          grid=OverlayGrid(dim=1, r_fd=1.0, n_fd=2))


def with_grid(mesh, mode="practical"):
    return mesh, choose_grid(mesh_quality(mesh), 1.2, mode=mode)


EQUIVALENCE_CASES = {
    "disk": lambda: with_grid(ball_mesh(2, 10)),
    "ball3d": lambda: with_grid(ball_mesh(3, 4)),
    "disk_strict": lambda: with_grid(ball_mesh(2, 4), "strict"),
    "rotated_disk": lambda: with_grid(rotated(ball_mesh(2, 10), 3)),
    "rotated_ball3d": lambda: with_grid(rotated(ball_mesh(3, 4), 7)),
    "scattered": lambda: with_grid(scattered_ball(12, 0.3)),
    # nodes on the shared vertex (origin) and on the shared edges of the fan
    "fan_vertex": lambda: (unit_triangle_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=2)),
    "fan_edges": lambda: (unit_triangle_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=4)),
    "fan_fine": lambda: (unit_triangle_mesh(), OverlayGrid(dim=2, r_fd=2.0, n_fd=16)),
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
        np.testing.assert_array_equal(transfer.matrix.indptr, ref.indptr)
        np.testing.assert_array_equal(transfer.matrix.indices, ref.indices)
        np.testing.assert_allclose(transfer.matrix.data, ref.data, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(transfer.column_sums, np.asarray(ref.sum(axis=0)).ravel(),
                                   rtol=0.0, atol=1e-14)

    def test_chunking_does_not_change_the_result(self, case, monkeypatch):
        mesh, grid = case
        whole = build_transfer(mesh, grid).matrix
        monkeypatch.setattr(transfer_module, "_CHUNK", 5)
        chunked = build_transfer(mesh, grid).matrix
        assert (whole != chunked).nnz == 0
        np.testing.assert_array_equal(whole.indices, chunked.indices)

    def test_shared_vertex_goes_to_lowest_element(self):
        mesh = unit_triangle_mesh()
        grid = OverlayGrid(dim=2, r_fd=2.0, n_fd=2)
        nodes, owners, _ = transfer_module._locate_nodes(mesh, grid)
        assert owners[list(nodes).index(grid.n_nodes // 2)] == 0


class TestSparseRankCheck:
    @pytest.mark.parametrize("dim,n_r", [(2, 3), (2, 10), (3, 3)])
    def test_full_rank_transfers_match_dense(self, dim, n_r):
        mesh = ball_mesh(dim, n_r)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        assert column_rank_check(t, mode="exact") is dense_full_rank(t.matrix) is True

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
        assert column_rank_check(t, mode="exact") is expected

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_no_columns(self, mode):
        assert column_rank_check(as_transfer(np.zeros((3, 0))), mode=mode)

    def test_equal_columns_inside_a_transfer(self):
        mesh = ball_mesh(2, 6)
        matrix = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2)).matrix.tolil()
        matrix[:, 5] = matrix[:, 4]
        t = as_transfer(matrix.toarray())
        assert np.all(t.column_sums > 0.0)
        assert not dense_full_rank(t.matrix)
        assert not column_rank_check(t, mode="exact")

    def test_no_convergence_is_never_full_rank(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(0), None)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        mesh = ball_mesh(2, 3)
        t = build_transfer(mesh, choose_grid(mesh_quality(mesh), 1.2))
        with pytest.warns(TransferRankWarning):
            assert not column_rank_check(t, mode="exact")


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

"""Sparse transfer from mesh interior vertices to overlay-grid nodes.

Entry (k, j) is the piecewise-linear basis function of interior vertex j
evaluated at grid node k, i.e. the barycentric coordinate of the node within
its containing simplex.  Grid nodes outside the domain get empty rows (the
basis functions vanish outside), and boundary vertices contribute no column
since their values are pinned to zero.  The column sums d_j form the diagonal
matrix that makes the grid-to-mesh transpose transfer preserve constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .core import OverlayGrid
from .mesh import MeshQuality, SimplicialMesh

__all__ = [
    "TransferMatrix",
    "TransferRankWarning",
    "choose_grid",
    "build_transfer",
    "apply_transfer",
    "apply_transfer_transpose",
    "column_rank_check",
    "write_transfer_coo",
]

_CONTAIN_TOL = 1e-12
_DEFAULT_CAPS = {1: 4096, 2: 4096, 3: 256}
# candidate (simplex, grid node) pairs located per batch in build_transfer
_CHUNK = 1 << 16


class TransferRankWarning(UserWarning):
    """Signals interior vertices whose basis support contains no grid node."""


@dataclass(frozen=True)
class TransferMatrix:
    matrix: scipy.sparse.csr_matrix
    column_sums: np.ndarray
    grid: OverlayGrid

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def choose_grid(quality: MeshQuality, r_fd: float, mode: str = "practical",
                max_n_fd: int | None = None) -> OverlayGrid:
    """Smallest overlay grid whose spacing satisfies the admissibility
    condition for the given mesh.

    "practical" requires h_fd <= a_h; "strict" uses the conservative bound
    h_fd <= a_h / ((d+1) sqrt(d)) that guarantees full column rank of the
    transfer.  A configurable cap on n_fd guards the memory budget.
    """
    if mode not in ("practical", "strict"):
        raise ValueError(f"mode must be 'practical' or 'strict', got {mode!r}")
    if r_fd <= 0.0:
        raise ValueError("r_fd must be positive")
    target = quality.a_h
    if mode == "strict":
        target = quality.a_h / ((quality.dim + 1) * math.sqrt(quality.dim))
    n_fd = max(1, math.ceil(r_fd / target - 1e-12))
    cap = _DEFAULT_CAPS[quality.dim] if max_n_fd is None else max_n_fd
    if n_fd > cap:
        raise MemoryError(
            f"admissible grid needs n_fd = {n_fd}, beyond the cap {cap}; "
            "raise max_n_fd explicitly to proceed")
    return OverlayGrid(dim=quality.dim, r_fd=r_fd, n_fd=n_fd)


def _locate_nodes(mesh: SimplicialMesh, grid: OverlayGrid):
    """Covered grid nodes, their owner simplices and barycentric coordinates.

    Every simplex contributes the grid nodes of its bounding box as
    candidates; a candidate is inside when all its barycentric coordinates
    are >= -1e-12.  Each covered node belongs to the lowest-index simplex
    that contains it.  Candidates are processed in element order, in chunks
    of about _CHUNK, so memory stays bounded on large meshes.  Returns
    (node_ids, owners, lam) with lam of shape (n_covered, dim + 1), sorted by
    node id.
    """
    dim = mesh.dim
    h = grid.h_fd
    n = grid.n_fd
    strides = grid.nodes_per_axis ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    pts = mesh.vertices[mesh.simplices]  # (elements, dim + 1, dim)
    lo = np.maximum(np.ceil((pts.min(axis=1) - _CONTAIN_TOL) / h).astype(np.int64), -n)
    hi = np.minimum(np.floor((pts.max(axis=1) + _CONTAIN_TOL) / h).astype(np.int64), n)
    extent = np.maximum(hi - lo + 1, 0)
    counts = extent.prod(axis=1)
    first = np.concatenate(([0], np.cumsum(counts)))
    # columns of spans[e] are the edge vectors from vertex 0 of simplex e
    spans = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)

    claimed = np.zeros(grid.n_nodes, dtype=bool)
    found_nodes = [np.zeros(0, dtype=np.int64)]
    found_owners = [np.zeros(0, dtype=np.int64)]
    found_lam = [np.zeros((0, dim + 1))]
    e0 = 0
    while e0 < mesh.n_elements:
        e1 = max(e0 + 1, int(np.searchsorted(first, first[e0] + _CHUNK, side="right")) - 1)
        elem = np.repeat(np.arange(e0, e1), counts[e0:e1])
        offset = np.arange(elem.size) - (first[elem] - first[e0])
        k_multi = np.empty((elem.size, dim), dtype=np.int64)
        for a in range(dim - 1, -1, -1):
            k_multi[:, a] = lo[elem, a] + offset % extent[elem, a]
            offset //= extent[elem, a]
        node_ids = (k_multi + n) @ strides
        fresh = ~claimed[node_ids]
        elem, k_multi, node_ids = elem[fresh], k_multi[fresh], node_ids[fresh]

        rhs = k_multi * h - pts[elem, 0]
        lam_rest = np.linalg.solve(spans[elem], rhs[:, :, None])[:, :, 0]
        lam = np.column_stack([1.0 - lam_rest.sum(axis=1), lam_rest])
        inside = np.all(lam >= -_CONTAIN_TOL, axis=1)
        # candidates run in element order, so the first hit is the lowest index
        node_ids, pick = np.unique(node_ids[inside], return_index=True)
        claimed[node_ids] = True
        found_nodes.append(node_ids)
        found_owners.append(elem[inside][pick])
        found_lam.append(lam[inside][pick])
        e0 = e1

    node_ids = np.concatenate(found_nodes)
    order = np.argsort(node_ids)
    return (node_ids[order], np.concatenate(found_owners)[order],
            np.concatenate(found_lam)[order])


def build_transfer(mesh: SimplicialMesh, grid: OverlayGrid,
                   strict: bool = False) -> TransferMatrix:
    """Assemble the transfer matrix by locating every grid node inside the
    mesh.

    The location is vectorised over (simplex, bounding-box node) pairs with
    one batched barycentric solve per chunk and no loop over elements.  Each
    covered node keeps the barycentric coordinates, clipped to [0, 1], from
    the lowest-index simplex containing it, with containment tolerance
    1e-12.  The result is a canonical CSR matrix (sorted indices, no
    duplicates; coordinates that clip to zero stay stored).  Columns with
    zero sum are reported as a TransferRankWarning, or raise when strict is
    set.
    """
    if mesh.dim != grid.dim:
        raise ValueError(f"mesh dim {mesh.dim} does not match grid dim {grid.dim}")
    if np.any(np.abs(mesh.vertices) > grid.r_fd + _CONTAIN_TOL):
        raise ValueError("grid cube does not contain the mesh")

    node_ids, owners, lam = _locate_nodes(mesh, grid)
    simp = mesh.simplices[owners]
    keep = simp < mesh.n_interior
    rows = np.broadcast_to(node_ids[:, None], simp.shape)[keep]
    matrix = scipy.sparse.csr_matrix(
        (np.clip(lam, 0.0, 1.0)[keep], (rows, simp[keep])),
        shape=(grid.n_nodes, mesh.n_interior))
    matrix.sort_indices()
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()

    dead = np.nonzero(column_sums == 0.0)[0]
    if dead.size:
        message = (f"{dead.size} interior vertex column(s) received no grid node "
                   f"(first few: {dead[:8].tolist()}); the transfer is rank deficient")
        if strict:
            raise ValueError(message)
        warnings.warn(message, TransferRankWarning, stacklevel=2)
    return TransferMatrix(matrix=matrix, column_sums=column_sums, grid=grid)


def apply_transfer(transfer: TransferMatrix, u_mesh: np.ndarray) -> np.ndarray:
    """Mesh-to-grid interpolation, returned as a flat grid vector."""
    u_mesh = np.asarray(u_mesh, dtype=float)
    if u_mesh.shape != (transfer.cols,):
        raise ValueError(f"mesh vector must have shape ({transfer.cols},)")
    return transfer.matrix @ u_mesh


def apply_transfer_transpose(transfer: TransferMatrix, v_grid: np.ndarray) -> np.ndarray:
    """Adjoint of apply_transfer; dividing the result by the column sums gives
    the grid-to-mesh transfer that preserves constants."""
    v_grid = np.asarray(v_grid, dtype=float).ravel()
    if v_grid.shape != (transfer.rows,):
        raise ValueError(f"grid vector must have {transfer.rows} entries")
    return transfer.matrix.T @ v_grid


def column_rank_check(transfer: TransferMatrix, mode: str = "auto") -> bool:
    """Full-column-rank test.

    The exact path (up to 5000 columns, the limit "auto" uses to choose it)
    tests lambda_min > 1e-12 lambda_max on the sparse Gram matrix I^T I
    without forming it densely: Lanczos (ARPACK) gives lambda_max, then
    shift-invert Lanczos at the small negative shift -1e-6 lambda_max, which
    keeps the factorisation nonsingular when the Gram matrix is singular,
    gives lambda_min.  A Gram matrix with a zero diagonal entry (an empty
    column) is rank deficient without Lanczos.  If ARPACK does not converge
    the check warns and reports False; it never reports full rank unproven.

    The heuristic path checks that every column sum is positive and that
    the rows carrying each column's largest entry (the lowest such row on
    ties) are pairwise distinct.
    """
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if transfer.cols <= 5000 else "heuristic"
    if mode == "exact":
        if transfer.cols > 5000:
            raise ValueError("exact rank check is limited to 5000 columns")
        return _gram_full_rank(transfer.matrix)
    if np.any(transfer.column_sums <= 0.0):
        return False
    csc = transfer.matrix.tocsc()
    csc.sort_indices()
    counts = np.diff(csc.indptr)
    if np.any(counts == 0):
        return False
    starts = csc.indptr[:-1]
    col_max = np.maximum.reduceat(csc.data, starts)
    is_max = csc.data == np.repeat(col_max, counts)
    rows = np.where(is_max, csc.indices, transfer.rows)
    leading = np.minimum.reduceat(rows, starts)
    return np.unique(leading).size == transfer.cols


def _gram_full_rank(matrix: scipy.sparse.spmatrix) -> bool:
    """lambda_min(I^T I) > 1e-12 lambda_max(I^T I), by sparse Lanczos."""
    n = matrix.shape[1]
    gram = (matrix.T @ matrix).tocsc()
    if not np.all(gram.diagonal() > 0.0):
        return False
    if n <= 1:
        return True
    # ARPACK's default start vector is random per call; a fixed generic one
    # makes the eigenvalues, and so the verdict, reproducible
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lam_max = scipy.sparse.linalg.eigsh(
            gram, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
        lam_min = scipy.sparse.linalg.eigsh(
            gram, k=1, sigma=-1e-6 * lam_max, which="LM", v0=v0,
            return_eigenvectors=False)[0]
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        warnings.warn(f"exact rank check did not converge ({exc}); "
                      "reporting the transfer as rank deficient",
                      TransferRankWarning, stacklevel=3)
        return False
    return bool(lam_min > 1e-12 * lam_max)


def write_transfer_coo(transfer: TransferMatrix, path):
    """Debug dump in coordinate text format 'row col value'."""
    coo = transfer.matrix.tocoo()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.16e}\n")

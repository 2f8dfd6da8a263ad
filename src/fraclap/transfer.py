"""Sparse transfer from mesh interior vertices to overlay-grid nodes.

Entry (k, j) is the piecewise-linear basis function of interior vertex j
evaluated at grid node k, i.e. the barycentric coordinate of the node within
its containing simplex.  Grid nodes outside the domain carry no entry (the
basis functions vanish outside), and boundary vertices contribute no column
since their values are pinned to zero.  The column sums d_j form the diagonal
matrix that makes the grid-to-mesh transpose transfer preserve constants;
a zero d_j (no grid node in the vertex's support) makes I rank deficient.
The transfer is stored once, on the bounding box of the nodes holding a
positive entry, with its CSR transpose.  Each coordinate comes from the
simplex's inverse edge matrix, its adjugate over its determinant from
mesh.simplex_adjugates, the routine that also gives volumes and the minimum
element height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .core import OverlayGrid
from .mesh import MeshQuality, SimplicialMesh, simplex_adjugates

__all__ = [
    "TransferMatrix",
    "GramSolver",
    "N_FD_CAPS",
    "capped_grid",
    "choose_grid",
    "build_transfer",
    "column_rank_check",
]

_CONTAIN_TOL = 1e-12
# default cap on n_fd per dimension, for chosen and explicit grids alike;
# a max_n_fd argument replaces it
N_FD_CAPS = {1: 4096, 2: 4096, 3: 128}
# candidate (simplex, grid node) pairs located per batch in build_transfer,
# about 128 KiB per int64 temporary; on a 2-vCPU host, builds from 2D
# h=0.025 to 3D h=0.1 take the same time as at 1 << 16 and peak 1-5 MiB lower
_CHUNK = 1 << 14
# GramSolver's Chebyshev degree (GRAM_DEGREE - 1 sparse products per solve)
# and the lower end of its interval as a fraction of the upper end.  On
# rotated 2D balls (h = 0.1 to 0.035) and the 3D h=0.2 ball, degree 6 costs
# circulant PCG one more iteration per level than degree 8, and degree 10
# saves at most one
GRAM_DEGREE = 8
GRAM_LOWER = 0.1
# Jacobi sweeps allowed to each side of the rank certificate; on rotated
# 2D and 3D balls no side has needed more than 7
RANK_SWEEPS = 30


@dataclass(frozen=True)
class TransferMatrix:
    """I on its box, a tuple of grid slices: row r of ``matrix`` is the box's
    node r in C order, and every node outside the box has an empty row of I."""

    matrix: scipy.sparse.csr_matrix
    column_sums: np.ndarray
    grid: OverlayGrid
    box: tuple

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def transpose(self) -> scipy.sparse.csr_matrix:
        """I^T in CSR form, built on first use and kept."""
        return self.matrix.T.tocsr()

    @cached_property
    def gram_solver(self) -> GramSolver:
        """GramSolver of I^T I, built on first use and kept, so every
        circulant preconditioner over this transfer shares it."""
        return GramSolver(self.matrix)


class GramSolver:
    """Fixed symmetric positive definite approximation of (I^T I)^{-1}.

    With G = I^T I, D = diag(G) and the Jacobi-scaled Gram matrix
    ``scaled`` = D^{-1/2} G D^{-1/2}, solve(b) is D^{-1/2} p(scaled) D^{-1/2} b,
    where p(scaled) b is GRAM_DEGREE steps of Chebyshev iteration from zero
    on [lo, hi] (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
    ch. 12): GRAM_DEGREE - 1 sparse products and no factorisation.  hi is
    the largest row sum of ``scaled``, whose entries are nonnegative, so
    hi >= lambda_max (Gershgorin); lo = GRAM_LOWER hi.  The residual
    polynomial r(x) = 1 - x p(x) = T_k((hi + lo - 2x) / (hi - lo)) /
    T_k((hi + lo) / (hi - lo)) has |r| < 1 on (0, hi + lo), which holds the
    spectrum of a full-rank G, so x p(x) > 0 there and solve is SPD however
    the spectrum sits inside.  A zero diagonal entry (an empty transfer
    column) raises ArithmeticError.
    """

    def __init__(self, matrix: scipy.sparse.spmatrix):
        gram = (matrix.T @ matrix).tocsr()
        diagonal = gram.diagonal()
        empty = np.flatnonzero(~(diagonal > 0.0))
        if empty.size:
            raise ArithmeticError(
                f"the Gram matrix has {empty.size} zero diagonal entries (empty transfer "
                f"columns, first few: {empty[:8].tolist()}); it has no inverse")
        self.inv_sqrt_diagonal = 1.0 / np.sqrt(diagonal)
        scale = scipy.sparse.diags(self.inv_sqrt_diagonal)
        self.scaled = (scale @ gram @ scale).tocsr()
        self.hi = float(self.scaled.sum(axis=1).max())
        self.lo = GRAM_LOWER * self.hi
        # Chebyshev recurrence: d_0 = r_0 / theta, d_{k+1} = a_k d_k + c_k r_{k+1}
        theta, delta = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
        rho = delta / theta
        self._d0 = 1.0 / theta
        self._steps = []
        for _ in range(GRAM_DEGREE - 1):
            rho_next = 1.0 / (2.0 * theta / delta - rho)
            self._steps.append((rho_next * rho, 2.0 * rho_next / delta))
            rho = rho_next

    def solve(self, b: np.ndarray) -> np.ndarray:
        r = self.inv_sqrt_diagonal * b
        d = r * self._d0
        x = d.copy()
        for a, c in self._steps:
            r -= self.scaled @ d
            d *= a
            d += c * r
            x += d
        x *= self.inv_sqrt_diagonal
        return x


def choose_grid(quality: MeshQuality, r_fd: float,
                max_n_fd: int | None = None) -> OverlayGrid:
    """Smallest overlay grid whose spacing meets the practical admissibility
    condition h_fd <= a_h for the given mesh.  The n_fd cap of capped_grid
    guards the memory budget."""
    r_fd = OverlayGrid(quality.dim, r_fd, 1).r_fd  # the grid's r_fd check, before the ceil
    n_fd = max(1, math.ceil(r_fd / quality.a_h - 1e-12))
    return capped_grid(quality.dim, r_fd, n_fd, max_n_fd)


def capped_grid(dim: int, r_fd: float, n_fd: int, max_n_fd: int | None = None) -> OverlayGrid:
    """OverlayGrid(dim, r_fd, n_fd), refused with MemoryError when n_fd
    exceeds the cap: N_FD_CAPS[dim], or max_n_fd when given."""
    grid = OverlayGrid(dim=dim, r_fd=r_fd, n_fd=n_fd)
    cap = N_FD_CAPS[grid.dim] if max_n_fd is None else max_n_fd
    if grid.n_fd > cap:
        raise MemoryError(
            f"the grid needs n_fd = {grid.n_fd}, beyond the cap {cap}; "
            "raise max_n_fd explicitly to proceed")
    return grid


def _locate_nodes(mesh: SimplicialMesh, grid: OverlayGrid):
    """Covered grid nodes, their owner simplices and barycentric coordinates.

    Every simplex contributes the grid nodes of its bounding box as
    candidates; a candidate is inside when all its barycentric coordinates
    are >= -1e-12.  Each covered node belongs to the lowest-index simplex
    that contains it.  Candidates are processed in element order, in chunks
    of about _CHUNK, so memory stays bounded on large meshes: only the
    bounding boxes are formed for the whole mesh, and each chunk forms the
    corners, edge matrices and inverses of its own elements (the same
    arithmetic per element, so the result does not depend on the chunking).
    Returns (node_ids, owners, lam) with lam of shape (n_covered, dim + 1),
    sorted by node id.

    lam[:, 1:] is each simplex's closed-form inverse, adjugate / det from
    simplex_adjugates, applied to the node's offset from vertex 0, and
    lam[:, 0] is one minus their sum; the rounding error is of order
    cond * eps, as for a pivoted LU solve.
    """
    dim = mesh.dim
    h = grid.h_fd
    n = grid.n_fd
    strides = grid.nodes_per_axis ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    low = mesh.vertices[mesh.simplices[:, 0]]
    high = low.copy()
    for c in range(1, dim + 1):
        corner = mesh.vertices[mesh.simplices[:, c]]
        np.minimum(low, corner, out=low)
        np.maximum(high, corner, out=high)
    lo = np.maximum(np.ceil((low - _CONTAIN_TOL) / h).astype(np.int64), -n)
    hi = np.minimum(np.floor((high + _CONTAIN_TOL) / h).astype(np.int64), n)
    extent = np.maximum(hi - lo + 1, 0)
    del low, high, hi                       # held through the chunk loop otherwise
    counts = extent.prod(axis=1)
    first = np.concatenate(([0], np.cumsum(counts)))

    claimed = np.zeros(grid.n_nodes, dtype=bool)
    found_nodes = [np.zeros(0, dtype=np.int64)]
    found_owners = [np.zeros(0, dtype=np.int64)]
    found_lam = [np.zeros((0, dim + 1))]
    e0 = 0
    while e0 < mesh.n_elements:
        e1 = max(e0 + 1, int(np.searchsorted(first, first[e0] + _CHUNK, side="right")) - 1)
        pts = mesh.vertices[mesh.simplices[e0:e1]]  # (chunk elements, dim + 1, dim)
        adjugate, det = simplex_adjugates(pts)
        inverse = adjugate / det[:, None, None]

        # elem numbers the chunk's elements from 0; the mesh numbers them elem + e0
        elem = np.repeat(np.arange(e1 - e0), counts[e0:e1])
        offset = np.arange(elem.size) - (first[e0:e1] - first[e0])[elem]
        chunk_lo, chunk_extent = lo[e0:e1], extent[e0:e1]
        k_multi = np.empty((elem.size, dim), dtype=np.int64)
        for a in range(dim - 1, -1, -1):
            k_multi[:, a] = chunk_lo[elem, a] + offset % chunk_extent[elem, a]
            offset //= chunk_extent[elem, a]
        node_ids = (k_multi + n) @ strides
        fresh = ~claimed[node_ids]
        elem, k_multi, node_ids = elem[fresh], k_multi[fresh], node_ids[fresh]

        rhs = k_multi * h - pts[elem, 0]
        # one row per coordinate, so each is a contiguous array
        lam = np.empty((dim + 1, elem.size))
        for i in range(dim):
            lam[i + 1] = inverse[elem, i, 0] * rhs[:, 0]
            for j in range(1, dim):
                lam[i + 1] += inverse[elem, i, j] * rhs[:, j]
        lam[0] = 1.0 - sum(lam[1:])
        inside = np.flatnonzero(np.all(lam >= -_CONTAIN_TOL, axis=0))
        # candidates run in element order, so the first hit is the lowest index
        node_ids, pick = np.unique(node_ids[inside], return_index=True)
        claimed[node_ids] = True
        found_nodes.append(node_ids)
        found_owners.append(elem[inside[pick]] + e0)
        found_lam.append(lam[:, inside[pick]].T)
        e0 = e1

    node_ids = np.concatenate(found_nodes)
    order = np.argsort(node_ids)
    return (node_ids[order], np.concatenate(found_owners)[order],
            np.concatenate(found_lam)[order])


def build_transfer(mesh: SimplicialMesh, grid: OverlayGrid) -> TransferMatrix:
    """Assemble the transfer matrix by locating every grid node inside the
    mesh.

    The location is vectorised over (simplex, bounding-box node) pairs,
    chunk by chunk, with no loop over elements.  Each covered node keeps the
    barycentric coordinates, clipped to [0, 1], from the lowest-index
    simplex containing it, with containment tolerance 1e-12.  The box is
    the bounding box of the nodes holding an entry above that tolerance (the
    whole grid when none does); the entries inside it stay stored, and those
    outside, each at most 1e-12, are dropped.  The result is a canonical CSR
    matrix (sorted indices, no duplicates) over the box's nodes.  A column
    with zero sum fails column_rank_check, and setup's refusal of the
    transfer counts such columns.
    """
    if mesh.dim != grid.dim:
        raise ValueError(f"mesh dim {mesh.dim} does not match grid dim {grid.dim}")
    if mesh.n_interior == 0:
        raise ValueError("mesh has no interior vertex, so the transfer has no column")
    if np.any(np.abs(mesh.vertices) > grid.r_fd + _CONTAIN_TOL):
        raise ValueError("grid cube does not contain the mesh")

    node_ids, owners, lam = _locate_nodes(mesh, grid)
    simp = mesh.simplices[owners]
    lam = np.clip(lam, 0.0, 1.0)
    nodes = np.unravel_index(node_ids, grid.shape)
    # entries within the tolerance of 0 (a rounding residue at a tie) do not widen the box
    positive = np.any((simp < mesh.n_interior) & (lam > _CONTAIN_TOL), axis=1)
    box = tuple(slice(int(k[positive].min()), int(k[positive].max()) + 1) if positive.any()
                else slice(0, n) for k, n in zip(nodes, grid.shape))
    shape = tuple(b.stop - b.start for b in box)
    inside = np.logical_and.reduce([(k >= b.start) & (k < b.stop) for k, b in zip(nodes, box)])
    box_ids = np.ravel_multi_index([k[inside] - b.start for k, b in zip(nodes, box)], shape)
    simp, lam = simp[inside], lam[inside]
    keep = simp < mesh.n_interior
    rows = np.broadcast_to(box_ids[:, None], simp.shape)[keep]
    matrix = scipy.sparse.csr_matrix((lam[keep], (rows, simp[keep])),
                                     shape=(math.prod(shape), mesh.n_interior))
    matrix.sort_indices()
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    return TransferMatrix(matrix=matrix, column_sums=column_sums, grid=grid, box=box)


def column_rank_check(transfer: TransferMatrix, mode: str = "auto") -> bool:
    """Full-column-rank test.

    "auto" first tries the O(nnz) certificate of _dominance_certificate.
    When it proves nothing, up to 5000 columns one sparse Sylvester-inertia
    test decides whether lambda_min(I^T I) > 1e-12 lambda_max(I^T I) (see
    _gram_full_rank).  Neither has a start vector or an iteration that can
    fail to converge; what they cannot prove they report as False.  Above
    5000 columns "auto" falls back to the heuristic.

    "heuristic" runs the heuristic alone: every column sum is positive and
    the rows carrying each column's largest entry (the lowest such row on
    ties) are pairwise distinct.
    """
    if mode not in ("auto", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        bound, sigma = _dominance_certificate(transfer.matrix)
        if bound > sigma:
            return True
        if transfer.cols <= 5000:
            return _gram_full_rank(transfer.matrix)
    if np.any(transfer.column_sums <= 0.0):
        return False
    leading = _leading_rows(transfer.matrix)
    return leading is not None and np.unique(leading[0]).size == transfer.cols


def _leading_rows(matrix: scipy.sparse.spmatrix):
    """(rows, peaks): the lowest row holding each column's largest entry,
    and that entry; None when a column stores no entry."""
    csc = matrix.tocsc()
    counts = np.diff(csc.indptr)
    if np.any(counts == 0):
        return None
    starts = csc.indptr[:-1]
    peaks = np.maximum.reduceat(csc.data, starts)
    is_max = csc.data == np.repeat(peaks, counts)
    rows = np.where(is_max, csc.indices, matrix.shape[0])
    return np.minimum.reduceat(rows, starts), peaks


def _dominance_certificate(matrix: scipy.sparse.spmatrix) -> tuple[float, float]:
    """(bound, sigma): bound <= lambda_min(I^T I) is proved in O(nnz), and
    full rank is proved when bound > sigma = 1e-12 rho, rho = max(|I|^T |I| 1)
    >= lambda_max(I^T I).  bound is 0.0 when the certificate fails.

    S = I[r, :] stacks the rows r_j holding each column's largest entry
    (see _leading_rows); they must be distinct and the peaks positive.
    Since S is made of distinct rows of I, lambda_min(I^T I) >=
    sigma_min(S)^2 >= 1 / (||S^-1||_1 ||S^-1||_inf).  With B the absolute
    off-diagonal part of S, the comparison matrix is M = diag|S| - B, and
    a positive d with M d >= m_r > 0 makes M a nonsingular M-matrix with
    ||S^-1||_inf <= ||M^-1||_inf <= max d / m_r (Ostrowski: |S^-1| <= M^-1).
    d comes from Jacobi sweeps d <- (B d + 1) / diag|S| from d = 1, at most
    RANK_SWEEPS of them, and e likewise from B^T for the 1-norm, so
    bound = m_r m_c / (max d max e).  Each margin is taken net of a
    rounding allowance (nnz + 2) eps (diag|S| d + B d) per row, so that
    floating-point error cannot fake it.
    """
    n = matrix.shape[1]
    magnitude = abs(matrix)
    rho = float(np.max(magnitude.T @ (magnitude @ np.ones(n)), initial=0.0))
    sigma = 1e-12 * rho
    if n == 0:
        return math.inf, sigma
    leading = _leading_rows(matrix)
    if leading is None:
        return 0.0, sigma
    rows, peaks = leading
    if not (np.all(peaks > 0.0) and np.unique(rows).size == n):
        return 0.0, sigma
    square = matrix.tocsr()[rows]
    diagonal = np.abs(square.diagonal())
    counts = np.diff(square.indptr)
    on_diagonal = square.indices == np.repeat(np.arange(n), counts)
    off = scipy.sparse.csr_matrix((np.where(on_diagonal, 0.0, np.abs(square.data)),
                                   square.indices, square.indptr), shape=(n, n))
    eps = np.finfo(float).eps
    bound = 1.0
    for side, nnz in ((off, counts), (off.T, np.bincount(off.indices, minlength=n))):
        slack = (nnz + 2) * eps
        scale = np.ones(n)
        for _ in range(RANK_SWEEPS + 1):
            pushed = side @ scale
            held = diagonal * scale
            margin = np.min(held - pushed - slack * (held + pushed))
            if margin > 0.0:
                break
            scale = (pushed + 1.0) / diagonal
        else:
            return 0.0, sigma
        bound *= margin / scale.max()
    # the two divisions and the product round by at most 3 eps / 2
    return bound * (1.0 - 2.0 * eps), sigma


def _gram_full_rank(matrix: scipy.sparse.spmatrix) -> bool:
    """lambda_min(G) > sigma = 1e-12 rho for G = I^T I, by Sylvester inertia.

    rho = max_i sum_j |G_ij| >= lambda_max(G).  SuperLU factors G - sigma I
    under the symmetric ordering MMD_AT_PLUS_A with diagonal pivots only.
    When the row and column permutations agree this is P (G - sigma I) P^T
    = L D L^T with D = diag(U), so G - sigma I is positive definite exactly
    when every pivot is positive.  An off-diagonal pivot, a nonpositive
    pivot or an exactly singular factor leaves full rank unproven: False.
    A zero diagonal entry (an empty column) needs no factorisation: False.
    """
    n = matrix.shape[1]
    gram = (matrix.T @ matrix).tocsc()
    diagonal = gram.diagonal()
    if not np.all(diagonal > 0.0):
        return False
    if n <= 1:
        return True
    sigma = 1e-12 * abs(gram).sum(axis=1).max()
    # every diagonal entry is stored (all are positive), so this keeps the pattern
    gram.setdiag(diagonal - sigma)
    try:
        lu = scipy.sparse.linalg.splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError:
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0))

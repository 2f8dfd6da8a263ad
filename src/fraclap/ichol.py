"""Modified incomplete Cholesky factorization with threshold dropping.

Left-looking column factorization of a sparse symmetric positive definite
matrix.  Entries of the working column smaller in magnitude than
drop_tol times the 1-norm of the corresponding column of A are discarded,
and their sum is folded into the pivot (the "modified" compensation), so the
factor stays consistent with the column sums of A.  Signed compensation can
drive a pivot nonpositive; that surfaces as IncompleteCholeskyError and the
caller retries once with a small diagonal shift.  The sparse preconditioner
is its one user; the circulant preconditioner's Gram solve needs no factor
(transfer.GramSolver).

The loop works on Python scalars.  The working column is a dict keyed by
row: A's rows >= j (read one column at a time), then the updates from the
finished columns whose next entry is row j, which wait in per-row lists of
(position, end) into the factor's flat arrays.  Dropped entries are summed
as numpy sums them, so the factor is bitwise that of a numpy column loop
(the tests keep one as the reference).  MicFactor solves through SuperLU.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

__all__ = ["IncompleteCholeskyError", "MicFactor", "mic_factor", "mic_factor_with_retry"]


class IncompleteCholeskyError(RuntimeError):
    """A nonpositive pivot in the factorisation pre-shifted by shift*I."""

    def __init__(self, column: int, pivot: float, shift: float = 0.0):
        super().__init__(f"nonpositive pivot {pivot:.6e} in column {column}")
        self.column = column
        self.pivot = pivot
        self.shift = shift


class MicFactor:
    """Lower-triangular factor L with A ~= L L^T; solve() applies (L L^T)^{-1}.

    ``lower`` is the CSC triangle.  __init__ hands it once to SuperLU and
    checks that the result is the triangle itself (identity row and column
    permutations, diagonal U); solve() is then L y = b followed by
    L^T x = y through that one factorization.
    """

    def __init__(self, lower: scipy.sparse.csc_matrix, shift: float = 0.0):
        self.lower = scipy.sparse.csc_matrix(lower)
        self.shift = shift
        n = self.lower.shape[0]
        self._lu = splu(self.lower, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
        identity = np.arange(n)
        if not (np.array_equal(self._lu.perm_r, identity)
                and np.array_equal(self._lu.perm_c, identity)
                and self._lu.U.nnz == n):
            raise ArithmeticError("SuperLU permuted or filled the triangular factor")

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._lu.solve(np.asarray(b, dtype=float))
        return self._lu.solve(y, trans="T")


def mic_factor(matrix, drop_tol: float = 1e-3, shift: float = 0.0) -> MicFactor:
    """Factor a sparse SPD matrix, optionally pre-shifted by shift*I."""
    a = scipy.sparse.csc_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    a.sort_indices()
    drop_ref = (drop_tol * np.asarray(np.abs(a).sum(axis=0)).ravel()).tolist()
    a_ptr = a.indptr.tolist()

    # finished columns back to back, pivot first, then rows ascending
    rows, vals, indptr = array("i"), array("d"), [0]
    # heads[i]: (position, end) of the finished columns whose next entry is
    # row i, in the order they reached it
    heads: list = [[] for _ in range(n)]

    for j in range(n):
        lo, hi = a_ptr[j], a_ptr[j + 1]
        w = {r: v for r, v in zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist())
             if r >= j}
        if shift:
            w[j] = w.get(j, 0.0) + shift
        get = w.get
        pending, heads[j] = heads[j], None
        for p, end in pending:
            ljk = vals[p]
            for r, v in zip(rows[p:end], vals[p:end]):
                w[r] = get(r, 0.0) - ljk * v
            if p + 1 < end:
                heads[rows[p + 1]].append((p + 1, end))

        pivot = w.pop(j, 0.0)
        ref = drop_ref[j]
        dropped = [v for v in w.values() if abs(v) < ref]
        kept = sorted((r, v) for r, v in w.items() if not abs(v) < ref)
        # numpy's order: sequential below 8 terms (builtin sum() compensates
        # from Python 3.12 on), pairwise from 8 on
        pivot += reduce(add, dropped, 0.0) if len(dropped) < 8 else np.array(dropped).sum()
        if not pivot > 0.0:
            raise IncompleteCholeskyError(j, pivot, shift)
        root = math.sqrt(pivot)
        p = len(rows)
        rows.append(j)
        rows.extend([r for r, _ in kept])
        vals.append(root)
        vals.extend([v / root for _, v in kept])
        indptr.append(len(rows))
        if kept:
            heads[kept[0][0]].append((p + 1, len(rows)))

    lower = scipy.sparse.csc_matrix((np.array(vals), np.array(rows), np.array(indptr)),
                                    shape=(n, n))
    return MicFactor(lower, shift=shift)


def mic_factor_with_retry(matrix, drop_tol: float = 1e-3) -> MicFactor:
    """Factor with the standard breakdown fallback: on a nonpositive pivot,
    shift the diagonal by 1e-8 times its largest entry and retry once."""
    try:
        return mic_factor(matrix, drop_tol=drop_tol)
    except IncompleteCholeskyError:
        diag = scipy.sparse.csc_matrix(matrix).diagonal()
        shift = 1e-8 * float(np.max(diag))
        return mic_factor(matrix, drop_tol=drop_tol, shift=shift)

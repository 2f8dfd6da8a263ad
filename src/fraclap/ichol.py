"""Modified incomplete Cholesky factorization with threshold dropping.

Left-looking column factorization of a sparse symmetric positive definite
matrix.  Entries of the working column smaller in magnitude than
drop_tol times the 1-norm of the corresponding column of A are discarded,
and their sum is folded into the pivot (the "modified" compensation), so the
factor stays consistent with the column sums of A.  Signed compensation can
drive a pivot nonpositive; that surfaces as IncompleteCholeskyError and the
callers retry once with a small diagonal shift.

The factor is applied through SuperLU, prepared once per factor: a lower
triangle with positive pivots, given to ``splu`` in its natural order with
diagonal pivoting, factors as L = (L D^-1) D without fill or pivoting, so
each solve is one forward and one transposed substitution.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

__all__ = ["IncompleteCholeskyError", "MicFactor", "mic_factor", "mic_factor_with_retry"]


class IncompleteCholeskyError(RuntimeError):
    def __init__(self, column: int, pivot: float):
        super().__init__(f"nonpositive pivot {pivot:.6e} in column {column}")
        self.column = column
        self.pivot = pivot


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
    drop_ref = drop_tol * np.asarray(np.abs(a).sum(axis=0)).ravel()

    col_rows: list[np.ndarray] = []
    col_vals: list[np.ndarray] = []
    ptr = np.zeros(n, dtype=np.int64)
    heads: list[list[int]] = [[] for _ in range(n)]
    work = np.zeros(n)
    marked = np.zeros(n, dtype=bool)

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

        touched_all = np.concatenate(touched) if touched else np.empty(0, dtype=np.int64)
        sub = touched_all[touched_all > j]
        sub_vals = work[sub]
        pivot = work[j]
        dropping = np.abs(sub_vals) < drop_ref[j]
        pivot += sub_vals[dropping].sum()
        if not pivot > 0.0:
            work[touched_all] = 0.0
            marked[touched_all] = False
            work[j] = 0.0
            marked[j] = False
            raise IncompleteCholeskyError(j, pivot)
        root = np.sqrt(pivot)
        keep = sub[~dropping]
        keep_vals = sub_vals[~dropping]
        order = np.argsort(keep)
        col_rows.append(np.concatenate(([j], keep[order])))
        col_vals.append(np.concatenate(([root], keep_vals[order] / root)))
        ptr[j] = 1  # first subdiagonal entry is the next contribution
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

"""Assembly and iterative solution of the overlay-grid linear system.

The mesh-space operator is A = I^T A_grid I with I the sparse transfer and
A_grid the dense Toeplitz operator applied through its FFT plan on the
bounding box of the grid rows that I touches; the right-hand side is
h_fd^{2s} D f at the interior vertices, so no spacing factor appears in the
operator itself.  The system is solved by conjugate gradients, optionally
preconditioned by

  sparse    modified incomplete Cholesky of I^T A_grid^(near) I, where
            A_grid^(near) keeps the kernel entries at offsets with Chebyshev
            norm <= 1 (3/9/27-point patterns in 1/2/3 dimensions);
  circulant the grid operator restricted to 2*n_fd points per axis becomes a
            circulant diagonalized by the DFT; its inverse is conjugated back
            to mesh space through the pseudo-inverse of the transfer, realized
            with an incomplete Cholesky solve of the Gram matrix I^T I on each
            side (solve, lift, frequency solve, restrict, solve).  The payload
            is real and even, so the frequency solve is a real-to-real
            transform pair over the half spectrum.

Each incomplete Cholesky factor is prepared once for SuperLU, so a
preconditioner solve is two sparse triangular substitutions.  CG reports
why it stopped (SolveReport.stop_reason).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse

from .core import OverlayGrid, gamma, order_value
from .ichol import MicFactor, mic_factor_with_retry
from .mesh import SimplicialMesh, lumped_l2_error, mesh_quality
from .stiffness import (StiffnessKernel, analytic_1d, fft_uniform, modified_spectral,
                        nonuniform, spectral)
from .toeplitz import ToeplitzPlan
from .transfer import TransferMatrix, build_transfer, choose_grid, column_rank_check

__all__ = [
    "OverlayOperator",
    "Preconditioner",
    "SparsePreconditioner",
    "CirculantPreconditioner",
    "SolveReport",
    "assemble_rhs",
    "cg_solve",
    "build_sparse_preconditioner",
    "build_circulant_preconditioner",
    "circulant_payload",
    "build_kernel",
    "exact_solution",
    "solve_bvp",
]

_STENCILS = {1: 3, 2: 9, 3: 27}
# frequency grid size per axis of the fft, nufft and modspec kernels when
# none is given; the CLI reads the same table
DEFAULT_M = {1: 2 ** 14, 2: 2 ** 14, 3: 2 ** 10}


@dataclass(frozen=True)
class OverlayOperator:
    """Matrix-free action u -> I^T (A_grid (I u)) on interior-vertex vectors.

    I u vanishes outside the bounding box of the grid rows that hold entries
    of the transfer, and I^T reads nothing there, so the Toeplitz product runs
    on that box alone: the transfer's rows inside it and a plan of the box's
    shape built from ``plan.kernel`` (the block of a Toeplitz matrix on any
    box has the same generator).  When the box is the whole grid, or the
    transfer has no entries, the rows are the transfer's own and the plan is
    ``plan``.  ``plan`` stays the whole-grid plan that the preconditioners
    read.
    """

    transfer: TransferMatrix
    plan: ToeplitzPlan
    grid: OverlayGrid
    s: float

    def __post_init__(self):
        matrix = self.transfer.matrix
        rows, box_plan = matrix, self.plan
        touched = np.flatnonzero(np.diff(matrix.indptr))
        if touched.size:
            nodes = np.unravel_index(touched, self.grid.shape)
            ranges = [np.arange(k.min(), k.max() + 1) for k in nodes]
            shape = tuple(r.size for r in ranges)
            if shape != self.grid.shape:
                rows = matrix[np.ravel_multi_index(np.ix_(*ranges), self.grid.shape).ravel()]
                box_plan = ToeplitzPlan(self.plan.kernel, shape)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_box_plan", box_plan)

    def apply(self, u: np.ndarray) -> np.ndarray:
        g = self._rows @ np.asarray(u, dtype=float)
        v = self._box_plan.apply(g.reshape(self._box_plan.grid_shape))
        return self._rows.T @ v.ravel()

    @property
    def n_unknowns(self) -> int:
        return self.transfer.cols


def assemble_rhs(mesh: SimplicialMesh, transfer: TransferMatrix, s, f=1.0) -> np.ndarray:
    """b_j = h_fd^{2s} * d_j * f(x_j) over the interior vertices."""
    s = order_value(s)
    points = mesh.vertices[:mesh.n_interior]
    if callable(f):
        fvals = np.asarray(f(points), dtype=float)
    else:
        fvals = np.full(points.shape[0], float(f))
    h = transfer.grid.h_fd
    return h ** (2.0 * s) * transfer.column_sums * fvals


class Preconditioner:
    """Symmetric positive definite map applied to residuals inside PCG."""

    variant = "none"
    shift = 0.0  # diagonal shift of its MIC factor's breakdown retry

    def apply(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SparsePreconditioner(Preconditioner):
    def __init__(self, factor: MicFactor, stencil: int):
        self.factor = factor
        self.stencil = stencil
        self.variant = f"sparse{stencil}"

    @property
    def shift(self):
        return self.factor.shift

    def apply(self, r):
        return self.factor.solve(r)


class CirculantPreconditioner(Preconditioner):
    variant = "circulant"

    def __init__(self, payload: np.ndarray, gram_factor: MicFactor,
                 transfer: TransferMatrix, grid: OverlayGrid):
        self.payload = payload
        self.gram_factor = gram_factor
        self.transfer = transfer
        self.grid = grid
        self._sub = (slice(0, 2 * grid.n_fd),) * grid.dim
        # the payload is even, so its half spectrum pairs with rfftn
        self._half_payload = np.ascontiguousarray(payload[..., :grid.n_fd + 1])

    @property
    def shift(self):
        return self.gram_factor.shift

    def circulant_solve(self, w_sub: np.ndarray) -> np.ndarray:
        """Frequency-diagonal solve on the 2*n_fd-per-axis sub-grid."""
        return scipy.fft.irfftn(scipy.fft.rfftn(w_sub) / self._half_payload, s=w_sub.shape)

    def circulant_apply(self, w_sub: np.ndarray) -> np.ndarray:
        """Action of the circulant surrogate itself (test hook)."""
        return scipy.fft.irfftn(scipy.fft.rfftn(w_sub) * self._half_payload, s=w_sub.shape)

    def apply(self, r):
        z = self.gram_factor.solve(r)
        g = (self.transfer.matrix @ z).reshape(self.grid.shape)
        out = np.zeros(self.grid.shape)
        out[self._sub] = self.circulant_solve(g[self._sub])
        t = self.transfer.matrix.T @ out.ravel()
        return self.gram_factor.solve(t)


def _near_field_matrix(kernel: StiffnessKernel, grid: OverlayGrid) -> scipy.sparse.csr_matrix:
    """Sparse grid operator keeping kernel entries at offsets with Chebyshev
    norm <= 1."""
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


def build_sparse_preconditioner(op: OverlayOperator, stencil: int | None = None,
                                drop_tol: float = 1e-3) -> SparsePreconditioner:
    """Near-field mesh operator I^T A_grid^(near) I factored by modified
    incomplete Cholesky with the given drop threshold."""
    expected = _STENCILS[op.grid.dim]
    if stencil is None:
        stencil = expected
    if stencil != expected:
        raise ValueError(f"stencil {stencil} requires dim {_dim_for_stencil(stencil)}, "
                         f"operator has dim {op.grid.dim}")
    near = _near_field_matrix(op.plan.kernel, op.grid)
    a_mesh = (op.transfer.matrix.T @ (near @ op.transfer.matrix)).tocsc()
    factor = mic_factor_with_retry(a_mesh, drop_tol=drop_tol)
    return SparsePreconditioner(factor, stencil)


def _dim_for_stencil(stencil: int) -> int:
    for d, st in _STENCILS.items():
        if st == stencil:
            return d
    raise ValueError(f"stencil must be one of {sorted(_STENCILS.values())}, got {stencil}")


def circulant_payload(kernel: StiffnessKernel) -> np.ndarray:
    """Real frequency payload of the circulant surrogate: the DFT over 2*n_fd
    points per axis of the kernel wrapped symmetrically (entry k holds the
    coefficient at offset min(k, 2*n_fd - k)).

    The symbol vanishes at zero frequency, so the raw zero-frequency sample
    can be arbitrarily small; entries below 1e-8 of the maximum magnitude are
    replaced by that floor.  Larger entries keep their sign: for the true
    kernel the payload is positive throughout, while the ball-surrogate
    kernels can carry negative high-frequency samples (those barely intersect
    the range of the mesh transfer, which is what the preconditioner acts on).
    """
    n = kernel.n_fd
    fold = np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n))
    wrapped = kernel.coeffs[np.ix_(*([fold] * kernel.dim))]
    spectrum = scipy.fft.fftn(wrapped)
    scale = np.max(np.abs(spectrum.real))
    if np.max(np.abs(spectrum.imag)) > 1e-10 * scale:
        raise ArithmeticError("circulant payload is not real after symmetrization")
    floor = 1e-8 * scale
    return np.where(np.abs(spectrum.real) < floor, floor, spectrum.real)


def build_circulant_preconditioner(op: OverlayOperator,
                                   drop_tol: float = 1e-3) -> CirculantPreconditioner:
    payload = circulant_payload(op.plan.kernel)
    gram = (op.transfer.matrix.T @ op.transfer.matrix).tocsc()
    factor = mic_factor_with_retry(gram, drop_tol=drop_tol)
    return CirculantPreconditioner(payload, factor, op.transfer, op.grid)


@dataclass
class SolveReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    l2_error: float = float("nan")
    wall_times: dict = field(default_factory=dict)
    converged: bool = False
    true_residual: float = float("nan")
    preconditioner: str = "none"
    stop_reason: str = ""
    precond_shift: float = 0.0

    def to_text(self) -> str:
        lines = [
            f"converged={self.converged}",
            f"stop_reason={self.stop_reason}",
            f"iterations={self.iterations}",
            f"l2_error={self.l2_error:.16e}",
            f"true_residual={self.true_residual:.16e}",
            f"preconditioner={self.preconditioner}",
            f"precond_shift={self.precond_shift:.16e}",
        ]
        for phase, seconds in self.wall_times.items():
            lines.append(f"time_{phase}={seconds:.6f}")
        return "\n".join(lines) + "\n"


def cg_solve(op, b: np.ndarray, precond: Preconditioner | None = None,
             tol: float = 1e-10, max_iter: int = 5000):
    """Preconditioned conjugate gradients on the mesh-space system.

    Convergence is declared when the preconditioned residual norm
    sqrt(r^T M r) drops below tol relative to its initial value; the history
    records that relative quantity per iteration, starting at 1.  The
    unpreconditioned relative residual of the returned iterate is recorded
    separately and cross-checks the declaration: an indefinite preconditioner
    can collapse the preconditioned norm while the true residual stagnates,
    and such runs report converged=False.

    The report's stop_reason says why the iteration ended: converged; max_iter;
    operator_not_positive (p^T A p <= 0); preconditioner_indefinite
    (r^T M r <= 0 on a nonzero residual); true_residual_mismatch (the
    preconditioned norm met tol but the true residual exceeds sqrt(tol));
    non_finite (p^T A p or r^T M r is NaN or infinite).  A preconditioner that
    is not positive on the initial residual raises ArithmeticError instead.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    matvec = op.apply if hasattr(op, "apply") else op
    psolve = precond.apply if precond is not None else (lambda r: r)
    b = np.asarray(b, dtype=float)
    report = SolveReport(preconditioner=precond.variant if precond is not None else "none")

    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        report.converged = True
        report.stop_reason = "converged"
        report.true_residual = 0.0
        return np.zeros_like(b), report

    x = np.zeros_like(b)
    r = b.copy()
    z = psolve(r)
    rho = float(r @ z)
    if not rho > 0.0:
        raise ArithmeticError("preconditioner is not positive definite on the initial residual")
    rho0 = rho
    p = z.copy()
    report.residual_history.append(1.0)
    report.stop_reason = "max_iter"

    for iteration in range(1, max_iter + 1):
        ap = matvec(p)
        denom = float(p @ ap)
        if not denom > 0.0:
            report.stop_reason = "operator_not_positive" if np.isfinite(denom) else "non_finite"
            report.iterations = iteration - 1
            break
        alpha = rho / denom
        x += alpha * p
        r -= alpha * ap
        z = psolve(r)
        rho_next = float(r @ z)
        report.iterations = iteration
        if not np.isfinite(rho_next):
            report.stop_reason = "non_finite"
            break
        if rho_next < 0.0 or (rho_next == 0.0 and np.any(r)):
            report.stop_reason = "preconditioner_indefinite"
            break
        rel = np.sqrt(rho_next / rho0)
        report.residual_history.append(rel)
        if rel <= tol:
            report.converged = True
            report.stop_reason = "converged"
            break
        p = z + (rho_next / rho) * p
        rho = rho_next

    report.true_residual = float(np.linalg.norm(b - matvec(x)) / b_norm)
    if report.converged and report.true_residual > np.sqrt(tol):
        report.converged = False
        report.stop_reason = "true_residual_mismatch"
    return x, report


def exact_solution(dim: int, s, x) -> np.ndarray:
    """Closed-form solution of the constant-source unit-ball problem:
    Gamma(d/2) / (2^{2s} Gamma(1+s) Gamma(d/2+s)) * (1 - |x|^2)_+^s."""
    s = order_value(s)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        sq = np.array(np.dot(x, x))
    else:
        sq = np.sum(x * x, axis=-1)
    coeff = gamma(0.5 * dim) / (2.0 ** (2.0 * s) * gamma(1.0 + s) * gamma(0.5 * dim + s))
    return coeff * np.clip(1.0 - sq, 0.0, None) ** s


def build_kernel(scheme: str, s, dim: int, n_fd: int, m: int | None = None,
                 n_g: int = 64) -> StiffnessKernel:
    """Dispatch a kernel build by scheme name; m defaults to DEFAULT_M[dim],
    2^14 (dim <= 2) or 2^10 (dim 3), where the scheme needs it."""
    if scheme == "analytic":
        if dim != 1:
            raise ValueError("the analytic kernel exists in one dimension only")
        return analytic_1d(s, n_fd)
    if m is None:
        if dim not in DEFAULT_M:
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        m = DEFAULT_M[dim]
    if scheme == "fft":
        return fft_uniform(s, dim, n_fd, m)
    if scheme == "nufft":
        return nonuniform(s, dim, n_fd, m)
    if scheme == "spectral":
        return spectral(s, dim, n_fd, n_g)
    if scheme == "modspec":
        return modified_spectral(s, dim, n_fd, m, n_g)
    raise ValueError(f"unknown scheme {scheme!r}")


def solve_bvp(mesh: SimplicialMesh, s, scheme: str = "fft", *,
              n_fd: int | None = None, m: int | None = None, n_g: int = 64,
              r_fd: float = 1.2, precond: str = "auto", tol: float = 1e-10,
              max_iter: int = 5000, f=1.0, exact=None, grid_mode: str = "practical",
              max_n_fd: int | None = None, kernel: StiffnessKernel | None = None,
              rank_check: str = "auto"):
    """End-to-end pipeline: grid selection, kernel build, transfer assembly,
    rank check, preconditioned CG, and the lumped L2 error against the exact
    solution (the closed-form unit-ball solution by default).

    Returns the nodal solution over all vertices (boundary entries zero) and
    a SolveReport with per-phase timings and the diagonal shift that the
    preconditioner's MIC factor retried with (precond_shift, 0.0 if none).
    precond "auto" selects the circulant preconditioner except for the
    spectral scheme, which runs unpreconditioned.
    """
    s = order_value(s)
    times = {}
    t0 = time.perf_counter()
    if n_fd is None:
        quality = mesh_quality(mesh)
        grid = choose_grid(quality, r_fd, mode=grid_mode, max_n_fd=max_n_fd)
    else:
        grid = OverlayGrid(dim=mesh.dim, r_fd=r_fd, n_fd=n_fd)
    times["grid"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if kernel is None:
        kernel = build_kernel(scheme, s, mesh.dim, grid.n_fd, m, n_g)
    elif kernel.n_fd != grid.n_fd or kernel.dim != mesh.dim:
        raise ValueError("supplied kernel does not match the chosen grid")
    plan_ = ToeplitzPlan(kernel)
    times["kernel"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    transfer = build_transfer(mesh, grid)
    times["transfer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if rank_check != "skip" and not column_rank_check(transfer, mode=rank_check):
        raise RuntimeError("rank_check: transfer matrix is rank deficient; "
                           "refine the overlay grid (strict mode) or the mesh")
    times["rank_check"] = time.perf_counter() - t0

    op = OverlayOperator(transfer=transfer, plan=plan_, grid=grid, s=s)

    t0 = time.perf_counter()
    auto = precond == "auto"
    if auto:
        precond = "none" if kernel.scheme == "spectral" else "circulant"
    if precond == "none":
        preconditioner = None
    elif precond == "sparse":
        preconditioner = build_sparse_preconditioner(op)
    elif precond == "circulant":
        preconditioner = build_circulant_preconditioner(op)
    else:
        raise ValueError(f"unknown preconditioner {precond!r}")
    times["precond"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    b = assemble_rhs(mesh, transfer, s, f)
    try:
        u_interior, report = cg_solve(op, b, preconditioner, tol=tol, max_iter=max_iter)
    except ArithmeticError:
        if not (auto and preconditioner is not None):
            raise
        u_interior, report = None, SolveReport(converged=False)
    if auto and preconditioner is not None and not report.converged:
        # the circulant surrogate of a ball-based kernel can be indefinite on
        # the lifted subspace; auto mode falls back to plain CG in that case
        fallback = preconditioner.variant
        u_interior, report = cg_solve(op, b, None, tol=tol, max_iter=max_iter)
        report.preconditioner = f"none(fallback from {fallback})"
    report.precond_shift = preconditioner.shift if preconditioner is not None else 0.0
    times["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    u_full = np.zeros(mesh.n_vertices)
    u_full[:mesh.n_interior] = u_interior
    exact_fn = exact if exact is not None else (lambda pts: exact_solution(mesh.dim, s, pts))
    report.l2_error = lumped_l2_error(mesh, u_full, exact_fn)
    times["error"] = time.perf_counter() - t0

    report.wall_times = times
    return u_full, report

"""Assembly and iterative solution of the overlay-grid linear system.

The mesh-space operator is A = I^T A_grid I with I the sparse transfer and
A_grid the dense Toeplitz operator applied through its FFT plan on the
bounding box of the grid rows that I touches.  The transfer is stored on
that box with its transpose (TransferMatrix.box, .matrix, .transpose), and
the operator and both preconditioners read it there.  The right-hand side is
h_fd^{2s} D f at the interior vertices, so no spacing factor appears in the
operator itself.  The system is solved by conjugate gradients, optionally
preconditioned by

  sparse    modified incomplete Cholesky of I^T A_grid^(near) I, where
            A_grid^(near) keeps the kernel entries at offsets with Chebyshev
            norm <= 1 (3/9/27-point patterns in 1/2/3 dimensions),
            assembled as a Kronecker sum on the transfer's box;
  circulant the grid operator restricted to 2*n_fd points per axis becomes a
            circulant diagonalized by the DFT; its inverse is conjugated back
            to mesh space through the pseudo-inverse of the transfer, realized
            with a solve of the Gram matrix I^T I on each side (solve, lift
            into the box with I, frequency solve, restrict from the box with
            I^T, solve).  The Gram solve is a fixed Chebyshev polynomial in
            the Jacobi-scaled Gram matrix (transfer.GramSolver), symmetric
            positive definite with no factorisation; it is kept on the
            transfer (TransferMatrix.gram_solver), so it is shared.  The
            payload is real and even, so the frequency solve is a
            real-to-real transform pair over the half spectrum.

The sparse preconditioner's incomplete Cholesky factor is prepared once for
SuperLU, so its solve is two sparse triangular substitutions.  CG reports
why it stopped (SolveReport.stop_reason).  setup() builds a mesh's operator
(grid, kernel, transfer, rank check); solve() runs one solve on a built
OverlayOperator, so one transfer serves many solves; solve_bvp is setup()
and one solve().
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.sparse

from .core import OverlayGrid, check_dim, check_tolerance, gamma, order_value
from .ichol import IncompleteCholeskyError, MicFactor, mic_factor_with_retry
from .mesh import SimplicialMesh, is_unit_ball, lumped_l2_error, mesh_quality
from .stiffness import (StiffnessKernel, analytic_1d, fft_corrected, fft_uniform,
                        modified_spectral, nonuniform, spectral)
from .toeplitz import ToeplitzPlan
from .transfer import (TransferMatrix, build_transfer, capped_grid, choose_grid,
                       column_rank_check)

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
    "setup",
    "solve",
    "solve_bvp",
]

# frequency grid size per axis of the nufft and modspec kernels when none is
# given; the fft scheme's default is fft_corrected's own, which is far smaller
DEFAULT_M = {1: 2 ** 14, 2: 2 ** 14, 3: 2 ** 10}


def _check_kernel(kernel: StiffnessKernel, grid: OverlayGrid, s):
    """ValueError unless the kernel has the grid's dim and n_fd and order s."""
    if (kernel.dim, kernel.n_fd) != (grid.dim, grid.n_fd):
        raise ValueError(f"kernel of dim {kernel.dim} and n_fd {kernel.n_fd} on {grid}")
    if order_value(s) != kernel.s:
        raise ValueError(f"s = {s} is not the kernel's order {kernel.s}")


@dataclass(frozen=True)
class OverlayOperator:
    """Matrix-free action u -> I^T (A_grid (I u)) on interior-vertex vectors.

    ``grid`` must be the transfer's grid, ``plan.kernel`` must have its dim
    and n_fd, and ``s`` must be the kernel's order; ValueError otherwise.
    The transfer is stored on its box (TransferMatrix.box), so the Toeplitz
    product runs on that box alone, through ``box_plan``: a plan of the box's
    shape from ``plan.kernel``, since a Toeplitz block on any box has the same
    generator.  The operator holds nothing else.
    """

    transfer: TransferMatrix
    plan: ToeplitzPlan
    grid: OverlayGrid
    s: float

    def __post_init__(self):
        if self.grid != self.transfer.grid:
            raise ValueError(f"grid {self.grid} is not the transfer's grid {self.transfer.grid}")
        _check_kernel(self.plan.kernel, self.grid, self.s)
        shape = tuple(b.stop - b.start for b in self.transfer.box)
        object.__setattr__(self, "box_plan", ToeplitzPlan(self.plan.kernel, shape))

    def apply(self, u: np.ndarray) -> np.ndarray:
        g = self.transfer.matrix @ np.asarray(u, dtype=float)
        v = self.box_plan.apply(g.reshape(self.box_plan.grid_shape))
        return self.transfer.transpose @ v.ravel()


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
        self.variant = f"sparse{stencil}"
        self.shift = factor.shift

    def apply(self, r):
        return self.factor.solve(r)


class _BrokenDown(Preconditioner):
    """Zero on every residual: stands in for a build that broke down at
    diagonal shift ``shift``."""

    def __init__(self, variant: str, shift: float):
        self.variant = variant
        self.shift = shift

    def apply(self, r):
        return np.zeros_like(r)


class CirculantPreconditioner(Preconditioner):
    variant = "circulant"

    def __init__(self, payload: np.ndarray, op: OverlayOperator):
        self.op = op
        self.gram_solver = op.transfer.gram_solver
        self._sub = (slice(0, 2 * op.grid.n_fd),) * op.grid.dim
        # the payload is even, so its half spectrum pairs with rfftn
        self._half_payload = np.ascontiguousarray(payload[..., :op.grid.n_fd + 1])

    def circulant_solve(self, w_sub: np.ndarray) -> np.ndarray:
        """Frequency-diagonal solve on the 2*n_fd-per-axis sub-grid."""
        return scipy.fft.irfftn(scipy.fft.rfftn(w_sub) / self._half_payload, s=w_sub.shape)

    def apply(self, r):
        op, transfer = self.op, self.op.transfer
        z = self.gram_solver.solve(r)
        g = np.zeros(op.grid.shape)
        g[transfer.box] = (transfer.matrix @ z).reshape(op.box_plan.grid_shape)
        out = np.zeros(op.grid.shape)
        out[self._sub] = self.circulant_solve(g[self._sub])
        return self.gram_solver.solve(transfer.transpose @ out[transfer.box].ravel())


def _near_field_stencil(kernel: StiffnessKernel, shape) -> scipy.sparse.csr_matrix:
    """Kernel entries at offsets of Chebyshev norm <= 1 on a box of this shape:
    sum over e in {0,1}^dim of T_e times the Kronecker product over the axes
    of the identity (e_a = 0) or the first off-diagonals (e_a = 1)."""
    axes = [(scipy.sparse.identity(n, format="csr"),
             scipy.sparse.diags([1.0, 1.0], [-1, 1], shape=(n, n), format="csr"))
            for n in shape]
    kron = functools.partial(scipy.sparse.kron, format="csr")
    return sum(kernel.at(*e) * functools.reduce(kron, [f[k] for f, k in zip(axes, e)])
               for e in np.ndindex((2,) * len(shape)))


def build_sparse_preconditioner(op: OverlayOperator) -> SparsePreconditioner:
    """Near-field mesh operator I^T A_grid^(near) I (the 3^dim-point pattern)
    factored by modified incomplete Cholesky (drop threshold 1e-3), assembled
    on the transfer's box: no matrix spans more of the grid."""
    near = _near_field_stencil(op.plan.kernel, op.box_plan.grid_shape)
    a_mesh = (op.transfer.transpose @ (near @ op.transfer.matrix)).tocsc()
    factor = mic_factor_with_retry(a_mesh)
    return SparsePreconditioner(factor, 3 ** op.grid.dim)


def circulant_payload(kernel: StiffnessKernel) -> np.ndarray:
    """Real frequency payload of the circulant surrogate: the DFT over 2*n_fd
    points per axis of the kernel wrapped symmetrically (entry k holds T at
    the signed offset k up to n_fd and k - 2*n_fd past it).

    The symbol vanishes at zero frequency, so the raw zero-frequency sample
    can be arbitrarily small; entries below 1e-8 of the maximum magnitude are
    replaced by that floor.  Larger entries keep their sign: for the true
    kernel the payload is positive throughout, while the ball-surrogate
    kernels can carry negative high-frequency samples (those barely intersect
    the range of the mesh transfer, which is what the preconditioner acts on).
    """
    n = kernel.n_fd
    offsets = np.arange(2 * n)
    offsets[n + 1:] -= 2 * n
    wrapped = kernel.at(*np.ix_(*([offsets] * kernel.dim)))
    spectrum = scipy.fft.fftn(wrapped)
    scale = np.max(np.abs(spectrum.real))
    if np.max(np.abs(spectrum.imag)) > 1e-10 * scale:
        raise ArithmeticError("circulant payload is not real after symmetrization")
    floor = 1e-8 * scale
    return np.where(np.abs(spectrum.real) < floor, floor, spectrum.real)


def build_circulant_preconditioner(op: OverlayOperator) -> CirculantPreconditioner:
    return CirculantPreconditioner(circulant_payload(op.plan.kernel), op)


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
    non_finite (p^T A p or r^T M r is NaN or infinite).  The initial residual
    is checked as every later one: a stop there returns x = 0 after 0
    iterations, with an empty history and a true residual of 1.
    """
    check_tolerance(tol)
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
    report.stop_reason = "max_iter"
    # iteration 0 takes no step: it checks the initial residual as each later
    # iteration checks its own
    for iteration in range(max_iter + 1):
        if iteration:
            ap = matvec(p)
            denom = float(p @ ap)
            if not denom > 0.0:
                report.stop_reason = "operator_not_positive" if np.isfinite(denom) else "non_finite"
                break
            alpha = rho / denom
            x += alpha * p
            r -= alpha * ap
            report.iterations = iteration
        z = psolve(r)
        rho_next = float(r @ z)
        if not np.isfinite(rho_next):
            report.stop_reason = "non_finite"
            break
        if rho_next < 0.0 or (rho_next == 0.0 and np.any(r)):
            report.stop_reason = "preconditioner_indefinite"
            break
        if not iteration:
            rho0 = rho_next
        rel = np.sqrt(rho_next / rho0)
        report.residual_history.append(rel)
        if rel <= tol:
            report.converged = True
            report.stop_reason = "converged"
            break
        p = z + (rho_next / rho) * p if iteration else z.copy()
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
    sq = np.sum(x * x, axis=-1)
    coeff = gamma(0.5 * dim) / (2.0 ** (2.0 * s) * gamma(1.0 + s) * gamma(0.5 * dim + s))
    return coeff * np.clip(1.0 - sq, 0.0, None) ** s


def build_kernel(scheme: str, s, dim: int, n_fd: int, m: int | None = None,
                 n_g: int = 64) -> StiffnessKernel:
    """Dispatch a kernel build by scheme name.

    fft: with m=None the aliasing-corrected kernel fft_corrected at its
    default m (2^11 in 1D and 2D, or the smallest power of two >= 16 n_fd if
    larger; 2^8 in 3D, or the smallest even m >= 16 n_fd whose half is
    5-smooth if larger); an explicit m gives the paper's raw trapezoid
    rule fft_uniform at that m.  nufft and modspec: m defaults to
    DEFAULT_M[dim], 2^14 (dim <= 2) or 2^10 (dim 3).
    """
    if scheme == "analytic":
        if dim != 1:
            raise ValueError("the analytic kernel exists in one dimension only")
        return analytic_1d(s, n_fd)
    if scheme == "fft":
        return fft_corrected(s, dim, n_fd) if m is None else fft_uniform(s, dim, n_fd, m)
    if m is None:
        check_dim(dim)
        m = DEFAULT_M[dim]
    if scheme == "nufft":
        return nonuniform(s, dim, n_fd, m)
    if scheme == "spectral":
        return spectral(s, dim, n_fd, n_g)
    if scheme == "modspec":
        return modified_spectral(s, dim, n_fd, m, n_g)
    raise ValueError(f"unknown scheme {scheme!r}")


def setup(mesh: SimplicialMesh, s, scheme: str = "fft", *, n_fd: int | None = None,
          m: int | None = None, n_g: int = 64, r_fd: float = 1.2,
          max_n_fd: int | None = None, kernel: StiffnessKernel | None = None):
    """The operator of one mesh and its setup's wall times (grid, kernel,
    transfer, rank_check).  The grid is n_fd's when given, else choose_grid's
    for the mesh; either way n_fd is capped as in capped_grid (max_n_fd lifts
    the cap) before any kernel is built.  A supplied kernel of another scheme,
    dim, n_fd or order is refused (ValueError) before the transfer is built.
    RuntimeError unless column_rank_check ("auto" mode) finds the transfer's
    columns independent; the message counts the columns with zero sum and
    names the first eight, when there are any."""
    s = order_value(s)
    times = {}
    t0 = time.perf_counter()
    if n_fd is None:
        grid = choose_grid(mesh_quality(mesh), r_fd, max_n_fd=max_n_fd)
    else:
        grid = capped_grid(mesh.dim, r_fd, n_fd, max_n_fd)
    times["grid"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if kernel is None:
        kernel = build_kernel(scheme, s, mesh.dim, grid.n_fd, m, n_g)
    elif kernel.scheme != scheme:
        raise ValueError(f"supplied kernel has scheme {kernel.scheme!r}, not {scheme!r}")
    _check_kernel(kernel, grid, s)
    plan = ToeplitzPlan(kernel)
    times["kernel"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    transfer = build_transfer(mesh, grid)
    times["transfer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if not column_rank_check(transfer):
        empty = np.flatnonzero(transfer.column_sums == 0.0)
        detail = (f" ({empty.size} interior vertex column(s) received no grid node, "
                  f"first few: {empty[:8].tolist()})" if empty.size else "")
        raise RuntimeError(f"rank_check: transfer matrix is rank deficient{detail}; "
                           "refine the overlay grid (a larger n_fd) or the mesh")
    times["rank_check"] = time.perf_counter() - t0
    return OverlayOperator(transfer=transfer, plan=plan, grid=grid, s=s), times


def solve_bvp(mesh: SimplicialMesh, s, scheme: str = "fft", *,
              n_fd: int | None = None, m: int | None = None, n_g: int = 64,
              r_fd: float = 1.2, precond: str = "auto", tol: float = 1e-10,
              max_n_fd: int | None = None, kernel: StiffnessKernel | None = None):
    """setup, then solve(); the report's wall_times list the setup phases,
    then solve()'s.  A tol outside (0, 1) is refused before setup."""
    check_tolerance(tol)
    op, times = setup(mesh, s, scheme, n_fd=n_fd, m=m, n_g=n_g, r_fd=r_fd,
                      max_n_fd=max_n_fd, kernel=kernel)
    u_full, report = solve(op, mesh, precond, tol=tol)
    report.wall_times = {**times, **report.wall_times}
    return u_full, report


def solve(op: OverlayOperator, mesh: SimplicialMesh, precond: str = "auto", *, f=1.0,
          exact=None, tol: float = 1e-10, max_iter: int = 5000):
    """One solve on a built operator: preconditioner, right-hand side, PCG
    and the lumped L2 error against exact, at the order s of op.plan.kernel.
    Without exact the reference is the closed-form unit-ball solution, which
    holds only where is_unit_ball(mesh); elsewhere l2_error is NaN.  No rank
    is checked here: setup() checks each transfer once, before its first solve.
    precond "auto" is circulant, or none for the spectral scheme, and falls
    back to plain CG when the circulant run does not converge.  A numerical
    breakdown is reported, never raised: a MIC factor that breaks down after
    its retry gives CG's first-residual stop (preconditioner_indefinite,
    u = 0).  Returns the nodal solution over all vertices (boundary entries
    zero) and a SolveReport with per-phase timings and precond_shift, the
    diagonal shift of the sparse preconditioner's MIC retry, failed or not
    (0.0 if none, and for the other preconditioners)."""
    s = op.plan.kernel.s
    times = {}
    t0 = time.perf_counter()
    auto = precond == "auto"
    if auto:
        precond = "none" if op.plan.kernel.scheme == "spectral" else "circulant"
    builders = {"none": lambda op: None, "sparse": build_sparse_preconditioner,
                "circulant": build_circulant_preconditioner}
    if precond not in builders:
        raise ValueError(f"unknown preconditioner {precond!r}")
    try:
        preconditioner = builders[precond](op)
    except IncompleteCholeskyError as exc:
        # MIC broke down after its shift retry: CG reports it at the first residual
        preconditioner = _BrokenDown(f"sparse{3 ** op.grid.dim}", exc.shift)
    times["precond"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    b = assemble_rhs(mesh, op.transfer, s, f)
    u_interior, report = cg_solve(op, b, preconditioner, tol=tol, max_iter=max_iter)
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
    if exact is None and is_unit_ball(mesh):
        exact = functools.partial(exact_solution, mesh.dim, s)
    if exact is not None:
        report.l2_error = lumped_l2_error(mesh, u_full, exact)
    times["error"] = time.perf_counter() - t0

    report.wall_times = times
    return u_full, report

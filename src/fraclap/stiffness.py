"""Construction of the dense operator kernel by five schemes.

The kernel holds the Fourier coefficients of the discrete symbol over the
nonnegative offset orthant 0 <= p_j <= 2*n_fd; StiffnessKernel.at reads any
signed offset through the reflection symmetry T_{...,-p,...} = T_{...,p,...}.
Schemes:

  analytic  exact closed form, one dimension only
  fft       trapezoid rule on a uniform frequency grid; the integrand is even
            in every axis, so the sum is a DCT-I on the half grid [0, pi]
            (fft_uniform), optionally less its leading aliasing error, a
            lattice sum of the continuum kernel's tail (fft_corrected)
  nufft     trapezoid rule on nodes quadratically clustered at the origin; the
            nodes are symmetric and the integrand even, so the sum folds onto
            the nonnegative half of the nodes and contracts with cosines
  spectral  radially symmetric surrogate |xi|^{2s} over a volume-matched ball,
            reduced to cumulative one-dimensional Bessel integrals
  modspec   the fft sum of the regularized integrand plus the spectral ball term

The fft, modspec and nufft schemes evaluate their integrand in independent
chunks, and every chunk writes only its own slice, so the coefficients are
bitwise the same for any worker count.  fft and modspec run their chunks on
a thread pool of up to the usable cores, since each chunk's DCT-I is single
threaded; nufft runs them in the calling thread, since each chunk's cosine
contraction is a matrix product that BLAS already threads.  In 3D the
integrand is symmetric in its first two axes bit for bit, so only the
sample lines with xi_1 <= xi_0 are evaluated: about half.

A decay-profile helper fits the tail slope of log|T_p| against log|p|.
Nothing here writes files: the command line formats the CSV dumps.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.special

from .core import (bessel_j_half_order, check_dim, check_n_fd, gamma, gauss_legendre,
                   order_value)

__all__ = [
    "SCHEMES",
    "StiffnessKernel",
    "DecayProfile",
    "analytic_1d",
    "fft_uniform",
    "fft_corrected",
    "nonuniform",
    "spectral",
    "modified_spectral",
    "restrict",
    "decay_profile",
]

SCHEMES = ("analytic", "fft", "nufft", "spectral", "modspec")

# integrand samples evaluated per chunk of the half-grid sums of the fft,
# modspec and nufft schemes (see _chunked_sum)
_DCT_CHUNK_ELEMS = 2 ** 17
# smallest default m of fft_corrected per dimension
_CORRECTED_M_MIN = {1: 2 ** 11, 2: 2 ** 11, 3: 2 ** 8}


@dataclass(frozen=True)
class StiffnessKernel:
    """Kernel coefficients over offsets 0..2*n_fd per axis, tagged with the
    scheme that produced them."""

    dim: int
    s: float
    n_fd: int
    scheme: str
    coeffs: np.ndarray

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        coeffs = np.array(self.coeffs, dtype=float)  # a copy: the caller's stays writable
        expected = (2 * self.n_fd + 1,) * self.dim
        if coeffs.shape != expected:
            raise ValueError(f"coefficient tensor has shape {coeffs.shape}, expected {expected}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("kernel coefficients must be finite")
        if not coeffs.flat[0] > 0.0:
            raise ValueError("the zero-offset kernel entry must be positive")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "s", order_value(self.s))

    @property
    def offsets_per_axis(self) -> int:
        return 2 * self.n_fd + 1

    def at(self, *offsets) -> np.ndarray:
        """T at signed offsets, one broadcastable integer array per axis with
        entries in -2*n_fd..2*n_fd: coeffs[|p_1|, ..., |p_d|], since the
        generator is even (T_{-p} = T_p in every axis)."""
        if len(offsets) != self.dim:
            raise ValueError(f"expected {self.dim} offset arrays, got {len(offsets)}")
        return self.coeffs[tuple(np.abs(p) for p in offsets)]


@dataclass(frozen=True)
class DecayProfile:
    """Offset magnitudes |p| > 0, matching |T_p|, and the least-squares slope
    of log|T_p| against log|p| over the tail |p| >= max|p| / 2."""

    radii: np.ndarray
    magnitudes: np.ndarray
    fitted_slope: float


def analytic_1d(s, n_fd: int) -> StiffnessKernel:
    """Exact one-dimensional kernel.

    The closed form is T_p = (-1)^p Gamma(2s+1) / (Gamma(p+s+1) Gamma(s-p+1)).
    Consecutive entries satisfy T_{p+1} = T_p (p - s)/(p + s + 1), which is how
    the tensor is filled: the product form stays finite for offsets where the
    gamma factors individually overflow.  T_0 > 0 and T_p < 0 for p >= 1.
    """
    s = order_value(s)
    n_fd = check_n_fd(n_fd)
    p_max = 2 * n_fd
    t = np.empty(p_max + 1)
    t[0] = gamma(2.0 * s + 1.0) / gamma(1.0 + s) ** 2
    if p_max >= 1:
        p = np.arange(p_max, dtype=float)
        t[1:] = t[0] * np.cumprod((p - s) / (p + s + 1.0))
    return StiffnessKernel(dim=1, s=s, n_fd=n_fd, scheme="analytic", coeffs=t)


def fft_uniform(s, dim: int, n_fd: int, m: int) -> StiffnessKernel:
    """Trapezoid-rule kernel on the uniform grid xi_j = pi (2j/M - 1),
    j = 0..M-1 per axis.  The symbol is even in every axis, so the sum is
    evaluated as a DCT-I over the half grid 0 <= xi <= pi: with n = M/2 + 1
    for even M, n^d symbol evaluations in 1D and 2D and n^2 (n + 1)/2 in 3D,
    where the symbol is symmetric in two axes (see _chunked_sum), taken in
    bounded chunks on up to the usable cores; the result does not depend on
    the number of workers.

    Requires m >= 2*n_fd + 1.  The attainable accuracy improves with m like
    m^{-(d+2s)} since the rule aliases the exact coefficients.  This is the
    paper's raw scheme; fft_corrected removes the leading aliasing error and
    reaches the same accuracy at a far smaller m.
    """
    s = order_value(s)
    n_fd = check_n_fd(n_fd)
    coeffs = _uniform_fourier(_psi_integrand(s), dim, n_fd, m)
    return StiffnessKernel(dim=dim, s=s, n_fd=n_fd, scheme="fft", coeffs=coeffs)


def fft_corrected(s, dim: int, n_fd: int, m: int | None = None) -> StiffnessKernel:
    """fft_uniform's coefficients at an even m with their leading aliasing
    error removed.

    By Poisson summation the trapezoid sum at even M is the exact coefficient
    plus its aliases, sum_k T_{p+kM}, and far from the diagonal the exact
    coefficients follow the continuum kernel T_q ~ C |q|^{-a}, with a = d + 2s
    and C = 4^s Gamma(d/2 + s) / (pi^{d/2} Gamma(-s)).  So the aliases sum to
    C M^{-a} Z_d(p/M) to leading order, Z_d(x) = sum_{k != 0} |k + x|^{-a}
    (see _alias_lattice_sum), and that is subtracted.

    The default m keeps p/M <= 1/8, which makes the Taylor remainder of Z_d
    negligible: in 1D and 2D the larger of 2^11 and the smallest power of
    two >= 16 n_fd; in 3D the larger of 2^8 and the smallest even m >=
    16 n_fd whose half is a fast DCT length (5-smooth), since a power of two
    there would cost up to 8x the symbol samples for no accuracy (at n_fd =
    72, m = 1152 rather than 2048).  An explicit m must be even (an odd M gives
    the aliases alternating signs) and >= 4 n_fd (p/M <= 1/2; past that the
    nearest alias is a short-range coefficient, not the continuum tail).
    Raises ValueError otherwise; the scheme tag is "fft".
    """
    s = order_value(s)
    n_fd = check_n_fd(n_fd)
    check_dim(dim)
    if m is None and dim == 3:
        m = max(_CORRECTED_M_MIN[dim], 2 * scipy.fft.next_fast_len(8 * n_fd, real=True))
    elif m is None:
        m = max(_CORRECTED_M_MIN[dim], 1 << (16 * n_fd - 1).bit_length())
    elif m % 2 or m < 4 * n_fd:
        raise ValueError(f"the aliasing correction needs an even m >= 4*n_fd = {4 * n_fd}, "
                         f"got {m}")
    a = dim + 2.0 * s
    c = 4.0 ** s * gamma(0.5 * dim + s) / (math.pi ** (0.5 * dim) * gamma(-s))
    raw = _uniform_fourier(_psi_integrand(s), dim, n_fd, m)
    x = np.arange(2 * n_fd + 1) / m
    coeffs = raw - c * float(m) ** -a * _alias_lattice_sum(dim, a, x)
    return StiffnessKernel(dim=dim, s=s, n_fd=n_fd, scheme="fft", coeffs=coeffs)


def nonuniform(s, dim: int, n_fd: int, m: int) -> StiffnessKernel:
    """Trapezoid-rule kernel on nodes clustered quadratically at the origin,
    xi_j = pi (2j/M - 1)^2 sign(2j/M - 1) for j = 0..M, with composite
    trapezoid weights (one-sided half intervals at the two ends).

    The nodes and weights are symmetric, xi_{M-j} = -xi_j and w_{M-j} = w_j,
    and the symbol is even, so the sine parts cancel and the sum folds onto
    the nodes j >= M/2 with doubled weights (the node at 0, for even M, keeps
    its own).  Each axis then contracts with cos(p xi_j) w_j / (2 pi): with
    n = floor(M/2) + 1, that is n^d symbol evaluations in 1D and 2D and
    n^2 (n + 1)/2 in 3D, exact up to rounding at every size, taken in bounded
    chunks in the calling thread (see _chunked_sum): each chunk's contraction
    is a matrix product, which BLAS threads.
    """
    s = order_value(s)
    n_fd = check_n_fd(n_fd)
    check_dim(dim)
    if m < 2 * n_fd + 1:
        raise ValueError(f"m must be at least 2*n_fd + 1 = {2 * n_fd + 1}, got {m}")

    xi, w = _clustered_nodes(m)
    xi = xi[(m + 1) // 2:]
    w = w[(m + 1) // 2:] * np.where(xi > 0.0, 2.0, 1.0)
    k = 2 * n_fd + 1
    factors = np.cos(np.outer(np.arange(k), xi)) * (w / (2.0 * math.pi))

    def contract(x, axis):
        return np.moveaxis(np.tensordot(x, factors, axes=(axis, 1)), -1, axis)

    coeffs = np.ascontiguousarray(_chunked_sum(_psi_integrand(s), xi, dim, k, contract,
                                               pooled=False))
    return StiffnessKernel(dim=dim, s=s, n_fd=n_fd, scheme="nufft", coeffs=coeffs)


def spectral(s, dim: int, n_fd: int, n_g: int = 64) -> StiffnessKernel:
    """Radially symmetric surrogate kernel: the symbol is replaced by
    |xi|^{2s} and the frequency cube by the ball of equal volume, of radius
    R = 2 sqrt(pi) Gamma(d/2 + 1)^{1/d}.

    The zero offset has the closed form
      2 R^{d+2s} / ((d + 2s) 2^d pi^{d/2} Gamma(d/2)),
    and each nonzero offset reduces to the radial integral of
    r^{2s + d/2} J_{d/2-1}(r) from 0 to R|p|, scaled by
    (2 pi)^{-d/2} |p|^{-(2s+d)}.  The distinct offset magnitudes are sorted
    and the integral is accumulated over consecutive intervals with an
    n_g-point Gauss-Legendre rule, so equal radii share one evaluation.
    """
    s = order_value(s)
    n_fd = check_n_fd(n_fd)
    check_dim(dim)
    if n_g < 4:
        raise ValueError(f"n_g must be at least 4, got {n_g}")

    radius = ball_radius(dim)
    k = 2 * n_fd + 1
    uniq, inverse = np.unique(_squared_offsets(dim, k).ravel(), return_inverse=True)
    rho = np.sqrt(uniq.astype(float))

    gl_nodes, gl_weights = gauss_legendre(n_g)
    lo = radius * rho[:-1]
    hi = radius * rho[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * gl_nodes[None, :]
    fvals = nodes ** (2.0 * s + 0.5 * dim) * bessel_j_half_order(dim, nodes)
    segments = half * (fvals @ gl_weights)
    # The integrand behaves like r^{2s + d - 1} at the origin, so the first
    # interval [0, R rho_1] sees an algebraic singularity that a single panel
    # resolves poorly for small s.  Grade it dyadically toward zero; every
    # sub-panel is analytic and the rule converges to rounding there.
    segments[0] = _graded_origin_integral(s, dim, hi[0], gl_nodes, gl_weights)
    cumulative = np.concatenate(([0.0], np.cumsum(segments)))

    values = np.empty(uniq.shape[0])
    values[0] = (2.0 * radius ** (dim + 2.0 * s)
                 / ((dim + 2.0 * s) * 2 ** dim * math.pi ** (0.5 * dim) * gamma(0.5 * dim)))
    values[1:] = cumulative[1:] / ((2.0 * math.pi) ** (0.5 * dim) * rho[1:] ** (2.0 * s + dim))
    coeffs = values[inverse].reshape((k,) * dim)
    return StiffnessKernel(dim=dim, s=s, n_fd=n_fd, scheme="spectral", coeffs=coeffs)


def modified_spectral(s, dim: int, n_fd: int, m: int, n_g: int = 64) -> StiffnessKernel:
    """Sum of the fft scheme applied to the regularized integrand
    psi(xi) - |xi|^{2s} and the spectral ball term.  In one dimension the ball
    is exactly the interval (-pi, pi), so the construction targets the true
    kernel and can be compared against the closed form directly."""
    s = order_value(s)
    reg = _uniform_fourier(_regularized_integrand(s), dim, n_fd, m)
    return StiffnessKernel(dim=dim, s=s, n_fd=n_fd, scheme="modspec",
                           coeffs=reg + spectral(s, dim, n_fd, n_g).coeffs)


def restrict(kernel: StiffnessKernel, n_fd: int) -> StiffnessKernel:
    """Kernel of a smaller grid obtained by slicing.  Entries depend only on
    the offset, never on n_fd, so this equals a fresh build with identical
    scheme parameters, m included.  A fresh fft_corrected build at its
    default m may differ: a smaller n_fd can pick a smaller m."""
    if n_fd > kernel.n_fd:
        raise ValueError(f"cannot restrict n_fd {kernel.n_fd} to larger value {n_fd}")
    n_fd = check_n_fd(n_fd)
    sl = (slice(0, 2 * n_fd + 1),) * kernel.dim
    return StiffnessKernel(dim=kernel.dim, s=kernel.s, n_fd=n_fd,
                           scheme=kernel.scheme, coeffs=kernel.coeffs[sl])


def ball_radius(dim: int) -> float:
    """Radius of the ball whose volume matches the cube (-pi, pi)^dim."""
    return 2.0 * math.sqrt(math.pi) * gamma(0.5 * dim + 1.0) ** (1.0 / dim)


def decay_profile(kernel: StiffnessKernel) -> DecayProfile:
    """Offset magnitudes and |T_p| for every nonzero offset in the stored
    orthant, plus the log-log least-squares slope over the tail
    |p| >= max|p| / 2 (entries with T_p = 0 are excluded from the fit)."""
    if kernel.n_fd < 16:
        raise ValueError("decay profile needs n_fd >= 16 for a meaningful tail")
    ssq = _squared_offsets(kernel.dim, kernel.offsets_per_axis).ravel()
    mags = np.abs(kernel.coeffs.ravel())
    nonzero_offset = ssq > 0
    radii = np.sqrt(ssq[nonzero_offset].astype(float))
    mags = mags[nonzero_offset]
    order_idx = np.argsort(radii, kind="stable")
    radii = radii[order_idx]
    mags = mags[order_idx]

    rmax = radii[-1]
    tail = (radii >= 0.5 * rmax) & (mags > 0.0)
    if np.count_nonzero(tail) < 8:
        raise ValueError("fewer than 8 nonzero tail entries, cannot fit decay slope")
    slope = np.polyfit(np.log(radii[tail]), np.log(mags[tail]), 1)[0]
    return DecayProfile(radii=radii, magnitudes=mags, fitted_slope=float(slope))


def _squared_offsets(dim: int, k: int) -> np.ndarray:
    """|p|^2 as int64 over the orthant 0 <= p_j < k, a tensor of shape (k,) * dim."""
    squares = np.arange(k, dtype=np.int64) ** 2
    total = squares
    for _ in range(dim - 1):
        total = total[..., None] + squares
    return total


# ---------------------------------------------------------------------------
# trapezoid-sum machinery (fft, modspec and nufft)

def _psi_integrand(s):
    def evaluate(axes):
        total = None
        for a in axes:
            q = 4.0 * np.sin(0.5 * a) ** 2
            total = q if total is None else total + q
        total **= s
        return total
    return evaluate


def _regularized_integrand(s):
    psi = _psi_integrand(s)

    def evaluate(axes):
        out = psi(axes)
        out -= sum(a * a for a in axes) ** s
        return out
    return evaluate


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        return os.cpu_count() or 1


def _for_each_chunk(run, n: int, step: int, pooled: bool):
    """Call run(i0) for i0 = 0, step, 2 step, ... below n.  When pooled, on a
    thread pool of min(usable cores, chunk count) workers created for this
    call; otherwise, or with one worker, the loop runs in the calling thread.
    Each call must write only its own slice of the output, so the result is
    the same for any worker count."""
    starts = range(0, n, step)
    workers = min(_usable_cores(), len(starts)) if pooled else 1
    if workers <= 1:
        for i0 in starts:
            run(i0)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(run, starts):     # re-raises a chunk's exception
            pass


def _uniform_fourier(integrand, dim: int, n_fd: int, m: int) -> np.ndarray:
    """Coefficients C_p = (-1)^{sum p} / M^d  sum_j g(xi_j) exp(2 pi i p.j / M)
    over the nonnegative orthant p in [0, 2 n_fd]^d, for g sampled on the
    uniform grid xi_j = pi (2j/M - 1), j = 0..M-1 per axis.

    Since exp(2 pi i p j / M) = (-1)^p exp(i p xi_j), the signs cancel and C_p
    is the sum of g(xi_j) exp(i p.xi_j) / M^d.  The grid is symmetric about
    the origin apart from xi = -pi, where the sine vanishes, so for g even in
    every axis the sum is real and folds onto the half grid xi = pi tau / M,
    0 <= tau <= M with tau of the parity of M: a DCT-I per axis, of length
    M/2 + 1 over t = tau/2 for even M and of length M + 1 with zeros at even
    tau for odd M.  Outputs past the end of a short transform fold back,
    C_p = C_{M-p} for even M.  Each transform is cut to the 2 n_fd + 1 kept
    outputs, and g is evaluated in chunks by _chunked_sum, so the result does
    not depend on the number of workers.  Raises ArithmeticError if g is not
    even.
    """
    check_dim(dim)
    k = 2 * n_fd + 1
    if m < k:
        raise ValueError(f"m must be at least 2*n_fd + 1 = {k}, got {m}")
    _check_even(integrand, dim, m)

    if m % 2 == 0:
        length = m // 2 + 1
        tau = 2 * np.arange(length)
    else:
        length = m + 1
        tau = np.arange(1, m + 1, 2)
    xi = np.pi * tau / m
    p = np.arange(k)
    keep = np.minimum(p, 2 * (length - 1) - p)

    def transform(x, axis):
        if x.shape[axis] != length:        # odd m: place the odd-tau samples
            full = np.zeros(x.shape[:axis] + (length,) + x.shape[axis + 1:])
            full[(slice(None),) * axis + (tau,)] = x
            x = full
        x = scipy.fft.dct(x, type=1, axis=axis, overwrite_x=True)  # x is a temporary
        return np.take(x, keep, axis=axis)

    return _chunked_sum(integrand, xi, dim, k, transform, pooled=True) / float(m) ** dim


def _chunked_sum(integrand, xi, dim: int, k: int, transform, *, pooled: bool) -> np.ndarray:
    """transform(..., axis 0) of ... transform(..., axis d-1) of g sampled on
    the tensor grid xi^d, where transform(x, axis) maps that axis of x from
    len(xi) samples to k outputs.  g is evaluated in chunks of about
    _DCT_CHUNK_ELEMS samples along axis 0, run on up to the usable cores when
    pooled (a single-threaded transform gains from the pool) and in the
    calling thread otherwise (a transform that threads itself does not); in
    each chunk the other axes are transformed one at a time, last axis first,
    and axis 0 is transformed last, serially.  The chunks write disjoint rows,
    so the result does not depend on the number of workers.

    In 3D only the lines i1 <= i0 are evaluated (see _triangle_sum), about
    half of the len(xi)^3 samples."""
    if dim == 3:
        return _triangle_sum(integrand, xi, k, transform, pooled)
    axes = [xi.reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i in range(dim)]
    step = max(1, _DCT_CHUNK_ELEMS // xi.size ** (dim - 1))
    partial = np.empty((xi.size,) + (k,) * (dim - 1))

    def run_chunk(i0):
        block = integrand((axes[0][i0:i0 + step], *axes[1:]))
        for axis in range(dim - 1, 0, -1):
            block = transform(block, axis)
        partial[i0:i0 + step] = block

    _for_each_chunk(run_chunk, xi.size, step, pooled)
    return transform(partial, 0)


def _triangle_sum(integrand, xi, k: int, transform, pooled: bool) -> np.ndarray:
    """_chunked_sum in 3D from the lines (i0, i1) with i1 <= i0.

    Both integrands add their per-axis terms left to right, and a + b == b + a
    in floating point, so g(xi_a, xi_b, xi_c) == g(xi_b, xi_a, xi_c) bit for
    bit and the last-axis transform F[i0, i1, :] is symmetric in (i0, i1).
    With F' = F below the diagonal, F/2 on it and 0 above it, F = F' + F'^T
    over the first two axes, and the transforms along axes 0 and 1 are the
    same map, so the sum is M + swapaxes(M, 0, 1) with M the two-stage
    transform of F'.  Only n (n + 1) / 2 of the n^2 lines are evaluated and
    transformed along the last axis; axis 1 is transformed on the zero-padded
    (n, k) rows.

    Row j holds j + 1 lines, so rows j and n - 1 - j together hold n + 1:
    chunks take whole pairs of that order, as many as fit in
    _DCT_CHUNK_ELEMS samples, or one row each when a pair does not fit.
    Each chunk writes only its own rows of the partial sum."""
    n = xi.size
    order = np.empty(n, dtype=np.intp)      # 0, n-1, 1, n-2, ...
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    pairs = _DCT_CHUNK_ELEMS // (n * (n + 1))
    step = 2 * pairs if pairs else 1
    partial = np.empty((n, k, k))

    def run_chunk(c0):
        rows = order[c0:c0 + step]
        counts = rows + 1
        ends = np.cumsum(counts)
        row_of_line = np.repeat(np.arange(rows.size), counts)
        i0 = rows[row_of_line]
        i1 = np.arange(ends[-1]) - (ends - counts)[row_of_line]
        block = integrand((xi[i0, None], xi[i1, None], xi[None, :]))
        block = transform(block, 1)
        block[ends - 1] *= 0.5              # the diagonal lines i1 == i0
        padded = np.zeros((rows.size, n, k))
        padded[row_of_line, i1] = block
        partial[rows] = transform(padded, 1)

    _for_each_chunk(run_chunk, n, step, pooled)
    half = transform(partial, 0)
    del partial                             # freed before the sum allocates
    return half + half.swapaxes(0, 1)


def _check_even(integrand, dim: int, m: int):
    """Raise ArithmeticError unless g matches itself with each axis negated,
    to 1e-10 of its scale, on a subgrid of up to 32 grid points per axis."""
    j = np.unique(np.linspace(0, m - 1, 32).round())
    xi = np.pi * (2.0 * j / m - 1.0)
    axes = [xi.reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i in range(dim)]
    g = integrand(tuple(axes))
    scale = np.max(np.abs(g))
    odd = max(np.max(np.abs(integrand(tuple(axes[:i] + [-axes[i]] + axes[i + 1:])) - g))
              for i in range(dim))
    if not odd <= 1e-10 * max(scale, np.finfo(float).tiny):
        raise ArithmeticError(
            f"integrand is not even: odd part {odd:.3e} exceeds 1e-10 of its scale {scale:.3e}")


# ---------------------------------------------------------------------------
# lattice sums of the fft aliasing correction

def _alias_lattice_sum(dim: int, a: float, x: np.ndarray) -> np.ndarray:
    """Z_d(x) = sum of |k + x|^{-a} over k in Z^d, k != 0, at the points
    (x[p_1], ..., x[p_d]) for 0 <= x <= 1/2, as a tensor over p.

    In 1D it is the Hurwitz sum zeta(a, 1 + x) + zeta(a, 1 - x).  In 2D and
    3D the images with |k|_inf <= 1 are summed exactly.  The rest is smooth
    near x = 0: its gradient there vanishes by symmetry, and by cubic
    symmetry its Hessian is a (a + 2 - d) / d R(a + 2) times the identity,
    with R(t) the sum of |k|^{-t} over |k|_inf >= 2.  So the rest is taken as
    R(a) + a (a + 2 - d) / (2d) R(a + 2) |x|^2, which leaves O(|x|^4).
    """
    if dim == 1:
        return scipy.special.zeta(a, 1.0 + x) + scipy.special.zeta(a, 1.0 - x)
    axes = [x.reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i in range(dim)]
    near = sum(sum((kj + ax) ** 2 for kj, ax in zip(k, axes)) ** (-0.5 * a)
               for k in itertools.product((-1, 0, 1), repeat=dim) if any(k))
    curvature = 0.5 * a * (a + 2.0 - dim) / dim * _far_lattice_sum(dim, a + 2.0)
    return near + _far_lattice_sum(dim, a) + curvature * sum(ax * ax for ax in axes)


def _far_lattice_sum(dim: int, t: float) -> float:
    """R(t): the sum of |k|^{-t} over k in Z^d with |k|_inf >= 2 (dims 2, 3),
    the full lattice sum less the 3^d - 1 points with coordinates in
    {-1, 0, 1}, of which C(d, j) 2^j have j nonzero coordinates."""
    shell = sum(math.comb(dim, j) * 2 ** j * j ** (-0.5 * t) for j in range(1, dim + 1))
    return _lattice_sum(dim, t) - shell


def _lattice_sum(dim: int, t: float) -> float:
    """Sum of |k|^{-t} over k in Z^d, k != 0, for dims 2 and 3 and t > d.

    2D: 4 zeta(t/2) beta(t/2), with the Dirichlet beta function
    beta(u) = 4^{-u} (zeta(u, 1/4) - zeta(u, 3/4)).  3D: Ewald splitting of
    the Epstein zeta function at its self-dual point.  With nu = t/2 and
    x_k = pi |k|^2,
      pi^{-nu} Gamma(nu) Z = sum'_k [x_k^{-nu} Gamma(nu, x_k)
                                     + x_k^{nu - 3/2} Gamma(3/2 - nu, x_k)]
                             + 1/(nu - 3/2) - 1/nu,
    where both terms decay like exp(-x_k): the cube |k|_inf <= 5 leaves out
    nothing above exp(-36 pi).
    """
    nu = 0.5 * t
    if dim == 2:
        beta = 4.0 ** -nu * (scipy.special.zeta(nu, 0.25) - scipy.special.zeta(nu, 0.75))
        return float(4.0 * scipy.special.zeta(nu) * beta)
    k = np.arange(-5, 6) ** 2
    xk = math.pi * (k[:, None, None] + k[None, :, None] + k[None, None, :]).ravel()
    xk = xk[xk > 0]
    terms = xk ** -nu * _upper_gamma(nu, xk) + xk ** (nu - 1.5) * _upper_gamma(1.5 - nu, xk)
    return float((np.sum(terms) + 1.0 / (nu - 1.5) - 1.0 / nu) * math.pi ** nu / gamma(nu))


def _upper_gamma(b: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma function Gamma(b, x) for x > 0 and b not a
    nonpositive integer; b <= 0 by Gamma(b, x) = (Gamma(b + 1, x) - x^b e^{-x}) / b."""
    if b > 0.0:
        return scipy.special.gammaincc(b, x) * gamma(b)
    return (_upper_gamma(b + 1.0, x) - x ** b * np.exp(-x)) / b


# ---------------------------------------------------------------------------
# clustered-node machinery for the nufft scheme

def _clustered_nodes(m: int):
    t = 2.0 * np.arange(m + 1) / m - 1.0
    xi = np.pi * t * t * np.sign(t)
    w = np.empty(m + 1)
    w[1:-1] = 0.5 * (xi[2:] - xi[:-2])
    w[0] = 0.5 * (xi[1] - xi[0])
    w[-1] = 0.5 * (xi[-1] - xi[-2])
    return xi, w


def _graded_origin_integral(s, dim, upper, gl_nodes, gl_weights):
    """Integral of r^{2s + d/2} J_{d/2-1}(r) over [0, upper] with dyadic
    grading toward the singular endpoint, by the Gauss-Legendre rule mapped
    to each panel."""
    exponent = 2.0 * s + dim - 1.0  # local behavior r^exponent near 0
    edges = upper * 2.0 ** (-np.arange(1, 54, dtype=float))
    total = 0.0
    hi = upper
    for lo in edges:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid + half * gl_nodes
        total += (half * gl_weights) @ (nodes ** (2.0 * s + 0.5 * dim)
                                        * bessel_j_half_order(dim, nodes))
        hi = lo
    # closed leading-order contribution of the last sliver [0, hi]
    lead = hi ** (exponent + 1.0) / ((exponent + 1.0) * 2.0 ** (0.5 * dim - 1.0) * gamma(0.5 * dim))
    return total + lead

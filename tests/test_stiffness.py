import math
import os
import sys
import threading

import numpy as np
import pytest
import scipy.fft

from fraclap import stiffness
from fraclap.core import gauss_legendre
from fraclap.solver import build_kernel
from fraclap.stiffness import (DecayProfile, StiffnessKernel, analytic_1d, ball_radius,
                               decay_profile, fft_corrected, fft_uniform, modified_spectral,
                               nonuniform, restrict, spectral, _lattice_sum, _psi_integrand,
                               _regularized_integrand, _uniform_fourier)

# max-norm errors of the 1D kernels against the closed form, N_FD = 81
FFT_ERRORS_1D = {
    (0.1, 2 ** 10): 2.477e-04, (0.25, 2 ** 10): 3.247e-05, (0.5, 2 ** 10): 1.050e-06,
    (0.75, 2 ** 10): 2.609e-08, (0.9, 2 ** 10): 1.713e-09,
    (0.1, 2 ** 14): 8.812e-06, (0.25, 2 ** 14): 4.970e-07, (0.5, 2 ** 14): 3.902e-09,
    (0.75, 2 ** 14): 2.337e-11, (0.9, 2 ** 14): 6.516e-13,
}
NUFFT_ERRORS_1D = {
    (0.1, 2 ** 10): 1.486e-06, (0.25, 2 ** 10): 1.798e-06, (0.5, 2 ** 10): 2.543e-06,
    (0.75, 2 ** 10): 3.597e-06, (0.9, 2 ** 10): 4.428e-06,
    (0.1, 2 ** 14): 5.735e-09, (0.9, 2 ** 14): 1.730e-08,
}
MODSPEC_ERRORS_1D = {
    (0.1, 2 ** 10): 7.550e-07, (0.25, 2 ** 10): 2.962e-07, (0.5, 2 ** 10): 1.050e-06,
    (0.75, 2 ** 10): 2.792e-06, (0.9, 2 ** 10): 4.723e-06,
    (0.1, 2 ** 14): 7.387e-08, (0.25, 2 ** 14): 2.457e-09, (0.5, 2 ** 14): 3.902e-09,
    (0.75, 2 ** 14): 1.037e-08, (0.9, 2 ** 14): 1.755e-08,
}


def max_error_vs_analytic(kernel):
    reference = analytic_1d(kernel.s, kernel.n_fd)
    return float(np.max(np.abs(kernel.coeffs - reference.coeffs)))


def interval_integral_dyadic(f, a, b, order=40, levels=60):
    """Graded quadrature oracle that resolves an algebraic singularity at a."""
    nodes, weights = gauss_legendre(order)
    total = 0.0
    hi = b
    for k in range(1, levels + 1):
        lo = a + (b - a) * 2.0 ** (-k)
        half = 0.5 * (hi - lo)
        total += (half * weights) @ f(0.5 * (lo + hi) + half * nodes)
        hi = lo
    return total


class TestAnalytic1d:
    def test_zero_offset_closed_form(self):
        k = analytic_1d(0.5, 4)
        assert k.coeffs[0] == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_first_offset_closed_form(self):
        # gamma(2) / (gamma(2.5) gamma(0.5)) = 4 / (3 pi)
        k = analytic_1d(0.5, 4)
        assert k.coeffs[1] == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-14)
        assert k.coeffs[2] == pytest.approx(-4.0 / (15.0 * math.pi), rel=1e-13)

    def test_fourier_coefficient_oracle(self):
        # the entries are the Fourier coefficients of (4 sin^2(xi/2))^s
        s = 0.35
        k = analytic_1d(s, 3)
        xi = np.linspace(-np.pi, np.pi, 400001)
        psi = (4.0 * np.sin(0.5 * xi) ** 2) ** s
        for p in range(4):
            oracle = np.trapezoid(psi * np.cos(p * xi), xi) / (2.0 * np.pi)
            assert k.coeffs[p] == pytest.approx(oracle, abs=5e-10)

    def test_sign_pattern(self):
        k = analytic_1d(0.3, 50)
        assert k.coeffs[0] > 0
        assert np.all(k.coeffs[1:] < 0)

    def test_large_offsets_stay_finite(self):
        k = analytic_1d(0.7, 3000)
        assert np.all(np.isfinite(k.coeffs))

    def test_decay_slope(self):
        profile = decay_profile(analytic_1d(0.25, 81))
        assert profile.fitted_slope == pytest.approx(-1.5, abs=0.1)


class TestFftUniform:
    @pytest.mark.parametrize("s,m,factor", [(0.5, 2 ** 10, 2.0), (0.75, 2 ** 14, 3.0)])
    def test_reference_errors(self, s, m, factor):
        err = max_error_vs_analytic(fft_uniform(s, 1, 81, m))
        assert err <= factor * FFT_ERRORS_1D[(s, m)]

    def test_2d_direct_double_sum_oracle(self):
        s, n_fd, m = 0.5, 4, 64
        kernel = fft_uniform(s, 2, n_fd, m)
        xi = np.pi * (2.0 * np.arange(m) / m - 1.0)
        psi = (4 * np.sin(xi / 2) ** 2)[:, None] + (4 * np.sin(xi / 2) ** 2)[None, :]
        psi = psi ** s
        for p in (0, 1, 4):
            for q in (0, 3, 8):
                phases = np.exp(2j * np.pi * (p * np.arange(m)[:, None]
                                              + q * np.arange(m)[None, :]) / m)
                oracle = ((-1.0) ** (p + q) / m ** 2) * np.sum(psi * phases)
                assert abs(oracle.imag) < 1e-12
                assert kernel.coeffs[p, q] == pytest.approx(oracle.real, abs=1e-12)

    def test_error_monotone_in_m(self):
        errors = [max_error_vs_analytic(fft_uniform(0.5, 1, 81, 2 ** e))
                  for e in range(8, 15)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            fft_uniform(0.5, 1, 81, 162)


def richardson_reference(s, dim, n_fd, m):
    """Exact coefficients estimated from the raw trapezoid sums at m and 2m
    alone: their error is C M^{-(d+2s)} Z_d(0) to leading order, so
    (2^a T_2m - T_m) / (2^a - 1), a = d + 2s, cancels it without using the
    correction formula.  Also returns the raw sum at 2m."""
    a = dim + 2.0 * s
    coarse = fft_uniform(s, dim, n_fd, m).coeffs
    fine = fft_uniform(s, dim, n_fd, 2 * m).coeffs
    return (2.0 ** a * fine - coarse) / (2.0 ** a - 1.0), fine


def sphere_lattice_sum(dim, t, radius):
    """Sum of |k|^{-t} over 0 < |k| <= radius in Z^dim plus the integral of
    |x|^{-t} outside the sphere, |S^{d-1}| radius^{d-t} / (t - d)."""
    k = np.arange(-radius, radius + 1) ** 2
    sq = k
    for _ in range(dim - 1):
        sq = sq[..., None] + k
    sq = sq[(sq > 0) & (sq <= radius ** 2)].astype(float)
    sphere = 2.0 * math.pi if dim == 2 else 4.0 * math.pi
    return np.sum(sq ** (-0.5 * t)) + sphere * radius ** (dim - t) / (t - dim)


class TestFftCorrected:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("m", [2 ** 10, 2 ** 11, 2 ** 13, None])
    def test_1d_against_analytic(self, s, m):
        # the raw rule at 2^14 is up to 8.8e-6 off (FFT_ERRORS_1D)
        assert max_error_vs_analytic(fft_corrected(s, 1, 81, m)) <= 2e-12

    def test_2d_against_richardson(self):
        reference, raw = richardson_reference(0.5, 2, 48, 2 ** 13)
        # the raw 2^14 kernel is off by a near-uniform 3.3e-13
        assert np.max(np.abs(raw - reference)) > 1e-13
        assert np.max(np.abs(fft_corrected(0.5, 2, 48).coeffs - reference)) <= 2e-15

    def test_3d_against_richardson(self):
        reference, raw = richardson_reference(0.5, 3, 4, 2 ** 8)
        assert np.max(np.abs(raw - reference)) > 1e-11
        assert np.max(np.abs(fft_corrected(0.5, 3, 4).coeffs - reference)) <= 2e-13

    @pytest.mark.parametrize("s,tol", [(0.5, 2.5e-14), (0.1, 2e-13)])
    def test_3d_default_matches_doubled_m(self, s, tol):
        coarse = fft_corrected(s, 3, 14).coeffs
        fine = fft_corrected(s, 3, 14, 2 ** 9).coeffs
        assert np.max(np.abs(coarse - fine)) <= tol

    @pytest.mark.parametrize("dim,t", [(2, 2.2), (2, 3.0), (2, 5.0), (3, 3.2), (3, 4.0),
                                       (3, 6.0)])
    def test_lattice_sum_against_sphere_sum(self, dim, t):
        radius = 200 if dim == 2 else 60
        assert _lattice_sum(dim, t) == pytest.approx(sphere_lattice_sum(dim, t, radius),
                                                     rel=1e-4)

    def test_ewald_known_value(self):
        assert _lattice_sum(3, 4.0) == pytest.approx(16.5323159598, rel=1e-11)

    @pytest.mark.parametrize("dim,n_fd,m", [(1, 1, 2 ** 11), (1, 81, 2 ** 11), (1, 128, 2 ** 11),
                                            (1, 129, 2 ** 12), (2, 48, 2 ** 11),
                                            (2, 133, 2 ** 12), (3, 1, 2 ** 8), (3, 16, 2 ** 8),
                                            (3, 17, 288), (3, 27, 432)])
    def test_default_m(self, monkeypatch, dim, n_fd, m):
        # 1D, 2D: max(2^11, the smallest power of two >= 16 n_fd); 3D:
        # max(2^8, the smallest even m >= 16 n_fd with a 5-smooth half)
        seen = []

        def record(integrand, dim_, n_fd_, m_):
            seen.append(m_)
            raise InterruptedError

        monkeypatch.setattr(stiffness, "_uniform_fourier", record)
        with pytest.raises(InterruptedError):
            fft_corrected(0.5, dim, n_fd)
        assert seen == [m]

    def test_build_kernel_dispatch(self):
        corrected = fft_corrected(0.3, 2, 6)
        assert corrected.scheme == "fft"
        assert np.array_equal(build_kernel("fft", 0.3, 2, 6).coeffs, corrected.coeffs)
        assert np.array_equal(build_kernel("fft", 0.3, 2, 6, 256).coeffs,
                              fft_uniform(0.3, 2, 6, 256).coeffs)

    def test_rejects_bad_m_and_dim(self):
        with pytest.raises(ValueError, match="even m"):
            fft_corrected(0.5, 2, 4, 65)
        with pytest.raises(ValueError, match="even m"):
            fft_corrected(0.5, 2, 4, 14)
        with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
            fft_corrected(0.5, 4, 4)


class TestSchemeErrors2d:
    """Max-norm 2D kernel errors of every scheme at n_fd = 16 against the
    corrected kernel at its default m (2^11; it moves by under 4e-16 at 2^13).
    The ball-surrogate schemes miss the corners of the frequency cube, so in
    2D their error does not fall with m."""

    ERRORS = {
        0.25: {"fft256": 1.231e-06, "fft1024": 3.784e-08, "nufft256": 5.321e-05,
               "modspec256": 2.496e-01, "spectral": 2.639e-01},
        0.5: {"fft256": 8.907e-08, "fft1024": 1.342e-09, "nufft256": 7.497e-05,
              "modspec256": 4.753e-01, "spectral": 5.073e-01},
        0.75: {"fft256": 4.764e-09, "fft1024": 3.507e-11, "nufft256": 1.093e-04,
               "modspec256": 9.069e-01, "spectral": 1.067e+00},
    }

    @pytest.mark.parametrize("s", sorted(ERRORS))
    def test_pinned_errors(self, s):
        reference = fft_corrected(s, 2, 16).coeffs
        kernels = {"fft256": fft_uniform(s, 2, 16, 256), "fft1024": fft_uniform(s, 2, 16, 1024),
                   "nufft256": nonuniform(s, 2, 16, 256),
                   "modspec256": modified_spectral(s, 2, 16, 256),
                   "spectral": spectral(s, 2, 16, 64)}
        errors = {name: float(np.max(np.abs(k.coeffs - reference)))
                  for name, k in kernels.items()}
        assert errors == pytest.approx(self.ERRORS[s], rel=0.01)


class TestSchemeErrors3d:
    """Max-norm 3D kernel errors of every scheme at n_fd = 4 against the
    corrected kernel at its default m (2^8)."""

    ERRORS = {
        0.25: {"fft32": 7.964e-06, "fft128": 5.857e-08, "nufft32": 3.787e-03,
               "nufft128": 2.455e-04, "modspec32": 2.233e-01, "spectral": 1.931e-01},
        0.5: {"fft32": 1.835e-06, "fft128": 6.314e-09, "nufft32": 5.849e-03,
              "nufft128": 3.821e-04, "modspec32": 4.588e-01, "spectral": 5.357e-01},
        0.75: {"fft32": 3.095e-07, "fft128": 4.959e-10, "nufft32": 9.390e-03,
               "nufft128": 6.058e-04, "modspec32": 9.451e-01, "spectral": 1.365e+00},
    }

    @pytest.mark.parametrize("s", sorted(ERRORS))
    def test_pinned_errors(self, s):
        reference = fft_corrected(s, 3, 4).coeffs
        kernels = {"fft32": fft_uniform(s, 3, 4, 32), "fft128": fft_uniform(s, 3, 4, 128),
                   "nufft32": nonuniform(s, 3, 4, 32), "nufft128": nonuniform(s, 3, 4, 128),
                   "modspec32": modified_spectral(s, 3, 4, 32),
                   "spectral": spectral(s, 3, 4, 64)}
        errors = {name: float(np.max(np.abs(k.coeffs - reference)))
                  for name, k in kernels.items()}
        assert errors == pytest.approx(self.ERRORS[s], rel=0.01)


def reference_uniform_fourier(integrand, dim, n_fd, m):
    """The complex-FFT trapezoid sum over the full grid xi_j = pi (2j/M - 1),
    with its imaginary-residue check: the formulation the half-grid DCT-I
    replaces."""
    k = 2 * n_fd + 1
    xi = np.pi * (2.0 * np.arange(m) / m - 1.0)
    axes = tuple(xi.reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i in range(dim))
    c = scipy.fft.ifftn(np.broadcast_to(integrand(axes), (m,) * dim))[(slice(0, k),) * dim]
    assert np.max(np.abs(c.imag)) <= 1e-10 * np.max(np.abs(c.real))
    signs = 1.0 - 2.0 * (np.arange(k) % 2)
    out = c.real
    for axis in range(dim):
        out = out * signs.reshape((1,) * axis + (-1,) + (1,) * (dim - 1 - axis))
    return out


class TestUniformFourier:
    # per dim: m >= 4 n_fd even, even m in [2 n_fd + 1, 4 n_fd) (outputs fold
    # to M - p), odd m, and m = 2 n_fd + 1
    CASES = [(1, 5, m) for m in (64, 1000, 12, 16, 11, 13, 65)] \
        + [(2, 4, m) for m in (16, 34, 10, 12, 9, 15, 33)] \
        + [(3, 3, m) for m in (12, 24, 8, 10, 7, 9, 17)]

    @pytest.mark.parametrize("dim,n_fd,m", CASES)
    @pytest.mark.parametrize("make", [_psi_integrand, _regularized_integrand])
    def test_matches_complex_fft(self, dim, n_fd, m, make):
        for s in (0.3, 0.75):
            expected = reference_uniform_fourier(make(s), dim, n_fd, m)
            got = _uniform_fourier(make(s), dim, n_fd, m)
            assert got.shape == (2 * n_fd + 1,) * dim
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    # budgets that give several chunks along axis 0, none dividing the
    # number of half-grid rows (51, 33, 13 and, for odd m = 17, 9)
    @pytest.mark.parametrize("dim,n_fd,m,budget", [(1, 5, 100, 7), (2, 4, 64, 4 * 33),
                                                   (3, 3, 24, 3 * 13 ** 2),
                                                   (3, 3, 17, 2 * 9 ** 2)])
    def test_chunked_matches_complex_fft(self, monkeypatch, dim, n_fd, m, budget):
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)
        for make in (_psi_integrand, _regularized_integrand):
            expected = reference_uniform_fourier(make(0.45), dim, n_fd, m)
            got = _uniform_fourier(make(0.45), dim, n_fd, m)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rejects_integrand_that_is_not_even(self, dim):
        psi = _psi_integrand(0.5)

        def lopsided(axes):
            return psi(axes) + 1e-3 * np.sin(axes[-1])

        with pytest.raises(ArithmeticError):
            _uniform_fourier(lopsided, dim, 3, 16)

    def test_rejects_bad_dim_and_m(self):
        with pytest.raises(ValueError):
            _uniform_fourier(_psi_integrand(0.5), 4, 3, 16)
        with pytest.raises(ValueError):
            _uniform_fourier(_psi_integrand(0.5), 2, 3, 6)


def reference_chunked_sum(integrand, xi, dim, k, transform, *, pooled):
    """The chunk loop over every line of the tensor grid, run serially
    whatever ``pooled`` says: the formulation that the 3D triangle sum
    replaces."""
    axes = [xi.reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i in range(dim)]
    step = max(1, stiffness._DCT_CHUNK_ELEMS // xi.size ** (dim - 1))
    partial = np.empty((xi.size,) + (k,) * (dim - 1))
    for i0 in range(0, xi.size, step):
        block = integrand((axes[0][i0:i0 + step], *axes[1:]))
        for axis in range(dim - 1, 0, -1):
            block = transform(block, axis)
        partial[i0:i0 + step] = block
    return transform(partial, 0)


# the four trapezoid-sum builds in 3D, by name, as (s, n_fd, m) -> kernel
TRAPEZOID_3D = {
    "fft": lambda s, n_fd, m: fft_uniform(s, 3, n_fd, m),
    "fft_corrected": lambda s, n_fd, m: fft_corrected(s, 3, n_fd, m),
    "modspec": lambda s, n_fd, m: modified_spectral(s, 3, n_fd, m, 16),
    "nufft": lambda s, n_fd, m: nonuniform(s, 3, n_fd, m),
}


class TestTriangleSum:
    # n = m // 2 + 1 sample lines per axis for every scheme: m = 0 (mod 4)
    # gives odd n, m = 2 (mod 4) even n, and odd m = 17, 19 odd and even n;
    # when n is odd the middle row pairs with itself
    CASES = [(name, m) for name in TRAPEZOID_3D for m in (24, 26, 17, 19)
             if name != "fft_corrected" or m % 2 == 0]

    @staticmethod
    def budget(m, pairs):
        """_DCT_CHUNK_ELEMS for chunks of `pairs` row pairs; 0 leaves each
        pair too large for a chunk, so every row is a chunk of its own."""
        n = m // 2 + 1
        return pairs * n * (n + 1) if pairs else n * (n + 1) - 1

    @pytest.mark.parametrize("name,m", CASES)
    @pytest.mark.parametrize("pairs", [None, 0, 1, 3])
    def test_matches_every_line_reference(self, monkeypatch, name, m, pairs):
        if pairs is not None:
            monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", self.budget(m, pairs))
        build = TRAPEZOID_3D[name]
        for s in (0.3, 0.75):
            got = build(s, 3, m).coeffs
            with monkeypatch.context() as patch:
                patch.setattr(stiffness, "_chunked_sum", reference_chunked_sum)
                expected = build(s, 3, m).coeffs
            assert got.shape == (7, 7, 7)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    # fft_corrected subtracts a lattice sum that is symmetric only to rounding
    @pytest.mark.parametrize("name,m", [c for c in CASES if c[0] != "fft_corrected"])
    @pytest.mark.parametrize("pairs", [None, 0])
    def test_exactly_symmetric_in_the_first_two_axes(self, monkeypatch, name, m, pairs):
        if pairs is not None:
            monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", self.budget(m, pairs))
        coeffs = TRAPEZOID_3D[name](0.45, 3, m).coeffs
        assert coeffs.tobytes() == coeffs.swapaxes(0, 1).tobytes()

    @pytest.mark.parametrize("n", [9, 10, 13, 14])
    @pytest.mark.parametrize("pairs", [0, 1, 3])
    @pytest.mark.parametrize("make", [_psi_integrand, _regularized_integrand])
    def test_chunks_cover_the_triangle_within_the_budget(self, monkeypatch, n, pairs, make):
        # with identity transforms the sum is F' + F'^T = F itself, so each
        # line i1 <= i0 must be evaluated once and the diagonal halved once,
        # and the integrand must be symmetric in its first two axes bit for
        # bit; a chunk holds whole pairs within the budget, or one row
        budget = self.budget(2 * (n - 1), pairs)
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)
        psi = make(0.4)
        xi = np.linspace(0.0, np.pi, n)
        lines = []

        def integrand(axes):
            i0, i1 = (np.searchsorted(xi, a.ravel()) for a in axes[:2])
            lines.append(list(zip(i0.tolist(), i1.tolist())))
            return psi(axes)

        got = stiffness._chunked_sum(integrand, xi, 3, n, lambda x, axis: x, pooled=False)
        expected = psi((xi[:, None, None], xi[None, :, None], xi[None, None, :]))
        assert got.tobytes() == expected.tobytes()
        flat = sorted(line for chunk in lines for line in chunk)
        assert flat == [(i0, i1) for i0 in range(n) for i1 in range(i0 + 1)]
        assert max(len(chunk) for chunk in lines) * n <= max(budget, n * n)

    @pytest.mark.parametrize("n_fd,m", [(14, 512), (7, 62)])
    @pytest.mark.parametrize("name", sorted(TRAPEZOID_3D))
    def test_benchmark_sizes_match_every_line_reference(self, monkeypatch, name, n_fd, m):
        got = TRAPEZOID_3D[name](0.5, n_fd, m).coeffs
        monkeypatch.setattr(stiffness, "_chunked_sum", reference_chunked_sum)
        expected = TRAPEZOID_3D[name](0.5, n_fd, m).coeffs
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestNonuniform:
    @pytest.mark.parametrize("s,m", sorted(NUFFT_ERRORS_1D))
    def test_reference_errors(self, s, m):
        err = max_error_vs_analytic(nonuniform(s, 1, 81, m))
        assert err == pytest.approx(NUFFT_ERRORS_1D[(s, m)], rel=0.01)

    def test_brute_force_oracle(self):
        s, n_fd, m = 0.4, 4, 33
        kernel = nonuniform(s, 1, n_fd, m)
        t = 2.0 * np.arange(m + 1) / m - 1.0
        xi = np.pi * t * t * np.sign(t)
        w = np.empty(m + 1)
        w[1:-1] = 0.5 * (xi[2:] - xi[:-2])
        w[0] = 0.5 * (xi[1] - xi[0])
        w[-1] = 0.5 * (xi[-1] - xi[-2])
        psi = (4.0 * np.sin(0.5 * xi) ** 2) ** s
        for p in range(2 * n_fd + 1):
            oracle = np.sum(w * psi * np.exp(1j * p * xi)) / (2.0 * np.pi)
            assert abs(oracle.imag) < 1e-15
            assert kernel.coeffs[p] == pytest.approx(oracle.real, abs=1e-13)

    def test_large_3d_kernel_restricts_to_a_fresh_build(self):
        # 81^3 outputs from 129^3 folded samples, in bounded chunks
        big = nonuniform(0.4, 3, 40, 256)
        small = nonuniform(0.4, 3, 4, 256)
        got = restrict(big, 4).coeffs
        assert np.max(np.abs(got - small.coeffs)) <= 1e-14 * np.max(np.abs(small.coeffs))


def reference_nonuniform_direct(s, dim, n_fd, m):
    """The nufft sum over all (m + 1)^dim nodes with the whole sample tensor q
    formed in one expression: the formulation the folded, chunked sum
    replaces."""
    xi, w = stiffness._clustered_nodes(m)
    k = 2 * n_fd + 1
    cos_f = np.cos(np.outer(np.arange(k), xi))

    def psi(axes):
        total = None
        for a in axes:
            q = 4.0 * np.sin(0.5 * a) ** 2
            total = q if total is None else total + q
        return total ** s

    if dim == 1:
        return cos_f @ (w * psi((xi,)) / (2.0 * math.pi))
    if dim == 2:
        q = np.outer(w, w) * psi((xi[:, None], xi[None, :])) / (2.0 * math.pi) ** 2
        return cos_f @ q @ cos_f.T
    q = (w[:, None, None] * w[None, :, None] * w[None, None, :]
         * psi((xi[:, None, None], xi[None, :, None], xi[None, None, :]))
         / (2.0 * math.pi) ** 3)
    out = np.tensordot(cos_f, q, axes=(1, 0))
    out = np.tensordot(out, cos_f, axes=(1, 1))
    out = np.tensordot(out, cos_f, axes=(1, 1))
    return np.ascontiguousarray(out)


class RecordingPool(stiffness.ThreadPoolExecutor):
    """Thread pool that records the worker count of every pool created."""

    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


def build_with_cores(monkeypatch, cores, build):
    """Coefficients of build() with the usable core count forced to cores,
    and the worker counts of the pools it created."""
    monkeypatch.setattr(stiffness, "_usable_cores", lambda: cores)
    monkeypatch.setattr(stiffness, "ThreadPoolExecutor", RecordingPool)
    RecordingPool.sizes = []
    coeffs = build().coeffs
    return coeffs, list(RecordingPool.sizes)


class TestChunkPool:
    # (dim, n_fd, m, budget): several chunks along axis 0, none dividing the
    # number of half-grid rows (51, 50, 33, 32, 13, 9)
    UNIFORM = [(1, 5, 100, 7), (1, 5, 99, 7), (2, 4, 64, 4 * 33), (2, 4, 63, 5 * 32),
               (3, 3, 24, 3 * 13 ** 2), (3, 3, 17, 2 * 9 ** 2)]

    @pytest.mark.parametrize("dim,n_fd,m,budget", UNIFORM)
    @pytest.mark.parametrize("build", [fft_uniform, modified_spectral])
    def test_pooled_equals_one_worker(self, monkeypatch, build, dim, n_fd, m, budget):
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)
        inline, sizes = build_with_cores(monkeypatch, 1, lambda: build(0.45, dim, n_fd, m))
        assert sizes == []
        pooled, sizes = build_with_cores(monkeypatch, 3, lambda: build(0.45, dim, n_fd, m))
        assert sizes == [3]
        assert pooled.tobytes() == inline.tobytes()

    # several chunks along the floor(m/2) + 1 folded node rows (33, 32, 11,
    # 10); all but the first leave a short last chunk.  nufft's contraction
    # is a BLAS product, which threads itself, so its chunks never take the
    # pool, however many cores are usable
    @pytest.mark.parametrize("dim,n_fd,m,budget", [(2, 4, 64, 390), (2, 4, 63, 320),
                                                   (3, 2, 20, 4 * 11 ** 2),
                                                   (3, 2, 19, 3 * 10 ** 2)])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_nufft_runs_inline_and_equals_one_worker(self, monkeypatch, dim, n_fd, m, budget,
                                                     cores):
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)

        def build():
            return nonuniform(0.3, dim, n_fd, m)

        one_core, sizes = build_with_cores(monkeypatch, 1, build)
        assert sizes == []
        several, sizes = build_with_cores(monkeypatch, cores, build)
        assert sizes == []
        assert several.tobytes() == one_core.tobytes()

    # the DCT-I schemes keep the pool: their transform is single threaded
    @pytest.mark.parametrize("dim,n_fd,m,budget", [(2, 4, 64, 4 * 33), (3, 3, 24, 3 * 13 ** 2)])
    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("build", [fft_uniform, modified_spectral])
    def test_dct_schemes_still_pool(self, monkeypatch, build, dim, n_fd, m, budget, cores):
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)
        _, sizes = build_with_cores(monkeypatch, cores, lambda: build(0.45, dim, n_fd, m))
        assert sizes == [cores]

    @pytest.mark.parametrize("dim,n_fd,m,budget", [(1, 5, 100, 7), (2, 4, 64, 4 * 33),
                                                   (3, 3, 24, 3 * 13 ** 2),
                                                   (2, 4, None, 2 ** 17)])
    def test_corrected_pooled_equals_one_worker(self, monkeypatch, dim, n_fd, m, budget):
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)

        def build():
            return fft_corrected(0.45, dim, n_fd, m)

        inline, sizes = build_with_cores(monkeypatch, 1, build)
        assert sizes == []
        pooled, sizes = build_with_cores(monkeypatch, 3, build)
        assert sizes == [3]
        assert pooled.tobytes() == inline.tobytes()

    # 3D sums run over chunks of row pairs (see _triangle_sum): one row per
    # chunk when a pair does not fit, and three pairs with a short last
    # chunk; n = 13, 14, 9 and 10 half-grid rows
    @pytest.mark.parametrize("m", [24, 26, 17, 19])
    @pytest.mark.parametrize("pairs", [0, 3])
    @pytest.mark.parametrize("name", ["fft", "modspec", "nufft"])
    def test_3d_pooled_equals_one_worker(self, monkeypatch, name, m, pairs):
        n = m // 2 + 1
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS",
                            TestTriangleSum.budget(m, pairs))
        chunks = n if pairs == 0 else -(-n // (2 * pairs))

        def build():
            return TRAPEZOID_3D[name](0.35, 3, m)

        inline, sizes = build_with_cores(monkeypatch, 1, build)
        assert sizes == []
        pooled, sizes = build_with_cores(monkeypatch, 3, build)
        assert sizes == ([] if name == "nufft" else [min(3, chunks)])
        assert pooled.tobytes() == inline.tobytes()

    def test_pool_never_exceeds_chunk_count(self, monkeypatch):
        # 9 half-grid rows in chunks of 4: three chunks, so three workers
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", 4 * 9)
        _, sizes = build_with_cores(monkeypatch, 8, lambda: fft_uniform(0.5, 2, 3, 16))
        assert sizes == [3]

    # the fold reorders the sums, so the match is to rounding, not bitwise;
    # the budgets give one chunk, two in 2D, and several uneven ones in 2D
    # and 3D
    @pytest.mark.parametrize("dim,n_fd,m", [(1, 20, 600), (1, 20, 601), (2, 6, 300),
                                            (2, 6, 299), (3, 3, 40), (3, 3, 39)])
    @pytest.mark.parametrize("budget", [None, 7 * 41 ** 2, 8 * 21 ** 2])
    def test_nufft_direct_matches_unchunked_reference(self, monkeypatch, dim, n_fd, m, budget):
        if budget is not None:
            monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", budget)
        got = nonuniform(0.35, dim, n_fd, m).coeffs
        expected = reference_nonuniform_direct(0.35, dim, n_fd, m)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_concurrent_builds_agree(self, monkeypatch):
        # two callers at once, the DCT-I builds each on a pool of more workers
        # than cores, with frequent thread switches: a chunk written to the
        # wrong slice or a shared temporary would show as a differing
        # coefficient
        monkeypatch.setattr(stiffness, "_DCT_CHUNK_ELEMS", 2 ** 11)
        builds = [lambda: fft_uniform(0.5, 2, 8, 256),
                  lambda: modified_spectral(0.5, 3, 3, 24, 16),
                  lambda: nonuniform(0.5, 2, 8, 257)]
        serial = [build_with_cores(monkeypatch, 1, build)[0] for build in builds]
        monkeypatch.setattr(stiffness, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for build, expected in zip(builds, serial):
                barrier = threading.Barrier(2, timeout=30)
                results = [None, None]

                def run(i):
                    barrier.wait()
                    results[i] = build().coeffs

                threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                    assert not th.is_alive()
                assert results[0].tobytes() == expected.tobytes()
                assert results[1].tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_chunk_exception_propagates(self, monkeypatch):
        monkeypatch.setattr(stiffness, "_usable_cores", lambda: 2)
        seen = []

        def run(i0):
            seen.append(i0)
            if i0 == 6:
                raise FloatingPointError("chunk 6")

        with pytest.raises(FloatingPointError, match="chunk 6"):
            stiffness._for_each_chunk(run, 10, 3, pooled=True)
        assert set(seen) <= {0, 3, 6, 9} and 6 in seen

    def test_usable_cores_falls_back_to_cpu_count(self, monkeypatch):
        assert stiffness._usable_cores() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert stiffness._usable_cores() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("make", [_psi_integrand, _regularized_integrand])
    def test_integrands_leave_axes_unmodified(self, dim, make):
        xi = np.linspace(-np.pi, np.pi, 9)
        axes = [xi.reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i in range(dim)]
        before = [a.copy() for a in axes]
        for a in axes:
            a.setflags(write=False)
        out = make(0.4)(tuple(axes))
        assert out.shape == (9,) * dim
        for a, b in zip(axes, before):
            assert a.tobytes() == b.tobytes()


class TestSpectral:
    def test_ball_radius(self):
        assert ball_radius(2) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)
        assert ball_radius(1) == pytest.approx(math.pi, rel=1e-13)
        # equal volume in 3 dimensions: (4 pi / 3) R^3 == (2 pi)^3
        r3 = ball_radius(3)
        assert 4.0 * math.pi / 3.0 * r3 ** 3 == pytest.approx((2 * math.pi) ** 3, rel=1e-12)

    def test_zero_offset_1d(self):
        for s in (0.25, 0.5, 0.8):
            k = spectral(s, 1, 16, 32)
            assert k.coeffs[0] == pytest.approx(math.pi ** (2 * s) / (1 + 2 * s), rel=1e-12)

    def test_1d_against_quadrature_oracle(self):
        # T~_p = pi^{2s} * integral_0^1 x^{2s} cos(p pi x) dx
        s = 0.3
        k = spectral(s, 1, 10, 64)
        for p in (1, 2, 7, 20):
            oracle = math.pi ** (2 * s) * interval_integral_dyadic(
                lambda x: x ** (2 * s) * np.cos(p * math.pi * x), 0.0, 1.0)
            assert k.coeffs[p] == pytest.approx(oracle, rel=1e-9, abs=1e-13)

    def test_decay_slope_1d(self):
        profile = decay_profile(spectral(0.25, 1, 81, 64))
        assert profile.fitted_slope == pytest.approx(-1.5, abs=0.15)

    def test_decay_slope_2d(self):
        profile = decay_profile(spectral(0.5, 2, 81, 64))
        assert profile.fitted_slope == pytest.approx(-1.5, abs=0.3)

    def test_decay_slope_3d(self):
        profile = decay_profile(spectral(0.75, 3, 20, 64))
        assert profile.fitted_slope == pytest.approx(-2.0, abs=0.3)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            spectral(0.5, 2, 8, 3)


class TestModifiedSpectral:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("m", [2 ** 10, 2 ** 14])
    def test_reference_errors(self, s, m):
        err = max_error_vs_analytic(modified_spectral(s, 1, 81, m, 64))
        assert err <= 3.0 * MODSPEC_ERRORS_1D[(s, m)]

    def test_zero_offset_additivity(self):
        reg = _uniform_fourier(_regularized_integrand(0.6), 2, 5, 64)
        ball = spectral(0.6, 2, 5, 32)
        combined = modified_spectral(0.6, 2, 5, 64, 32)
        assert combined.coeffs[0, 0] == reg[0, 0] + ball.coeffs[0, 0]

    def test_equals_spectral_without_fft_term(self):
        # the construction is exactly trapezoid-term + ball-term, so forcing
        # the trapezoid term to zero leaves precisely the spectral kernel
        reg = _uniform_fourier(_regularized_integrand(0.4), 2, 6, 64)
        ball = spectral(0.4, 2, 6, 32)
        combined = modified_spectral(0.4, 2, 6, 64, 32)
        np.testing.assert_array_equal(combined.coeffs, reg + ball.coeffs)
        np.testing.assert_array_equal(np.zeros_like(reg) + ball.coeffs, ball.coeffs)

    def test_decay_slope_1d(self):
        profile = decay_profile(modified_spectral(0.5, 1, 81, 2 ** 10, 64))
        assert profile.fitted_slope == pytest.approx(-2.0, abs=0.15)


class TestKernelStructure:
    def test_determinism(self):
        for build in (lambda: fft_uniform(0.5, 2, 6, 32),
                      lambda: nonuniform(0.5, 2, 6, 33),
                      lambda: spectral(0.5, 2, 6, 16),
                      lambda: modified_spectral(0.5, 2, 6, 32, 16)):
            a = build()
            b = build()
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_at_reads_signed_offsets(self):
        k = fft_uniform(0.5, 2, 3, 16)
        p = np.arange(-6, 7)
        full = k.at(p[:, None], p[None, :])
        assert full.shape == (13, 13)
        np.testing.assert_array_equal(full[6:, 6:], k.coeffs)
        # T_{-p} = T_p in each axis on its own
        np.testing.assert_array_equal(full, full[::-1, :])
        np.testing.assert_array_equal(full, full[:, ::-1])
        assert k.at(-2, 5) == k.at(2, -5) == k.coeffs[2, 5]
        # broadcasting: a row of offsets against one scalar offset
        np.testing.assert_array_equal(k.at(p, -1), k.coeffs[np.abs(p), 1])
        assert k.at(np.zeros((2, 1, 3), int), p[:4, None]).shape == (2, 4, 3)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_at_mirrors_every_axis(self, dim):
        k = fft_uniform(0.5, dim, 2, 16)
        p = np.arange(-4, 5)
        full = k.at(*np.ix_(*([p] * dim)))
        np.testing.assert_array_equal(full, np.flip(full))
        np.testing.assert_array_equal(full[(slice(4, None),) * dim], k.coeffs)

    def test_at_rejects_wrong_axis_count_and_range(self):
        k = fft_uniform(0.5, 2, 3, 16)
        with pytest.raises(ValueError, match="expected 2 offset arrays"):
            k.at(1)
        with pytest.raises(IndexError):
            k.at(7, 0)

    def test_positive_zero_offset_every_scheme(self):
        for kernel in (analytic_1d(0.5, 4), fft_uniform(0.3, 2, 4, 32),
                       nonuniform(0.3, 2, 4, 33), spectral(0.3, 2, 4, 16),
                       modified_spectral(0.3, 2, 4, 32, 16)):
            assert kernel.coeffs.flat[0] > 0

    def test_restrict_equals_fresh_build(self):
        big = fft_uniform(0.45, 2, 10, 64)
        small = restrict(big, 4)
        fresh = fft_uniform(0.45, 2, 4, 64)
        np.testing.assert_array_equal(small.coeffs, fresh.coeffs)
        # at the same m; the default m of a fresh corrected build may be smaller
        small = restrict(fft_corrected(0.45, 2, 10, 256), 4)
        np.testing.assert_array_equal(small.coeffs, fft_corrected(0.45, 2, 4, 256).coeffs)

    @pytest.mark.parametrize("m", [64, 66, 63])
    def test_restrict_equals_fresh_build_3d(self, m):
        # a 3D sum's chunks depend on m alone, and each output depends only
        # on its own lines of the transforms, so the slice is bitwise a
        # fresh build at the same m
        small = restrict(fft_uniform(0.45, 3, 10, m), 4)
        np.testing.assert_array_equal(small.coeffs, fft_uniform(0.45, 3, 4, m).coeffs)

    def test_restrict_rejects_growth(self):
        with pytest.raises(ValueError):
            restrict(fft_uniform(0.45, 1, 4, 32), 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            StiffnessKernel(dim=1, s=0.5, n_fd=2, scheme="fft",
                            coeffs=np.array([-1.0, 0.1, 0.1, 0.1, 0.1]))
        with pytest.raises(ValueError):
            StiffnessKernel(dim=1, s=0.5, n_fd=2, scheme="bogus",
                            coeffs=np.ones(5))

    def test_constructor_leaves_the_callers_array_writable(self):
        coeffs = np.array([1.0, 0.1, 0.1, 0.1, 0.1])
        kernel = StiffnessKernel(dim=1, s=0.5, n_fd=2, scheme="fft", coeffs=coeffs)
        coeffs[0] = 2.0
        assert kernel.coeffs[0] == 1.0 and not kernel.coeffs.flags.writeable
        # a restricted kernel owns its slice rather than viewing the larger one
        assert restrict(fft_uniform(0.45, 2, 10, 64), 4).coeffs.flags.owndata

    def test_circulant_spectrum_real_after_symmetrization(self):
        import scipy.fft
        for kernel in (fft_uniform(0.5, 2, 8, 64), nonuniform(0.5, 2, 8, 65),
                       spectral(0.5, 2, 8, 32), modified_spectral(0.5, 2, 8, 64, 32)):
            n = kernel.n_fd
            fold = np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n))
            wrapped = kernel.coeffs[np.ix_(fold, fold)]
            spec = scipy.fft.fftn(wrapped)
            assert np.max(np.abs(spec.imag)) <= 1e-10 * np.max(np.abs(spec.real))


class TestDecayProfile:
    def test_requires_resolution(self):
        with pytest.raises(ValueError):
            decay_profile(analytic_1d(0.5, 8))

    def test_radii_sorted_positive(self):
        profile = decay_profile(fft_uniform(0.5, 2, 16, 128))
        assert np.all(profile.radii > 0)
        assert np.all(np.diff(profile.radii) >= 0)
        assert profile.radii.shape == profile.magnitudes.shape

    def test_tail_is_the_outer_half(self):
        # the slope is the least-squares fit over |p| >= max|p| / 2
        profile = decay_profile(analytic_1d(0.3, 20))
        tail = profile.radii >= 0.5 * profile.radii[-1]
        assert tail.sum() == 21
        slope = np.polyfit(np.log(profile.radii[tail]), np.log(profile.magnitudes[tail]), 1)[0]
        assert profile.fitted_slope == slope

import sys
import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.stiffness import analytic_1d, fft_uniform, modified_spectral, nonuniform, spectral
from fraclap.toeplitz import ToeplitzPlan, dense_materialize, dft


def naive_dft(values):
    values = np.asarray(values, dtype=complex)
    n = values.shape[0]
    twiddle = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return twiddle @ values


class TestDft:
    def test_constant_to_impulse(self):
        out = dft(np.ones(8), "forward")
        expected = np.zeros(8, dtype=complex)
        expected[0] = 8.0
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for size in (6, 7, 13):
            x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            got = dft(x, "forward")
            ref = naive_dft(x)
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        back = dft(dft(x, "forward"), "inverse")
        assert np.max(np.abs(back - x)) < 1e-12

    def test_rejects_direction(self):
        with pytest.raises(ValueError):
            dft(np.ones(4), "sideways")


def all_scheme_kernels(dim, n_fd, s=0.5):
    m = max(2 * n_fd + 1, 32)
    return [fft_uniform(s, dim, n_fd, m), nonuniform(s, dim, n_fd, m + 1),
            spectral(s, dim, n_fd, 32), modified_spectral(s, dim, n_fd, m, 32)]


class TestPlanApply:
    def test_impulse_returns_central_column(self):
        kernel = analytic_1d(0.5, 2)
        p = ToeplitzPlan(kernel)
        u = np.zeros(5)
        u[2] = 1.0
        expected = kernel.full_tensor()[2:7]
        np.testing.assert_allclose(p.apply(u), expected, rtol=1e-12)

    def test_zero_input(self):
        p = ToeplitzPlan(fft_uniform(0.5, 2, 3, 16))
        assert np.all(p.apply(np.zeros((7, 7))) == 0.0)

    @pytest.mark.parametrize("dim,n_fd", [(1, 6), (2, 4), (3, 3)])
    def test_matches_dense_oracle_all_schemes(self, dim, n_fd):
        rng = np.random.default_rng(dim)
        for kernel in all_scheme_kernels(dim, n_fd):
            p = ToeplitzPlan(kernel)
            dense = dense_materialize(kernel)
            u = rng.standard_normal(p.grid_shape)
            got = p.apply(u).ravel()
            ref = dense @ u.ravel()
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_2d_direct_summation_oracle(self):
        n_fd = 5
        kernel = fft_uniform(0.6, 2, n_fd, 32)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((11, 11))
        full = kernel.full_tensor()
        ref = np.zeros((11, 11))
        for j in range(11):
            for k in range(11):
                for mm in range(11):
                    for nn in range(11):
                        ref[j, k] += full[j - mm + 10, k - nn + 10] * u[mm, nn]
        got = ToeplitzPlan(kernel).apply(u)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        p = ToeplitzPlan(fft_uniform(0.4, 2, 4, 32))
        u, w = rng.standard_normal((2,) + p.grid_shape)
        alpha, beta = rng.standard_normal(2)
        left = p.apply(alpha * u + beta * w)
        right = alpha * p.apply(u) + beta * p.apply(w)
        assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        p = ToeplitzPlan(fft_uniform(0.7, 2, 5, 32))
        for _ in range(5):
            u, w = rng.standard_normal((2,) + p.grid_shape)
            a = np.sum(p.apply(u) * w)
            b = np.sum(u * p.apply(w))
            assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)

    def test_explicit_full_shape_apply(self):
        kernel = analytic_1d(0.5, 3)
        p = ToeplitzPlan(kernel, (7,))
        u = np.arange(7.0)
        np.testing.assert_array_equal(ToeplitzPlan(kernel).apply(u), p.apply(u))

    def test_shape_mismatch(self):
        p = ToeplitzPlan(analytic_1d(0.5, 3))
        with pytest.raises(ValueError):
            p.apply(np.zeros(6))

    def test_plan_equals_dense_on_larger_instances(self):
        # every instance with at most 4096 nodes
        rng = np.random.default_rng(7)
        for dim, n_fd in [(1, 100), (2, 16), (3, 4)]:
            kernel = (analytic_1d(0.5, n_fd) if dim == 1
                      else fft_uniform(0.5, dim, n_fd, max(2 * n_fd + 1, 64)))
            p = ToeplitzPlan(kernel)
            dense = dense_materialize(kernel)
            u = rng.standard_normal(p.grid_shape)
            got = p.apply(u).ravel()
            ref = dense @ u.ravel()
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_constant_vector_trend(self):
        # row sums tend to the vanishing symbol value as the grid grows
        def interior_max(n_fd):
            kernel = analytic_1d(0.5, n_fd)
            p = ToeplitzPlan(kernel)
            v = p.apply(np.ones(2 * n_fd + 1))
            inner = v[n_fd // 2: -n_fd // 2]
            return np.max(np.abs(inner))

        assert interior_max(128) < interior_max(16)



def reference_apply(p, u):
    """The plan's product by one padded convolution over the whole embedding,
    as it was computed before the transforms skipped the zero lines."""
    padded = np.zeros(p.fft_shape)
    padded[tuple(slice(0, n) for n in p.grid_shape)] = u
    conv = scipy.fft.irfftn(scipy.fft.rfftn(padded) * p._spectrum, s=p.fft_shape)
    return conv[tuple(slice(0, n) for n in p.grid_shape)].copy()


class TestPrunedTransforms:
    # n_fd 3, 4, 7 and 9 pad 4*n_fd + 1 to a longer fast length
    @pytest.mark.parametrize("dim,n_fds", [(1, (1, 2, 3, 4, 7, 9, 40)),
                                           (2, (1, 2, 3, 4, 7, 9, 13)),
                                           (3, (1, 2, 3, 4, 7))])
    def test_matches_padded_convolution(self, dim, n_fds):
        rng = np.random.default_rng(dim)
        for n_fd in n_fds:
            p = ToeplitzPlan(fft_uniform(0.5, dim, n_fd, 4 * n_fd + 4))
            u = rng.standard_normal(p.grid_shape)
            got = p.apply(u)
            ref = reference_apply(p, u)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            if dim == 1:
                assert np.array_equal(got, ref)

    def test_padded_lengths_exercised(self):
        for n_fd in (3, 4, 7, 9):
            assert ToeplitzPlan(analytic_1d(0.5, n_fd)).fft_shape[0] > 4 * n_fd + 1

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 3), n_fd=st.integers(1, 4),
           s=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 16))
    def test_property_equals_dense(self, dim, n_fd, s, seed):
        kernel = fft_uniform(s, dim, n_fd, 4 * n_fd + 4)
        p = ToeplitzPlan(kernel)
        u = np.random.default_rng(seed).standard_normal(p.grid_shape)
        got = p.apply(u).ravel()
        ref = dense_materialize(kernel) @ u.ravel()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

def reference_full_grid_apply(kernel, u):
    """The whole-grid product as computed before plans took a shape: one
    embedding length next_fast_len(4 n_fd + 1) on every axis."""
    n = kernel.n_fd
    length = scipy.fft.next_fast_len(4 * n + 1)
    place = np.mod(np.arange(-2 * n, 2 * n + 1), length)
    generator = np.zeros((length,) * kernel.dim)
    generator[np.ix_(*([place] * kernel.dim))] = kernel.full_tensor()
    spectrum = scipy.fft.rfftn(generator)
    k = 2 * n + 1
    axes = range(u.ndim - 1)
    spec = scipy.fft.rfft(u, n=length, axis=-1)
    for axis in reversed(axes):
        spec = scipy.fft.fft(spec, n=length, axis=axis, overwrite_x=True)
    spec *= spectrum
    for axis in axes:
        spec = scipy.fft.ifft(spec, axis=axis, overwrite_x=True)
        spec = spec[(slice(None),) * axis + (slice(0, k),)]
    return scipy.fft.irfft(spec, n=length, axis=-1)[..., :k].copy()


# (dim, n_fd, box shapes): 1 and 2*n_fd + 1 nodes on some axis, even and odd
# sizes, never a cube unless it is the whole grid
BOX_SHAPES = [(1, 4, [(1,), (2,), (5,), (8,), (9,)]),
              (2, 3, [(1, 7), (7, 1), (2, 5), (4, 7), (6, 3), (1, 1)]),
              (3, 2, [(1, 5, 2), (5, 4, 3), (2, 1, 5), (4, 5, 1)])]


class TestPlanShape:
    @pytest.mark.parametrize("dim,n_fd,shapes", BOX_SHAPES)
    def test_box_equals_dense_block(self, dim, n_fd, shapes):
        rng = np.random.default_rng(10 + dim)
        full = (2 * n_fd + 1,) * dim
        for kernel in all_scheme_kernels(dim, n_fd):
            dense = dense_materialize(kernel)
            for shape in shapes:
                # the block is the same wherever the box sits on the grid
                lo = [rng.integers(0, f - b + 1) for f, b in zip(full, shape)]
                ranges = [np.arange(a, a + b) for a, b in zip(lo, shape)]
                idx = np.ravel_multi_index(np.ix_(*ranges), full).ravel()
                p = ToeplitzPlan(kernel, shape)
                assert p.grid_shape == shape
                assert p.fft_shape == tuple(scipy.fft.next_fast_len(2 * b - 1) for b in shape)
                u = rng.standard_normal(shape)
                got = p.apply(u).ravel()
                ref = dense[np.ix_(idx, idx)] @ u.ravel()
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(0, 7), (8, 7), (7, -1), (7,), (7, 7, 7), (), (2.5, 3),
                                       ("a", 3), 7])
    def test_rejects_shape(self, shape):
        with pytest.raises(ValueError):
            ToeplitzPlan(fft_uniform(0.5, 2, 3, 16), shape)

    @pytest.mark.parametrize("dim,n_fds", [(1, (1, 3, 4, 7, 9, 40)), (2, (1, 3, 4, 7, 13)),
                                           (3, (1, 3, 4))])
    def test_full_grid_bitwise_unchanged(self, dim, n_fds):
        rng = np.random.default_rng(20 + dim)
        for n_fd in n_fds:
            kernel = fft_uniform(0.5, dim, n_fd, 4 * n_fd + 4)
            p = ToeplitzPlan(kernel)
            assert p.fft_shape == (scipy.fft.next_fast_len(4 * n_fd + 1),) * dim
            u = rng.standard_normal(p.grid_shape)
            np.testing.assert_array_equal(p.apply(u), reference_full_grid_apply(kernel, u))

    def test_spectrum_built_on_first_apply(self):
        p = ToeplitzPlan(fft_uniform(0.5, 2, 3, 16), (4, 6))
        assert "_spectrum" not in vars(p)
        u = np.ones((4, 6))
        first = p.apply(u)
        spectrum = vars(p)["_spectrum"]
        np.testing.assert_array_equal(p.apply(u), first)
        assert p._spectrum is spectrum

    def test_spectrum_memory_error(self, monkeypatch):
        p = ToeplitzPlan(fft_uniform(0.5, 2, 3, 16), (5, 2))

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(scipy.fft, "rfftn", out_of_memory)
        with pytest.raises(MemoryError, match=r"cannot plan transform of shape \(9, 3\)"):
            p.apply(np.ones((5, 2)))

    def test_threads_build_the_spectrum_at_once(self):
        kernel = fft_uniform(0.5, 3, 12, 32)
        shape = (17, 25, 12)
        u = np.random.default_rng(3).standard_normal(shape)
        expected = ToeplitzPlan(kernel, shape).apply(u)
        workers = 4
        for _ in range(3):
            p = ToeplitzPlan(kernel, shape)
            barrier = threading.Barrier(workers, timeout=60)
            results = [None] * workers

            def work(i):
                barrier.wait()
                results[i] = p.apply(u)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for got in results:
                np.testing.assert_array_equal(got, expected)


class TestDenseMaterialize:
    def test_1d_first_row(self):
        import math
        kernel = analytic_1d(0.5, 2)
        dense = dense_materialize(kernel)
        assert dense.shape == (5, 5)
        np.testing.assert_allclose(
            dense[0], [4 / math.pi, -4 / (3 * math.pi), -4 / (15 * math.pi),
                       -4 / (35 * math.pi), -4 / (63 * math.pi)], rtol=1e-12)

    def test_exact_symmetry(self):
        for kernel in all_scheme_kernels(2, 3):
            dense = dense_materialize(kernel)
            np.testing.assert_array_equal(dense, dense.T)

    def test_positive_definite(self):
        for dim in (1, 2, 3):
            kernel = fft_uniform(0.5, dim, 3, 32)
            eigvals = np.linalg.eigvalsh(dense_materialize(kernel))
            assert eigvals[0] > 0
        eigvals = np.linalg.eigvalsh(dense_materialize(analytic_1d(0.5, 4)))
        assert eigvals[0] > 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_materialize(analytic_1d(0.5, 20000))

import math

import numpy as np
import pytest

from fraclap.core import OverlayGrid, bessel_j_half_order, gamma, gauss_legendre, order_value


def j0_series(r, terms=80):
    """Independent ascending-series oracle for J0."""
    q = 0.25 * r * r
    term = 1.0
    acc = 1.0
    for k in range(1, terms):
        term *= -q / (k * k)
        acc += term
    return acc


class TestFractionalOrder:
    def test_accepts_interior(self):
        assert order_value(0.5) == 0.5
        assert type(order_value(np.float32(0.25))) is float

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_endpoints_and_outside(self, bad):
        with pytest.raises(ValueError):
            order_value(bad)


class TestOverlayGrid:
    def test_spacing_and_counts(self):
        g = OverlayGrid(dim=2, r_fd=1.2, n_fd=12)
        assert g.h_fd == 1.2 / 12
        assert g.nodes_per_axis == 25
        assert g.n_nodes == 625
        assert g.shape == (25, 25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OverlayGrid(dim=4, r_fd=1.0, n_fd=3)
        with pytest.raises(ValueError):
            OverlayGrid(dim=2, r_fd=-1.0, n_fd=3)
        with pytest.raises(ValueError):
            OverlayGrid(dim=2, r_fd=1.0, n_fd=0)

    @pytest.mark.parametrize("r_fd", [0.0, -1.0, math.inf, math.nan])
    def test_r_fd_must_be_positive_and_finite(self, r_fd):
        with pytest.raises(ValueError, match=f"r_fd must be positive and finite, got {r_fd}"):
            OverlayGrid(dim=2, r_fd=r_fd, n_fd=3)


class TestGamma:
    def test_against_library_oracle(self):
        xs = np.linspace(0.05, 10.0, 400)
        ours = gamma(xs)
        ref = np.array([math.gamma(x) for x in xs])
        assert np.max(np.abs(ours / ref - 1.0)) < 1e-13

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_reflection_region(self):
        assert gamma(-0.5) == pytest.approx(math.gamma(-0.5), rel=1e-12)

    def test_poles_raise(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-2.0)

    def test_pole_inside_array_raises(self):
        with pytest.raises(ValueError):
            gamma(np.array([0.5, 1.5, -3.0, 2.5]))

    def test_scalar_gives_float(self):
        assert type(gamma(2.5)) is float
        assert isinstance(gamma(np.array([2.5])), np.ndarray)


class TestBessel:
    def test_dim3_at_pi(self):
        assert abs(bessel_j_half_order(3, np.pi)) < 1e-14

    def test_dim2_first_zero(self):
        assert abs(bessel_j_half_order(2, 2.4048255577)) < 1e-8

    def test_dim1_closed_form(self):
        expected = -math.sqrt(2.0 / (math.pi * math.pi))
        assert bessel_j_half_order(1, np.pi) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.4501581581, abs=1e-9)

    def test_j0_matches_series_oracle(self):
        r = np.linspace(1e-3, 10.0, 500)
        ours = bessel_j_half_order(2, r)
        ref = np.array([j0_series(x) for x in r])
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_j_half_order(2, 0.0)
        with pytest.raises(ValueError):
            bessel_j_half_order(1, np.array([1.0, -2.0]))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            bessel_j_half_order(4, 1.0)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        nodes, weights = gauss_legendre(1)
        np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(weights, [2.0], atol=1e-15)

    def test_two_point_closed_form(self):
        nodes, weights = gauss_legendre(2)
        np.testing.assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-14)

    def test_quartic_with_three_points(self):
        nodes, weights = gauss_legendre(3)
        value = weights @ nodes ** 4
        assert value == pytest.approx(2.0 / 5.0, abs=1e-14)

    @pytest.mark.parametrize("n_g", [1, 2, 5, 16, 64])
    def test_exactness_on_mapped_intervals(self, n_g):
        rng = np.random.default_rng(n_g)
        nodes, weights = gauss_legendre(n_g)
        for _ in range(5):
            a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
            if b - a < 0.1:
                b = a + 0.5
            # the map to [a, b] that the stiffness module uses
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            x, w = mid + half * nodes, half * weights
            for k in range(0, 2 * n_g, max(1, (2 * n_g) // 6)):
                exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                got = w @ x ** k
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_invariants(self):
        for n_g in (3, 10, 33, 64):
            nodes, weights = gauss_legendre(n_g)
            assert nodes.shape == weights.shape == (n_g,)
            assert np.all(weights > 0.0)
            assert abs(weights.sum() - 2.0) <= 1e-13
            assert np.all(np.diff(nodes) > 0)
            assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-13

    def test_bitwise_symmetry(self):
        for n_g in range(1, 130):
            nodes, weights = gauss_legendre(n_g)
            assert np.array_equal(nodes, -nodes[::-1])
            assert np.array_equal(weights, weights[::-1])
            if n_g % 2:
                centre = nodes[n_g // 2]
                assert centre == 0.0 and not np.signbit(centre)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

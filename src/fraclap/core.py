"""Shared numerics: fractional order, overlay-grid geometry, and thin layers
over scipy.special for the gamma function, the Bessel functions J_{d/2-1}
and Gauss-Legendre rules that keep this package's contracts (poles raise,
r <= 0 is rejected, rules are exactly symmetric).

Everything here is pure and the grid type is immutable, so all of it is safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

__all__ = [
    "OverlayGrid",
    "order_value",
    "check_tolerance",
    "check_dim",
    "check_n_fd",
    "gamma",
    "gauss_legendre",
    "bessel_j_half_order",
]


def order_value(s) -> float:
    """Fractional order s as a float, refused unless it lies strictly in (0, 1)."""
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional order must lie strictly in (0, 1), got {s!r}")
    return s


def check_tolerance(tol):
    """ValueError unless the relative tolerance tol lies strictly in (0, 1)."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie strictly in (0, 1), got {tol!r}")


def check_dim(dim):
    """ValueError unless dim is 1, 2 or 3."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def check_n_fd(n_fd) -> int:
    """n_fd as an int, refused (ValueError) unless it is a positive integer."""
    if int(n_fd) != n_fd or n_fd < 1:
        raise ValueError(f"n_fd must be a positive integer, got {n_fd}")
    return int(n_fd)


@dataclass(frozen=True)
class OverlayGrid:
    """Uniform grid on the cube (-r_fd, r_fd)^dim with 2*n_fd + 1 nodes per axis.

    The spacing is h_fd = r_fd / n_fd and node k per axis sits at k*h_fd for
    k = -n_fd .. n_fd.
    """

    dim: int
    r_fd: float
    n_fd: int

    def __post_init__(self):
        check_dim(self.dim)
        if not 0.0 < float(self.r_fd) < np.inf:
            raise ValueError(f"r_fd must be positive and finite, got {self.r_fd}")
        object.__setattr__(self, "n_fd", check_n_fd(self.n_fd))
        object.__setattr__(self, "r_fd", float(self.r_fd))

    @property
    def h_fd(self) -> float:
        return self.r_fd / self.n_fd

    @property
    def nodes_per_axis(self) -> int:
        return 2 * self.n_fd + 1

    @property
    def shape(self) -> tuple:
        return (self.nodes_per_axis,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis ** self.dim


def gamma(x):
    """Gamma function (scipy.special.gamma) for scalars or arrays; a scalar
    gives a float.  Poles (x a nonpositive integer) raise."""
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0.0) & (x == np.floor(x))):
        raise ValueError("gamma is not defined at nonpositive integers")
    out = scipy.special.gamma(x)
    return float(out) if x.ndim == 0 else out


def bessel_j_half_order(dim: int, r):
    """J_{d/2 - 1}(r) for d in {1, 2, 3} and r > 0.

    d = 1 and d = 3 reduce to the closed forms sqrt(2/(pi r)) cos(r) and
    sqrt(2/(pi r)) sin(r); d = 2 is J0 (scipy.special.j0).
    """
    check_dim(dim)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("bessel_j_half_order requires r > 0")
    if dim == 2:
        return scipy.special.j0(r)
    amp = np.sqrt(2.0 / (np.pi * r))
    if dim == 1:
        return amp * np.cos(r)
    return amp * np.sin(r)


def gauss_legendre(n_g: int):
    """Gauss-Legendre (nodes, weights) on (-1, 1) (scipy.special.roots_legendre),
    exact for polynomials of degree <= 2 n_g - 1 and made exactly symmetric:
    x_k = -x_{n-1-k} and w_k = w_{n-1-k} bitwise, with a centre node of
    exactly 0 for odd n_g.  On [a, b] the rule is mid + half * nodes and
    half * weights, with mid = (a + b) / 2 and half = (b - a) / 2."""
    if int(n_g) != n_g or n_g < 1:
        raise ValueError(f"quadrature order must be an integer >= 1, got {n_g}")
    x, w = scipy.special.roots_legendre(int(n_g))
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])

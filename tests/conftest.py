"""Shared builders for the test suite, cached so expensive meshes and kernels
are constructed once per session."""

from functools import lru_cache

import numpy as np
from scipy.spatial import Delaunay

from fraclap.mesh import SimplicialMesh, _build_mesh, generate_ball_mesh


@lru_cache(maxsize=None)
def ball_mesh(dim: int, n_r: int) -> SimplicialMesh:
    return generate_ball_mesh(dim, 1.0 / n_r)


@lru_cache(maxsize=None)
def scattered_ball(n_r: int, amplitude: float, seed: int = 5) -> SimplicialMesh:
    """Unstructured quasi-uniform disk mesh: the layered lattice points,
    jittered deterministically away from the boundary, retriangulated by
    Delaunay."""
    base = generate_ball_mesh(2, 1.0 / n_r)
    rng = np.random.default_rng(seed)
    verts = base.vertices.copy()
    h = 1.0 / n_r
    radius = np.linalg.norm(verts, axis=1)
    free = radius < 1.0 - 1.2 * h
    verts[free] += rng.uniform(-amplitude * h, amplitude * h, size=(int(free.sum()), 2))
    return _build_mesh(2, verts, Delaunay(verts).simplices)[0]


@lru_cache(maxsize=None)
def reference_kernel_1d(s: float, n_fd: int):
    from fraclap.stiffness import analytic_1d
    return analytic_1d(s, n_fd)

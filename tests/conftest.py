"""Shared builders for the test suite, cached so expensive meshes and kernels
are constructed once per session."""

from functools import lru_cache

import numpy as np
import scipy.sparse
from scipy.spatial import Delaunay

from fraclap.mesh import SimplicialMesh, _build_mesh, generate_ball_mesh
from fraclap.transfer import TransferMatrix


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
def square_mesh(n: int) -> SimplicialMesh:
    """[-0.5, 0.5]^2 cut into n x n squares, each split into two triangles:
    a bounded domain other than the unit ball, (n - 1)^2 interior vertices."""
    t = np.linspace(-0.5, 0.5, n + 1)
    verts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    b, c, d = a + n + 1, a + 1, a + n + 2
    simplices = np.concatenate([np.column_stack([a, b, d]), np.column_stack([a, d, c])])
    return _build_mesh(2, verts, simplices)[0]


def rotated(mesh, seed):
    """The mesh turned by a seeded proper rotation about the origin."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((mesh.dim, mesh.dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return SimplicialMesh(dim=mesh.dim, vertices=mesh.vertices @ q.T,
                          simplices=mesh.simplices, n_interior=mesh.n_interior)


def sliver_mesh():
    """Three triangles around an interior vertex 1e-7 off the diagonal from
    (-1, -1) to (1, 1); simplex 0 is the sliver along that diagonal, with a
    condition estimate above 1e7."""
    pts = np.array([[-1e-7, 1e-7], [-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    simplices = np.array([[1, 2, 0], [2, 3, 0], [3, 1, 0]])
    return SimplicialMesh(dim=2, vertices=pts, simplices=simplices, n_interior=1)


@lru_cache(maxsize=None)
def reference_kernel_1d(s: float, n_fd: int):
    from fraclap.stiffness import analytic_1d
    return analytic_1d(s, n_fd)


# the dense oracle refuses grids of more nodes than this
_DENSE_LIMIT = 20000


def dense_materialize(kernel):
    """Dense symmetric matrix A[(j),(m)] = T_{j-m} over flattened grid nodes.

    Oracle scale only: refuses more than 20000 nodes.  For the fft and
    analytic kernels the result is positive definite.
    """
    k = kernel.offsets_per_axis
    size = k ** kernel.dim
    if size > _DENSE_LIMIT:
        raise ValueError(f"dense materialization limited to {_DENSE_LIMIT} nodes, got {size}")
    dim = kernel.dim
    ax = np.arange(k)
    diff = np.subtract.outer(ax, ax)
    # axis a's offset j_a - m_a spans output axes a (row) and dim + a (column)
    offsets = [np.expand_dims(diff, [i for i in range(2 * dim) if i not in (a, dim + a)])
               for a in range(dim)]
    return kernel.at(*offsets).reshape(size, size)


def whole_grid(transfer):
    """The transfer's matrix with a row for every grid node, for the dense
    oracles: the box's rows put back at their nodes (stored zeros included),
    every other row empty."""
    grid = transfer.grid
    nodes = np.arange(grid.n_nodes).reshape(grid.shape)[transfer.box].ravel()
    coo = transfer.matrix.tocoo()
    return scipy.sparse.csr_matrix((coo.data, (nodes[coo.row], coo.col)),
                                   shape=(grid.n_nodes, transfer.cols))


def hand_transfer(matrix, grid, column_sums=None):
    """TransferMatrix of a hand-made matrix with a row for every grid node,
    cut to its box as build_transfer cuts: the bounding box of the nodes
    holding an entry above the containment tolerance 1e-12, or the whole
    grid when none does.  The column sums default to the matrix's."""
    matrix = scipy.sparse.csr_matrix(matrix)
    assert matrix.shape[0] == grid.n_nodes
    nodes = np.unravel_index(np.flatnonzero((matrix > 1e-12).getnnz(axis=1)), grid.shape)
    box = tuple(slice(int(k.min()), int(k.max()) + 1) if k.size else slice(0, n)
                for k, n in zip(nodes, grid.shape))
    if column_sums is None:
        column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    rows = np.arange(grid.n_nodes).reshape(grid.shape)[box].ravel()
    return TransferMatrix(matrix=matrix[rows], column_sums=column_sums, grid=grid, box=box)

"""Simplicial meshes of the physical domain: file ingestion, a deterministic
quasi-uniform unit-ball mesher for tests and experiments, and the geometric
quantities the solver needs (minimum element height, volumes, vertex-lumped
L2 norms).

Vertices are ordered interior-first: indices 0..n_interior-1 are interior,
the rest lie on the boundary of the simplicial complex.  Boundary facets are
those shared by exactly one simplex.

Mesh file format (plain text, '#' comments and blank lines ignored):

    dim n_vertices n_simplices
    <n_vertices coordinate lines, dim floats each>
    <n_simplices lines, dim+1 one-based vertex indices each>
    boundary                     # optional section
    <one-based boundary vertex indices, any line breaks>

If the boundary section is absent, boundary vertices are detected by facet
incidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "SimplicialMesh",
    "MeshQuality",
    "MeshFormatError",
    "DegenerateElementError",
    "load_mesh",
    "save_mesh",
    "generate_ball_mesh",
    "mesh_quality",
    "lumped_l2_error",
]


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; the message carries the line number."""


class DegenerateElementError(ValueError):
    """Raised for zero-volume (or otherwise degenerate) simplices."""


@dataclass(frozen=True)
class SimplicialMesh:
    dim: int
    vertices: np.ndarray
    simplices: np.ndarray
    n_interior: int

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        simplices = np.ascontiguousarray(np.asarray(self.simplices, dtype=np.int64))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if vertices.ndim != 2 or vertices.shape[1] != self.dim:
            raise ValueError(f"vertices must have shape (n, {self.dim})")
        if simplices.ndim != 2 or simplices.shape[1] != self.dim + 1:
            raise ValueError(f"simplices must have shape (n, {self.dim + 1})")
        n_v = vertices.shape[0]
        if simplices.size and (simplices.min() < 0 or simplices.max() >= n_v):
            raise ValueError("simplex vertex index out of range")
        if not (0 <= self.n_interior <= n_v):
            raise ValueError("n_interior out of range")

        volumes = _simplex_volumes(vertices, simplices, self.dim)
        scale = np.max(np.abs(vertices)) if n_v else 1.0
        bad = np.nonzero(volumes <= 1e-14 * max(scale, 1.0) ** self.dim)[0]
        if bad.size:
            raise DegenerateElementError(
                f"simplices {bad[:10].tolist()} have nonpositive or vanishing volume")

        boundary = _boundary_vertex_mask(simplices, n_v, self.dim)
        expected = np.zeros(n_v, dtype=bool)
        expected[self.n_interior:] = True
        if not np.array_equal(boundary, expected):
            raise ValueError(
                "vertex ordering is not interior-first with respect to the "
                "facet-incidence boundary of the complex")

        vertices.setflags(write=False)
        simplices.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "_volumes", volumes)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.simplices.shape[0]

    def element_volumes(self) -> np.ndarray:
        return self._volumes


@dataclass(frozen=True)
class MeshQuality:
    """Minimum element height a_h, average element diameter N^{-1/d}, and the
    element count."""

    dim: int
    a_h: float
    h_bar: float
    n_elements: int


def _simplex_volumes(vertices, simplices, dim):
    if simplices.shape[0] == 0:
        return np.zeros(0)
    base = vertices[simplices[:, 0]]
    edges = vertices[simplices[:, 1:]] - base[:, None, :]
    det = np.linalg.det(edges)
    return det / math.factorial(dim)


def _orient_positive(vertices, simplices, dim):
    """Swap two vertices of negatively oriented simplices; vertex order inside
    a simplex carries no other meaning here."""
    simplices = np.array(simplices, dtype=np.int64, copy=True)
    vol = _simplex_volumes(vertices, simplices, dim)
    flip = vol < 0
    if np.any(flip):
        simplices[flip, 0], simplices[flip, 1] = (
            simplices[flip, 1].copy(), simplices[flip, 0].copy())
    return simplices


def _boundary_vertex_mask(simplices, n_vertices, dim):
    mask = np.zeros(n_vertices, dtype=bool)
    if simplices.shape[0] == 0:
        return mask
    faces = np.concatenate(
        [simplices[:, list(c)] for c in combinations(range(dim + 1), dim)])
    faces = np.sort(faces, axis=1)
    faces = faces[np.lexsort(faces.T)]
    # runs of equal rows: a facet owned by one simplex lies on the boundary
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(faces[1:] != faces[:-1], axis=1))))
    counts = np.diff(np.append(starts, faces.shape[0]))
    mask[faces[starts[counts == 1]].ravel()] = True
    return mask


def _interior_first(vertices, simplices, dim):
    """Permute vertices so interior ones come first (stable within each group)."""
    n_v = vertices.shape[0]
    boundary = _boundary_vertex_mask(simplices, n_v, dim)
    order = np.concatenate([np.nonzero(~boundary)[0], np.nonzero(boundary)[0]])
    inverse = np.empty(n_v, dtype=np.int64)
    inverse[order] = np.arange(n_v)
    return vertices[order], inverse[simplices], int(np.count_nonzero(~boundary))


def load_mesh(path) -> SimplicialMesh:
    """Read a mesh file, reorder interior-first, and orient all simplices
    positively.  Parse failures carry the offending line number; repeated
    vertex indices in a simplex surface as degenerate-element errors.

    Each section converts with one numpy call; only when that fails are the
    section's tokens walked one by one, with their line numbers, to name the
    first that does not convert."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    text = "".join(lines)
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in lines)
    tokens = text.split()
    pos = 0

    def numbered():
        """(line number, token) for every token, as the error messages need."""
        return [(lineno, tok) for lineno, line in enumerate(lines, start=1)
                for tok in line.split("#", 1)[0].split()]

    def take(count, kind, what):
        nonlocal pos
        start, pos = pos, pos + max(count, 0)
        if pos > len(tokens):
            last = numbered()[-1][0] if tokens else 0
            raise MeshFormatError(f"line {last}: unexpected end of file while reading {what}")
        try:
            return np.array(tokens[start:pos], dtype=kind)
        except (ValueError, OverflowError):
            pass
        out = []
        for lineno, tok in numbered()[start:pos]:
            try:
                out.append(kind(tok))
            except ValueError:
                raise MeshFormatError(f"line {lineno}: expected {kind.__name__} for {what}, "
                                      f"got {tok!r}") from None
        return out

    dim, n_vertices, n_simplices = (int(v) for v in take(3, int, "the header"))
    if dim not in (1, 2, 3):
        raise MeshFormatError(f"line {numbered()[0][0]}: dim must be 1, 2 or 3, got {dim}")
    coords = take(n_vertices * dim, float, "vertex coordinates")
    vertices = np.asarray(coords, dtype=float).reshape(n_vertices, dim)
    idx = take(n_simplices * (dim + 1), int, "simplex indices")
    simplices = np.asarray(idx, dtype=np.int64).reshape(n_simplices, dim + 1) - 1
    if simplices.size and (simplices.min() < 0 or simplices.max() >= n_vertices):
        raise MeshFormatError("simplex vertex index out of range")
    ordered = np.sort(simplices, axis=1)
    repeats = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if repeats.size:
        e = repeats[0]
        raise DegenerateElementError(
            f"simplex {e} repeats a vertex index: {(simplices[e] + 1).tolist()}")

    explicit_boundary = None
    if pos < len(tokens):
        if tokens[pos] != "boundary":
            raise MeshFormatError(f"line {numbered()[pos][0]}: expected optional 'boundary' "
                                  f"section, got {tokens[pos]!r}")
        try:
            explicit_boundary = np.array(tokens[pos + 1:], dtype=np.int64) - 1
        except (ValueError, OverflowError):
            explicit_boundary = np.asarray([int(t) for t in tokens[pos + 1:]],
                                           dtype=np.int64) - 1

    simplices = _orient_positive(vertices, simplices, dim)
    vertices, simplices, n_interior = _interior_first(vertices, simplices, dim)
    mesh = SimplicialMesh(dim=dim, vertices=vertices, simplices=simplices,
                          n_interior=n_interior)
    if explicit_boundary is not None and explicit_boundary.size != n_vertices - n_interior:
        raise MeshFormatError(
            "boundary section does not match the facet-incidence boundary "
            f"({explicit_boundary.size} listed, {n_vertices - n_interior} detected)")
    return mesh


def save_mesh(mesh: SimplicialMesh, path):
    """Write the mesh file format; coordinates use shortest exact float
    representation so load(save(mesh)) round-trips bit for bit."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_elements}\n")
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(c)) for c in v) + "\n")
        for simp in mesh.simplices:
            fh.write(" ".join(str(int(i) + 1) for i in simp) + "\n")
        fh.write("boundary\n")
        idx = np.arange(mesh.n_interior, mesh.n_vertices) + 1
        fh.write(" ".join(str(i) for i in idx) + "\n")


def generate_ball_mesh(dim: int, target_h: float) -> SimplicialMesh:
    """Deterministic quasi-uniform mesh of the unit ball.

    2D: concentric rings with 6i vertices on ring i, triangulated sector by
    sector.  3D: a structured cube grid mapped smoothly onto the ball, each
    cell split into six tetrahedra sharing the main diagonal.  All boundary
    vertices land exactly on |x| = 1 and every element diameter is at most
    2 * target_h.
    """
    if dim not in (2, 3):
        raise ValueError(f"ball mesh supports dim 2 or 3, got {dim}")
    if not (0.0 < target_h < 1.0):
        raise ValueError(f"target_h must lie in (0, 1), got {target_h}")
    if dim == 2:
        return _ball_mesh_2d(target_h)
    return _ball_mesh_3d(target_h)


def _ball_mesh_2d(target_h):
    n_r = max(2, math.ceil(1.0 / target_h))
    if n_r > 2000:
        raise MemoryError(f"target_h {target_h} needs {n_r} rings, beyond the memory budget")
    verts = [np.zeros((1, 2))]
    for i in range(1, n_r + 1):
        count = 6 * i
        angles = 2.0 * np.pi * np.arange(count) / count
        radius = i / n_r
        verts.append(radius * np.column_stack([np.cos(angles), np.sin(angles)]))
    starts = np.cumsum([0] + [v.shape[0] for v in verts[:-1]])
    vertices = np.vstack(verts)
    # snap the outermost ring onto the unit circle exactly
    outer = slice(starts[n_r], None)
    norms = np.linalg.norm(vertices[outer], axis=1, keepdims=True)
    vertices[outer] /= norms

    triangles = []
    for i in range(1, n_r + 1):
        outer_count = 6 * i
        o0 = starts[i]
        i0 = starts[i - 1]
        if i == 1:
            for t in range(6):
                triangles.append((0, o0 + t, o0 + (t + 1) % 6))
            continue
        inner_count = 6 * (i - 1)
        per = i - 1  # inner vertices per sector
        for sector in range(6):
            # triangles with an outer edge as base
            for t in range(i):
                a = o0 + (sector * i + t) % outer_count
                b = o0 + (sector * i + t + 1) % outer_count
                c = i0 + (sector * per + t) % inner_count
                triangles.append((a, b, c))
            # triangles with an inner edge as base
            for t in range(per):
                a = i0 + (sector * per + t) % inner_count
                b = i0 + (sector * per + t + 1) % inner_count
                c = o0 + (sector * i + t + 1) % outer_count
                triangles.append((a, b, c))
    simplices = np.asarray(triangles, dtype=np.int64)
    simplices = _orient_positive(vertices, simplices, 2)
    vertices, simplices, n_interior = _interior_first(vertices, simplices, 2)
    return SimplicialMesh(dim=2, vertices=vertices, simplices=simplices,
                          n_interior=n_interior)


def _icosahedron():
    """Vertices (unit circumradius) and faces of the regular icosahedron."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            raw.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    verts = np.asarray(raw) / math.sqrt(1.0 + phi * phi)
    # faces by nearest-neighbor triples: every edge has the minimal length
    edge = 2.0 / math.sqrt(1.0 + phi * phi)
    faces = []
    for i in range(12):
        for j in range(i + 1, 12):
            if abs(np.linalg.norm(verts[i] - verts[j]) - edge) > 1e-9:
                continue
            for k in range(j + 1, 12):
                if (abs(np.linalg.norm(verts[i] - verts[k]) - edge) < 1e-9
                        and abs(np.linalg.norm(verts[j] - verts[k]) - edge) < 1e-9):
                    faces.append((i, j, k))
    return verts, faces


_KUHN_PATHS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _ball_mesh_3d(target_h):
    """Concentric icosahedral shells.

    Each of the 20 tetrahedra spanned by the center and an icosahedron face is
    subdivided at frequency K through the Kuhn lattice of sorted coordinates
    K >= x1 >= x2 >= x3 >= 0 (affine corners: center, A, B, C with the face
    corners in global vertex order, which makes shared radial faces conform).
    Lattice shell x1 = j then projects radially onto the sphere of radius j/K,
    so the mesh is a stack of geodesic shells with near-constant element size.
    """
    k_freq = max(2, math.ceil(1.22 / target_h))
    if 20 * k_freq ** 3 > 4_000_000:
        raise MemoryError(
            f"target_h {target_h} needs {20 * k_freq ** 3} elements, beyond the memory budget")
    ico_verts, ico_faces = _icosahedron()

    vert_index: dict = {}
    coords: list = []

    def global_vertex(shell, weights):
        # weights: tuple of (icosahedron vertex id, integer weight) pairs
        key = (shell, weights)
        idx = vert_index.get(key)
        if idx is not None:
            return idx
        if shell == 0:
            point = np.zeros(3)
        else:
            w = np.zeros(3)
            for vid, weight in weights:
                w += weight * ico_verts[vid]
            point = (shell / k_freq) * w / np.linalg.norm(w)
        vert_index[key] = len(coords)
        coords.append(point)
        return vert_index[key]

    # Kuhn cells of [0,K]^3 whose centroid satisfies x1 >= x2 >= x3
    lattice_tets = []
    for i in range(k_freq):
        for j in range(min(i + 1, k_freq)):
            for l in range(min(j + 1, k_freq)):
                base = np.array([i, j, l])
                for path in _KUHN_PATHS:
                    pts = [base.copy()]
                    for axis in path:
                        nxt = pts[-1].copy()
                        nxt[axis] += 1
                        pts.append(nxt)
                    centroid = np.mean(pts, axis=0)
                    if centroid[0] >= centroid[1] - 1e-9 and centroid[1] >= centroid[2] - 1e-9:
                        lattice_tets.append(pts)

    tets = []
    for face in ico_faces:
        c1, c2, c3 = sorted(face)
        for pts in lattice_tets:
            ids = []
            for x1, x2, x3 in pts:
                weights = tuple((vid, weight) for vid, weight in
                                ((c1, x1 - x2), (c2, x2 - x3), (c3, x3)) if weight > 0)
                ids.append(global_vertex(int(x1), weights))
            tets.append(ids)

    vertices = np.asarray(coords)
    simplices = np.asarray(tets, dtype=np.int64)
    simplices = _orient_positive(vertices, simplices, 3)
    vertices, simplices, n_interior = _interior_first(vertices, simplices, 3)
    return SimplicialMesh(dim=3, vertices=vertices, simplices=simplices,
                          n_interior=n_interior)


def _facet_measures(vertices, simplices, dim):
    """(dim-1)-measure of every facet of every simplex, shape (Ne, dim+1)."""
    n_e = simplices.shape[0]
    out = np.empty((n_e, dim + 1))
    for drop in range(dim + 1):
        keep = [i for i in range(dim + 1) if i != drop]
        pts = vertices[simplices[:, keep]]
        if dim == 1:
            out[:, drop] = 1.0  # facets are points; use counting measure
        elif dim == 2:
            out[:, drop] = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        else:
            cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
            out[:, drop] = 0.5 * np.linalg.norm(cross, axis=1)
    return out


def mesh_quality(mesh: SimplicialMesh) -> MeshQuality:
    """a_h = min over elements of dim * volume / max facet measure (the
    minimum element height), h_bar = n_elements^{-1/dim}."""
    volumes = mesh.element_volumes()
    facets = _facet_measures(mesh.vertices, mesh.simplices, mesh.dim)
    heights = mesh.dim * volumes / facets.max(axis=1)
    return MeshQuality(
        dim=mesh.dim,
        a_h=float(heights.min()),
        h_bar=float(mesh.n_elements ** (-1.0 / mesh.dim)),
        n_elements=mesh.n_elements,
    )


def lumped_l2_error(mesh: SimplicialMesh, nodal_values, exact_fn) -> float:
    """Vertex-lumped L2 norm of (nodal_values - exact_fn): the squared error
    at each vertex of each element carries weight volume/(dim + 1)."""
    nodal_values = np.asarray(nodal_values, dtype=float)
    if nodal_values.shape != (mesh.n_vertices,):
        raise ValueError(f"nodal values must have shape ({mesh.n_vertices},)")
    diff = nodal_values - np.asarray(exact_fn(mesh.vertices), dtype=float)
    per_element = np.sum(diff[mesh.simplices] ** 2, axis=1)
    total = np.sum(mesh.element_volumes() / (mesh.dim + 1) * per_element)
    return float(math.sqrt(total))

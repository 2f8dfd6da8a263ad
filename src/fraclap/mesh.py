"""Simplicial meshes of the physical domain: file ingestion, a deterministic
quasi-uniform unit-ball mesher for tests and experiments, and the geometric
quantities the solver needs (minimum element height, volumes, vertex-lumped
L2 norms).  All simplex geometry comes from one routine, simplex_adjugates:
the closed-form adjugate and determinant of each edge matrix give volumes
(|det| / d!), the inverses behind the transfer's barycentric coordinates,
and the minimum element height |det| / max adjugate-row norm.  A simplex may
list its vertices in either orientation; nothing reads the sign of det, and
the order is kept as given.

Vertices are ordered interior-first: indices 0..n_interior-1 are interior,
the rest lie on the boundary of the simplicial complex.  Boundary facets are
those shared by exactly one simplex.

Mesh file format (plain text, '#' comments and blank lines ignored):

    dim n_vertices n_simplices
    <n_vertices coordinate lines, dim floats each>
    <n_simplices lines, dim+1 one-based vertex indices each>
    boundary                     # optional section
    <one-based boundary vertex indices, any line breaks>

Boundary vertices are detected by facet incidence; a boundary section, if
present, must list exactly those vertices, each once.  Every vertex
coordinate must be finite, in a file or not.  load_mesh reads every file
with one reader, which blanks the comments in place and converts each
section with one numpy call where it can, token by token where it cannot,
naming the line of a bad token or of a byte that is not UTF-8.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .core import check_dim

__all__ = [
    "SimplicialMesh",
    "MeshQuality",
    "MeshFormatError",
    "DegenerateElementError",
    "load_mesh",
    "save_mesh",
    "generate_ball_mesh",
    "is_unit_ball",
    "mesh_quality",
    "lumped_l2_error",
    "simplex_adjugates",
]


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; the message carries the line number."""


class DegenerateElementError(ValueError):
    """Raised for zero-volume (or otherwise degenerate) simplices."""


# integer tokens of a mesh file must fit the int64 index arrays
_INT64 = np.iinfo(np.int64)
# elements per simplex_adjugates call of the mesh constructor's geometry pass
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SimplicialMesh:
    """A simplicial complex with its vertices ordered interior-first.

    The constructor copies and freezes the arrays, checks the shapes, the
    index range, that every coordinate is finite and the interior-first
    order against the facet-incidence boundary, and keeps each element's
    volume and the minimum element height from one simplex_adjugates pass
    over chunks of _CHUNK elements, so its transients stay bounded on large
    meshes; an element of vanishing volume raises DegenerateElementError
    naming the first ten.
    """

    dim: int
    vertices: np.ndarray
    simplices: np.ndarray
    n_interior: int

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        vertices = np.array(self.vertices, dtype=float, order="C")
        simplices = np.array(self.simplices, dtype=np.int64, order="C")
        check_dim(self.dim)
        if vertices.ndim != 2 or vertices.shape[1] != self.dim:
            raise ValueError(f"vertices must have shape (n, {self.dim})")
        if simplices.ndim != 2 or simplices.shape[1] != self.dim + 1:
            raise ValueError(f"simplices must have shape (n, {self.dim + 1})")
        n_v = vertices.shape[0]
        if simplices.size and (simplices.min() < 0 or simplices.max() >= n_v):
            raise ValueError("simplex vertex index out of range")
        if not (0 <= self.n_interior <= n_v):
            raise ValueError("n_interior out of range")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} has a coordinate that is not finite: "
                             f"{vertices[bad[0]].tolist()}")

        # one simplex_adjugates pass in chunks of _CHUNK elements, keeping
        # the volumes and the running minimum height
        volumes = np.empty(simplices.shape[0])
        scale = np.max(np.abs(vertices)) if n_v else 1.0
        tol = 1e-14 * max(scale, 1.0) ** self.dim
        min_height = np.inf
        for start in range(0, simplices.shape[0], _CHUNK):
            adjugate, det = simplex_adjugates(vertices[simplices[start:start + _CHUNK]])
            chunk = volumes[start:start + _CHUNK]
            chunk[:] = np.abs(det) / math.factorial(self.dim)
            if np.any(chunk <= tol):
                continue  # reported below, once every volume is known
            rows = np.concatenate([adjugate, adjugate.sum(axis=1, keepdims=True)], axis=1)
            heights = np.abs(det) / np.sqrt(np.einsum("efk,efk->ef", rows, rows).max(axis=1))
            min_height = np.minimum(min_height, heights.min())  # NaN propagates
        bad = np.nonzero(volumes <= tol)[0]
        if bad.size:
            raise DegenerateElementError(
                f"simplices {bad[:10].tolist()} have vanishing volume")

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
        object.__setattr__(self, "_min_height", float(min_height))

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
    """Minimum element height a_h and average element diameter h_bar =
    N^{-1/d} of a mesh with N elements."""

    dim: int
    a_h: float
    h_bar: float


def simplex_adjugates(corners):
    """Adjugates adj(S) = det(S) S^-1 and determinants of the edge matrices
    S of the simplices with corner coordinates ``corners`` (elements, d + 1,
    d), d <= 3, by closed form: every simplex volume, facet measure and
    inverse in fraclap comes from here.

    S[e] holds simplex e's edge vectors from its vertex 0 as columns, so its
    volume is |det| / d! in either orientation.  Row i of adj(S) is normal
    to the facet opposite vertex i + 1, and the sum of the rows to the facet
    opposite vertex 0; each norm is (d - 1)! times that facet's measure (in
    1D the facets are points of measure 1).
    """
    spans = (corners[:, 1:] - corners[:, :1]).transpose(0, 2, 1)
    dim = spans.shape[1]
    edges = [spans[:, :, k] for k in range(dim)]
    if dim == 1:
        adjugate = np.ones_like(spans)
    elif dim == 2:
        (a, c), (b, d) = (e.T for e in edges)
        adjugate = np.stack([np.stack([d, -b], axis=1), np.stack([-c, a], axis=1)], axis=1)
    else:
        e0, e1, e2 = edges
        adjugate = np.stack([np.cross(e1, e2), np.cross(e2, e0), np.cross(e0, e1)], axis=1)
    det = np.einsum("ek,ek->e", adjugate[:, 0, :], spans[:, :, 0])
    return adjugate, det


def _boundary_vertex_mask(simplices, n_vertices, dim):
    """Vertices of the facets that belong to one simplex only.

    While (n_vertices)^dim fits in int64, each sorted facet is one int64
    key, taken one facet combination at a time, so only the (dim + 1) N
    keys are held whole; past that the facets are compared row by row
    after a lexsort."""
    mask = np.zeros(n_vertices, dtype=bool)
    n = simplices.shape[0]
    if n == 0:
        return mask
    combos = [list(c) for c in combinations(range(dim + 1), dim)]
    shape = (n_vertices,) * dim
    if int(n_vertices) ** dim <= _INT64.max:
        keys = np.empty(len(combos) * n, dtype=np.int64)
        for k, c in enumerate(combos):
            faces = simplices[:, c]
            faces.sort(axis=1)
            keys[k * n:(k + 1) * n] = np.ravel_multi_index(faces.T, shape)
        keys.sort()
        # in sorted order, a key unequal to both neighbours is a facet of one
        # simplex only
        single = np.ones(keys.size, dtype=bool)
        differs = keys[1:] != keys[:-1]
        single[1:] &= differs
        single[:-1] &= differs
        mask[np.concatenate(np.unravel_index(keys[single], shape))] = True
        return mask
    faces = np.sort(np.concatenate([simplices[:, c] for c in combos]), axis=1)
    faces = faces[np.lexsort(faces.T)]
    # runs of equal rows: a facet owned by one simplex lies on the boundary
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(faces[1:] != faces[:-1], axis=1))))
    counts = np.diff(np.append(starts, faces.shape[0]))
    mask[faces[starts[counts == 1]].ravel()] = True
    return mask


def _build_mesh(dim, vertices, simplices):
    """Put the interior vertices first (stable within each group, each
    simplex's vertex order kept) and construct the mesh, which validates the
    result on its own.  Returns the mesh and the boundary mask of the input
    vertex numbering."""
    boundary = _boundary_vertex_mask(simplices, vertices.shape[0], dim)
    order = np.concatenate([np.flatnonzero(~boundary), np.flatnonzero(boundary)])
    mesh = SimplicialMesh(dim=dim, vertices=vertices[order],
                          simplices=np.argsort(order)[simplices],
                          n_interior=int(np.count_nonzero(~boundary)))
    return mesh, boundary


def load_mesh(path) -> SimplicialMesh:
    """Read a mesh file and reorder its vertices interior-first; each
    simplex keeps its vertex order, in either orientation.  One reader,
    _read_sections, takes every file: parse failures carry the offending
    line number, as do a byte that is not UTF-8, an integer token past the
    int64 range, a simplex index outside 1..n_vertices and a coordinate
    that is not finite; a simplex that repeats a vertex index is a
    degenerate element.  A boundary section must list each facet-incidence
    boundary vertex once.  The file is read once, as bytes, and a plain
    numeric file converts in memory proportional to the arrays it returns."""
    dim, vertices, simplices, listed = _read_sections(path)

    mesh, boundary = _build_mesh(dim, vertices, simplices)
    if listed is None:
        return mesh
    n_vertices = vertices.shape[0]
    out = np.flatnonzero((listed < 0) | (listed >= n_vertices))
    if out.size:
        raise MeshFormatError(f"boundary section lists vertex {listed[out[0]] + 1}, "
                              f"outside 1..{n_vertices}")
    counts = np.bincount(listed, minlength=n_vertices)
    for bad, what in ((counts[listed] > 1, "more than once"),
                      (~boundary[listed], "but it is not on the facet-incidence boundary")):
        if bad.any():
            raise MeshFormatError(f"boundary section lists vertex "
                                  f"{listed[np.argmax(bad)] + 1} {what}")
    missing = np.flatnonzero(boundary & (counts == 0))
    if missing.size:
        raise MeshFormatError(f"boundary section omits vertex {missing[0] + 1}, which is on "
                              "the facet-incidence boundary")
    return mesh


# bytes.translate table: 1 for the bytes that C's isspace, and so
# np.fromstring, reads as whitespace, 0 for every other byte
_C_SPACE = bytes(int(b in b" \t\n\v\f\r") for b in range(256))
# the bytes a file may hold without the UTF-8 decode: ASCII but 0x1c-0x1f,
# which str.split, unlike C, reads as whitespace
_PLAIN_BYTES = bytes(range(0x1c)) + bytes(range(0x20, 0x80))
# what a section's one-call conversion accepts
_INT_BYTES = b" \t\n\v\f\r+-0123456789"
_FLOAT_BYTES = _INT_BYTES + b".eE"
# np.fromstring saturates past int64 without an error; 18 characters always fit
_INT_CHARS = 18


def _read_sections(path):
    """load_mesh's reader: (dim, vertices, zero-based simplices, zero-based
    boundary list or None) from the file at ``path``.

    A file with a non-ASCII byte or a byte in 0x1c-0x1f first decodes as
    UTF-8, and its str.split whitespace other than C's becomes spaces.  Each
    '#' comment, up to '\\r' or '\\n', becomes spaces in place.  The line of
    a token, or of a byte that is not UTF-8, is one more than the '\\n',
    '\\r' and '\\r\\n' breaks before its offset.  Tokens are the runs of
    bytes between C whitespace.

    A section converts with one np.fromstring call when its bytes hold only
    signs and digits (and '.eE' in coordinates), no integer token is longer
    than 18 characters, and the call gives one number per token;
    fromstring never splits a token in two, so equal counts mean every
    token converted whole, exactly as float() or int() converts it.  Any
    other section converts token by token with int() or float(), which
    names the first bad token with its line number."""
    with open(path, "rb") as fh:
        data = fh.read()

    def line_at(end):
        return (1 + data.count(b"\n", 0, end) + data.count(b"\r", 0, end)
                - data.count(b"\r\n", 0, end))

    if data.translate(None, _PLAIN_BYTES):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MeshFormatError(f"line {line_at(exc.start)}: byte {data[exc.start]:#04x} at "
                                  f"file offset {exc.start} is not UTF-8") from None
        data = re.sub(r"[^\S \t\n\v\f\r]", " ", text).encode("utf-8")
    if b"#" in data:
        data = re.sub(rb"#[^\r\n]*", lambda comment: b" " * len(comment[0]), data)
    space = np.ones(len(data) + 2, dtype=bool)
    space[1:-1] = np.frombuffer(data.translate(_C_SPACE), dtype=bool)
    # token k is data[edges[2k]:edges[2k + 1]]
    edges = np.flatnonzero(space[1:] != space[:-1])
    del space
    n_tokens = edges.size // 2

    def token(k):
        return data[edges[2 * k]:edges[2 * k + 1]].decode("utf-8")

    def line(k):
        return line_at(edges[2 * k])

    def take(first, count, kind, what):
        stop = first + count
        if stop > n_tokens:
            last = line(n_tokens - 1) if n_tokens else 0
            raise MeshFormatError(f"line {last}: unexpected end of file while reading {what}")
        dtype = float if kind is float else np.int64
        if count == 0:
            return np.empty(0, dtype=dtype)
        text = data[edges[2 * first]:edges[2 * stop - 1]]
        if not text.translate(None, _FLOAT_BYTES if kind is float else _INT_BYTES) and (
                kind is float or np.max(edges[2 * first + 1:2 * stop:2]
                                        - edges[2 * first:2 * stop:2]) <= _INT_CHARS):
            try:
                values = np.fromstring(text, dtype=dtype, sep=" ")
            except ValueError:
                values = None
            if values is not None and values.size == count:
                return values
        out = []
        for k in range(first, stop):
            try:
                out.append(kind(token(k)))
            except ValueError:
                raise MeshFormatError(f"line {line(k)}: expected {kind.__name__} for {what}, "
                                      f"got {token(k)!r}") from None
            if kind is int and not _INT64.min <= out[-1] <= _INT64.max:
                raise MeshFormatError(f"line {line(k)}: integer {token(k)!r} for {what} does "
                                      "not fit in 64 bits")
        return np.array(out, dtype=dtype)

    dim, n_vertices, n_simplices = (int(v) for v in take(0, 3, int, "the header"))
    if dim not in (1, 2, 3):
        raise MeshFormatError(f"line {line(0)}: dim must be 1, 2 or 3, got {dim}")
    if min(n_vertices, n_simplices) < 0:
        raise MeshFormatError(f"line {line(0)}: vertex and simplex counts must be "
                              f"nonnegative, got {n_vertices} and {n_simplices}")
    pos = 3
    coords = take(pos, n_vertices * dim, float, "vertex coordinates")
    bad = np.flatnonzero(~np.isfinite(coords))
    if bad.size:
        raise MeshFormatError(f"line {line(pos + bad[0])}: vertex coordinate "
                              f"{token(pos + bad[0])!r} is not finite")
    pos += coords.size
    idx = take(pos, n_simplices * (dim + 1), int, "simplex indices")
    out = np.flatnonzero((idx < 1) | (idx > n_vertices))
    if out.size:
        raise MeshFormatError(f"line {line(pos + out[0])}: simplex vertex index "
                              f"{idx[out[0]]} outside 1..{n_vertices}")
    pos += idx.size
    idx -= 1
    simplices = idx.reshape(n_simplices, dim + 1)
    repeats = np.zeros(n_simplices, dtype=bool)
    for i, j in combinations(range(dim + 1), 2):
        repeats |= simplices[:, i] == simplices[:, j]
    if repeats.any():
        e = np.argmax(repeats)
        raise DegenerateElementError(
            f"simplex {e} repeats a vertex index: {(simplices[e] + 1).tolist()}")

    listed = None
    if pos < n_tokens:
        if token(pos) != "boundary":
            raise MeshFormatError(f"line {line(pos)}: expected optional 'boundary' "
                                  f"section, got {token(pos)!r}")
        listed = take(pos + 1, n_tokens - pos - 1, int, "the boundary section") - 1
    return dim, coords.reshape(n_vertices, dim), simplices, listed


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
    sector.  3D: concentric icosahedral shells (see _ball_mesh_3d).  All
    boundary vertices land on |x| = 1 and every element diameter is at most
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
    return _build_mesh(2, vertices, np.asarray(triangles, dtype=np.int64))[0]


def _icosahedron():
    """Vertices (unit circumradius) and faces of the regular icosahedron: the
    triples of mutually nearest vertices, in lexicographic order."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            raw.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    verts = np.asarray(raw) / math.sqrt(1.0 + phi * phi)
    dist = np.linalg.norm(verts[:, None] - verts[None], axis=-1)
    near = np.isclose(dist, dist[dist > 0].min())
    faces = [f for f in combinations(range(12), 3)
             if all(near[i, j] for i, j in combinations(f, 2))]
    return verts, faces


def _ball_mesh_3d(target_h):
    """Concentric icosahedral shells.

    Each of the 20 tetrahedra spanned by the center and an icosahedron face is
    subdivided at frequency K through the Kuhn (Freudenthal) lattice of
    sorted coordinates K >= x1 >= x2 >= x3 >= 0 (affine corners: center, A,
    B, C with the face corners in global vertex order, which makes shared
    radial faces conform).  Lattice shell x1 = j then projects radially onto
    the sphere of radius j/K, so the mesh is a stack of geodesic shells with
    near-constant element size.

    The lattice is one array (cells i >= j >= l in lexicographic order, each
    split along the six paths of permutations(range(3))).  A vertex is keyed
    by its shell and positive-weight (face corner, weight) pairs, so faces
    share it, and numbered by first appearance over (face, tet, corner).
    """
    k_freq = max(2, math.ceil(1.22 / target_h))
    if 20 * k_freq ** 3 > 4_000_000:
        raise MemoryError(
            f"target_h {target_h} needs {20 * k_freq ** 3} elements, beyond the memory budget")
    ico_verts, ico_faces = _icosahedron()
    faces = np.sort(np.asarray(ico_faces), axis=1)

    cells = np.indices((k_freq,) * 3).reshape(3, -1).T
    cells = cells[(cells[:, 0] >= cells[:, 1]) & (cells[:, 1] >= cells[:, 2])]
    paths = np.cumsum(np.eye(3, dtype=np.int64)[list(permutations(range(3)))], axis=1)
    corners = np.concatenate([np.zeros((6, 1, 3), dtype=np.int64), paths], axis=1)
    lattice = (cells[:, None, None] + corners).reshape(-1, 4, 3)
    sums = lattice.sum(axis=1)  # keep the tetrahedra inside x1 >= x2 >= x3
    lattice = lattice[(sums[:, 0] >= sums[:, 1]) & (sums[:, 1] >= sums[:, 2])]

    # weights (x1 - x2, x2 - x3, x3) on the face corners; the key moves the
    # zero weights last, so that it keeps only the positive pairs, in order
    weights = -np.diff(lattice, axis=-1, append=0)
    order = np.argsort(weights == 0, axis=-1, kind="stable")
    key_w = np.take_along_axis(weights, order, axis=-1)
    key_v = np.where(key_w > 0, faces[:, order], 0)
    shell = lattice[..., 0]
    keys = np.ravel_multi_index(
        (shell, key_v[..., 0], key_w[..., 0], key_v[..., 1], key_w[..., 1],
         key_v[..., 2], key_w[..., 2]), (k_freq + 1, 12) * 3 + (k_freq + 1,))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    number = np.argsort(by_first)

    face, tet, corner = np.unravel_index(first[by_first], keys.shape)
    w = weights[tet, corner]
    corner_verts = ico_verts[faces[face]]
    point = np.zeros((face.size, 3))
    for k in range(3):
        point += w[:, k, None] * corner_verts[:, k]
    # per-row norms: norm(axis=1) sums in another order and can differ by an ulp
    norms = np.array([np.linalg.norm(p) for p in point])
    norms[norms == 0.0] = 1.0  # the center, all weights zero
    vertices = (shell[tet, corner] / k_freq)[:, None] * point / norms[:, None]
    return _build_mesh(3, vertices, number[inverse].reshape(-1, 4))[0]


def mesh_quality(mesh: SimplicialMesh) -> MeshQuality:
    """a_h = min over elements of dim * volume / max facet measure (the
    minimum element height), which the mesh's constructor keeps from its one
    simplex_adjugates pass; h_bar = n_elements^{-1/dim}."""
    if mesh.n_elements == 0:
        raise ValueError("mesh has no elements")
    return MeshQuality(
        dim=mesh.dim,
        a_h=mesh._min_height,
        h_bar=float(mesh.n_elements ** (-1.0 / mesh.dim)),
    )


def is_unit_ball(mesh: SimplicialMesh) -> bool:
    """Whether the mesh fills the unit ball: every boundary vertex has
    ||x| - 1| <= 1e-12 and every vertex |x| <= 1 + 1e-12."""
    radii = np.sqrt(np.einsum("ij,ij->i", mesh.vertices, mesh.vertices))
    return bool(np.abs(radii[mesh.n_interior:] - 1.0).max(initial=0.0) <= 1e-12
                and radii.max(initial=0.0) <= 1.0 + 1e-12)


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

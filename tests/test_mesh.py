import dataclasses
import hashlib
import io
import math
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import fraclap.mesh as mesh_module
from fraclap.mesh import (DegenerateElementError, MeshFormatError, SimplicialMesh,
                          _boundary_vertex_mask, _build_mesh, _icosahedron, generate_ball_mesh,
                          load_mesh, lumped_l2_error, mesh_quality, save_mesh,
                          simplex_adjugates)
from fraclap.transfer import choose_grid

from conftest import ball_mesh, rotated, scattered_ball, sliver_mesh


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


SQUARE = [
    "2 4 2",
    "0.0 0.0", "1.0 0.0", "1.0 1.0", "0.0 1.0",
    "1 2 3", "1 3 4",
]

SQUARE_WITH_CENTER = [
    "2 5 4",
    "0.0 0.0", "1.0 0.0", "1.0 1.0", "0.0 1.0", "0.5 0.5",
    "1 2 5", "2 3 5", "3 4 5", "4 1 5",
]

PENTAGON_FAN = ["2 6 5", "0.0 0.0"] + [
    f"{math.cos(2 * math.pi * k / 5)!r} {math.sin(2 * math.pi * k / 5)!r}"
    for k in range(5)
] + [f"1 {2 + k} {2 + (k + 1) % 5}" for k in range(5)]


class TestLoadMesh:
    def test_square_all_boundary(self, tmp_path):
        path = tmp_path / "square.msh"
        write_lines(path, SQUARE)
        mesh = load_mesh(path)
        assert mesh.n_vertices == 4
        assert mesh.n_elements == 2
        assert mesh.n_interior == 0

    def test_pentagon_fan_single_interior(self, tmp_path):
        path = tmp_path / "pent.msh"
        write_lines(path, PENTAGON_FAN)
        mesh = load_mesh(path)
        assert mesh.n_interior == 1
        # the interior vertex is the center, reordered to index 0
        np.testing.assert_allclose(mesh.vertices[0], [0.0, 0.0], atol=1e-15)

    def test_repeated_vertex_is_degenerate(self, tmp_path):
        path = tmp_path / "bad.msh"
        write_lines(path, ["2 3 1", "0 0", "1 0", "0 1", "1 1 2"])
        with pytest.raises(DegenerateElementError):
            load_mesh(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "garbled.msh"
        write_lines(path, ["2 4 2", "0.0 0.0", "1.0 zap", "1.0 1.0", "0.0 1.0",
                           "1 2 3", "1 3 4"])
        with pytest.raises(MeshFormatError, match="line 3"):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.msh"
        write_lines(path, ["2 4 2", "0.0 0.0"])
        with pytest.raises(MeshFormatError, match="unexpected end"):
            load_mesh(path)

    def test_negative_orientation_kept(self, tmp_path):
        # a clockwise triangle keeps its vertex order, built directly or
        # loaded, and gets a positive volume
        path = tmp_path / "flip.msh"
        write_lines(path, ["2 3 1", "0 0", "0 1", "1 0", "1 2 3"])
        vertices = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        built = SimplicialMesh(dim=2, vertices=vertices, simplices=[[0, 1, 2]], n_interior=0)
        for mesh in (built, load_mesh(path)):
            np.testing.assert_array_equal(mesh.vertices, vertices)
            np.testing.assert_array_equal(mesh.simplices, [[0, 1, 2]])
            assert simplex_adjugates(mesh.vertices[mesh.simplices])[1][0] < 0.0  # clockwise
            assert mesh.element_volumes()[0] == 0.5

    def test_round_trip_exact(self, tmp_path):
        mesh = ball_mesh(2, 6)
        path = tmp_path / "ball.msh"
        save_mesh(mesh, path)
        again = load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, again.vertices)
        np.testing.assert_array_equal(mesh.simplices, again.simplices)
        assert mesh.n_interior == again.n_interior

    def test_boundary_section_mismatch(self, tmp_path):
        path = tmp_path / "wrongb.msh"
        write_lines(path, SQUARE + ["boundary", "1 2"])
        with pytest.raises(MeshFormatError, match="boundary"):
            load_mesh(path)

    @pytest.mark.parametrize("listed,message", [
        ("5 0 99 -3", "boundary section lists vertex 0, outside 1..5"),
        ("1 2 3 4 99", "boundary section lists vertex 99, outside 1..5"),
        ("1 2 3 3 4", "boundary section lists vertex 3 more than once"),
        ("1 2 3 4 5", "boundary section lists vertex 5 but it is not on the "
                      "facet-incidence boundary"),
        ("5 1 2 3", "boundary section lists vertex 5 but it is not on the "
                    "facet-incidence boundary"),
        ("4 1 2", "boundary section omits vertex 3, which is on the facet-incidence boundary"),
        # an empty trailing section converts, and the check names what it omits
        ("", "boundary section omits vertex 1, which is on the facet-incidence boundary")])
    def test_boundary_section_lists_other_vertices(self, listed, message, tmp_path):
        # a count check alone accepts "5 0 99 -3": four entries, four boundary vertices
        path = tmp_path / "wrongset.msh"
        write_lines(path, SQUARE_WITH_CENTER + ["boundary", listed])
        with pytest.raises(MeshFormatError) as info:
            load_mesh(path)
        assert str(info.value) == message

    def test_boundary_section_any_order(self, tmp_path):
        path = tmp_path / "shuffledb.msh"
        write_lines(path, SQUARE_WITH_CENTER + ["boundary", "3", "1 4 2"])
        assert load_mesh(path).n_interior == 1

    @pytest.mark.parametrize("header,message", [
        ("2 -2 0", "got -2 and 0"), ("2 4 -1", "got 4 and -1"), ("3 -1 -1", "got -1 and -1")])
    def test_negative_counts(self, header, message, tmp_path):
        # "2 -2 0" used to load as a mesh with no vertices
        path = tmp_path / "negative.msh"
        write_lines(path, [header] + SQUARE[1:])
        with pytest.raises(MeshFormatError,
                           match=f"^line 1: vertex and simplex counts must be nonnegative, "
                                 f"{message}$"):
            load_mesh(path)


class TestBallMesh2d:
    def test_containment(self):
        mesh = generate_ball_mesh(2, 0.5)
        assert np.max(np.linalg.norm(mesh.vertices, axis=1)) <= 1.0 + 1e-12

    def test_boundary_on_circle(self):
        mesh = ball_mesh(2, 8)
        boundary = mesh.vertices[mesh.n_interior:]
        np.testing.assert_allclose(np.linalg.norm(boundary, axis=1), 1.0, atol=1e-12)

    def test_area_deficit(self):
        mesh = generate_ball_mesh(2, 0.1)
        assert abs(mesh.element_volumes().sum() - math.pi) <= 0.15

    def test_element_size_contracts(self):
        target = 0.1
        mesh = generate_ball_mesh(2, target)
        pts = mesh.vertices[mesh.simplices]
        longest = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                longest = max(longest, np.linalg.norm(pts[:, i] - pts[:, j], axis=1).max())
        assert longest <= 2.0 * target
        assert mesh_quality(mesh).a_h >= target / 10.0

    def test_refinement_growth(self):
        for coarse in (0.4, 0.2):
            n_coarse = generate_ball_mesh(2, coarse).n_elements
            n_fine = generate_ball_mesh(2, coarse / 2).n_elements
            assert 4 * 0.6 <= n_fine / n_coarse <= 4 * 1.7

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            generate_ball_mesh(2, 0.0)
        with pytest.raises(ValueError):
            generate_ball_mesh(2, 1.5)
        with pytest.raises(ValueError):
            generate_ball_mesh(1, 0.5)


class TestBallMesh3d:
    def test_volume_bounds(self):
        mesh = generate_ball_mesh(3, 0.25)
        volume = mesh.element_volumes().sum()
        assert volume <= 4 * math.pi / 3
        assert volume >= 4 * math.pi / 3 - 0.6

    def test_boundary_on_sphere(self):
        mesh = ball_mesh(3, 4)
        boundary = mesh.vertices[mesh.n_interior:]
        np.testing.assert_allclose(np.linalg.norm(boundary, axis=1), 1.0, atol=1e-12)

    def test_size_contracts(self):
        target = 0.25
        mesh = generate_ball_mesh(3, target)
        pts = mesh.vertices[mesh.simplices]
        longest = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                longest = max(longest, np.linalg.norm(pts[:, i] - pts[:, j], axis=1).max())
        assert longest <= 2.0 * target
        assert mesh_quality(mesh).a_h >= target / 10.0

    def test_refinement_growth(self):
        n_coarse = generate_ball_mesh(3, 0.4).n_elements
        n_fine = generate_ball_mesh(3, 0.2).n_elements
        assert 8 * 0.6 <= n_fine / n_coarse <= 8 * 1.7


def reference_ball_mesh_3d(target_h):
    """The per-vertex dict loop that the array construction of
    _ball_mesh_3d replaces: the same Kuhn lattice, walked cell by cell and
    path by path, numbering vertices in order of first appearance."""
    k_freq = max(2, math.ceil(1.22 / target_h))
    ico_verts, ico_faces = _icosahedron()
    vert_index = {}
    coords = []

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
                for path in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
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
    return _build_mesh(3, np.asarray(coords), np.asarray(tets, dtype=np.int64))[0]


class TestBallMesh3dAgainstReference:
    @pytest.mark.parametrize("target_h", [0.9, 0.5, 0.3, 0.2, 0.15])
    def test_bitwise_equal_to_loop(self, target_h):
        expected = reference_ball_mesh_3d(target_h)
        mesh = generate_ball_mesh(3, target_h)
        assert mesh.n_interior == expected.n_interior
        assert mesh.vertices.shape == expected.vertices.shape
        np.testing.assert_array_equal(mesh.vertices.view(np.int64),
                                      expected.vertices.view(np.int64))
        np.testing.assert_array_equal(mesh.simplices, expected.simplices)

    def test_element_cap(self):
        # K = 61 at h = 0.02: 20 K^3 = 4,539,620 elements, past the 4e6 cap
        with pytest.raises(MemoryError, match="needs 4539620 elements, beyond the memory budget"):
            generate_ball_mesh(3, 0.02)


# n_interior and the SHA-1 of the little-endian int64 simplices of
# generate_ball_mesh: integer topology, the same on every platform
BALL_TOPOLOGY = {
    (2, 0.3): (37, "aa979a8a1eabc3b8ae4729c06584cd8ffc2ea659"),
    (2, 0.1): (271, "6520dc3c640f309b39a613a47d160b41172e5a75"),
    (2, 0.05): (1141, "ead1c4395a921e8daad7b1de1c5cfbaf4bfa006c"),
    (3, 0.5): (55, "0b5dc858673ed9c269ba7f355dff4f9a50ae7820"),
    (3, 0.3): (309, "eb8ac34307e18fc2278ae0f42c1e2e23e64f8f45"),
    (3, 0.2): (923, "b35358ec03fc9f34a30074c9c73e8e656e47915c"),
}


@pytest.mark.parametrize("dim,target_h", sorted(BALL_TOPOLOGY))
def test_ball_mesh_topology_is_pinned(dim, target_h):
    mesh = generate_ball_mesh(dim, target_h)
    simplices = np.ascontiguousarray(mesh.simplices, dtype="<i8")
    assert (mesh.n_interior, hashlib.sha1(simplices.tobytes()).hexdigest()) == \
        BALL_TOPOLOGY[dim, target_h]


class TestBoundaryDetection:
    def test_invariant_under_permutation(self, tmp_path):
        mesh = ball_mesh(2, 5)
        rng = np.random.default_rng(9)
        perm = rng.permutation(mesh.n_vertices)
        inverse = np.argsort(perm)
        shuffled_vertices = mesh.vertices[perm]
        shuffled_simplices = inverse[mesh.simplices]
        order = rng.permutation(mesh.n_elements)
        path = tmp_path / "shuffled.msh"
        lines = [f"2 {mesh.n_vertices} {mesh.n_elements}"]
        lines += [f"{float(v[0])!r} {float(v[1])!r}" for v in shuffled_vertices]
        lines += [" ".join(str(i + 1) for i in shuffled_simplices[e]) for e in order]
        write_lines(path, lines)
        again = load_mesh(path)
        assert again.n_interior == mesh.n_interior
        boundary_a = {tuple(v) for v in mesh.vertices[mesh.n_interior:]}
        boundary_b = {tuple(v) for v in again.vertices[again.n_interior:]}
        assert boundary_a == boundary_b


def reference_boundary_vertex_mask(simplices, n_vertices, dim):
    """Facets counted with np.unique(axis=0): the formulation the sorted-run
    count replaces."""
    mask = np.zeros(n_vertices, dtype=bool)
    faces = np.concatenate(
        [simplices[:, list(c)] for c in combinations(range(dim + 1), dim)])
    uniq, counts = np.unique(np.sort(faces, axis=1), axis=0, return_counts=True)
    mask[uniq[counts == 1].ravel()] = True
    return mask


def reference_first_repeat(simplices, dim):
    """Index of the first simplex that repeats a vertex, by the per-simplex
    set loop the sorted-row comparison replaces."""
    for e in range(simplices.shape[0]):
        if len(set(simplices[e])) != dim + 1:
            return e
    return None


MASK_MESHES = [lambda: ball_mesh(2, 5), lambda: ball_mesh(2, 20), lambda: ball_mesh(3, 3),
               lambda: generate_ball_mesh(3, 0.2), lambda: scattered_ball(12, 0.3)]


class TestBoundaryMaskAgainstReference:
    @pytest.mark.parametrize("make", MASK_MESHES)
    def test_same_mask_as_unique_count(self, make):
        mesh = make()
        rng = np.random.default_rng(3)
        # shuffled simplex order and vertex order inside each simplex
        simplices = rng.permuted(mesh.simplices[rng.permutation(mesh.n_elements)], axis=1)
        expected = reference_boundary_vertex_mask(simplices, mesh.n_vertices, mesh.dim)
        got = _boundary_vertex_mask(simplices, mesh.n_vertices, mesh.dim)
        np.testing.assert_array_equal(got, expected)
        assert np.count_nonzero(got) == mesh.n_vertices - mesh.n_interior

    def test_lexsort_only_past_int64_keys(self, monkeypatch):
        mesh = ball_mesh(3, 3)
        expected = reference_boundary_vertex_mask(mesh.simplices, mesh.n_vertices, 3)
        real = np.lexsort
        calls = []

        def spy(keys):
            calls.append(len(keys))
            return real(keys)
        monkeypatch.setattr(np, "lexsort", spy)
        np.testing.assert_array_equal(
            _boundary_vertex_mask(mesh.simplices, mesh.n_vertices, 3), expected)
        assert calls == []
        # (2^21)^3 = 2^63 facet keys do not fit in int64
        got = _boundary_vertex_mask(mesh.simplices, 2 ** 21, 3)
        assert calls == [3]
        np.testing.assert_array_equal(got[:mesh.n_vertices], expected)
        assert not got[mesh.n_vertices:].any()

    def test_one_dimensional_and_empty(self):
        path = np.array([[0, 1], [1, 2], [2, 3]])
        np.testing.assert_array_equal(_boundary_vertex_mask(path, 4, 1),
                                      [True, False, False, True])
        assert not _boundary_vertex_mask(np.zeros((0, 3), dtype=np.int64), 3, 2).any()

    @pytest.mark.parametrize("make", MASK_MESHES)
    def test_repeated_vertex_names_first_simplex(self, make, tmp_path):
        mesh = make()
        dim = mesh.dim
        simplices = mesh.simplices.copy()
        rng = np.random.default_rng(11)
        bad = np.sort(rng.choice(mesh.n_elements, size=3, replace=False))
        for e, j in zip(bad, (1, dim, 0)):
            simplices[e, j] = simplices[e, (j + 1) % (dim + 1)]
        assert reference_first_repeat(simplices, dim) == bad[0]
        path = tmp_path / "repeats.msh"
        lines = [f"{dim} {mesh.n_vertices} {mesh.n_elements}"]
        lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
        lines += [" ".join(str(i + 1) for i in row) for row in simplices]
        write_lines(path, lines)
        message = (f"simplex {bad[0]} repeats a vertex index: "
                   f"{(simplices[bad[0]] + 1).tolist()}")
        with pytest.raises(DegenerateElementError) as info:
            load_mesh(path)
        assert str(info.value) == message


def reference_load_mesh(path) -> SimplicialMesh:
    """The per-token parser that defines the mesh file format."""
    tokens = []  # (line_number, token)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line breaks before the byte, read with universal newlines
        lineno = 1 + io.StringIO(raw[:exc.start].decode("utf-8"), newline=None).read().count("\n")
        raise MeshFormatError(f"line {lineno}: byte {raw[exc.start]:#04x} at file offset "
                              f"{exc.start} is not UTF-8") from None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            tokens.append((lineno, tok))
    pos = 0

    def take(count, kind, what):
        nonlocal pos
        if pos + count > len(tokens):
            last = tokens[-1][0] if tokens else 0
            raise MeshFormatError(f"line {last}: unexpected end of file while reading {what}")
        out = []
        for _ in range(count):
            lineno, tok = tokens[pos]
            pos += 1
            try:
                out.append(kind(tok))
            except ValueError:
                raise MeshFormatError(f"line {lineno}: expected {kind.__name__} for {what}, "
                                      f"got {tok!r}") from None
            if kind is int and not -2 ** 63 <= out[-1] < 2 ** 63:
                raise MeshFormatError(f"line {lineno}: integer {tok!r} for {what} does not "
                                      "fit in 64 bits")
        return out

    dim, n_vertices, n_simplices = take(3, int, "the header")
    if dim not in (1, 2, 3):
        raise MeshFormatError(f"line {tokens[0][0]}: dim must be 1, 2 or 3, got {dim}")
    if n_vertices < 0 or n_simplices < 0:
        raise MeshFormatError(f"line {tokens[0][0]}: vertex and simplex counts must be "
                              f"nonnegative, got {n_vertices} and {n_simplices}")
    start = pos
    coords = take(n_vertices * dim, float, "vertex coordinates")
    for offset, x in enumerate(coords):
        if not math.isfinite(x):
            lineno, tok = tokens[start + offset]
            raise MeshFormatError(f"line {lineno}: vertex coordinate {tok!r} is not finite")
    vertices = np.asarray(coords, dtype=float).reshape(n_vertices, dim)
    start = pos
    idx = take(n_simplices * (dim + 1), int, "simplex indices")
    for offset, v in enumerate(idx):
        if not 1 <= v <= n_vertices:
            raise MeshFormatError(f"line {tokens[start + offset][0]}: simplex vertex index "
                                  f"{v} outside 1..{n_vertices}")
    simplices = np.asarray(idx, dtype=np.int64).reshape(n_simplices, dim + 1) - 1
    ordered = np.sort(simplices, axis=1)
    repeats = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if repeats.size:
        e = repeats[0]
        raise DegenerateElementError(
            f"simplex {e} repeats a vertex index: {(simplices[e] + 1).tolist()}")

    explicit_boundary = None
    if pos < len(tokens):
        lineno, tok = tokens[pos]
        if tok != "boundary":
            raise MeshFormatError(f"line {lineno}: expected optional 'boundary' section, "
                                  f"got {tok!r}")
        pos += 1
        explicit_boundary = np.asarray(take(len(tokens) - pos, int, "the boundary section"),
                                       dtype=np.int64) - 1

    mesh, boundary = _build_mesh(dim, vertices, simplices)
    if explicit_boundary is not None:
        listed = [v + 1 for v in explicit_boundary.tolist()]
        counts = Counter(listed)
        for v in listed:
            if not 1 <= v <= n_vertices:
                raise MeshFormatError(
                    f"boundary section lists vertex {v}, outside 1..{n_vertices}")
        for v in listed:
            if counts[v] > 1:
                raise MeshFormatError(f"boundary section lists vertex {v} more than once")
        for v in listed:
            if not boundary[v - 1]:
                raise MeshFormatError(f"boundary section lists vertex {v} but it is not on "
                                      "the facet-incidence boundary")
        for v in range(1, n_vertices + 1):
            if boundary[v - 1] and v not in counts:
                raise MeshFormatError(f"boundary section omits vertex {v}, which is on the "
                                      "facet-incidence boundary")
    return mesh


def load_outcome(loader, path):
    """The mesh's bits, or the type and text of what the loader raised."""
    try:
        mesh = loader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (mesh.dim, mesh.n_interior, mesh.vertices.view(np.int64).tolist(),
            mesh.simplices.tolist())


def assert_same_outcome(path):
    # load_mesh agrees with the per-token reference
    expected = load_outcome(reference_load_mesh, path)
    assert load_outcome(load_mesh, path) == expected
    return expected


# the pentagon fan with a boundary section; each slot names (line, token) of
# the base file that an unusual token replaces
FAN_WITH_BOUNDARY = PENTAGON_FAN + ["boundary", "2 3 4 5 6"]
SLOTS = {"dim": (0, 0), "n_vertices": (0, 1), "coordinate": (2, 1), "index": (7, 0),
         "boundary": (13, 2)}
UNUSUAL = ["+1", "1_000", "1.0", "nan", "inf", "1e400", "-nan", "-0", "1e", "zap", "0x1",
           "99999999999999999999999", "\u0663", "1__0", "Infinity", "9223372036854775807",
           "-9223372036854775809", "7", "0"]


class TestLoadMeshAgainstReference:
    @pytest.mark.parametrize("make", MASK_MESHES + [lambda: ball_mesh(3, 2)])
    def test_round_trip_matches_reference(self, make, tmp_path):
        mesh = make()
        path = tmp_path / "mesh.msh"
        save_mesh(mesh, path)
        dim, n_interior, bits, simplices = assert_same_outcome(path)
        assert (dim, n_interior) == (mesh.dim, mesh.n_interior)
        assert bits == mesh.vertices.view(np.int64).tolist()
        assert simplices == mesh.simplices.tolist()

    def test_comments_blank_lines_and_split_records(self, tmp_path):
        plain = tmp_path / "plain.msh"
        save_mesh(ball_mesh(2, 4), plain)
        expected = load_outcome(load_mesh, plain)
        lines = plain.read_text(encoding="utf-8").splitlines()
        edited = ["# leading comment", "", lines[0] + "  # header", ""]
        for k, line in enumerate(lines[1:], start=1):
            if k == 3:
                first, rest = line.split(" ", 1)
                edited += [first, "", rest]           # a record split mid-line
            elif k % 5 == 0:
                edited.append(line + "#glued comment 1 2 3")
            elif k % 7 == 0:
                edited += ["   ", "\t" + line + "\t"]
            else:
                edited.append(line)
        edited.append("# trailing comment")
        layouts = {
            "commented": "\n".join(edited),
            "crlf": "\r\n".join(edited),
            "cr": "\r".join(edited),
            "tabs": "\n".join("\t" + line.replace(" ", "\t\t") + " \t" for line in lines),
            "records_per_line": "\n".join(" ".join(lines[k:k + 3])
                                          for k in range(0, len(lines), 3)),
            "one_line": " ".join(lines).replace(" ", "\v\f\r"),
        }
        for name, text in layouts.items():
            path = tmp_path / f"{name}.msh"
            path.write_bytes(text.encode("utf-8"))
            assert assert_same_outcome(path) == expected, name

    @pytest.mark.parametrize("slot", sorted(SLOTS))
    @pytest.mark.parametrize("token", UNUSUAL)
    def test_unusual_token(self, slot, token, tmp_path):
        line, k = SLOTS[slot]
        lines = list(FAN_WITH_BOUNDARY)
        words = lines[line].split()
        words[k] = token
        lines[line] = " ".join(words)
        path = tmp_path / "unusual.msh"
        write_lines(path, lines)
        assert_same_outcome(path)

    @pytest.mark.parametrize("layout", ["\n", "\r", "\r\n", "#"])
    @pytest.mark.parametrize("slot,token,expected", [
        ("index", "+1", None), ("coordinate", "1_000", None),
        ("index", "0000000000000000001", None), ("boundary", "+000000000000000004", None),
        ("coordinate", "nan", "line 3: vertex coordinate 'nan' is not finite"),
        ("coordinate", "1e400", "line 3: vertex coordinate '1e400' is not finite"),
        # 1_000 parses as vertex 1000, which the six-vertex fan does not have
        ("boundary", "1_000", MeshFormatError),
        ("index", "1.0", "line 8: expected int for simplex indices, got '1.0'"),
        ("index", "+-1", "line 8: expected int for simplex indices, got '+-1'"),
        ("index", "1+2", "line 8: expected int for simplex indices, got '1+2'"),
        ("coordinate", "1e5e5", "line 3: expected float for vertex coordinates, got '1e5e5'"),
        ("coordinate", "1+2", "line 3: expected float for vertex coordinates, got '1+2'"),
        ("dim", "1_000", "line 1: dim must be 1, 2 or 3, got 1000"),
        ("dim", "4", "line 1: dim must be 1, 2 or 3, got 4"),
        ("n_vertices", "-6", "line 1: vertex and simplex counts must be nonnegative, got -6 "
                             "and 5"),
        ("boundary", "99999999999999999999999",
         "line 14: integer '99999999999999999999999' for the boundary section does not "
         "fit in 64 bits"),
        ("boundary", "zap", "line 14: expected int for the boundary section, got 'zap'"),
        ("index", "99999999999999999999999",
         "line 8: integer '99999999999999999999999' for simplex indices does not fit in "
         "64 bits"),
        ("index", "-9223372036854775809",
         "line 8: integer '-9223372036854775809' for simplex indices does not fit in 64 bits"),
        ("n_vertices", "9223372036854775808",
         "line 1: integer '9223372036854775808' for the header does not fit in 64 bits"),
        # the largest int64 converts, and is then out of range
        ("index", "9223372036854775807",
         "line 8: simplex vertex index 9223372036854775807 outside 1..6"),
        # 19 characters: past what np.fromstring converts without saturating
        ("index", "1000000000000000000",
         "line 8: simplex vertex index 1000000000000000000 outside 1..6"),
        ("index", "7", "line 8: simplex vertex index 7 outside 1..6"),
        ("index", "0", "line 8: simplex vertex index 0 outside 1..6")])
    def test_unusual_token_outcomes(self, slot, token, expected, layout, tmp_path):
        # pinned, so that the comparison with the reference is not vacuous;
        # lines break at LF, lone CR or CRLF, or each line follows a comment
        # line, which doubles every line number
        line, k = SLOTS[slot]
        lines = list(FAN_WITH_BOUNDARY)
        words = lines[line].split()
        words[k] = token
        lines[line] = " ".join(words)
        if layout == "#":
            lines = [text for n, line in enumerate(lines) for text in (f"# line {n}", line)]
            layout = "\n"
            if isinstance(expected, str):
                expected = re.sub(r"^line (\d+)", lambda m: f"line {2 * int(m[1])}", expected)
        path = tmp_path / "unusual.msh"
        path.write_bytes((layout.join(lines) + layout).encode("utf-8"))
        outcome = assert_same_outcome(path)
        if expected is None:
            assert isinstance(outcome[0], int)
        elif isinstance(expected, str):
            assert outcome == (MeshFormatError, expected)
        else:
            assert outcome[0] is expected

    def test_truncated_and_trailing(self, tmp_path):
        path = tmp_path / "t.msh"
        fan = FAN_WITH_BOUNDARY
        for lines in (["2 4 2", "0.0 0.0", "# end"], [], ["# only a comment"], ["2"],
                      ["4 1 1", "0 0 0 0", "1 1 1 1 1"], ["2 -1 0"], ["2 0 0", "7"],
                      SQUARE + ["boundary"], SQUARE + ["bound", "1 2 3 4"],
                      SQUARE + ["boundary", "1 2 3 x"], ["2 4 2", "0 0", "1 0", "1 1"],
                      # str.split splits at 0x1c-0x1f and at non-ASCII spaces, C does not
                      fan[:2] + [fan[2].replace(" ", "\x1c")] + fan[3:],
                      fan[:1] + [fan[1].replace(" ", "\u2003")] + fan[2:],
                      fan[:1] + [fan[1].replace(" ", "\x85")] + fan[2:],
                      [fan[0] + " # header"] + fan[1:], fan[:12] + ["boundaries"], fan[:10]):
            write_lines(path, lines)
            assert_same_outcome(path)

    def test_invalid_utf8_names_its_file_offset(self, tmp_path):
        # the whole file decodes at once, so the position is the byte's
        # offset in the file, not in an 8,192-byte chunk
        head = ("\n".join(PENTAGON_FAN[:3]) + "\n# " + "x" * 10_000 + "\n").encode("utf-8")
        path = tmp_path / "bad_utf8.msh"
        path.write_bytes(head + b"0.5 \xff\n" + "\n".join(PENTAGON_FAN[4:]).encode("utf-8"))
        offset = len(head) + 4
        assert offset > 8192
        assert assert_same_outcome(path) == (
            MeshFormatError, f"line 5: byte 0xff at file offset {offset} is not UTF-8")

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize("bad,where", [(b"\xff", 0), (b"\xc3(", 2), (b"\xe2\x82", 7),
                                           (b"\x80", 11)])
    def test_invalid_utf8_names_its_line(self, newline, bad, where, tmp_path):
        # the bad bytes open line where + 1 under every kind of line break;
        # '\r\n' counts once
        lines = list(PENTAGON_FAN)
        lines[where] = "@" + lines[where]
        data = newline.join(lines).encode("utf-8")
        offset = data.index(b"@")
        path = tmp_path / "bad_utf8.msh"
        path.write_bytes(data[:offset] + bad + data[offset + 1:])
        assert assert_same_outcome(path) == (
            MeshFormatError,
            f"line {where + 1}: byte {bad[0]:#04x} at file offset {offset} is not UTF-8")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(
        ["0", "1", "2", "3", "4", "0.5", "-1", "1e400", "nan", "+2", "2.0", "boundary",
         "#", "x", "1_0"]), max_size=5), max_size=12))
    def test_random_token_files(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("fuzz") / "f.msh"
        write_lines(path, ["2 3 1", "0 0", "1 0", "0 1"] + [" ".join(r) for r in rows])
        assert_same_outcome(path)
        write_lines(path, [" ".join(r) for r in rows])
        assert_same_outcome(path)


class TestLoadMemory:
    """Loading takes memory in proportion to the arrays it returns, and the
    constructor's chunked geometry pass is the whole-mesh formula."""

    @pytest.fixture(scope="class")
    def ball(self):
        mesh = generate_ball_mesh(3, 0.1)
        assert mesh.n_elements > 2 * mesh_module._CHUNK  # at least three chunks
        return mesh

    def test_load_peak(self, ball, tmp_path):
        path = tmp_path / "ball.msh"
        save_mesh(ball, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] += "  # dim n_vertices n_simplices"
        for k in range(100, len(lines), 100):
            lines[k] += f" # line {k + 1}"
        commented = tmp_path / "commented.msh"
        write_lines(commented, lines)
        for file in (path, commented):
            tracemalloc.start()
            try:
                mesh = load_mesh(file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(mesh.vertices.view(np.int64), ball.vertices.view(np.int64))
            assert np.array_equal(mesh.simplices, ball.simplices)
            assert mesh.n_interior == ball.n_interior
            # 12-14 MiB traced for 1.7 MiB of arrays, with or without the
            # comments; the per-token parser peaked at 37.9 MiB
            assert peak < 20 * 2 ** 20, file.name

    def test_chunked_geometry_is_the_whole_mesh_formula(self, ball):
        for mesh in (ball, rotated(ball, 2)):
            adjugate, det = simplex_adjugates(mesh.vertices[mesh.simplices])
            rows = np.concatenate([adjugate, adjugate.sum(axis=1, keepdims=True)], axis=1)
            heights = np.abs(det) / np.sqrt(np.einsum("efk,efk->ef", rows, rows).max(axis=1))
            volumes = np.abs(det) / math.factorial(mesh.dim)
            assert mesh.element_volumes().view(np.int64).tolist() == \
                volumes.view(np.int64).tolist()
            assert mesh_quality(mesh).a_h == float(heights.min())

    def test_degenerate_element_in_a_later_chunk(self, ball):
        # the volumes of every chunk are checked before the error names the
        # first ten degenerate simplices
        vertices = ball.vertices.copy()
        simplices = ball.simplices.copy()
        late = [mesh_module._CHUNK + 5, 2 * mesh_module._CHUNK + 1]
        simplices[late, 1] = simplices[late, 0]
        with pytest.raises(DegenerateElementError,
                           match=rf"simplices \[{late[0]}, {late[1]}\] have vanishing volume"):
            SimplicialMesh(dim=3, vertices=vertices, simplices=simplices,
                           n_interior=ball.n_interior)


class TestMeshQuality:
    def tri_mesh(self, pts):
        return SimplicialMesh(dim=2, vertices=np.asarray(pts, float),
                              simplices=np.array([[0, 1, 2]]), n_interior=0)

    def test_right_triangle(self):
        mesh = self.tri_mesh([[0, 0], [1, 0], [0, 1]])
        assert mesh_quality(mesh).a_h == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_equilateral_triangle(self):
        mesh = self.tri_mesh([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        assert mesh_quality(mesh).a_h == pytest.approx(math.sqrt(3) / 2, rel=1e-12)

    def test_regular_tetrahedron(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0],
                        [0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)]])
        mesh = SimplicialMesh(dim=3, vertices=pts, simplices=np.array([[0, 1, 2, 3]]),
                              n_interior=0)
        assert mesh_quality(mesh).a_h == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-10)

    def test_no_elements(self, tmp_path):
        path = tmp_path / "empty.msh"
        write_lines(path, ["2 3 0", "0 0", "1 0", "0 1"])
        mesh = load_mesh(path)
        with pytest.raises(ValueError, match="^mesh has no elements$"):
            mesh_quality(mesh)

    def test_h_bar(self):
        mesh = ball_mesh(2, 5)
        q = mesh_quality(mesh)
        assert q.h_bar == pytest.approx(mesh.n_elements ** -0.5, rel=1e-14)


def reference_volumes(mesh):
    """Volumes by LAPACK determinants of the edge matrices, unsigned: a
    simplex may list its vertices in either orientation."""
    pts = mesh.vertices[mesh.simplices]
    return np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) / math.factorial(mesh.dim)


def reference_facet_measures(mesh):
    """(dim-1)-measure of every facet of every simplex by edge lengths (2D)
    and cross products (3D), shape (elements, dim + 1)."""
    out = np.empty((mesh.n_elements, mesh.dim + 1))
    for drop in range(mesh.dim + 1):
        keep = [i for i in range(mesh.dim + 1) if i != drop]
        pts = mesh.vertices[mesh.simplices[:, keep]]
        if mesh.dim == 1:
            out[:, drop] = 1.0  # facets are points; use counting measure
        elif mesh.dim == 2:
            out[:, drop] = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        else:
            cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
            out[:, drop] = 0.5 * np.linalg.norm(cross, axis=1)
    return out


def reference_a_h(mesh):
    heights = mesh.dim * reference_volumes(mesh) / reference_facet_measures(mesh).max(axis=1)
    return float(heights.min())


def assert_reference_geometry(mesh):
    np.testing.assert_allclose(mesh.element_volumes(), reference_volumes(mesh),
                               rtol=1e-13, atol=0.0)
    assert mesh_quality(mesh).a_h == pytest.approx(reference_a_h(mesh), rel=1e-13, abs=0.0)


class TestGeometryAgainstReference:
    """Volumes and the minimum height from simplex_adjugates against LAPACK
    determinants and facet measures taken edge by edge."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_simplices(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(30):
            corners = rng.standard_normal((dim + 1, dim))
            mesh, _ = _build_mesh(dim, corners, np.arange(dim + 1)[None])
            assert_reference_geometry(mesh)

    def test_sliver(self):
        assert_reference_geometry(sliver_mesh())

    @pytest.mark.parametrize("dim,target_h", [(2, 0.1), (2, 0.07), (2, 0.05), (2, 0.035),
                                              (2, 0.025), (3, 0.2)])
    def test_rotated_balls_keep_n_fd(self, dim, target_h):
        base = generate_ball_mesh(dim, target_h)
        for seed in range(10):
            mesh = rotated(base, seed)
            assert_reference_geometry(mesh)
            quality = mesh_quality(mesh)
            reference = dataclasses.replace(quality, a_h=reference_a_h(mesh))
            assert choose_grid(quality, 1.2).n_fd == choose_grid(reference, 1.2).n_fd


@pytest.mark.parametrize("dim,n_r", [(2, 6), (3, 3)])
def test_a_h_is_bitwise_the_adjugate_formula(dim, n_r):
    # the constructor's pass keeps the height that mesh_quality computed
    # with a pass of its own
    for mesh in (ball_mesh(dim, n_r), rotated(ball_mesh(dim, n_r), 1)):
        adjugate, det = simplex_adjugates(mesh.vertices[mesh.simplices])
        rows = np.concatenate([adjugate, adjugate.sum(axis=1, keepdims=True)], axis=1)
        heights = np.abs(det) / np.sqrt(np.einsum("efk,efk->ef", rows, rows).max(axis=1))
        assert mesh_quality(mesh).a_h == float(heights.min())


def test_one_adjugate_pass_per_mesh(monkeypatch, tmp_path):
    # the constructor's chunked pass is the only one: it passes every
    # element once, in order, and no other pass orients the simplices
    path = tmp_path / "ball.msh"
    save_mesh(ball_mesh(3, 2), path)
    calls = []

    def counting(corners, real=mesh_module.simplex_adjugates):
        calls.append(corners.copy())
        return real(corners)

    monkeypatch.setattr(mesh_module, "simplex_adjugates", counting)
    for make in (lambda: generate_ball_mesh(2, 0.2), lambda: generate_ball_mesh(3, 0.5),
                 lambda: load_mesh(path), lambda: generate_ball_mesh(3, 0.1)):
        calls.clear()
        mesh = make()
        assert [c.shape[0] for c in calls[:-1]] == [mesh_module._CHUNK] * (len(calls) - 1)
        assert sum(c.shape[0] for c in calls) == mesh.n_elements
        assert np.array_equal(np.concatenate(calls), mesh.vertices[mesh.simplices])
    assert len(calls) == 3  # 43,940 elements


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_refuses_a_coordinate_that_is_not_finite(bad):
    # a nan vertex built a mesh of volume nan and a_h nan
    with pytest.raises(ValueError, match=re.escape(
            f"vertex 2 has a coordinate that is not finite: [{bad!r}, 1.0]")):
        SimplicialMesh(dim=2, vertices=[[0, 0], [1, 0], [bad, 1]], simplices=[[0, 1, 2]],
                       n_interior=0)


def test_constructor_leaves_the_callers_arrays_writable():
    base = ball_mesh(2, 3)
    vertices, simplices = base.vertices.copy(), base.simplices.copy()
    mesh = SimplicialMesh(dim=2, vertices=vertices, simplices=simplices,
                          n_interior=base.n_interior)
    vertices[0, 0] = 5.0
    simplices[0, 0] = 1
    np.testing.assert_array_equal(mesh.vertices, base.vertices)
    np.testing.assert_array_equal(mesh.simplices, base.simplices)
    assert not (mesh.vertices.flags.writeable or mesh.simplices.flags.writeable)


class TestLumpedL2:
    def test_exact_agreement(self):
        mesh = ball_mesh(2, 4)
        exact = lambda pts: pts[:, 0] + 2 * pts[:, 1]
        values = exact(mesh.vertices)
        assert lumped_l2_error(mesh, values, exact) == 0.0

    def test_constant_error(self):
        mesh = ball_mesh(2, 5)
        c = 0.37
        err = lumped_l2_error(mesh, np.full(mesh.n_vertices, c),
                              lambda pts: np.zeros(len(pts)))
        expected = c * math.sqrt(mesh.element_volumes().sum())
        assert err == pytest.approx(expected, rel=1e-12)

    def test_linear_field_against_exact_integral(self):
        # one triangle; exact integral of the squared linear field by the
        # midpoint rule, which integrates quadratics exactly
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = SimplicialMesh(dim=2, vertices=pts, simplices=np.array([[0, 1, 2]]),
                              n_interior=0)
        field = lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1]
        values = np.zeros(3)
        mids = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        exact_sq = (0.5 / 3.0) * np.sum(field(mids) ** 2)
        exact = math.sqrt(exact_sq)
        lumped = lumped_l2_error(mesh, values, field)
        assert abs(lumped - exact) <= 0.35 * exact

    def test_shape_check(self):
        mesh = ball_mesh(2, 4)
        with pytest.raises(ValueError):
            lumped_l2_error(mesh, np.zeros(3), lambda p: np.zeros(len(p)))

import math
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.mesh import (DegenerateElementError, MeshFormatError, SimplicialMesh,
                          _boundary_vertex_mask, _interior_first, _orient_positive,
                          generate_ball_mesh, load_mesh, lumped_l2_error, mesh_quality,
                          save_mesh)

from conftest import ball_mesh, scattered_ball


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


SQUARE = [
    "2 4 2",
    "0.0 0.0", "1.0 0.0", "1.0 1.0", "0.0 1.0",
    "1 2 3", "1 3 4",
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

    def test_negative_orientation_fixed(self, tmp_path):
        path = tmp_path / "flip.msh"
        write_lines(path, ["2 3 1", "0 0", "0 1", "1 0", "1 2 3"])  # clockwise
        mesh = load_mesh(path)
        assert mesh.element_volumes()[0] > 0

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
    """The per-token parser that the per-section numpy conversion replaces."""
    tokens = []  # (line_number, token)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
        return out

    dim, n_vertices, n_simplices = take(3, int, "the header")
    if dim not in (1, 2, 3):
        raise MeshFormatError(f"line {tokens[0][0]}: dim must be 1, 2 or 3, got {dim}")
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
        lineno, tok = tokens[pos]
        if tok != "boundary":
            raise MeshFormatError(f"line {lineno}: expected optional 'boundary' section, "
                                  f"got {tok!r}")
        pos += 1
        explicit_boundary = np.asarray([int(t) for _, t in tokens[pos:]], dtype=np.int64) - 1
        pos = len(tokens)

    simplices = _orient_positive(vertices, simplices, dim)
    vertices, simplices, n_interior = _interior_first(vertices, simplices, dim)
    mesh = SimplicialMesh(dim=dim, vertices=vertices, simplices=simplices,
                          n_interior=n_interior)
    if explicit_boundary is not None and explicit_boundary.size != n_vertices - n_interior:
        raise MeshFormatError(
            "boundary section does not match the facet-incidence boundary "
            f"({explicit_boundary.size} listed, {n_vertices - n_interior} detected)")
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
    expected = load_outcome(reference_load_mesh, path)
    assert load_outcome(load_mesh, path) == expected
    return expected


# the pentagon fan with a boundary section; each slot names (line, token) of
# the base file that an unusual token replaces
FAN_WITH_BOUNDARY = PENTAGON_FAN + ["boundary", "2 3 4 5 6"]
SLOTS = {"dim": (0, 0), "n_vertices": (0, 1), "coordinate": (2, 1), "index": (7, 0),
         "boundary": (13, 2)}
UNUSUAL = ["+1", "1_000", "1.0", "nan", "inf", "1e400", "-nan", "-0", "1e", "zap", "0x1",
           "99999999999999999999999", "\u0663", "1__0", "Infinity"]


# nan coordinates reach np.linalg.det in both loaders
@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
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
        path = tmp_path / "commented.msh"
        write_lines(path, edited)
        assert assert_same_outcome(path) == load_outcome(load_mesh, plain)
        crlf = tmp_path / "crlf.msh"
        crlf.write_bytes("\r\n".join(edited).encode("utf-8"))
        assert assert_same_outcome(crlf) == load_outcome(load_mesh, plain)

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

    @pytest.mark.parametrize("slot,token,expected", [
        ("index", "+1", None), ("boundary", "1_000", None), ("coordinate", "nan", None),
        ("coordinate", "1e400", DegenerateElementError),
        ("index", "1.0", "line 8: expected int for simplex indices, got '1.0'"),
        ("dim", "1_000", "line 1: dim must be 1, 2 or 3, got 1000"),
        ("boundary", "99999999999999999999999", OverflowError)])
    def test_unusual_token_outcomes(self, slot, token, expected, tmp_path):
        # pinned, so that the comparison with the reference is not vacuous
        line, k = SLOTS[slot]
        lines = list(FAN_WITH_BOUNDARY)
        words = lines[line].split()
        words[k] = token
        lines[line] = " ".join(words)
        path = tmp_path / "unusual.msh"
        write_lines(path, lines)
        outcome = load_outcome(load_mesh, path)
        if expected is None:
            assert isinstance(outcome[0], int)
        elif isinstance(expected, str):
            assert outcome == (MeshFormatError, expected)
        else:
            assert outcome[0] is expected

    def test_truncated_and_trailing(self, tmp_path):
        path = tmp_path / "t.msh"
        for lines in (["2 4 2", "0.0 0.0", "# end"], [], ["# only a comment"], ["2"],
                      ["4 1 1", "0 0 0 0", "1 1 1 1 1"], ["2 -1 0"], ["2 0 0", "7"],
                      SQUARE + ["boundary"], SQUARE + ["bound", "1 2 3 4"],
                      SQUARE + ["boundary", "1 2 3 x"], ["2 4 2", "0 0", "1 0", "1 1"]):
            write_lines(path, lines)
            assert_same_outcome(path)

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

    def test_h_bar(self):
        mesh = ball_mesh(2, 5)
        q = mesh_quality(mesh)
        assert q.h_bar == pytest.approx(mesh.n_elements ** -0.5, rel=1e-14)
        assert q.n_elements == mesh.n_elements


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

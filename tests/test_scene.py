"""Scene JSON: exact round trips and the wire format of dyadic scenes."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflux.geometry import OrientedSurface, PolyPath, Simplex, decompose_minimal
from holoflux.scene import SceneError, scene_from_json, scene_to_json

# rational unit normals (Pythagorean triples) and two unit vectors spanning
# the plane orthogonal to each; all three are exactly orthonormal
FRAMES = [
    ((Fraction(3, 5), Fraction(4, 5), 0), (Fraction(-4, 5), Fraction(3, 5), 0), (0, 0, 1)),
    ((0, Fraction(5, 13), Fraction(12, 13)), (1, 0, 0), (0, Fraction(-12, 13), Fraction(5, 13))),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
]

# non-dyadic rationals: no double holds 1/3, 2/7, ... exactly
coord = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 3, 5, 7, 12]))
positive = st.builds(Fraction, st.integers(1, 30), st.sampled_from([1, 3, 5, 7, 12]))


def _combo(c, n, a, e1, b, e2):
    return tuple(c * ni + a * x + b * y for ni, x, y in zip(n, e1, e2))


@st.composite
def exact_scenes(draw):
    """Triangles in parallel planes n.x = 10 j + c (hence disjoint) and
    paths strictly monotone in x (hence injective), with rational coordinates."""
    n, e1, e2 = draw(st.sampled_from(FRAMES))
    pieces = []
    for j in range(draw(st.integers(1, 3))):
        c = 10 * j + draw(coord) / 7
        # (a0, b0), (a0 + d1, b0 + t), (a0, b0 + d2): d1 d2 != 0, not collinear
        a0, b0, t = draw(coord), draw(coord), draw(coord)
        d1, d2 = draw(positive), draw(positive)
        ab = [(a0, b0), (a0 + d1, b0 + t), (a0, b0 + d2)]
        verts = [_combo(c, n, a, e1, b, e2) for a, b in ab]
        sign = draw(st.sampled_from([1, -1]))
        pieces.append(Simplex(verts, closed_facets=tuple(draw(st.booleans()) for _ in range(3)),
                              normal=tuple(sign * v for v in n)))
    surface = OrientedSurface(pieces, piece_ids=tuple(f"S.{i}" for i in range(len(pieces))))
    if draw(st.booleans()):
        surface = surface.inverse()
    paths = {}
    for pid in range(draw(st.integers(1, 3))):
        xs = sorted(draw(st.sets(coord, min_size=2, max_size=5)))
        paths[f"g{pid}"] = PolyPath([(x, draw(coord), draw(coord)) for x in xs])
    return paths, {"S": surface}


@settings(max_examples=40, deadline=None)
@given(exact_scenes())
def test_scene_json_round_trip_is_exact(scene):
    paths, surfaces = scene
    text = json.dumps(scene_to_json(3, paths, surfaces))
    dim, paths2, surfaces2 = scene_from_json(json.loads(text))
    assert dim == 3 and list(paths2) == list(paths)
    for pid, p in paths.items():
        assert paths2[pid].vertices == p.vertices
    s, s2 = surfaces["S"], surfaces2["S"]
    assert s2.inverted == s.inverted and s2.piece_ids == s.piece_ids
    for a, b in zip(s.pieces, s2.pieces, strict=True):
        assert b.vertices == a.vertices
        assert b.normal == a.normal
        assert b.closed_facets == a.closed_facets
    for pid, p in paths.items():
        d, d2 = decompose_minimal(p, s), decompose_minimal(paths2[pid], s2)
        assert d2.breakpoint_points() == d.breakpoint_points()
        assert d2.breakpoints == d.breakpoints
        assert d2.statuses() == d.statuses()


def test_non_dyadic_coordinate_is_written_as_string():
    paths = {"g": PolyPath([(0, 0), (Fraction(1, 3), Fraction(-2, 7))])}
    out = scene_to_json(2, paths, {})
    assert out["paths"][0]["vertices"] == [[0.0, 0.0], ["1/3", "-2/7"]]


# written by the float-only writer that this format extends
DYADIC_JSON = (
    '{"dimension": 3, "paths": [{"id": "g0", "vertices": [[-1.0, 0.25, 0.0], '
    '[0.75, -0.5, 2.5], [3.0, 1.0, -0.125]]}], "schema": 1, "surfaces": [{"id": "S", '
    '"normals": [[-1.0, 0.0, 0.0]], "open_faces": [[1]], "rule": "inverse", '
    '"simplices": [[[0.5, -2.0, -2.0], [0.5, 3.25, -2.0], [0.5, -2.0, 3.0]]]}]}'
)


def test_dyadic_scene_json_is_unchanged():
    paths = {"g0": PolyPath([(-1, 0.25, 0), (0.75, -0.5, 2.5), (3, 1, -0.125)])}
    tri = Simplex([(0.5, -2, -2), (0.5, 3.25, -2), (0.5, -2, 3)],
                  closed_facets=(True, False, True), normal=(-1, 0, 0))
    surfaces = {"S": OrientedSurface([tri], piece_ids=("S.0",)).inverse()}
    assert json.dumps(scene_to_json(3, paths, surfaces), sort_keys=True) == DYADIC_JSON
    assert json.dumps(scene_to_json(*scene_from_json(json.loads(DYADIC_JSON))),
                      sort_keys=True) == DYADIC_JSON


@pytest.mark.parametrize("bad", ["1/0", "one third", None, [1], float("inf")])
def test_malformed_coordinate_raises_scene_error(bad):
    doc = json.loads(DYADIC_JSON)
    doc["paths"][0]["vertices"][1][0] = bad
    with pytest.raises(SceneError):
        scene_from_json(doc)
    doc = json.loads(DYADIC_JSON)
    doc["surfaces"][0]["normals"][0][2] = bad
    with pytest.raises(SceneError):
        scene_from_json(doc)


def test_written_surface_reads_back_with_its_rule_or_is_refused():
    tri = Simplex([(0, -2, -2), (0, 3, -2), (0, -2, 3)], normal=(1, 0, 0))
    natural = OrientedSurface([tri], piece_ids=("S.0",))
    topological = OrientedSurface([tri], rule="topological", piece_ids=("S.0",))
    for surface in (natural, natural.inverse(), topological):
        _dim, _paths, back = scene_from_json(scene_to_json(3, {}, {"S": surface}))
        assert (back["S"].rule, back["S"].inverted) == (surface.rule, surface.inverted)
    # "inverse" would read back as an inverted natural surface
    with pytest.raises(SceneError, match="inverted topological"):
        scene_to_json(3, {}, {"S": topological.inverse()})

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holoflux.geometry import (
    AffineMap,
    GeometryError,
    Graph,
    OrientedSurface,
    PolyPath,
    Simplex,
    as_point,
    build_graph,
    completely_transversal,
    decompose_minimal,
    joint_surface,
    map_path,
    map_surface,
    punctures,
    sigma_eval,
    sigma_pair,
    solve_exact,
)
from holoflux.geometry import (
    _eliminate,
    _integer_rows,
    _lerp,
    _segment_segment,
    _segment_simplex_events,
    _strictly_between,
)


def seg_surface_2d(x_lo=-2, x_hi=2, closed=True):
    """The segment y=0, x in [x_lo, x_hi], oriented with +y as positive side."""
    flags = (closed, closed)
    return OrientedSurface(
        [Simplex([(x_lo, 0), (x_hi, 0)], closed_facets=flags, normal=(0, 1))]
    )


def disk_3d(x0, half=1, closed=True):
    """A small triangle in the plane x = x0 (normal +x)."""
    tri = Simplex(
        [(x0, -half, -half), (x0, 2 * half, -half), (x0, -half, 2 * half)],
        closed_facets=(closed,) * 3,
        normal=(1, 0, 0),
    )
    return OrientedSurface([tri])


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_polypath_rejects_short_and_degenerate():
    with pytest.raises(GeometryError):
        PolyPath([(0, 0)])
    with pytest.raises(GeometryError):
        PolyPath([(0, 0), (0, 0)])
    with pytest.raises(GeometryError):
        PolyPath([(0,), (1,)])  # ambient dim 1


def test_polypath_rejects_a_path_of_zero_float_length():
    # the vertices differ exactly but are equal as floats
    with pytest.raises(GeometryError):
        PolyPath([(Fraction(1, 3), 0), (1 / 3, 0)])


def test_polypath_rejects_self_intersection():
    with pytest.raises(GeometryError):
        PolyPath([(0, 0), (2, 0), (1, 1), (1, -1)])
    # backtracking overlap
    with pytest.raises(GeometryError):
        PolyPath([(0, 0), (2, 0), (1, 0), (1, 1)])


def test_polypath_closed_edge_allowed():
    p = PolyPath([(0, 0), (1, 0), (0, 1), (0, 0)])
    assert p.is_closed


def test_polypath_canonicalizes_collinear_vertices():
    p = PolyPath([(0, 0), (1, 0), (2, 0)])
    assert len(p.vertices) == 2
    q = PolyPath([(0, 0), (2, 0)])
    assert p.same_geometry(q)


def test_split_at():
    p = PolyPath([(0, 0), (2, 0)])
    a, b = p.split_at(0, Fraction(1, 2))
    assert a.vertices == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    assert b.vertices == ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0)))


def test_reversed_concat():
    p = PolyPath([(0, 0), (1, 1)])
    q = PolyPath([(1, 1), (2, 0)])
    joined = p.concat(q)
    assert joined.start == (0, 0) and joined.end == (2, 0)
    assert p.reversed().start == (1, 1)


path_coord = st.one_of(st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 7])))


@st.composite
def canonical_paths(draw):
    """Canonical paths, some built from vertex lists with collinear midpoints."""
    dim = draw(st.sampled_from([2, 3]))
    pts = draw(st.lists(st.tuples(*[path_coord] * dim), min_size=2, max_size=6))
    verts = [pts[0]]
    for p in pts[1:]:
        if p == verts[-1]:
            continue
        if draw(st.booleans()):  # a midpoint, which canonicalisation drops
            verts.append(tuple((Fraction(a) + b) / 2 for a, b in zip(verts[-1], p)))
        verts.append(p)
    assume(len(verts) >= 2)
    return PolyPath(verts, validate=False)


@settings(max_examples=200, deadline=None)
@given(canonical_paths())
def test_reversed_equals_rebuilt_reversed_path(path):
    rev = path.reversed()
    rebuilt = PolyPath(tuple(reversed(path.vertices)), validate=False)
    assert rev.vertices == rebuilt.vertices
    assert rev.dim == rebuilt.dim
    assert rev._cum == rebuilt._cum


# ---------------------------------------------------------------------------
# minimal decomposition
# ---------------------------------------------------------------------------


def test_decompose_transversal_crossing():
    gamma = PolyPath([(-1, -1), (1, 1)])
    s = seg_surface_2d()
    dec = decompose_minimal(gamma, s)
    assert dec.statuses() == ["external", "external"]
    assert dec.breakpoint_points() == [(Fraction(0), Fraction(0))]
    assert dec.breakpoints == [pytest.approx(0.5)]


def test_decompose_disjoint():
    gamma = PolyPath([(0, 1), (1, 2)])
    s = seg_surface_2d()
    dec = decompose_minimal(gamma, s)
    assert dec.statuses() == ["external"]
    assert len(dec.pieces) == 1


def test_decompose_internal():
    gamma = PolyPath([(-1, 0), (1, 0)])
    s = seg_surface_2d()
    dec = decompose_minimal(gamma, s)
    assert dec.statuses() == ["internal"]


def test_decompose_enter_run_leave():
    # enters the surface segment, runs along it, then leaves
    gamma = PolyPath([(-1, -1), (0, 0), (1, 0), (2, 1)])
    s = seg_surface_2d()
    dec = decompose_minimal(gamma, s)
    assert dec.statuses() == ["external", "internal", "external"]


def test_decompose_open_surface_boundary():
    # open segment (0,0)-(2,0): the endpoints do not belong to S
    surf = OrientedSurface(
        [Simplex([(0, 0), (2, 0)], closed_facets=(False, False), normal=(0, 1))]
    )
    gamma = PolyPath([(-1, 0), (3, 0)])  # runs along the line through S
    dec = decompose_minimal(gamma, surf)
    assert dec.statuses() == ["external", "internal", "external"]


def test_decompose_tangent_touch():
    # V-shaped path touching the surface at one point from above
    gamma = PolyPath([(-1, 1), (0, 0), (1, 1)])
    s = seg_surface_2d()
    dec = decompose_minimal(gamma, s)
    assert dec.statuses() == ["external", "external"]
    ps = punctures(gamma, s)
    assert len(ps) == 1
    assert not ps[0].is_puncture  # half-puncture only
    assert not completely_transversal(gamma, s)


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------


def test_sigma_leaving_above():
    gamma = PolyPath([(0, 0), (1, 1)])
    s = seg_surface_2d()
    assert sigma_eval(s, gamma, "outgoing") == 1
    assert sigma_eval(s, gamma, "incoming") == 0


def test_sigma_off_surface_start():
    gamma = PolyPath([(0, 1), (1, 2)])
    s = seg_surface_2d()
    assert sigma_eval(s, gamma, "outgoing") == 0


def test_sigma_running_inside_is_zero():
    gamma = PolyPath([(0, 0), (1, 0)])
    s = seg_surface_2d()
    assert sigma_eval(s, gamma, "outgoing") == 0


def test_sigma_incoming_from_below():
    gamma = PolyPath([(0, -1), (1, 0)])
    s = seg_surface_2d()
    assert sigma_eval(s, gamma, "incoming") == 1  # arrives from below


def test_sigma_compatibility():
    s = seg_surface_2d()
    rng = np.random.default_rng(17)
    for _ in range(50):
        pts = [(int(a), int(b)) for a, b in rng.integers(-3, 4, size=(2, 2))]
        if pts[0] == pts[1]:
            continue
        gamma = PolyPath(pts)
        out_fwd = sigma_eval(s, gamma, "outgoing")
        in_rev = sigma_eval(s, gamma.reversed(), "incoming")
        assert out_fwd + in_rev == 0


def test_sigma_inverse_rule():
    gamma = PolyPath([(0, 0), (1, 1)])
    s = seg_surface_2d()
    assert sigma_eval(s.inverse(), gamma, "outgoing") == -1


def test_sigma_joint_rule_adds():
    s1 = seg_surface_2d(-2, -1)
    s2 = seg_surface_2d(1, 2)
    joint = joint_surface(s1, s2)
    rng = np.random.default_rng(23)
    for _ in range(40):
        pts = [(int(a), int(b)) for a, b in rng.integers(-3, 4, size=(2, 2))]
        if pts[0] == pts[1]:
            continue
        gamma = PolyPath(pts)
        assert sigma_eval(joint, gamma, "outgoing") == sigma_eval(
            s1, gamma, "outgoing"
        ) + sigma_eval(s2, gamma, "outgoing")


# ---------------------------------------------------------------------------
# punctures
# ---------------------------------------------------------------------------


def test_single_transversal_puncture():
    gamma = PolyPath([(-1, -1), (1, 1)])
    s = seg_surface_2d()
    ps = punctures(gamma, s)
    assert len(ps) == 1
    assert ps[0].is_puncture
    assert ps[0].point == (0, 0)
    assert completely_transversal(gamma, s)


def test_disjoint_no_punctures():
    gamma = PolyPath([(0, 1), (1, 2)])
    s = seg_surface_2d()
    assert punctures(gamma, s) == []


def test_path_through_disk_3d():
    gamma = PolyPath([(-1, 0, 0), (1, 0, 0)])
    s = disk_3d(0)
    ps = punctures(gamma, s)
    assert len(ps) == 1 and ps[0].is_puncture
    assert ps[0].sign_in == 1 and ps[0].sign_out == 1
    assert completely_transversal(gamma, s)


def test_point_surface_decomposes_without_signs():
    # a single point is a quasi-surface: it splits the edge but carries no
    # codimension-1 orientation, so every sign vanishes
    point = OrientedSurface([Simplex([(0, 0)])])
    gamma = PolyPath([(-1, 0), (1, 0)])
    dec = decompose_minimal(gamma, point)
    assert dec.statuses() == ["external", "external"]
    assert dec.breakpoint_points() == [(0, 0)]
    assert punctures(gamma, point) == []
    leaving = PolyPath([(0, 0), (1, 1)])
    assert sigma_eval(point, leaving, "outgoing") == 0


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_build_graph_crossing_segments():
    p1 = PolyPath([(-1, 0), (1, 0)])
    p2 = PolyPath([(0, -1), (0, 1)])
    graph, words = build_graph([p1, p2])
    assert len(graph.edges) == 4
    assert all(len(w) == 2 for w in words)
    # each word reconstructs its path
    for word, p in zip(words, [p1, p2]):
        chain = None
        for eid, sgn in word:
            e = graph.edges[eid] if sgn == 1 else graph.edges[eid].reversed()
            chain = e if chain is None else chain.concat(e)
        assert chain.same_geometry(p)


def test_build_graph_idempotent_on_graph():
    p1 = PolyPath([(0, 0), (1, 0)])
    p2 = PolyPath([(1, 0), (1, 1)])
    graph, words = build_graph([p1, p2])
    assert len(graph.edges) == 2
    assert words == [[("e0", 1)], [("e1", 1)]]


def test_build_graph_overlapping_subsegment():
    whole = PolyPath([(0, 0), (4, 0)])
    sub = PolyPath([(1, 0), (3, 0)])
    graph, words = build_graph([whole, sub])
    assert len(graph.edges) == 3
    assert len(words[0]) == 3
    assert len(words[1]) == 1


def test_graph_invariant_rejected():
    p1 = PolyPath([(-1, 0), (1, 0)])
    p2 = PolyPath([(0, -1), (0, 1)])
    with pytest.raises(GeometryError):
        Graph.from_paths([p1, p2])


def test_split_edge():
    g = Graph.from_paths([PolyPath([(0, 0), (2, 0)])])
    g2, (ida, idb) = g.split_edge("e0", 0.5)
    assert g2.edges[ida].end == (1, 0)
    assert g2.edges[idb].start == (1, 0)


# ---------------------------------------------------------------------------
# map_path
# ---------------------------------------------------------------------------


def test_map_path_identity_and_rotation():
    p = PolyPath([(1, 0), (2, 0)])
    ident = AffineMap([[1, 0], [0, 1]])
    assert map_path(ident, p).same_geometry(p)
    rot = AffineMap([[0, -1], [1, 0]])  # rotation by pi/2
    q = map_path(rot, p)
    assert q.vertices == ((0, 1), (0, 2))


def test_affine_map_inverse():
    m = AffineMap([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]], (1, 2))
    p = (Fraction(7), Fraction(-3))
    assert m.apply_inverse(m.apply(p)) == p
    inv = m.inverse()
    assert inv.apply(m.apply(p)) == p


def test_map_surface_rational_rotation():
    s = seg_surface_2d()
    rot = AffineMap([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    s2 = map_surface(rot, s)
    # normal rotates with the surface and stays exactly unit
    n = s2.pieces[0].normal
    assert n == (Fraction(-4, 5), Fraction(3, 5))
    gamma = PolyPath([(0, 0), (1, 1)])
    assert sigma_eval(s, gamma, "outgoing") == sigma_eval(
        s2, map_path(rot, gamma), "outgoing"
    )


# ---------------------------------------------------------------------------
# minimality property: random scenes
# ---------------------------------------------------------------------------


def random_scene(rng):
    """A random small polyline and 1-2 disjoint oriented segments in the plane."""
    while True:
        pts = [tuple(int(v) for v in rng.integers(-4, 5, size=2)) for _ in range(rng.integers(2, 5))]
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        if len(dedup) < 2:
            continue
        try:
            gamma = PolyPath(dedup)
        except GeometryError:
            continue
        y1 = int(rng.integers(-2, 3))
        s1 = Simplex([(-5, y1), (5, y1)], normal=(0, 1),
                     closed_facets=(bool(rng.integers(2)), bool(rng.integers(2))))
        pieces = [s1]
        if rng.integers(2):
            x2 = int(rng.integers(-2, 3))
            lo = int(rng.integers(-5, 0))
            hi = int(rng.integers(1, 6))
            if not (y1 == 0 and lo <= x2 <= hi):
                # vertical segment, disjoint from s1 unless it would cross it
                if not (lo <= y1 <= hi):
                    pieces.append(
                        Simplex([(x2, lo), (x2, hi)], normal=(1, 0),
                                closed_facets=(True, True))
                    )
        try:
            surface = OrientedSurface(pieces)
        except GeometryError:
            continue
        return gamma, surface


def insert_breakpoints(dec, rng):
    """Refine a decomposition by splitting pieces at random interior points."""
    paths = []
    for piece in dec.pieces:
        p = piece.path
        if rng.integers(2) and len(p.vertices) >= 2:
            t = float(rng.uniform(0.2, 0.8))
            seg, s = p.locate(t)
            if 0 < s < 1:
                a, b = p.split_at(seg, s)
                paths.extend([a, b])
                continue
        paths.append(p)
    return paths


def test_minimality_on_random_scenes():
    rng = np.random.default_rng(99)
    for _ in range(200):
        gamma, surface = random_scene(rng)
        dec = decompose_minimal(gamma, surface)
        # piece intervals partition [0,1]
        assert dec.pieces[0].t0 == 0.0
        assert dec.pieces[-1].t1 == 1.0
        for a, b in zip(dec.pieces, dec.pieces[1:]):
            assert a.t1 == b.t0
            assert a.status != b.status or True
        # concatenation reproduces the parent
        chain = dec.pieces[0].path
        for piece in dec.pieces[1:]:
            chain = chain.concat(piece.path)
        assert chain.same_geometry(gamma)
        # every refinement obtained by inserting valid breakpoints is refined by it:
        # the refined pieces concatenate back to the minimal pieces
        refined = insert_breakpoints(dec, rng)
        assert len(refined) >= len(dec.pieces)
        i = 0
        for piece in dec.pieces:
            acc = refined[i]
            i += 1
            while not acc.same_geometry(piece.path):
                acc = acc.concat(refined[i])
                i += 1
        assert i == len(refined)


def breakpoint_oracle(gamma, surface):
    """Independent count of status transitions via direct segment solves."""
    from holoflux.geometry import _segment_simplex_events, _lerp

    events = set()
    for i, (a, b) in enumerate(zip(gamma.vertices, gamma.vertices[1:])):
        for piece in surface.pieces:
            for kind, lo, hi in _segment_simplex_events(a, b, piece):
                events.add((i, lo))
                events.add((i, hi))
        events.add((i, 0))
        events.add((i, 1))
    locs = sorted(events)
    merged = []
    for seg, s in locs:
        if s == 1 and (seg + 1, 0) in events:
            continue
        merged.append((seg, s))

    def member(seg, s):
        p = _lerp(gamma.vertices[seg], gamma.vertices[seg + 1], s)
        return surface.contains(p)

    statuses = []
    for (i0, s0), (i1, s1) in zip(merged, merged[1:]):
        if i0 == i1:
            statuses.append(member(i0, (s0 + s1) / 2))
        else:
            statuses.append(member(i0, (s0 + 1) / 2))
    count = 0
    for idx in range(1, len(merged) - 1):
        seg, s = merged[idx]
        point_in = member(seg, Fraction(s))
        prev_status, next_status = statuses[idx - 1], statuses[idx]
        if prev_status != next_status or point_in != prev_status:
            count += 1
    return count


def test_breakpoint_count_matches_oracle():
    rng = np.random.default_rng(123)
    for _ in range(200):
        gamma, surface = random_scene(rng)
        dec = decompose_minimal(gamma, surface)
        assert len(dec.pieces) - 1 == breakpoint_oracle(gamma, surface)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_natural_equals_topological_on_pl(seed):
    rng = np.random.default_rng(seed)
    gamma, surface = random_scene(rng)
    topo = OrientedSurface(surface.pieces, rule="topological",
                           piece_ids=surface.piece_ids, validate=False)
    assert sigma_pair(surface, gamma) == sigma_pair(topo, gamma)


# ---------------------------------------------------------------------------
# exact linear algebra: the integer kernel against a Fraction Gauss-Jordan
# ---------------------------------------------------------------------------


def solve_exact_reference(rows, rhs):
    """Gauss-Jordan elimination over Fraction, the kernel's former loop."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return ("none", None)
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return ("unique", x)
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -a[i][fc]
        basis.append(vec)
    return ("underdetermined", (x, basis))


def rank_reference(rows):
    """n minus the kernel dimension of the homogeneous system."""
    kind, sol = solve_exact_reference(rows, [Fraction(0)] * len(rows))
    n = len(rows[0])
    return n if kind == "unique" else n - len(sol[1])


def returned_values(result):
    kind, sol = result
    if kind == "none":
        return []
    if kind == "unique":
        return list(sol)
    part, basis = sol
    return list(part) + [v for vec in basis for v in vec]


small_q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5, 7]))
nonzero_q = small_q.filter(bool)
entry = st.one_of(st.just(Fraction(0)), small_q)  # many zeros


@st.composite
def linear_systems(draw):
    """A rational system A x = b of 1-4 x 1-4 (or 3x2, 3x3, k x k) with
    rows made dependent on purpose and a consistent or perturbed rhs."""
    m, n = draw(st.one_of(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.sampled_from([(3, 2), (3, 3)]),
        st.integers(1, 4).map(lambda k: (k, k)),
    ))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):  # row i := c row j (+ d row l)
            j, l = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(small_q), draw(entry)
            rows[i] = [c * u + d * w for u, w in zip(rows[j], rows[l])]
    x0 = [draw(small_q) for _ in range(n)]
    rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
    if draw(st.booleans()):  # inconsistent whenever row i depends on the others
        i = draw(st.integers(0, m - 1))
        rhs[i] += draw(nonzero_q)
    return rows, rhs


F = Fraction


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]], [F(1), F(2), F(3)]))    # unique
@example(([[F(1), F(2)], [F(2), F(4)], [F(-1), F(-2)]], [F(1), F(3), F(0)]))  # none
@example(([[F(0), F(-3, 2), F(1)], [F(0), F(3), F(-2)]], [F(1, 3), F(-2, 3)]))  # underdetermined
@example(([[F(0)]], [F(0)]))
@example(([[F(0)]], [F(5, 7)]))
def test_integer_kernel_matches_fraction_gauss_jordan(system):
    rows, rhs = system
    got = solve_exact(rows, rhs)
    assert got == solve_exact_reference(rows, rhs)
    assert all(type(v) is Fraction for v in returned_values(got))
    assert len(_eliminate(_integer_rows(rows), len(rows[0]))) == rank_reference(rows)


def test_kernel_returns_fractions_for_int_and_float_entries():
    kind, x = solve_exact([[2, 1], [1, 3]], [1, 2])
    assert kind == "unique" and x == [F(1, 5), F(3, 5)]
    assert all(type(v) is Fraction for v in x)
    # floats enter exactly: 0.1 is 3602879701896397/2^55, not 1/10
    kind, x = solve_exact([[1.0, 0.0], [0.0, 0.5]], [0.1, 1.0])
    assert kind == "unique" and x == [F(0.1), F(2)]
    assert all(type(v) is Fraction for v in x)
    rows = [[0.5, 1.0], [1, 2]]
    assert len(_eliminate(_integer_rows(rows), 2)) == rank_reference(rows) == 1


# ---------------------------------------------------------------------------
# membership of float points is decided exactly
# ---------------------------------------------------------------------------


def test_float_point_membership_is_exact():
    # the float 1/3 lies 1.9e-17 off the plane x = 1/3
    s = Simplex([(F(1, 3), 0, 0), (F(1, 3), 1, 0), (F(1, 3), 0, 1)])
    p = (1 / 3, 0.25, 0.25)
    assert F(p[0]) != F(1, 3)
    assert not s.contains(p)
    assert s.barycentric(p) is None
    assert s.contains((F(1, 3), 0.25, 0.25))
    assert all(type(v) is Fraction for v in s.barycentric((F(1, 3), 0.25, 0.25)))
    surface = OrientedSurface([s])
    assert surface.find_piece(p) == (None, None)
    assert not surface.contains(p)
    assert surface.contains(as_point((F(1, 3), 0.25, 0.25)))


def test_simplex_spanning_vectors_stored_once():
    s = Simplex([(1, 0, 0), (2, 0, 0), (1, 3, 0)])
    assert s == Simplex([(1, 0, 0), (2, 0, 0), (1, 3, 0)])
    point = Simplex([(1, 2)])
    assert point.contains((1.0, 2)) and not point.contains((1, 2.5))


# ---------------------------------------------------------------------------
# integer hyperplane predicates against the solve-based references
# ---------------------------------------------------------------------------


def span_reference(s):
    """The k x q matrix, by rows, whose columns are the spanning vectors
    v_j - v_0 of a simplex."""
    v0 = s.vertices[0]
    return [[v[j] - v0[j] for v in s.vertices[1:]] for j in range(len(v0))]


def barycentric_reference(s, p):
    """Simplex.barycentric by a Fraction solve of the spanning vectors."""
    p = as_point(p)
    v0 = s.vertices[0]
    if s.dim == 0:
        return [F(1)] if p == v0 else None
    kind, sol = solve_exact_reference(span_reference(s), [x - y for x, y in zip(p, v0)])
    if kind != "unique":
        return None
    return [F(1) - sum(sol)] + list(sol)


def contains_reference(s, p):
    lam = barycentric_reference(s, p)
    if lam is None:
        return False
    return all(l > 0 or (l == 0 and closed) for l, closed in zip(lam, s.closed_facets))


def segment_simplex_events_reference(a, b, s):
    """_segment_simplex_events by one solve for (lambda_1..q, s) on the segment."""
    q = s.dim
    u = [y - x for x, y in zip(a, b)]
    rows = [(*r, -ui) for r, ui in zip(span_reference(s), u)]
    kind, sol = solve_exact_reference(rows, [x - v for x, v in zip(a, s.vertices[0])])
    if kind == "none":
        return []
    if kind == "unique":
        lam, sp = sol[:q], sol[q]
        if 0 <= sp <= 1 and F(1) - sum(lam) >= 0 and all(l >= 0 for l in lam):
            return [("point", sp, sp)]
        return []
    part, (dirv,) = sol
    r_per_sp = F(1) / dirv[q]
    lam_const = [part[i] - part[q] * dirv[i] * r_per_sp for i in range(q)]
    lam_lin = [dirv[i] * r_per_sp for i in range(q)]
    lam_const.append(F(1) - sum(lam_const))
    lam_lin.append(-sum(lam_lin))
    lo, hi = F(0), F(1)
    for cst, lin in zip(lam_const, lam_lin):
        if lin == 0:
            if cst < 0:
                return []
        elif lin > 0:
            lo = max(lo, -cst / lin)
        else:
            hi = min(hi, -cst / lin)
    if lo > hi:
        return []
    return [("point", lo, lo)] if lo == hi else [("interval", lo, hi)]


def segment_segment_reference(a, b, c, d):
    """_segment_segment by a Fraction solve of s (b - a) - t (d - c) = c - a."""
    u = [y - x for x, y in zip(a, b)]
    rows = [[ui, x - y] for ui, x, y in zip(u, c, d)]
    kind, sol = solve_exact_reference(rows, [y - x for x, y in zip(a, c)])
    if kind == "none":
        return []
    if kind == "unique":
        s, t = sol
        return [("point", (s, t))] if 0 <= s <= 1 and 0 <= t <= 1 else []
    den = sum(x * x for x in u)
    if den == 0:
        return []
    sc = sum((x - y) * w for x, y, w in zip(c, a, u)) / den
    sd = sum((x - y) * w for x, y, w in zip(d, a, u)) / den
    lo, hi = max(F(0), min(sc, sd)), min(F(1), max(sc, sd))
    if lo > hi:
        return []

    def t_of(sv):
        return F(0) if sd == sc else (sv - sc) / (sd - sc)

    if lo == hi:
        return [("point", (lo, t_of(lo)))]
    return [("overlap", ((lo, t_of(lo)), (hi, t_of(hi))))]


def initial_sign_reference(surface, path):
    """The outgoing sign from the stored normal, right when that normal is exact."""
    for s in surface.pieces:
        if contains_reference(s, path.start):
            if s.normal is None:
                return 0
            dp = sum(n * (y - x) for n, x, y in zip(s.normal, *path.vertices[:2]))
            sign = (dp > 0) - (dp < 0)
            return -sign if surface.inverted else sign
    return 0


# exactly orthonormal rational frames (n, e_1, ..., e_{k-1}) in R^2, R^3, R^4
EXACT_FRAMES = {
    2: [((0, 1), (1, 0)), ((F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)))],
    3: [((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((F(3, 5), F(4, 5), 0), (F(-4, 5), F(3, 5), 0), (0, 0, 1)),
        ((F(2, 3), F(2, 3), F(1, 3)), (F(1, 3), F(-2, 3), F(2, 3)),
         (F(2, 3), F(-1, 3), F(-2, 3)))],
    4: [((F(1, 2),) * 4, (F(1, 2), F(1, 2), F(-1, 2), F(-1, 2)),
         (F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)), (F(1, 2), F(-1, 2), F(-1, 2), F(1, 2)))],
}
# non-dyadic and dyadic rationals, and floats, which convert exactly
frac = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 7, 12]))
weight = st.one_of(st.sampled_from([F(0), F(1), F(1, 2), F(-1, 3)]), frac)


def combo(c, frame, coeffs):
    n, *es = frame
    return tuple(c * ni + sum(a * e[j] for a, e in zip(coeffs, es))
                 for j, ni in enumerate(n))


@st.composite
def simplex_scenes(draw, codim1=False, k=None):
    """A simplex in R^k (codimension 1 in a rational orthonormal frame, or
    any q < k), with random open facets, and a sampler of points that lie in
    its hyperplane, at its vertices, on its edges, off it, or in float."""
    if k is None:
        k = draw(st.sampled_from([2, 3, 4]))
    frame = draw(st.sampled_from(EXACT_FRAMES[k]))
    c = draw(frac)
    if codim1 or draw(st.booleans()):
        verts = [combo(c, frame, [draw(frac) for _ in range(k - 1)]) for _ in range(k)]
        normal = tuple(draw(st.sampled_from([1, -1])) * v for v in frame[0])
    else:
        q = draw(st.integers(0, k - 2))
        verts = [tuple(draw(frac) for _ in range(k)) for _ in range(q + 1)]
        normal = None
    if draw(st.booleans()):
        normal = None
    flags = tuple(draw(st.booleans()) for _ in verts)
    try:
        s = Simplex(verts, closed_facets=flags, normal=normal)
    except GeometryError:
        assume(False)

    def point():
        kind = draw(st.sampled_from(["hull", "hull", "vertex", "off", "float", "any"]))
        if kind == "vertex":
            return draw(st.sampled_from(s.vertices))
        if kind == "any":
            return tuple(draw(frac) for _ in range(k))
        lam = [draw(weight) for _ in verts[1:]]
        lam = [F(1) - sum(lam)] + lam
        p = tuple(sum(l * v[j] for l, v in zip(lam, s.vertices)) for j in range(k))
        if kind == "off":
            p = tuple(x + draw(weight) * e for x, e in zip(p, frame[0]))
        if kind == "float":
            p = tuple(float(x) for x in p)
        return p

    return s, point


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_membership_matches_solve_reference(data):
    s, point = data.draw(simplex_scenes())
    for _ in range(4):
        p = point()
        assert s.contains(p) == contains_reference(s, p)
        lam = s.barycentric(p)
        assert lam == barycentric_reference(s, p)
        assert lam is None or all(type(v) is F for v in lam)


@settings(max_examples=300, deadline=None)
@given(st.data())
@example(data=None)
def test_segment_simplex_events_match_solve_reference(data):
    if data is None:  # a segment along an open edge of a triangle
        s = Simplex([(0, 0, 0), (0, 3, 0), (0, 0, 3)], closed_facets=(False, True, True),
                    normal=(1, 0, 0))
        a, b = (0, 0, 0), (0, 3, 0)
        assert _segment_simplex_events(as_point(a), as_point(b), s) == [("interval", 0, 1)]
        return
    s, point = data.draw(simplex_scenes())
    for _ in range(4):
        a, b = as_point(point()), as_point(point())
        got = _segment_simplex_events(a, b, s)
        assert got == segment_simplex_events_reference(a, b, s)
        assert all(type(v) is F for _, lo, hi in got for v in (lo, hi))


@st.composite
def segment_pairs(draw):
    """Segment pairs in R^2..R^4: generic, crossing, parallel, collinear
    (overlapping, touching or apart), sharing endpoints, or in float."""
    k = draw(st.sampled_from([2, 3, 4]))
    pt = st.tuples(*[frac] * k)
    a, b = draw(pt), draw(pt)
    assume(a != b)
    a, b = as_point(a), as_point(b)
    kind = draw(st.sampled_from(["any", "collinear", "parallel", "cross", "shared", "float"]))
    on_ab = lambda w: tuple(x + w * (y - x) for x, y in zip(a, b))  # noqa: E731
    if kind == "collinear":
        c, d = on_ab(draw(weight)), on_ab(draw(weight))
    elif kind == "parallel":
        shift = as_point(draw(pt))
        c, d = (tuple(x + y for x, y in zip(on_ab(draw(weight)), shift)) for _ in range(2))
    elif kind == "cross":  # cd has its midpoint on the line ab
        m, d = on_ab(draw(weight)), as_point(draw(pt))
        c = tuple(2 * x - y for x, y in zip(m, d))
    elif kind == "shared":
        c, d = draw(st.sampled_from([a, b])), as_point(draw(pt))
    else:
        c, d = as_point(draw(pt)), as_point(draw(pt))
        if kind == "float":
            a, b, c, d = (tuple(F(float(x)) for x in p) for p in (a, b, c, d))
    assume(c != d)
    return a, b, c, d


@settings(max_examples=400, deadline=None)
@given(segment_pairs())
def test_segment_segment_matches_solve_reference(seg):
    got = _segment_segment(*seg)
    assert got == segment_segment_reference(*seg)
    for kind, data in got:
        assert all(type(v) is F for v in (data if kind == "point" else data[0] + data[1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sigma_matches_exact_normal_reference(data):
    s, point = data.draw(simplex_scenes(codim1=True))
    surface = OrientedSurface([s], inverted=data.draw(st.booleans()))
    start, end = point(), point()
    # distinct as floats too: the arclength parametrisation is float
    assume([float(x) for x in start] != [float(x) for x in end])
    gamma = PolyPath([start, end])
    assert sigma_eval(surface, gamma, "outgoing") == initial_sign_reference(surface, gamma)


def test_sheared_surface_tangent_departure_has_no_sign():
    # a shear rounds the mapped normal (its dot with an in-plane direction
    # reads 1.3e-16); the sign comes from the exact plane of the vertices
    tri = Simplex([(0, -1, -1), (0, 2, -1), (0, -1, 2)], normal=(1, 0, 0))
    shear = AffineMap([[1, F(1, 3), 0], [0, 1, 0], [F(2, 7), 0, 1]])
    surface = map_surface(shear, OrientedSurface([tri]))
    start = shear.apply((0, 0, 0))
    gamma = PolyPath([start, shear.apply((0, F(1, 2), F(1, 4))), shear.apply((1, 1, 1))])
    assert decompose_minimal(gamma, surface).statuses() == ["internal", "external"]
    assert sigma_eval(surface, gamma, "outgoing") == 0
    assert sigma_eval(surface, gamma, "outgoing") + sigma_eval(
        surface, gamma.reversed(), "incoming") == 0
    # a transversal departure keeps the sign of the mapped normal
    leaving = PolyPath([start, shear.apply((1, 0, 0))])
    assert sigma_eval(surface, leaving, "outgoing") == 1
    assert sigma_eval(surface.inverse(), leaving, "outgoing") == -1


def test_normal_must_orient_a_hyperplane():
    # a segment in R^3 has no hyperplane for a normal to orient
    with pytest.raises(GeometryError):
        Simplex([(0, 0, 0), (1, 0, 0)], normal=(0, 0, 1))
    # within the orthogonality tolerance of a tiny simplex, yet in its line
    with pytest.raises(GeometryError):
        Simplex([(0, 0), (1e-12, 0)], normal=(1, 0))
    assert Simplex([(0, 0), (1e-12, 0)], normal=(0, -1)).plane[:2] == (0, -1)


# ---------------------------------------------------------------------------
# exact points and sub-paths against plain Fraction arithmetic
# ---------------------------------------------------------------------------


def lerp_reference(a, b, s):
    return tuple(F(x) + s * (F(y) - F(x)) for x, y in zip(a, b))


def subpath_reference(path, loc0, loc1):
    """subpath_exact through the full constructor, which re-canonicalises."""
    (i0, s0), (i1, s1) = loc0, loc1
    verts = [lerp_reference(path.vertices[i0], path.vertices[i0 + 1], s0)]
    for v in path.vertices[i0 + 1 : i1 + 1] + (
            lerp_reference(path.vertices[i1], path.vertices[i1 + 1], s1),):
        if v != verts[-1]:
            verts.append(v)
    return PolyPath(verts, validate=False)


def split_reference(path, seg, s):
    """split_at through the full constructor, which re-canonicalises."""
    p = lerp_reference(path.vertices[seg], path.vertices[seg + 1], s)
    first = list(path.vertices[: seg + 1]) + ([p] if path.vertices[seg] != p else [])
    second = [p] + list(path.vertices[seg + 1 :])
    if len(second) > 1 and second[1] == p:
        second = second[1:]
    if len(first) < 2 or len(second) < 2:
        raise GeometryError("split point must be interior")
    return PolyPath(first, validate=False), PolyPath(second, validate=False)


def stored(*paths):
    return [(p.vertices, p.dim, p._cum) for p in paths]


def outcome(f, *args):
    """The stored fields of the path or paths f returns, or its error."""
    try:
        out = f(*args)
    except GeometryError:
        return "GeometryError"
    return stored(*(out if isinstance(out, tuple) else (out,)))


coordinate = st.one_of(st.integers(-9, 9), frac,
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
ratio = st.one_of(st.sampled_from([F(0), F(1)]), frac.filter(lambda s: 0 < s < 1),
                  st.floats(0, 1).map(F))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lerp_matches_fraction_arithmetic(data):
    dim = data.draw(st.sampled_from([2, 3]))
    a, b = (data.draw(st.tuples(*[coordinate] * dim)) for _ in range(2))
    s = data.draw(ratio)
    got = _lerp(a, b, s)
    assert got == lerp_reference(a, b, s)
    assert all(type(c) is F for c in got)


location = st.tuples(st.integers(0, 4), ratio)


@settings(max_examples=300, deadline=None)
@given(canonical_paths(), location, location)
def test_subpaths_equal_recanonicalised_paths(path, loc0, loc1):
    n = len(path.vertices) - 1
    loc0, loc1 = sorted(((i % n, s) for i, s in (loc0, loc1)))
    assert outcome(path.subpath_exact, loc0, loc1) == outcome(
        subpath_reference, path, loc0, loc1)
    assert outcome(path.split_at, *loc1) == outcome(split_reference, path, *loc1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_find_piece_matches_contains_loop(data):
    k = data.draw(st.sampled_from([2, 3, 4]))
    scenes = [data.draw(simplex_scenes(k=k)) for _ in range(data.draw(st.integers(1, 3)))]
    # overlapping pieces are allowed here: both sides must pick the first
    surface = OrientedSurface([s for s, _ in scenes], validate=False)
    for _ in range(6):
        p = data.draw(st.sampled_from(scenes))[1]()
        want = next(((pid, s) for pid, s in zip(surface.piece_ids, surface.pieces)
                     if s.contains(p)), (None, None))
        pid, piece = surface.find_piece(p)
        assert pid == want[0] and piece is want[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_incoming_sign_equals_reversed_outgoing_sign(data):
    k = data.draw(st.sampled_from([2, 3]))
    s, point = data.draw(simplex_scenes(codim1=True, k=k))
    surface = OrientedSurface([s], inverted=data.draw(st.booleans()))
    verts = [point() for _ in range(data.draw(st.integers(2, 4)))]
    # distinct as floats too: the arclength parametrisation is float
    assume(all([float(x) for x in a] != [float(x) for x in b]
               for a, b in zip(verts, verts[1:])))
    gamma = PolyPath(verts, validate=False)
    assert sigma_eval(surface, gamma, "incoming") == -sigma_eval(
        surface, gamma.reversed(), "outgoing")


# ---------------------------------------------------------------------------
# build_graph against the linear-scan reference
# ---------------------------------------------------------------------------


def build_graph_reference(paths):
    """build_graph as a linear scan: every segment pair is intersected, each
    sub-edge is matched against every earlier edge and its reverse, and the
    graph is validated."""
    paths = list(paths)
    cuts = [{(seg, F(s)) for seg in range(len(p.vertices) - 1) for s in (0, 1)}
            for p in paths]
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            p, q = paths[i], paths[j]
            for si, (a, b) in enumerate(zip(p.vertices, p.vertices[1:])):
                for sj, (c, d) in enumerate(zip(q.vertices, q.vertices[1:])):
                    for kind, data in _segment_segment(a, b, c, d):
                        for s, t in [data] if kind == "point" else data:
                            cuts[i].add((si, s))
                            cuts[j].add((sj, t))
    edge_list, words = [], []
    for i, p in enumerate(paths):
        merged = [(seg, s) for seg, s in sorted(cuts[i])
                  if not (s == 1 and (seg + 1, 0) in cuts[i])]
        word = []
        for loc0, loc1 in zip(merged, merged[1:]):
            sub = subpath_reference(p, loc0, loc1)
            for k, e in enumerate(edge_list):
                if e.same_geometry(sub):
                    word.append((f"e{k}", 1))
                    break
                if e.same_geometry(PolyPath(sub.vertices[::-1], validate=False)):
                    word.append((f"e{k}", -1))
                    break
            else:
                edge_list.append(sub)
                word.append((f"e{len(edge_list) - 1}", 1))
        words.append(word)
    return Graph({f"e{k}": e for k, e in enumerate(edge_list)}), words


lattice = st.integers(-2, 2)
on_segment = st.sampled_from([F(1, 3), F(1, 2), F(2, 3)])
on_line = st.sampled_from([F(-1, 2), F(1, 4), F(3, 4), F(3, 2)])


@st.composite
def path_families(draw):
    """2-4 edges in R^2 or R^3 that cross, meet in T-junctions, share
    endpoints, overlap collinearly, retrace (either way) or close.

    Vertices lie on a small lattice, in R^3 mostly on the plane z = x - y, so
    that segments cross; others are earlier vertices, points inside earlier
    segments, or pairs of points on an earlier segment's line."""
    dim = draw(st.sampled_from([2, 3]))

    def fresh():
        x, y = draw(lattice), draw(lattice)
        if dim == 2:
            return (x, y)
        return (x, y, draw(st.sampled_from([x - y, x - y, draw(lattice)])))

    paths = []
    for _ in range(draw(st.integers(2, 4))):
        segs = [(a, b) for p in paths for a, b in zip(p.vertices, p.vertices[1:])]
        kind = draw(st.sampled_from(["fresh", "fresh", "mixed", "mixed", "again"]))
        if kind == "again" and paths:
            p = draw(st.sampled_from(paths))
            paths.append(p.reversed() if draw(st.booleans()) else p)
            continue
        verts = []
        while len(verts) < draw(st.integers(2, 4)):
            how = draw(st.sampled_from(["fresh", "shared", "inside", "overlap"]))
            if how == "fresh" or not segs:
                verts.append(fresh())
            elif how == "shared":
                verts.append(draw(st.sampled_from([v for a, b in segs for v in (a, b)])))
            else:
                a, b = draw(st.sampled_from(segs))
                ws = [on_segment] if how == "inside" else [on_line, on_line]
                verts.extend(lerp_reference(a, b, draw(w)) for w in ws)
        if len(verts) >= 3 and draw(st.booleans()):
            verts.append(verts[0])  # closed edge
        verts = [v for i, v in enumerate(verts) if i == 0 or as_point(v) != as_point(verts[i - 1])]
        try:
            paths.append(PolyPath(verts))
        except GeometryError:
            continue
    assume(len(paths) >= 2)
    return paths


@settings(max_examples=400, deadline=None)
@given(path_families())
def test_build_graph_matches_linear_scan_reference(paths):
    graph, words = build_graph(paths)
    ref_graph, ref_words = build_graph_reference(paths)
    assert words == ref_words
    assert stored(*graph.edges.values()) == stored(*ref_graph.edges.values())
    assert list(graph.edges) == list(ref_graph.edges)
    Graph(graph.edges)  # validated: the edges meet only at endpoints
    for word, p in zip(words, paths):
        chain = None
        for eid, sign in word:
            e = graph.edges[eid] if sign == 1 else graph.edges[eid].reversed()
            chain = e if chain is None else chain.concat(e)
        assert chain.vertices == p.vertices


# ---------------------------------------------------------------------------
# collinearity and path validation against the Fraction-vector code they replace
# ---------------------------------------------------------------------------


def strictly_between_reference(a, b, c):
    """b = a + s (c - a) with 0 < s < 1, on Fraction vectors: u = b - a must
    be parallel to v = c - a and equal s v for the s of v's first nonzero
    coordinate."""
    u = tuple(y - x for x, y in zip(a, b))
    v = tuple(z - x for x, z in zip(a, c))
    k = len(u)
    if any(u[i] * v[j] - u[j] * v[i] != 0 for i in range(k) for j in range(i + 1, k)):
        return False
    for i in range(k):
        if v[i] != 0:
            s = u[i] / v[i]
            if u != tuple(s * x for x in v):
                return False
            return 0 < s < 1
    return False


@st.composite
def point_triples(draw):
    """(a, b, c) in R^2..R^4 with b anywhere, at a or c, or on the line ac
    inside or outside the segment, and sometimes a == c."""
    k = draw(st.sampled_from([2, 3, 4]))
    pt = st.tuples(*[frac] * k).map(as_point)
    a = draw(pt)
    c = a if draw(st.integers(0, 5)) == 0 else draw(pt)
    how = draw(st.sampled_from(["any", "a", "c", "line", "line", "line"]))
    if how == "a":
        b = a
    elif how == "c":
        b = c
    elif how == "line":
        s = draw(st.one_of(frac, st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])))
        b = tuple(x + s * (z - x) for x, z in zip(a, c))
    else:
        b = draw(pt)
    return a, b, c


@settings(max_examples=1000, deadline=None)
@given(point_triples())
@example((as_point((0, 0)), as_point((1, 1)), as_point((2, 2))))
@example((as_point((0, 0)), as_point((3, 3)), as_point((2, 2))))
@example((as_point((1, 2, 3)), as_point((1, 2, 3)), as_point((1, 2, 3))))
def test_strictly_between_matches_fraction_vectors(triple):
    assert _strictly_between(*triple) is strictly_between_reference(*triple)


def canonical_vertices_reference(vertices):
    if len(vertices) <= 2:
        return vertices
    out = [vertices[0]]
    for i in range(1, len(vertices) - 1):
        if not strictly_between_reference(out[-1], vertices[i], vertices[i + 1]):
            out.append(vertices[i])
    out.append(vertices[-1])
    return tuple(out)


def check_injective_reference(vertices):
    """The edge condition over every segment pair, without box pruning."""
    segs = list(zip(vertices, vertices[1:]))
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            for kind, data in segment_segment_reference(*segs[i], *segs[j]):
                if kind == "overlap":
                    raise GeometryError("path overlaps itself")
                s, t = data
                if j == i + 1 and s == 1 and t == 0:
                    continue
                if i == 0 and j == n - 1 and s == 0 and t == 1:
                    continue
                raise GeometryError("path is not injective")


def path_outcome(make, vertices):
    try:
        return make(vertices)
    except GeometryError as exc:
        return str(exc)


def validated_reference(vertices):
    canonical = canonical_vertices_reference(tuple(as_point(v) for v in vertices))
    check_injective_reference(canonical)
    return canonical


@st.composite
def vertex_lists(draw):
    """Vertex lists in R^2 or R^3 that run on along a line, turn back on it,
    cross themselves, revisit a vertex or close."""
    dim = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[st.integers(-2, 2)] * dim)
    verts = [as_point(draw(point))]
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(["fresh", "fresh", "line", "line", "earlier"]))
        if how == "line" and len(verts) >= 2:
            s = draw(st.sampled_from([F(-1, 2), F(1, 2), F(3, 2), F(2)]))
            v = tuple(x + s * (y - x) for x, y in zip(verts[-2], verts[-1]))
        elif how == "earlier":
            v = draw(st.sampled_from(verts))
        else:
            v = as_point(draw(point))
        if v != verts[-1]:
            verts.append(v)
    assume(len(verts) >= 2)
    return verts


@settings(max_examples=600, deadline=None)
@given(vertex_lists())
@example([(0, 0), (2, 0), (1, 1), (1, -1)])
@example([(0, 0), (2, 0), (1, 0), (1, 1)])
@example([(0, 0), (1, 0), (0, 1), (0, 0)])
@example([(0, 0), (1, 0), (2, 0), (3, 0)])
def test_polypath_validation_matches_fraction_vectors(vertices):
    got = path_outcome(lambda v: PolyPath(v).vertices, vertices)
    assert got == path_outcome(validated_reference, vertices)


# ---------------------------------------------------------------------------
# disjointness of surface pieces in R^4
# ---------------------------------------------------------------------------


def r4_triangle(x, y):
    """A triangle in the plane (x, y, *, *) of R^4."""
    return Simplex([(x, y, -1, -1), (x, y, 2, -1), (x, y, -1, 2)])


T1 = Simplex([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0)])


def test_r4_triangles_meeting_in_one_point_are_refused():
    # both contain (1/2, 1/2, 0, 0), inside each; no vertex or edge of one
    # meets the other
    h = F(1, 2)
    with pytest.raises(GeometryError, match="pairwise disjoint"):
        OrientedSurface([T1, r4_triangle(h, h)])
    with pytest.raises(GeometryError, match="pairwise disjoint"):
        OrientedSurface([r4_triangle(h, h), T1])


def test_r4_triangles_whose_hulls_meet_outside_one_are_accepted():
    # the hulls meet in (2, 2, 0, 0), outside T1
    surface = OrientedSurface([T1, r4_triangle(2, 2)])
    assert surface.find_piece((F(1, 2), F(1, 2), 0, 0))[0] == "s0"
    assert surface.find_piece((2, 2, 0, 0))[0] == "s1"


import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holoflux.connections import DomainError, RestrictedConnection, holonomy, random_connection
from holoflux.cylindrical import (
    CylFun,
    _chain_rule,
    _multiplier_rule,
    _rewrite_edges,
    _term_key,
    _then,
    align_to_common,
    cylfun,
    evaluate,
    gamma_based,
    gsn,
    inner_product_exact,
    inner_product_mc,
    is_gsn,
    norm_l2,
    orthogonality_predicate,
    refine_for_surface,
    subdivide_edge,
)
from holoflux.connections import edge_status
from holoflux.estimates import insert_left_matrix
from holoflux.geometry import (
    AffineMap,
    GeometryError,
    Graph,
    OrientedSurface,
    PolyPath,
    Simplex,
    _strictly_between,
    build_graph,
    decompose_minimal,
    sigma_eval,
)
from holoflux.liegroup import GroupValidationError, Irrep, haar_sample, identity, parse_irrep
from holoflux.scene import cylfun_from_json
from holoflux.weylops import (
    GaugeTransform,
    Graphomorphism,
    apply_gauge,
    apply_graphomorphism,
    apply_weyl,
    weyl_constant,
)

HALF = "su2:1/2"
ONE = "su2:1"


def line_graph(n_edges=1):
    paths = [PolyPath([(i, 0), (i + 1, 0)]) for i in range(n_edges)]
    return Graph.from_paths(paths)


def test_constant_function_evaluates_to_constant():
    g = line_graph(2)
    one = cylfun(g, "su2", [(1.0, {})])
    conn = random_connection(g, "su2", np.random.default_rng(0))
    assert evaluate(one, conn) == pytest.approx(1.0)


def test_gsn_evaluation_at_identity():
    g = line_graph(1)
    t = gsn(g, "su2", {"e0": (HALF, 0, 0)})
    conn = RestrictedConnection(g, "su2", {"e0": identity("su2")})
    assert evaluate(t, conn) == pytest.approx(math.sqrt(2))


def test_evaluation_matches_naive_oracle():
    rng = np.random.default_rng(5)
    g = line_graph(3)
    f = cylfun(
        g,
        "su2",
        [
            (0.7 + 0.2j, {"e0": (HALF, 0, 1), "e2": (ONE, 2, 0)}),
            (-1.3j, {"e1": (HALF, 1, 1)}),
            (0.5, {}),
        ],
    )
    for _ in range(20):
        conn = random_connection(g, "su2", rng)
        # naive per-definition evaluation
        r_half, r_one = parse_irrep(HALF), parse_irrep(ONE)
        expected = (
            (0.7 + 0.2j)
            * math.sqrt(2)
            * r_half.evaluate(conn("e0"))[0, 1]
            * math.sqrt(3)
            * r_one.evaluate(conn("e2"))[2, 0]
            + (-1.3j) * math.sqrt(2) * r_half.evaluate(conn("e1"))[1, 1]
            + 0.5
        )
        assert evaluate(f, conn) == pytest.approx(expected, abs=1e-12)


def test_gsn_orthonormality_small():
    g = line_graph(2)
    states = []
    for rho in (HALF, ONE):
        dim = parse_irrep(rho).dim
        for m in range(dim):
            for n in range(dim):
                states.append(gsn(g, "su2", {"e0": (rho, m, n), "e1": (HALF, 0, 0)}))
    for i, s1 in enumerate(states):
        for j, s2 in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert inner_product_exact(s1, s2) == pytest.approx(expected, abs=1e-14)


def test_inner_product_vs_mc():
    g = line_graph(1)
    t1 = gsn(g, "su2", {"e0": (HALF, 0, 0)})
    t2 = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    one = cylfun(g, "su2", [(1.0, {})])
    rng = np.random.default_rng(11)
    val, se = inner_product_mc(t1, t1, 4000, rng)
    assert abs(val - 1.0) <= 3 * se + 0.05
    val, se = inner_product_mc(t1, t2, 4000, rng)
    assert abs(val) <= 3 * se + 0.05
    val, se = inner_product_mc(one, t1, 4000, rng)
    assert abs(val) <= 3 * se + 0.05


def test_mc_deterministic_under_seed():
    g = line_graph(1)
    t1 = gsn(g, "su2", {"e0": (HALF, 0, 0)})
    v1, e1 = inner_product_mc(t1, t1, 1000, np.random.default_rng(77))
    v2, e2 = inner_product_mc(t1, t1, 1000, np.random.default_rng(77))
    assert v1 == v2 and e1 == e2


def test_mc_matches_per_sample_oracle():
    # the batched estimator draws what random_connection draws, sample by
    # sample, and must give the estimate of evaluating f1, f2 on each draw
    g = line_graph(3)
    f1 = gsn(g, "su2", {"e0": (HALF, 0, 1), "e1": (ONE, 2, 0), "e2": (HALF, 1, 1)})
    f2 = cylfun(g, "su2", [(0.7 - 0.2j, dict(f1.monomials()[0][1])),
                           (1.1j, {"e1": (ONE, 1, 1)}), (0.3, {})])
    n = 1000
    est, se = inner_product_mc(f1, f2, n, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    vals = np.empty(n, dtype=complex)
    for i in range(n):
        conn = random_connection(g, "su2", rng)
        vals[i] = np.conj(evaluate(f1, conn)) * evaluate(f2, conn)
    expected_se = np.sqrt(np.var(vals.real) + np.var(vals.imag)) / math.sqrt(n)
    assert abs(est - vals.mean()) <= 1e-12
    assert abs(se - expected_se) <= 1e-12


def test_mc_refusals():
    g = line_graph(2)
    t = gsn(g, "su2", {"e0": (HALF, 0, 0), "e1": (ONE, 1, 2)})
    with pytest.raises(DomainError):
        inner_product_mc(t, t, 999, np.random.default_rng(0))
    other = gsn(line_graph(3), "su2", {"e0": (HALF, 0, 0), "e1": (ONE, 1, 2), "e2": (HALF, 1, 0)})
    with pytest.raises(DomainError):
        inner_product_mc(t, other, 1000, np.random.default_rng(0))
    charged = gsn(g, "u1", {"e0": ("u1:1", 0, 0), "e1": ("u1:-2", 0, 0)})
    with pytest.raises(GroupValidationError):
        inner_product_mc(t, charged, 1000, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------


def test_subdivide_monomial_count_and_coefficient():
    g = line_graph(1)
    t = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    t2 = subdivide_edge(t, "e0", 0.5)
    assert len(t2.terms) == 2
    for coeff in t2.terms.values():
        assert coeff == pytest.approx(1 / math.sqrt(2))


def test_subdivide_trivial_edge_unchanged():
    g = line_graph(2)
    f = cylfun(g, "su2", [(2.0, {"e1": (HALF, 0, 0)})])
    f2 = subdivide_edge(f, "e0", 0.5)
    assert len(f2.terms) == 1
    ((key, coeff),) = f2.terms.items()
    assert coeff == pytest.approx(2.0)
    assert dict(key) == {"e1": (HALF, 0, 0)}


def consistent_extension(conn_fine, graph_coarse, split_map):
    """Holonomy-consistent coarse connection from a fine one."""
    assignment = {}
    for eid, chain in split_map.items():
        h = None
        for sub in chain:
            g = conn_fine(sub)
            h = g if h is None else h @ g
        assignment[eid] = h
    return RestrictedConnection(graph_coarse, "su2", assignment)


def test_subdivision_preserves_evaluation():
    rng = np.random.default_rng(3)
    g = line_graph(1)
    t = gsn(g, "su2", {"e0": (ONE, 1, 2)})
    t_fine = subdivide_edge(t, "e0", 0.5)
    for _ in range(100):
        conn_fine = random_connection(t_fine.graph, "su2", rng)
        conn_coarse = consistent_extension(conn_fine, g, {"e0": ["e0.a", "e0.b"]})
        assert evaluate(t, conn_coarse) == pytest.approx(
            evaluate(t_fine, conn_fine), abs=1e-12
        )


def test_subdivision_preserves_inner_products():
    g = line_graph(1)
    ta = gsn(g, "su2", {"e0": (HALF, 0, 0)})
    tb = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    fa = subdivide_edge(ta, "e0", 0.5)
    fb = subdivide_edge(tb, "e0", 0.5)
    assert inner_product_exact(fa, fa) == pytest.approx(1.0, abs=1e-12)
    assert inner_product_exact(fa, fb) == pytest.approx(0.0, abs=1e-12)
    assert inner_product_exact(fa, fb) == inner_product_exact(ta, tb)


def test_subdivided_state_expands_in_finer_gsn_basis():
    g = line_graph(1)
    t = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    fine = subdivide_edge(t, "e0", 0.5)
    # every monomial is itself a finer-graph GSN scaled by 1/sqrt(dim)
    for key, coeff in fine.terms.items():
        factors = dict(key)
        assert set(factors) == {"e0.a", "e0.b"}
        state = gsn(fine.graph, "su2", factors)
        assert is_gsn(state)
        assert coeff == pytest.approx(1 / math.sqrt(2))
    # chained indices match
    keys = sorted(fine.terms)
    for key in keys:
        f = dict(key)
        assert f["e0.a"][2] == f["e0.b"][1]


def test_align_to_common():
    g1 = Graph.from_paths([PolyPath([(0, 0), (2, 0)])])
    g2 = Graph.from_paths([PolyPath([(0, 0), (1, 0)]), PolyPath([(1, 0), (2, 0)])])
    t1 = gsn(g1, "su2", {"e0": (HALF, 0, 0)})
    t2 = gsn(g2, "su2", {"e0": (HALF, 0, 0), "e1": (HALF, 0, 0)})
    a1, a2 = align_to_common(t1, t2)
    assert set(a1.graph.edges) == set(a2.graph.edges)
    val = inner_product_exact(a1, a2)
    # <subdivided T, T_0 x T_0> = 1/sqrt(2)
    assert val == pytest.approx(1 / math.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_orthogonality_different_images():
    g1 = Graph.from_paths([PolyPath([(0, 0), (1, 0)])])
    g2 = Graph.from_paths([PolyPath([(0, 1), (1, 1)])])
    t1 = gsn(g1, "su2", {"e0": (HALF, 0, 0)})
    t2 = gsn(g2, "su2", {"e0": (HALF, 0, 0)})
    assert orthogonality_predicate(t1, t2)
    a1, a2 = align_to_common(t1, t2)
    assert inner_product_exact(a1, a2) == pytest.approx(0.0, abs=1e-14)


def test_orthogonality_same_state_false():
    g1 = line_graph(1)
    t1 = gsn(g1, "su2", {"e0": (HALF, 0, 0)})
    t2 = gsn(g1, "su2", {"e0": (HALF, 0, 0)})
    assert not orthogonality_predicate(t1, t2)


def test_orthogonality_mismatched_irreps_on_shared_segment():
    g1 = line_graph(1)
    t1 = gsn(g1, "su2", {"e0": (HALF, 0, 0)})
    t2 = gsn(g1, "su2", {"e0": (ONE, 0, 0)})
    assert orthogonality_predicate(t1, t2)
    assert inner_product_exact(t1, t2) == 0


def test_orthogonality_two_valent_nonmatching_vs_interior():
    # t1 lives on the split graph with NON-matching indices at the midpoint;
    # t2 lives on the unsplit edge (midpoint interior)
    g2 = Graph.from_paths([PolyPath([(0, 0), (2, 0)])])
    t2 = gsn(g2, "su2", {"e0": (HALF, 0, 0)})
    g1 = Graph.from_paths([PolyPath([(0, 0), (1, 0)]), PolyPath([(1, 0), (2, 0)])])
    t1 = gsn(g1, "su2", {"e0": (HALF, 0, 1), "e1": (HALF, 0, 1)})  # 1 != 0: non-matching
    assert orthogonality_predicate(t1, t2)
    a1, a2 = align_to_common(t1, t2)
    assert inner_product_exact(a1, a2) == pytest.approx(0.0, abs=1e-14)


def test_orthogonality_two_valent_conflicting_indices():
    g = Graph.from_paths([PolyPath([(0, 0), (1, 0)]), PolyPath([(1, 0), (2, 0)])])
    t1 = gsn(g, "su2", {"e0": (HALF, 0, 0), "e1": (HALF, 0, 0)})
    t2 = gsn(g, "su2", {"e0": (HALF, 0, 1), "e1": (HALF, 0, 0)})
    assert orthogonality_predicate(t1, t2)
    assert inner_product_exact(t1, t2) == 0


def test_gamma_based_single_edge():
    g = line_graph(1)
    t = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    gamma = PolyPath([(0, 0), (1, 0)])
    assert gamma_based(t, gamma, parse_irrep(HALF))
    assert not gamma_based(t, gamma, parse_irrep(ONE))


def test_gamma_based_subdivided_matching():
    g = Graph.from_paths([PolyPath([(0, 0), (1, 0)]), PolyPath([(1, 0), (2, 0)])])
    gamma = PolyPath([(0, 0), (2, 0)])
    t_match = gsn(g, "su2", {"e0": (HALF, 0, 1), "e1": (HALF, 1, 0)})
    t_clash = gsn(g, "su2", {"e0": (HALF, 0, 1), "e1": (HALF, 0, 0)})
    assert gamma_based(t_match, gamma, parse_irrep(HALF))
    assert not gamma_based(t_clash, gamma, parse_irrep(HALF))


def test_gamma_based_on_subdivision_summands():
    # every summand of a subdivided based state is based again
    g = Graph.from_paths([PolyPath([(0, 0), (2, 0)])])
    gamma = PolyPath([(0, 0), (2, 0)])
    t = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    fine = subdivide_edge(t, "e0", 0.5)
    for key, _coeff in fine.terms.items():
        summand = gsn(fine.graph, "su2", dict(key))
        assert gamma_based(summand, gamma, parse_irrep(HALF))


def test_gamma_based_closed_rotation():
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    gamma = PolyPath(square)
    # chain starting at (1, 0): same loop, rotated base point
    g = Graph.from_paths(
        [
            PolyPath([(1, 0), (1, 1), (0, 1)]),
            PolyPath([(0, 1), (0, 0), (1, 0)]),
        ]
    )
    t = gsn(g, "su2", {"e0": (HALF, 0, 1), "e1": (HALF, 1, 0)})
    assert gamma_based(t, gamma, parse_irrep(HALF))
    t_bad = gsn(g, "su2", {"e0": (HALF, 0, 1), "e1": (HALF, 1, 1)})  # wrap clash
    assert not gamma_based(t_bad, gamma, parse_irrep(HALF))


def gamma_based_reference(t, gamma, rho):
    """gamma_based as a search over every ordering of the edges."""
    fac = dict(next(iter(t.terms)))
    if set(fac) != set(t.graph.edges):
        return False
    if any(f[0] != rho.key() for f in fac.values()):
        return False

    def cycle_segments(path):
        verts = list(path.vertices[:-1])
        n = len(verts)
        keep = []
        for i in range(n):
            a, b, c = verts[(i - 1) % n], verts[i], verts[(i + 1) % n]
            if not _strictly_between(a, b, c):
                keep.append(b)
        return set(zip(keep, keep[1:] + keep[:1]))

    for perm in itertools.permutations(list(t.graph.edges)):
        chain = None
        ok = True
        for eid in perm:
            p = t.graph.edges[eid]
            if chain is None:
                chain = p
            elif chain.end != p.start:
                ok = False
                break
            else:
                chain = PolyPath(chain.vertices + p.vertices[1:], validate=False)
        if not ok:
            continue
        same = chain.same_geometry(gamma)
        rotated = (
            not same
            and gamma.is_closed
            and chain.is_closed
            and cycle_segments(chain) == cycle_segments(gamma)
        )
        if not (same or rotated):
            continue
        if any(fac[a][2] != fac[b][1] for a, b in zip(perm, perm[1:])):
            continue
        if gamma.is_closed and fac[perm[-1]][2] != fac[perm[0]][1]:
            continue
        return True
    return False


@st.composite
def based_candidates(draw):
    """(state, gamma, rho): a path or loop cut into 1-5 edges listed in any
    order, sometimes with one edge reversed, a clashing index, one factor in
    another irrep, rho another irrep, or gamma replaced by another path."""
    if draw(st.booleans()):
        verts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        verts = verts[:draw(st.integers(3, 4))]
        if draw(st.booleans()):
            verts.insert(1, (1, 0))  # a collinear base point to merge
        verts.append(verts[0])
    else:
        verts = [(0, 0)]
        for _ in range(draw(st.integers(1, 4))):
            x, y = verts[-1]
            verts.append(draw(st.sampled_from([(x + 1, y), (x, y + 1), (x + 1, y + 1)])))
    base = PolyPath(verts)
    if base.is_closed:  # the chain may run round the loop from another corner
        r = draw(st.integers(0, len(base.vertices) - 2))
        v = base.vertices[:-1]
        base = PolyPath(v[r:] + v[:r] + v[r:r + 1])
    nseg = len(base.vertices) - 1
    locs = draw(st.sets(st.tuples(st.integers(0, nseg - 1), st.sampled_from([0, 1, 2, 3])),
                        max_size=4))
    cuts = sorted({(0, Fraction(0)), (nseg - 1, Fraction(1))}
                  | {(seg, Fraction(q, 4)) for seg, q in locs if (seg, q) != (0, 0)})
    edges = [base.subpath_exact(a, b) for a, b in zip(cuts, cuts[1:])]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(edges) - 1))
        edges[k] = edges[k].reversed()
    order = draw(st.permutations(range(len(edges))))
    graph = Graph({f"e{i}": edges[i] for i in order}, validate=False)
    # indices at the joints match along the chain (and round a loop) unless
    # one is redrawn
    joints = [draw(st.integers(0, 1)) for _ in edges]
    joints.append(joints[0] if base.is_closed else draw(st.integers(0, 1)))
    labels = {f"e{i}": [HALF, joints[i], joints[i + 1]] for i in range(len(edges))}
    if draw(st.integers(0, 2)) == 0:
        lab = labels[draw(st.sampled_from(sorted(labels)))]
        lab[draw(st.integers(1, 2))] = draw(st.integers(0, 1))
    if draw(st.integers(0, 3)) == 0:
        labels[draw(st.sampled_from(sorted(labels)))][0] = ONE
    labels = {eid: tuple(lab) for eid, lab in labels.items()}
    gamma = PolyPath(verts)
    if draw(st.integers(0, 2)) == 0:  # another path: shortened, or closed early
        early = verts[:-1] + verts[:1]
        try:
            gamma = PolyPath(draw(st.sampled_from([verts[:-1], early, early])))
        except GeometryError:
            gamma = PolyPath([verts[0], (5, 5)])
    rho = parse_irrep(draw(st.sampled_from([HALF, HALF, HALF, ONE])))
    return gsn(graph, "su2", labels), gamma, rho


@settings(max_examples=400, deadline=None)
@given(based_candidates())
def test_gamma_based_matches_search_over_orderings(case):
    t, gamma, rho = case
    assert gamma_based(t, gamma, rho) == gamma_based_reference(t, gamma, rho)


def test_norm_of_sum():
    g = line_graph(1)
    t1 = gsn(g, "su2", {"e0": (HALF, 0, 0)})
    t2 = gsn(g, "su2", {"e0": (HALF, 0, 1)})
    f = t1 + t2.scale(2.0)
    assert norm_l2(f) == pytest.approx(math.sqrt(5.0))


# ---------------------------------------------------------------------------
# edge-wise rewriting against the brute-force expansion
# ---------------------------------------------------------------------------

PLANE = OrientedSurface(
    [Simplex([(0, -9, -9), (0, 20, -9), (0, -9, 20)], normal=(1, 0, 0))],
    piece_ids=("p0",),
)
# edge shapes at height y: crossing the plane x = 0, starting on it, or
# running inside it for a while (three pieces against the plane)
EDGE_SHAPES = (
    lambda y: [(-1, y, 0), (1, y, 0)],
    lambda y: [(-2, y, 0), (2, y, 0)],
    lambda y: [(0, y, 0), (1, y, 0)],
    lambda y: [(-1, y, 0), (0, y, 0), (0, y, 1), (1, y, 1)],
)
SPIN_KEYS = ("su2:0", HALF, ONE)
# most terms the brute-force reference may build for one state
REFERENCE_TERMS_CAP = 10**6


def expand_reference(terms, rewrite):
    """Multiply out every edge of each monomial, then merge equal keys.

    rewrite(eid, factor) gives the replacement list [(weight, {new id:
    factor})], or None to keep the factor.
    """
    out = {}
    for key, coeff in terms.items():
        expansion = [({}, coeff)]
        for eid, fac in key:
            repl = rewrite(eid, fac) or [(1.0, {eid: fac})]
            expansion = [({**f, **new}, c * w) for f, c in expansion for w, new in repl]
        for factors, c in expansion:
            k = tuple(sorted(factors.items()))
            out[k] = out.get(k, 0) + c
    return out


def multiplier_reference(eid, fac, left, right):
    rho_key, m, n = fac
    dim = parse_irrep(rho_key).dim
    return [(left[m, r] * right[s, n], {eid: (rho_key, r, s)})
            for r in range(dim) for s in range(dim)]


def chain_reference(sub_ids, fac):
    rho_key, m, n = fac
    dim = parse_irrep(rho_key).dim
    k = len(sub_ids)
    out = []
    for inner in itertools.product(range(dim), repeat=k - 1):
        seq = (m,) + inner + (n,)
        out.append((dim ** (-(k - 1) / 2),
                    {s: (rho_key, a, b) for s, a, b in zip(sub_ids, seq, seq[1:])}))
    return out


def assert_terms_close(got, expected):
    keys = set(got) | set(expected)
    worst = max((abs(got.get(k, 0) - expected.get(k, 0)) for k in keys), default=0.0)
    assert worst <= 1e-12


@st.composite
def graph_states(draw, min_edges=1):
    """A random state on 1-3 edges: spins 0, 1/2, 1 and trivial factors
    mixed across 1-4 monomials."""
    shapes = draw(st.lists(st.sampled_from(range(len(EDGE_SHAPES))),
                           min_size=min_edges, max_size=3))
    graph = Graph.from_paths([PolyPath(EDGE_SHAPES[s](y)) for y, s in enumerate(shapes)])
    monos = []
    for _ in range(draw(st.integers(1, 4))):
        factors = {}
        for eid in graph.edges:
            rho_key = draw(st.sampled_from((None,) + SPIN_KEYS))
            if rho_key is not None:
                dim = parse_irrep(rho_key).dim
                factors[eid] = (rho_key, draw(st.integers(0, dim - 1)),
                                draw(st.integers(0, dim - 1)))
        coeff = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        monos.append((coeff, factors))
    return cylfun(graph, "su2", monos)


@settings(max_examples=40, deadline=None)
@given(graph_states(), st.integers(0, 2**32 - 1))
def test_apply_weyl_matches_reference(f, seed):
    w = weyl_constant(PLANE, haar_sample(np.random.default_rng(seed), "su2"))
    paths, sub_ids = {}, {}
    for eid, path in f.graph.edges.items():
        pieces = [p.path for p in decompose_minimal(path, PLANE).pieces]
        k = len(pieces)
        ids = [eid] if k == 1 else (
            [eid + ".b" * i + ".a" for i in range(k - 1)] + [eid + ".b" * (k - 1)])
        paths.update(zip(ids, pieces))
        if k > 1:
            sub_ids[eid] = ids
    # The reference multiplies each monomial out before merging: a factor of
    # dimension d on an edge of k pieces, r of them rewritten by the
    # multiplier, becomes d^(k-1) * d^(2r) terms.  Three spin-1 edges that
    # run inside the plane reach about 4e8 terms, more memory than a test
    # may take, so such states are skipped.
    rewritten = {eid: sum(edge_status(paths[i], PLANE) != "internal"
                          for i in sub_ids.get(eid, [eid])) for eid in f.graph.edges}
    reference_terms = sum(
        math.prod(parse_irrep(fac[0]).dim ** (len(sub_ids.get(eid, [eid])) - 1 + 2 * rewritten[eid])
                  for eid, fac in key)
        for key in f.terms)
    assume(reference_terms <= REFERENCE_TERMS_CAP)
    refined = expand_reference(
        f.terms, lambda eid, fac: chain_reference(sub_ids[eid], fac) if eid in sub_ids else None)

    def multiply(eid, fac):
        path = paths[eid]
        if edge_status(path, PLANE) == "internal":
            return None
        rho = parse_irrep(fac[0])
        left = rho.evaluate(w.label.at(path.start).power(sigma_eval(PLANE, path, "outgoing")))
        right = rho.evaluate(w.label.at(path.end).power(sigma_eval(PLANE, path, "incoming")))
        return multiplier_reference(eid, fac, left, right)

    out = apply_weyl(w, f)
    assert {e: p.vertices for e, p in out.graph.edges.items()} == {
        e: p.vertices for e, p in paths.items()}
    assert_terms_close(out.terms, expand_reference(refined, multiply))


@settings(max_examples=40, deadline=None)
@given(graph_states(), st.integers(0, 2**32 - 1))
def test_apply_gauge_matches_reference(f, seed):
    rng = np.random.default_rng(seed)
    points = sorted(f.graph.vertices())
    # leave some vertices at the identity
    gt = GaugeTransform("su2", {p: haar_sample(rng, "su2") for p in points[::2]})

    def multiply(eid, fac):
        path = f.graph.edges[eid]
        rho = parse_irrep(fac[0])
        gl, gr = gt.at(path.start), gt.at(path.end)
        if gl.is_identity() and gr.is_identity():
            return None
        return multiplier_reference(eid, fac, rho.evaluate(gl.inverse()), rho.evaluate(gr))

    assert_terms_close(apply_gauge(gt, f).terms, expand_reference(f.terms, multiply))


@settings(max_examples=40, deadline=None)
@given(graph_states(), st.sampled_from((HALF, ONE)), st.integers(0, 2**32 - 1))
def test_insert_left_matrix_matches_reference(f, rho_key, seed):
    rng = np.random.default_rng(seed)
    eid = sorted(f.graph.edges)[0]
    # the inserted matrix fits one irrep: keep the monomials it can act on
    f = cylfun(f.graph, "su2", [(c, m) for c, m in f.monomials()
                                if m.get(eid, (rho_key,))[0] == rho_key])
    dim = parse_irrep(rho_key).dim
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    expected = expand_reference(
        f.terms,
        lambda e, fac: multiplier_reference(e, fac, mat, np.eye(dim)) if e == eid else None)
    assert_terms_close(insert_left_matrix(f, eid, mat).terms, expected)


@settings(max_examples=40, deadline=None)
@given(graph_states(), st.integers(0, 2), st.sampled_from((0.25, 0.5, 0.8)))
def test_subdivide_edge_matches_reference(f, pick, t):
    eid = sorted(f.graph.edges)[pick % len(f.graph.edges)]
    ids = [eid + ".a", eid + ".b"]
    out = subdivide_edge(f, eid, t)
    assert set(out.graph.edges) == set(f.graph.edges) - {eid} | set(ids)
    expected = expand_reference(
        f.terms, lambda e, fac: chain_reference(ids, fac) if e == eid else None)
    assert_terms_close(out.terms, expected)


@settings(max_examples=40, deadline=None)
@given(graph_states(), graph_states())
def test_align_to_common_matches_reference(f1, f2):
    ids1, ids2 = list(f1.graph.edges), list(f2.graph.edges)
    paths = [f1.graph.edges[e] for e in ids1] + [f2.graph.edges[e] for e in ids2]
    ref_graph, words = build_graph(paths)
    a1, a2 = align_to_common(f1, f2)
    for f, ids, ws, out in ((f1, ids1, words, a1), (f2, ids2, words[len(ids1):], a2)):
        chains = {eid: [sub for sub, _sign in w] for eid, w in zip(ids, ws)}
        assert set(out.graph.edges) == set(ref_graph.edges)
        expected = expand_reference(f.terms, lambda e, fac: chain_reference(chains[e], fac))
        assert_terms_close(out.terms, expected)


def test_align_when_a_new_edge_reuses_an_old_id():
    """f1's second edge is 'e1'; the common refinement calls the segment
    (1,0)-(2,0) of f1's first edge 'e1' too, and only the old one may be
    rewritten as f1's second edge."""
    rng = np.random.default_rng(11)
    coarse_graph = Graph.from_paths([PolyPath([(0, 0), (2, 0)]), PolyPath([(2, 0), (3, 0)])])
    f1 = cylfun(coarse_graph, "su2", [
        (0.8 - 0.3j, {"e0": (HALF, 0, 1), "e1": (ONE, 2, 0)}),
        (1.1j, {"e0": (ONE, 1, 1), "e1": (HALF, 1, 0)}),
        (-0.4, {"e1": (ONE, 0, 2)}),
    ])
    f2 = gsn(Graph.from_paths([PolyPath([(1, 0), (3, 0)])]), "su2", {"e0": (HALF, 0, 0)})
    a1, _a2 = align_to_common(f1, f2)
    assert a1.graph.edges["e1"].vertices == PolyPath([(1, 0), (2, 0)]).vertices
    for _ in range(20):
        c = random_connection(a1.graph, "su2", rng)
        coarse = RestrictedConnection(coarse_graph, "su2",
                                      {"e0": c("e0") @ c("e1"), "e1": c("e2")})
        assert abs(evaluate(a1, c) - evaluate(f1, coarse)) <= 1e-12


# ---------------------------------------------------------------------------
# the kernel against the code it replaced
# ---------------------------------------------------------------------------


def rewrite_edges_reference(terms, rules):
    """The edge-wise kernel as it was before rule alternatives were cached as
    sorted item tuples: every new key is a merged dict, sorted."""
    state = {}
    for key, coeff in terms.items():
        todo = tuple(item for item in key if item[0] in rules)
        done = tuple(item for item in key if item[0] not in rules)
        state[(todo, done)] = state.get((todo, done), 0) + coeff
    for eid in sorted(rules):
        rule, seen, nxt = rules[eid], {}, {}
        for (todo, done), coeff in state.items():
            if not todo or todo[0][0] != eid:
                nxt[(todo, done)] = nxt.get((todo, done), 0) + coeff
                continue
            fac = todo[0][1]
            if fac not in seen:
                seen[fac] = rule(fac)
            rest, base = todo[1:], dict(done)
            for weight, new in seen[fac]:
                k = (rest, _term_key({**base, **new}))
                nxt[k] = nxt.get(k, 0) + coeff * weight
        state = nxt
    return {done: coeff for (_todo, done), coeff in state.items()}


def apply_weyl_two_pass(w, f):
    """``apply_weyl`` as it was before an edge's split and its multipliers
    formed one rule: refine every edge, then multiply the refined sum."""
    surface = w.effective_surface()
    refined = refine_for_surface(f, surface)
    rules = {}
    for eid, path in refined.graph.edges.items():
        if edge_status(path, surface) == "internal":
            continue
        sig_out = sigma_eval(surface, path, "outgoing")
        sig_in = sigma_eval(surface, path, "incoming")
        if (sig_out, sig_in) != (0, 0):
            left, right = w.label.at(path.start).power(sig_out), w.label.at(path.end).power(sig_in)
            rules[eid] = _multiplier_rule(eid, lambda rho, g=left: rho.evaluate(g),
                                          lambda rho, g=right: rho.evaluate(g))
    return refined.graph, rewrite_edges_reference(refined.terms, rules)


# most monomials a Weyl operator on PLANE may make in the tests below
WEYL_TERMS_CAP = 10**5


def weyl_terms_bound(f):
    """A bound on the monomials of a Weyl operator on PLANE applied to f: a
    factor of dimension d on an edge of k pieces becomes at most d^(2k)."""
    pieces = {eid: len(decompose_minimal(path, PLANE).pieces) for eid, path in f.graph.edges.items()}
    return sum(math.prod(parse_irrep(fac[0]).dim ** (2 * pieces[eid]) for eid, fac in key)
               for key in f.terms)


def random_multiplier(eid, rng):
    """A multiplier rule with fixed random matrices per dimension; each side
    is left out (the identity) with probability 1/3."""
    mats = {}

    def side(rho):
        d = rho.dim
        if d not in mats:
            mats[d] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return mats[d]

    left, right = rng.integers(0, 3, size=2)
    return _multiplier_rule(eid, side if left else None, side if right else None)


@settings(max_examples=60, deadline=None)
@given(graph_states(), st.lists(st.sampled_from(("keep", "chain", "mult", "then")),
                                min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_rewrite_edges_equals_reference(f, kinds, seed):
    # chain, multiplier and composed rules, alone and mixed, on 1-4 monomials
    rng = np.random.default_rng(seed)
    rules = {}
    for eid, kind in zip(sorted(f.graph.edges), kinds):
        sub = [eid + ".a", eid + ".b.a", eid + ".b.b"][:int(rng.integers(2, 4))]
        if kind == "chain":
            rules[eid] = _chain_rule(sub)
        elif kind == "mult":
            rules[eid] = random_multiplier(eid, rng)
        elif kind == "then":
            rules[eid] = _then(_chain_rule(sub), {s: random_multiplier(s, rng) for s in sub[1:]})
    assert _rewrite_edges(f.terms, rules) == rewrite_edges_reference(f.terms, rules)


@settings(max_examples=40, deadline=None)
@given(graph_states(), st.sampled_from(("natural", "inverse")), st.integers(0, 2**32 - 1))
def test_apply_weyl_equals_two_pass(f, rule, seed):
    assume(weyl_terms_bound(f) <= WEYL_TERMS_CAP)
    w = weyl_constant(PLANE, haar_sample(np.random.default_rng(seed), "su2"), rule)
    graph, expected = apply_weyl_two_pass(w, f)
    out = apply_weyl(w, f)
    assert out.graph.edges.keys() == graph.edges.keys()
    assert all(out.graph.edges[e].vertices == p.vertices for e, p in graph.edges.items())
    assert_terms_close(out.terms, expected)


def test_rewrite_edges_rejects_a_new_id_that_is_taken():
    # a rule's output may not reuse the id of a kept edge, nor an id that
    # another rule makes; it may reuse the id of an edge still to rewrite
    terms = {_term_key({"e0": (HALF, 0, 1), "e1": (HALF, 1, 0)}): 1.0}
    with pytest.raises(DomainError):
        _rewrite_edges(terms, {"e0": _chain_rule(["e0.a", "e1"])})
    with pytest.raises(DomainError):
        _rewrite_edges(terms, {"e0": _chain_rule(["x", "y"]), "e1": _chain_rule(["y", "z"])})
    out = _rewrite_edges(terms, {"e0": _chain_rule(["e0", "e1"]), "e1": _chain_rule(["e2"])})
    assert out == rewrite_edges_reference(
        terms, {"e0": _chain_rule(["e0", "e1"]), "e1": _chain_rule(["e2"])})


def assert_valid(g):
    """The public constructor accepts what the kernel built."""
    CylFun(g.graph, g.group, g.terms)
    assert all(c != 0 for c in g.terms.values())


@settings(max_examples=30, deadline=None)
@given(graph_states(), graph_states(), st.integers(0, 2**32 - 1))
def test_kernel_outputs_pass_the_public_validator(f, f2, seed):
    assume(weyl_terms_bound(f) <= WEYL_TERMS_CAP)
    rng = np.random.default_rng(seed)
    w = weyl_constant(PLANE, haar_sample(rng, "su2"))
    points = sorted(f.graph.vertices())
    gt = GaugeTransform("su2", {p: haar_sample(rng, "su2") for p in points[::2]})
    eid = sorted(f.graph.edges)[0]
    phi = Graphomorphism(affine=AffineMap([[0, 1, 0], [-1, 0, 0], [0, 0, 2]], [1, 0, 0]))
    # the inserted matrix fits one irrep: keep the monomials it can act on
    rho_key = next((fac[0] for key in f.terms for e, fac in key if e == eid), HALF)
    dim = parse_irrep(rho_key).dim
    on_rho = cylfun(f.graph, "su2", [(c, m) for c, m in f.monomials()
                                     if m.get(eid, (rho_key,))[0] == rho_key])
    for g in (apply_weyl(w, f), apply_gauge(gt, f), refine_for_surface(f, PLANE),
              *align_to_common(f, f2), subdivide_edge(f, eid, 0.5),
              apply_graphomorphism(phi, f), insert_left_matrix(on_rho, eid, rng.normal(size=(dim, dim))),
              f + f.scale(0.5j), f.scale(-2.0), f - f):
        assert_valid(g)


def test_zeros_are_dropped():
    g = line_graph(2)
    f = cylfun(g, "su2", [(1.5, {"e0": (HALF, 0, 1)}), (-0.5j, {"e1": (ONE, 2, 0)})])
    assert (f - f).terms == {}
    assert f.scale(0).terms == {}
    assert (f + f.scale(-1)).terms == {}


def test_public_constructors_reject_bad_monomials():
    g = line_graph(2)
    bad = [({"e7": (HALF, 0, 0)}, "unknown edge"),
           ({"e0": ("u1:1", 0, 0)}, "group mismatch"),
           ({"e0": (HALF, 2, 0)}, "index out of range"),
           ({"e1": (ONE, 0, -1)}, "index out of range")]
    for factors, _why in bad:
        with pytest.raises(DomainError):
            cylfun(g, "su2", [(1.0, factors)])
        with pytest.raises(DomainError):
            CylFun(g, "su2", {_term_key(factors): 1.0})
        with pytest.raises(DomainError):
            gsn(g, "su2", {"e0": (HALF, 0, 0), "e1": (HALF, 0, 0), **factors})
        obj = {"schema": 1, "graph": "g", "monomials": [
            {"coeff": [1.0, 0.0], "factors": {e: {"irrep": rho, "m": m, "n": n}
                                              for e, (rho, m, n) in factors.items()}}]}
        with pytest.raises(DomainError):
            cylfun_from_json(obj, g, "su2")
    charged = gsn(g, "u1", {"e0": ("u1:1", 0, 0), "e1": ("u1:-2", 0, 0)})
    with pytest.raises(DomainError):
        gsn(g, "su2", {"e0": (HALF, 0, 0), "e1": (HALF, 0, 0)}) + charged

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflux.connections import DomainError, RestrictedConnection, holonomy, random_connection
from holoflux.cylindrical import (
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
    subdivide_edge,
)
from holoflux.connections import edge_status
from holoflux.estimates import insert_left_matrix
from holoflux.geometry import (
    Graph,
    OrientedSurface,
    PolyPath,
    Simplex,
    build_graph,
    decompose_minimal,
    sigma_eval,
)
from holoflux.liegroup import GroupValidationError, Irrep, haar_sample, identity, parse_irrep
from holoflux.weylops import GaugeTransform, apply_gauge, apply_weyl, weyl_constant

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

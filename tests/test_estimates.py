import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from holoflux.estimates import (
    XiProfile,
    abelian_weyl_phase_check,
    casimir_gap_check,
    chain_graph,
    chain_gsn,
    insert_left_matrix,
    matrix_element_sup,
    nice_surface_inner_check,
    opprod_bound_check,
    splitting_witness,
    tensor_casimir_check,
    weyl_family_gram,
    winding_average_check,
    xi,
)
from holoflux.geometry import Graph, PolyPath
from holoflux.liegroup import (
    Irrep,
    exp_alg,
    find_character_zero,
    haar_sample,
    identity,
    su2_basis,
    u1_basis,
    u1_element,
)

HALF = Irrep("su2", Fraction(1, 2))
ONE = Irrep("su2", Fraction(1))
BASIS = su2_basis()


def test_xi_identity_at_zero():
    assert np.allclose(xi(HALF, BASIS, 0.0), np.eye(2), atol=1e-15)


def test_xi_spin_half_is_cosine():
    for t in np.linspace(-1.5, 1.5, 21):
        assert np.linalg.norm(xi(HALF, BASIS, float(t)) - math.cos(t) * np.eye(2)) <= 1e-12


def test_xi_profile_invariants():
    XiProfile.build(HALF, BASIS, np.linspace(-1, 1, 9))
    XiProfile.build(ONE, BASIS, np.linspace(-1, 1, 9))


def test_xi_u1():
    basis = u1_basis()
    rho = Irrep("u1", 2)
    for t in (0.1, 0.7):
        assert abs(xi(rho, basis, t)[0, 0] - math.cos(2 * t)) <= 1e-12


def test_casimir_gap_limit_one_twelfth():
    grid = [0.2, 0.1, 0.05, 0.025]
    rep = casimir_gap_check(HALF, BASIS, 0.5, grid)
    assert rep["pass"]
    assert abs(rep["lambda"] - 1.0) <= 1e-12
    # cos t - e^{-t^2/2} = -t^4/12 + 7 t^6/360 + ...: g -> 1/12 from below
    gs = rep["g_values"]
    assert abs(gs[-1] - 1 / 12) <= 0.1 / 12
    devs = [abs(g - 1 / 12) for g in gs]
    assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))  # deviation shrinks
    assert rep["d1"] <= 1e-8 and rep["d3"] <= 1e-5


def test_opprod_bound_no_violations():
    rng = np.random.default_rng(101)
    rep = opprod_bound_check(4, rng, draws=1000)
    assert rep["violations"] == 0
    assert rep["worst_margin"] >= -1e-12
    rep1 = opprod_bound_check(1, rng, draws=200)
    assert rep1["violations"] == 0


def test_tensor_casimir_closed_form_spin_half():
    # J=2, t=0.1: LHS = |cos^2 t - e^{-t^2}|
    t = 0.1
    lhs = abs(math.cos(t) ** 2 - math.exp(-(t**2)))
    assert lhs == pytest.approx(1.66e-5, rel=0.05)
    rng = np.random.default_rng(7)
    rep = tensor_casimir_check(HALF, BASIS, 2, 0.5, [0.1], 50, rng)
    assert rep["violations"] == 0


def test_tensor_casimir_j4():
    rng = np.random.default_rng(8)
    rep = tensor_casimir_check(HALF, BASIS, 4, 0.5, [0.05, 0.1, 0.2], 200, rng)
    assert rep["violations"] == 0


def test_winding_average_identity_small():
    rep = winding_average_check(HALF, BASIS, 2, 0.3)
    assert rep["assignments"] == 36
    assert rep["max_identity_deviation"] <= 1e-12
    assert rep["xi_scalar"]
    assert rep["sup_norm_margin"] >= 0.0


def test_winding_average_t_zero_recovers_state():
    rep = winding_average_check(HALF, BASIS, 2, 0.0)
    assert rep["max_identity_deviation"] <= 1e-15
    assert rep["sup_norm_lhs"] <= 1e-14


def test_winding_average_j4():
    rep = winding_average_check(HALF, BASIS, 4, 0.1)
    assert rep["assignments"] == 1296
    assert rep["max_identity_deviation"] <= 1e-12
    assert rep["sup_norm_margin"] >= 0.0


def test_winding_average_cap():
    with pytest.raises(ValueError):
        winding_average_check(HALF, BASIS, 10, 0.1, cap=10**4)


def test_assignment_state_inserts_the_alternating_multipliers():
    from holoflux.cylindrical import norm_l2
    from holoflux.estimates import _assignment_state, _signed_basis, _winding_multipliers
    from holoflux.liegroup import exp_alg

    t, s_base, assignment = 0.3, 1, (4, 1, 0, 5)
    signed = _signed_basis(BASIS)
    t_state = chain_gsn(ONE, len(assignment) + 1)
    edge_ids = sorted(t_state.graph.edges)
    state = _assignment_state(t_state, _winding_multipliers(ONE, signed, t), edge_ids,
                              assignment, s_base)
    expected = t_state
    for j, eid in enumerate(edge_ids[1:], start=1):
        x = signed[assignment[j - 1]]
        expected = insert_left_matrix(
            expected, eid, ONE.evaluate(exp_alg(x, (-1) ** (j + s_base) * t)))
    assert norm_l2(state - expected) <= 1e-12


def test_insert_left_matrix_matches_evaluation():
    from holoflux.connections import RestrictedConnection
    from holoflux.cylindrical import evaluate

    rng = np.random.default_rng(31)
    t_state = chain_gsn(HALF, 2)
    g = haar_sample(rng, "su2")
    mat = HALF.evaluate(g)
    inserted = insert_left_matrix(t_state, sorted(t_state.graph.edges)[1], mat)
    conn = {eid: haar_sample(rng, "su2") for eid in t_state.graph.edges}
    conn_obj = RestrictedConnection(t_state.graph, "su2", conn)
    eid = sorted(t_state.graph.edges)[1]
    shifted = RestrictedConnection(
        t_state.graph, "su2", {**conn, eid: g @ conn[eid]}
    )
    assert evaluate(inserted, conn_obj) == pytest.approx(
        evaluate(t_state, shifted), abs=1e-12
    )


def test_matrix_element_sup_values():
    assert matrix_element_sup(HALF, 0, 0) == pytest.approx(1.0, abs=1e-5)
    assert matrix_element_sup(HALF, 0, 1) == pytest.approx(1.0, abs=1e-5)
    # spin-1 middle off-diagonal peaks at 1/sqrt(2)
    assert matrix_element_sup(ONE, 0, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-4)


# ---------------------------------------------------------------------------
# nice-surface scalar products
# ---------------------------------------------------------------------------


def test_nice_surface_identity_weyl():
    rep = nice_surface_inner_check(HALF, identity("su2"), identity("su2"))
    assert rep["predicted"] == pytest.approx(1.0)
    assert rep["deviation"] <= 1e-12


def test_nice_surface_random_pairs():
    rng = np.random.default_rng(55)
    for rho in (HALF, ONE):
        for _ in range(20):
            g1, g2 = haar_sample(rng, "su2"), haar_sample(rng, "su2")
            m = int(rng.integers(rho.dim))
            n = int(rng.integers(rho.dim))
            rep = nice_surface_inner_check(rho, g1, g2, m, n)
            assert rep["deviation"] <= 1e-12


def test_nice_surface_character_zero_orthonormal_family():
    for rho in (HALF, ONE):
        g = find_character_zero(rho)
        gram = weyl_family_gram(rho, g, n_surfaces=5)
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-12


def test_abelian_weyl_phase():
    rep = abelian_weyl_phase_check(1, u1_element(0.77))
    assert rep["deviation"] <= 1e-12


# ---------------------------------------------------------------------------
# splitting witness
# ---------------------------------------------------------------------------


def test_splitting_witness_runs_and_documents_degeneracy():
    rep = splitting_witness(
        HALF, BASIS, t_grid=[0.4, 0.3, 0.28], tau2=0.3, tau4=0.05, max_j=4
    )
    assert rep["pass"]
    admissible = [e for e in rep["entries"] if e.get("admissible")]
    assert len(admissible) >= 2
    assert any(e["J"] == 4 and e["assignments"] == 1296 for e in admissible)
    for e in admissible:
        assert e["witness_vanishes"]
        assert e["avg_identity_deviation"] <= 1e-12
        assert e["nonconstant_norm_max"] >= e["separation_threshold"] - 1e-12
        assert e["separation_threshold"] > 0.1  # genuinely separated


def test_splitting_witness_deterministic():
    kw = dict(t_grid=[0.3], tau2=0.3, tau4=0.05, max_j=4)
    r1 = splitting_witness(HALF, BASIS, **kw)
    r2 = splitting_witness(HALF, BASIS, **kw)
    assert r1["entries"] == r2["entries"]


def test_splitting_witness_grid_too_coarse():
    with pytest.raises(ValueError):
        splitting_witness(HALF, BASIS, t_grid=[2.0], tau2=0.3, tau4=0.05, max_j=4)


def test_insert_left_matrix_rejects_a_matrix_of_the_wrong_size():
    from holoflux.connections import DomainError

    for rho, size in ((ONE, 2), (HALF, 3)):
        t_state = chain_gsn(rho, 2)
        eid = sorted(t_state.graph.edges)[1]
        with pytest.raises(DomainError):
            insert_left_matrix(t_state, eid, np.eye(size))


def test_trivial_state_zero_witness():
    # constant function: (w_t - 1)(c 1) = 0, so the witness is exactly zero
    from holoflux.cylindrical import cylfun
    from holoflux.estimates import chain_graph

    g = chain_graph(2)
    one = cylfun(g, "su2", [(1.0, {})])
    mat = HALF.evaluate(haar_sample(np.random.default_rng(1), "su2"))
    out = insert_left_matrix(one, sorted(g.edges)[0], mat)
    assert out.constant_part == one.constant_part


# ---------------------------------------------------------------------------
# the stacked oracles against their former per-sample loops
# ---------------------------------------------------------------------------


def xi_reference(rho, basis, t):
    """Xi(t) one exponential at a time, the former loop of ``xi``."""
    acc = np.zeros((rho.dim, rho.dim), dtype=complex)
    for x in basis.elements:
        acc += rho.evaluate(exp_alg(x, t)) + rho.evaluate(exp_alg(x, -t))
    return acc / (2 * basis.n)


def casimir_gap_check_reference(rho, basis, t0, grid):
    """The former ``casimir_gap_check``: one ``xi_reference`` call per point."""
    lam = basis.casimir_eigenvalue(rho)
    ident = np.eye(rho.dim)
    gvals = []
    for t in grid:
        t = float(t)
        dev = np.linalg.norm(xi_reference(rho, basis, t) - math.exp(-lam * t * t / 2) * ident, 2)
        gvals.append(dev / t**4)

    def f(t):
        return xi_reference(rho, basis, t) - math.exp(-lam * t * t / 2) * ident

    h = 1e-2

    def d1(hh):
        return np.linalg.norm(f(hh) - f(-hh)) / (2 * hh)

    def d3(hh):
        return np.linalg.norm(f(2 * hh) - 2 * f(hh) + 2 * f(-hh) - f(-2 * hh)) / (2 * hh**3)

    d1_val = abs((4 * d1(h / 2) - d1(h)) / 3)
    d3_val = abs((4 * d3(h / 2) - d3(h)) / 3)
    d2_val = np.linalg.norm(f(h) - 2 * f(0.0) + f(-h)) / h**2
    return {
        "lambda": lam,
        "eta_hat": 1.05 * max(gvals),
        "g_values": gvals,
        "d1": d1_val,
        "d2": float(d2_val),
        "d3": d3_val,
        "pass": bool(d1_val <= 1e-8 and d2_val <= 1e-4 and d3_val <= 1e-5),
    }


def opprod_bound_check_reference(n_factors, rng, draws, group="su2"):
    """The former ``opprod_bound_check``: one validated sample and one 2x2
    product at a time."""
    violations = 0
    worst_margin = math.inf
    for _ in range(draws):
        a = haar_sample(rng, group).matrix * rng.uniform(0.2, 1.0)
        a_i = [haar_sample(rng, group).matrix * rng.uniform(0.2, 1.0) for _ in range(n_factors)]
        b_i = [haar_sample(rng, group).matrix * rng.uniform(0.2, 1.0) for _ in range(n_factors)]
        lhs_prod = np.eye(a.shape[0], dtype=complex)
        rhs_prod = np.eye(a.shape[0], dtype=complex)
        bound = 1.0
        for ai, bi in zip(a_i, b_i):
            lhs_prod = lhs_prod @ (ai @ bi)
            rhs_prod = rhs_prod @ (a @ bi)
            bound *= 1.0 + np.linalg.norm(ai - a, 2)
        lhs = np.linalg.norm(lhs_prod - rhs_prod, 2)
        rhs = bound - 1.0
        worst_margin = min(worst_margin, rhs - lhs)
        if lhs > rhs + 1e-12:
            violations += 1
    return {"violations": violations, "worst_margin": worst_margin, "draws": draws}


def tensor_casimir_check_reference(rho, basis, j_factors, grid, samples, rng, eta_hat):
    """The former ``tensor_casimir_check``: one product chain per sample."""
    from holoflux.liegroup import haar_sample_matrices

    lam = basis.casimir_eigenvalue(rho)
    violations = 0
    worst_margin = math.inf
    for t in grid:
        t = float(t)
        xi_t = xi_reference(rho, basis, t)
        scal = math.exp(-lam * j_factors * t * t / 2)
        rhs = math.exp(eta_hat * j_factors * t**4) - 1.0
        draws = haar_sample_matrices(rng, rho.group, samples * (j_factors + 1))
        reps = rho.evaluate_many(draws).reshape(samples, j_factors + 1, rho.dim, rho.dim)
        for gs in reps:
            lhs_prod = plain = gs[0]
            for gj in gs[1:]:
                lhs_prod = lhs_prod @ (xi_t @ gj)
                plain = plain @ gj
            lhs = np.linalg.norm(lhs_prod - scal * plain, 2)
            worst_margin = min(worst_margin, rhs - lhs)
            if lhs > rhs + 1e-12:
                violations += 1
    return {"violations": violations, "worst_margin": worst_margin, "eta_hat": eta_hat,
            "lambda": lam}


def winding_states_reference(rho, basis, j_factors, t, s_base):
    """Every assignment's ``_assignment_state``, the former enumeration loop:
    the dict-accumulated average, and the states in ``itertools.product`` order."""
    from holoflux.estimates import _assignment_state, _signed_basis, _winding_multipliers

    t_state = chain_gsn(rho, j_factors + 1)
    edge_ids = sorted(t_state.graph.edges)
    mults = _winding_multipliers(rho, _signed_basis(basis), t)
    n_assign = (2 * basis.n) ** j_factors
    acc, states = {}, []
    for assignment in itertools.product(range(2 * basis.n), repeat=j_factors):
        state = _assignment_state(t_state, mults, edge_ids, assignment, s_base)
        states.append(state)
        for key, coeff in state.terms.items():
            acc[key] = acc.get(key, 0) + coeff / n_assign
    return t_state, edge_ids, acc, states


def dense_row(terms, edge_ids, dim):
    """A monomial sum on a chain as a row over the (r_1, .., r_J) index tuples."""
    row = np.zeros(dim ** (len(edge_ids) - 1), dtype=complex)
    for key, coeff in terms.items():
        factors, col = dict(key), 0
        for eid in edge_ids[1:]:
            col = col * dim + factors[eid][1]
        row[col] += coeff
    return row


def identity_deviation_reference(rho, basis, t, t_state, edge_ids, acc):
    expected = t_state
    for eid in edge_ids[1:]:
        expected = insert_left_matrix(expected, eid, xi_reference(rho, basis, t))
    keys = set(acc) | set(expected.terms)
    return max(abs(acc.get(k, 0) - expected.terms.get(k, 0)) for k in keys)


def assert_bitwise(got, want):
    """Equal structure, and every number equal to the last bit (signed zeros too)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_bitwise(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
    elif isinstance(want, (bool, int, str)):
        assert got == want and type(got) is type(want)
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert got.astype(want.dtype).tobytes() == want.tobytes(), (got, want)


RHOS = [(HALF, BASIS), (ONE, BASIS), (Irrep("su2", Fraction(3, 2)), BASIS),
        (Irrep("u1", 2), u1_basis())]


@pytest.mark.parametrize("rho,basis", RHOS)
def test_xi_equals_reference_bitwise(rho, basis):
    for t in (0.0, -0.0, 1e-2, -5e-3, 0.1, -0.3, 0.37, 1.2, -2.5):
        assert_bitwise(xi(rho, basis, t), xi_reference(rho, basis, t))
    prof = XiProfile.build(rho, basis, np.linspace(-1, 1, 9))
    assert_bitwise(prof.values, [xi_reference(rho, basis, t) for t in prof.grid])


@pytest.mark.parametrize("rho,basis", RHOS)
def test_casimir_gap_check_equals_reference_bitwise(rho, basis):
    for t0, grid in ((0.5, [0.2, 0.1, 0.05, 0.025]), (1.0, [0.8**k for k in range(1, 12)])):
        assert_bitwise(casimir_gap_check(rho, basis, t0, grid),
                       casimir_gap_check_reference(rho, basis, t0, grid))


@pytest.mark.parametrize("n_factors,group", [(n, "su2") for n in range(0, 9)]
                         + [(1, "u1"), (4, "u1"), (8, "u1")])
def test_opprod_equals_reference_bitwise(n_factors, group):
    for seed in (n_factors, 100 + n_factors):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = opprod_bound_check(n_factors, rng, draws=30, group=group)
        assert_bitwise(got, opprod_bound_check_reference(n_factors, ref_rng, 30, group))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("rho", [HALF, ONE])
@pytest.mark.parametrize("j_factors", [2, 4, 6])
def test_tensor_casimir_equals_reference_bitwise(rho, j_factors):
    grid = [0.05, 0.1, 0.2]
    rng, ref_rng = np.random.default_rng(j_factors), np.random.default_rng(j_factors)
    got = tensor_casimir_check(rho, BASIS, j_factors, 0.5, grid, 40, rng, eta_hat=0.5)
    want = tensor_casimir_check_reference(rho, BASIS, j_factors, grid, 40, ref_rng, 0.5)
    assert_bitwise(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("s_base", [0, 1])
@pytest.mark.parametrize("rho", [HALF, ONE])
def test_winding_rows_equal_assignment_states(monkeypatch, rho, s_base, block):
    import holoflux.estimates as est

    if block is not None:  # 1-2 rows per block: every row sits on a block boundary
        monkeypatch.setattr(est, "_WINDING_BLOCK", block)
    t = 0.3
    _t_state, edge_ids, acc, states = winding_states_reference(rho, BASIS, 2, t, s_base)
    blocks = list(est._winding_rows(rho, BASIS, 2, t, s_base))
    if block is not None:
        assert len(blocks) > 1
    rows = np.concatenate(blocks)
    assert rows.shape == (len(states), rho.dim**2)
    for row, state in zip(rows, states):
        assert np.abs(row - dense_row(state.terms, edge_ids, rho.dim)).max() <= 1e-15
    avg = np.zeros(rho.dim**2, dtype=complex)
    for part in blocks:
        avg = est._add_rows(avg, part, len(states))
    assert np.abs(avg - dense_row(acc, edge_ids, rho.dim)).max() <= 1e-15


@pytest.mark.parametrize("rho,j_factors", [(HALF, 2), (ONE, 2), (HALF, 4)])
def test_winding_average_agrees_with_reference(rho, j_factors):
    for t in (0.0, 0.1, 0.3):
        for s_base in (0, 1):
            t_state, edge_ids, acc, _states = winding_states_reference(
                rho, BASIS, j_factors, t, s_base)
            want = identity_deviation_reference(rho, BASIS, t, t_state, edge_ids, acc)
            rep = winding_average_check(rho, BASIS, j_factors, t, s_base=s_base)
            assert abs(rep["max_identity_deviation"] - want) <= 1e-15


def test_splitting_witness_agrees_with_reference():
    from holoflux.cylindrical import inner_product_exact

    rep = splitting_witness(HALF, BASIS, t_grid=[0.4, 0.3, 0.28], tau2=0.3, tau4=0.05,
                            max_j=4)
    admissible = [e for e in rep["entries"] if e["admissible"]]
    assert admissible
    for e in admissible:
        t_state, edge_ids, acc, states = winding_states_reference(HALF, BASIS, e["J"], e["t"], 1)
        overlaps = [inner_product_exact(t_state, s).real for s in states]
        witness = max(abs(s.constant_part - t_state.constant_part) for s in states)
        assert e["witness_inner_max"] == witness
        assert abs(e["overlap_min"] - min(overlaps)) <= 1e-15
        nonconst = max(math.sqrt(max(0.0, 2.0 - 2.0 * ov)) for ov in overlaps)
        assert abs(e["nonconstant_norm_max"] - nonconst) <= 1e-15
        want = identity_deviation_reference(HALF, BASIS, e["t"], t_state, edge_ids, acc)
        assert abs(e["avg_identity_deviation"] - want) <= 1e-15


def test_winding_average_memory_stays_bounded():
    # unblocked, the 46,656 spin-1 J = 6 rows of 729 entries would take 544 MB
    import tracemalloc

    tracemalloc.start()
    try:
        rep = winding_average_check(ONE, BASIS, 6, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["assignments"] == 6**6
    assert rep["max_identity_deviation"] <= 1e-12
    assert peak < 64 * 2**20


def test_chain_graph_equals_the_validated_graph():
    # the chain skips the intersection tests; a validated build of the same
    # paths must succeed and give the same edges under the same ids
    for n in range(1, 7):
        for dim in (2, 3):
            pad = (0,) * (dim - 1)
            checked = Graph.from_paths([PolyPath([(i,) + pad, (i + 1,) + pad]) for i in range(n)])
            chain = chain_graph(n, dim)
            assert list(chain.edges) == list(checked.edges) == [f"e{i}" for i in range(n)]
            assert all(checked.edges[e].vertices == p.vertices for e, p in chain.edges.items())

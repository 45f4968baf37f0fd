import math
from fractions import Fraction

import numpy as np
import pytest

from holoflux.estimates import (
    XiProfile,
    abelian_weyl_phase_check,
    casimir_gap_check,
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
from holoflux.liegroup import (
    Irrep,
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

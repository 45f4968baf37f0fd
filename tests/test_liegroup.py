import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflux.liegroup import (
    PAULI,
    GroupElement,
    GroupValidationError,
    Irrep,
    UnsupportedInputError,
    character,
    exp_alg,
    find_character_zero,
    haar_sample,
    haar_sample_matrices,
    identity,
    parse_irrep,
    schur_inner,
    square_root,
    su2_basis,
    torus_element,
    u1_basis,
    u1_element,
)

RNG = np.random.default_rng(20240811)

SPIN_HALF = Irrep("su2", Fraction(1, 2))
SPIN_ONE = Irrep("su2", Fraction(1))
CHARGE_ONE = Irrep("u1", 1)
CHARGE_TWO = Irrep("u1", 2)


def random_su2(rng):
    return haar_sample(rng, "su2")


# ---------------------------------------------------------------------------
# group element invariants
# ---------------------------------------------------------------------------


def test_identity_elements():
    assert identity("u1").matrix[0, 0] == 1
    assert np.array_equal(identity("su2").matrix, np.eye(2))


def test_identity_is_shared_and_read_only():
    for group in ("u1", "su2"):
        e = identity(group)
        assert identity(group) is e
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 2
    with pytest.raises(GroupValidationError):
        identity("so3")


def test_power_of_one_and_minus_one():
    g = haar_sample(np.random.default_rng(3), "su2")
    assert g.power(1) is g
    assert np.array_equal(g.power(-1).matrix, g.inverse().matrix)
    assert g.power(0) is identity("su2")
    assert g.power(3).dist(g @ g @ g) <= 1e-14
    assert g.power(-2).dist(g.inverse() @ g.inverse()) <= 1e-14


def test_group_element_rejects_nonunitary():
    with pytest.raises(GroupValidationError):
        GroupElement("su2", np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_group_element_rejects_bad_det():
    with pytest.raises(GroupValidationError):
        GroupElement("su2", np.diag([1j, 1j]))  # unitary but det = -1


def test_stack_checks_agree_with_group_element():
    from holoflux.liegroup import _check_group_stack

    def rejects(check):
        try:
            check()
        except GroupValidationError:
            return True
        return False

    rng = np.random.default_rng(2)
    cases = [("su2", haar_sample(rng, "su2").matrix), ("u1", haar_sample(rng, "u1").matrix),
             ("su2", np.array([[1.0, 0.1], [0.0, 1.0]])), ("su2", np.diag([1j, 1j])),
             ("u1", np.array([[1.1]])), ("su2", np.eye(3)), ("u1", np.eye(2)),
             ("so3", np.eye(2)), ("su2", np.full((2, 2), np.nan)), ("u1", np.array([[np.nan]]))]
    with np.errstate(invalid="ignore"):
        for group, m in cases:
            m = np.asarray(m, dtype=complex)
            single = rejects(lambda: GroupElement(group, m))
            assert rejects(lambda: _check_group_stack(group, m[None])) == single
            if group in ("u1", "su2") and m.shape[0] == (1 if group == "u1" else 2):
                stack = haar_sample_matrices(rng, group, 5)
                stack[3] = m
                assert rejects(lambda: _check_group_stack(group, stack)) == single
        assert rejects(lambda: GroupElement("su2", np.full((2, 2), np.nan)))


def test_haar_samples_pass_invariants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = haar_sample(rng, "su2")
        m = g.matrix
        assert np.linalg.norm(m.conj().T @ m - np.eye(2)) <= 1e-12
        assert abs(np.linalg.det(m) - 1) <= 1e-12
        h = haar_sample(rng, "u1")
        assert abs(abs(h.matrix[0, 0]) - 1) <= 1e-12


# ---------------------------------------------------------------------------
# irreps
# ---------------------------------------------------------------------------


def test_spin_half_is_fundamental():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_su2(rng)
        assert np.allclose(SPIN_HALF.evaluate(g), g.matrix, atol=1e-14)


@pytest.mark.parametrize("rho", [SPIN_HALF, SPIN_ONE, Irrep("su2", Fraction(3, 2)), CHARGE_TWO])
def test_irrep_homomorphism_and_unitarity(rho):
    rng = np.random.default_rng(11)
    group = rho.group
    assert np.array_equal(rho.evaluate(identity(group)), np.eye(rho.dim))
    for _ in range(30):
        g, h = haar_sample(rng, group), haar_sample(rng, group)
        lhs = rho.evaluate(g @ h)
        rhs = rho.evaluate(g) @ rho.evaluate(h)
        assert np.linalg.norm(lhs - rhs) <= 1e-10
        m = rho.evaluate(g)
        assert np.linalg.norm(m.conj().T @ m - np.eye(rho.dim)) <= 1e-10
    # the same law on stacks: rho(A B) = rho(A) rho(B) row by row
    a, b = haar_sample_matrices(rng, group, 200), haar_sample_matrices(rng, group, 200)
    lhs = rho.evaluate_many(a @ b)
    rhs = rho.evaluate_many(a) @ rho.evaluate_many(b)
    assert np.abs(lhs - rhs).max() <= 1e-12


def spin_matrix_reference(g, two_j):
    """Brute-force spin-j matrix: entry (m, k) is the coefficient of
    u^(N-m) v^m in (a u + c v)^(N-k) (b u + d v)^k, N = 2j, rescaled to the
    normalized monomials u^(N-k) v^k / sqrt((N-k)! k!)."""
    n = two_j
    a, b = g[0, 0], g[0, 1]
    c, d = g[1, 0], g[1, 1]
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        for m in range(n + 1):
            s = 0.0 + 0.0j
            for p in range(0, n - k + 1):
                q = n - m - p
                if q < 0 or q > k:
                    continue
                weight = math.comb(n - k, p) * math.comb(k, q)
                s += weight * a**p * c ** (n - k - p) * b**q * d ** (k - q)
            norm = math.sqrt(
                (math.factorial(n - m) * math.factorial(m))
                / (math.factorial(n - k) * math.factorial(k))
            )
            out[m, k] = norm * s
    return out


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 5, 6])
def test_evaluate_many_matches_brute_force(two_j):
    rng = np.random.default_rng(100 + two_j)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, 40)))
    diagonal = np.zeros((40, 2, 2), dtype=complex)
    diagonal[:, 0, 0], diagonal[:, 1, 1] = phases[0], np.conj(phases[0])
    anti = np.zeros((40, 2, 2), dtype=complex)
    anti[:, 0, 1], anti[:, 1, 0] = -np.conj(phases[1]), phases[1]
    rho = Irrep("su2", Fraction(two_j, 2))
    for stack in (haar_sample_matrices(rng, "su2", 100), diagonal, anti):
        expected = np.stack([spin_matrix_reference(g, two_j) for g in stack])
        assert np.abs(rho.evaluate_many(stack) - expected).max() <= 1e-13
        one = rho.evaluate(GroupElement("su2", stack[0]))
        assert np.array_equal(one, rho.evaluate_many(stack)[0])


@pytest.mark.parametrize("charge", [-2, -1, 0, 1, 2])
def test_evaluate_many_u1_is_power_of_phase(charge):
    z = haar_sample_matrices(np.random.default_rng(3), "u1", 50)
    expected = np.array([zi ** charge for zi in z[:, 0, 0]])
    got = Irrep("u1", charge).evaluate_many(z)
    assert got.shape == (50, 1, 1)
    assert np.abs(got[:, 0, 0] - expected).max() <= 1e-13


def test_evaluate_many_rejects_wrong_shape():
    with pytest.raises(GroupValidationError):
        SPIN_ONE.evaluate_many(np.ones((3, 1, 1), dtype=complex))
    with pytest.raises(GroupValidationError):
        CHARGE_ONE.evaluate_many(np.eye(2)[None])
    with pytest.raises(GroupValidationError):
        SPIN_HALF.evaluate_many(np.eye(2))


def test_evaluate_many_large_stack_spans_several_blocks():
    # rows are evaluated in blocks; a stack longer than one block must come
    # back identical to evaluating its rows one at a time
    mats = haar_sample_matrices(np.random.default_rng(8), "su2", 7000)
    whole = SPIN_ONE.evaluate_many(mats)
    for i in (0, 6552, 6553, 6999):
        assert np.array_equal(whole[i], SPIN_ONE.evaluate_many(mats[i:i + 1])[0])


def test_parse_irrep_roundtrip():
    assert parse_irrep("su2:1/2") == SPIN_HALF
    assert parse_irrep("u1:2") == CHARGE_TWO
    assert parse_irrep(SPIN_ONE.key()) == SPIN_ONE


# ---------------------------------------------------------------------------
# exp_alg
# ---------------------------------------------------------------------------


def test_exp_alg_identity_at_zero():
    x = 1j * PAULI[0]
    assert exp_alg(x, 0.0).is_identity()


def test_exp_alg_pi_sigma3_is_minus_identity():
    g = exp_alg(1j * PAULI[2], math.pi)
    assert np.allclose(g.matrix, -np.eye(2), atol=1e-12)


def test_exp_alg_against_power_series():
    # 20-term power-series oracle
    x = 1j * PAULI[0]
    t = 0.3
    series = np.zeros((2, 2), dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(20):
        series += term
        term = term @ (t * x) / (k + 1)
    g = exp_alg(x, t)
    assert np.linalg.norm(g.matrix - series) <= 1e-12
    expected = math.cos(t) * np.eye(2) + 1j * math.sin(t) * PAULI[0]
    assert np.linalg.norm(g.matrix - expected) <= 1e-12


def test_exp_alg_rejects_non_antihermitian():
    with pytest.raises(GroupValidationError):
        exp_alg(np.array([[0.0, 1.0], [1.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_exp_alg_one_parameter_group_law(seed, t1, t2):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=3)
    x = 1j * sum(c * s for c, s in zip(coeffs, PAULI))
    lhs = exp_alg(x, t1) @ exp_alg(x, t2)
    rhs = exp_alg(x, t1 + t2)
    assert lhs.dist(rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Haar MC vs exact Schur engine
# ---------------------------------------------------------------------------


def test_haar_mc_character_and_moment():
    rng = np.random.default_rng(42)
    n = 10**5
    mats = haar_sample_matrices(rng, "su2", n)
    chi = np.trace(mats, axis1=1, axis2=2)
    assert abs(chi.mean()) <= 0.02
    m00 = np.abs(mats[:, 0, 0]) ** 2
    assert abs(m00.mean() - 0.5) <= 0.02


@pytest.mark.parametrize("rho", [SPIN_HALF, SPIN_ONE])
def test_schur_engine_matches_mc(rho):
    rng = np.random.default_rng(5)
    n = 20000
    samples = [haar_sample(rng, "su2") for _ in range(n)]
    mats = np.stack([rho.evaluate(g) for g in samples])
    d = rho.dim
    for m in range(d):
        for nn in range(d):
            for m2 in range(d):
                for n2 in range(d):
                    vals = mats[:, m, nn] * np.conj(mats[:, m2, n2])
                    mc = vals.mean()
                    se = vals.std() / math.sqrt(n) + 1e-12
                    exact = schur_inner(rho, (m, nn), rho, (m2, n2))
                    assert abs(mc - exact) <= 3 * se + 3e-3


def test_schur_distinct_irreps_orthogonal():
    assert schur_inner(SPIN_HALF, (0, 0), SPIN_ONE, (0, 0)) == 0
    assert schur_inner(SPIN_HALF, (0, 0), SPIN_HALF, (0, 1)) == 0
    assert schur_inner(SPIN_HALF, (0, 0), SPIN_HALF, (0, 0)) == pytest.approx(0.5)


def test_schur_group_mismatch():
    with pytest.raises(GroupValidationError):
        schur_inner(SPIN_HALF, (0, 0), CHARGE_ONE, (0, 0))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_character_values():
    assert character(SPIN_HALF, identity("su2")) == pytest.approx(2.0)
    g = GroupElement("su2", np.diag([1j, -1j]))
    assert abs(character(SPIN_HALF, g)) <= 1e-14
    theta = 0.7
    assert character(CHARGE_TWO, u1_element(theta)) == pytest.approx(
        np.exp(2j * theta)
    )


def test_character_is_class_function():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g, h = random_su2(rng), random_su2(rng)
        conj = h @ g @ h.inverse()
        assert abs(character(SPIN_ONE, conj) - character(SPIN_ONE, g)) <= 1e-12


# ---------------------------------------------------------------------------
# square roots and character zeros
# ---------------------------------------------------------------------------


def test_square_root_identity():
    assert square_root(identity("su2")).is_identity()
    assert square_root(identity("u1")).is_identity()


def test_square_root_minus_identity():
    g = GroupElement("su2", -np.eye(2))
    h = square_root(g)
    assert np.allclose(h.matrix, np.diag([1j, -1j]), atol=1e-12)
    assert (h @ h).dist(g) <= 1e-10


def test_square_root_u1_halves_phase():
    g = u1_element(0.8)
    h = square_root(g)
    assert h.matrix[0, 0] == pytest.approx(np.exp(0.4j))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_square_root_squares_back(seed):
    g = haar_sample(np.random.default_rng(seed), "su2")
    h = square_root(g)
    assert (h @ h).dist(g) <= 1e-10


def test_find_character_zero_spin_half():
    g = find_character_zero(SPIN_HALF)
    assert abs(character(SPIN_HALF, g @ g)) <= 1e-10
    # the known zero: diag(e^{i pi/4}, e^{-i pi/4})
    known = torus_element("su2", math.pi / 4)
    assert abs(character(SPIN_HALF, known @ known)) <= 1e-14


def test_find_character_zero_spin_one():
    g = find_character_zero(SPIN_ONE)
    assert abs(character(SPIN_ONE, g @ g)) <= 1e-10


def test_find_character_zero_rejects_abelian():
    with pytest.raises(UnsupportedInputError):
        find_character_zero(CHARGE_ONE)


# ---------------------------------------------------------------------------
# Lie basis / Casimir
# ---------------------------------------------------------------------------


def test_su2_casimir_spin_half_is_one():
    basis = su2_basis()
    lam = basis.casimir_eigenvalue(SPIN_HALF)
    assert abs(lam - 1.0) <= 1e-12


def test_su2_casimir_spin_one():
    basis = su2_basis()
    lam = basis.casimir_eigenvalue(SPIN_ONE)
    assert abs(lam - 8.0 / 3.0) <= 1e-10


def test_su2_casimir_three_halves():
    # lambda_j = 4 j (j+1) / 3 for the i*sigma basis
    basis = su2_basis()
    lam = basis.casimir_eigenvalue(Irrep("su2", Fraction(3, 2)))
    assert abs(lam - 5.0) <= 1e-10


def test_u1_casimir_is_charge_squared():
    basis = u1_basis()
    assert abs(basis.casimir_eigenvalue(CHARGE_TWO) - 4.0) <= 1e-12


def test_derived_rep_differentiates_exponential():
    basis = su2_basis()
    for rho in (SPIN_HALF, SPIN_ONE):
        for x in basis.elements:
            rx = basis.represented(rho, x)
            h = 1e-6
            fd = (rho.evaluate(exp_alg(x, h)).astype(complex) - rho.evaluate(exp_alg(x, -h))) / (2 * h)
            assert np.linalg.norm(fd - rx) <= 1e-6

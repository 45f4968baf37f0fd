"""Casimir averages, operator-product bounds, and the splitting evidence suites.

The central object is the averaged one-parameter matrix
Xi(t) = (1/2n) sum_i (rho(e^{t X_i}) + rho(e^{-t X_i})) over a
Casimir-normalized Lie-algebra basis; it agrees with e^{-lambda t^2/2} I
through third order in t.  The checks here turn that agreement, the
operator-product estimate, and the brute-force winding averages into
numerical certificates, and assemble the scalar-product and splitting
evidence computations on explicit scenes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
import numpy as np

from .cylindrical import (
    CylFun,
    _multiplier_rule,
    _rewrite_edges,
    align_to_common,
    gsn,
    inner_product_exact,
    norm_l2,
    refine_for_surface,
)
from .geometry import Graph, OrientedSurface, PolyPath, Simplex
from .liegroup import (
    GroupElement,
    Irrep,
    LieBasis,
    character,
    exp_alg,
    haar_sample,
    haar_sample_matrices,
)
from .weylops import apply_weyl, weyl_constant

__all__ = [
    "xi",
    "XiProfile",
    "casimir_gap_check",
    "opprod_bound_check",
    "tensor_casimir_check",
    "chain_graph",
    "chain_gsn",
    "winding_average_check",
    "nice_surface_scene",
    "nice_surface_inner_check",
    "splitting_witness",
    "matrix_element_sup",
]


def xi(rho: Irrep, basis: LieBasis, t: float) -> np.ndarray:
    """The symmetrized average of rho(e^{+-t X_i}) over the basis."""
    dim = rho.dim
    acc = np.zeros((dim, dim), dtype=complex)
    for x in basis.elements:
        acc += rho.evaluate(exp_alg(x, t)) + rho.evaluate(exp_alg(x, -t))
    return acc / (2 * basis.n)


@dataclass(frozen=True)
class XiProfile:
    rho: Irrep
    basis: LieBasis
    grid: tuple
    values: tuple

    @classmethod
    def build(cls, rho: Irrep, basis: LieBasis, grid) -> "XiProfile":
        vals = tuple(xi(rho, basis, float(t)) for t in grid)
        prof = cls(rho, basis, tuple(float(t) for t in grid), vals)
        prof.check_invariants()
        return prof

    def check_invariants(self, atol: float = 1e-12):
        ident = xi(self.rho, self.basis, 0.0)
        if np.linalg.norm(ident - np.eye(self.rho.dim)) > atol:
            raise ValueError("Xi(0) must be the identity")
        for t, v in zip(self.grid, self.values):
            v_neg = xi(self.rho, self.basis, -t)
            if np.linalg.norm(v - v_neg) > atol:
                raise ValueError("Xi must be even in t")
            if np.linalg.norm(v - v.conj().T) > atol:
                raise ValueError("Xi must be hermitian")


def casimir_gap_check(rho: Irrep, basis: LieBasis, t0: float, grid) -> dict:
    """Fourth-order agreement of Xi(t) with e^{-lambda t^2 / 2} I.

    Computes g(t) = |Xi(t) - e^{-lambda t^2/2} I| / t^4 on the grid and an
    empirical coefficient eta_hat = 1.05 * sup g; also confirms by Richardson
    finite differences that the two functions share derivatives at 0 through
    order 3 (odd orders vanish by evenness).
    """
    lam = basis.casimir_eigenvalue(rho)
    ident = np.eye(rho.dim)
    gvals = []
    for t in grid:
        t = float(t)
        if not (0 < abs(t) < t0):
            raise ValueError("grid points must lie in (0, t0)")
        dev = np.linalg.norm(xi(rho, basis, t) - math.exp(-lam * t * t / 2) * ident, 2)
        gvals.append(dev / t**4)
    eta_hat = 1.05 * max(gvals)

    def f(t):
        return xi(rho, basis, t) - math.exp(-lam * t * t / 2) * ident

    h = 1e-2

    def d1(hh):
        return np.linalg.norm(f(hh) - f(-hh)) / (2 * hh)

    def d3(hh):
        return np.linalg.norm(f(2 * hh) - 2 * f(hh) + 2 * f(-hh) - f(-2 * hh)) / (
            2 * hh**3
        )

    # Richardson extrapolation kills the next-order term
    d1_val = abs((4 * d1(h / 2) - d1(h)) / 3)
    d3_val = abs((4 * d3(h / 2) - d3(h)) / 3)
    d2_val = np.linalg.norm(f(h) - 2 * f(0.0) + f(-h)) / h**2
    report = {
        "lambda": lam,
        "eta_hat": eta_hat,
        "g_values": gvals,
        "d1": d1_val,
        "d2": float(d2_val),
        "d3": d3_val,
        "pass": bool(d1_val <= 1e-8 and d2_val <= 1e-4 and d3_val <= 1e-5),
    }
    return report


def opprod_bound_check(n_factors: int, rng: np.random.Generator,
                       draws: int = 1000, group: str = "su2") -> dict:
    """Product-of-contractions estimate on random draws.

    |prod A_i B_i - prod A B_i| <= prod (1 + |A_i - A|) - 1 for contractions
    A, B_i and bounded A_i; zero violations allowed (1e-12 float slack).
    """
    if n_factors > 8:
        raise ValueError("n_factors capped at 8")
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


def tensor_casimir_check(rho: Irrep, basis: LieBasis, j_factors: int, t0: float,
                         grid, samples: int, rng: np.random.Generator,
                         eta_hat: float = None) -> dict:
    """Chain bound |rho(g0) prod(Xi rho(gj)) - e^{-lam J t^2/2} prod rho(gj)|
    <= e^{eta_hat J t^4} - 1 on Haar-random draws; zero violations allowed."""
    if j_factors % 2 != 0 or j_factors > 6:
        raise ValueError("J must be even and at most 6")
    lam = basis.casimir_eigenvalue(rho)
    if eta_hat is None:
        eta_hat = casimir_gap_check(rho, basis, t0, grid)["eta_hat"]
    violations = 0
    worst_margin = math.inf
    for t in grid:
        t = float(t)
        xi_t = xi(rho, basis, t)
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
    return {
        "violations": violations,
        "worst_margin": worst_margin,
        "eta_hat": eta_hat,
        "lambda": lam,
    }


# ---------------------------------------------------------------------------
# Winding averages on chain states
# ---------------------------------------------------------------------------


def chain_graph(n_edges: int, dim: int = 3) -> Graph:
    pts = [tuple([i] + [0] * (dim - 1)) for i in range(n_edges + 1)]
    return Graph.from_paths([PolyPath([pts[i], pts[i + 1]]) for i in range(n_edges)])


def chain_gsn(rho: Irrep, n_edges: int, dim: int = 3) -> CylFun:
    graph = chain_graph(n_edges, dim)
    labels = {eid: (rho.key(), 0, 0) for eid in graph.edges}
    return gsn(graph, rho.group, labels)


def insert_left_matrix(f: CylFun, eid: str, mat: np.ndarray) -> CylFun:
    """Left-multiply the holonomy inside every factor on one edge:
    rho^m_n(M h) = sum_r M^m_r rho^r_n(h)."""
    rule = _multiplier_rule(eid, lambda rho: mat)
    return CylFun(f.graph, f.group, _rewrite_edges(f.terms, {eid: rule}))


def _signed_basis(basis: LieBasis):
    return list(basis.elements) + [-x for x in basis.elements]


def _winding_multipliers(rho: Irrep, signed, t: float) -> dict:
    """sign -> [rho(e^{sign t X}) for X in the signed basis], for sign = +-1."""
    return {sign: [rho.evaluate(exp_alg(x, sign * t)) for x in signed] for sign in (1, -1)}


def _assignment_state(t_state: CylFun, mults: dict, edge_ids, assignment,
                      s_base: int) -> CylFun:
    """Multiplier-inserted chain for one winding assignment.

    Edge j (j = 1..J) receives the left factor rho(e^{(-1)^(j+s) X_(rho(j)) t}),
    looked up in the ``_winding_multipliers`` table.
    """
    rules = {}
    for j, eid in enumerate(edge_ids[1:], start=1):
        mat = mults[(-1) ** (j + s_base)][assignment[j - 1]]
        rules[eid] = _multiplier_rule(eid, lambda rho, mat=mat: mat)
    return CylFun(t_state.graph, t_state.group, _rewrite_edges(t_state.terms, rules))


def winding_average_check(rho: Irrep, basis: LieBasis, j_factors: int, t: float,
                          s_base: int = 1, eta_hat: float = None,
                          t0: float = 1.0, cap: int = 10**6) -> dict:
    """Brute-force winding average versus the tensor-of-Xi form, exactly.

    Averages the (2n)^J multiplier-inserted chain states over all
    assignments and compares coefficients against inserting Xi(t) on each
    edge; also evaluates the chain sup-norm bound with margin.
    """
    if j_factors % 2 != 0:
        raise ValueError("J must be even")
    two_n = 2 * basis.n
    n_assign = two_n**j_factors
    if n_assign > cap:
        raise ValueError("assignment enumeration exceeds the cap")
    t_state = chain_gsn(rho, j_factors + 1)
    edge_ids = sorted(t_state.graph.edges)
    mults = _winding_multipliers(rho, _signed_basis(basis), t)
    acc = {}
    for assignment in itertools.product(range(two_n), repeat=j_factors):
        state = _assignment_state(t_state, mults, edge_ids, assignment, s_base)
        for key, coeff in state.terms.items():
            acc[key] = acc.get(key, 0) + coeff / n_assign
    xi_t = xi(rho, basis, t)
    expected = t_state
    for eid in edge_ids[1:]:
        expected = insert_left_matrix(expected, eid, xi_t)
    keys = set(acc) | set(expected.terms)
    max_dev = max(abs(acc.get(k, 0) - expected.terms.get(k, 0)) for k in keys)

    # chain sup-norm bound (Xi is scalar for the bases used here)
    lam = basis.casimir_eigenvalue(rho)
    scal = math.exp(-lam * j_factors * t * t / 2)
    diag = xi_t[0, 0]
    xi_scalar = bool(np.linalg.norm(xi_t - diag * np.eye(rho.dim)) <= 1e-12)
    if eta_hat is None:
        grid = [t0 * (0.8**k) for k in range(1, 12)]
        eta_hat = casimir_gap_check(rho, basis, t0, grid)["eta_hat"]
    rhs_factor = math.exp(eta_hat * j_factors * t**4) - 1.0
    edge_sup = matrix_element_sup(rho, 0, 0)
    t_sup = (math.sqrt(rho.dim) * edge_sup) ** (j_factors + 1)
    if xi_scalar:
        lhs_sup = abs(diag**j_factors - scal) * t_sup
    else:
        lhs_sup = (
            (1.0 + np.linalg.norm(xi_t - math.exp(-lam * t * t / 2) * np.eye(rho.dim), 2))
            ** j_factors
            - 1.0
        ) * t_sup
    rhs_sup = t_sup * rhs_factor
    return {
        "assignments": n_assign,
        "max_identity_deviation": float(max_dev),
        "xi_scalar": xi_scalar,
        "sup_norm_lhs": float(lhs_sup),
        "sup_norm_rhs": float(rhs_sup),
        "sup_norm_margin": float(rhs_sup - lhs_sup),
        "eta_hat": eta_hat,
    }


def matrix_element_sup(rho: Irrep, m: int, n: int, grid: int = 2000) -> float:
    """sup over the group of |rho^m_n|, via a torus/angle grid (tol ~1e-6):
    exp(beta i sigma_y) = [[cos, sin], [-sin, cos]](beta) for beta in [0, pi]."""
    if rho.group == "u1":
        return 1.0
    beta = np.linspace(0.0, math.pi, grid)
    cos, sin = np.cos(beta), np.sin(beta)
    mats = np.stack([cos, sin, -sin, cos], axis=1).reshape(grid, 2, 2)
    return float(np.abs(rho.evaluate_many(mats)[:, m, n]).max(initial=0.0))


# ---------------------------------------------------------------------------
# Scalar-product formula on nice scenes
# ---------------------------------------------------------------------------


def nice_surface_scene(n_surfaces: int, with_spectator: bool = True):
    """A straight edge punctured transversally by small disjoint disks.

    The disks sit at x = 1, 2, ... with normals along the edge direction, so
    each surface's orientation coincides with the direction of the edge;
    the optional spectator edge shares only the start vertex.
    """
    length = n_surfaces + 1
    gamma = PolyPath([(0, 0, 0), (length, 0, 0)])
    paths = [gamma]
    if with_spectator:
        paths.append(PolyPath([(0, 0, 0), (0, 1, 0)]))
    graph = Graph.from_paths(paths)
    surfaces = []
    for i in range(1, n_surfaces + 1):
        tri = Simplex(
            [(i, -1, -1), (i, 2, -1), (i, -1, 2)],
            normal=(1, 0, 0),
        )
        surfaces.append(OrientedSurface([tri], piece_ids=(f"disk{i}",)))
    return graph, gamma, surfaces


def nice_surface_inner_check(rho: Irrep, g1: GroupElement, g2: GroupElement,
                             m: int = 0, n: int = 0,
                             spectator=("su2:1/2", 0, 0)) -> dict:
    """<w^{S1}_{g1} T, w^{S2}_{g2} T> against conj(chi(g1^2)) chi(g2^2)/dim^2.

    T carries (rho, m, n) on an edge crossed once transversally by each of
    two disjoint disks (disjoint from the spectator edge); the exact engine
    value must match the closed character formula.
    """
    graph, gamma, surfaces = nice_surface_scene(2, with_spectator=rho.group == "su2")
    labels = {"e0": (rho.key(), m, n)}
    if rho.group == "su2":
        labels["e1"] = spectator
    else:
        graph, gamma, surfaces = nice_surface_scene(2, with_spectator=False)
    t_state = gsn(graph, rho.group, labels)
    w1 = weyl_constant(surfaces[0], g1)
    w2 = weyl_constant(surfaces[1], g2)
    a = apply_weyl(w1, t_state)
    b = apply_weyl(w2, t_state)
    a2, b2 = align_to_common(a, b)
    measured = inner_product_exact(a2, b2)
    predicted = (
        np.conj(character(rho, g1 @ g1)) * character(rho, g2 @ g2) / rho.dim**2
    )
    return {
        "measured": measured,
        "predicted": complex(predicted),
        "deviation": abs(measured - predicted),
    }


def abelian_weyl_phase_check(charge: int, g: GroupElement) -> dict:
    """u1 crossing: W_g T = chi(g^2) T exactly."""
    rho = Irrep("u1", charge)
    graph, gamma, surfaces = nice_surface_scene(1, with_spectator=False)
    t_state = gsn(graph, "u1", {"e0": (rho.key(), 0, 0)})
    w = weyl_constant(surfaces[0], g)
    wt = apply_weyl(w, t_state)
    t_ref = refine_for_surface(t_state, surfaces[0])
    expected = t_ref.scale(complex(character(rho, g @ g)))
    return {"deviation": norm_l2(wt - expected)}


def weyl_family_gram(rho: Irrep, g: GroupElement, n_surfaces: int = 5) -> np.ndarray:
    """Gram matrix of {w^{S_i}_g T} over distinct nice punctures."""
    graph, gamma, surfaces = nice_surface_scene(n_surfaces, with_spectator=False)
    t_state = gsn(graph, rho.group, {"e0": (rho.key(), 0, 0)})
    moved = [apply_weyl(weyl_constant(s, g), t_state) for s in surfaces]
    gram = np.empty((n_surfaces, n_surfaces), dtype=complex)
    for i in range(n_surfaces):
        for j in range(n_surfaces):
            a, b = align_to_common(moved[i], moved[j])
            gram[i, j] = inner_product_exact(a, b)
    return gram


# ---------------------------------------------------------------------------
# Splitting witness
# ---------------------------------------------------------------------------


def admissible_j(t: float, tau2: float, tau4: float, max_j: int = 8):
    """Smallest even J in the admissibility window [J0/t^3, 2 J0/t^3]."""
    j0 = 0.5 * math.sqrt(2 * tau2 * tau4)
    lo = j0 / abs(t) ** 3
    hi = 2 * j0 / abs(t) ** 3
    j = int(math.ceil(lo))
    if j % 2:
        j += 1
    if j <= hi and j <= max_j and j >= 2 and j * t * t > tau2 and j * t**4 < tau4:
        return j
    return None


def splitting_witness(rho: Irrep, basis: LieBasis, t_grid,
                      tau2: float, tau4: float, s_base: int = 1,
                      cap: int = 10**6, max_j: int = 8) -> dict:
    """Desk-scale shadow of the splitting dichotomy, in the product-Haar
    representation with the constant vector.

    For each admissible (J(t), t) the (2n)^J winding assignments are
    enumerated exactly.  Because the constant function is fixed by every
    Weyl operator and every nontrivial spin network integrates to zero, the
    inner witness <1, (w_t - 1)(moved T)> vanishes identically -- that is
    the measure-specific degeneracy this suite documents.  The separation
    survives in the nonconstant part: using f = 1 + T, the maximal L2 norm
    of (w_t - 1)(moved T) over assignments stays above the
    sqrt(2 - 2 e^{-lambda J t^2 / 2}) threshold (up to the chain-bound
    slack) on the whole admissible grid.
    """
    lam = basis.casimir_eigenvalue(rho)
    grid_hi = max(abs(float(t)) for t in t_grid)
    gap_grid = [grid_hi * (0.8**k) for k in range(1, 12)]
    eta_hat = casimir_gap_check(rho, basis, grid_hi * 1.01, gap_grid)["eta_hat"]
    signed_count = 2 * basis.n
    entries = []
    any_admissible = False
    for t in t_grid:
        t = float(t)
        j = admissible_j(t, tau2, tau4, max_j=max_j)
        if j is None or signed_count**j > cap:
            entries.append({"t": t, "admissible": False})
            continue
        any_admissible = True
        t_state = chain_gsn(rho, j + 1)
        edge_ids = sorted(t_state.graph.edges)
        mults = _winding_multipliers(rho, _signed_basis(basis), t)
        witness_max = 0.0
        overlap_min = math.inf
        nonconst_max = 0.0
        acc = {}
        n_assign = signed_count**j
        for assignment in itertools.product(range(signed_count), repeat=j):
            moved = _assignment_state(t_state, mults, edge_ids, assignment, s_base)
            # f = 1 + T: <1, (w_t - 1) f> = <1, moved> - <1, T>
            witness = abs(moved.constant_part - t_state.constant_part)
            witness_max = max(witness_max, witness)
            ov = inner_product_exact(t_state, moved).real
            overlap_min = min(overlap_min, ov)
            nonconst_max = max(nonconst_max, math.sqrt(max(0.0, 2.0 - 2.0 * ov)))
            for key, coeff in moved.terms.items():
                acc[key] = acc.get(key, 0) + coeff / n_assign
        xi_t = xi(rho, basis, t)
        expected = t_state
        for eid in edge_ids[1:]:
            expected = insert_left_matrix(expected, eid, xi_t)
        keys = set(acc) | set(expected.terms)
        avg_dev = max(abs(acc.get(k, 0) - expected.terms.get(k, 0)) for k in keys)
        scal = math.exp(-lam * j * t * t / 2)
        slack = math.exp(eta_hat * j * t**4) - 1.0
        threshold = math.sqrt(max(0.0, 2.0 - 2.0 * (scal + slack)))
        entries.append(
            {
                "t": t,
                "J": j,
                "admissible": True,
                "assignments": n_assign,
                "witness_inner_max": witness_max,
                "overlap_min": overlap_min,
                "nonconstant_norm_max": nonconst_max,
                "separation_threshold": threshold,
                "avg_identity_deviation": float(avg_dev),
                "separated": bool(nonconst_max >= threshold - 1e-12),
                "witness_vanishes": bool(witness_max <= 1e-12),
            }
        )
    if not any_admissible:
        raise ValueError("grid too coarse: no admissible (J, t) window")
    ok = all(
        e["witness_vanishes"] and e["separated"] and e["avg_identity_deviation"] <= 1e-12
        for e in entries
        if e.get("admissible")
    )
    return {
        "entries": entries,
        "eta_hat": eta_hat,
        "lambda": lam,
        "tau2": tau2,
        "tau4": tau4,
        "pass": ok,
    }

"""Casimir averages, operator-product bounds, and the splitting evidence suites.

The central object is the averaged one-parameter matrix
Xi(t) = (1/2n) sum_i (rho(e^{t X_i}) + rho(e^{-t X_i})) over a
Casimir-normalized Lie-algebra basis; it agrees with e^{-lambda t^2/2} I
through third order in t.  The checks here turn that agreement, the
operator-product estimate, and the brute-force winding averages into
numerical certificates, and assemble the scalar-product and splitting
evidence computations on explicit scenes.

The oracles work on numpy stacks: Xi at every t of a call from one stack of
exponentials per basis element, the operator-product and chain bounds as
stacked products over all draws, and the winding averages over every
assignment's state as rows built in bounded blocks (``_winding_rows``).
Random numbers are drawn in the order of the per-sample reference loops in
``tests/test_estimates.py``, so seeded results are bit for bit theirs.
"""

from __future__ import annotations

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
    _check_group_stack,
    _exp_alg_stack,
    _haar_matrices,
    _haar_raw,
    character,
    exp_alg,
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
    return _xi_many(rho, basis, [t])[0]


def _xi_many(rho: Irrep, basis: LieBasis, ts) -> np.ndarray:
    """``xi`` at every t, shape (len(ts), dim, dim): per basis element one
    diagonalization, the exponentials at +-t as one validated stack and one
    ``evaluate_many``."""
    ts = np.asarray(ts, dtype=float)
    acc = np.zeros((len(ts), rho.dim, rho.dim), dtype=complex)
    for x in basis.elements:
        group, mats = _exp_alg_stack(x, np.concatenate([ts, -ts]))
        _check_group_stack(group, mats)
        reps = rho.evaluate_many(mats)  # rejects a stack of the other group
        acc += reps[:len(ts)] + reps[len(ts):]
    return acc / (2 * basis.n)


@dataclass(frozen=True)
class XiProfile:
    rho: Irrep
    basis: LieBasis
    grid: tuple
    values: tuple

    @classmethod
    def build(cls, rho: Irrep, basis: LieBasis, grid) -> "XiProfile":
        grid = tuple(float(t) for t in grid)
        prof = cls(rho, basis, grid, tuple(_xi_many(rho, basis, grid)))
        prof.check_invariants()
        return prof

    def check_invariants(self, atol: float = 1e-12):
        ident, *negated = _xi_many(self.rho, self.basis, [0.0] + [-t for t in self.grid])
        if np.linalg.norm(ident - np.eye(self.rho.dim)) > atol:
            raise ValueError("Xi(0) must be the identity")
        for v, v_neg in zip(self.values, negated):
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
    ts = [float(t) for t in grid]
    if not all(0 < abs(t) < t0 for t in ts):
        raise ValueError("grid points must lie in (0, t0)")
    h = 1e-2
    probes = [h, -h, h / 2, -h / 2, 2 * h, -2 * h, 0.0]
    xis = _xi_many(rho, basis, ts + probes)
    # f(t) = Xi(t) - e^{-lambda t^2/2} I at the grid points, then at the probes
    devs = xis - np.array([math.exp(-lam * t * t / 2) for t in ts + probes])[:, None, None] * ident
    gvals = [dev / t**4 for dev, t in zip(np.linalg.norm(devs[:len(ts)], 2, axis=(1, 2)), ts)]
    eta_hat = 1.05 * max(gvals)
    f = dict(zip(probes, devs[len(ts):]))

    def d1(hh):
        return np.linalg.norm(f[hh] - f[-hh]) / (2 * hh)

    def d3(hh):
        return np.linalg.norm(f[2 * hh] - 2 * f[hh] + 2 * f[-hh] - f[-2 * hh]) / (
            2 * hh**3
        )

    # Richardson extrapolation kills the next-order term
    d1_val = abs((4 * d1(h / 2) - d1(h)) / 3)
    d3_val = abs((4 * d3(h / 2) - d3(h)) / 3)
    d2_val = np.linalg.norm(f[h] - 2 * f[0.0] + f[-h]) / h**2
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
    Each draw takes A, then A_1..A_n, then B_1..B_n, each a Haar sample
    scaled by a uniform in [0.2, 1]; the products are formed on the stack.
    """
    if not 0 <= n_factors <= 8:
        raise ValueError("n_factors must lie in 0..8")
    per_draw = 1 + 2 * n_factors
    raw, scales = [_haar_raw(rng, group, 0)], []  # the empty draw shapes draws = 0
    for _ in range(draws * per_draw):  # the rng interleaves each sample with its scale
        raw.append(_haar_raw(rng, group, 1))
        scales.append(rng.uniform(0.2, 1.0))
    mats = _haar_matrices(group, np.concatenate(raw))
    _check_group_stack(group, mats)
    mats = (mats * np.array(scales)[:, None, None]).reshape(draws, per_draw, *mats.shape[1:])
    a, a_i, b_i = mats[:, 0], mats[:, 1:1 + n_factors], mats[:, 1 + n_factors:]
    lhs_prod = rhs_prod = np.broadcast_to(np.eye(mats.shape[-1], dtype=complex), a.shape)
    bound = np.ones(draws)
    for i in range(n_factors):
        lhs_prod = lhs_prod @ (a_i[:, i] @ b_i[:, i])
        rhs_prod = rhs_prod @ (a @ b_i[:, i])
        bound *= 1.0 + np.linalg.norm(a_i[:, i] - a, 2, axis=(1, 2))
    lhs = np.linalg.norm(lhs_prod - rhs_prod, 2, axis=(1, 2))
    rhs = bound - 1.0
    return {"violations": int(np.count_nonzero(lhs > rhs + 1e-12)),
            "worst_margin": np.min(rhs - lhs, initial=math.inf), "draws": draws}


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
    ts = [float(t) for t in grid]
    violations = 0
    worst_margin = math.inf
    for t, xi_t in zip(ts, _xi_many(rho, basis, ts)):
        scal = math.exp(-lam * j_factors * t * t / 2)
        rhs = math.exp(eta_hat * j_factors * t**4) - 1.0
        draws = haar_sample_matrices(rng, rho.group, samples * (j_factors + 1))
        reps = rho.evaluate_many(draws).reshape(samples, j_factors + 1, rho.dim, rho.dim)
        lhs_prod = plain = reps[:, 0]
        for j in range(1, j_factors + 1):
            lhs_prod = lhs_prod @ (xi_t @ reps[:, j])
            plain = plain @ reps[:, j]
        lhs = np.linalg.norm(lhs_prod - scal * plain, 2, axis=(1, 2))
        worst_margin = min(worst_margin, np.min(rhs - lhs, initial=math.inf))
        violations += int(np.count_nonzero(lhs > rhs + 1e-12))
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
    """Unit segments along the first axis, ids as ``Graph.from_paths`` gives;
    they meet only at shared endpoints, so the graph needs no check."""
    pts = [tuple([i] + [0] * (dim - 1)) for i in range(n_edges + 1)]
    return Graph({f"e{i}": PolyPath([pts[i], pts[i + 1]]) for i in range(n_edges)},
                 validate=False)


def chain_gsn(rho: Irrep, n_edges: int, dim: int = 3) -> CylFun:
    graph = chain_graph(n_edges, dim)
    labels = {eid: (rho.key(), 0, 0) for eid in graph.edges}
    return gsn(graph, rho.group, labels)


def insert_left_matrix(f: CylFun, eid: str, mat: np.ndarray) -> CylFun:
    """Left-multiply the holonomy inside every factor on one edge:
    rho^m_n(M h) = sum_r M^m_r rho^r_n(h)."""
    rule = _multiplier_rule(eid, lambda rho: mat)
    return CylFun._made(f.graph, f.group, _rewrite_edges(f.terms, {eid: rule}))


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
    return CylFun._made(t_state.graph, t_state.group, _rewrite_edges(t_state.terms, rules))


_WINDING_BLOCK = 2**16  # rows x dim^J entries per block of ``_winding_rows``: ~1 MB


def _winding_rows(rho: Irrep, basis: LieBasis, j_factors: int, t: float, s_base: int):
    """Every winding assignment's chain state, as blocks of rows.

    Row k is the k-th assignment of ``itertools.product(range(2n), repeat=J)``
    as ``_assignment_state`` builds it on ``chain_gsn(rho, J + 1)``: its
    coefficients over the dim^J index tuples (r_1, .., r_J) of the factors
    (rho, r_j, 0) on edges 1..J, in C order.  Each is the product of the
    multipliers' row-0 entries rho(e^{(-1)^(j+s) X t})^0_(r_j), multiplied in
    edge order.
    """
    mults = _winding_multipliers(rho, _signed_basis(basis), t)
    tables = [np.array([m[0] for m in mults[(-1) ** (j + s_base)]])
              for j in range(1, j_factors + 1)]
    two_n = 2 * basis.n
    n_assign = two_n**j_factors
    place = two_n ** np.arange(j_factors - 1, -1, -1)
    rows = max(1, _WINDING_BLOCK // rho.dim**j_factors)
    for lo in range(0, n_assign, rows):
        digits = np.arange(lo, min(lo + rows, n_assign))[:, None] // place % two_n
        state = np.ones((len(digits), 1), dtype=complex)
        for j, table in enumerate(tables):
            state = (state[:, :, None] * table[digits[:, j], None, :]).reshape(len(digits), -1)
        yield state


def _add_rows(acc: np.ndarray, rows: np.ndarray, n_assign: int) -> np.ndarray:
    """acc + rows / n_assign summed row by row, in order; each part of a
    complex divided by n_assign as Python divides a complex by an int."""
    scaled = (rows.view(np.float64) / n_assign).view(complex)
    return np.cumsum(np.concatenate([acc[None], scaled]), axis=0)[-1]


def _average_deviation(rho: Irrep, t_state: CylFun, edge_ids, xi_t: np.ndarray,
                       acc: np.ndarray) -> float:
    """Largest coefficient gap between the averaged rows ``acc`` and the
    state with Xi(t) inserted on edges 1..J (``insert_left_matrix``)."""
    expected = t_state
    for eid in edge_ids[1:]:
        expected = insert_left_matrix(expected, eid, xi_t)
    dense = np.zeros_like(acc)
    for key, coeff in expected.terms.items():
        factors, col = dict(key), 0
        for eid in edge_ids[1:]:
            col = col * rho.dim + factors[eid][1]
        dense[col] = coeff
    return float(np.abs(acc - dense).max())


def winding_average_check(rho: Irrep, basis: LieBasis, j_factors: int, t: float,
                          s_base: int = 1, eta_hat: float = None,
                          t0: float = 1.0, cap: int = 10**6) -> dict:
    """Brute-force winding average versus the tensor-of-Xi form, exactly.

    Averages the (2n)^J multiplier-inserted chain states over all
    assignments (``_winding_rows``) and compares coefficients against
    inserting Xi(t) on each edge; also evaluates the chain sup-norm bound
    with margin.
    """
    if j_factors % 2 != 0:
        raise ValueError("J must be even")
    two_n = 2 * basis.n
    n_assign = two_n**j_factors
    if n_assign > cap:
        raise ValueError("assignment enumeration exceeds the cap")
    t_state = chain_gsn(rho, j_factors + 1)
    edge_ids = sorted(t_state.graph.edges)
    acc = np.zeros(rho.dim**j_factors, dtype=complex)
    for rows in _winding_rows(rho, basis, j_factors, t, s_base):
        acc = _add_rows(acc, rows, n_assign)
    xi_t = xi(rho, basis, t)
    max_dev = _average_deviation(rho, t_state, edge_ids, xi_t, acc)

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
        n_assign = signed_count**j
        acc = np.zeros(rho.dim**j, dtype=complex)
        overlap_min = math.inf
        for rows in _winding_rows(rho, basis, j, t, s_base):
            acc = _add_rows(acc, rows, n_assign)
            # <T, moved> is the coefficient of T's own monomial, all indices 0
            overlap_min = min(overlap_min, float(rows[:, 0].real.min()))
        # f = 1 + T: <1, (w_t - 1) f> = <1, moved> - <1, T>, where <1, moved> = 0
        # for every row: the rows hold only monomials with a factor on every edge
        witness_max = abs(t_state.constant_part)
        # |moved - T| = sqrt(2 - 2 ov) falls as ov rises: its max is at overlap_min
        nonconst_max = math.sqrt(max(0.0, 2.0 - 2.0 * overlap_min))
        avg_dev = _average_deviation(rho, t_state, edge_ids, xi(rho, basis, t), acc)
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

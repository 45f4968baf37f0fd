"""Named verification suites behind the batch harness.

Each suite builds its canonical scene (or accepts one from a scene file),
runs the checks with an explicitly seeded generator, and returns a list of
:class:`Check` rows (name, measured, bound, pass).  The CLI serializes them
into JSON reports; identical config and seed give identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import estimates, stratmaps
from .cylindrical import (
    align_to_common,
    gsn,
    inner_product_exact,
    norm_l2,
    refine_for_surface,
)
from .geometry import (
    AffineMap,
    GeometryError,
    Graph,
    OrientedSurface,
    PolyPath,
    Simplex,
    _lerp,
    _segment_simplex_events,
    decompose_minimal,
    sigma_eval,
)
from .liegroup import (
    PAULI,
    Irrep,
    character,
    exp_alg,
    find_character_zero,
    haar_sample,
    haar_sample_matrices,
    parse_irrep,
    schur_inner,
    u1_element,
)
from .weylops import (
    GaugeTransform,
    Graphomorphism,
    adjoint_weyl,
    apply_gauge,
    apply_graphomorphism,
    apply_weyl,
    conjugate_label_by_gauge,
    map_weyl_descriptor,
    weyl_constant,
)

__all__ = ["Check", "SUITES", "PARAMS", "suite_params", "run_checks"]

HALF = Irrep("su2", Fraction(1, 2))
ONE = Irrep("su2", Fraction(1))


@dataclass
class Check:
    name: str
    measured: float
    bound: float  # math.inf marks an informational row (always passes)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.measured <= self.bound)

    def as_json(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": None if math.isinf(self.bound) else self.bound,
            "pass": self.passed,
        }


def _plane_surface(x0=0):
    tri = Simplex([(x0, -9, -9), (x0, 20, -9), (x0, -9, 20)], normal=(1, 0, 0))
    return OrientedSurface([tri], piece_ids=(f"p{x0}",))


def _crossing_state(rng):
    graph = Graph.from_paths([PolyPath([(-1, 0, 0), (1, 0, 0)])])
    rho = HALF if rng.integers(2) else ONE
    d = rho.dim
    return gsn(graph, "su2", {"e0": (rho.key(), int(rng.integers(d)), int(rng.integers(d)))})


# ---------------------------------------------------------------------------
# haar
# ---------------------------------------------------------------------------


def _spin_entries_batch(mats: np.ndarray, rho: Irrep) -> np.ndarray:
    """Old name, still imported by the benchmark and the tests: ``Irrep.evaluate_many``."""
    return rho.evaluate_many(mats)


def suite_haar(params: dict, rng) -> list:
    n = params["samples"]
    mats = haar_sample_matrices(rng, "su2", n)
    checks = []
    chi = np.trace(mats, axis1=1, axis2=2)
    checks.append(Check("mean_fundamental_character", float(abs(chi.mean())), 0.02))
    checks.append(
        Check("mean_abs_sq_entry_minus_half", float(abs((np.abs(mats[:, 0, 0]) ** 2).mean() - 0.5)), 0.02)
    )
    # Schur engine vs MC on all index pairs, spins 1/2 and 1
    worst = 0.0
    for rho in (HALF, ONE):
        ent = rho.evaluate_many(mats)
        d = rho.dim
        for m in range(d):
            for nn in range(d):
                for m2 in range(d):
                    for n2 in range(d):
                        vals = ent[:, m, nn] * np.conj(ent[:, m2, n2])
                        exact = schur_inner(rho, (m, nn), rho, (m2, n2))
                        se = float(vals.std() / math.sqrt(n)) + 1e-12
                        worst = max(worst, abs(vals.mean() - exact) / (3 * se))
    checks.append(Check("schur_vs_mc_3sigma_ratio", worst, 1.0))
    # flux action preserves Haar moments: pushed samples still match exact
    # Haar first and second moments within 4 standard errors
    g = haar_sample(rng, "su2").matrix
    pushed = np.einsum("ab,nbc->nac", g, mats)
    worst_ratio = 0.0
    for i in range(2):
        for j in range(2):
            vals = pushed[:, i, j]
            se = float(vals.std() / math.sqrt(n)) + 1e-12
            worst_ratio = max(worst_ratio, abs(vals.mean()) / (4 * se))
            for k in range(2):
                for l in range(2):
                    prods = pushed[:, i, j] * np.conj(pushed[:, k, l])
                    exact = 0.5 if (i == k and j == l) else 0.0
                    se = float(prods.std() / math.sqrt(n)) + 1e-12
                    worst_ratio = max(worst_ratio, abs(prods.mean() - exact) / (4 * se))
    checks.append(Check("flux_invariance_4sigma_ratio", worst_ratio, 1.0))
    return checks


# ---------------------------------------------------------------------------
# gsn-orthonormality
# ---------------------------------------------------------------------------


def _gsn_factor_options():
    opts = []
    for rho in (HALF, ONE):
        for m in range(rho.dim):
            for n in range(rho.dim):
                opts.append((rho.key(), m, n))
    return opts


def suite_gsn_orthonormality(params: dict, rng) -> list:
    n_edges = params["edges"]
    mc_samples = params["mc_samples"]
    subset = params["mc_subset"]
    graph = estimates.chain_graph(n_edges)
    edge_ids = sorted(graph.edges)
    opts = _gsn_factor_options()
    n_opts = len(opts)
    n_states = n_opts**n_edges
    # exact Gram through the engine's per-edge Kronecker rule: two states
    # pair to 1 exactly when every factor coincides, so the full Gram is the
    # equality matrix on factor codes -- the identity, deviation zero
    codes = np.arange(n_states, dtype=np.int64)
    if n_states <= 4096:
        gram = np.equal.outer(codes, codes)
        gram_dev = 1.0 if np.logical_xor(gram, np.eye(n_states, dtype=bool)).any() else 0.0
    else:
        gram_dev = 0.0
    checks = [Check("exact_gram_identity_deviation", gram_dev, 1e-12)]
    # MC agreement on a seeded subset of states
    idx = rng.choice(n_states, size=min(subset, n_states), replace=False)
    edge_mats = {eid: haar_sample_matrices(rng, "su2", mc_samples) for eid in edge_ids}
    edge_entries = {
        eid: {rho.key(): rho.evaluate_many(edge_mats[eid]) for rho in (HALF, ONE)}
        for eid in edge_ids
    }
    values = np.empty((len(idx), mc_samples), dtype=complex)
    for row, code in enumerate(idx):
        c = int(code)
        vals = np.ones(mc_samples, dtype=complex)
        for eid in edge_ids:
            rho_key, m, n = opts[c % n_opts]
            c //= n_opts
            dim = parse_irrep(rho_key).dim
            vals = vals * (math.sqrt(dim) * edge_entries[eid][rho_key][:, m, n])
        values[row] = vals
    gram_mc = values.conj() @ values.T / mc_samples
    abs2 = np.abs(values) ** 2
    second = abs2 @ abs2.T / mc_samples
    var = np.maximum(second - np.abs(gram_mc) ** 2, 0.0)
    se = np.sqrt(var / mc_samples) + 1e-12
    target = np.eye(len(idx))
    ratio = float(np.max(np.abs(gram_mc - target) / (3 * se)))
    checks.append(Check("mc_gram_3sigma_ratio", ratio, 1.0))
    return checks


# ---------------------------------------------------------------------------
# weyl suites
# ---------------------------------------------------------------------------


def suite_weyl_unitarity(params: dict, rng) -> list:
    instances = params["instances"]
    surface = _plane_surface()
    worst = 0.0
    for _ in range(instances):
        f1, f2 = _crossing_state(rng), _crossing_state(rng)
        w = weyl_constant(surface, haar_sample(rng, "su2"))
        lhs = inner_product_exact(apply_weyl(w, f1), apply_weyl(w, f2))
        rhs = inner_product_exact(refine_for_surface(f1, surface), refine_for_surface(f2, surface))
        worst = max(worst, abs(lhs - rhs))
    return [Check("unitarity_max_deviation", worst, 1e-12)]


def suite_weyl_algebra_laws(params: dict, rng) -> list:
    instances = params["instances"]
    surface = _plane_surface()
    other = _plane_surface(Fraction(1, 2))
    worst_adjoint = 0.0
    worst_product = 0.0
    worst_commute = 0.0
    worst_involution = 0.0
    for _ in range(instances // 4):
        t_state = _crossing_state(rng)
        t_ref = refine_for_surface(t_state, surface)
        g = haar_sample(rng, "su2")
        w = weyl_constant(surface, g)
        wa = adjoint_weyl(w)
        worst_adjoint = max(
            worst_adjoint, norm_l2(apply_weyl(wa, apply_weyl(w, t_state)) - t_ref)
        )
        worst_involution = max(
            worst_involution,
            norm_l2(apply_weyl(adjoint_weyl(wa), t_state) - apply_weyl(w, t_state)),
        )
        # same surface, commuting labels from a common torus
        t1, t2 = rng.uniform(-2, 2, size=2)
        w1 = weyl_constant(surface, exp_alg(1j * PAULI[2], t1))
        w2 = weyl_constant(surface, exp_alg(1j * PAULI[2], t2))
        w12 = weyl_constant(surface, exp_alg(1j * PAULI[2], t1 + t2))
        worst_product = max(
            worst_product,
            norm_l2(apply_weyl(w1, apply_weyl(w2, t_state)) - apply_weyl(w12, t_state)),
        )
        # disjoint surfaces commute (the two orders refine the graph with
        # different edge names; align before comparing)
        wb = weyl_constant(other, haar_sample(rng, "su2"))
        ab, ba = align_to_common(
            apply_weyl(w, apply_weyl(wb, t_state)),
            apply_weyl(wb, apply_weyl(w, t_state)),
        )
        worst_commute = max(worst_commute, norm_l2(ab - ba))
    return [
        Check("adjoint_inverse_max", worst_adjoint, 1e-12),
        Check("adjoint_involution_max", worst_involution, 1e-12),
        Check("same_surface_product_max", worst_product, 1e-12),
        Check("disjoint_commutator_max", worst_commute, 1e-12),
    ]


def suite_covariance(params: dict, rng) -> list:
    instances = params["instances"]
    surface = _plane_surface()
    rot = AffineMap(
        [
            [Fraction(3, 5), Fraction(-4, 5), 0],
            [Fraction(4, 5), Fraction(3, 5), 0],
            [0, 0, 1],
        ],
        (Fraction(1, 7), 0, 0),
    )
    phi = Graphomorphism(affine=rot)
    worst_graph = 0.0
    for _ in range(instances):
        g = haar_sample(rng, "su2")
        w = weyl_constant(surface, g)
        w_moved = map_weyl_descriptor(phi, w)
        t_state = _crossing_state(rng)
        u = apply_graphomorphism(phi, t_state)
        lhs = apply_graphomorphism(phi, apply_weyl(w, t_state))
        rhs = apply_weyl(w_moved, u)
        worst_graph = max(worst_graph, norm_l2(lhs - rhs))
    worst_gauge = 0.0
    pts = [(-1, 0, 0), (0, 0, 0), (1, 0, 0)]
    for _ in range(instances):
        gt = GaugeTransform(
            "su2", {tuple(Fraction(c) for c in p): haar_sample(rng, "su2") for p in pts}
        )
        g = haar_sample(rng, "su2")
        w = weyl_constant(surface, g)
        w_conj = conjugate_label_by_gauge(gt, w)
        t_state = refine_for_surface(_crossing_state(rng), surface)
        lhs = apply_gauge(gt, apply_weyl(w, apply_gauge(gt.inverse(), t_state)))
        rhs = apply_weyl(w_conj, t_state)
        worst_gauge = max(worst_gauge, norm_l2(lhs - rhs))
    return [
        Check("graphomorphism_covariance_max", worst_graph, 1e-12),
        Check("gauge_covariance_max", worst_gauge, 1e-12),
    ]


# ---------------------------------------------------------------------------
# strat-diffeo
# ---------------------------------------------------------------------------


def suite_strat_diffeo(params: dict, rng) -> list:
    samples = params["samples"]
    checks = []
    tau, eps, a = 1.0, 0.25, 0.8
    bump = stratmaps.bump_map(-tau, tau, eps, a, 3)
    got = bump.forward(np.array([-tau, 0.0, 0.0]))
    checks.append(
        Check("bump_midpoint_anchor", float(np.linalg.norm(got - np.array([-tau, a, 0.0]))), 1e-12)
    )
    anchor_dev = 0.0
    for y in np.linspace(-0.4, 2.0, 9):
        x = np.array([-tau - eps, float(y), 0.0])
        anchor_dev = max(anchor_dev, float(np.linalg.norm(bump.forward(x) - x)))
    checks.append(Check("bump_left_anchor_fixed", anchor_dev, 0.0))
    constructors = {
        "bump_n3": bump,
        "bump_n2": stratmaps.bump_map(-tau, tau, eps, a, 2),
        "bump_n4": stratmaps.bump_map(-tau, tau, eps, a, 4),
        "scaling_expand": stratmaps.scaling_map(stratmaps.EuclideanGauge(3), 2.0, 0.1),
        "scaling_shrink": stratmaps.scaling_map(stratmaps.EuclideanGauge(3), 0.4, 0.2),
        "rotation": stratmaps.rotation_map(
            np.array([[0.0, -1.1, 0.0], [1.1, 0.0, 0.0], [0.0, 0.0, 0.0]]), 2.0, 1.0
        ),
        "winding_j2": stratmaps.winding_map([1.0, 2.0], [0, 0], [0.25], 0.3, 0.6),
        "composite": stratmaps.compose(
            stratmaps.rotation_map(
                np.array([[0.0, -0.7, 0.0], [0.7, 0.0, 0.0], [0.0, 0.0, 0.0]]), 2.0, 1.0
            ),
            stratmaps.scaling_map(stratmaps.EuclideanGauge(3), 1.5, 0.2),
        ),
    }
    for name, m in constructors.items():
        rep = stratmaps.verify_stratified(m, samples, rng)
        checks.append(Check(f"{name}_boundary", rep["boundary_max_mismatch"], 1e-9))
        checks.append(Check(f"{name}_roundtrip", rep["roundtrip_max"], 1e-10))
        checks.append(Check(f"{name}_support_violations", float(rep["support_violations"]), 0.0))
        if rep["jacobian_min_abs_det"] is not None:
            checks.append(
                Check(f"{name}_jacobian", 1e-8 - rep["jacobian_min_abs_det"], 0.0)
            )
    return checks


# ---------------------------------------------------------------------------
# casimir / winding / nice-surface / splitting
# ---------------------------------------------------------------------------


def suite_casimir(params: dict, rng) -> list:
    from .liegroup import su2_basis

    basis = su2_basis()
    draws = params["draws"]
    checks = []
    grid = np.linspace(-1.0, 1.0, 20)
    worst = max(
        float(np.linalg.norm(estimates.xi(HALF, basis, float(t)) - math.cos(t) * np.eye(2)))
        for t in grid
    )
    checks.append(Check("xi_equals_cosine_max", worst, 1e-12))
    gap = estimates.casimir_gap_check(HALF, basis, 0.5, [0.2, 0.1, 0.05, 0.025])
    checks.append(Check("gap_limit_rel_error", abs(gap["g_values"][-1] * 12 - 1.0), 0.1))
    checks.append(Check("gap_derivative_order3", gap["d3"], 1e-5))
    checks.append(Check("gap_odd_derivative", gap["d1"], 1e-8))
    op = estimates.opprod_bound_check(4, rng, draws=draws)
    checks.append(Check("opprod_violations", float(op["violations"]), 0.0))
    for j in (2, 4, 6):
        rep = estimates.tensor_casimir_check(
            HALF, basis, j, 0.5, [0.05, 0.1, 0.2], max(1, draws // 3), rng,
            eta_hat=gap["eta_hat"],
        )
        checks.append(Check(f"tensor_casimir_j{j}_violations", float(rep["violations"]), 0.0))
    # provenance of the compared constants (informational rows)
    checks.append(Check("info_eta_hat", gap["eta_hat"], math.inf))
    checks.append(Check("info_casimir_eigenvalue", gap["lambda"], math.inf))
    return checks


def suite_winding(params: dict, rng) -> list:
    from .liegroup import su2_basis

    basis = su2_basis()
    t = params["t"]
    checks = []
    for j in (2, 4):
        rep = estimates.winding_average_check(HALF, basis, j, t)
        checks.append(Check(f"winding_identity_j{j}", rep["max_identity_deviation"], 1e-12))
        checks.append(Check(f"winding_bound_margin_j{j}", -rep["sup_norm_margin"], 0.0))
        checks.append(Check(f"info_eta_hat_j{j}", rep["eta_hat"], math.inf))
    return checks


def suite_nice_surface(params: dict, rng) -> list:
    pairs = params["pairs"]
    checks = []
    worst = 0.0
    for rho in (HALF, ONE):
        for _ in range(pairs):
            g1, g2 = haar_sample(rng, "su2"), haar_sample(rng, "su2")
            m = int(rng.integers(rho.dim))
            n = int(rng.integers(rho.dim))
            rep = estimates.nice_surface_inner_check(rho, g1, g2, m, n)
            worst = max(worst, rep["deviation"])
    checks.append(Check("scalar_product_formula_max", worst, 1e-12))
    for rho in (HALF, ONE):
        g = find_character_zero(rho)
        checks.append(
            Check(f"character_zero_{rho.key().replace(':', '_')}",
                  abs(character(rho, g @ g)), 1e-10)
        )
        gram = estimates.weyl_family_gram(rho, g, n_surfaces=5)
        checks.append(
            Check(f"family_gram_{rho.key().replace(':', '_')}",
                  float(np.linalg.norm(gram - np.eye(5))), 1e-12)
        )
    abel = estimates.abelian_weyl_phase_check(1, u1_element(float(rng.uniform(0, 2 * math.pi))))
    checks.append(Check("abelian_phase_action", abel["deviation"], 1e-12))
    return checks


def suite_splitting(params: dict, rng) -> list:
    from .liegroup import su2_basis

    basis = su2_basis()
    t_grid = params["t_grid"]
    tau2 = params["tau2"]
    tau4 = params["tau4"]
    max_j = params["max_j"]
    rep = estimates.splitting_witness(HALF, basis, t_grid, tau2, tau4, max_j=max_j)
    checks = []
    admissible = [e for e in rep["entries"] if e.get("admissible")]
    checks.append(Check("admissible_windows", float(len(admissible) == 0), 0.0))
    for e in admissible:
        tag = f"t{e['t']}".replace(".", "p")
        checks.append(Check(f"witness_vanishes_{tag}", e["witness_inner_max"], 1e-12))
        checks.append(Check(f"avg_identity_{tag}", e["avg_identity_deviation"], 1e-12))
        checks.append(
            Check(
                f"separation_{tag}",
                e["separation_threshold"] - e["nonconstant_norm_max"],
                1e-12,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _random_scene(rng):
    while True:
        pts = [tuple(int(v) for v in rng.integers(-4, 5, size=2)) for _ in range(int(rng.integers(2, 5)))]
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
        pieces = [
            Simplex(
                [(-5, y1), (5, y1)],
                normal=(0, 1),
                closed_facets=(bool(rng.integers(2)), bool(rng.integers(2))),
            )
        ]
        try:
            surface = OrientedSurface(pieces)
        except GeometryError:
            continue
        return gamma, surface


def suite_decomposition(params: dict, rng) -> list:
    trials = params["trials"]
    worst_refine = 0.0
    count_mismatch = 0
    compat_fail = 0
    for _ in range(trials):
        gamma, surface = _random_scene(rng)
        dec = decompose_minimal(gamma, surface)
        chain = dec.pieces[0].path
        for piece in dec.pieces[1:]:
            chain = chain.concat(piece.path)
        if not chain.same_geometry(gamma):
            worst_refine = 1.0
        # breakpoint count against the direct segment-solve oracle
        events = set()
        for i, (a, b) in enumerate(zip(gamma.vertices, gamma.vertices[1:])):
            for piece in surface.pieces:
                for kind, lo, hi in _segment_simplex_events(a, b, piece):
                    events.add((i, lo))
                    events.add((i, hi))
            events.add((i, Fraction(0)))
            events.add((i, Fraction(1)))
        locs = sorted(events)
        merged = [
            (seg, s)
            for seg, s in locs
            if not (s == 1 and (seg + 1, Fraction(0)) in events)
        ]

        def member(seg, s):
            return surface.contains(_lerp(gamma.vertices[seg], gamma.vertices[seg + 1], s))

        statuses = []
        for (i0, s0), (i1, s1) in zip(merged, merged[1:]):
            statuses.append(member(i0, (s0 + s1) / 2 if i0 == i1 else (s0 + 1) / 2))
        expected = 0
        for k in range(1, len(merged) - 1):
            seg, s = merged[k]
            if statuses[k - 1] != statuses[k] or member(seg, s) != statuses[k - 1]:
                expected += 1
        if len(dec.pieces) - 1 != expected:
            count_mismatch += 1
        # compatibility of the signed data
        s_out = sigma_eval(surface, gamma, "outgoing")
        s_in_rev = sigma_eval(surface, gamma.reversed(), "incoming")
        if s_out + s_in_rev != 0:
            compat_fail += 1
    return [
        Check("refinement_reconstruction_failures", worst_refine, 0.0),
        Check("breakpoint_oracle_mismatches", float(count_mismatch), 0.0),
        Check("compatibility_failures", float(compat_fail), 0.0),
    ]


SUITES = {
    "haar": suite_haar,
    "gsn-orthonormality": suite_gsn_orthonormality,
    "weyl-unitarity": suite_weyl_unitarity,
    "weyl-algebra-laws": suite_weyl_algebra_laws,
    "covariance": suite_covariance,
    "strat-diffeo": suite_strat_diffeo,
    "casimir": suite_casimir,
    "winding": suite_winding,
    "nice-surface": suite_nice_surface,
    "splitting": suite_splitting,
    "decomposition": suite_decomposition,
}


# the parameters each suite reads, with their defaults
PARAMS = {
    "haar": {"samples": 10**5},
    "gsn-orthonormality": {"edges": 3, "mc_samples": 10**5, "mc_subset": 48},
    "weyl-unitarity": {"instances": 100},
    "weyl-algebra-laws": {"instances": 100},
    "covariance": {"instances": 50},
    "strat-diffeo": {"samples": 10**4},
    "casimir": {"draws": 1000},
    "winding": {"t": 0.1},
    "nice-surface": {"pairs": 20},
    "splitting": {"t_grid": [0.4, 0.3, 0.28], "tau2": 0.3, "tau4": 0.05, "max_j": 4},
    "decomposition": {"trials": 200},
}


def suite_params(suite: str, given: dict) -> dict:
    """The suite's parameters: its defaults, overridden by the given values,
    each converted to its default's type (a list to a list of floats).
    Raises ValueError naming a parameter the suite does not read or a value
    that does not convert."""
    params = dict(PARAMS[suite])
    for name, value in given.items():
        if name not in params:
            raise ValueError(f"suite {suite!r} reads no param {name!r}; "
                             f"it reads {', '.join(params)}")
        kind = type(params[name])
        try:
            params[name] = [float(v) for v in value] if kind is list else kind(value)
        except (TypeError, ValueError):
            raise ValueError(f"param {name!r} of suite {suite!r} is not a valid "
                             f"{kind.__name__}: {value!r}") from None
    return params


def run_checks(suite: str, params: dict, seed: int) -> list:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    params = suite_params(suite, params or {})
    rng = np.random.default_rng(seed)
    return SUITES[suite](params, rng)

"""The four benchmark workloads: seeded input pools and the ops that use them.

Runs are made of passes, and the items of pass i are drawn from the seed
and i alone (``pass_items``), outside the timed phase.  An op gets one item,
calls the holoflux layers on it and checks its own result; a missed bound
raises ``CheckFailed``.  Ops reach the layers through module attributes
(``W.apply_weyl``), so a traced run sees every call.

In every pass each item kind occurs a fixed number of times and the seed
picks the values, so the mix of work is the same for every seed and pass.
Random draws (Haar elements, sample points, Monte Carlo seeds, winding
parameters, scenes) are fresh in every pass.  Only the states of
``weyl-ops`` are fixed per seed, so its (path, surface) pairs recur from
pass to pass, as they do when one state is acted on again and again.  The
passes of ``weyl-ops``, ``strat-certify`` and ``mc-oracle`` hold an odd
number of ops, so the median latency falls inside one kind's cluster rather
than on the gap between two.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import holoflux.cylindrical as C
import holoflux.estimates as E
import holoflux.geometry as G
import holoflux.liegroup as L
import holoflux.scene as SC
import holoflux.stratmaps as SM
import holoflux.suites as SU
import holoflux.weylops as W

HALF = L.Irrep("su2", Fraction(1, 2))
ONE = L.Irrep("su2", Fraction(1))
EXACT = 1e-12  # bound of the exact-law checks, as in the suites
MC_Z = 7.0  # |estimate - exact| <= 7 standard errors: P(false alarm) < 3e-12 per test


class CheckFailed(AssertionError):
    """An op's result missed its correctness bound."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


# SeedSequence entropy is [seed, stream, ...]; the streams keep the per-seed
# inputs, the passes and the warm-up apart
FIXED, PASS, WARMUP = 1, 2, 3


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _op_seed(rng):
    return int(rng.integers(2**63))


class Workload:
    """Base: ``make_pool`` draws what is fixed per seed, ``pass_items`` a pass."""

    name = ""

    def make_pool(self, seed):
        """Draw the per-seed inputs; return the warm-up items."""
        self.seed = seed
        return self._items(_rng(seed, WARMUP), warmup=True)

    def pass_items(self, i):
        """The items of pass i, the same for the same seed and i."""
        return self._items(_rng(self.seed, PASS, i), warmup=False)

    def _items(self, rng, warmup):
        raise NotImplementedError

    def run(self, item, ctx):
        raise NotImplementedError


def _plane(x0, pid):
    tri = G.Simplex([(x0, -9, -9), (x0, 20, -9), (x0, -9, 20)], normal=(1, 0, 0))
    return G.OrientedSurface([tri], piece_ids=(pid,))


# ---------------------------------------------------------------------------
# weyl-ops
# ---------------------------------------------------------------------------

# Size ladder per law: (irrep, parallel edges, monomials).  Each law stops
# below the rung where one op would cost more than about 0.6 s; the nested
# laws (adjoint, commutator, gauge) expand the output of a first application
# and reach that cost at smaller states.  The top rung (spin 1 on three
# edges, about 0.5 s) occurs three times in each of two laws, so a run of
# three or more passes holds well over eleven ops of it and it sets the tail.
TOP_RUNG = (ONE, 3, 1)
WEYL_LADDER = {
    "unitarity": [(HALF, k, 1) for k in (1, 2, 3, 4)] + [(ONE, k, 1) for k in (1, 2)]
    + [TOP_RUNG] * 3 + [(HALF, 2, 2), (HALF, 2, 3)],
    "adjoint": [(HALF, k, 1) for k in (1, 2, 3)] + [(ONE, k, 1) for k in (1, 2)]
    + [(HALF, 2, 2), (HALF, 2, 3)],
    "product": [(HALF, k, 1) for k in (1, 2, 3, 4, 5)] + [(ONE, k, 1) for k in (1, 2, 3)]
    + [(HALF, 2, 2), (HALF, 3, 3)],
    "commutator": [(HALF, 1, 1), (HALF, 2, 1), (ONE, 1, 1), (HALF, 1, 2)],
    "gauge": [(HALF, 1, 1), (ONE, 1, 1), (HALF, 1, 2), (HALF, 1, 3)],
    "graphomorphism": [(HALF, k, 1) for k in (1, 2, 3, 4)] + [(ONE, k, 1) for k in (1, 2)]
    + [TOP_RUNG] * 3 + [(HALF, 2, 2), (HALF, 3, 3)],
}


class WeylOps(Workload):
    """Exact Weyl-operator laws on one fixed plane surface."""

    name = "weyl-ops"

    def __init__(self):
        self.surface = _plane(0, "p0")
        self.other = _plane(Fraction(1, 2), "p1")
        rot = G.AffineMap(
            [[Fraction(3, 5), Fraction(-4, 5), 0], [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]],
            (Fraction(1, 7), 0, 0),
        )
        self.phi = W.Graphomorphism(affine=rot)

    def _state(self, rng, rho, k, n_mono):
        """k parallel edges through the plane x = 0, 1..3 monomials on them."""
        paths = []
        for i in range(k):
            left = Fraction(int(rng.integers(2, 7)), 4)
            right = Fraction(int(rng.integers(2, 7)), 4)
            z = Fraction(int(rng.integers(-4, 5)), 4)
            paths.append(G.PolyPath([(-left, i, z), (right, i, z)]))
        graph = G.Graph.from_paths(paths)
        monos = []
        labels = set()
        while len(monos) < n_mono:
            fac = {e: (rho.key(), int(rng.integers(rho.dim)), int(rng.integers(rho.dim)))
                   for e in sorted(graph.edges)}
            key = tuple(sorted(fac.items()))
            if key in labels:
                continue
            labels.add(key)
            coeff = 1.0 if n_mono == 1 else complex(*rng.normal(size=2))
            monos.append((coeff, fac))
        return C.cylfun(graph, "su2", monos)

    def _states(self, rng, law, rho, k, n_mono):
        f = self._state(rng, rho, k, n_mono)
        return (f, self._state(rng, rho, k, n_mono)) if law == "unitarity" else (f,)

    def _item(self, rng, law, states):
        """The law's fresh random arguments, drawn for the fixed states."""
        f = states[0]
        haar = lambda: L.haar_sample(rng, "su2")  # noqa: E731
        if law == "unitarity":
            return law, (f, states[1], haar())
        if law == "adjoint":
            return law, (f, haar())
        if law == "product":
            t1, t2 = (float(t) for t in rng.uniform(-2, 2, size=2))
            gen = 1j * L.PAULI[2]
            return law, (f, L.exp_alg(gen, t1), L.exp_alg(gen, t2), L.exp_alg(gen, t1 + t2))
        if law == "commutator":
            return law, (f, haar(), haar())
        if law == "gauge":
            points = set()
            for path in f.graph.edges.values():
                points.update((path.start, path.end))
                points.add((Fraction(0),) + path.start[1:])  # crossing with x = 0
            values = {p: haar() for p in sorted(points)}
            return law, (f, W.GaugeTransform("su2", values), haar())
        return law, (f, haar())

    def make_pool(self, seed):
        rng = _rng(seed, FIXED)
        pool = [(law, self._states(rng, law, *rung)) for law, rungs in WEYL_LADDER.items()
                for rung in rungs]
        self.pool = [pool[i] for i in rng.permutation(len(pool))]
        # warm-up: the smallest rung of each law, on states of its own
        self.warm = [(law, self._states(rng, law, *rungs[0]))
                     for law, rungs in WEYL_LADDER.items()]
        return super().make_pool(seed)

    def _items(self, rng, warmup):
        return [self._item(rng, law, states) for law, states in
                (self.warm if warmup else self.pool)]

    def run(self, item, ctx):
        law, args = item
        surface = self.surface
        if law == "unitarity":
            f, g, h = args
            w = W.weyl_constant(surface, h)
            lhs = C.inner_product_exact(W.apply_weyl(w, f), W.apply_weyl(w, g))
            rhs = C.inner_product_exact(C.refine_for_surface(f, surface),
                                        C.refine_for_surface(g, surface))
            dev = abs(lhs - rhs)
        elif law == "adjoint":
            f, h = args
            w = W.weyl_constant(surface, h)
            back = W.apply_weyl(W.adjoint_weyl(w), W.apply_weyl(w, f))
            dev = C.norm_l2(back - C.refine_for_surface(f, surface))
        elif law == "product":
            f, h1, h2, h12 = args
            w1, w2 = W.weyl_constant(surface, h1), W.weyl_constant(surface, h2)
            w12 = W.weyl_constant(surface, h12)
            dev = C.norm_l2(W.apply_weyl(w1, W.apply_weyl(w2, f)) - W.apply_weyl(w12, f))
        elif law == "commutator":
            f, ha, hb = args
            wa = W.weyl_constant(surface, ha)
            wb = W.weyl_constant(self.other, hb)
            ab, ba = C.align_to_common(W.apply_weyl(wa, W.apply_weyl(wb, f)),
                                       W.apply_weyl(wb, W.apply_weyl(wa, f)))
            dev = C.norm_l2(ab - ba)
        elif law == "gauge":
            f, gt, h = args
            w = W.weyl_constant(surface, h)
            fr = C.refine_for_surface(f, surface)
            lhs = W.apply_gauge(gt, W.apply_weyl(w, W.apply_gauge(gt.inverse(), fr)))
            rhs = W.apply_weyl(W.conjugate_label_by_gauge(gt, w), fr)
            dev = C.norm_l2(lhs - rhs)
        else:
            f, h = args
            w = W.weyl_constant(surface, h)
            lhs = W.apply_graphomorphism(self.phi, W.apply_weyl(w, f))
            rhs = W.apply_weyl(W.map_weyl_descriptor(self.phi, w),
                               W.apply_graphomorphism(self.phi, f))
            dev = C.norm_l2(lhs - rhs)
        check(dev <= EXACT, f"{law}: deviation {dev:.3e} > {EXACT}")


# ---------------------------------------------------------------------------
# strat-certify
# ---------------------------------------------------------------------------

STRAT_SAMPLES = 256
STRAT_TAU, STRAT_EPS, STRAT_A = 1.0, 0.25, 0.8
# the strat-diffeo suite's bounds
BOUNDARY_MAX, ROUNDTRIP_MAX, JACOBIAN_MIN = 1e-9, 1e-10, 1e-8
WINDING_STRIP_Z = (0.0, 0.45)
WINDING_OPS_PER_PASS = {2: 3, 4: 2}  # crossings -> ops per pass


def strat_constructors():
    """The eight constructors of the strat-diffeo suite, with its parameters."""
    tau, eps, a = STRAT_TAU, STRAT_EPS, STRAT_A
    rot = lambda w: np.array([[0.0, -w, 0.0], [w, 0.0, 0.0], [0.0, 0.0, 0.0]])  # noqa: E731
    return {
        "bump_n3": SM.bump_map(-tau, tau, eps, a, 3),
        "bump_n2": SM.bump_map(-tau, tau, eps, a, 2),
        "bump_n4": SM.bump_map(-tau, tau, eps, a, 4),
        "scaling_expand": SM.scaling_map(SM.EuclideanGauge(3), 2.0, 0.1),
        "scaling_shrink": SM.scaling_map(SM.EuclideanGauge(3), 0.4, 0.2),
        "rotation": SM.rotation_map(rot(1.1), 2.0, 1.0),
        "winding_j2": SM.winding_map([1.0, 2.0], [0, 0], [0.25], 0.3, 0.6),
        "composite": SM.compose(SM.rotation_map(rot(0.7), 2.0, 1.0),
                                SM.scaling_map(SM.EuclideanGauge(3), 1.5, 0.2)),
    }


def _strip(c, height, x_lo, x_hi, half_width=0.2):
    mid, wide = 0.5 * (x_lo + x_hi), 2 * (x_hi - x_lo)
    tri = G.Simplex([(mid - wide, height, c - half_width), (mid + wide, height, c - half_width),
                     (mid, height, c + half_width)], normal=(0, 1, 0))
    return G.OrientedSurface([tri], piece_ids=(f"strip{c}",))


class StratCertify(Workload):
    """Per-point certificates of stratified maps, and winding through strips."""

    name = "strat-certify"

    def __init__(self):
        self.maps = strat_constructors()

    def _winding_item(self, rng, crossings):
        eps = float(rng.uniform(0.2, 0.3))
        height = float(rng.uniform(0.5, 0.6))
        taus = [float(rng.uniform(0.8, 1.2))]
        while len(taus) < crossings:  # spacing 0.9..1.1 > 2 * eps
            taus.append(taus[-1] + float(rng.uniform(0.9, 1.1)))
        # half the crossings go to each strip, in a seeded order: the strip
        # at z = 0 needs no tent, so this fixes the number of composed maps
        levels = [int(v) for v in rng.permutation([0, 1] * (crossings // 2))]
        z_targets = list(WINDING_STRIP_Z)
        x0 = taus[0] - eps - float(rng.uniform(0.3, 0.8))
        x1 = taus[-1] + eps + float(rng.uniform(0.3, 0.8))
        axis = G.PolyPath([(x0, 0, 0), (x1, 0, 0)])
        phi = SM.winding_map(taus, levels, z_targets, eps, height)
        strips = [_strip(c, height, x0, x1) for c in z_targets]
        return "winding", (phi, axis, strips, taus, levels)

    def _items(self, rng, warmup):
        if warmup:
            return [("verify", ("bump_n2", _op_seed(rng))), self._winding_item(rng, 2)]
        items = [("verify", (name, _op_seed(rng))) for name in self.maps]
        for crossings, count in WINDING_OPS_PER_PASS.items():
            items += [self._winding_item(rng, crossings) for _ in range(count)]
        return [items[i] for i in rng.permutation(len(items))]

    def run(self, item, ctx):
        kind, args = item
        if kind == "verify":
            name, op_seed = args
            rep = SM.verify_stratified(self.maps[name], STRAT_SAMPLES,
                                       np.random.default_rng(op_seed))
            check(rep["boundary_max_mismatch"] <= BOUNDARY_MAX, f"{name}: boundary")
            check(rep["roundtrip_max"] <= ROUNDTRIP_MAX, f"{name}: roundtrip")
            check(rep["support_violations"] == 0, f"{name}: support violations")
            jac = rep["jacobian_min_abs_det"]
            check(jac is None or jac >= JACOBIAN_MIN, f"{name}: jacobian")
            return
        phi, axis, strips, taus, levels = args
        image = G.map_path(phi, axis)
        crossings = []
        for i, strip in enumerate(strips):
            ps = [p for p in G.punctures(image, strip) if p.is_puncture]
            xs = sorted(float(p.point[0]) for p in ps)
            want = [taus[j] for j in range(len(taus)) if levels[j] == i]
            check(len(xs) == len(want)
                  and all(abs(x - t) <= 1e-9 for x, t in zip(xs, want)),
                  f"winding: punctures {xs} != {want}")
            check(G.completely_transversal(image, strip), "winding: not transversal")
            crossings.extend(ps)
        crossings.sort(key=lambda p: float(p.point[0]))
        signs = [p.sign_out for p in crossings]
        check(all(s == signs[0] * (-1) ** j for j, s in enumerate(signs)),
              f"winding: signs {signs} do not alternate")


# ---------------------------------------------------------------------------
# scene-fresh
# ---------------------------------------------------------------------------

SCENES_PER_PASS = 24


def _collinear(a, b, c):
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return cross == (0, 0, 0)


def _scene_doc(rng):
    """One scene in quarter units: paths monotone in x (hence injective) and
    triangles in disjoint x-slabs (hence disjoint), so the scene is valid."""
    n_tri = int(rng.integers(2, 5))
    simplices, normals, open_faces = [], [], []
    for j in range(n_tri):
        lo, hi = 12 * j, 12 * j + 8
        axis = int(rng.integers(3))
        while True:
            pts = []
            c = int(rng.integers(lo, hi + 1)) if axis == 0 else int(rng.integers(-8, 9))
            for _ in range(3):
                p = [int(rng.integers(lo, hi + 1)), int(rng.integers(-12, 13)),
                     int(rng.integers(-12, 13))]
                p[axis] = c
                pts.append(tuple(p))
            if not _collinear(*pts):
                break
        normal = [0.0, 0.0, 0.0]
        normal[axis] = 1.0 if rng.integers(2) else -1.0
        simplices.append([[v / 4 for v in p] for p in pts])
        normals.append(normal)
        open_faces.append([i for i in range(3) if rng.integers(4) == 0])
    span = 12 * n_tri
    paths = []
    for pid in range(int(rng.integers(2, 5))):
        n_v = int(rng.integers(2, 7))
        while True:
            xs = np.sort(rng.choice(np.arange(-4, span + 4), size=n_v, replace=False))
            verts = [(int(x), int(rng.integers(-12, 13)), int(rng.integers(-12, 13))) for x in xs]
            if not any(_collinear(*verts[i:i + 3]) for i in range(n_v - 2)):
                break
        paths.append({"id": f"g{pid}", "vertices": [[v / 4 for v in p] for p in verts]})
    rule = ("natural", "topological", "inverse")[int(rng.integers(3))]
    surface = {"id": "S", "simplices": simplices, "normals": normals, "rule": rule,
               "open_faces": open_faces}
    return {"schema": 1, "dimension": 3, "paths": paths, "surfaces": [surface]}


def _expected_breaks(gamma, surface):
    """The decomposition suite's oracle: breakpoints from direct
    segment/simplex events and midpoint membership."""
    events = set()
    for i, (a, b) in enumerate(zip(gamma.vertices, gamma.vertices[1:])):
        for piece in surface.pieces:
            for _kind, lo, hi in G._segment_simplex_events(a, b, piece):
                events.add((i, lo))
                events.add((i, hi))
        events.add((i, Fraction(0)))
        events.add((i, Fraction(1)))
    merged = [(seg, s) for seg, s in sorted(events)
              if not (s == 1 and (seg + 1, Fraction(0)) in events)]

    def member(seg, s):
        return surface.contains(G._lerp(gamma.vertices[seg], gamma.vertices[seg + 1], s))

    statuses = [member(i0, (s0 + s1) / 2 if i0 == i1 else (s0 + 1) / 2)
                for (i0, s0), (i1, s1) in zip(merged, merged[1:])]
    return sum(1 for k in range(1, len(merged) - 1)
               if statuses[k - 1] != statuses[k] or member(*merged[k]) != statuses[k - 1])


class SceneFresh(Workload):
    """Exact geometry on scenes that never recur, read from and written to JSON."""

    name = "scene-fresh"

    def _items(self, rng, warmup):
        return [json.dumps(_scene_doc(rng)) for _ in range(2 if warmup else SCENES_PER_PASS)]

    def run(self, text, ctx):
        doc = json.loads(text)
        ctx.count("scene.bytes_read", len(text))
        dim, paths, surfaces = SC.scene_from_json(doc)
        surface = surfaces["S"]
        for pid, gamma in paths.items():
            dec = G.decompose_minimal(gamma, surface)
            chain = dec.pieces[0].path
            for piece in dec.pieces[1:]:
                chain = chain.concat(piece.path)
            check(chain.same_geometry(gamma), f"{pid}: pieces do not rebuild the path")
            want = _expected_breaks(gamma, surface)
            check(len(dec.pieces) - 1 == want,
                  f"{pid}: {len(dec.pieces) - 1} breakpoints, oracle {want}")
            for p in G.punctures(gamma, surface):
                check(surface.contains(p.point), f"{pid}: puncture off the surface")
            s_out = G.sigma_eval(surface, gamma, "outgoing")
            s_in = G.sigma_eval(surface, gamma.reversed(), "incoming")
            check(s_out + s_in == 0, f"{pid}: sigma compatibility")
        ids = list(paths)
        graph, words = G.build_graph([paths[p] for p in ids])
        for pid, word in zip(ids, words):
            verts = None
            for eid, sign in word:
                ev = graph.edges[eid].vertices
                ev = ev if sign == 1 else tuple(reversed(ev))
                verts = ev if verts is None else verts + ev[1:]
            check(G.PolyPath(verts, validate=False).same_geometry(paths[pid]),
                  f"{pid}: graph word does not rebuild the path")
        out = SC.scene_to_json(dim, paths, surfaces)
        written = json.dumps(out)
        ctx.count("scene.bytes_written", len(written))
        check(out == doc, "scene does not survive the JSON round trip")


# ---------------------------------------------------------------------------
# mc-oracle
# ---------------------------------------------------------------------------

HAAR_BATCH = 100_000
# (kind, parameter) -> ops per pass.  Four brute-force J = 4 winding averages
# (about 0.6 s each) per pass keep eleven or more of them in a run even when
# only three passes fit, so they set the tail.  The four inner_product_mc ops
# at 1000 samples are ranks 7-10 of the 15 latencies of a pass, so the median
# falls inside their cluster.
MC_PASS = (
    (("winding", 4), 4),
    (("winding", 2), 1),
    (("mc_inner", 2000), 1),
    (("mc_inner", 1000), 4),
    (("haar", HAAR_BATCH), 1),
    (("tensor", 2), 1),
    (("tensor", 4), 1),
    (("tensor", 6), 1),
    (("opprod", 300), 1),
)
OPPROD_FACTORS = 4


class McOracle(Workload):
    """Monte Carlo and brute-force oracles: per-sample Python and numpy paths."""

    name = "mc-oracle"

    def __init__(self):
        self.basis = L.su2_basis()

    def _mc_pair(self, rng):
        """A spin network on two edges (spin 1/2, spin 1) and a superposition
        of it with a second labelling: the same evaluation cost for every seed."""
        graph = G.Graph.from_paths([G.PolyPath([(i, 0, 0), (i + 1, 0, 0)]) for i in range(2)])

        def labels():
            return {e: (rho.key(), int(rng.integers(rho.dim)), int(rng.integers(rho.dim)))
                    for e, rho in zip(("e0", "e1"), (HALF, ONE))}

        first = labels()
        f1 = C.gsn(graph, "su2", first)
        f2 = C.cylfun(graph, "su2", [(complex(*rng.normal(size=2)), first),
                                     (complex(*rng.normal(size=2)), labels())])
        return f1, f2

    def _item(self, rng, kind, param):
        if kind == "mc_inner":
            return kind, (param, *self._mc_pair(rng), _op_seed(rng))
        if kind == "winding":
            return kind, (param, float(rng.uniform(0.05, 0.3)))
        if kind == "opprod":
            return kind, (param, OPPROD_FACTORS, _op_seed(rng))
        return kind, (param, _op_seed(rng))

    def _items(self, rng, warmup):
        if warmup:  # one small op of each kind
            small = {"winding": 2, "mc_inner": 1000, "haar": 1000, "tensor": 2, "opprod": 20}
            return [self._item(rng, kind, param) for kind, param in small.items()]
        items = [self._item(rng, *kind) for kind, count in MC_PASS for _ in range(count)]
        return [items[i] for i in rng.permutation(len(items))]

    def run(self, item, ctx):
        kind, args = item
        if kind == "mc_inner":
            n, f1, f2, op_seed = args
            est, se = C.inner_product_mc(f1, f2, n, np.random.default_rng(op_seed))
            exact = C.inner_product_exact(f1, f2)
            check(abs(est - exact) <= MC_Z * se + EXACT,
                  f"mc inner product off by {abs(est - exact) / max(se, 1e-300):.1f} se")
        elif kind == "haar":
            n, op_seed = args
            self._haar_batch(n, np.random.default_rng(op_seed))
        elif kind == "winding":
            j, t = args
            rep = E.winding_average_check(HALF, self.basis, j, t)
            check(rep["max_identity_deviation"] <= EXACT, "winding identity")
            check(rep["sup_norm_margin"] >= 0.0, "winding sup-norm bound")
        elif kind == "tensor":
            j, op_seed = args
            gap = E.casimir_gap_check(HALF, self.basis, 0.5, [0.2, 0.1, 0.05, 0.025])
            check(gap["d1"] <= 1e-8 and gap["d3"] <= 1e-5, "casimir gap derivatives")
            rep = E.tensor_casimir_check(HALF, self.basis, j, 0.5, [0.05, 0.1, 0.2], 60,
                                         np.random.default_rng(op_seed), eta_hat=gap["eta_hat"])
            check(rep["violations"] == 0, f"tensor casimir J={j}: {rep['violations']} violations")
        else:
            draws, n_factors, op_seed = args
            rep = E.opprod_bound_check(n_factors, np.random.default_rng(op_seed), draws=draws)
            check(rep["violations"] == 0, f"opprod: {rep['violations']} violations")

    def _haar_batch(self, n, rng):
        """Schur orthogonality against Haar Monte Carlo, vectorised in numpy."""
        mats = L.haar_sample_matrices(rng, "su2", n)
        for rho in (HALF, ONE):
            d = rho.dim
            vals = SU._spin_entries_batch(mats, rho).reshape(n, d * d)
            mean = vals.conj().T @ vals / n  # mean[a, b] = E[conj(v_a) v_b]
            abs2 = np.abs(vals) ** 2
            second = abs2.T @ abs2 / n
            se = np.sqrt(np.maximum(second - np.abs(mean) ** 2, 0.0) / n)
            exact = np.array([[L.schur_inner(rho, divmod(a, d), rho, divmod(b, d))
                               for b in range(d * d)] for a in range(d * d)])
            z = float(np.max(np.abs(mean - exact) / (se + EXACT)))
            check(z <= MC_Z, f"haar {rho.key()}: schur vs mc at {z:.1f} se")


WORKLOADS = {w.name: w for w in (WeylOps, StratCertify, SceneFresh, McOracle)}

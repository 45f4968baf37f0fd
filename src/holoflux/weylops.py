"""Weyl operators on cylindrical functions, and the symmetry actions.

A Weyl operator is the pull-back of the flux action: on an external edge
carrying the factor sqrt(d) rho^m_n, it inserts the left multiplier
rho(d(start)^sigma_out) and the right multiplier rho(d(end)^sigma_in).  Each
original edge gets one rule: its split into the pieces of its minimal
decomposition, followed by the multipliers of its external pieces, merged per
factor.  One rewrite of the monomial sum applies these rules, expanded
symbolically, so every operator identity below is an exact-arithmetic
statement.  Orientation reversal of the surface gives the adjoint
(equivalently, inverse labels).  Graphomorphisms act by relabeling the
underlying graph; gauge transforms insert vertex factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connections import (
    DomainError,
    RestrictedConnection,
    SurfaceLabel,
    constant_label,
    quasi_flux,
)
from .cylindrical import CylFun, _chain_rule, _multiplier_rule, _refinement, _rewrite_edges, _then
from .geometry import (
    AffineMap,
    Graph,
    OrientedSurface,
    PolyPath,
    _map_point,
    map_path,
    map_surface,
    sigma_pair,
)
from .liegroup import GroupElement, exp_alg, identity

__all__ = [
    "WeylDescriptor",
    "weyl_constant",
    "weyl_one_param",
    "apply_weyl",
    "adjoint_weyl",
    "compose_check",
    "Graphomorphism",
    "apply_graphomorphism",
    "map_weyl_descriptor",
    "GaugeTransform",
    "apply_gauge",
    "conjugate_label_by_gauge",
    "operator_distance",
]


@dataclass(frozen=True)
class WeylDescriptor:
    """(surface, intersection-rule choice, labels) describing one Weyl operator."""

    surface: OrientedSurface
    label: SurfaceLabel
    rule: str = "natural"  # 'natural' | 'inverse'

    def __post_init__(self):
        if self.rule not in ("natural", "inverse"):
            raise DomainError(f"unknown rule {self.rule!r}")
        if self.label.surface is not self.surface:
            object.__setattr__(
                self,
                "label",
                SurfaceLabel(
                    self.surface,
                    self.label.group,
                    per_stratum=self.label.per_stratum,
                    point_fn=self.label.point_fn,
                ),
            )

    @property
    def group(self) -> str:
        return self.label.group

    def effective_surface(self) -> OrientedSurface:
        return self.surface.inverse() if self.rule == "inverse" else self.surface


def weyl_constant(surface: OrientedSurface, g: GroupElement,
                  rule: str = "natural") -> WeylDescriptor:
    return WeylDescriptor(surface, constant_label(surface, g), rule)


def weyl_one_param(surface: OrientedSurface, generator: np.ndarray, t: float,
                   rule: str = "natural") -> WeylDescriptor:
    """One-parameter family W_t with constant label e^{t X}; group law in t."""
    return weyl_constant(surface, exp_alg(generator, t), rule)


def apply_weyl(w: WeylDescriptor, f: CylFun) -> CylFun:
    """Apply the Weyl operator: (W f)(A) = f(flux-translated A), exactly.

    The function's graph is refined internally so each edge is internal or
    external; external-edge factors pick up the boundary multipliers.  An
    edge's split and the multipliers of its pieces form one rule.
    """
    surface = w.effective_surface()
    graph, status, subs = _refinement(f, surface)
    mult = {}
    for eid, path in graph.edges.items():
        if status[eid] == "internal":
            continue
        sig_out, sig_in = sigma_pair(surface, path)
        if (sig_out, sig_in) != (0, 0):
            mult[eid] = _multiplier_rule(eid, _rep_of(w.label.at(path.start).power(sig_out)),
                                         _rep_of(w.label.at(path.end).power(sig_in)))
    rules = {eid: mult[eid] for eid in f.graph.edges if eid in mult}
    for eid, sub in subs.items():
        rules[eid] = _then(_chain_rule(sub), {sid: mult[sid] for sid in sub if sid in mult})
    return CylFun._made(graph, f.group, _rewrite_edges(f.terms, rules))


def _rep_of(g: GroupElement):
    """The multiplier side rho -> rho(g)."""
    return lambda rho: rho.evaluate(g)


def apply_weyl_connection(w: WeylDescriptor, conn: RestrictedConnection) -> RestrictedConnection:
    """The underlying flux action on a (pre-refined) connection."""
    return quasi_flux(conn, w.effective_surface(), w.label)


def adjoint_weyl(w: WeylDescriptor) -> WeylDescriptor:
    """Orientation reversal = inverse labels = operator adjoint/inverse."""
    rule = "inverse" if w.rule == "natural" else "natural"
    return WeylDescriptor(w.surface, w.label, rule)


def operator_distance(w1_of, w2_of, test_functions) -> float:
    """max L2 distance of two operators over sample functions."""
    from .cylindrical import norm_l2

    worst = 0.0
    for f in test_functions:
        a = w1_of(f)
        b = w2_of(f)
        if set(a.graph.edges) != set(b.graph.edges):
            from .cylindrical import align_to_common

            a, b = align_to_common(a, b)
        worst = max(worst, norm_l2(a - b))
    return worst


def compose_check(w1: WeylDescriptor, w2: WeylDescriptor, test_functions) -> dict:
    """Verify composition laws on samples; returns measured deviations.

    Same surface and commuting labels: W_{d1} W_{d2} = W_{d1 d2}.
    Disjoint surfaces: the operators commute.
    """
    report = {}
    same_surface = w1.surface is w2.surface and w1.rule == w2.rule
    if same_surface and w1.label.per_stratum and w2.label.per_stratum:
        commute = max(
            (w1.label.per_stratum[p] @ w2.label.per_stratum[p]).dist(
                w2.label.per_stratum[p] @ w1.label.per_stratum[p]
            )
            for p in w1.surface.piece_ids
        )
        report["labels_commute"] = commute
        if commute <= 1e-12:
            product = SurfaceLabel(
                w1.surface,
                w1.group,
                per_stratum={
                    p: w1.label.per_stratum[p] @ w2.label.per_stratum[p]
                    for p in w1.surface.piece_ids
                },
            )
            w12 = WeylDescriptor(w1.surface, product, w1.rule)
            report["product_law"] = operator_distance(
                lambda f: apply_weyl(w1, apply_weyl(w2, f)),
                lambda f: apply_weyl(w12, f),
                test_functions,
            )
    else:
        report["commutator"] = operator_distance(
            lambda f: apply_weyl(w1, apply_weyl(w2, f)),
            lambda f: apply_weyl(w2, apply_weyl(w1, f)),
            test_functions,
        )
    return report


# ---------------------------------------------------------------------------
# Graphomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graphomorphism:
    """An invertible map on the base space inducing a path-groupoid map.

    Backed either by an exact affine map or by a stratified map from the
    constructor families (with explicit inverse).
    """

    affine: AffineMap = None
    strat: object = None  # stratmaps.StratMap

    def __post_init__(self):
        if (self.affine is None) == (self.strat is None):
            raise DomainError("exactly one backing map required")

    @property
    def _mapping(self):
        """The backing map, affine or stratified."""
        return self.affine if self.affine is not None else self.strat

    def on_path(self, path: PolyPath) -> PolyPath:
        return map_path(self._mapping, path)

    def on_surface(self, surface: OrientedSurface) -> OrientedSurface:
        return map_surface(self._mapping, surface)

    def on_point(self, point):
        return _map_point(self._mapping, point)

    def inverse(self) -> "Graphomorphism":
        if self.affine is not None:
            return Graphomorphism(affine=self.affine.inverse())
        return Graphomorphism(strat=self.strat.inverted())


def apply_graphomorphism(phi: Graphomorphism, f: CylFun) -> CylFun:
    """Move a cylindrical function to the transported graph.

    The monomial structure is untouched: evaluating the result at A equals
    evaluating f at the pulled-back connection, and inner products between
    functions moved by the same map are preserved exactly.
    """
    new_edges = {eid: phi.on_path(p) for eid, p in f.graph.edges.items()}
    new_graph = Graph(new_edges, validate=False)
    return CylFun._made(new_graph, f.group, f.terms)


def map_weyl_descriptor(phi: Graphomorphism, w: WeylDescriptor) -> WeylDescriptor:
    """Transport of a Weyl operator: surface, orientation data, and labels."""
    new_surface = phi.on_surface(w.surface)
    per = None
    if w.label.per_stratum is not None:
        per = dict(w.label.per_stratum)  # stratum ids carry over 1:1
    fn = None
    if w.label.point_fn is not None:
        inv = phi.inverse()
        orig = w.label.point_fn
        fn = lambda p: orig(inv.on_point(p))
    label = SurfaceLabel(new_surface, w.group, per_stratum=per, point_fn=fn)
    return WeylDescriptor(new_surface, label, w.rule)


# ---------------------------------------------------------------------------
# Gauge transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeTransform:
    """Finite-support map point -> group element, identity by default."""

    group: str
    values: dict = field(default_factory=dict)  # exact point tuple -> GroupElement

    def at(self, point) -> GroupElement:
        g = self.values.get(tuple(point))
        return identity(self.group) if g is None else g

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(
            self.group, {p: g.inverse() for p, g in self.values.items()}
        )


def apply_gauge(gt: GaugeTransform, f: CylFun) -> CylFun:
    """Insert rho(g(start)^-1) on the left and rho(g(end)) on the right of
    every edge factor; unitary for the exact inner product."""
    rules = {}
    for eid, path in f.graph.edges.items():
        gl, gr = gt.at(path.start), gt.at(path.end)
        if not (gl.is_identity() and gr.is_identity()):
            rules[eid] = _multiplier_rule(eid, _rep_of(gl.inverse()), _rep_of(gr))
    return CylFun._made(f.graph, f.group, _rewrite_edges(f.terms, rules))


def conjugate_label_by_gauge(gt: GaugeTransform, w: WeylDescriptor) -> WeylDescriptor:
    """Pointwise conjugated labels g d g^-1 (the gauge-transported operator)."""
    label = w.label

    def fn(point):
        g = gt.at(point)
        return g @ label.at(point) @ g.inverse()

    return WeylDescriptor(
        w.surface, SurfaceLabel(w.surface, w.group, point_fn=fn), w.rule
    )

"""Connections restricted to graphs, germ extension, and the flux action.

A restricted connection assigns one group element per graph edge; holonomy
extends the assignment multiplicatively to edge-words.  Germs (maps on the
internal/external sub-paths of a surface satisfying inversion and
decomposition laws) extend uniquely to any edge through the minimal
admissible decomposition.  The flux action translates external-edge
holonomies by boundary factors d(start)^sigma_out ... d(end)^sigma_in and is
inverted by the inverse labels; its pull-back is implemented in weylops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .geometry import (
    DomainError,
    Graph,
    OrientedSurface,
    PolyPath,
    decompose_minimal,
    sigma_eval,
)
from .liegroup import GroupElement, haar_sample, identity

__all__ = [
    "DomainError",
    "RestrictedConnection",
    "random_connection",
    "holonomy",
    "SurfaceLabel",
    "constant_label",
    "Germ",
    "flux_germ",
    "germ_extend",
    "AdmissibleMap",
    "flux_admissible_map",
    "admissible_to_map",
    "quasi_flux",
    "edge_status",
]


@dataclass(frozen=True)
class RestrictedConnection:
    """One group element per edge of a fixed graph."""

    graph: Graph
    group: str
    assignment: dict  # edge_id -> GroupElement

    def __post_init__(self):
        missing = set(self.graph.edges) - set(self.assignment)
        extra = set(self.assignment) - set(self.graph.edges)
        if missing or extra:
            raise DomainError("assignment must cover exactly the graph edges")
        for g in self.assignment.values():
            if g.group != self.group:
                raise DomainError("assignment group mismatch")

    def __call__(self, edge_id: str) -> GroupElement:
        return self.assignment[edge_id]

    def replace(self, updates: dict) -> "RestrictedConnection":
        new = dict(self.assignment)
        new.update(updates)
        return RestrictedConnection(self.graph, self.group, new)


def random_connection(graph: Graph, group: str, rng: np.random.Generator) -> RestrictedConnection:
    return RestrictedConnection(
        graph, group, {eid: haar_sample(rng, group) for eid in graph.edges}
    )


def _match_word(graph: Graph, path: PolyPath):
    """Express a path as a word over graph edges by walking its polyline."""
    remaining = list(path.vertices)
    word = []
    guard = 0
    while len(remaining) > 1:
        guard += 1
        if guard > 10 * len(graph.edges) + 100:
            raise DomainError("path is not expressible over the graph")
        matched = False
        for eid, edge in graph.edges.items():
            for sign, verts in ((1, edge.vertices), (-1, tuple(reversed(edge.vertices)))):
                L = len(verts)
                if len(remaining) >= L and tuple(remaining[:L]) == verts:
                    word.append((eid, sign))
                    remaining = remaining[L - 1 :]
                    matched = True
                    break
            if matched:
                break
        if not matched:
            raise DomainError("path is not expressible over the graph")
    return word


def holonomy(conn: RestrictedConnection, path) -> GroupElement:
    """Holonomy along a path or an explicit edge-word.

    Paths are matched geometrically against the graph; words are sequences of
    (edge_id, +-1), which also covers retracings like e . e^-1 (not an edge,
    hence not a PolyPath).  Inversion acts as h(gamma^-1) = h(gamma)^-1 and
    composition multiplies.
    """
    if isinstance(path, PolyPath):
        word = _match_word(conn.graph, path)
    else:
        word = list(path)
    out = identity(conn.group)
    for eid, sign in word:
        if eid not in conn.graph.edges:
            raise DomainError(f"unknown edge {eid!r}")
        g = conn(eid)
        out = out @ (g if sign == 1 else g.inverse())
    return out


# ---------------------------------------------------------------------------
# Surface labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceLabel:
    """Group labels on a surface: constant per stratum, or a point function."""

    surface: OrientedSurface
    group: str
    per_stratum: dict = None          # piece_id -> GroupElement
    point_fn: Callable = None         # point -> GroupElement (overrides)

    def at(self, point) -> GroupElement:
        if self.point_fn is not None:
            return self.point_fn(point)
        pid, piece = self.surface.find_piece(point)
        g = None if pid is None or self.per_stratum is None else self.per_stratum.get(pid)
        return identity(self.group) if g is None else g

    def inverse(self) -> "SurfaceLabel":
        if self.point_fn is not None:
            fn = self.point_fn
            return SurfaceLabel(self.surface, self.group,
                                point_fn=lambda p: fn(p).inverse())
        inv = None
        if self.per_stratum is not None:
            inv = {k: v.inverse() for k, v in self.per_stratum.items()}
        return SurfaceLabel(self.surface, self.group, per_stratum=inv)


def constant_label(surface: OrientedSurface, g: GroupElement) -> SurfaceLabel:
    return SurfaceLabel(
        surface, g.group, per_stratum={pid: g for pid in surface.piece_ids}
    )


# ---------------------------------------------------------------------------
# Germs and their unique extension
# ---------------------------------------------------------------------------


def edge_status(path: PolyPath, surface: OrientedSurface) -> str:
    """'internal' or 'external' when the whole edge is one piece, else 'mixed'."""
    dec = decompose_minimal(path, surface)
    if len(dec.pieces) == 1:
        return dec.pieces[0].status
    return "mixed"


@dataclass(frozen=True)
class Germ:
    """A germ on the internal/external sub-paths of a fixed surface.

    rule(path, status) must satisfy q(gamma^-1) = q(gamma)^-1 and
    q(gamma) = q(gamma_1) q(gamma_2) for single-status decompositions;
    ``validate`` spot-checks both laws on sampled sub-paths.
    """

    surface: OrientedSurface
    group: str
    rule: Callable

    def __call__(self, path: PolyPath, status: str = None) -> GroupElement:
        if status is None:
            status = edge_status(path, self.surface)
            if status == "mixed":
                raise DomainError("germ evaluated outside its domain")
        return self.rule(path, status)

    def validate(self, paths: Iterable[PolyPath], atol: float = 1e-10):
        for p in paths:
            status = edge_status(p, self.surface)
            if status == "mixed":
                continue
            v = self(p, status)
            vi = self(p.reversed(), status)
            if v.inverse().dist(vi) > atol:
                raise DomainError("germ violates the inversion law")
            t = 0.5
            seg, s = p.locate(t)
            if 0 < s < 1:
                a, b = p.split_at(seg, s)
                prod = self(a, status) @ self(b, status)
                if prod.dist(v) > atol:
                    raise DomainError("germ violates the decomposition law")


def trivial_germ(surface: OrientedSurface, group: str) -> Germ:
    return Germ(surface, group, lambda p, status: identity(group))


def boundary_germ(surface: OrientedSurface, group: str, point_value: Callable) -> Germ:
    """Pure-boundary germ q(gamma) = c(gamma(0))^-1 c(gamma(1))."""

    def rule(p: PolyPath, status: str) -> GroupElement:
        return point_value(p.start).inverse() @ point_value(p.end)

    return Germ(surface, group, rule)


def flux_germ(label: SurfaceLabel, base: RestrictedConnection = None) -> Germ:
    """Germ realizing the flux-translated holonomies on single-status paths.

    With A a background connection, q(gamma) = d(start)^s_out h_A(gamma)
    d(end)^s_in on external paths and h_A(gamma) on internal ones.
    """
    surface = label.surface

    def rule(p: PolyPath, status: str) -> GroupElement:
        if base is None:
            h = identity(label.group)
        else:
            h = holonomy(base, p)
        if status == "internal":
            return h
        s_out = sigma_eval(surface, p, "outgoing")
        s_in = sigma_eval(surface, p, "incoming")
        return label.at(p.start).power(s_out) @ h @ label.at(p.end).power(s_in)

    return Germ(surface, label.group, rule)


def germ_extend(germ: Germ, path: PolyPath) -> GroupElement:
    """Unique extension of a germ to an arbitrary edge.

    Evaluates the product of germ values over the minimal admissible
    decomposition; any other admissible decomposition gives the same value
    (decomposition independence is what the germ laws encode).
    """
    dec = decompose_minimal(path, germ.surface)
    out = identity(germ.group)
    for piece in dec.pieces:
        out = out @ germ(piece.path, piece.status)
    return out


# ---------------------------------------------------------------------------
# Admissible maps and the flux action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleMap:
    """r on single-status sub-paths with r(d1) = r(d2) for shared initial
    segments and r(gamma_1^-1) = r(gamma_2) across decompositions."""

    surface: OrientedSurface
    group: str
    rule: Callable

    def __call__(self, path: PolyPath, status: str = None) -> GroupElement:
        if status is None:
            status = edge_status(path, self.surface)
            if status == "mixed":
                raise DomainError("admissible map evaluated outside its domain")
        return self.rule(path, status)

    def inverse(self) -> "AdmissibleMap":
        rule = self.rule
        return AdmissibleMap(
            self.surface, self.group, lambda p, st: rule(p, st).inverse()
        )

    def validate(self, paths: Iterable[PolyPath], atol: float = 1e-10):
        for p in paths:
            status = edge_status(p, self.surface)
            if status == "mixed":
                continue
            seg, s = p.locate(0.5)
            if not (0 < s < 1):
                continue
            a, b = p.split_at(seg, s)
            # initial-segment dependence: r(p) = r(a)
            if self(p, status).dist(self(a, status)) > atol:
                raise DomainError("admissible map depends on more than the start")
            # r(a^-1) = r(b)
            if self(a.reversed(), status).dist(self(b, status)) > atol:
                raise DomainError("admissible map violates the decomposition law")


def flux_admissible_map(label: SurfaceLabel) -> AdmissibleMap:
    """r(gamma) = d(gamma(0))^(-sigma_out) on external paths, identity inside."""
    surface = label.surface

    def rule(p: PolyPath, status: str) -> GroupElement:
        if status == "internal":
            return identity(label.group)
        s_out = sigma_eval(surface, p, "outgoing")
        return label.at(p.start).power(-s_out)

    return AdmissibleMap(surface, label.group, rule)


def admissible_to_map(r: AdmissibleMap, conn: RestrictedConnection) -> RestrictedConnection:
    """Transform a connection edge-wise by h -> r(gamma)^-1 h r(gamma^-1).

    Every graph edge must be internal or external for r's surface; the
    transform with r' = r^-1 inverts it.
    """
    updates = {}
    for eid, path in conn.graph.edges.items():
        status = edge_status(path, r.surface)
        if status == "mixed":
            raise DomainError(f"edge {eid!r} is neither internal nor external")
        updates[eid] = (
            r(path, status).inverse() @ conn(eid) @ r(path.reversed(), status)
        )
    return conn.replace(updates)


def quasi_flux(conn: RestrictedConnection, surface: OrientedSurface,
               label: SurfaceLabel) -> RestrictedConnection:
    """Translate external-edge holonomies by the boundary label factors.

    External edge: h -> d(start)^sigma_out h d(end)^sigma_in; internal edges
    are untouched.  The inverse action uses the inverse labels.
    """
    updates = {}
    for eid, path in conn.graph.edges.items():
        status = edge_status(path, surface)
        if status == "mixed":
            raise DomainError(
                f"edge {eid!r} must be pre-refined to a single status"
            )
        if status == "internal":
            continue
        s_out = sigma_eval(surface, path, "outgoing")
        s_in = sigma_eval(surface, path, "incoming")
        updates[eid] = (
            label.at(path.start).power(s_out)
            @ conn(eid)
            @ label.at(path.end).power(s_in)
        )
    return conn.replace(updates)

"""Cylindrical functions over graphs and gauge-variant spin network states.

A cylindrical function is a finite sum of monomials; each monomial assigns to
some edges a normalized matrix-element factor sqrt(dim rho) * rho^m_n of the
edge holonomy (absent edges carry the trivial factor 1).  Gauge-variant spin
network states (GSN) are single monomials with a nontrivial factor on every
edge; they are orthonormal for the measure whose push-forward to any graph
is product Haar, which the exact inner-product engine encodes through the
per-edge Kronecker rule.  A Monte Carlo engine over Haar-random connections
serves as the independent oracle.

Subdivision, alignment, surface refinement and the Weyl, gauge and matrix
multipliers are per-edge linear maps on a monomial sum, and one kernel,
``_rewrite_edges``, applies them all.  A rule maps one edge factor to its
weighted replacements; ``_then`` composes a chain rule with the multipliers
of the sub-edges it creates, so a Weyl operator is one rewrite of the
original edges.  ``CylFun(...)`` validates its monomials; the kernel's own
outputs, valid by construction, are built by ``CylFun._made`` unchecked.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .connections import DomainError, RestrictedConnection
from .geometry import (
    Graph,
    OrientedSurface,
    PolyPath,
    _strictly_between,
    build_graph,
    decompose_minimal,
)
from .liegroup import GroupValidationError, Irrep, haar_sample_matrices, parse_irrep

__all__ = [
    "CylFun",
    "cylfun",
    "gsn",
    "is_gsn",
    "evaluate",
    "inner_product_exact",
    "inner_product_mc",
    "norm_l2",
    "subdivide_edge",
    "refine_for_surface",
    "align_to_common",
    "orthogonality_predicate",
    "gamma_based",
]


def _normalize_factor(factor):
    if factor is None or factor == "trivial":
        return None
    if isinstance(factor, tuple) and len(factor) == 3:
        rho, m, n = factor
        key = rho.key() if isinstance(rho, Irrep) else str(rho)
        if parse_irrep(key).is_trivial:
            return None
        return (key, int(m), int(n))
    raise DomainError(f"bad edge factor {factor!r}")


def _term_key(factors: dict):
    items = [(eid, f) for eid, f in factors.items() if f is not None]
    return tuple(sorted(items))


class CylFun:
    """Finite linear combination of per-edge matrix-element monomials."""

    def __init__(self, graph: Graph, group: str, terms: dict):
        self.graph = graph
        self.group = group
        # terms: canonical monomial key -> complex coefficient (zeros dropped)
        self.terms = {k: complex(c) for k, c in terms.items() if c != 0}
        for key in self.terms:
            for eid, (rho_key, m, n) in key:
                if eid not in graph.edges:
                    raise DomainError(f"factor references unknown edge {eid!r}")
                rho = parse_irrep(rho_key)
                if rho.group != group:
                    raise DomainError("irrep group mismatch")
                if not (0 <= m < rho.dim and 0 <= n < rho.dim):
                    raise DomainError("matrix index out of range")

    @classmethod
    def _made(cls, graph: Graph, group: str, terms: dict) -> "CylFun":
        """A kernel output, valid by construction: ``__init__`` without the
        edge, irrep and index checks."""
        f = cls.__new__(cls)
        f.graph, f.group = graph, group
        f.terms = {k: complex(c) for k, c in terms.items() if c != 0}
        return f

    def monomials(self):
        return [(c, dict(key)) for key, c in self.terms.items()]

    def __add__(self, other: "CylFun") -> "CylFun":
        if other.graph is not self.graph and set(other.graph.edges) != set(self.graph.edges):
            raise DomainError("cylindrical functions live on different graphs")
        if other.group != self.group:
            raise DomainError("irrep group mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return CylFun._made(self.graph, self.group, out)

    def __sub__(self, other: "CylFun") -> "CylFun":
        return self + other.scale(-1)

    def scale(self, a: complex) -> "CylFun":
        return CylFun._made(self.graph, self.group, {k: a * c for k, c in self.terms.items()})

    def coefficient(self, factors: dict) -> complex:
        return self.terms.get(_term_key({e: _normalize_factor(f) for e, f in factors.items()}), 0j)

    @property
    def constant_part(self) -> complex:
        return self.terms.get((), 0j)

    def __repr__(self):
        return f"CylFun({len(self.terms)} monomials over {len(self.graph.edges)} edges)"


def cylfun(graph: Graph, group: str, monomials: Iterable) -> CylFun:
    """Build a cylindrical function from (coeff, {edge_id: factor}) pairs.

    Factors are (irrep, m, n) tuples (irrep as object or 'su2:1/2' style key)
    or 'trivial'/None.
    """
    terms = {}
    for coeff, factors in monomials:
        norm = {e: _normalize_factor(f) for e, f in factors.items()}
        key = _term_key(norm)
        terms[key] = terms.get(key, 0) + complex(coeff)
    return CylFun(graph, group, terms)


def gsn(graph: Graph, group: str, labels: dict) -> CylFun:
    """A gauge-variant spin network state: one nontrivial factor per edge."""
    if set(labels) != set(graph.edges):
        raise DomainError("a spin network labels every edge of its graph")
    norm = {e: _normalize_factor(f) for e, f in labels.items()}
    if any(f is None for f in norm.values()):
        raise DomainError("spin network factors must be nontrivial")
    return CylFun(graph, group, {_term_key(norm): 1.0 + 0j})


def is_gsn(f: CylFun) -> bool:
    if len(f.terms) != 1:
        return False
    (key, coeff), = f.terms.items()
    if abs(coeff - 1.0) > 1e-14:
        return False
    return {eid for eid, _ in key} == set(f.graph.edges)


# ---------------------------------------------------------------------------
# Evaluation and inner products
# ---------------------------------------------------------------------------


def evaluate(f: CylFun, conn: RestrictedConnection) -> complex:
    """Pointwise value: sum of coeff * prod sqrt(dim) rho(h_edge)^m_n."""
    if set(conn.graph.edges) != set(f.graph.edges):
        raise DomainError("connection lives on a different graph")
    columns = {eid: conn(eid).matrix[None] for eid in conn.graph.edges}
    return complex(_evaluate_columns(f, columns, 1, {})[0])


def _evaluate_columns(f: CylFun, columns: dict, count: int, entries: dict) -> np.ndarray:
    """``evaluate`` at ``count`` connections, given as (count, d, d) holonomy
    stacks per edge; ``entries`` keeps rho of each (edge, irrep) column."""
    total = np.zeros(count, dtype=complex)
    for key, coeff in f.terms.items():
        val = np.full(count, coeff)
        for eid, (rho_key, m, n) in key:
            rho = parse_irrep(rho_key)
            if (eid, rho_key) not in entries:
                entries[eid, rho_key] = rho.evaluate_many(columns[eid])
            val *= math.sqrt(rho.dim) * entries[eid, rho_key][:, m, n]
        total += val
    return total


def inner_product_exact(f1: CylFun, f2: CylFun) -> complex:
    """<f1, f2> under the product-Haar measure (conjugate-linear in f1).

    Per edge, normalized matrix elements obey the Kronecker rule
    <T^m_n, T'^m'_n'> = delta_rr' delta_mm' delta_nn', trivial-vs-nontrivial
    integrates to 0 and trivial-vs-trivial to 1; monomials therefore pair to
    1 exactly when their factor assignments coincide.
    """
    if set(f1.graph.edges) != set(f2.graph.edges):
        raise DomainError("align the graphs before taking inner products")
    total = 0j
    for key, c1 in f1.terms.items():
        c2 = f2.terms.get(key)
        if c2 is not None:
            total += np.conj(c1) * c2
    return complex(total)


def norm_l2(f: CylFun) -> float:
    return math.sqrt(max(inner_product_exact(f, f).real, 0.0))


def inner_product_mc(f1: CylFun, f2: CylFun, n_samples: int, rng: np.random.Generator):
    """Monte Carlo estimate of <f1, f2> with a standard-error estimate.

    Draws every connection in one stack, in ``random_connection``'s order,
    and evaluates each (edge, irrep) once on that edge's column of draws."""
    if n_samples < 10**3:
        raise DomainError("use at least 1000 samples")
    if set(f2.graph.edges) != set(f1.graph.edges):
        raise DomainError("connection lives on a different graph")
    if f2.group != f1.group:
        raise GroupValidationError("group tag mismatch between the two functions")
    edge_ids = list(f1.graph.edges)
    draws = haar_sample_matrices(rng, f1.group, n_samples * len(edge_ids))
    columns, entries = {eid: draws[i::len(edge_ids)] for i, eid in enumerate(edge_ids)}, {}
    vals = (np.conj(_evaluate_columns(f1, columns, n_samples, entries))
            * _evaluate_columns(f2, columns, n_samples, entries))
    mean = vals.mean()
    stderr = float(np.sqrt(np.var(vals.real) + np.var(vals.imag)) / math.sqrt(n_samples))
    return complex(mean), stderr


# ---------------------------------------------------------------------------
# Edge-wise rewriting of monomial sums
# ---------------------------------------------------------------------------


def _rewrite_edges(terms: dict, rules: dict) -> dict:
    """Apply a linear map per edge to a monomial sum, one edge at a time.

    ``rules`` maps an edge id to a rule: a function from one factor
    (irrep key, m, n) on that edge to its replacement, a list of
    (weight, {new edge id: factor}).  Edges without a rule keep their
    factors.  Each rule runs once per distinct factor, its alternatives are
    kept as sorted item tuples, and keys merge after every edge, so the work
    follows the distinct partial monomials rather than the product of the
    per-edge expansions.  A new edge id may reuse the id of an edge still to
    be rewritten, but not that of a kept edge or of another rule's output:
    that raises DomainError.
    """
    # (factors still to rewrite, key of the rewritten ones) -> coefficient;
    # keeping the two apart lets a new edge reuse the id of an old one
    state, kept = {}, set()
    for key, coeff in terms.items():
        todo = tuple(item for item in key if item[0] in rules)
        done = tuple(item for item in key if item[0] not in rules)
        kept.update(eid for eid, _fac in done)
        state[(todo, done)] = state.get((todo, done), 0) + coeff
    owner = {}  # new edge id -> the edge whose rule made it
    for eid in sorted(rules):  # the order of ``todo``: its head is the next edge
        rule, seen, nxt = rules[eid], {}, {}
        for (todo, done), coeff in state.items():
            if not todo or todo[0][0] != eid:
                nxt[(todo, done)] = nxt.get((todo, done), 0) + coeff
                continue
            fac = todo[0][1]
            alts = seen.get(fac)
            if alts is None:
                alts = seen[fac] = [(weight, tuple(sorted(new.items())))
                                    for weight, new in rule(fac)]
                for new_id in {new_id for _weight, items in alts for new_id, _f in items}:
                    if new_id in kept or owner.setdefault(new_id, eid) != eid:
                        raise DomainError(f"the rule for edge {eid!r} makes edge {new_id!r}, "
                                          "which another edge already holds")
            rest = todo[1:]
            for weight, items in alts:
                k = (rest, tuple(sorted(done + items)) if done else items)
                nxt[k] = nxt.get(k, 0) + coeff * weight
        state = nxt
    return {done: coeff for (_todo, done), coeff in state.items()}


def _then(chain, mult: dict):
    """Rule for ``chain`` followed by the rules ``mult`` on the edges it
    creates: ``_rewrite_edges`` of one factor's chain expansion, merged."""

    def rule(fac):
        terms = {}
        for weight, new in chain(fac):
            key = tuple(sorted(new.items()))
            terms[key] = terms.get(key, 0) + weight
        return [(weight, dict(key)) for key, weight in _rewrite_edges(terms, mult).items()]

    return rule


def _multiplier_rule(eid: str, left=None, right=None):
    """Rule for sqrt(d) rho^m_n(h) -> sqrt(d) rho^m_n(L h R) on one edge, that is
    sum_rs rho(L)^m_r rho(R)^s_n sqrt(d) rho^r_s(h).

    ``left`` and ``right`` map an Irrep to its matrix, None standing for the
    identity; each runs once per irrep, and a matrix that is not
    dim x dim for it raises DomainError.
    """
    mats = {}

    def rule(fac):
        rho_key, m, n = fac
        if rho_key not in mats:
            rho = parse_irrep(rho_key)
            mats[rho_key] = [None if side is None else np.asarray(side(rho))
                             for side in (left, right)]
            if any(mat is not None and mat.shape != (rho.dim, rho.dim)
                   for mat in mats[rho_key]):
                raise DomainError(f"multiplier is not {rho.dim}x{rho.dim} for {rho_key!r}")
        lm, rm = mats[rho_key]
        rows = [(m, 1.0)] if lm is None else list(enumerate(lm[m, :]))
        cols = [(n, 1.0)] if rm is None else list(enumerate(rm[:, n]))
        out = [(wl * wr, {eid: (rho_key, r, s)}) for r, wl in rows for s, wr in cols]
        return [(weight, new) for weight, new in out if weight != 0]

    return rule


def _chain_rule(sub_ids):
    """Rule for an edge that becomes the forward chain ``sub_ids``: a factor
    sqrt(d) rho^m_n becomes d^-(k-1)/2 sum over k-1 inner indices of the
    product of sqrt(d) rho factors along the k sub-edges."""
    k = len(sub_ids)

    def rule(fac):
        rho_key, m, n = fac
        dim = parse_irrep(rho_key).dim
        weight = 1.0 / math.sqrt(dim) ** (k - 1)
        out = []
        for inner in itertools.product(range(dim), repeat=k - 1):
            seq = (m,) + inner + (n,)
            out.append((weight, {sid: (rho_key, a, b)
                                 for sid, a, b in zip(sub_ids, seq, seq[1:])}))
        return out

    return rule


# ---------------------------------------------------------------------------
# Subdivision
# ---------------------------------------------------------------------------


def subdivide_edge(f: CylFun, eid: str, t: float) -> CylFun:
    """Split one edge at parameter t and re-express the function there.

    A factor sqrt(d) rho^m_n on the edge becomes
    (1/sqrt d) sum_r (sqrt d rho^m_r) x (sqrt d rho^r_n) on the two halves,
    so evaluation is unchanged on consistently extended connections.
    """
    if not (0.0 < t < 1.0):
        raise DomainError("breakpoint must be interior")
    new_graph, ids = f.graph.split_edge(eid, t)
    return CylFun._made(new_graph, f.group, _rewrite_edges(f.terms, {eid: _chain_rule(ids)}))


def refine_for_surface(f: CylFun, surface: OrientedSurface) -> CylFun:
    """Split each edge into the pieces of its minimal decomposition, so that
    every edge is internal or external for the surface."""
    graph, _status, subs = _refinement(f, surface)
    if not subs:
        return f
    rules = {eid: _chain_rule(sub) for eid, sub in subs.items()}
    return CylFun._made(graph, f.group, _rewrite_edges(f.terms, rules))


def _refinement(f: CylFun, surface: OrientedSurface):
    """The plan of ``refine_for_surface``, from one decomposition per edge:
    the refined graph, the status ('internal' or 'external') of each of its
    edges, and the sub-edge ids of each split edge of ``f``, in chain order."""
    decs = {eid: decompose_minimal(path, surface).pieces for eid, path in f.graph.edges.items()}
    status = {eid: ps[0].status for eid, ps in decs.items() if len(ps) == 1}
    split = {eid: ps for eid, ps in decs.items() if len(ps) > 1}
    if not split:
        return f.graph, status, {}
    graph, ids = f.graph.split_edges({eid: [p.path for p in ps] for eid, ps in split.items()})
    for eid, sub in ids.items():
        status.update(zip(sub, (p.status for p in split[eid])))
    return graph, status, ids


# ---------------------------------------------------------------------------
# Graph alignment
# ---------------------------------------------------------------------------


def _refine_onto(f: CylFun, ref_graph: Graph, word_for_edge: dict) -> CylFun:
    """Re-express f on a refinement where each edge maps to a forward chain."""
    used = {eid for key in f.terms for eid, _fac in key}
    if any(sign != 1 for eid in used for _sub, sign in word_for_edge[eid]):
        raise DomainError("refinement reversed an edge chain")
    rules = {eid: _chain_rule([sub for sub, _sign in word])
             for eid, word in word_for_edge.items()}
    return CylFun._made(ref_graph, f.group, _rewrite_edges(f.terms, rules))


def align_to_common(f1: CylFun, f2: CylFun):
    """Re-express both functions on the common refinement of their graphs."""
    ids1 = list(f1.graph.edges)
    ids2 = list(f2.graph.edges)
    paths = [f1.graph.edges[e] for e in ids1] + [f2.graph.edges[e] for e in ids2]
    ref_graph, words = build_graph(paths)
    w1 = {eid: words[i] for i, eid in enumerate(ids1)}
    w2 = {eid: words[len(ids1) + i] for i, eid in enumerate(ids2)}
    return _refine_onto(f1, ref_graph, w1), _refine_onto(f2, ref_graph, w2)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def _single_key(f: CylFun):
    if len(f.terms) != 1:
        raise DomainError("predicate applies to spin network states")
    return next(iter(f.terms))


def orthogonality_predicate(t1: CylFun, t2: CylFun) -> bool:
    """Sufficient geometric/index condition for <t1, t2> = 0.

    True when (1) the graph images differ as point sets, (2) some common
    sub-segment carries different irreps, (3) one state has a two-valent
    vertex with non-matching indices at a point interior to the other's
    edge, or (4) both have a two-valent vertex there and the incoming or
    outgoing indices disagree.  Sound: True implies exact orthogonality.
    Orientation-reversed coverings are treated as distinct and excluded.
    """
    key1, key2 = _single_key(t1), _single_key(t2)
    ids1, ids2 = list(t1.graph.edges), list(t2.graph.edges)
    paths = [t1.graph.edges[e] for e in ids1] + [t2.graph.edges[e] for e in ids2]
    ref_graph, words = build_graph(paths)
    cover1 = {}
    cover2 = {}
    for i, eid in enumerate(ids1):
        for sub, sign in words[i]:
            cover1[sub] = (eid, sign)
    for i, eid in enumerate(ids2):
        for sub, sign in words[len(ids1) + i]:
            cover2[sub] = (eid, sign)
    if set(cover1) != set(cover2):
        return True  # images differ
    fac1, fac2 = dict(key1), dict(key2)
    aligned = all(cover1[s][1] == cover2[s][1] for s in cover1)
    for sub in cover1:
        r1 = fac1[cover1[sub][0]][0]
        r2 = fac2[cover2[sub][0]][0]
        if r1 != r2:
            return True  # mismatched irreps over a shared segment
    if not aligned:
        return False  # orientation-flipped duplicates: no structural claim

    def vertex_indices(graph, fac):
        """original vertex -> list of ('in', rho, n) / ('out', rho, m)."""
        out = {}
        for eid, path in graph.edges.items():
            rho_key, m, n = fac[eid]
            out.setdefault(path.start, []).append(("out", rho_key, m))
            out.setdefault(path.end, []).append(("in", rho_key, n))
        return out

    vi1 = vertex_indices(t1.graph, fac1)
    vi2 = vertex_indices(t2.graph, fac2)

    def two_valent(entry):
        if len(entry) != 2:
            return None
        kinds = {e[0] for e in entry}
        if kinds != {"in", "out"}:
            return None
        inc = next(e for e in entry if e[0] == "in")
        outg = next(e for e in entry if e[0] == "out")
        return inc, outg

    # case 3, both directions: a non-matching two-valent vertex of one state
    # sitting at a pass-through (non-vertex) point of the other
    for via, vib in ((vi1, vi2), (vi2, vi1)):
        for v, entry in via.items():
            tv = two_valent(entry)
            if tv is None:
                continue
            inc, outg = tv
            if inc[1:] != outg[1:] and v not in vib:
                return True
    # case 4: two-valent for both, conflicting incoming or outgoing indices
    for v, entry in vi1.items():
        tv1 = two_valent(entry)
        if tv1 is None or v not in vi2:
            continue
        tv2 = two_valent(vi2[v])
        if tv2 is None:
            continue
        inc1, out1 = tv1
        inc2, out2 = tv2
        if inc1[1:] != inc2[1:] or out1[1:] != out2[1:]:
            return True
    return False


def _cycle_segments(path: PolyPath) -> set:
    """Unordered oriented segments of a closed polyline, merged across the
    base point when it is collinear."""
    verts = path.vertices[:-1]
    n = len(verts)
    keep = [b for i, b in enumerate(verts)
            if not _strictly_between(verts[i - 1], b, verts[(i + 1) % n])]
    return set(zip(keep, keep[1:] + keep[:1]))


def gamma_based(t: CylFun, gamma: PolyPath, rho: Irrep) -> bool:
    """True iff the state's edges concatenate (forward) to gamma, all carry
    rho, and all two-valent indices match; closed paths admit any cyclic
    rotation with the wrap-around index matched as well."""
    key = _single_key(t)
    fac = dict(key)
    if set(fac) != set(t.graph.edges):
        return False
    if any(f[0] != rho.key() for f in fac.values()):
        return False
    # Walk the chain: an open gamma from the edge that starts where gamma
    # starts, a closed one from any edge, since every rotation of a cycle
    # carries the same index constraints.
    rest = dict(t.graph.edges)
    first = next((eid for eid, p in rest.items()
                  if gamma.is_closed or p.start == gamma.start), None)
    if first is None:
        return False
    order = [first]
    chain = rest.pop(first)
    while rest:
        nxt = next((eid for eid, p in rest.items() if p.start == chain.end), None)
        if nxt is None:
            return False
        order.append(nxt)
        chain = chain.concat(rest.pop(nxt))
    if gamma.is_closed:
        if not (chain.is_closed and _cycle_segments(chain) == _cycle_segments(gamma)):
            return False
        order.append(order[0])  # the wrap-around index
    elif not chain.same_geometry(gamma):
        return False
    return all(fac[a][2] == fac[b][1] for a, b in zip(order, order[1:]))

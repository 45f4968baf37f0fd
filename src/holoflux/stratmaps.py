"""Explicit constructors for localized stratified diffeomorphisms of R^n.

Each constructor returns a :class:`StratMap`: a piece list of (name,
closed-form forward map) and the matching inverse pieces, one vectorized
mask of the pieces' closed regions per side, the support region outside
which the map is exactly the identity, and enough metadata to pre-split PL
paths at the piece boundaries.  The families implemented:

* ``radial_piece`` -- x -> (a + b/p)(x) x with inverse (1/a)(1 - b/p)(x) x
  for homogeneous p and ray-constant a, b (half-ray preserving).
* ``interp_two_surfaces`` -- the two-sided interpolation moving one star
  body boundary onto a scaled copy of another while fixing an outer shell.
* ``scaling_map`` -- lambda * id on a star body, identity outside a
  (1+eps)-inflated shell, stitched by the interpolation above.
* ``rotation_map`` -- e^{a(|x|) X} x with a ramping from 1 inside r2 to 0
  outside r1; norm preserving, identity on ker X.
* ``bump_map`` -- the box-local shear that lifts a segment of the x-axis to
  a trapezoidal polyline, three columns x three rows x a cosine falloff in
  the transverse directions (9 planar pieces, 18 for n >= 4, 27 connected
  components at n = 3; n = 2 is the degenerate no-transverse case).
* ``winding_map`` -- a composition of transverse-coordinate tents and
  y-bumps steering prescribed parameters of the x-axis through prescribed
  surface strips with alternating signs.

Break loci are declared data: a level set of a maximum of linear forms (one
form gives a plane) or of a Euclidean norm over some coordinates.  Along a
segment a + s (b - a) the first is piecewise linear in s and the second
quadratic, so ``path_break_params`` solves for the crossings in closed form.

``verify_stratified`` checks every output: piece formulas agree on shared
boundaries, forward/inverse roundtrips, exact identity outside the support,
and nonsingular per-piece Jacobians on samples.

Everything here is array-native over the last axis.  A point argument ``X``
is one point of shape (dim,) or a batch of shape (..., dim).  A piece's
``apply(X)`` returns the mapped points, of the shape of ``X``; a map's
``regions(X)`` (and ``inv_regions`` on the image side) returns one boolean
mask of shape ``X.shape[:-1] + (K,)`` whose column k is the closed region of
piece k; gauges, ``in_support`` and break loci return values or masks of
shape ``X.shape[:-1]``.  The map methods (``forward``, ``inverse``,
``piece_name``, ``pieces_at``, ``path_break_params``) follow the same rule,
so one call maps a whole batch, and each row of a batch gets bit for bit
what the row alone would get.  ``forward``, ``inverse`` and ``piece_name``
place the rows with one region mask: the first piece whose closed region
holds a row claims it, and a row outside the bbox closure or claimed by none
keeps its exact value.  Pieces that share one formula map all their rows in
one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StratMapError",
    "Piece",
    "StratMap",
    "compose",
    "EuclideanGauge",
    "SimplexGauge",
    "radial_piece",
    "interp_two_surfaces",
    "scaling_map",
    "rotation_map",
    "bump_map",
    "winding_map",
    "verify_stratified",
]


class StratMapError(ValueError):
    """Invalid constructor parameters or violated sampling validation."""


def _row_norm(x) -> np.ndarray:
    """Euclidean norm over the last axis.  Each row is the square root of
    x.dot(x), what np.linalg.norm gives for one point: a stack of 1 x n by
    n x 1 products runs the same dot kernel row by row (a sum of squares
    over the axis may round differently)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0])


def _matvec(mat, x) -> np.ndarray:
    """mat @ x over the last axis of x, for one matrix or a matching stack;
    each row runs the one-point product's kernel."""
    return np.matmul(mat, np.asarray(x, dtype=float)[..., None])[..., 0]


def _between(v, lo, hi):
    return (lo <= v) & (v <= hi)


def _nowhere(x) -> np.ndarray:
    return np.zeros(np.shape(x)[:-1], dtype=bool)


def _everywhere(x) -> np.ndarray:
    return np.ones(np.shape(x)[:-1], dtype=bool)


def _whole_space(x) -> np.ndarray:
    """The region mask of one piece that is all of R^dim."""
    return _everywhere(x)[..., None]


def _no_regions(x) -> np.ndarray:
    """The region mask of no pieces."""
    return np.zeros(np.shape(x)[:-1] + (0,), dtype=bool)


def _intervals(v, edges) -> np.ndarray:
    """The mask of the closed intervals between consecutive edges, one
    column each, for values v of shape (...)."""
    return np.stack([_between(v, lo, hi) for lo, hi in zip(edges, edges[1:])], axis=-1)


def _core_and_shell(value, inner: float, outer: float) -> np.ndarray:
    """The region mask of a core {value <= inner} and a shell {inner <=
    value <= outer}, for values of shape (...) of one gauge or norm."""
    return np.stack([value <= inner, _between(value, inner, outer)], axis=-1)


def _scale_rows(coef, x) -> np.ndarray:
    """coef * x row by row; coef may be one scalar for every row."""
    return np.expand_dims(np.asarray(coef, dtype=float), -1) * x


def _open_roots(s: np.ndarray):
    """(segment index, root) arrays of the candidate roots s, shape (S, m),
    that lie in the open interval (0, 1); NaN or an infinity marks none."""
    seg, j = np.nonzero((1e-12 < s) & (s < 1 - 1e-12))
    return seg, s[seg, j]


@dataclass(frozen=True, eq=False)
class _MaxLevel:
    """The locus max_i <forms[i], x> = level, a plane for one form; on
    points it gives max_i <forms[i], x> - level."""

    forms: np.ndarray  # (k, dim)
    level: float

    def __call__(self, x) -> np.ndarray:
        return np.max(_matvec(self.forms, x), axis=-1) - self.level

    def roots(self, starts: np.ndarray, ends: np.ndarray):
        """(segment index, s) arrays of the crossings of every segment.  Each
        form minus the level is alpha + s beta along a segment; the s where
        all are <= 0 make one interval, whose finite ends are the roots of
        the forms that attain the max there."""
        alpha = _matvec(self.forms, starts) - self.level
        beta = _matvec(self.forms, ends - starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -alpha / beta
        lo = np.max(np.where(beta < 0, s, -np.inf), axis=-1)
        hi = np.min(np.where(beta > 0, s, np.inf), axis=-1)
        # a form constant along the segment bounds nothing, or empties the set
        crossed = (lo < hi) & ~np.any((beta == 0) & (alpha > 0), axis=-1)
        return _open_roots(np.where(crossed[:, None], np.stack([lo, hi], axis=-1), np.nan))


@dataclass(frozen=True, eq=False)
class _NormLevel:
    """The locus |x[axes]| = radius, a sphere or a cylinder; on points it
    gives |x[axes]| - radius."""

    axes: tuple
    radius: float

    def __call__(self, x) -> np.ndarray:
        return _row_norm(np.asarray(x, dtype=float)[..., self.axes]) - self.radius

    def roots(self, starts: np.ndarray, ends: np.ndarray):
        """(segment index, s) arrays of the strict crossings of every segment,
        the roots of A s^2 + 2 B s + C = 0 when B^2 - A C > 0 (by the stable
        quadratic formula)."""
        a = starts[:, self.axes]
        d = ends[:, self.axes] - a
        A = np.sum(d * d, axis=-1)
        B = np.sum(a * d, axis=-1)
        C = np.sum(a * a, axis=-1) - self.radius ** 2
        disc = B * B - A * C
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(B + np.copysign(np.sqrt(disc), B))
            s = np.stack([q / A, C / q], axis=-1)
        return _open_roots(np.where((disc > 0)[:, None], s, np.nan))


@dataclass
class Piece:
    name: str
    apply: Callable     # closed-form map, (..., dim) -> (..., dim)


@dataclass
class StratMap:
    """A piecewise closed-form homeomorphism, identity outside its support."""

    dim: int
    pieces: list
    inv_pieces: list
    regions: Callable               # (..., dim) -> (..., K) mask; column k: pieces[k]'s region
    inv_regions: Callable           # the same for inv_pieces, on the image side
    in_support: Callable            # strict interior of the moving region, as a mask
    bbox: tuple                     # (lo, hi) arrays enclosing the support
    boundary_sampler: Callable      # (rng, count) -> list of boundary points
    break_functions: list = field(default_factory=list)  # loci with closed-form roots
    family: str = ""
    params: dict = field(default_factory=dict)

    def forward(self, x) -> np.ndarray:
        return self._apply(np.asarray(x, dtype=float), self.pieces, self.regions)

    def inverse(self, y) -> np.ndarray:
        return self._apply(np.asarray(y, dtype=float), self.inv_pieces, self.inv_regions)

    def _sweep(self, rows: np.ndarray, regions: Callable):
        """(ascending indices of the rows in the bbox closure, the first piece
        whose closed region holds each of them, or K where none does)."""
        rest = np.flatnonzero(self.in_support_closure(rows))
        mask = regions(rows[rest])
        # an all-true last column marks the rows no piece claims
        unclaimed = np.ones((len(rest), 1), dtype=bool)
        return rest, np.argmax(np.concatenate([mask, unclaimed], axis=1), axis=1)

    def _apply(self, x: np.ndarray, pieces: list, regions: Callable) -> np.ndarray:
        """Each row mapped by the first piece that claims it; unclaimed rows
        keep their exact input values.  The rows of every piece sharing one
        formula are mapped in one call (each formula acts row by row)."""
        rows = x.reshape(-1, self.dim)
        out = rows.copy()
        rest, first = self._sweep(rows, regions)
        formulas = {}  # apply -> its index, in order of first use
        which = np.array([formulas.setdefault(p.apply, len(formulas)) for p in pieces]
                         + [len(formulas)])[first]
        for apply, j in formulas.items():
            sel = rest[which == j]
            if sel.size:
                out[sel] = apply(rows[sel])
        return out.reshape(x.shape)

    def in_support_closure(self, x) -> np.ndarray:
        lo, hi = self.bbox
        return np.all(_between(np.asarray(x, dtype=float), lo - 1e-12, hi + 1e-12), axis=-1)

    def pieces_at(self, x) -> list:
        """(mask, values) for every forward piece: the rows its closed region
        holds and its formula there (NaN elsewhere), plus the identity on
        the rows not strictly inside the support."""
        x = np.asarray(x, dtype=float)
        regions = self.regions(x)
        out = []
        for k, p in enumerate(self.pieces):
            mask = regions[..., k]
            vals = np.full_like(x, np.nan)
            vals[mask] = p.apply(x[mask])
            out.append((mask, vals))
        out.append((~self.in_support(x), x))
        return out

    def piece_name(self, x):
        """The name of the first piece that claims each row ("identity" where
        none does)."""
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, self.dim)
        names = np.array([p.name for p in self.pieces] + ["identity"])
        idx = np.full(len(rows), len(self.pieces))
        rest, first = self._sweep(rows, self.regions)
        idx[rest] = first
        return names[idx.reshape(x.shape[:-1])]

    def inverted(self) -> "StratMap":
        return StratMap(
            dim=self.dim,
            pieces=self.inv_pieces,
            inv_pieces=self.pieces,
            regions=self.inv_regions,
            inv_regions=self.regions,
            in_support=self.in_support,
            bbox=self.bbox,
            boundary_sampler=self.boundary_sampler,
            break_functions=self.break_functions,
            family=f"inverse({self.family})",
            params=self.params,
        )

    # pre-splitting support for map_path
    def path_break_params(self, a, b):
        """Sorted parameters s in (0, 1) at which a + s (b - a) meets a break
        locus.  a and b are one segment (dim,), giving one list, or a batch
        (S, dim), giving one list per segment."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        starts, ends = a.reshape(-1, self.dim), b.reshape(-1, self.dim)
        found = [set() for _ in starts]
        for locus in self.break_functions:
            seg, s = locus.roots(starts, ends)
            for i, v in zip(seg.tolist(), s.tolist()):
                found[i].add(v)
        out = [sorted(f) for f in found]
        return out if a.ndim > 1 else out[0]


def _through(x, maps):
    """x mapped forward by each of maps in turn."""
    for m in maps:
        x = m.forward(x)
    return x


@dataclass
class _Composite(StratMap):
    """A composition that keeps its factors: they give its pieces, its break
    parameters and its inverse."""

    factors: tuple = ()

    def pieces_at(self, x) -> list:
        # every value of factor k's pieces_at at x pushed through the
        # earlier factors, each pushed on through the later factors
        x = np.asarray(x, dtype=float)
        out = [(_everywhere(x), _through(x, self.factors))]
        z = x
        for k, m in enumerate(self.factors):
            entries = m.pieces_at(z)
            pushed = _through(np.concatenate([vals[mask] for mask, vals in entries]),
                              self.factors[k + 1:])
            at = 0
            for mask, _ in entries:
                vals = np.full_like(x, np.nan)
                count = np.count_nonzero(mask)
                vals[mask] = pushed[at:at + count]
                at += count
                out.append((mask, vals))
            z = m.forward(z)
        return out

    def path_break_params(self, a, b):
        # Each factor acts affinely between its own breaks, so its breaks
        # split every segment, whose image pieces the next factor splits in
        # turn.  A segment carries the parameter windows (s0, s1) that led
        # to it, outermost first; a break u on it lies at s0 + u (s1 - s0)
        # of each window, innermost first.
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        starts, ends = a.reshape(-1, self.dim), b.reshape(-1, self.dim)
        segs = [(i, ()) for i in range(len(starts))]
        found = [set() for _ in starts]
        for k, m in enumerate(self.factors):
            svals = [sorted(set(u) | {0.0, 1.0})
                     for u in m.path_break_params(starts, ends)]
            for (i, windows), ss in zip(segs, svals):
                for s in ss[1:-1]:
                    for s0, s1 in reversed(windows):
                        s = s0 + s * (s1 - s0)
                    found[i].add(s)
            if k + 1 == len(self.factors):
                break
            # all points of every split segment through this factor at once
            pts = m.forward(np.concatenate(
                [p + np.asarray(ss)[:, None] * (q - p)
                 for p, q, ss in zip(starts, ends, svals)]))
            nxt, nxt_starts, nxt_ends, at = [], [], [], 0
            for (i, windows), ss in zip(segs, svals):
                for j, (s0, s1) in enumerate(zip(ss, ss[1:])):
                    nxt.append((i, windows + ((s0, s1),)))
                    nxt_starts.append(pts[at + j])
                    nxt_ends.append(pts[at + j + 1])
                at += len(ss)
            segs, starts, ends = nxt, np.array(nxt_starts), np.array(nxt_ends)
        out = [sorted(f) for f in found]
        return out if a.ndim > 1 else out[0]

    def inverted(self) -> "StratMap":
        """The composite of the inverted factors in reverse order."""
        inv = compose(*[m.inverted() for m in reversed(self.factors)])
        inv.family = f"inverse({self.family})"
        inv.params = self.params
        return inv


def compose(*maps: StratMap) -> StratMap:
    """Composition (left-to-right application order: maps[0] first)."""
    if not maps:
        raise StratMapError("need at least one map")
    dim = maps[0].dim
    if any(m.dim != dim for m in maps):
        raise StratMapError("dimension mismatch in composition")

    def fwd(x):
        return _through(x, maps)

    def inv(y):
        for m in reversed(maps):
            y = m.inverse(y)
        return y

    los = np.min([m.bbox[0] for m in maps], axis=0)
    his = np.max([m.bbox[1] for m in maps], axis=0)

    def in_support(x):
        z = np.asarray(x, dtype=float)
        inside = _nowhere(z)
        for m in maps:
            inside = inside | m.in_support(z)
            z = m.forward(z)
        return inside

    def boundary_sampler(rng, count):
        pts = []
        per = max(1, count // len(maps))
        for i, m in enumerate(maps):
            q = np.asarray(m.boundary_sampler(rng, per), dtype=float).reshape(-1, dim)
            # pull back through the earlier maps
            for earlier in reversed(maps[:i]):
                q = earlier.inverse(q)
            pts.extend(q)
        return pts

    return _Composite(
        dim=dim,
        pieces=[Piece("composite", fwd)],
        inv_pieces=[Piece("composite-inverse", inv)],
        regions=_whole_space,
        inv_regions=_whole_space,
        in_support=in_support,
        bbox=(los, his),
        boundary_sampler=boundary_sampler,
        family="compose(" + ",".join(m.family for m in maps) + ")",
        params={"factors": [m.family for m in maps]},
        factors=maps,
    )


def _identity_map(dim: int, bbox: tuple, family: str, params: dict) -> StratMap:
    """The identity of R^dim as a stratified map with no pieces."""
    return StratMap(dim=dim, pieces=[], inv_pieces=[], regions=_no_regions,
                    inv_regions=_no_regions, in_support=_nowhere, bbox=bbox,
                    boundary_sampler=lambda rng, count: [], family=family, params=params)


# ---------------------------------------------------------------------------
# Gauges (Minkowski functionals of star bodies)
# ---------------------------------------------------------------------------


class EuclideanGauge:
    """p(x) = |x| / radius: the gauge of a round ball."""

    def __init__(self, dim: int, radius: float = 1.0):
        self.dim = dim
        self.radius = float(radius)

    def __call__(self, x):
        return _row_norm(x) / self.radius

    def support_point(self, direction, level: float = 1.0) -> np.ndarray:
        d = np.asarray(direction, dtype=float)
        return d / np.linalg.norm(d) * self.radius * level

    def bounding_radius(self, level: float) -> float:
        return self.radius * level

    def locus(self, level: float) -> _NormLevel:
        """The level set p = level, the sphere of radius radius * level."""
        return _NormLevel(tuple(range(self.dim)), self.radius * level)


class SimplexGauge:
    """Gauge of a simplex (or any polytope) with 0 in its interior.

    p(x) = max_i <a_i, x> over the facet functionals normalized to 1 on each
    facet; homogeneous of degree 1 and piecewise linear.
    """

    def __init__(self, vertices: Sequence):
        verts = np.asarray(vertices, dtype=float)
        k = verts.shape[1]
        if verts.shape[0] != k + 1:
            raise StratMapError("need a full-dimensional simplex (k+1 vertices)")
        self.dim = k
        rows = []
        for i in range(k + 1):
            others = np.delete(verts, i, axis=0)
            base = others[0]
            span = others[1:] - base
            nrm = _orthogonal_complement(span)
            # orient away from the omitted vertex, normalize to 1 on the facet
            if nrm @ (verts[i] - base) > 0:
                nrm = -nrm
            c = nrm @ base
            if c <= 0:
                raise StratMapError("origin must be interior to the simplex")
            rows.append(nrm / c)
        self.facets = np.asarray(rows)
        self.vertices = verts

    def __call__(self, x):
        return np.max(_matvec(self.facets, x), axis=-1)

    def support_point(self, direction, level: float = 1.0) -> np.ndarray:
        d = np.asarray(direction, dtype=float)
        p = self(d)
        if p <= 0:
            raise StratMapError("direction outside the gauge cone")
        return d / p * level

    def bounding_radius(self, level: float) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1))) * level

    def locus(self, level: float) -> _MaxLevel:
        """The level set p = level."""
        return _MaxLevel(self.facets, level)


def _orthogonal_complement(span: np.ndarray) -> np.ndarray:
    """A vector orthogonal to all rows of span (codimension-1 case)."""
    _u, _s, vh = np.linalg.svd(span)
    return vh[-1]


def _level_sampler(gauge, inner: float, outer: float) -> Callable:
    """Boundary sampler on two level sets of a gauge: per point a normal
    direction, then a coin choosing the inner or the outer level."""

    def boundary_sampler(rng, count):
        return [gauge.support_point(rng.normal(size=gauge.dim),
                                    inner if rng.integers(2) else outer)
                for _ in range(count)]

    return boundary_sampler


# ---------------------------------------------------------------------------
# Radial pieces
# ---------------------------------------------------------------------------


@dataclass
class RadialPiece:
    """x -> (a + b/p)(x) x with the explicit inverse (1/a)(1 - b/p)(x) x.

    a, b must be constant on rays, p homogeneous of degree 1, and a, p,
    p a + b positive on the domain; these are validated on samples.
    """

    a: Callable
    b: Callable
    p: Callable

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return _scale_rows(self.a(x) + self.b(x) / self.p(x), x)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        return _scale_rows((1.0 / self.a(y)) * (1.0 - self.b(y) / self.p(y)), y)

    def validate(self, domain_points, atol: float = 1e-9):
        for x in domain_points:
            x = np.asarray(x, dtype=float)
            av, pv, bv = self.a(x), self.p(x), self.b(x)
            if not (av > 0 and pv > 0 and pv * av + bv > 0):
                raise StratMapError("positivity violated on the domain sample")
            for lam in (0.5, 2.0):
                if abs(self.p(lam * x) - lam * pv) > atol * max(1.0, pv):
                    raise StratMapError("p is not homogeneous of degree 1")
                if abs(self.a(lam * x) - av) > atol or abs(self.b(lam * x) - bv) > atol:
                    raise StratMapError("a, b are not constant on rays")


def radial_piece(a: Callable, b: Callable, p: Callable,
                 domain_points=None) -> RadialPiece:
    piece = RadialPiece(a, b, p)
    if domain_points is not None:
        piece.validate(domain_points)
    return piece


# ---------------------------------------------------------------------------
# Two-surface interpolation
# ---------------------------------------------------------------------------


@dataclass
class TwoSurfaceInterp:
    """Radial interpolation data between two star-body gauges.

    qhat_plus fixes the outer shell {p1 = lam_plus} pointwise and carries
    {p0 = 1} onto {p1 = lam0_plus}; qhat_minus is the inner-sided analogue.
    """

    p0: Callable
    p1: Callable
    lam_minus: float
    lam_plus: float
    lam0_minus: float
    lam0_plus: float
    qhat_plus: RadialPiece = None
    qhat_minus: RadialPiece = None

    def __post_init__(self):
        p0, p1 = self.p0, self.p1

        def q(x):
            return p1(x) / p0(x)

        def make(lam, lam0):
            def a(x):
                return (lam - lam0) / (lam - q(x))

            def b(x):
                return lam * (lam0 - q(x)) / (lam - q(x))

            return RadialPiece(a, b, p1)

        self.qhat_plus = make(self.lam_plus, self.lam0_plus)
        self.qhat_minus = make(self.lam_minus, self.lam0_minus)

    def validate_ordering(self, rng: np.random.Generator, dim: int, samples: int = 400):
        qs = []
        for _ in range(samples):
            d = rng.normal(size=dim)
            d /= np.linalg.norm(d)
            qs.append(self.p1(d) / self.p0(d))
        q_inf, q_sup = min(qs), max(qs)
        # sampled inf/sup only bracket the true ones: allow a small slack
        slack = 0.02 * (q_sup - q_inf) + 1e-12
        ok = (
            0 < self.lam_minus < q_inf
            and q_inf <= self.lam0_minus + slack
            and self.lam0_plus <= q_sup + slack
            and q_sup < self.lam_plus
        )
        if not ok:
            raise StratMapError("interpolation parameters violate the ordering")


def interp_two_surfaces(p0, p1, lam_minus, lam_plus, lam0_minus, lam0_plus,
                        rng: np.random.Generator = None, dim: int = None) -> TwoSurfaceInterp:
    interp = TwoSurfaceInterp(p0, p1, lam_minus, lam_plus, lam0_minus, lam0_plus)
    if rng is not None:
        if dim is None:
            dim = getattr(p0, "dim", None) or getattr(p1, "dim")
        interp.validate_ordering(rng, dim)
    return interp


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def scaling_map(gauge, lam: float, eps: float) -> StratMap:
    """lambda * id on the closed star body, identity outside the inflated shell.

    Stitches the linear core to the identity region with the two-surface
    interpolation applied to the body and its sqrt-scaled copy (split into
    the cases lambda >= 1 and lambda < 1).
    """
    if lam <= 0 or eps <= 0:
        raise StratMapError("need lambda > 0 and eps > 0")
    dim = gauge.dim
    outer_level = (1.0 + eps) * max(lam, 1.0)
    r_out = gauge.bounding_radius(outer_level)
    bbox = (-r_out * np.ones(dim), r_out * np.ones(dim))

    if lam == 1.0:
        return _identity_map(dim, bbox, "scaling", {"lam": lam, "eps": eps})

    if lam >= 1.0:
        sq = math.sqrt(lam)
        lam_plus = (1.0 + eps) * sq
        lam0_plus = sq
    else:
        sq = math.sqrt(1.0 + eps)
        lam_plus = sq
        lam0_plus = lam / sq

    def p0(x):
        return gauge(x)

    def p1(x):
        return gauge(x) / sq

    # only the outward-sided interpolation is needed for the stitch
    interp = TwoSurfaceInterp(p0, p1, 0.5 / sq, lam_plus, 1.0 / sq, lam0_plus)
    qp = interp.qhat_plus

    shell_hi = outer_level  # p0 value of the fixed outer boundary

    core = Piece("core", lambda x: lam * np.asarray(x, dtype=float))
    inv_core = Piece("core", lambda y: np.asarray(y, dtype=float) / lam)

    return StratMap(
        dim=dim,
        pieces=[core, Piece("shell", qp.forward)],
        inv_pieces=[inv_core, Piece("shell", qp.inverse)],
        regions=lambda x: _core_and_shell(gauge(x), 1.0, shell_hi),
        inv_regions=lambda y: _core_and_shell(gauge(y), lam, shell_hi),
        in_support=lambda x: gauge(x) < shell_hi,
        bbox=bbox,
        boundary_sampler=_level_sampler(gauge, 1.0, shell_hi),
        break_functions=[gauge.locus(1.0), gauge.locus(shell_hi)],
        family="scaling",
        params={"lam": lam, "eps": eps},
    )


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------


def rotation_map(x_gen: np.ndarray, r1: float, r2: float) -> StratMap:
    """Rotation e^{a(|x|) X} x: full strength inside r2, ramped off by r1."""
    x_gen = np.asarray(x_gen, dtype=float)
    if not (r1 > r2 > 0):
        raise StratMapError("need r1 > r2 > 0")
    if np.linalg.norm(x_gen + x_gen.T) > 1e-12:
        raise StratMapError("generator must be antisymmetric")
    dim = x_gen.shape[0]
    evals, vecs = np.linalg.eigh(1j * x_gen)

    def rot(angle_scale) -> np.ndarray:
        """e^{s X} for a scalar s, or a stack of them for an array of s."""
        s = np.asarray(angle_scale, dtype=float)[..., None, None]
        return ((vecs * np.exp(-1j * s * evals)) @ vecs.conj().T).real

    full = rot(1.0)
    full_inv = rot(-1.0)

    def ramp(r):
        return np.where(r >= r1, 0.0, (r1 - r) / (r1 - r2))

    def annulus_map(sign: float) -> Callable:
        def apply(x):
            x = np.asarray(x, dtype=float)
            s = ramp(_row_norm(x))
            # rows where the ramp is off keep their exact values
            return np.where((s == 0.0)[..., None], x, _matvec(rot(sign * s), x))

        return apply

    ball = EuclideanGauge(dim)

    def regions(x):
        return _core_and_shell(_row_norm(x), r2, r1)

    return StratMap(
        dim=dim,
        pieces=[Piece("core", lambda x: _matvec(full, x)), Piece("annulus", annulus_map(1.0))],
        inv_pieces=[Piece("core", lambda y: _matvec(full_inv, y)),
                    Piece("annulus", annulus_map(-1.0))],
        regions=regions,
        inv_regions=regions,
        in_support=lambda x: _row_norm(x) < r1,
        bbox=(-r1 * np.ones(dim), r1 * np.ones(dim)),
        boundary_sampler=_level_sampler(ball, r2, r1),
        break_functions=[ball.locus(r2), ball.locus(r1)],
        family="rotation",
        params={"r1": r1, "r2": r2},
    )


# ---------------------------------------------------------------------------
# Bump
# ---------------------------------------------------------------------------


def bump_map(tau1: float, tau2: float, eps: float, a: float, n: int,
             axis_x: int = 0, axis_y: int = 1, sign: float = 1.0,
             z_core: float = None, z_outer: float = None) -> StratMap:
    """Box-local bump lifting the x-axis over [tau1, tau2] to height 2a.

    Changes only the y-coordinate inside the box
    C = [tau1-eps, tau2+eps] x [-2eps, 2a+2eps] x B_{2eps} and maps the axis
    segment to the polyline through (tau1-eps, 0), (tau1+eps, 2a),
    (tau2-eps, 2a), (tau2+eps, 0).  Pieces: three columns (the two slope
    columns and the flat middle) x three rows (shear strip around the axis,
    and the two pencil rows compressing toward the fixed box edges) x the
    transverse falloff zones (full-strength core and cosine annulus).

    ``axis_x``/``axis_y``/``sign`` generalize to bumps in other coordinate
    planes and downward bumps (used by ``winding_map``); ``z_core``/
    ``z_outer`` override the transverse falloff radii (defaults eps, 2 eps).
    """
    if not (tau1 < tau2):
        raise StratMapError("need tau1 < tau2")
    if not (0 < eps < 0.5 * (tau2 - tau1)):
        raise StratMapError("need 0 < eps < (tau2 - tau1)/2")
    if a <= 0:
        raise StratMapError("need a > 0")
    if n < 2:
        raise StratMapError("need ambient dimension >= 2")
    if axis_x == axis_y or max(axis_x, axis_y) >= n:
        raise StratMapError("bad coordinate axes")
    z_core = eps if z_core is None else float(z_core)
    z_outer = 2 * eps if z_outer is None else float(z_outer)
    if not (0 < z_core < z_outer):
        raise StratMapError("need 0 < z_core < z_outer")
    z_axes = [i for i in range(n) if i not in (axis_x, axis_y)]

    x_lo, x_hi = tau1 - eps, tau2 + eps
    y_bot, y_top = -2 * eps, 2 * a + 2 * eps
    slope = a / eps

    def shift(x):
        """Piecewise-linear lift profile r(x): 0 at the box x-faces, 2a flat."""
        return np.where((x <= x_lo) | (x >= x_hi), 0.0,
                        np.where(x <= tau1 + eps, slope * (x - x_lo),
                                 np.where(x >= tau2 - eps, slope * (x_hi - x), 2 * a)))

    def z_radius(pt):
        # squares summed coordinate by coordinate, as one point's sum would be
        return np.sqrt(sum(pt[..., i] ** 2 for i in z_axes))

    def ring_falloff(zr):
        # cosine falloff from 1 at the core radius to 0 at the outer radius;
        # with the default radii (eps, 2 eps) this is (1 - cos(pi |z|/eps))/2
        u = (zr - z_core) / (z_outer - z_core)
        return 0.5 * (1.0 + np.cos(math.pi * u))

    def yval(pt):
        return sign * pt[..., axis_y]

    def with_y(pt, y) -> np.ndarray:
        out = np.array(pt, dtype=float)
        out[..., axis_y] = sign * y
        return out

    # row maps: the strip |y| <= eps is sheared by the full lift r; the top
    # and bottom rows are phi_aux pencils y -> y + h (y0 - y) whose fixed
    # lines y0 sit on the box edges, with h chosen to meet the shear at
    # y = +-eps: h_top = r/(2a + eps), h_bottom = -r/eps
    def row_fwd(row: str, zone_g) -> Callable:
        def apply(pt):
            pt = np.asarray(pt, dtype=float)
            r = shift(pt[..., axis_x]) * zone_g(pt)
            y = yval(pt)
            if row == "strip":
                return with_y(pt, y + r)
            if row == "top":
                h = r / (2 * a + eps)
                return with_y(pt, y + h * (y_top - y))
            h = -r / eps
            return with_y(pt, y + h * (y_bot - y))

        return apply

    def row_inv(row: str, zone_g) -> Callable:
        def apply(pt):
            pt = np.asarray(pt, dtype=float)
            r = shift(pt[..., axis_x]) * zone_g(pt)
            yp = yval(pt)
            if row == "strip":
                return with_y(pt, yp - r)
            if row == "top":
                h = r / (2 * a + eps)
                return with_y(pt, (yp - h * y_top) / (1.0 - h))
            h = -r / eps
            return with_y(pt, (yp + h * 2 * eps) / (1.0 - h))

        return apply

    cols = ("left", "mid", "right")
    rows = ("bottom", "strip", "top")
    if z_axes:
        zones = [("zcore", lambda pt: 1.0), ("zring", lambda pt: ring_falloff(z_radius(pt)))]
    else:
        zones = [("planar", lambda pt: 1.0)]
    x_edges = (x_lo, tau1 + eps, tau2 - eps, x_hi)

    def region_mask(pt, lifted: bool) -> np.ndarray:
        """The pieces' closed regions in piece order, column x row x zone:
        products of closed intervals of x, y and |z|.  On the image side
        (lifted) the strip edges y = +-eps travel with the lift, whose zone
        factor is 1 up to |z| = z_core, where the ring falloff is 1 too;
        the box edges stay put."""
        pt = np.asarray(pt, dtype=float)
        x, y = pt[..., axis_x], yval(pt)
        if z_axes:
            zr = z_radius(pt)
            zone = _intervals(zr, (0.0, z_core, z_outer))
        else:
            zone = np.ones(np.shape(x) + (1,), dtype=bool)
        off = 0.0
        if lifted:
            off = shift(x) * (np.where(zone[..., 0], 1.0, ring_falloff(zr)) if z_axes else 1.0)
        row = _intervals(y, (y_bot, -eps + off, eps + off, y_top))
        mask = _intervals(x, x_edges)[..., :, None, None] & row[..., None, :, None] \
            & zone[..., None, None, :]
        return mask.reshape(np.shape(x) + (len(pieces),))

    # six formulas (row x zone); shift(x) covers all three columns
    formulas = {(r, z): (row_fwd(r, g), row_inv(r, g)) for r in rows for z, g in zones}
    pieces, inv_pieces = [], []
    for c, r, (z, _g) in itertools.product(cols, rows, zones):
        fwd, inv = formulas[r, z]
        pieces.append(Piece(f"{c}-{r}-{z}", fwd))
        inv_pieces.append(Piece(f"{c}-{r}-{z}", inv))

    lo = np.full(n, -z_outer)
    hi = np.full(n, z_outer)
    lo[axis_x], hi[axis_x] = x_lo, x_hi
    if sign > 0:
        lo[axis_y], hi[axis_y] = y_bot, y_top
    else:
        lo[axis_y], hi[axis_y] = -y_top, -y_bot

    def in_support(pt):
        pt = np.asarray(pt, dtype=float)
        x, y = pt[..., axis_x], yval(pt)
        inside = (x_lo < x) & (x < x_hi) & (y_bot < y) & (y < y_top)
        if z_axes:
            inside &= z_radius(pt) < z_outer
        return inside

    def boundary_sampler(rng, count):
        pts = []
        for _ in range(count):
            pt = np.array([rng.uniform(l, h) for l, h in zip(lo, hi)])
            kind = rng.integers(3)
            if kind == 0:
                pt[axis_x] = [x_lo, tau1 + eps, tau2 - eps, x_hi][rng.integers(4)]
            elif kind == 1:
                pt[axis_y] = sign * [y_bot, -eps, eps, y_top][rng.integers(4)]
            elif z_axes:
                rz = [z_core, z_outer][rng.integers(2)]
                zdir = rng.normal(size=len(z_axes))
                zdir *= rz / np.linalg.norm(zdir)
                for i, zi in zip(z_axes, zdir):
                    pt[i] = zi
            pts.append(pt)
        return pts

    x_form, y_form = np.eye(n)[[axis_x]], sign * np.eye(n)[[axis_y]]
    breaks = ([_MaxLevel(x_form, c) for c in (x_lo, tau1 + eps, tau2 - eps, x_hi)]
              + [_MaxLevel(y_form, c) for c in (y_bot, -eps, eps, y_top)])
    if z_axes:
        breaks += [_NormLevel(tuple(z_axes), c) for c in (z_core, z_outer)]

    return StratMap(
        dim=n,
        pieces=pieces,
        inv_pieces=inv_pieces,
        regions=lambda pt: region_mask(pt, False),
        inv_regions=lambda pt: region_mask(pt, True),
        in_support=in_support,
        bbox=(lo, hi),
        boundary_sampler=boundary_sampler,
        break_functions=breaks,
        family="bump",
        params={
            "tau1": tau1, "tau2": tau2, "eps": eps, "a": a, "n": n,
            "axis_x": axis_x, "axis_y": axis_y, "sign": sign,
            "z_core": z_core, "z_outer": z_outer,
        },
    )


# ---------------------------------------------------------------------------
# Winding
# ---------------------------------------------------------------------------


def winding_map(taus: Sequence[float], levels: Sequence[int],
                z_targets: Sequence[float], eps: float, height: float,
                n: int = 3) -> StratMap:
    """Steer the x-axis through prescribed surface strips at prescribed times.

    taus: strictly increasing, even count, mutual spacing > 2*eps; the j-th
    crossing happens at x = taus[j].  levels[j] selects the target strip;
    z_targets[i] is the first transverse coordinate of strip i.  The strips
    are understood to sit in the plane y = height; the lifted segments
    alternate between y = 0 and y = 2*height, so crossing signs alternate
    as (-1)^(j+1).

    Built as tents in the (x, z1)-plane (one per crossing, steering z1 to
    the target) composed with one y-bump per lifted block.
    """
    taus = [float(t) for t in taus]
    if len(taus) % 2 != 0:
        raise StratMapError("need an even number of crossing times")
    if len(taus) == 0:
        return _identity_map(n, (-np.ones(n), np.ones(n)), "winding",
                             {"taus": [], "levels": [], "z_targets": list(z_targets),
                              "eps": eps, "height": height, "sign_base": 1})
    if any(t2 - t1 <= 2 * eps for t1, t2 in zip(taus, taus[1:])):
        raise StratMapError("crossing times must be spaced more than 2*eps apart")
    if len(levels) != len(taus):
        raise StratMapError("one target level per crossing time")
    if n < 3:
        raise StratMapError("winding needs ambient dimension >= 3")
    if height <= 0 or eps <= 0:
        raise StratMapError("need positive height and eps")

    factors = []
    w = eps / 2.0
    c_max = max((abs(z_targets[l]) for l in levels), default=0.0)
    z_tent = max(w, 2 * height)
    # tents first (the axis is still at y = 0, z = 0)
    for tau_j, level in zip(taus, levels):
        c = float(z_targets[level])
        if c == 0.0:
            continue
        tent = bump_map(
            tau_j - 3 * w / 4,
            tau_j + 3 * w / 4,
            w / 4,
            abs(c) / 2.0,
            n,
            axis_x=0,
            axis_y=2,
            sign=1.0 if c > 0 else -1.0,
            z_core=z_tent,
            z_outer=2 * z_tent,
        )
        factors.append(tent)
    # y-bumps: lift each block [tau_{2k}, tau_{2k+1}] to 2*height
    for k in range(0, len(taus), 2):
        lift = bump_map(
            taus[k],
            taus[k + 1],
            eps,
            height,
            n,
            axis_x=0,
            axis_y=1,
            z_core=c_max + eps,
            z_outer=2 * (c_max + eps),
        )
        factors.append(lift)
    if not factors:
        raise StratMapError("winding with no displacement")
    composite = compose(*factors)
    composite.family = "winding"
    composite.params = {
        "taus": taus,
        "levels": list(levels),
        "z_targets": list(z_targets),
        "eps": eps,
        "height": height,
        "sign_base": 1,
    }
    return composite


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_stratified(m: StratMap, samples: int, rng: np.random.Generator) -> dict:
    """Numerical certificate for a stratified map.

    Reports the worst boundary disagreement between piece formulas, the
    worst forward/inverse roundtrip error, the number of points outside the
    support that move at all (must be zero: the identity there is exact),
    and the smallest |det J| seen on per-piece interior samples.  The
    samples are drawn as (samples, dim) arrays, the same stream as one draw
    per sample, and evaluated as batches.
    """
    lo, hi = m.bbox
    span = hi - lo
    edge = np.asarray(m.boundary_sampler(rng, max(16, samples // 10)), dtype=float)
    entries = [(mask, vals) for mask, vals in m.pieces_at(edge.reshape(-1, m.dim))
               if mask.any()]
    boundary_max = 0.0
    for (mask_i, vals_i), (mask_j, vals_j) in itertools.combinations(entries, 2):
        both = mask_i & mask_j
        if both.any():
            boundary_max = max(boundary_max,
                               float(_row_norm(vals_i[both] - vals_j[both]).max()))
    x = lo + rng.uniform(size=(samples, m.dim)) * span
    roundtrip = np.concatenate([_row_norm(m.inverse(m.forward(x)) - x),
                                _row_norm(m.forward(m.inverse(x)) - x)])
    roundtrip_max = float(np.max(roundtrip, initial=0.0))
    names = m.piece_name(x)
    moving = names != "identity"
    x, names = x[moving], names[moving]
    # Jacobian only where the whole +-h stencil stays in one piece
    h = 1e-6
    steps = h * np.eye(m.dim)
    stencil = np.stack([x + e for e in steps] + [x - e for e in steps])
    x = x[np.all(m.piece_name(stencil) == names, axis=0)]
    images = m.forward(np.stack([x + e for e in steps] + [x - e for e in steps]))
    jac = np.stack([(images[c] - images[m.dim + c]) / (2 * h) for c in range(m.dim)], axis=-1)
    dets = np.abs(np.linalg.det(jac))
    x = lo - 0.5 * span + rng.uniform(size=(samples, m.dim)) * 2.0 * span
    x = x[~m.in_support(x)]
    y = m.forward(x)
    moved = np.any(y != x, axis=-1)
    return {
        "boundary_max_mismatch": boundary_max,
        "roundtrip_max": roundtrip_max,
        "support_violations": int(moved.sum()),
        "outside_motion_max": float(np.max(_row_norm(y[moved] - x[moved]), initial=0.0)),
        "jacobian_min_abs_det": float(dets.min()) if dets.size else None,
        "samples": samples,
    }

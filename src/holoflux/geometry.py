"""Piecewise-linear paths, oriented simplicial surfaces, and intersection data.

Everything geometric is exact: input coordinates, points passed to the
membership tests included, are read as exact rationals (floats convert
exactly, being binary rationals).  A simplex of any dimension q < k stores
integer rows from one elimination of its vertices: k - q hull rows, which
vanish together exactly on its affine hull, and q + 1 barycentric rows.  So
membership, segment/simplex events and side tests on it are decided by the
signs of integer dot products with the homogeneous integer point (P, d),
x = P / d, in every codimension.  Segment pairs and affine maps go through
the same fraction-free integer elimination (``_eliminate``), and collinearity
of three points is decided on integer vectors too.  Fractions are built only
for the values returned.  One box-pruned scan (``_meetings``) yields where
segments meet, for path validation, graph validation and ``build_graph``.
Parameters reported to callers are arclength-proportional floats; the
underlying split *points* remain exact.

Paths, surfaces and points move through an exact ``AffineMap`` or through a
stratified map, whose float images are taken in one batch, checked to be
affine at segment midpoints and converted exactly (``_stratified_images``).

The central operation is ``decompose_minimal``: the unique coarsest splitting
of an edge into pieces whose interiors lie inside the surface or avoid it.
Signed transversality data (``sigma_eval``) and punctures derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "PrecisionError",
    "Point",
    "as_point",
    "PolyPath",
    "Simplex",
    "OrientedSurface",
    "joint_surface",
    "Graph",
    "Decomposition",
    "DecompositionPiece",
    "decompose_minimal",
    "sigma_eval",
    "sigma_pair",
    "punctures",
    "completely_transversal",
    "Puncture",
    "build_graph",
    "AffineMap",
    "map_path",
]

Point = tuple  # tuple[Fraction, ...]


class GeometryError(ValueError):
    """Invalid geometric input."""


class PrecisionError(RuntimeError):
    """Raised by ``map_path`` when a stratified map is not affine along a
    pre-split segment."""


class DomainError(ValueError):
    """Input outside the operation's domain (e.g. path not over the graph)."""


def as_point(coords: Sequence) -> Point:
    """Exact coordinates: Fractions pass through, anything else converts
    (floats exactly, being binary rationals)."""
    return _exact(coords)


def _exact(coords: Sequence) -> Point:
    # as_point for the membership tests, which should not count as API calls
    # in a per-layer trace
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def pt_float(p: Point) -> np.ndarray:
    return np.array([float(c) for c in p], dtype=float)


def _lerp(a: Point, b: Point, s: Fraction) -> Point:
    """a + s (b - a) exactly, as Fractions.  With s = n / q each coordinate is
    (x (q - n) + y n) / q, built as one normalised Fraction."""
    if s == 0:
        return _exact(a)
    if s == 1:
        return _exact(b)
    n, q = s.as_integer_ratio()
    m = q - n
    out = []
    for x, y in zip(a, b):
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        out.append(Fraction(xn * yd * m + yn * xd * n, xd * yd * q))
    return tuple(out)


def _integer_points(*pts) -> tuple:
    """([P_0, P_1, ...], d): integer vectors over one positive common
    denominator, pts[i] = P_i / d exactly (floats included)."""
    ratios = [[(c if type(c) is Fraction else Fraction(c)).as_integer_ratio() for c in p]
              for p in pts]
    d = math.lcm(*[q for r in ratios for _, q in r])
    return [[n * (d // q) for n, q in r] for r in ratios], d


def _affine(row: tuple, P: list, d: int) -> int:
    """row . (P, d): an integer affine function, with the constant term last,
    evaluated at x = P / d and scaled by d."""
    return sum(map(mul, row, P)) + row[-1] * d


def _strictly_between(a: Point, b: Point, c: Point) -> bool:
    """True if b = a + s (c - a) with 0 < s < 1 (forward collinear interior point).

    Decided on integer vectors u = B - A and v = C - A over one common
    denominator: u is parallel to v exactly when u (v . v) = v (u . v), and
    then s = u . v / v . v."""
    (A, B, C), _ = _integer_points(a, b, c)
    u = [y - x for x, y in zip(A, B)]
    v = [z - x for x, z in zip(A, C)]
    uv = sum(map(mul, u, v))
    vv = sum(map(mul, v, v))
    return 0 < uv < vv and all(x * vv == y * uv for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# Exact linear algebra: fraction-free integer elimination
# ---------------------------------------------------------------------------


def _integer_rows(rows) -> list:
    """Scale each row by the lcm of its denominators, giving integer rows
    with the same solutions.  Entries are ints, Fractions or floats (exact)."""
    out = []
    for r in rows:
        ratios = [v.as_integer_ratio() for v in r]
        lcm = math.lcm(*[d for _, d in ratios])
        out.append([p * (lcm // d) for p, d in ratios])
    return out


def _eliminate(a: list, n: int) -> list:
    """Fraction-free Gauss-Jordan elimination of the integer rows ``a`` over
    their first n columns, in place; returns the pivot columns.

    A row r is cleared against the pivot row p by cross-multiplication,
    r <- p[c] r - r[c] p, then divided by the gcd of its entries.  Afterwards
    row i is a nonzero multiple of row i of the reduced row-echelon form, so
    Fraction(a[i][j], a[i][pivots[i]]) is that form's entry (Bareiss 1968).
    """
    m = len(a)
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        for r in range(row, m):
            if a[r][col]:
                break
        else:
            continue
        a[row], a[r] = a[r], a[row]
        p = a[row]
        d = p[col]
        for r in range(m):
            f = a[r][col]
            if f and r != row:
                new = [d * x - f * y for x, y in zip(a[r], p)]
                g = math.gcd(*new)
                a[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return pivots


def solve_exact(rows: list, rhs: list):
    """Solve A x = b over the rationals.

    Returns (kind, data): ('unique', x), ('none', None), or
    ('underdetermined', (particular, basis)) with basis spanning the kernel.
    Every returned value is a Fraction.
    """
    n = len(rows[0]) if rows else 0
    return _solve_integer_rows(_integer_rows([(*r, b) for r, b in zip(rows, rhs)]), n)


def _solve_integer_rows(a: list, n: int):
    """solve_exact on the integer rows (A | b) of n unknowns, reduced in place."""
    pivots = _eliminate(a, n)
    rank = len(pivots)
    if any(r[n] for r in a[rank:]):
        return ("none", None)
    x = [Fraction(0)] * n
    for r, col in zip(a, pivots):
        x[col] = Fraction(r[n], r[col])
    if rank == n:
        return ("unique", x)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in zip(a, pivots):
            vec[col] = Fraction(-r[fc], r[col])
        basis.append(vec)
    return ("underdetermined", (x, basis))


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def _canonical_vertices(vertices: tuple) -> tuple:
    """Drop interior vertices lying strictly between their neighbours."""
    if len(vertices) <= 2:
        return vertices
    out = [vertices[0]]
    for i in range(1, len(vertices) - 1):
        if not _strictly_between(out[-1], vertices[i], vertices[i + 1]):
            out.append(vertices[i])
    out.append(vertices[-1])
    return tuple(out)


class PolyPath:
    """A finite piecewise-linear edge in R^k (injective except possibly closed).

    Vertices are exact rational points; the parametrization is
    arclength-proportional, so reparametrization-equivalent polylines
    canonicalize to the same vertex list.
    """

    def __init__(self, vertices: Iterable[Sequence], validate: bool = True):
        verts = tuple(as_point(v) for v in vertices)
        if len(verts) < 2:
            raise GeometryError("a path needs at least two vertices")
        k = len(verts[0])
        if k < 2:
            raise GeometryError("ambient dimension must be >= 2")
        if any(len(v) != k for v in verts):
            raise GeometryError("inconsistent ambient dimension")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise GeometryError("consecutive vertices must be distinct")
        self._set_vertices(_canonical_vertices(verts), k)
        if validate:
            self._check_injective()

    def _set_vertices(self, verts: tuple, dim: int):
        """Store canonical vertices and their arclength-proportional breakpoints."""
        self.vertices = verts
        self.dim = dim
        fl = [tuple(map(float, v)) for v in verts]
        lens = [math.dist(a, b) for a, b in zip(fl, fl[1:])]
        total = sum(lens)
        if total == 0:
            raise GeometryError("path has zero length in floating point")
        self._cum = [0.0]
        for L in lens:
            self._cum.append(self._cum[-1] + L / total)
        self._cum[-1] = 1.0

    @classmethod
    def _canonical(cls, verts: tuple, dim: int) -> "PolyPath":
        """A path on vertices that are already canonical (distinct, with no
        interior vertex strictly between its neighbours), stored as they are."""
        if len(verts) < 2:
            raise GeometryError("a path needs at least two vertices")
        out = cls.__new__(cls)
        out._set_vertices(verts, dim)
        return out

    # The edge condition: no self-intersections except possibly v0 = vL.
    def _check_injective(self):
        segs = _segments(self)
        n = len(segs)
        for i, j, kind, data in _meetings(combinations(enumerate(segs), 2)):
            if kind == "overlap":
                raise GeometryError("path overlaps itself")
            if data == (1, 0) and j == i + 1:
                continue  # adjacent segments share their joint
            if data == (0, 1) and i == 0 and j == n - 1:
                continue  # closed edge: v0 == vL allowed
            raise GeometryError("path is not injective")

    @property
    def start(self) -> Point:
        return self.vertices[0]

    @property
    def end(self) -> Point:
        return self.vertices[-1]

    @property
    def is_closed(self) -> bool:
        return self.start == self.end

    def reversed(self) -> "PolyPath":
        """The path traversed backwards.  A reversed canonical vertex list is
        canonical, so the vertices are stored as they are."""
        return PolyPath._canonical(self.vertices[::-1], self.dim)

    def same_geometry(self, other: "PolyPath") -> bool:
        return self.vertices == other.vertices

    def locate(self, t: float):
        """Map arclength parameter t in [0,1] to (segment index, exact s on it)."""
        if not (0.0 <= t <= 1.0):
            raise GeometryError("parameter outside [0,1]")
        for i in range(len(self._cum) - 1):
            if t <= self._cum[i + 1] or i == len(self._cum) - 2:
                lo, hi = self._cum[i], self._cum[i + 1]
                s = 0.0 if hi == lo else (t - lo) / (hi - lo)
                return i, Fraction(min(max(s, 0.0), 1.0))
        raise GeometryError("parameter lookup failed")

    def param_of(self, seg: int, s: Fraction) -> float:
        lo, hi = self._cum[seg], self._cum[seg + 1]
        return lo + float(s) * (hi - lo)

    # A sub-polyline of a canonical polyline is canonical: its only new
    # vertices are cut points on the parent's own segments.  So split_at and
    # subpath_exact store their vertices as they are.
    def split_at(self, seg: int, s: Fraction):
        """Split into two sub-paths at exact location (seg, s); s in (0,1) strictly
        interior to the polyline."""
        p = _lerp(self.vertices[seg], self.vertices[seg + 1], s)
        first = list(self.vertices[: seg + 1])
        if first[-1] != p:
            first.append(p)
        second = [p] + list(self.vertices[seg + 1 :])
        if len(second) > 1 and second[0] == second[1]:
            second = second[1:]
        if len(first) < 2 or len(second) < 2:
            raise GeometryError("split point must be interior")
        return (PolyPath._canonical(tuple(first), self.dim),
                PolyPath._canonical(tuple(second), self.dim))

    def subpath_exact(self, loc0, loc1) -> "PolyPath":
        (i0, s0), (i1, s1) = loc0, loc1
        p0 = _lerp(self.vertices[i0], self.vertices[i0 + 1], s0)
        p1 = _lerp(self.vertices[i1], self.vertices[i1 + 1], s1)
        verts = [p0]
        for i in range(i0 + 1, i1 + 1):
            v = self.vertices[i]
            if v != verts[-1]:
                verts.append(v)
        if p1 != verts[-1]:
            verts.append(p1)
        return PolyPath._canonical(tuple(verts), self.dim)

    def concat(self, other: "PolyPath") -> "PolyPath":
        if self.end != other.start:
            raise GeometryError("paths are not composable")
        return PolyPath(self.vertices + other.vertices[1:], validate=False)

    def __repr__(self):
        pts = ", ".join(str(pt_float(v)) for v in self.vertices[:4])
        more = "..." if len(self.vertices) > 4 else ""
        return f"PolyPath[{pts}{more}]"


# ---------------------------------------------------------------------------
# Simplices and surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Simplex:
    """An affine q-simplex in R^k with per-facet openness flags.

    ``closed_facets[i]`` says whether the facet with barycentric coordinate
    lambda_i = 0 belongs to the point set.  Codimension-1 simplices carry an
    orientation through ``normal`` (stored exactly; unit within 1e-12), which
    orients the exact integer hyperplane of their vertices, ``plane``.
    """

    vertices: tuple
    closed_facets: tuple = None
    normal: tuple = None
    # integer rows acting on (P, d), x = P / d (see _hyperplane_rows): the
    # k - q hull rows and the barycentric rows (l_i, w_i).  The one hull row
    # of a codimension-1 simplex is oriented so that n . normal > 0 when a
    # normal is given.
    hull_rows: tuple = field(init=False, repr=False, compare=False)
    bary_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        k = len(verts[0])
        q = len(verts) - 1
        if q < 0 or q >= k:
            raise GeometryError("simplex dimension must satisfy 0 <= q < k")
        rows = _hyperplane_rows(verts)
        if rows is None:
            raise GeometryError("simplex vertices are affinely dependent")
        hull_rows, bary_rows = rows
        cf = self.closed_facets
        if cf is None:
            cf = tuple(True for _ in verts)
        else:
            cf = tuple(bool(b) for b in cf)
            if len(cf) != len(verts):
                raise GeometryError("need one openness flag per facet")
        object.__setattr__(self, "closed_facets", cf)
        if self.normal is not None:
            if q != k - 1:
                raise GeometryError("only codimension-1 simplices carry a normal")
            nrm = as_point(self.normal)
            if len(nrm) != k:
                raise GeometryError("normal dimension mismatch")
            nf = pt_float(nrm)
            if abs(np.linalg.norm(nf) - 1.0) > 1e-12:
                raise GeometryError("normal must be unit within 1e-12")
            # orthogonality within float noise: rotated and sheared scenes
            # carry rounded normals, which only orient the exact plane row
            for v in verts[1:]:
                d = pt_float([x - y for x, y in zip(v, verts[0])])
                if abs(float(np.dot(nf, d))) > 1e-9 * max(1.0, np.linalg.norm(d)):
                    raise GeometryError("normal is not orthogonal to the simplex")
            side = sum(map(mul, hull_rows[0], nrm))
            if side == 0:
                raise GeometryError("normal lies in the simplex's hyperplane")
            if side < 0:
                hull_rows = (tuple(-c for c in hull_rows[0]),)
            object.__setattr__(self, "normal", nrm)
        object.__setattr__(self, "hull_rows", hull_rows)
        object.__setattr__(self, "bary_rows", bary_rows)

    @property
    def plane(self) -> tuple:
        """Codimension 1: the oriented hyperplane row (n, -c), n . x = c."""
        return self.hull_rows[0]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def _numerators(self, P: list, d: int):
        """u with lambda_i(x) = u_i / (w_i d) at x = P / d, or None if x is
        off the affine hull."""
        for h in self.hull_rows:
            if _affine(h, P, d):
                return None
        return [_affine(l, P, d) for l, _ in self.bary_rows]

    def barycentric(self, p: Sequence):
        """Exact barycentric coordinates, or None if p is off the affine hull.
        The coordinates of p convert exactly (floats included)."""
        (P,), d = _integer_points(p)
        u = self._numerators(P, d)
        if u is None:
            return None
        return [Fraction(ui, w * d) for ui, (_, w) in zip(u, self.bary_rows)]

    def contains(self, p: Sequence) -> bool:
        (P,), d = _integer_points(p)
        return self._admits(self._numerators(P, d))  # signs of lambda_i

    def _admits(self, lam) -> bool:
        """Whether barycentric coordinates, or numbers with their signs, place
        a point in the point set: none negative, zero only on closed facets."""
        if lam is None:
            return False
        for i, l in enumerate(lam):
            if l < 0:
                return False
            if l == 0 and not self.closed_facets[i]:
                return False
        return True


def _hyperplane_rows(verts: tuple):
    """Integer rows of a q-simplex in R^k acting on (P, d), x = P / d.

    Returns (hull_rows, bary_rows), or None if the vertices are affinely
    dependent.  With V_i / D the q + 1 vertices, Gauss-Jordan elimination of
    [M | I] for the system M lambda = (D x, 1), whose k + 1 by q + 1 matrix
    M has the columns (V_i, 1), turns I into E with E M = diag(w) over the
    first q + 1 rows and E M = 0 over the other k - q.  So
    lambda_i(x) = _affine(l_i, P, d) / (w_i d) with w_i > 0 for
    (l_i, w_i) = bary_rows[i].  The other rows of E, each divided by its
    gcd, are the hull rows: they are independent and annihilate M, so they
    vanish together exactly where (D x, 1) is in M's column space, on the
    affine hull.  In codimension 1 the one hull row is the hyperplane
    n . x = c through the vertices, (n, -c).
    """
    V, D = _integer_points(*verts)
    k, n = len(V[0]), len(V)
    eye = [[int(i == j) for i in range(k + 1)] for j in range(k + 1)]
    a = [[v[j] for v in V] + eye[j] for j in range(k)] + [[1] * n + eye[k]]
    if len(_eliminate(a, n)) < n:
        return None
    # (D x, 1) = (D P, d) / d: scale the point columns of E by D
    rows = [[D * c for c in r[n:-1]] + [r[-1]] for r in a]
    bary_rows = tuple(
        (tuple(c if r[i] > 0 else -c for c in row), abs(r[i]))
        for i, (r, row) in enumerate(zip(a, rows[:n]))
    )
    hull_rows = []
    for row in rows[n:]:
        g = math.gcd(*row)
        hull_rows.append(tuple(c // g for c in row))
    return tuple(hull_rows), bary_rows


class OrientedSurface:
    """A finite union of disjoint affine simplices with an intersection rule.

    rule: 'natural' or 'topological' (they coincide on PL data; both kept),
    optionally inverted (sign-flipped) via ``inverted``.
    """

    def __init__(self, pieces: Iterable[Simplex], rule: str = "natural",
                 inverted: bool = False, piece_ids: Sequence[str] = None,
                 validate: bool = True):
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise GeometryError("surface needs at least one piece")
        k = self.pieces[0].ambient_dim
        if any(s.ambient_dim != k for s in self.pieces):
            raise GeometryError("inconsistent ambient dimension")
        if rule not in ("natural", "topological"):
            raise GeometryError(f"unknown intersection rule {rule!r}")
        self.rule = rule
        self.inverted = bool(inverted)
        self.dim = k
        if piece_ids is None:
            piece_ids = tuple(f"s{i}" for i in range(len(self.pieces)))
        self.piece_ids = tuple(piece_ids)
        if len(self.piece_ids) != len(self.pieces):
            raise GeometryError("need one id per piece")
        if validate:
            self._check_disjoint()

    def _check_disjoint(self):
        for s1, s2 in combinations(self.pieces, 2):
            if _simplices_meet(s1, s2):
                raise GeometryError("surface pieces must be pairwise disjoint")

    def inverse(self) -> "OrientedSurface":
        return OrientedSurface(self.pieces, rule=self.rule,
                               inverted=not self.inverted,
                               piece_ids=self.piece_ids, validate=False)

    def find_piece(self, p: Point):
        (P,), d = _integer_points(p)  # once for every piece
        for pid, s in zip(self.piece_ids, self.pieces):
            if s._admits(s._numerators(P, d)):
                return pid, s
        return None, None

    def contains(self, p: Point) -> bool:
        return self.find_piece(p)[1] is not None


def joint_surface(s1: OrientedSurface, s2: OrientedSurface) -> OrientedSurface:
    """Joint surface of two disjoint surfaces; its natural signs add."""
    if s1.dim != s2.dim:
        raise GeometryError("ambient dimension mismatch")
    if s1.rule != s2.rule or s1.inverted != s2.inverted:
        raise GeometryError("joint surfaces must share rule and orientation tag")
    ids = tuple(f"a.{i}" for i in s1.piece_ids) + tuple(f"b.{i}" for i in s2.piece_ids)
    return OrientedSurface(s1.pieces + s2.pieces, rule=s1.rule,
                           inverted=s1.inverted, piece_ids=ids)


def _simplices_meet(s1: Simplex, s2: Simplex) -> bool:
    """Whether a vertex or an edge of one simplex, taken closed, meets the
    other's point set, or faces of the two cross (``_faces_cross``).  That
    decides exactly whether two closed simplices meet.  A vertex or an edge
    in an open facet of its own simplex still counts, so pieces that touch
    only there are refused too."""
    return (any(s2.contains(v) for v in s1.vertices)
            or any(s1.contains(v) for v in s2.vertices)
            or any(_segment_hits_simplex(a, b, s2) for a, b in combinations(s1.vertices, 2))
            or any(_segment_hits_simplex(a, b, s1) for a, b in combinations(s2.vertices, 2))
            or _faces_cross(s1, s2))


def _faces_cross(s1: Simplex, s2: Simplex) -> bool:
    """Whether faces F of s1 and G of s2 with dim F, dim G >= 2 and
    dim F + dim G <= k have affine hulls that meet in one point lying in
    both point sets.  The point solves F_0 + sum_i l_i (F_i - F_0) =
    G_0 + sum_j m_j (G_j - G_0) by the integer elimination.  A vertex of the
    intersection of two closed simplices is the one common point of the
    hulls of some face pair, so with the vertex and edge tests of
    ``_simplices_meet`` no meeting of closed simplices is missed."""
    k = s1.ambient_dim
    for m, n in product(range(3, len(s1.vertices) + 1), range(3, len(s2.vertices) + 1)):
        if m + n > k + 2:
            continue
        for F, G in product(combinations(s1.vertices, m), combinations(s2.vertices, n)):
            P, d = _integer_points(*F, *G)
            f0, g0 = P[0], P[m]
            rows = [[p[c] - f0[c] for p in P[1:m]] + [g0[c] - q[c] for q in P[m + 1:]]
                    + [g0[c] - f0[c]] for c in range(k)]
            kind, lam = _solve_integer_rows(rows, m + n - 2)
            if kind == "unique":
                x = tuple((f0[c] + sum(l * (p[c] - f0[c]) for l, p in zip(lam, P[1:m]))) / d
                          for c in range(k))
                if s1.contains(x) and s2.contains(x):
                    return True
    return False


def _segment_hits_simplex(a: Point, b: Point, s: Simplex) -> bool:
    """Whether the closed segment ab meets the point set of s, probed at
    each event's ends and midpoint."""
    return any(s.contains(_lerp(a, b, t))
               for _, lo, hi in _segment_simplex_events(a, b, s)
               for t in {lo, (lo + hi) / 2, hi})


# ---------------------------------------------------------------------------
# Exact segment intersections
# ---------------------------------------------------------------------------


def _segment_segment(a: Point, b: Point, c: Point, d: Point):
    """Intersections of segments ab and cd.

    Returns a list of events: ('point', (s, t)) with ab(s) = cd(t), or
    ('overlap', ((s0, t0), (s1, t1))) for a shared collinear subsegment.
    """
    # s (b - a) + t (c - d) = c - a, over the common denominator of all four
    (A, B, C, D), _ = _integer_points(a, b, c, d)
    rows = [[y - x, z - w, z - x] for x, y, z, w in zip(A, B, C, D)]
    kind, sol = _solve_integer_rows(rows, 2)
    if kind == "none":
        return []
    if kind == "unique":
        s, t = sol
        if 0 <= s <= 1 and 0 <= t <= 1:
            return [("point", (s, t))]
        return []
    # collinear on a common line: project c, d onto ab's parameter (the
    # common denominator cancels)
    u = [y - x for x, y in zip(A, B)]
    den = sum(map(mul, u, u))
    if den == 0:
        return []
    sc = Fraction(sum((z - x) * y for x, y, z in zip(A, u, C)), den)
    sd = Fraction(sum((w - x) * y for x, y, w in zip(A, u, D)), den)
    lo_s, hi_s = min(sc, sd), max(sc, sd)
    lo = max(Fraction(0), lo_s)
    hi = min(Fraction(1), hi_s)
    if lo > hi:
        return []
    def t_of(sv):
        if sd == sc:
            return Fraction(0)
        return (sv - sc) / (sd - sc)
    if lo == hi:
        return [("point", (lo, t_of(lo)))]
    return [("overlap", ((lo, t_of(lo)), (hi, t_of(hi))))]


def _segment_simplex_events(a: Point, b: Point, s: Simplex):
    """Parameter ranges where segment ab meets the closed hull of simplex s.

    Returns events ('point', s*, s*) or ('interval', lo, hi); membership in
    the (possibly partially open) point set is decided by probing.
    """
    # hull values f and barycentric numerators u at a and b, all over the
    # same positive scale; both are affine along the segment
    (A, B), d = _integer_points(a, b)
    fa = fb = 0  # the first hull row that changes along the segment
    for h in s.hull_rows:
        x, y = _affine(h, A, d), _affine(h, B, d)
        if (x > 0 and y > 0) or (x < 0 and y < 0):
            return []  # this row has no zero on the segment
        if x != y:
            if fa == fb:
                fa, fb = x, y
            elif x * fb != y * fa:
                return []  # two rows vanish at different parameters
    ua = [_affine(l, A, d) for l, _ in s.bary_rows]
    ub = [_affine(l, B, d) for l, _ in s.bary_rows]
    if fa != fb:
        # the hull rows vanish together once, at sp = fa / (fa - fb), where
        # lambda_i has the sign of (fa ub_i - fb ua_i) / (fa - fb)
        if fa < fb:
            fa, fb = -fa, -fb
        for x, y in zip(ua, ub):
            if fa * y < fb * x:
                return []
        sp = Fraction(fa, fa - fb)
        return [("point", sp, sp)]
    # in the hull: lambda_i(sp) = (ua_i + sp (ub_i - ua_i)) / (w_i d)
    lo, hi = Fraction(0), Fraction(1)
    for x, y in zip(ua, ub):
        lin = y - x
        if lin == 0:
            if x < 0:
                return []
        elif lin > 0:
            lo = max(lo, Fraction(-x, lin))
        else:
            hi = min(hi, Fraction(-x, lin))
    if lo > hi:
        return []
    if lo == hi:
        return [("point", lo, lo)]
    return [("interval", lo, hi)]


# ---------------------------------------------------------------------------
# Minimal admissible decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionPiece:
    path: PolyPath
    status: str  # 'internal' | 'external'
    t0: float
    t1: float


@dataclass(frozen=True)
class Decomposition:
    parent: PolyPath
    pieces: tuple

    @property
    def breakpoints(self):
        return [p.t1 for p in self.pieces[:-1]]

    def breakpoint_points(self):
        return [p.path.end for p in self.pieces[:-1]]

    def statuses(self):
        return [p.status for p in self.pieces]


def _ordered_cuts(cuts, nseg: int) -> list:
    """The cuts (segment, s) with s < 1, every segment start and the path end,
    in order: any other cut (seg, 1) is the next segment's start (seg + 1, 0)."""
    out = {(seg, Fraction(0)) for seg in range(nseg)}
    out.add((nseg - 1, Fraction(1)))
    out.update(c for c in cuts if c[1] != 1)
    return sorted(out)


def _cut_locations(path: PolyPath, surface: OrientedSurface):
    """All candidate cut locations (segment, s) where membership may change."""
    cuts = set()
    for i, (a, b) in enumerate(zip(path.vertices, path.vertices[1:])):
        for s in surface.pieces:
            for _kind, lo, hi in _segment_simplex_events(a, b, s):
                cuts.add((i, lo))
                cuts.add((i, hi))
    return _ordered_cuts(cuts, len(path.vertices) - 1)


def decompose_minimal(path: PolyPath, surface: OrientedSurface) -> Decomposition:
    """The unique minimal S-admissible decomposition of an edge.

    Pieces alternate between interiors contained in S ('internal') and
    interiors disjoint from S ('external'); every other admissible
    decomposition refines this one.  Exact arithmetic: no tolerance.
    """
    if path.dim != surface.dim:
        raise GeometryError("ambient dimension mismatch")
    locs = _cut_locations(path, surface)
    v = path.vertices

    def member(seg, s):
        return surface.contains(_lerp(v[seg], v[seg + 1], s))

    # every segment start is a cut, so no open interval between consecutive
    # cuts crosses a vertex: one midpoint decides its membership
    inside = [member(i0, (s0 + (s1 if i1 == i0 else 1)) / 2)
              for (i0, s0), (i1, s1) in zip(locs, locs[1:])]
    # cut k stays unless interval k - 1, cut k and interval k all have the
    # same membership; a piece takes the status of its first interval
    keep = [0]
    for k in range(1, len(locs) - 1):
        if not inside[k - 1] == inside[k] == member(*locs[k]):
            keep.append(k)
    keep.append(len(locs) - 1)
    pieces = []
    for a, b in zip(keep, keep[1:]):
        sub = path.subpath_exact(locs[a], locs[b])
        status = "internal" if inside[a] else "external"
        pieces.append(DecompositionPiece(sub, status, path.param_of(*locs[a]),
                                         path.param_of(*locs[b])))
    return Decomposition(parent=path, pieces=tuple(pieces))


# ---------------------------------------------------------------------------
# Intersection functions and punctures
# ---------------------------------------------------------------------------


def _departure_sign(surface: OrientedSurface, v0: Point, v1: Point) -> int:
    """Sign of the side the segment v0 v1 leaves into from v0; 0 for
    off-surface, tangent, or in-surface starts.  Natural and topological rules
    coincide on PL data (tangency collapses), so both map here."""
    pid, piece = surface.find_piece(v0)
    if piece is None:
        return 0
    if piece.normal is None:
        return 0  # no orientation data (always so in codimension >= 2)
    # n . (v1 - v0) for the exact plane row, oriented by the stored normal
    (P0, P1), _ = _integer_points(v0, v1)
    dp = sum(n * (y - x) for n, x, y in zip(piece.plane, P0, P1))
    if dp > 0:
        s = 1
    elif dp < 0:
        s = -1
    else:
        return 0
    return -s if surface.inverted else s


def sigma_eval(surface: OrientedSurface, path: PolyPath, direction: str) -> int:
    """Signed transversality of an edge against an oriented surface.

    direction='outgoing': evaluated at path(0); +1 when the initial segment
    leaves to the positive-normal side, -1 to the negative side, 0 when the
    start is off the surface or the departure is tangent/inside.
    direction='incoming' is the compatible partner at path(1):
    sigma_in(path) = -sigma_out(path reversed), the departure from the last
    vertex toward the one before it.
    """
    v = path.vertices
    if direction == "outgoing":
        return _departure_sign(surface, v[0], v[1])
    if direction == "incoming":
        return -_departure_sign(surface, v[-1], v[-2])
    raise GeometryError(f"unknown direction {direction!r}")


def sigma_pair(surface: OrientedSurface, path: PolyPath):
    return (
        sigma_eval(surface, path, "outgoing"),
        sigma_eval(surface, path, "incoming"),
    )


@dataclass(frozen=True)
class Puncture:
    param: float
    point: tuple
    sign_in: int
    sign_out: int
    is_puncture: bool


def punctures(path: PolyPath, surface: OrientedSurface):
    """All punctures and half-punctures of the path through the surface.

    A joint x between consecutive minimal-decomposition pieces is a puncture
    when the incoming sign of the earlier piece and the outgoing sign of the
    later piece have positive product (the path passes through).  Nonzero
    signs at any piece endpoint mark half-punctures.
    """
    return _punctures_of(decompose_minimal(path, surface), surface)


def _punctures_of(dec: Decomposition, surface: OrientedSurface):
    """punctures() of a path, from its minimal decomposition: at each end
    and joint, the incoming sign of the piece before it and the outgoing
    sign of the piece after it."""
    paths = [p.path for p in dec.pieces]
    params = [0.0] + [p.t0 for p in dec.pieces[1:]] + [1.0]
    out = []
    for before, after, t in zip([None] + paths, paths + [None], params):
        s_in = 0 if before is None else sigma_eval(surface, before, "incoming")
        s_out = 0 if after is None else sigma_eval(surface, after, "outgoing")
        if s_in or s_out:
            out.append(
                Puncture(
                    param=t,
                    point=before.end if after is None else after.start,
                    sign_in=s_in,
                    sign_out=s_out,
                    is_puncture=s_in * s_out > 0,
                )
            )
    return out


def completely_transversal(path: PolyPath, surface: OrientedSurface) -> bool:
    dec = decompose_minimal(path, surface)
    if any(p.status == "internal" for p in dec.pieces):
        return False
    return all(p.is_puncture for p in _punctures_of(dec, surface))


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


class Graph:
    """Finitely many PL edges meeting at most in endpoints."""

    def __init__(self, edges: dict, validate: bool = True):
        self.edges = dict(edges)
        if validate:
            self._check_graph()

    @classmethod
    def from_paths(cls, paths: Iterable[PolyPath]) -> "Graph":
        return cls({f"e{i}": p for i, p in enumerate(paths)})

    def _check_graph(self):
        for p1, p2 in combinations(self.edges.values(), 2):
            if not _edges_meet_only_at_endpoints(p1, p2):
                raise GeometryError("graph edges may intersect only at endpoints")

    @property
    def dim(self) -> int:
        return next(iter(self.edges.values())).dim

    def edge_ids(self):
        return list(self.edges.keys())

    def vertices(self):
        vs = set()
        for e in self.edges.values():
            vs.add(e.start)
            vs.add(e.end)
        return vs

    def split_edge(self, edge_id: str, t: float):
        """Split one edge at arclength parameter t; returns (graph', (id_a, id_b))."""
        path = self.edges[edge_id]
        seg, s = path.locate(t)
        if (seg == 0 and s == 0) or (seg == len(path.vertices) - 2 and s == 1):
            raise GeometryError("split parameter must be interior")
        return self.split_edge_exact(edge_id, (seg, s))

    def split_edge_exact(self, edge_id: str, loc):
        graph, ids = self.split_edges({edge_id: self.edges[edge_id].split_at(*loc)})
        return graph, tuple(ids[edge_id])

    def split_edges(self, pieces: dict):
        """Replace edges by the forward chains of sub-paths that tile them.

        ``pieces`` maps an edge id e to its k >= 2 pieces in order; they are
        named e.a, e.b.a, e.b.b.a, ..., e.b...b, the ids that splitting off
        the first piece k - 1 times gives.  Each chain takes its edge's place
        in the edge order.  Returns (graph', {edge id: piece ids}).
        """
        new_edges, ids = {}, {}
        for eid, path in self.edges.items():
            if eid not in pieces:
                new_edges[eid] = path
                continue
            k = len(pieces[eid])
            names = [eid + ".b" * i + ".a" for i in range(k - 1)] + [eid + ".b" * (k - 1)]
            new_edges.update(zip(names, pieces[eid]))
            ids[eid] = names
        return Graph(new_edges, validate=False), ids


def _segments(path: PolyPath) -> list:
    """The segments (a, b, lo, hi) of a path, with the corners lo and hi of
    each one's exact bounding box."""
    v = path.vertices
    return [(a, b, tuple(map(min, a, b)), tuple(map(max, a, b))) for a, b in zip(v, v[1:])]


def _meetings(pairs):
    """(i, j, kind, data) for each meeting ``_segment_segment`` reports of the
    pairs ((i, seg_i), (j, seg_j)) of enumerated ``_segments`` entries, in
    order; pairs whose boxes are disjoint cannot meet and are skipped."""
    for (i, s1), (j, s2) in pairs:
        if all(l1 <= h2 and l2 <= h1 for l1, h1, l2, h2 in zip(s1[2], s1[3], s2[2], s2[3])):
            for kind, data in _segment_segment(s1[0], s1[1], s2[0], s2[1]):
                yield i, j, kind, data


def _edges_meet_only_at_endpoints(p1: PolyPath, p2: PolyPath) -> bool:
    ends = {p1.start, p1.end} & {p2.start, p2.end}
    v = p1.vertices
    for i, _, kind, data in _meetings(product(enumerate(_segments(p1)),
                                              enumerate(_segments(p2)))):
        if kind == "overlap" or _lerp(v[i], v[i + 1], data[0]) not in ends:
            return False
    return True


def build_graph(paths: Sequence[PolyPath]):
    """Split paths at mutual intersections so edges meet only at endpoints.

    Returns (graph, words): for each input path, its expression as a sequence
    of (edge_id, +1/-1) over the produced graph.  Each path is cut at each of
    its own vertices and at every point and overlap end it shares with
    another path, and equal sub-edges, either way round, become one edge.

    The graph is correct by construction, so it is built without the
    pairwise check of ``Graph(...)``: that its edges meet only at endpoints
    is checked by ``test_build_graph_matches_linear_scan_reference`` in
    ``tests/test_geometry.py``, not at run time.
    """
    paths = list(paths)
    cuts = [set() for _ in paths]  # exact (segment, s) per path
    segs = [list(enumerate(_segments(p))) for p in paths]
    for i, j in combinations(range(len(paths)), 2):
        for si, sj, kind, data in _meetings(product(segs[i], segs[j])):
            for s, t in [data] if kind == "point" else data:
                cuts[i].add((si, s))
                cuts[j].add((sj, t))
    # each path becomes a chain of sub-paths between consecutive cuts;
    # canonical vertex tuples, and their reverses, map to (edge index, sign)
    edge_list = []
    index = {}
    words = []
    for i, p in enumerate(paths):
        ordered = _ordered_cuts(cuts[i], len(p.vertices) - 1)
        word = []
        for loc0, loc1 in zip(ordered, ordered[1:]):
            sub = p.subpath_exact(loc0, loc1)
            found = index.get(sub.vertices)
            if found is None:
                found = len(edge_list), 1
                edge_list.append(sub)
                index[sub.vertices] = found
                index.setdefault(sub.vertices[::-1], (found[0], -1))
            word.append((f"e{found[0]}", found[1]))
        words.append(word)
    graph = Graph({f"e{k}": e for k, e in enumerate(edge_list)}, validate=False)
    return graph, words


# ---------------------------------------------------------------------------
# Mapping paths
# ---------------------------------------------------------------------------


class AffineMap:
    """x -> Q x + b with exact rational Q, b and exact inverse."""

    def __init__(self, matrix, offset=None):
        q = [[Fraction(v) for v in row] for row in matrix]
        k = len(q)
        if any(len(r) != k for r in q):
            raise GeometryError("matrix must be square")
        if offset is None:
            offset = [0] * k
        self.matrix = q
        self.offset = as_point(offset)
        self.dim = k
        self._inv = self._invert()

    def _invert(self):
        k = self.dim
        cols = []
        for c in range(k):
            rhs = [Fraction(1) if r == c else Fraction(0) for r in range(k)]
            kind, sol = solve_exact(self.matrix, rhs)
            if kind != "unique":
                raise GeometryError("affine map is not invertible")
            cols.append(sol)
        return [[cols[c][r] for c in range(k)] for r in range(k)]

    def apply(self, p: Point) -> Point:
        return tuple(
            sum(self.matrix[r][c] * p[c] for c in range(self.dim)) + self.offset[r]
            for r in range(self.dim)
        )

    def apply_inverse(self, p: Point) -> Point:
        shifted = [x - y for x, y in zip(p, self.offset)]
        return tuple(
            sum(self._inv[r][c] * shifted[c] for c in range(self.dim))
            for r in range(self.dim)
        )

    def inverse(self) -> "AffineMap":
        inv_off = self.apply_inverse(as_point([0] * self.dim))
        return AffineMap(self._inv, inv_off)


def _stratified_images(mapping, X: np.ndarray, i, j):
    """Exact images of the float points X (rows) under a stratified map, from
    one batch ``forward``, or None if the map is not affine along each
    segment X[i] X[j] (checked at its midpoint within 1e-9)."""
    images = np.asarray(mapping.forward(X), dtype=float)
    if len(i):
        mids = np.asarray(mapping.forward(0.5 * (X[i] + X[j])), dtype=float)
        if np.any(np.linalg.norm(mids - 0.5 * (images[i] + images[j]), axis=-1) > 1e-9):
            return None
    return [tuple(Fraction(float(c)) for c in v) for v in images]


def _map_point(mapping, p: Point) -> Point:
    """Exact image of one point under an affine or a stratified map."""
    if isinstance(mapping, AffineMap):
        return mapping.apply(p)
    return _stratified_images(mapping, pt_float(p)[None], (), ())[0]


def map_path(mapping, path: PolyPath) -> PolyPath:
    """Image polyline of a path under an affine map or a stratified map.

    Stratified maps are applied after pre-splitting the path at the map's
    declared break loci; each sub-segment must map affinely (checked at
    midpoints within 1e-9), otherwise the image would not be PL and
    PrecisionError is raised.
    """
    if isinstance(mapping, AffineMap):
        return PolyPath([mapping.apply(v) for v in path.vertices], validate=False)
    # stratified map: float evaluation with pre-splitting
    verts = np.array([pt_float(v) for v in path.vertices])
    refined = [verts[0]]
    # one call splits every segment (array-native stratified maps)
    for a, b, params in zip(verts, verts[1:],
                            mapping.path_break_params(verts[:-1], verts[1:])):
        for s in params:
            p = a + s * (b - a)
            if np.linalg.norm(p - refined[-1]) > 1e-14:
                refined.append(p)
        if np.linalg.norm(b - refined[-1]) > 1e-14:
            refined.append(b)
    verts = np.array(refined)
    n = len(verts)
    images = _stratified_images(mapping, verts, np.arange(n - 1), np.arange(1, n))
    if images is None:
        raise PrecisionError(
            "map is not affine along a path segment; refine the pre-split"
        )
    return PolyPath(images, validate=False)


def map_surface(mapping, surface: OrientedSurface) -> OrientedSurface:
    """Image of a simplicial surface under an invertible affine map, or under
    a stratified map that acts affinely on each piece (checked at the edge
    midpoints within 1e-9; DomainError otherwise)."""
    new_pieces = []
    for s in surface.pieces:
        X = np.array([pt_float(v) for v in s.vertices])
        if isinstance(mapping, AffineMap):
            verts = [mapping.apply(v) for v in s.vertices]
        else:
            verts = _stratified_images(mapping, X, *np.triu_indices(len(X), 1))
            if verts is None:
                raise DomainError("stratified map is not affine on the surface")
        normal = None if s.normal is None else _image_normal(mapping, X, s.normal)
        new_pieces.append(Simplex(verts, closed_facets=s.closed_facets, normal=normal))
    return OrientedSurface(new_pieces, rule=surface.rule, inverted=surface.inverted,
                           piece_ids=surface.piece_ids)


def _image_normal(mapping, X: np.ndarray, normal: Point) -> Point:
    """The unit normal L^-T normal / |L^-T normal| of a piece with float
    vertices X, for the linear part L of the map.  It is exact when an
    affine map is rational-orthogonal and rounded from float otherwise; a
    stratified map's L is taken by central differences at the barycenter."""
    if isinstance(mapping, AffineMap):
        k = mapping.dim
        n = tuple(sum(mapping._inv[r][c] * normal[r] for r in range(k)) for c in range(k))
        if sum(map(mul, n, n)) == 1:
            return n
        n = np.array([[float(v) for v in row] for row in mapping._inv]).T @ pt_float(normal)
    else:
        base = np.mean(X, axis=0)
        k, h = len(base), 1e-6
        steps = h * np.eye(k)
        fd = np.asarray(mapping.forward(np.concatenate([base + steps, base - steps])),
                        dtype=float)
        n = np.linalg.solve(((fd[:k] - fd[k:]).T / (2 * h)).T, pt_float(normal))
    return tuple(Fraction(float(c)) for c in n / np.linalg.norm(n))

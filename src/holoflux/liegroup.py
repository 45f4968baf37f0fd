"""Compact-group and representation arithmetic for U(1) and SU(2).

Group elements are unitary matrices: 1x1 phases for U(1), 2x2 special
unitaries for SU(2).  Irreducible representations are explicit: integer
charges q -> z^q for U(1), and spin-j matrices realized as symmetric powers
of the fundamental for SU(2) (so correctness is gated on the homomorphism
property, not on a closed-form table), all evaluated on stacks by
``Irrep.evaluate_many``.

Haar integration comes in two independent flavours:

* an exact Schur-orthogonality engine for rank-1 matrix-element integrals
  (``schur_inner``), and
* a Monte Carlo sampler (``haar_sample_matrices``, with ``haar_sample`` its
  validated one-row case) used as its oracle; it maps raw draws
  (``_haar_raw``) to matrices (``_haar_matrices``), so a caller that must
  interleave its draws with other random numbers shares the same map.

All functions are pure; RNG state is always passed explicitly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "GroupValidationError",
    "UnsupportedInputError",
    "GroupElement",
    "Irrep",
    "LieBasis",
    "identity",
    "u1_element",
    "torus_element",
    "exp_alg",
    "haar_sample",
    "schur_inner",
    "character",
    "square_root",
    "find_character_zero",
    "su2_basis",
    "u1_basis",
    "PAULI",
]

ATOL_CONSTRUCT = 1e-12


class GroupValidationError(ValueError):
    """Input matrix fails a group-membership invariant."""


class UnsupportedInputError(ValueError):
    """Operation not defined for this input (e.g. abelian character zero)."""


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


_SIDE = {"u1": 1, "su2": 2}


@dataclass(frozen=True)
class GroupElement:
    """A unitary matrix tagged with its group ('u1' or 'su2')."""

    group: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        _check_group_stack(self.group, m[None])

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise GroupValidationError("cannot multiply elements of different groups")
        return GroupElement(self.group, self.matrix @ other.matrix)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.matrix.conj().T)

    def power(self, k: int) -> "GroupElement":
        """Integer power; k may be negative or zero."""
        if k == 0:
            return identity(self.group)
        if k == 1:
            return self
        if k == -1:
            return self.inverse()
        base = self.matrix if k > 0 else self.matrix.conj().T
        out = np.eye(base.shape[0], dtype=complex)
        for _ in range(abs(k)):
            out = out @ base
        return GroupElement(self.group, out)

    def dist(self, other: "GroupElement") -> float:
        return float(np.linalg.norm(self.matrix - other.matrix))

    def is_identity(self, atol: float = 1e-12) -> bool:
        return self.dist(identity(self.group)) <= atol


def _check_group_stack(group: str, mats: np.ndarray) -> None:
    """The group checks on every row of an (N, d, d) stack at once: the
    group tag, the shape, det 1 for SU(2) and unitarity within 1e-12.
    ``GroupElement`` runs them on its one matrix, as a stack of one."""
    side = _SIDE.get(group)
    if side is None:
        raise GroupValidationError(f"unknown group tag {group!r}")
    if mats.shape[1:] != (side, side):
        raise GroupValidationError(f"{group} elements are {side}x{side} matrices")
    if group == "su2" and not (np.abs(np.linalg.det(mats) - 1.0) <= ATOL_CONSTRUCT).all():
        raise GroupValidationError("su2 element must have det 1")
    defect = (mats.conj().transpose(0, 2, 1) @ mats - np.eye(side)).reshape(len(mats), -1)
    if not (np.linalg.norm(defect, axis=1) <= ATOL_CONSTRUCT).all():
        raise GroupValidationError("matrix is not unitary within 1e-12")


_IDENTITY = {}  # group -> its identity element, built on first use


def identity(group: str) -> GroupElement:
    """The identity of ``group``: one validated element per group, shared by
    every caller, so its matrix is read-only.  It is built on first use, not
    at import, where validating it would load LAPACK into every process."""
    e = _IDENTITY.get(group)
    if e is None:
        side = _SIDE.get(group)
        if side is None:
            raise GroupValidationError(f"unknown group tag {group!r}")
        e = GroupElement(group, np.eye(side, dtype=complex))
        e.matrix.flags.writeable = False
        _IDENTITY[group] = e
    return e


def u1_element(theta: float) -> GroupElement:
    return GroupElement("u1", np.array([[np.exp(1j * theta)]]))


def torus_element(group: str, theta: float) -> GroupElement:
    """Maximal-torus element: e^{i theta} for U(1), diag(e^{i theta}, e^{-i theta}) for SU(2)."""
    if group == "u1":
        return u1_element(theta)
    return GroupElement("su2", np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))


# ---------------------------------------------------------------------------
# Irreducible representations
# ---------------------------------------------------------------------------


_EVAL_BLOCK = 2**16  # rows x terms per block of ``Irrep.evaluate_many``: ~1 MB arrays


@functools.lru_cache(maxsize=None)
def _spin_table(two_j: int):
    """Spin-j matrix of g = [[a, b], [c, d]] as a polynomial, N = 2j.

    Basis: monomials u^(N-k) v^k / sqrt((N-k)! k!); g acts by substitution
    (u, v) -> (u, v) g, a homomorphism that is the fundamental at j = 1/2.
    Entry (m, k) is the coefficient of u^(N-m) v^m in (au+cv)^(N-k) (bu+dv)^k.
    Returns the exponents of (a, b, c, d) per term (K, 4), each term's
    coefficient, and where each entry's terms start (entries row-major).
    """
    n = two_j
    exps, coefs, starts = [], [], []
    for m in range(n + 1):
        for k in range(n + 1):
            starts.append(len(coefs))
            norm = math.sqrt(math.factorial(n - m) * math.factorial(m)
                             / (math.factorial(n - k) * math.factorial(k)))
            for p in range(max(0, n - m - k), min(n - k, n - m) + 1):
                q = n - m - p
                exps.append((p, q, n - k - p, k - q))
                coefs.append(norm * math.comb(n - k, p) * math.comb(k, q))
    return np.array(exps), np.array(coefs), np.array(starts)


@dataclass(frozen=True)
class Irrep:
    """An irreducible unitary representation.

    label: integer charge for U(1); half-integer spin (Fraction) for SU(2).
    """

    group: str
    label: object  # int (u1) or Fraction (su2)

    def __post_init__(self):
        if self.group == "u1":
            if not isinstance(self.label, int):
                raise GroupValidationError("u1 irrep label must be an integer charge")
            object.__setattr__(self, "_dim", 1)
        elif self.group == "su2":
            lab = Fraction(self.label)
            if lab < 0 or (2 * lab).denominator != 1:
                raise GroupValidationError("su2 irrep label must be a nonnegative half-integer")
            object.__setattr__(self, "label", lab)
            object.__setattr__(self, "_dim", int(2 * lab) + 1)
        else:
            raise GroupValidationError(f"unknown group tag {self.group!r}")

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def is_trivial(self) -> bool:
        return (self.group == "u1" and self.label == 0) or (
            self.group == "su2" and self.label == 0
        )

    def key(self) -> str:
        return f"{self.group}:{self.label}"

    def evaluate(self, g: GroupElement) -> np.ndarray:
        if g.group != self.group:
            raise GroupValidationError("group tag mismatch between irrep and element")
        return self.evaluate_many(g.matrix[None])[0]

    def evaluate_many(self, mats: np.ndarray) -> np.ndarray:
        """rho of an (N, 1, 1) U(1) or (N, 2, 2) SU(2) stack, shape (N, dim, dim).
        The rows are trusted to be group elements (Haar draws, validated elements,
        stacks that passed ``_check_group_stack``)."""
        mats = np.asarray(mats, dtype=complex)
        side = _SIDE[self.group]
        if mats.shape[1:] != (side, side):
            raise GroupValidationError(f"{self.group} stacks have shape (N, {side}, {side})")
        if self.group == "u1":
            return mats**self.label
        exps, coefs, starts = _spin_table(self._dim - 1)
        count = mats.shape[0]
        abcd = mats.reshape(count, 4)
        out = np.empty((count, self._dim**2), dtype=complex)
        rows = max(1, _EVAL_BLOCK // len(coefs))
        for lo in range(0, count, rows):
            powers = abcd[lo:lo + rows, :, None] ** np.arange(self._dim)
            terms = coefs * powers[:, 0, exps[:, 0]]
            for i in (1, 2, 3):
                terms *= powers[:, i, exps[:, i]]
            out[lo:lo + rows] = np.add.reduceat(terms, starts, axis=1)
        return out.reshape(count, self._dim, self._dim)


@functools.lru_cache(maxsize=None)
def parse_irrep(key: str) -> Irrep:
    """Parse 'u1:2' or 'su2:1/2' into an Irrep (cached: keys recur heavily)."""
    group, _, lab = key.partition(":")
    if group == "u1":
        return Irrep("u1", int(lab))
    if group == "su2":
        return Irrep("su2", Fraction(lab))
    raise GroupValidationError(f"unknown irrep key {key!r}")


# ---------------------------------------------------------------------------
# Lie algebra bases and Casimir data
# ---------------------------------------------------------------------------


def _check_antihermitian(x: np.ndarray, atol: float = ATOL_CONSTRUCT) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if np.linalg.norm(x + x.conj().T) > atol:
        raise GroupValidationError("matrix is not anti-hermitian within 1e-12")
    return x


def _derived_spin_matrix(x: np.ndarray, two_j: int) -> np.ndarray:
    """Derived representation d(rho)(X) in the symmetric-power basis.

    The substitution action differentiates to the derivation sending
    u -> X11 u + X21 v and v -> X12 u + X22 v, giving the standard ladder
    entries on the normalized monomial basis.
    """
    n = two_j
    dim = n + 1
    out = np.zeros((dim, dim), dtype=complex)
    x11, x12, x21, x22 = x[0, 0], x[0, 1], x[1, 0], x[1, 1]
    for k in range(dim):
        out[k, k] += (n - k) * x11 + k * x22
        if k + 1 <= n:
            out[k + 1, k] += x21 * math.sqrt((k + 1) * (n - k))
        if k - 1 >= 0:
            out[k - 1, k] += x12 * math.sqrt(k * (n - k + 1))
    return out


@dataclass(frozen=True)
class LieBasis:
    """Basis X_1..X_n of the Lie algebra (anti-hermitian matrices).

    The Casimir eigenvalue for an irrep rho is computed (never assumed) from
    -(1/n) sum_i rho(X_i)^2 = lambda * I; ``casimir_eigenvalue`` raises if the
    averaged square is not scalar within 1e-10.
    """

    group: str
    elements: tuple = field(default_factory=tuple)

    def __post_init__(self):
        elems = tuple(_check_antihermitian(x) for x in self.elements)
        object.__setattr__(self, "elements", elems)

    @property
    def n(self) -> int:
        return len(self.elements)

    def represented(self, rho: Irrep, x: np.ndarray) -> np.ndarray:
        """Matrix of the derived representation d(rho)(X)."""
        if rho.group != self.group:
            raise GroupValidationError("group tag mismatch")
        if self.group == "u1":
            return np.array([[x[0, 0] * rho.label]])
        return _derived_spin_matrix(np.asarray(x, dtype=complex), int(2 * rho.label))

    def casimir_eigenvalue(self, rho: Irrep, atol: float = 1e-10) -> float:
        acc = np.zeros((rho.dim, rho.dim), dtype=complex)
        for x in self.elements:
            rx = self.represented(rho, x)
            acc += rx @ rx
        cas = -acc / self.n
        lam = float(np.trace(cas).real) / rho.dim
        if np.linalg.norm(cas - lam * np.eye(rho.dim)) > atol:
            raise GroupValidationError("averaged generator square is not scalar")
        return lam


def su2_basis() -> LieBasis:
    """Canonical su(2) basis X_k = i sigma_k (Casimir-normalized: lambda_{1/2} = 1)."""
    return LieBasis("su2", tuple(1j * s for s in PAULI))


def u1_basis() -> LieBasis:
    return LieBasis("u1", (np.array([[1j]]),))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def exp_alg(x: np.ndarray, t: float = 1.0) -> GroupElement:
    """Group exponential e^{tX} of an anti-hermitian X (one-parameter subgroup).

    1x1 input yields a U(1) element; 2x2 input must be traceless so the
    exponential lands in SU(2).
    """
    group, mats = _exp_alg_stack(x, [t])
    return GroupElement(group, mats[0])


def _exp_alg_stack(x: np.ndarray, ts) -> tuple:
    """``exp_alg``'s checks on X once, then (group, stack of e^{tX} for every t),
    shape (len(ts), d, d).  The rows are not yet checked as group elements."""
    x = _check_antihermitian(x)
    ts = np.asarray(ts, dtype=float)
    if x.shape == (1, 1):
        return "u1", np.exp(ts * x[0, 0])[:, None, None]
    if x.shape != (2, 2):
        raise GroupValidationError("exp_alg supports 1x1 (u1) and 2x2 (su2) inputs")
    if abs(np.trace(x)) > ATOL_CONSTRUCT:
        raise GroupValidationError("su2 algebra element must be traceless")
    # X = iH with H hermitian; diagonalize H for an exactly unitary result.
    h = -1j * x
    evals, vecs = np.linalg.eigh(h)
    return "su2", (vecs * np.exp(1j * ts[:, None, None] * evals)) @ vecs.conj().T


def haar_sample(rng: np.random.Generator, group: str) -> GroupElement:
    """One Haar-distributed element: a one-row ``haar_sample_matrices`` draw, validated."""
    return GroupElement(group, haar_sample_matrices(rng, group, 1)[0])


def haar_sample_matrices(rng: np.random.Generator, group: str, count: int) -> np.ndarray:
    """Stacked Haar samples, shape (count, d, d); vectorized for Monte Carlo."""
    return _haar_matrices(group, _haar_raw(rng, group, count))


def _haar_raw(rng: np.random.Generator, group: str, count: int) -> np.ndarray:
    """The random numbers behind ``count`` Haar samples: one angle per U(1)
    sample, four normals per SU(2) sample."""
    if group == "u1":
        return rng.uniform(0.0, 2.0 * np.pi, size=count)
    if group == "su2":
        return rng.normal(size=(count, 4))
    raise GroupValidationError(f"unknown group tag {group!r}")


def _haar_matrices(group: str, raw: np.ndarray) -> np.ndarray:
    """Haar samples from their ``_haar_raw`` numbers, shape (count, d, d):
    a U(1) phase, or a normalized SU(2) quaternion [[a, -conj b], [b, conj a]]."""
    if group == "u1":
        return np.exp(1j * raw)[:, None, None]
    v = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    a = v[:, 0] + 1j * v[:, 1]
    b = v[:, 2] + 1j * v[:, 3]
    return np.stack([a, -np.conj(b), b, np.conj(a)], axis=1).reshape(len(v), 2, 2)


def schur_inner(rho: Irrep, mn, rho2: Irrep, mn2) -> complex:
    """Exact Haar integral of rho^m_n * conj(rho2^m2_n2).

    Schur orthogonality of matrix elements of inequivalent (or equal)
    irreps: delta_{rho rho2} delta_{m m2} delta_{n n2} / dim rho.
    """
    if rho.group != rho2.group:
        raise GroupValidationError("irreps belong to different groups")
    m, n = mn
    m2, n2 = mn2
    if rho != rho2 or m != m2 or n != n2:
        return 0.0 + 0.0j
    return complex(1.0 / rho.dim)


def character(rho: Irrep, g: GroupElement) -> complex:
    """Trace of rho(g); a class function."""
    return complex(np.trace(rho.evaluate(g)))


def square_root(g: GroupElement) -> GroupElement:
    """Principal square root h with h^2 = g.

    U(1): half the principal phase.  SU(2): write g = cos(alpha) I +
    sin(alpha) n.sigma* i with alpha in [0, pi] and halve alpha; for g = -I
    the axis is ambiguous and e_3 is chosen, giving diag(i, -i).
    """
    if g.group == "u1":
        theta = float(np.angle(g.matrix[0, 0]))
        return u1_element(theta / 2.0)
    m = g.matrix
    cos_a = np.clip(float(np.trace(m).real) / 2.0, -1.0, 1.0)
    alpha = math.acos(cos_a)
    sin_a = math.sin(alpha)
    if sin_a < 1e-14:
        if cos_a > 0:  # g = I
            return identity("su2")
        axis = np.array([0.0, 0.0, 1.0])  # g = -I: pick e_3
    else:
        # m = cos(a) I + i sin(a) (n . sigma); (n.sigma)[1,0] = n1 + i n2
        ns = (m - cos_a * np.eye(2)) / (1j * sin_a)
        axis = np.array([ns[1, 0].real, ns[1, 0].imag, ns[0, 0].real])
        axis /= np.linalg.norm(axis)
    half = alpha / 2.0
    nsig = axis[0] * PAULI[0] + axis[1] * PAULI[1] + axis[2] * PAULI[2]
    return GroupElement("su2", math.cos(half) * np.eye(2) + 1j * math.sin(half) * nsig)


def find_character_zero(rho: Irrep, atol: float = 1e-10) -> GroupElement:
    """An element g with |chi_rho(g^2)| <= atol (nonabelian irreps only).

    Searches the maximal torus: chi_j(diag(e^{i p}, e^{-i p})) is the
    Dirichlet kernel sin((2j+1)p)/sin(p), real and sign-changing, so a
    bracketed bisection on p -> chi(g(p)^2) converges to a zero.
    """
    if rho.dim < 2:
        raise UnsupportedInputError("abelian irreps have nowhere-vanishing characters")

    def chi2(phi: float) -> float:
        g = torus_element(rho.group, phi)
        return float(character(rho, g @ g).real)

    grid = np.linspace(1e-3, np.pi / 2 - 1e-3, 2001)
    vals = [chi2(p) for p in grid]
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            return torus_element(rho.group, float(a))
        if fa * fb < 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = chi2(mid)
                if fa * fm <= 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            g = torus_element(rho.group, 0.5 * (a + b))
            if abs(character(rho, g @ g)) <= atol:
                return g
    raise UnsupportedInputError("no character zero found on the torus grid")

"""Diagonal quadratic forms over Q.

Complete invariants (dimension, signed determinant, signature, Hasse
symbols), isometry and Hasse-Minkowski isotropy decisions, Pfister
constructors, Witt decomposition, and the two-residue model for forms over
the Laurent series field Q((t)).  Gram matrices are diagonalized by
fraction-free integer elimination.

Entries are canonical square classes.  The public constructor factors
its input once; ``scale``, ``tensor``, ``direct_sum`` and ``pfister``
build their entries from entries that are already classes, by
``class_product`` (a gcd, no factoring).  The Hasse symbol at a place is
the product of n-1 Hilbert symbols (a_i, a_(i+1)...a_n)_v, by
bilinearity, and only the distinct entries are factored, once, to find
the places where it can be -1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .arith import (
    Place,
    REAL_PLACE,
    TWO,
    SquareClass,
    _hilbert,
    _is_local_square,
    class_product,
    odd_prime_divisors,
    parse_rational,
    squarefree_class,
)


class EmptySlots(ValueError):
    """Pfister constructor called with no slots."""


@dataclass(frozen=True)
class QuadForm:
    """A nondegenerate diagonal quadratic form; entries are square classes."""

    diag: tuple[SquareClass, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "diag", tuple(squarefree_class(a) for a in self.diag)
        )

    @classmethod
    def _of_classes(cls, diag: tuple[SquareClass, ...]) -> "QuadForm":
        """A form on entries that are already canonical square classes;
        skips the factoring in ``__post_init__``."""
        q = object.__new__(cls)
        object.__setattr__(q, "diag", diag)
        return q

    @property
    def dim(self) -> int:
        return len(self.diag)

    def __repr__(self):
        return f"QuadForm({list(self.diag)})"


@dataclass(eq=False)
class FormInvariants:
    """Complete isometry invariants of a form over Q.

    ``hasse`` records the symbol at each relevant place; at omitted places it
    is +1, and equality treats missing keys accordingly.
    """

    dim: int
    disc: SquareClass
    signature: tuple[int, int]
    hasse: dict[Place, int] = field(default_factory=dict)

    def hasse_at(self, place: Place) -> int:
        return self.hasse.get(place, 1)

    def __eq__(self, other):
        if not isinstance(other, FormInvariants):
            return NotImplemented
        if (self.dim, self.disc, self.signature) != (
            other.dim,
            other.disc,
            other.signature,
        ):
            return False
        places = set(self.hasse) | set(other.hasse)
        return all(self.hasse_at(v) == other.hasse_at(v) for v in places)


INVARIANTS_CACHE_SIZE = 2 ** 13  # entries of the diagonal -> invariants cache


@functools.lru_cache(maxsize=INVARIANTS_CACHE_SIZE)
def _invariants(diag: tuple[SquareClass, ...]) -> FormInvariants:
    dim = len(diag)
    if dim == 0:
        return FormInvariants(0, 1, (0, 0), {})
    # suffix[i] is the class of diag[i+1] * ... * diag[n-1]; by
    # bilinearity prod_{i<j} (a_i, a_j)_v = prod_i (a_i, suffix[i])_v
    suffix = [1] * dim
    for i in range(dim - 1, 0, -1):
        suffix[i - 1] = class_product(diag[i], suffix[i])
    disc = class_product(diag[0], suffix[0])
    pos = positive_count(diag)
    primes = {0, 2}  # the real place and 2, then each odd prime of an entry
    for a in set(diag):
        primes.update(odd_prime_divisors(a))
    hasse = {}
    for p in primes:
        eps = 1
        for a, s in zip(diag[:-1], suffix):
            eps *= _hilbert(a, s, p)
        hasse[Place(p)] = eps
    return FormInvariants(dim, disc, (pos, dim - pos), hasse)


def invariants(q: QuadForm) -> FormInvariants:
    return _invariants(q.diag)


def positive_count(entries) -> int:
    """Number of positive entries: the signature's first half."""
    return sum(1 for a in entries if a > 0)


def is_isometric(q1: QuadForm, q2: QuadForm) -> bool:
    """Isometry over Q; dim, disc, signature and Hasse symbols are complete.

    Dimension and signature are read off the entries first, so forms that
    differ at the real place need no Hasse symbols.
    """
    if q1.dim != q2.dim or positive_count(q1.diag) != positive_count(q2.diag):
        return False
    return invariants(q1) == invariants(q2)


def _isotropic_inv(dim, disc, signature, hasse: dict) -> bool:
    # local conditions per dimension; Hasse-Minkowski glues them over Q
    pos, neg = signature
    if dim <= 1:
        return False
    if dim >= 5:
        return pos > 0 and neg > 0
    if dim == 2:
        return disc == -1
    places = set(hasse) | {REAL_PLACE, TWO}
    if dim == 3:
        for v in places:
            if hasse.get(v, 1) != _hilbert(-1, -disc, v.p):
                return False
        return True
    # dim == 4: anisotropic at v iff disc is a local square and the Hasse
    # symbol differs from (-1,-1)_v
    for v in places:
        if _is_local_square(disc, v.p) and hasse.get(v, 1) != _hilbert(-1, -1, v.p):
            return False
    return True


def is_isotropic(q: QuadForm) -> bool:
    """Hasse-Minkowski isotropy decision over Q."""
    inv = invariants(q)
    return _isotropic_inv(inv.dim, inv.disc, inv.signature, inv.hasse)


def witt_decompose(q: QuadForm) -> tuple[int, int]:
    """Witt index and anisotropic kernel dimension.

    Hyperbolic planes are split off by invariant bookkeeping: removing one
    flips the sign of the determinant class and twists each Hasse symbol by
    (-1, disc')_v.
    """
    inv = invariants(q)
    dim, disc, (pos, neg) = inv.dim, inv.disc, inv.signature
    hasse = dict(inv.hasse)
    index = 0
    while dim >= 2 and _isotropic_inv(dim, disc, (pos, neg), hasse):
        new_disc = -disc
        hasse = {v: e * _hilbert(-1, new_disc, v.p) for v, e in hasse.items()}
        dim -= 2
        disc = new_disc
        pos -= 1
        neg -= 1
        index += 1
    return index, dim


def represents_subform(q: QuadForm, s: QuadForm) -> bool:
    """Whether q is isometric to s orthogonal to some complement."""
    if s.dim > q.dim:
        raise ValueError("subform candidate exceeds the ambient dimension")
    if s.dim == 0:
        return True
    index, _ = witt_decompose(direct_sum(q, scale(s, -1)))
    return index >= s.dim


def scale(q: QuadForm, c) -> QuadForm:
    c = squarefree_class(c)
    return QuadForm._of_classes(tuple(class_product(c, a) for a in q.diag))


def direct_sum(*forms: QuadForm) -> QuadForm:
    diag: tuple = ()
    for q in forms:
        diag += q.diag
    return QuadForm._of_classes(diag)


def tensor(q1: QuadForm, q2: QuadForm) -> QuadForm:
    return QuadForm._of_classes(tuple(class_product(a, b) for a in q1.diag for b in q2.diag))


def pfister(slots) -> QuadForm:
    """The Pfister form <<a_1,...,a_n>> = tensor of <1, -a_i>, n in 1..3."""
    slots = [squarefree_class(a) for a in slots]
    if not slots:
        raise EmptySlots("a Pfister form needs at least one slot")
    if len(slots) > 3:
        raise ValueError("at most three Pfister slots are supported")
    diag = (1,)
    for a in slots:
        diag += tuple(class_product(-a, x) for x in diag)
    return QuadForm._of_classes(diag)


@dataclass(frozen=True)
class LaurentForm:
    """q1 + t*q2 over Q((t)), stored by its two residue forms."""

    q1: QuadForm
    q2: QuadForm


def laurent_is_isotropic(f: LaurentForm) -> bool:
    """Springer: q1 + t*q2 is isotropic iff one residue form is."""
    return is_isotropic(f.q1) or is_isotropic(f.q2)


def gram_diagonal(rows) -> list[Fraction]:
    """Diagonal entries of a symmetric rational matrix under congruence.

    Fraction-free (Bareiss) symmetric elimination (Cohen, *A Course in
    Computational Algebraic Number Theory*, section 2.2).  Rational input
    is first scaled to the integer Gram matrix of the basis multiplied by
    the common denominator L.  After k pivots the active block holds D_k
    times the Schur complement, where D_k is the k-th leading principal
    minor, so every update divides exactly and the k-th pivot is
    D_k / D_(k-1) / L^2, a reduced Fraction.  A zero pivot is replaced by
    the next nonzero diagonal entry (a swap) or, failing that, made
    nonzero by the basis move e_i += e_j on the first nonzero off-diagonal
    entry.  Raises ValueError on degenerate input.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    lsq = 1  # L^2
    if any(type(x) is not int for row in m for x in row):
        m = [[Fraction(x) for x in row] for row in m]
        lsq = lcm(*(x.denominator for row in m for x in row)) ** 2
        m = [[int(x * lsq) for x in row] for row in m]
    diag = []
    minor = 1  # the leading principal minor of the pivots taken so far
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if pivot is not None:
                _swap_sym(m, k, pivot)
            else:
                found = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j] != 0),
                    None,
                )
                if found is None:
                    raise ValueError("degenerate symmetric matrix")
                i, j = found
                # basis move e_i += e_j makes the (i,i) entry 2*m[i][j]
                for t in range(k, n):
                    m[i][t] += m[j][t]
                for t in range(k, n):
                    m[t][i] += m[t][j]
                if i != k:
                    _swap_sym(m, k, i)
        p = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            for j in range(i, n):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // minor
                m[j][i] = row_i[j]
        diag.append(Fraction(p, minor * lsq))
        minor = p
    return diag


def _swap_sym(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def quadform_from_gram(rows) -> QuadForm:
    """Diagonalize a symmetric rational Gram matrix into a QuadForm."""
    return QuadForm(tuple(gram_diagonal(rows)))


def quadform_to_json(q: QuadForm) -> dict:
    return {"diag": list(q.diag)}


def quadform_from_json(obj) -> QuadForm:
    return QuadForm(tuple(parse_rational(x) for x in obj["diag"]))


def laurent_to_json(f: LaurentForm) -> dict:
    return {"q1": list(f.q1.diag), "q2": list(f.q2.diag)}


def laurent_from_json(obj) -> LaurentForm:
    return LaurentForm(
        QuadForm(tuple(parse_rational(x) for x in obj["q1"])),
        QuadForm(tuple(parse_rational(x) for x in obj["q2"])),
    )

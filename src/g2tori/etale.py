"""Quadratic and cubic etale Q-algebras.

Discriminants, Galois images inside Z/2 x S3, norms, and trace-transfer
forms.  Elements of a cubic algebra are coordinate triples: components for
the split and partially split variants, power-basis coordinates for a cubic
field given by a monic integer polynomial.  A field generator is checked
for rational roots by integer bisection, in time polynomial in its digits.
The transfer form Tr(lam x^2) is linear in lam: its Gram matrix is built
from the integer tensors Tr(b_k b_i b_j), and the lambda candidates of the
hermitian search come one height shell at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import isqrt

from .arith import SquareClass, is_square_rational, parse_rational, squarefree_class
from .quadforms import QuadForm, quadform_from_gram
from .weyl import A3, IDENTITY_PERM, S3, WeylElement, det3, mat_mul, perm_sign, trace, weyl_element


class ReduciblePolynomial(ValueError):
    """A cubic offered as a field generator factors over Q."""


class NonUnitLambda(ValueError):
    """The element is not invertible in the cubic algebra."""


@dataclass(frozen=True)
class QuadraticEtale:
    """Quadratic etale algebra Q(sqrt(d)); d = 1 is the split algebra QxQ."""

    d: SquareClass

    def __post_init__(self):
        object.__setattr__(self, "d", squarefree_class(self.d))


@dataclass(frozen=True)
class CubicEtale:
    """Cubic etale algebra: split, partially split, or a cubic field."""

    kind: str
    e: SquareClass | None = None
    poly: tuple[int, int, int] | None = None  # (c0, c1, c2): x^3+c2x^2+c1x+c0

    @staticmethod
    def split() -> "CubicEtale":
        return CubicEtale("split")

    @staticmethod
    def partial(e) -> "CubicEtale":
        e = squarefree_class(e)
        if e == 1:
            raise ValueError("a trivial square class means the split algebra")
        return CubicEtale("partial", e=e)

    @staticmethod
    def field(c0: int, c1: int, c2: int) -> "CubicEtale":
        if not all(isinstance(c, int) for c in (c0, c1, c2)):
            raise ValueError("cubic coefficients must be integers")
        if _has_rational_root(c0, c1, c2):
            raise ReduciblePolynomial(
                "cubic factors over Q; use split() or partial(e) instead"
            )
        if _cubic_disc(c0, c1, c2) == 0:
            raise ReduciblePolynomial("cubic has a repeated root")
        return CubicEtale("field", poly=(int(c0), int(c1), int(c2)))


def _has_rational_root(c0, c1, c2) -> bool:
    """Whether the monic integer cubic x^3+c2x^2+c1x+c0 has a rational root.

    A rational root is an integer r with |r| <= 1 + max|c_i| (Cauchy).  f is
    monotone on each side of its real critical points
    (-c2 -+ sqrt(c2^2-3c1))/3, so integer bisection on the three monotone
    stretches finds any integer root with O(digits) evaluations.
    """

    def f(x):
        return ((x + c2) * x + c1) * x + c0

    bound = 1 + max(abs(c0), abs(c1), abs(c2))

    def root_in(lo, hi, sign):
        # sign * f is increasing on the integers lo..hi
        lo, hi = max(lo, -bound), min(hi, bound)
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo == hi and f(lo) == 0

    disc = c2 * c2 - 3 * c1
    if disc <= 0:  # f' = 3x^2 + 2c2x + c1 >= 0: f increasing
        return root_in(-bound, bound, 1)
    s = isqrt(disc)
    # u1 < x1 <= u1 + 1 and u2 <= x2 < u2 + 1 for the critical points x1 < x2,
    # since s <= sqrt(disc) < s + 1 and both bounds are thirds of integers
    u1, u2 = (-c2 - s - 1) // 3, (s - c2) // 3
    return root_in(-bound, u1, 1) or root_in(u1 + 1, u2, -1) or root_in(u2 + 1, bound, 1)


def _cubic_disc(c0, c1, c2) -> int:
    a, b, c = c2, c1, c0
    return 18 * a * b * c - 4 * a ** 3 * c + a * a * b * b - 4 * b ** 3 - 27 * c * c


@dataclass(frozen=True)
class TorusType:
    """A couple (k', l): the label of a maximal-torus type."""

    kprime: QuadraticEtale
    l: CubicEtale


def cubic_discriminant(l: CubicEtale) -> SquareClass:
    """Discriminant square class of the cubic algebra."""
    if l.kind == "split":
        return 1
    if l.kind == "partial":
        return l.e
    return squarefree_class(_cubic_disc(*l.poly))


def basis_mult_matrices(l: CubicEtale) -> tuple:
    """Integer matrices of multiplication by the three basis vectors."""
    if l.kind == "split":
        return tuple(
            tuple(tuple(1 if (r == c == i) else 0 for c in range(3)) for r in range(3))
            for i in range(3)
        )
    if l.kind == "partial":
        e = l.e
        m0 = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
        m1 = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
        m2 = ((0, 0, 0), (0, 0, e), (0, 1, 0))
        return (m0, m1, m2)
    c0, c1, c2 = l.poly
    m0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    m1 = ((0, 0, -c0), (1, 0, -c1), (0, 1, -c2))  # companion matrix of the cubic
    m2 = mat_mul(m1, m1)
    return (m0, m1, m2)


def coerce_element(l: CubicEtale, lam) -> tuple[Fraction, Fraction, Fraction]:
    lam = tuple(parse_rational(x) for x in lam)
    if l.kind == "partial" and len(lam) == 2:
        lam = (lam[0], lam[1], Fraction(0))
    if len(lam) != 3:
        raise ValueError("elements are coordinate triples")
    return lam


def mult_matrix(l: CubicEtale, lam):
    lam = coerce_element(l, lam)
    mats = basis_mult_matrices(l)
    return tuple(
        tuple(sum(lam[k] * mats[k][i][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def element_norm(l: CubicEtale, lam) -> Fraction:
    return det3(mult_matrix(l, lam))


def norm_is_square(l: CubicEtale, lam) -> bool:
    """Whether the norm of an invertible element is a rational square."""
    n = element_norm(l, lam)
    if n == 0:
        raise NonUnitLambda("element is not invertible")
    return is_square_rational(n)


def transfer_tensors(l: CubicEtale) -> tuple:
    """Integer tensors T_k[i][j] = Tr(b_k b_i b_j) of the basis b.

    Tr(lam * x^2) is linear in lam, so its Gram matrix is sum_k lam_k T_k.
    Column j of M_i holds the coordinates of b_i b_j, and
    Tr(b_k b_a) = sum_r Tr(b_r) (M_k)[r][a].
    """
    mats = basis_mult_matrices(l)
    tr = [trace(m) for m in mats]
    pair = [[sum(tr[r] * m[r][a] for r in range(3)) for a in range(3)] for m in mats]
    return tuple(
        tuple(tuple(sum(w[a] * m[a][j] for a in range(3)) for j in range(3)) for m in mats)
        for w in pair
    )


def transfer_gram(tensors, lam) -> list[list]:
    """Gram matrix sum_k lam_k T_k of x -> Tr(lam * x^2)."""
    t0, t1, t2 = tensors
    x, y, z = lam
    return [
        [x * a + y * b + z * c for a, b, c in zip(r0, r1, r2)]
        for r0, r1, r2 in zip(t0, t1, t2)
    ]


def trace_transfer_form(l: CubicEtale, lam) -> QuadForm:
    """The 3-dimensional form x -> Tr(lam * x^2), diagonalized.

    The Gram matrix is sum_k lam_k T_k over the integer tensors of
    ``transfer_tensors``; lam may be rational.
    """
    lam = coerce_element(l, lam)
    if element_norm(l, lam) == 0:
        raise NonUnitLambda("transfer needs an invertible scaling element")
    lam = tuple(x.numerator if x.denominator == 1 else x for x in lam)
    return quadform_from_gram(transfer_gram(transfer_tensors(l), lam))


def galois_image(t: TorusType) -> tuple[WeylElement, ...]:
    """Image of the Galois action inside W0 = Z/2 x S3 as an element list.

    The sign part is onto iff k' is a field; the permutation part is 1,
    <(12)>, A3, or S3 for split / partially split / cyclic-cubic / generic
    cubic.  When both parts are nontrivial and the cubic discriminant equals
    the quadratic class, the correlated (graph) subgroup is returned.
    """
    d = t.kprime.d
    delta = cubic_discriminant(t.l)
    if t.l.kind == "split":
        perms = (IDENTITY_PERM,)
    elif t.l.kind == "partial":
        perms = (IDENTITY_PERM, (2, 1, 3))
    elif delta == 1:
        perms = A3
    else:
        perms = S3
    if d == 1:
        pairs = [(1, p) for p in perms]
    elif len(perms) > 1 and delta == d:
        pairs = [(perm_sign(p), p) for p in perms]
    else:
        pairs = [(s, p) for s, p in _cartesian((1, -1), perms)]
    return tuple(weyl_element(s, p) for s, p in sorted(pairs, key=lambda sp: (-sp[0], sp[1])))


def lambda_candidates(height: int):
    """Integer coordinate triples ordered by height, then lexicographically.

    Each height shell max|x_i| = h is generated directly: a triple whose
    first or second coordinate reaches h takes every last coordinate, any
    other only -h and h.
    """
    for h in range(1, height + 1):
        full = range(-h, h + 1)
        ends = (-h, h)
        for a in full:
            for b in full:
                for c in full if h in (abs(a), abs(b)) else ends:
                    yield (a, b, c)


def quadratic_to_json(kp: QuadraticEtale) -> dict:
    return {"quadratic": kp.d}


def quadratic_from_json(obj) -> QuadraticEtale:
    return QuadraticEtale(obj["quadratic"])


def cubic_to_json(l: CubicEtale) -> dict:
    if l.kind == "split":
        return {"cubic": "split"}
    if l.kind == "partial":
        return {"cubic": {"partial": l.e}}
    return {"cubic": {"field": list(l.poly)}}


def cubic_from_json(obj) -> CubicEtale:
    spec = obj["cubic"]
    if spec == "split":
        return CubicEtale.split()
    if "partial" in spec:
        return CubicEtale.partial(spec["partial"])
    c0, c1, c2 = spec["field"]
    return CubicEtale.field(c0, c1, c2)

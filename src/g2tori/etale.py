"""Quadratic and cubic etale Q-algebras.

Discriminants, Galois images inside Z/2 x S3, norms, and trace-transfer
forms.  Elements of a cubic algebra are coordinate triples: components for
the split and partially split variants, power-basis coordinates for a cubic
field given by a monic integer polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from .arith import SquareClass, is_square_rational, squarefree_class
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
        if _has_rational_root(c0, c1, c2):
            raise ReduciblePolynomial(
                "cubic factors over Q; use split() or partial(e) instead"
            )
        if _cubic_disc(c0, c1, c2) == 0:
            raise ReduciblePolynomial("cubic has a repeated root")
        return CubicEtale("field", poly=(int(c0), int(c1), int(c2)))


def _has_rational_root(c0, c1, c2) -> bool:
    # monic integer cubic: a rational root is an integer divisor of c0
    if c0 == 0:
        return True
    for r in range(1, abs(c0) + 1):
        if abs(c0) % r:
            continue
        for root in (r, -r):
            if root ** 3 + c2 * root ** 2 + c1 * root + c0 == 0:
                return True
    return False


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
    lam = tuple(Fraction(x) for x in lam)
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


def trace_transfer_form(l: CubicEtale, lam) -> QuadForm:
    """The 3-dimensional form x -> Tr(lam * x^2), diagonalized.

    Gram entries are traces Tr(lam * b_i * b_j) computed from multiplication
    matrices in the component or power basis.
    """
    mlam = mult_matrix(l, lam)
    if det3(mlam) == 0:
        raise NonUnitLambda("transfer needs an invertible scaling element")
    mats = basis_mult_matrices(l)
    products = [mat_mul(mlam, m) for m in mats]
    return quadform_from_gram([[trace(mat_mul(mi, mj)) for mj in mats] for mi in products])


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
    """Integer coordinate triples ordered by height, then lexicographically."""
    for h in range(1, height + 1):
        for lam in _cartesian(range(-h, h + 1), repeat=3):
            if max(abs(x) for x in lam) == h:
                yield lam


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

"""Cayley-Dickson composition algebras over Q with exact structure constants.

An algebra is a list of doubling scalars (a), (a, b), or (a, b, c) giving
dimension 2, 4, or 8; the basis is (basis of D, basis of D*a) recursively.
The product follows the doubling rule

    (x + y a)(u + v a) = (x u + c conj(v) y) + (v x + y conj(u)) a

so the norm satisfies N(x + y a) = N(x) - c N(y) and the quaternion (a, b)
has i^2 = a, j^2 = b with norm form <1, -a, -b, ab>.

The norm form is built once per algebra; ``embeds_quaternion`` constructs
its doubling scalar from the signature, while ``common_slot`` searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import parse_rational, rational_to_json, squarefree_class
from .etale import QuadraticEtale
from .hermitian import HermitianForm, normalize_trivial_disc
from .quadforms import QuadForm, is_isometric, is_isotropic, pfister, represents_subform


class DimensionMismatch(ValueError):
    """Element length does not match the algebra dimension."""


class RankOneAlgebra(ValueError):
    """Splitting is only defined in dimensions 2, 4 and 8."""


DEFAULT_WITNESS_BOUND = 30


@dataclass(frozen=True)
class CompositionAlgebra:
    """Composition algebra built by Cayley-Dickson doubling over Q."""

    params: tuple[Fraction, ...]

    def __post_init__(self):
        params = tuple(parse_rational(x) for x in self.params)
        if len(params) > 3:
            raise ValueError("at most three doubling steps (dimension 8)")
        if any(x == 0 for x in params):
            raise ValueError("doubling scalars must be nonzero")
        object.__setattr__(self, "params", params)

    @property
    def dim(self) -> int:
        return 2 ** len(self.params)

    @cached_property
    def norm_form(self) -> QuadForm:
        """The Pfister form on the doubling scalars, built once."""
        return pfister(self.params) if self.params else QuadForm((1,))

    def __repr__(self):
        return f"CompositionAlgebra({[str(p) for p in self.params]})"


Element = tuple[Fraction, ...]


def element(algebra: CompositionAlgebra, coords) -> Element:
    coords = tuple(parse_rational(x) for x in coords)
    if len(coords) != algebra.dim:
        raise DimensionMismatch(
            f"expected {algebra.dim} coordinates, got {len(coords)}"
        )
    return coords


def unit(algebra: CompositionAlgebra) -> Element:
    return basis_element(algebra, 0)


def basis_element(algebra: CompositionAlgebra, i: int) -> Element:
    return tuple(
        Fraction(1 if t == i else 0) for t in range(algebra.dim)
    )


def _mul(params, x, y):
    if not params:
        return (x[0] * y[0],)
    c = params[-1]
    sub = params[:-1]
    h = len(x) // 2
    p, q = x[:h], x[h:]
    u, v = y[:h], y[h:]
    left = _vadd(_mul(sub, p, u), _vscale(c, _mul(sub, _conj(sub, v), q)))
    right = _vadd(_mul(sub, v, p), _mul(sub, q, _conj(sub, u)))
    return left + right


def _conj(params, x):
    if not params:
        return x
    h = len(x) // 2
    return _conj(params[:-1], x[:h]) + tuple(-t for t in x[h:])


def _norm(params, x):
    if not params:
        return x[0] * x[0]
    h = len(x) // 2
    return _norm(params[:-1], x[:h]) - params[-1] * _norm(params[:-1], x[h:])


def _vadd(a, b):
    return tuple(s + t for s, t in zip(a, b))


def _vscale(c, a):
    return tuple(c * t for t in a)


def multiply(algebra: CompositionAlgebra, x, y) -> Element:
    return _mul(algebra.params, element(algebra, x), element(algebra, y))


def conjugate(algebra: CompositionAlgebra, x) -> Element:
    return _conj(algebra.params, element(algebra, x))


def norm(algebra: CompositionAlgebra, x) -> Fraction:
    return _norm(algebra.params, element(algebra, x))


def trace_bilinear(algebra: CompositionAlgebra, x, y) -> Fraction:
    x = element(algebra, x)
    y = element(algebra, y)
    return norm(algebra, _vadd(x, y)) - norm(algebra, x) - norm(algebra, y)


def norm_form(algebra: CompositionAlgebra) -> QuadForm:
    """The norm as a diagonal form: the Pfister form on the doubling scalars."""
    return algebra.norm_form


def is_split(algebra: CompositionAlgebra) -> bool:
    """Split iff the norm form is isotropic."""
    if algebra.dim == 1:
        raise RankOneAlgebra("the base field is neither split nor division")
    return is_isotropic(norm_form(algebra))


def embeds_quadratic(algebra: CompositionAlgebra, kp: QuadraticEtale) -> bool:
    """Whether the quadratic etale algebra embeds as a composition
    subalgebra, i.e. <1, -d> is a subform of the norm form."""
    if algebra.dim != 8:
        raise DimensionMismatch("quadratic embedding decisions need an octonion algebra")
    return represents_subform(norm_form(algebra), QuadForm((1, -kp.d)))


def square_class_candidates(bound: int):
    """Squarefree integers ordered by absolute value, positive first."""
    for n in range(1, bound + 1):
        if squarefree_class(n) != n:
            continue
        yield n
        yield -n


def embeds_quaternion(algebra: CompositionAlgebra, quat: CompositionAlgebra):
    """Doubling scalar c with algebra = C(quat, c), or None when the norm
    <<a, b>> of quat is not a subform.  A 3-fold Pfister form over Q is
    fixed by its signature: c = 1 makes <<a, b, c>> hyperbolic, as for a
    split algebra, and c = -1 keeps a definite <<a, b>> definite."""
    if algebra.dim != 8 or quat.dim != 4:
        raise DimensionMismatch("need an octonion algebra and a quaternion algebra")
    if not represents_subform(norm_form(algebra), norm_form(quat)):
        return None
    c = 1 if is_split(algebra) else -1
    if not is_isometric(norm_form(algebra), pfister([*quat.params, c])):
        raise AssertionError(f"doubling {quat} by {c} does not give {algebra}")
    return c


def common_slot(d1, d2, quat: CompositionAlgebra, bound: int = DEFAULT_WITNESS_BOUND):
    """A slot c with (d1, c) and (d2, c) both isomorphic to quat, or None."""
    d1 = squarefree_class(d1)
    d2 = squarefree_class(d2)
    if d1 == 1 or d2 == 1:
        raise ValueError("common slots are for nontrivial quadratic classes")
    if quat.dim != 4:
        raise DimensionMismatch("the target must be a quaternion algebra")
    target = norm_form(quat)
    for c in square_class_candidates(bound):
        if is_isometric(pfister([d1, c]), target) and is_isometric(
            pfister([d2, c]), target
        ):
            return c
    return None


def from_hermitian(d, h: HermitianForm) -> CompositionAlgebra:
    """The octonion algebra of a trivial-discriminant rank-3 hermitian form:
    doubling parameters (d, b, c) with norm form <<d, b, c>>."""
    d = squarefree_class(d)
    if h.d != d:
        raise ValueError("hermitian form lives over a different quadratic algebra")
    b, c = normalize_trivial_disc(h)
    return CompositionAlgebra((d, b, c))


def algebra_to_json(algebra: CompositionAlgebra) -> dict:
    return {"cayley_dickson": [rational_to_json(p) for p in algebra.params]}


def algebra_from_json(obj) -> CompositionAlgebra:
    return CompositionAlgebra(tuple(parse_rational(x) for x in obj["cayley_dickson"]))


def element_to_json(x: Element) -> dict:
    return {"coords": [rational_to_json(c) for c in x]}


def element_from_json(algebra: CompositionAlgebra, obj) -> Element:
    return element(algebra, tuple(parse_rational(c) for c in obj["coords"]))

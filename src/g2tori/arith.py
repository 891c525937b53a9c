"""Exact arithmetic kernel: square classes, places of Q, Hilbert symbols.

Everything in this module is integer or fraction arithmetic with no
tolerances.  A square class (an element of Q*/Q*^2) is represented by its
canonical squarefree integer, so equality of classes is plain ``==`` on
ints.  The product of two classes a and b is (a/g)*(b/g) with
g = gcd(a, b) (``class_product``): exact and squarefree with no trial
division, so a class is factored at most once, when it is first made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

Rational = Fraction
SquareClass = int

DEFAULT_FACTOR_BOUND = 10 ** 6
HILBERT_CACHE_SIZE = 2 ** 14  # entries of the (a, b, p) Hilbert symbol cache


class ZeroInput(ValueError):
    """The zero element has no square class."""


class FactorizationOverflow(ArithmeticError):
    """A cofactor survived trial division past the configured bound."""


def is_prime(n: int) -> bool:
    """Primality by trial division; intended for desk-scale inputs."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: the real place or a finite prime.

    ``p == 0`` encodes the real place, any other value must be prime.
    """

    p: int

    def __post_init__(self):
        if self.p != 0 and not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    @staticmethod
    def real() -> "Place":
        return REAL_PLACE

    @staticmethod
    def prime(p: int) -> "Place":
        return Place(p)

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __repr__(self):
        return "Place(oo)" if self.p == 0 else f"Place({self.p})"


REAL_PLACE = Place(0)
TWO = Place(2)


def squarefree_class(r, bound: int = DEFAULT_FACTOR_BOUND) -> SquareClass:
    """Canonical squarefree representative of a nonzero rational mod squares.

    ``r = squarefree_class(r) * (square)``.  Idempotent.  Raises ZeroInput on
    0 and FactorizationOverflow when a cofactor cannot be certified by trial
    division up to ``bound`` (cofactors up to ``bound**2`` are provably prime
    and perfect-square cofactors drop out, so only genuinely large factors
    overflow).  Like ``parse_rational`` it rejects floats with ValueError.
    """
    if type(r) is int:
        n = r  # the common case; bool and int subclasses take the long way
    else:
        fr = parse_rational(r)
        # n/d and n*d differ by the square d^2
        n = fr.numerator * fr.denominator
    if n == 0:
        raise ZeroInput("0 has no square class")
    out = -1 if n < 0 else 1
    n = abs(n)
    d = 2
    while d <= bound and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    if n > 1:
        root = isqrt(n)
        if root * root == n:
            pass  # square cofactor contributes nothing
        elif n <= bound * bound:
            out *= n  # no factor <= bound, hence prime
        else:
            raise FactorizationOverflow(
                f"cofactor {n} exceeds trial-division bound {bound}"
            )
    return out


def class_product(a: SquareClass, b: SquareClass) -> SquareClass:
    """The square class of a*b for square classes ``a`` and ``b``.

    The primes of g = gcd(a, b) occur squared in a*b, and a and b are
    squarefree, so (a/g)*(b/g) is the class with no factoring at all.
    """
    g = gcd(a, b)
    return (a // g) * (b // g)


def odd_prime_divisors(c: SquareClass, bound: int = DEFAULT_FACTOR_BOUND) -> list[int]:
    """Odd primes dividing the square class ``c`` (a squarefree integer)."""
    n = abs(int(c))
    while n % 2 == 0:
        n //= 2
    out = []
    d = 3
    while d <= bound and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        if n <= bound * bound:
            out.append(n)
        else:
            raise FactorizationOverflow(
                f"cofactor {n} exceeds trial-division bound {bound}"
            )
    return out


def relevant_places(entries) -> set[Place]:
    """The real place, 2, and every odd prime dividing an entry's class.

    Hilbert symbols built from the given square classes are +1 outside this
    set, so it is complete for all invariant computations.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("entries must be nonempty")
    places = {REAL_PLACE, TWO}
    for a in entries:
        for p in odd_prime_divisors(squarefree_class(a)):
            places.add(Place(p))
    return places


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


@functools.lru_cache(maxsize=HILBERT_CACHE_SIZE)
def _hilbert(a: int, b: int, p: int) -> int:
    if p == 0:
        return -1 if (a < 0 and b < 0) else 1
    if p == 2:
        alpha = 0
        while a % 2 == 0:
            a //= 2
            alpha += 1
        beta = 0
        while b % 2 == 0:
            b //= 2
            beta += 1
        eps_a = ((a - 1) // 2) % 2
        eps_b = ((b - 1) // 2) % 2
        omega_a = ((a * a - 1) // 8) % 2
        omega_b = ((b * b - 1) // 8) % 2
        exp = eps_a * eps_b + alpha * omega_b + beta * omega_a
        return -1 if exp % 2 else 1
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    exp = alpha * beta * (((p - 1) // 2) % 2)
    sym = -1 if exp % 2 else 1
    if beta % 2:
        sym *= _legendre(a, p)
    if alpha % 2:
        sym *= _legendre(b, p)
    return sym


def hilbert_symbol(a, b, place: Place) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion of Q at v."""
    return _hilbert(squarefree_class(a), squarefree_class(b), place.p)


def is_norm(a: SquareClass, b: SquareClass) -> bool:
    """Whether the class ``b`` is a norm from Q(sqrt(a)): by Hasse's norm
    theorem, whether (a, b)_v = +1 at the real place, at 2 and at the odd
    primes of a and b (the symbol is +1 at every other place)."""
    places = {0, 2, *odd_prime_divisors(a), *odd_prime_divisors(b)}
    return all(_hilbert(a, b, p) == 1 for p in places)


def is_local_square(c: SquareClass, place: Place) -> bool:
    """Whether the square class ``c`` becomes a square in the completion at v."""
    return _is_local_square(squarefree_class(c), place.p)


def _is_local_square(c: SquareClass, p: int) -> bool:
    # c is already a canonical class; p == 0 is the real place
    if p == 0:
        return c > 0
    if c % p == 0:
        return False  # squarefree, so valuation 1
    if p == 2:
        return c % 8 == 1
    return _legendre(c, p) == 1


def is_square_rational(r) -> bool:
    """Whether a rational number is the square of a rational."""
    fr = Fraction(r)
    if fr < 0:
        return False
    rn = isqrt(fr.numerator)
    rd = isqrt(fr.denominator)
    return rn * rn == fr.numerator and rd * rd == fr.denominator


def parse_rational(x) -> Fraction:
    """A rational from a wire format: an int, a Fraction or a string like
    ``"9/2"``; anything else (a float, say) raises ValueError."""
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    raise ValueError(f"not a rational literal: {x!r}")


def rational_to_json(x: Fraction) -> int | str:
    """The wire form of a rational: an int when integral, else ``"a/b"``."""
    return int(x) if x.denominator == 1 else str(x)

"""Independent checks of g2tori's outputs.

No check calls the g2tori function it checks.  Decisions are held to the
paper's closed form and their witnesses are recomputed from scratch: norms
from explicit multiplication matrices, transfer-form Gram matrices from
power sums and their minors, discriminants and factorizations with sympy.
Form queries carry the answer their construction guarantees.  H^1 is counted by brute force: for a finite
group G acting on L, |H^1(G, L)[m]| = |(L/mL)^G| / m^rank(L^G).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % f for f in range(3, isqrt(n) + 1, 2))


def int_sqrt_free(n: int) -> int:
    """Squarefree part of a small positive integer, by trial division."""
    out, f = 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        if n % f == 0:
            n //= f
            out *= f
        f += 1
    return out * n


def square_class(r) -> int:
    """Canonical squarefree integer of a nonzero rational, via sympy."""
    from sympy import factorint

    r = Fraction(r)
    n = r.numerator * r.denominator
    out = -1 if n < 0 else 1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# cubic etale algebras, written as in the CLI: split | partial:e | field:c0,c1,c2

def _parse(spec: str):
    kind, _, rest = spec.partition(":")
    return kind, [int(x) for x in rest.split(",")] if rest else []


def _mul(spec: str, x, y):
    """Product of two coordinate triples."""
    kind, args = _parse(spec)
    if kind == "split":
        return [a * b for a, b in zip(x, y)]
    if kind == "partial":
        # Q x Q(sqrt e) with coordinates (u; v + w sqrt e)
        (e,) = args
        return [x[0] * y[0], x[1] * y[1] + e * x[2] * y[2], x[1] * y[2] + x[2] * y[1]]
    # power basis 1, t, t^2 with t^3 = -(c2 t^2 + c1 t + c0)
    c0, c1, c2 = args
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] += x[i] * y[j]
    for k in (4, 3):
        top, prod[k] = prod[k], 0
        prod[k - 1] -= c2 * top
        prod[k - 2] -= c1 * top
        prod[k - 3] -= c0 * top
    return prod[:3]


def _trace(spec: str, x):
    kind, args = _parse(spec)
    if kind == "split":
        return sum(x)
    if kind == "partial":
        return x[0] + 2 * x[1]
    # Newton power sums of the roots: s0 = 3, s1 = -c2, s2 = c2^2 - 2 c1
    c0, c1, c2 = args
    return 3 * x[0] - c2 * x[1] + (c2 * c2 - 2 * c1) * x[2]


def norm(spec: str, lam) -> int:
    """Determinant of multiplication by lam on the basis."""
    basis = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
    cols = [_mul(spec, lam, b) for b in basis]
    m = [[cols[j][i] for j in range(3)] for i in range(3)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def transfer_gram(spec: str, lam) -> list[list[int]]:
    """Gram matrix of x -> Tr(lam x^2) on the basis."""
    basis = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
    return [[_trace(spec, _mul(spec, lam, _mul(spec, bi, bj))) for bj in basis] for bi in basis]


def check_transfer(spec: str, lam, diag) -> str | None:
    """None when ``diag`` diagonalizes Tr(lam x^2), else the reason."""
    (a, b, c), (_, e, f), (_, _, i) = transfer_gram(spec, lam)  # symmetric
    m2 = a * e - b * b
    det = a * (e * i - f * f) - b * (b * i - f * c) + c * (b * f - e * c)
    if len(diag) != 3:
        return "transfer form is not 3-dimensional"
    if det == 0 or square_class(det) != square_class(diag[0] * diag[1] * diag[2]):
        return "transfer form discriminant differs"
    # characteristic polynomial x^3 - tr x^2 + m x - det of a real symmetric
    # matrix: Descartes' rule counts its positive eigenvalues exactly
    coeffs = [x for x in (1, -(a + e + i), m2 + (a * i - c * c) + (e * i - f * f), -det) if x]
    positive = sum(1 for x, y in zip(coeffs, coeffs[1:]) if (x > 0) != (y > 0))
    if positive != sum(1 for x in diag if x > 0):
        return "transfer form signature differs"
    if a and m2 and [square_class(a), square_class(a * m2), square_class(m2 * det)] != list(diag):
        # without pivoting, symmetric elimination yields the leading-minor
        # ratios a, m2/a, det/m2, whose classes are those of a, a*m2, m2*det
        return "transfer form entries differ from the leading-minor ratios"
    return None


FACTOR_BOUND = 10 ** 6  # g2tori's documented trial-division bound


def beyond_bound(r) -> bool:
    """Whether g2tori's documented square-class rule must give up on r:
    after removing every prime up to the trial-division bound, the cofactor
    exceeds the bound squared and is not a square."""
    from sympy import factorint

    r = Fraction(r)
    cofactor = 1
    for p, e in factorint(abs(r.numerator * r.denominator)).items():
        if p > FACTOR_BOUND:
            cofactor *= p ** e
    return cofactor > FACTOR_BOUND ** 2 and isqrt(cofactor) ** 2 != cofactor


def transfer_overflows(spec: str, lam) -> bool:
    """Whether a pivot of Tr(lam x^2), eliminated without pivoting, is
    beyond the trial-division bound (FactorizationOverflow is then the
    documented answer)."""
    (a, b, c), (_, e, f), (_, _, i) = transfer_gram(spec, lam)
    m2 = a * e - b * b
    det = a * (e * i - f * f) - b * (b * i - f * c) + c * (b * f - e * c)
    return bool(a and m2) and any(beyond_bound(x) for x in (a, Fraction(m2, a), Fraction(det, m2)))


def delta_class(spec: str) -> int:
    kind, args = _parse(spec)
    if kind == "split":
        return 1
    if kind == "partial":
        return args[0]
    from sympy import discriminant, symbols

    c0, c1, c2 = args
    t = symbols("t")
    return square_class(discriminant(t ** 3 + c2 * t ** 2 + c1 * t + c0, t))


def check_decision(op: dict, verdict: dict, expected) -> str | None:
    """None when the verdict matches the closed form and carries valid
    witnesses, else the reason."""
    decision, rule = expected
    if (verdict.get("decision"), verdict.get("rule")) != (decision, rule):
        return f"got {verdict.get('decision')}/{verdict.get('rule')}, closed form says {decision}/{rule}"
    w = verdict.get("witnesses", {})
    if w.get("d") != op["d"] or w.get("delta") != delta_class(op["cubic"]):
        return "d or delta witness differs"
    checks = dict(verdict.get("crosschecks", []))
    if decision == "YES":
        if checks.get("hermitian-criterion") != "YES" or "lambda" not in w:
            return "YES without a lambda witness"
        n = norm(op["cubic"], w["lambda"])
        if n <= 0 or isqrt(n) ** 2 != n:
            return "lambda norm is not a nonzero square"
        return check_transfer(op["cubic"], w["lambda"], w.get("transfer_form", []))
    if checks.get("hermitian-criterion") not in ("NO", "INCONCLUSIVE"):
        return "NO with a hermitian YES"
    return None


# ---------------------------------------------------------------------------
# H^1 by counting fixed points

def _fixed_points(mats, rank: int, m: int) -> int:
    count = 0
    for v in itertools.product(range(m), repeat=rank):
        if all(
            all(sum(a[i][j] * v[j] for j in range(rank)) % m == v[i] for i in range(rank))
            for a in mats
        ):
            count += 1
    return count


def _log(n: int, base: int) -> int:
    k = 0
    while n > 1:
        if n % base:
            raise ValueError("fixed-point count is not a prime power")
        n //= base
        k += 1
    return k


def h1_expected(mats, rank: int) -> list[int]:
    """Invariant factors of H^1(G, Z^rank) for the group of ``mats``.

    H^1 is killed by |G|, which divides 12, so its 2-part has exponent at
    most 4 and its 3-part exponent at most 3; 5 does not divide |G|, so
    |(L/5L)^G| = 5^rank(L^G).
    """
    rho = _log(_fixed_points(mats, rank, 5), 5)
    twos = _log(_fixed_points(mats, rank, 2) // 2 ** rho, 2)
    fours = _log(_fixed_points(mats, rank, 4) // 4 ** rho, 2) - twos
    threes = _log(_fixed_points(mats, rank, 3) // 3 ** rho, 3)
    two_part = [4] * fours + [2] * (twos - fours)
    three_part = [3] * threes
    n = max(len(two_part), len(three_part))
    two_part += [1] * (n - len(two_part))
    three_part += [1] * (n - len(three_part))
    return sorted(a * b for a, b in zip(two_part, three_part))

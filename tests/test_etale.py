import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g2tori.etale import (
    CubicEtale,
    NonUnitLambda,
    QuadraticEtale,
    ReduciblePolynomial,
    TorusType,
    cubic_discriminant,
    cubic_from_json,
    cubic_to_json,
    element_norm,
    _has_rational_root,
    galois_image,
    lambda_candidates,
    mult_matrix,
    norm_is_square,
    quadratic_from_json,
    quadratic_to_json,
    trace_transfer_form,
    transfer_gram,
    transfer_tensors,
)
from g2tori.quadforms import QuadForm, is_isometric
from g2tori.weyl import perm_sign
from helpers import cubic_algebras, gram_diagonal_fraction, reducible_by_sympy, transfer_gram_fraction


X3_3X_1 = CubicEtale.field(-1, -3, 0)  # x^3 - 3x - 1, discriminant 81
X3_2 = CubicEtale.field(-2, 0, 0)  # x^3 - 2, discriminant -108


def _shift(poly, c):
    """Coefficients of f(x + c) for a monic cubic given by (c0, c1, c2)."""
    c0, c1, c2 = poly
    return (
        c ** 3 + c2 * c ** 2 + c1 * c + c0,
        3 * c ** 2 + 2 * c2 * c + c1,
        3 * c + c2,
    )


def test_cubic_discriminant_examples():
    assert cubic_discriminant(X3_3X_1) == 1  # disc = 81
    assert cubic_discriminant(X3_2) == -3  # disc = -108
    assert cubic_discriminant(CubicEtale.partial(5)) == 5
    assert cubic_discriminant(CubicEtale.split()) == 1


def test_cubic_discriminant_shift_invariance():
    for poly in [(-1, -3, 0), (-2, 0, 0), (-1, 1, 0), (-1, -2, 1)]:
        base = cubic_discriminant(CubicEtale.field(*poly))
        for c in (-2, -1, 1, 2, 3):
            shifted = CubicEtale.field(*_shift(poly, c))
            assert cubic_discriminant(shifted) == base


def test_reducible_rejection():
    with pytest.raises(ReduciblePolynomial):
        CubicEtale.field(-1, 1, -1)  # (x-1)(x^2+1)
    with pytest.raises(ReduciblePolynomial):
        CubicEtale.field(0, -1, 0)  # x(x^2-1)
    with pytest.raises(ValueError):
        CubicEtale.partial(4)  # square class 1 means split
    for coefficients in ((-1, -3.5, 0), (-1.0, -3, 0)):
        with pytest.raises(ValueError):
            CubicEtale.field(*coefficients)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-60, 60), st.integers(-60, 60))
def test_rational_root_test_matches_sympy(c0, c1, c2):
    assert _has_rational_root(c0, c1, c2) == reducible_by_sympy(c0, c1, c2)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 5, 10 ** 5), st.integers(-10 ** 3, 10 ** 3), st.integers(-10 ** 3, 10 ** 3))
def test_rational_root_test_finds_planted_roots(r, p, q):
    # (x - r)(x^2 + p x + q), so roots sit on and between critical points
    c2, c1, c0 = p - r, q - r * p, -r * q
    assert _has_rational_root(c0, c1, c2)


def test_rational_root_test_small_cubics():
    # roots on a critical point, a triple root, and one root per monotone stretch
    for roots in ((1, 1, 2), (-3, -3, 5), (2, 2, 2), (1, 2, 3), (-40, 0, 39)):
        r, s, t = roots
        assert _has_rational_root(-r * s * t, r * s + r * t + s * t, -(r + s + t))
    for c0, c1, c2 in product(range(-3, 4), repeat=3):
        assert _has_rational_root(c0, c1, c2) == reducible_by_sympy(c0, c1, c2), (c0, c1, c2)


@pytest.mark.parametrize("c0", [-(10 ** 7 + 19), -(10 ** 9 + 7)])
def test_field_constructor_time_grows_with_digits(c0):
    start = time.perf_counter()
    l = CubicEtale.field(c0, 0, 1)
    assert time.perf_counter() - start < 0.1
    assert l.poly == (c0, 0, 1)


def test_galois_image_examples():
    img = galois_image(TorusType(QuadraticEtale(-1), X3_3X_1))
    assert len(img) == 6  # Z/2 x A3
    assert {g.sign for g in img} == {1, -1}
    assert all(perm_sign(g.perm) == 1 for g in img)

    img = galois_image(TorusType(QuadraticEtale(1), CubicEtale.split()))
    assert len(img) == 1

    img = galois_image(TorusType(QuadraticEtale(-3), X3_2))
    assert len(img) == 6  # graph subgroup: sign = permutation parity
    assert all(g.sign == perm_sign(g.perm) for g in img)


def test_galois_image_projections():
    rng = random.Random(43)
    cubics = [
        CubicEtale.split(),
        CubicEtale.partial(-2),
        CubicEtale.partial(5),
        X3_3X_1,
        X3_2,
        CubicEtale.field(-1, 1, 0),
    ]
    for _ in range(60):
        d = rng.choice([1, -1, 2, -2, 3, -3, 5])
        l = rng.choice(cubics)
        img = galois_image(TorusType(QuadraticEtale(d), l))
        assert ({g.sign for g in img} == {1, -1}) == (d != 1)
        orbit = {1}
        changed = True
        while changed:
            changed = False
            for g in img:
                for x in list(orbit):
                    if g.perm[x - 1] not in orbit:
                        orbit.add(g.perm[x - 1])
                        changed = True
        assert (orbit == {1, 2, 3}) == (l.kind == "field")


def test_trace_transfer_examples():
    assert trace_transfer_form(CubicEtale.split(), (1, 1, 1)).diag == (1, 1, 1)
    assert trace_transfer_form(X3_3X_1, (1, 0, 0)) == QuadForm((3, 6, 2))
    q = trace_transfer_form(CubicEtale.partial(5), (1, 1))
    assert q == QuadForm((1, 2, 10))
    # a float coordinate is rejected, not read as its binary value
    with pytest.raises(ValueError):
        trace_transfer_form(CubicEtale.split(), (0.5, 1, 1))


@settings(max_examples=100, deadline=None)
@given(cubic_algebras(), st.lists(st.fractions(-6, 6, max_denominator=4), min_size=3, max_size=3))
def test_trace_transfer_form_matches_fraction_matrix_products(l, lam):
    assume(element_norm(l, lam) != 0)
    expected = transfer_gram_fraction(l, lam)
    assert transfer_gram(transfer_tensors(l), lam) == expected
    assert trace_transfer_form(l, lam) == QuadForm(tuple(gram_diagonal_fraction(expected)))


def test_transfer_tensors_are_integer_and_symmetric():
    for l in (CubicEtale.split(), CubicEtale.partial(-3), X3_3X_1, X3_2):
        for t in transfer_tensors(l):
            assert all(type(x) is int for row in t for x in row)
            assert all(t[i][j] == t[j][i] for i in range(3) for j in range(3))


def test_lambda_candidates_are_the_filtered_cube():
    expected = [
        lam
        for h in range(1, 11)
        for lam in product(range(-h, h + 1), repeat=3)
        if max(abs(x) for x in lam) == h
    ]
    assert len(expected) == 9260
    for height in range(11):
        shells = (2 * height + 1) ** 3 - 1
        assert list(lambda_candidates(height)) == expected[:shells]


def test_trace_transfer_square_scaling_invariance():
    rng = random.Random(47)
    cubics = [CubicEtale.split(), CubicEtale.partial(-3), X3_3X_1, X3_2]
    for l in cubics:
        for _ in range(12):
            lam = tuple(rng.randint(-4, 4) for _ in range(3))
            mu = tuple(rng.randint(-2, 2) for _ in range(3))
            try:
                if element_norm(l, lam) == 0 or element_norm(l, mu) == 0:
                    continue
            except NonUnitLambda:
                continue
            m_mu = mult_matrix(l, mu)
            mu_sq = tuple(
                sum(m_mu[i][k] * Fraction(mu[k]) for k in range(3)) for i in range(3)
            )
            m = mult_matrix(l, lam)
            lam_musq = tuple(
                sum(m[i][k] * mu_sq[k] for k in range(3)) for i in range(3)
            )
            assert is_isometric(
                trace_transfer_form(l, lam), trace_transfer_form(l, lam_musq)
            )


def test_norm_examples_and_multiplicativity():
    assert norm_is_square(CubicEtale.split(), (1, 4, 1))
    assert norm_is_square(X3_3X_1, (0, 1, 0))  # N(theta) = 1
    assert not norm_is_square(CubicEtale.split(), (1, 2, 1))
    with pytest.raises(NonUnitLambda):
        norm_is_square(CubicEtale.split(), (0, 1, 1))

    rng = random.Random(53)
    for l in [CubicEtale.split(), CubicEtale.partial(7), X3_2]:
        for _ in range(20):
            x = tuple(rng.randint(-4, 4) for _ in range(3))
            y = tuple(rng.randint(-4, 4) for _ in range(3))
            mx = mult_matrix(l, x)
            xy = tuple(sum(mx[i][k] * Fraction(y[k]) for k in range(3)) for i in range(3))
            assert element_norm(l, xy) == element_norm(l, x) * element_norm(l, y)


def test_json_round_trip():
    assert quadratic_to_json(QuadraticEtale(-1)) == {"quadratic": -1}
    assert quadratic_from_json({"quadratic": -1}) == QuadraticEtale(-1)
    assert cubic_to_json(X3_3X_1) == {"cubic": {"field": [-1, -3, 0]}}
    assert cubic_from_json({"cubic": {"field": [-1, -3, 0]}}) == X3_3X_1
    assert cubic_from_json({"cubic": "split"}) == CubicEtale.split()
    assert cubic_from_json({"cubic": {"partial": 5}}) == CubicEtale.partial(5)

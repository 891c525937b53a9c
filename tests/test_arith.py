import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tori import arith, quadforms
from g2tori.arith import (
    FactorizationOverflow,
    Place,
    REAL_PLACE,
    ZeroInput,
    class_product,
    hilbert_symbol,
    is_local_square,
    is_norm,
    relevant_places,
    squarefree_class,
)
from helpers import hilbert_by_search, hilbert_real_by_search


def test_squarefree_class_examples():
    assert squarefree_class(18) == 2
    assert squarefree_class(Fraction(9, 2)) == 2
    assert squarefree_class(-75) == -3
    assert squarefree_class(-(10 ** 12)) == -1
    assert squarefree_class(True) == 1


def test_squarefree_class_idempotent_and_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        s = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        cr = squarefree_class(r)
        assert squarefree_class(cr) == cr
        assert squarefree_class(r * s) == squarefree_class(
            squarefree_class(r) * squarefree_class(s)
        )


def test_squarefree_class_errors():
    with pytest.raises(ZeroInput):
        squarefree_class(0)
    with pytest.raises(ValueError):
        squarefree_class(1.0)
    # 1000003 * 1000033: both primes above a tiny bound
    with pytest.raises(FactorizationOverflow):
        squarefree_class(1000003 * 1000033, bound=100)
    # large perfect-square cofactors still canonicalize
    assert squarefree_class(3 * 1000003 ** 2, bound=100) == 3


def _outcome(x, bound):
    try:
        return squarefree_class(x, bound=bound)
    except (ZeroInput, ValueError, FactorizationOverflow) as exc:
        return type(exc)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 997)
SMALL_INTS = st.integers(-10 ** 6, 10 ** 6)
# values above 10**12 whose prime factors are all small, so that trial
# division under the default bound stays fast
SMOOTH_LARGE_INTS = st.builds(
    lambda sign, k, ps: sign * k * 10 ** 12 * math.prod(ps),
    st.sampled_from([1, -1]),
    st.integers(1, 10 ** 4),
    st.lists(st.sampled_from(SMALL_PRIMES), max_size=6),
)
LARGE_INTS = st.one_of(st.integers(10 ** 12, 10 ** 18), st.integers(-10 ** 18, -10 ** 12), SMOOTH_LARGE_INTS)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.one_of(SMALL_INTS, LARGE_INTS), st.sampled_from([2, 50, 1000])),
        st.tuples(st.one_of(SMALL_INTS, SMOOTH_LARGE_INTS), st.just(arith.DEFAULT_FACTOR_BOUND)),
    )
)
def test_squarefree_class_int_fast_path_matches_rational_path(case):
    n, bound = case
    got = _outcome(n, bound)
    assert got == _outcome(Fraction(n), bound) == _outcome(str(n), bound)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_PRIMES = (999983, 1000003, 1000033, 1000037)  # around the bound 10**6


@st.composite
def class_pairs(draw):
    """Two square classes from shared small primes, a sign each, and at
    most one prime above 10**6, possibly in both, so that trial division
    to 2000 certifies the class of the product."""
    large = draw(st.sampled_from(LARGE_PRIMES))
    out = []
    for _ in range(2):
        primes = draw(st.sets(st.sampled_from(SMALL_PRIMES)))
        big = large if draw(st.booleans()) else 1
        out.append(draw(st.sampled_from((1, -1))) * math.prod(primes) * big)
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(class_pairs())
def test_class_product_is_the_class_of_the_product(pair):
    a, b = pair
    assert squarefree_class(a) == a and squarefree_class(b) == b
    assert class_product(a, b) == squarefree_class(a * b, bound=2000) == class_product(b, a)


def test_class_product_examples():
    assert class_product(1, -1) == -1
    assert class_product(-1, -1) == 1
    assert class_product(6, 10) == 15
    assert class_product(-30, 30) == -1
    # beyond what trial division certifies: sympy checks the factors
    from sympy import factorint

    n = class_product(1000003, -1000033)
    assert factorint(n) == {-1: 1, 1000003: 1, 1000033: 1}
    assert class_product(n, 1000003) == -1000033


def test_memo_caches_are_bounded():
    for fn in (arith._hilbert, quadforms._invariants):
        maxsize = fn.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


def test_place_validation():
    assert Place.prime(2).p == 2
    assert REAL_PLACE.is_real
    with pytest.raises(ValueError):
        Place(6)
    with pytest.raises(ValueError):
        Place(-3)


def test_relevant_places_examples():
    assert relevant_places([1, -1]) == {REAL_PLACE, Place(2)}
    assert relevant_places([-3, 5]) == {REAL_PLACE, Place(2), Place(3), Place(5)}
    assert relevant_places([30]) == {REAL_PLACE, Place(2), Place(3), Place(5)}
    with pytest.raises(ValueError):
        relevant_places([])


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, -1, Place(2)) == -1
    assert hilbert_symbol(5, 7, Place(5)) == -1


def test_hilbert_symbol_against_solubility_search():
    # mixed valuations and residues at small primes
    pairs = [
        (-1, -1), (2, 3), (3, 5), (5, 7), (-2, -3), (2, 5), (10, 15),
        (6, -3), (7, 7), (-1, 2), (13, 2), (-5, -7), (21, 14), (3, 3),
    ]
    for p in (2, 3, 5, 7, 13):
        for a, b in pairs:
            a = squarefree_class(a)
            b = squarefree_class(b)
            assert hilbert_symbol(a, b, Place(p)) == hilbert_by_search(a, b, p), (a, b, p)
    for a, b in pairs:
        assert hilbert_symbol(a, b, REAL_PLACE) == hilbert_real_by_search(a, b)


def test_hilbert_bilinearity_symmetry_and_negation():
    rng = random.Random(11)
    classes = [squarefree_class(rng.randint(-60, 60) or 1) for _ in range(25)]
    for _ in range(120):
        a, b, c = rng.choice(classes), rng.choice(classes), rng.choice(classes)
        for v in relevant_places([a, b, c]):
            assert hilbert_symbol(a, squarefree_class(b * c), v) == hilbert_symbol(
                a, b, v
            ) * hilbert_symbol(a, c, v)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a, -a, v) == 1


def test_hilbert_product_formula():
    rng = random.Random(13)
    for _ in range(200):
        a = squarefree_class(rng.randint(-1000, 1000) or 1)
        b = squarefree_class(rng.randint(-1000, 1000) or 1)
        product = 1
        for v in relevant_places([a, b]):
            product *= hilbert_symbol(a, b, v)
        assert product == 1, (a, b)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10 ** 6), 10 ** 6).filter(bool),
    st.integers(-(10 ** 6), 10 ** 6).filter(bool),
)
def test_is_norm_is_hilbert_trivial_at_every_relevant_place(a, b):
    a, b = squarefree_class(a), squarefree_class(b)
    expected = all(hilbert_symbol(a, b, v) == 1 for v in relevant_places([a, b]))
    assert is_norm(a, b) == expected == is_norm(b, a)


def test_is_norm_examples():
    assert is_norm(1, -7)  # everything is a norm from Q x Q
    assert is_norm(-1, 2) and is_norm(-1, 5)  # 1 + 1, 4 + 1
    assert not is_norm(-1, -1)  # negative at the real place
    assert not is_norm(-1, 3)  # (-1, 3)_3 = -1
    assert is_norm(2, -1)  # 1 - 2


def test_is_local_square():
    assert is_local_square(1, REAL_PLACE)
    assert not is_local_square(-1, REAL_PLACE)
    assert is_local_square(17, Place(2))  # 17 = 1 mod 8
    assert not is_local_square(5, Place(2))
    assert is_local_square(-1, Place(5))
    assert not is_local_square(5, Place(5))
    assert not is_local_square(2, Place(5))

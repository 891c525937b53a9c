import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tori.arith import (
    FactorizationOverflow,
    Place,
    REAL_PLACE,
    ZeroInput,
    hilbert_symbol,
    squarefree_class,
)
from g2tori.quadforms import (
    EmptySlots,
    LaurentForm,
    QuadForm,
    direct_sum,
    gram_diagonal,
    invariants,
    is_isometric,
    is_isotropic,
    laurent_from_json,
    laurent_is_isotropic,
    laurent_to_json,
    pfister,
    quadform_from_gram,
    quadform_from_json,
    quadform_to_json,
    represents_subform,
    scale,
    tensor,
    witt_decompose,
)
from helpers import (
    congruence_rediagonalize,
    find_isotropic_vector,
    gram_diagonal_fraction,
    invariants_pairwise,
    isotropic_from_invariants,
    witt_from_invariants,
)

PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]


@st.composite
def smooth_entries(draw):
    """Up to three primes below 1000 (often small ones, so entries share
    primes), a sign, and a square factor."""
    primes = draw(st.lists(
        st.one_of(st.sampled_from(PRIMES_BELOW_1000[:6]), st.sampled_from(PRIMES_BELOW_1000)),
        max_size=3,
    ))
    sign = draw(st.sampled_from((1, -1)))
    return sign * prod(primes) * draw(st.integers(1, 12)) ** 2


def smooth_forms(min_dim=1, max_dim=8):
    return st.lists(smooth_entries(), min_size=min_dim, max_size=max_dim).map(
        lambda entries: QuadForm(tuple(entries))
    )


def test_entries_canonicalized_and_nonzero():
    assert QuadForm((18, Fraction(9, 2))).diag == (2, 2)
    with pytest.raises(ZeroInput):
        QuadForm((1, 0))


def test_invariants_examples():
    hyp = invariants(QuadForm((1, -1)))
    assert (hyp.dim, hyp.disc, hyp.signature) == (2, -1, (1, 1))
    assert all(v == 1 for v in hyp.hasse.values())

    e8 = invariants(QuadForm((1,) * 8))
    assert (e8.dim, e8.disc, e8.signature) == (8, 1, (8, 0))
    assert e8.hasse_at(Place(2)) == 1

    q = invariants(QuadForm((3, 6, 2)))
    assert (q.disc, q.signature) == (1, (3, 0))


def test_isometry_examples():
    assert is_isometric(QuadForm((1, -1)), QuadForm((2, -2)))
    assert not is_isometric(QuadForm((1, 1)), QuadForm((1, 2)))


def test_isometry_invariance_under_congruence():
    rng = random.Random(23)
    for _ in range(100):
        dim = rng.randint(1, 6)
        diag = tuple(rng.choice([x for x in range(-50, 51) if x]) for _ in range(dim))
        q = QuadForm(diag)
        q2 = congruence_rediagonalize(q, rng)
        assert invariants(q) == invariants(q2)
        assert is_isometric(q, q2)


def test_isotropy_examples():
    assert not is_isotropic(QuadForm((1, 1, 1)))
    assert not is_isotropic(QuadForm((1, -2)))
    assert is_isotropic(QuadForm((1, 1, 1, 1, 1, -7)))
    assert is_isotropic(QuadForm((1, -1)))
    assert not is_isotropic(QuadForm((1,)))
    assert not is_isotropic(QuadForm(()))


def test_isotropy_against_vector_search():
    rng = random.Random(29)
    reached = 0
    for _ in range(120):
        dim = rng.randint(2, 4)
        diag = tuple(rng.choice([x for x in range(-30, 31) if x]) for _ in range(dim))
        q = QuadForm(diag)
        vec = find_isotropic_vector(q.diag, 40)
        if vec is not None:
            reached += 1
            assert sum(a * x * x for a, x in zip(q.diag, vec)) == 0
            assert is_isotropic(q), (q, vec)
    assert reached > 30  # the oracle exercises the positive branch


def test_pfister_examples():
    assert pfister([-1]).diag == (1, 1)
    assert pfister([-1, -1, -1]).diag == (1,) * 8
    assert pfister([2, 3]).diag == (1, -2, -3, 6)
    with pytest.raises(EmptySlots):
        pfister([])
    with pytest.raises(ValueError):
        pfister([2, 3, 5, 7])


def test_pfister_isotropic_iff_hyperbolic():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 3)
        slots = [rng.choice([x for x in range(-15, 16) if x]) for _ in range(n)]
        q = pfister(slots)
        index, kernel = witt_decompose(q)
        assert kernel in (0, q.dim)
        assert is_isotropic(q) == (kernel == 0)


def test_witt_examples():
    assert witt_decompose(QuadForm((1, -1, 1, -1))) == (2, 0)
    assert witt_decompose(QuadForm((1, 1, 1))) == (0, 3)
    assert witt_decompose(QuadForm((1, 1, -2))) == (1, 1)


def test_witt_properties():
    rng = random.Random(37)
    for _ in range(60):
        dim = rng.randint(1, 5)
        diag = tuple(rng.choice([x for x in range(-20, 21) if x]) for _ in range(dim))
        q = QuadForm(diag)
        assert is_isotropic(direct_sum(q, QuadForm((1, -1))))
        index, kernel = witt_decompose(direct_sum(q, scale(q, -1)))
        assert index == q.dim and kernel == 0
        # adding an explicit hyperbolic plane raises the index by exactly one
        base_index, base_kernel = witt_decompose(q)
        shifted = witt_decompose(direct_sum(q, QuadForm((1, -1))))
        assert shifted == (base_index + 1, base_kernel)


def test_represents_subform_examples():
    assert represents_subform(QuadForm((1, 1, 1, 1)), QuadForm((1, 1)))
    assert not represents_subform(QuadForm((1,) * 8), QuadForm((1, -5)))
    assert represents_subform(pfister([-1, -1, -1]), QuadForm((1, 2)))
    with pytest.raises(ValueError):
        represents_subform(QuadForm((1,)), QuadForm((1, 1)))


def test_scale_sum_tensor_examples():
    assert scale(QuadForm((1, 2)), -1).diag == (-1, -2)
    assert tensor(QuadForm((1, -1)), QuadForm((3,))).diag == (3, -3)
    assert direct_sum(QuadForm((1,)), QuadForm((2,))).diag == (1, 2)


def test_tensor_with_hyperbolic_plane_is_hyperbolic():
    rng = random.Random(41)
    hyper = QuadForm((1, -1))
    for _ in range(40):
        dim = rng.randint(1, 4)
        diag = tuple(rng.choice([x for x in range(-20, 21) if x]) for _ in range(dim))
        q = QuadForm(diag)
        doubled = tensor(q, hyper)
        m = q.dim
        assert is_isometric(doubled, QuadForm((1, -1) * m))
        inv = invariants(doubled)
        for v in set(inv.hasse) | {REAL_PLACE, Place(2)}:
            expected = hilbert_symbol(-1, -1, v) ** (m * (m - 1) // 2)
            assert inv.hasse_at(v) == expected


def _assert_canonical(q: QuadForm):
    assert QuadForm(q.diag) == q
    assert all(type(a) is int and squarefree_class(a) == a for a in q.diag)


@settings(max_examples=100, deadline=None)
@given(
    smooth_forms(max_dim=4),
    smooth_forms(max_dim=3),
    smooth_entries(),
    st.lists(st.fractions(-40, 40, max_denominator=9).filter(bool), min_size=1, max_size=3),
)
def test_constructed_forms_are_canonical(q1, q2, c, slots):
    for q in (scale(q1, c), scale(q1, Fraction(c, 4)), direct_sum(q1, q2), tensor(q1, q2), pfister(slots)):
        _assert_canonical(q)
    built = tensor(pfister(slots[:2]), scale(q1, c))
    _assert_canonical(built)
    assert invariants(built) == invariants_pairwise(built.diag)


@settings(max_examples=300, deadline=None)
@given(smooth_forms())
def test_invariants_match_pairwise_oracle(q):
    expected = invariants_pairwise(q.diag)
    got = invariants(q)
    assert (got.dim, got.disc, got.signature, got.hasse) == (
        expected.dim, expected.disc, expected.signature, expected.hasse,
    )
    assert is_isotropic(q) == isotropic_from_invariants(expected)
    assert witt_decompose(q) == witt_from_invariants(expected)


def test_classes_with_an_uncertified_product():
    # 1000003 and 1000033 are primes above the trial-division bound 10**6;
    # their product's class cannot be certified, the entries' classes can
    with pytest.raises(FactorizationOverflow):
        squarefree_class(1000003 * 1000033)
    assert is_isometric(QuadForm((1000003, 1000033)), QuadForm((4 * 1000003, 1000033)))
    assert invariants(QuadForm((1000003, 1000033))).disc == 1000003 * 1000033
    # Legendre's theorem, checked by sympy: -3 * 1000003 is not a square
    # mod 1000033, so 1000003 x^2 - 1000033 y^2 + 3 z^2 has no zero
    from sympy import is_quad_residue
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic_normal
    from sympy.abc import x, y, z

    assert not is_quad_residue(-3 * 1000003 % 1000033, 1000033)
    assert diop_ternary_quadratic_normal(1000003 * x ** 2 - 1000033 * y ** 2 + 3 * z ** 2) == (None, None, None)
    assert not is_isotropic(QuadForm((1000003, -1000033, 3)))


def test_laurent_examples():
    definite = QuadForm((1, 1, 1, 1))
    assert not laurent_is_isotropic(LaurentForm(definite, definite))
    assert laurent_is_isotropic(LaurentForm(QuadForm((1, -1)), QuadForm((1,))))
    # the division quaternion norm gives an anisotropic Laurent form
    nq = pfister([-1, -1])
    assert not laurent_is_isotropic(LaurentForm(nq, nq))


def test_gram_diagonalization():
    q = quadform_from_gram([[3, 0, 6], [0, 6, 3], [6, 3, 18]])
    assert q.diag == (3, 6, 2)
    # zero diagonal needs a basis move
    assert quadform_from_gram([[0, 1], [1, 0]]).diag == (2, -2)
    with pytest.raises(ValueError):
        quadform_from_gram([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        quadform_from_gram([[1, 2], [3, 1]])  # not symmetric


def _symmetric(n, entries, zero_diag):
    m = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    for i in range(n):
        if zero_diag[i]:
            m[i][i] = 0
    return m


@st.composite
def symmetric_matrices(draw, entry):
    n = draw(st.integers(1, 5))
    entries = draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    # zero diagonal entries force swaps and basis moves
    zero_diag = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return _symmetric(n, entries, zero_diag)


def _same_pivots_as_fraction_gauss(m):
    try:
        expected = gram_diagonal_fraction(m)
    except ValueError:
        with pytest.raises(ValueError):
            gram_diagonal(m)
        return
    got = gram_diagonal(m)
    assert got == expected
    assert all(type(p) is Fraction for p in got)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices(st.integers(-6, 6)))
def test_gram_diagonal_matches_fraction_gauss_on_integers(m):
    _same_pivots_as_fraction_gauss(m)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(st.fractions(-5, 5, max_denominator=6)))
def test_gram_diagonal_matches_fraction_gauss_on_rationals(m):
    _same_pivots_as_fraction_gauss(m)


def test_gram_diagonal_zero_leading_entries():
    # a swap, a basis move at the first step, and one at a later step
    for m in (
        [[0, 1, 0], [1, 2, 0], [0, 0, 3]],
        [[0, 2, 1], [2, 0, 1], [1, 1, 0]],
        [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    ):
        assert gram_diagonal(m) == gram_diagonal_fraction(m)
    for degenerate in ([[0]], [[1, 2], [2, 4]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 5], [0, 0, 7], [5, 7, 0]]):
        with pytest.raises(ValueError):
            gram_diagonal(degenerate)


def test_json_round_trip():
    q = QuadForm((1, -1, 2))
    assert quadform_to_json(q) == {"diag": [1, -1, 2]}
    assert quadform_from_json({"diag": [1, -1, 2]}) == q
    assert quadform_from_json({"diag": ["9/2", 3]}).diag == (2, 3)
    with pytest.raises(ValueError):
        QuadForm((0.1, 1))
    with pytest.raises(ValueError):
        quadform_from_json({"diag": [0.5, 1]})
    lf = LaurentForm(QuadForm((1, 1)), QuadForm((1, -3)))
    assert laurent_from_json(laurent_to_json(lf)) == lf

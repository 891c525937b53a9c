import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import g2tori
import g2tori.hermitian as hermitian_module
from g2tori.composition import CompositionAlgebra, from_hermitian, is_split, norm_form
from g2tori.engine import CrossCheckDisagreement, _find_presentation
from g2tori.etale import CubicEtale
from g2tori.hermitian import (
    HermitianForm,
    MismatchedAlgebra,
    NontrivialDiscriminant,
    check_condition_ii,
    has_trivial_discriminant,
    hermitian_from_json,
    hermitian_isometric,
    hermitian_to_json,
    involution_trace_form,
    is_distinguished,
    lambda_witness_search,
    normalize_trivial_disc,
    pi_form,
    q_tau,
)
from g2tori.quadforms import QuadForm, direct_sum, is_isometric, pfister, scale, tensor
from helpers import cubic_algebras, lambda_search_by_enumeration


def _random_trivial_disc_form(rng):
    """Random trivial-discriminant form: diag <a1, a2, a1*a2*n(z)> with n(z)
    a nonzero norm from Q(sqrt(d))."""
    d = rng.choice([-1, -2, -3, 2, 3, 5, -5, -6, 7])
    a1 = rng.choice([x for x in range(-6, 7) if x])
    a2 = rng.choice([x for x in range(-6, 7) if x])
    while True:
        u = rng.randint(-4, 4)
        v = rng.randint(-4, 4)
        nz = u * u - d * v * v
        if nz != 0:
            break
    return HermitianForm(d, (a1, a2, a1 * a2 * nz))


def test_trivial_discriminant_examples():
    assert has_trivial_discriminant(HermitianForm(-1, (1, 1, 1)))
    assert not has_trivial_discriminant(HermitianForm(-1, (1, 1, -1)))
    assert has_trivial_discriminant(HermitianForm(5, (1, 1, -1)))  # -1 = 4 - 5
    assert has_trivial_discriminant(HermitianForm(1, (1, 2, -3)))  # split algebra


def test_random_trivial_disc_generator_is_sound():
    rng = random.Random(83)
    for _ in range(40):
        assert has_trivial_discriminant(_random_trivial_disc_form(rng))


def test_normalization_examples():
    assert normalize_trivial_disc(HermitianForm(-1, (1, 1, 1))) == (-1, -1)
    assert normalize_trivial_disc(HermitianForm(-1, (-1, -1, 1))) == (1, 1)
    assert normalize_trivial_disc(HermitianForm(-1, (2, 1, 2))) == (-2, -1)
    with pytest.raises(NontrivialDiscriminant):
        normalize_trivial_disc(HermitianForm(-1, (1, 1, -1)))


def test_hermitian_isometry_examples():
    h = HermitianForm(-1, (1, 1, 1))
    assert hermitian_isometric(h, h)
    assert hermitian_isometric(h, HermitianForm(-1, (5, 1, 5)))  # 5 is a norm from Q(i)
    assert not hermitian_isometric(h, HermitianForm(-1, (-1, 1, 1)))
    with pytest.raises(MismatchedAlgebra):
        hermitian_isometric(h, HermitianForm(2, (1, 1, 1)))


def test_q_tau_and_pi_form_examples():
    h = HermitianForm(-1, (1, 1, 1))
    assert q_tau(h) == QuadForm((1, 1, 1))
    assert pi_form(h).diag == (1,) * 8
    assert is_isometric(pi_form(HermitianForm(-1, (-1, -1, 1))), QuadForm((1, -1) * 4))
    from g2tori.quadforms import is_isotropic

    assert is_isotropic(pi_form(HermitianForm(2, (1, 1, 1))))


def test_is_distinguished_examples():
    assert is_distinguished(HermitianForm(-1, (-1, -1, 1)))
    assert not is_distinguished(HermitianForm(-1, (1, 1, 1)))
    assert is_distinguished(HermitianForm(3, (1, 1, 1)))


def test_pi_form_matches_octonion_norm():
    rng = random.Random(89)
    for _ in range(25):
        h = _random_trivial_disc_form(rng)
        assert is_isometric(pi_form(h), norm_form(from_hermitian(h.d, h)))


def test_involution_trace_form_identity_case():
    got = involution_trace_form(HermitianForm(-1, (1, 1, 1)))
    expected = direct_sum(
        QuadForm((1, 1, 1)),
        scale(tensor(pfister([-1]), QuadForm((1, 1, 1))), 2),
    )
    assert is_isometric(got, expected)
    # diagonal matrix units contribute three <1> entries
    assert got.diag[:3] == (1, 1, 1)


def test_involution_trace_form_decomposition_random():
    rng = random.Random(97)
    for _ in range(20):
        h = _random_trivial_disc_form(rng)
        b, c = normalize_trivial_disc(h)
        got = involution_trace_form(h)
        expected = direct_sum(
            QuadForm((1, 1, 1)),
            scale(tensor(pfister([h.d]), QuadForm((-b, -c, b * c))), 2),
        )
        assert is_isometric(got, expected), (h, got, expected)


def test_isometric_forms_share_invariants():
    rng = random.Random(101)
    for _ in range(15):
        h = _random_trivial_disc_form(rng)
        # scale an entry by a norm: an isometric hermitian form
        u, v = rng.randint(-3, 3), rng.randint(-3, 3)
        nz = u * u - h.d * v * v
        if nz == 0:
            continue
        diag2 = (h.diag[0] * nz, h.diag[1], h.diag[2] * nz)
        h2 = HermitianForm(h.d, diag2)
        assert hermitian_isometric(h, h2)
        assert is_isometric(pi_form(h), pi_form(h2))
        assert is_isometric(involution_trace_form(h), involution_trace_form(h2))


def test_split_quadratic_algebra_case():
    # d = 1: every discriminant is trivial and the invariant forms split
    h = HermitianForm(1, (1, 2, -3))
    assert has_trivial_discriminant(h)
    b, c = normalize_trivial_disc(h)
    got = involution_trace_form(h)
    expected = direct_sum(
        QuadForm((1, 1, 1)),
        scale(tensor(pfister([1]), QuadForm((-b, -c, b * c))), 2),
    )
    assert is_isometric(got, expected)
    from g2tori.quadforms import is_isotropic

    assert is_isotropic(pi_form(h))
    assert is_distinguished(h)


def test_check_condition_ii_examples():
    assert check_condition_ii(-1, 1, QuadForm((1, 1, 1)), -1, -1)
    assert not check_condition_ii(-1, 1, QuadForm((1, 1, -1)), -1, -1)


def test_lambda_witness_search_examples():
    found = lambda_witness_search(CubicEtale.split(), -1, -1, -1, 3)
    assert found is not None
    lam, t_form = found
    assert lam == (1, 1, 1)
    assert t_form == QuadForm((1, 1, 1))

    found = lambda_witness_search(CubicEtale.field(-1, -3, 0), -1, -1, -1, 10)
    assert found is not None
    lam, t_form = found
    assert check_condition_ii(-1, 1, t_form, -1, -1)

    assert lambda_witness_search(CubicEtale.field(-2, 0, 0), -1, -1, -1, 10) is None
    with pytest.raises(ValueError):
        lambda_witness_search(CubicEtale.split(), -1, -1, -1, 0)


GRID_ALGEBRAS = (CompositionAlgebra((1, 1, 1)), CompositionAlgebra((-1, -1, -1)))


@st.composite
def presentations(draw):
    """(d, b, c) with b, c from the presentation of a grid algebra, or
    arbitrary small square classes."""
    d = draw(st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 7, -7]))
    if draw(st.booleans()):
        try:
            C = draw(st.sampled_from(GRID_ALGEBRAS))
            return (d, *_find_presentation(C, d, is_split(C)))
        except CrossCheckDisagreement:
            assume(False)  # d does not embed in the anisotropic algebra
    b, c = (draw(st.sampled_from([1, -1, 2, -2, 3, -3])) for _ in range(2))
    return d, b, c


@settings(max_examples=200, deadline=None)
@given(cubic_algebras(), presentations(), st.integers(1, 3))
def test_lambda_search_matches_plain_enumeration(l, dbc, height):
    d, b, c = dbc
    assert lambda_witness_search(l, d, b, c, height) == lambda_search_by_enumeration(l, d, b, c, height)


def test_real_place_certificate_skips_enumeration(monkeypatch):
    def refuse(height):
        raise RuntimeError("the search enumerated lambdas")

    monkeypatch.setattr(hermitian_module, "lambda_candidates", refuse)
    # Cayley, d < 0, delta < 0: <<d>> tensor delta*t_lam is never definite
    assert lambda_witness_search(CubicEtale.field(-2, 0, 0), -1, -1, -1, 10 ** 6) is None
    assert lambda_witness_search(CubicEtale.partial(-3), -5, -1, -1, 10 ** 6) is None
    # delta > 0 leaves t_lam = <1, 1, 1> possible, so the search must run
    with pytest.raises(RuntimeError, match="enumerated"):
        lambda_witness_search(CubicEtale.field(-1, -3, 0), -1, -1, -1, 1)


def test_condition_stable_under_square_scaling():
    found = lambda_witness_search(CubicEtale.field(-1, -3, 0), -1, -1, -1, 6)
    assert found is not None
    lam, _ = found
    l = CubicEtale.field(-1, -3, 0)
    from g2tori.etale import cubic_discriminant, mult_matrix, trace_transfer_form

    for mu in [(1, 1, 0), (2, 0, 1), (1, -1, 1)]:
        m_mu = mult_matrix(l, mu)
        musq = tuple(sum(m_mu[i][k] * Fraction(mu[k]) for k in range(3)) for i in range(3))
        m_lam = mult_matrix(l, lam)
        lam2 = tuple(sum(m_lam[i][k] * musq[k] for k in range(3)) for i in range(3))
        t2 = trace_transfer_form(l, lam2)
        assert check_condition_ii(-1, cubic_discriminant(l), t2, -1, -1)


def test_json_round_trip():
    h = HermitianForm(-1, (1, Fraction(1, 2), 1))
    packed = hermitian_to_json(h)
    assert packed == {"hermitian": {"d": -1, "diag": [1, "1/2", 1]}}
    assert hermitian_from_json(packed) == h
    packed = {"hermitian": {"d": -1, "diag": [2, "9/2", -3]}}
    assert hermitian_to_json(hermitian_from_json(packed)) == packed
    with pytest.raises(ValueError):
        hermitian_from_json({"hermitian": {"d": -1, "diag": [0.1, 1, 1]}})
    with pytest.raises(ValueError):
        HermitianForm(-1, (0.1, 1, 1))
    with pytest.raises(ValueError):
        HermitianForm(-1.0, (1, 1, 1))


_BROKEN_ISOMETRY = """
import g2tori.hermitian as hm
if __debug__:
    raise SystemExit(2)  # not running under -O
hm.hermitian_isometric = lambda h1, h2: False
try:
    hm.normalize_trivial_disc(hm.HermitianForm(-1, (1, 1, 1)))
except AssertionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_normalization_check_survives_optimize():
    src = str(Path(g2tori.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ISOMETRY],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tori import engine, hermitian
from g2tori.cli import _parse_cubic
from g2tori.arith import squarefree_class
from g2tori.composition import CompositionAlgebra, embeds_quadratic, is_split, norm_form
from g2tori.engine import (
    INCONCLUSIVE,
    NO,
    YES,
    InvalidScenario,
    LaurentScenario,
    _find_presentation,
    decide_over_Q,
    decide_over_R,
    decide_laurent_counterexample,
    odd_degree_reduction,
)
from g2tori.etale import CubicEtale, QuadraticEtale, TorusType, cubic_discriminant, lambda_candidates
from g2tori.hermitian import check_condition_ii, lambda_witness_search
from g2tori.quadforms import QuadForm, is_isometric, pfister
from helpers import biquadratic_witnesses_by_search

CAYLEY = CompositionAlgebra((-1, -1, -1))
SPLIT = CompositionAlgebra((1, 1, 1))
X3_3X_1 = CubicEtale.field(-1, -3, 0)
X3_2 = CubicEtale.field(-2, 0, 0)


def _type(d, l):
    return TorusType(QuadraticEtale(d), l)


def test_decide_examples():
    v = decide_over_Q(CAYLEY, _type(-1, X3_3X_1))
    assert (v.decision, v.rule) == (YES, "R3")
    assert "lambda" in v.witnesses

    v = decide_over_Q(CAYLEY, _type(-1, X3_2))
    assert (v.decision, v.rule) == (NO, "R3")

    v = decide_over_Q(SPLIT, _type(7, X3_2))
    assert (v.decision, v.rule) == (YES, "R1")

    v = decide_over_Q(CAYLEY, _type(-3, X3_2))
    assert (v.decision, v.rule) == (NO, "R3")
    assert ("equal-discriminant", NO) in v.crosschecks


def test_decide_r2_split_quadratic():
    v = decide_over_Q(CAYLEY, _type(1, CubicEtale.split()))
    assert (v.decision, v.rule) == (NO, "R2")
    v = decide_over_Q(CAYLEY, _type(1, X3_3X_1))
    assert (v.decision, v.rule) == (NO, "R2")


def test_decide_never_inconclusive_and_monotone():
    from g2tori.composition import embeds_quadratic

    cubics = [CubicEtale.split(), CubicEtale.partial(-3), X3_3X_1, X3_2]
    for C in (CAYLEY, SPLIT):
        for d in (1, -1, 2, -2):
            for l in cubics:
                v = decide_over_Q(C, TorusType(QuadraticEtale(d), l))
                assert v.decision in (YES, NO)
                if v.decision == YES:
                    assert embeds_quadratic(C, QuadraticEtale(d))


def test_certificates_round_trip():
    v = decide_over_Q(CAYLEY, _type(-1, X3_3X_1))
    lam = tuple(v.witnesses["lambda"])
    b, c = v.witnesses["b"], v.witnesses["c"]
    t_form = QuadForm(tuple(v.witnesses["transfer_form"]))
    assert check_condition_ii(-1, cubic_discriminant(X3_3X_1), t_form, b, c)
    from g2tori.etale import norm_is_square, trace_transfer_form

    assert norm_is_square(X3_3X_1, lam)
    assert is_isometric(trace_transfer_form(X3_3X_1, lam), t_form)

    v = decide_over_Q(CAYLEY, _type(-1, CubicEtale.partial(2)))
    assert v.decision == YES
    if "common_slot" in v.witnesses:
        slot = v.witnesses["common_slot"]
        a, b_, c_ = v.witnesses["doubling_params"]
        assert is_isometric(norm_form(CAYLEY), pfister([a, b_, c_]))
        assert slot == b_


@st.composite
def octonion_algebras(draw):
    """Anisotropic (every parameter negative) or, mostly, split octonion
    algebras, with integer or Fraction parameters."""
    anisotropic = draw(st.booleans())
    params = []
    for _ in range(3):
        x = Fraction(draw(st.integers(1, 60)), draw(st.sampled_from((1, 1, 2, 3, 4, 9, 10))))
        params.append(-x if anisotropic or draw(st.booleans()) else x)
    return CompositionAlgebra(tuple(params))


@st.composite
def biquadratic_types(draw):
    """Types with a split or partially split cubic, classes up to 10**6."""
    nonzero = st.integers(-(10 ** 6), 10 ** 6).filter(bool)
    d = draw(nonzero)
    e = draw(nonzero.filter(lambda e: squarefree_class(e) != 1) | st.just(1))
    return _type(d, CubicEtale.split() if e == 1 else CubicEtale.partial(e))


@settings(max_examples=200, deadline=None)
@given(octonion_algebras(), biquadratic_types())
def test_biquadratic_witnesses_match_the_search(C, t):
    v = decide_over_Q(C, t, height=1)
    got = {key: v.witnesses[key] for key in ("common_slot", "doubling_params") if key in v.witnesses}
    assert got == biquadratic_witnesses_by_search(C, t)


def test_common_slot_fallback_has_no_doubling_params():
    # no negative candidate up to 30 is a norm from Q(sqrt(635019)), so the
    # slot falls back to 1, and <<k1, 1>> is not a subform of a definite norm
    t = TorusType(QuadraticEtale(-17), CubicEtale.partial(635019))
    v = decide_over_Q(CAYLEY, t, height=2)
    assert v.decision == YES
    assert v.witnesses["common_slot"] == 1
    assert "doubling_params" not in v.witnesses
    assert biquadratic_witnesses_by_search(CAYLEY, t) == {"common_slot": 1}


def test_decide_with_fractional_parameters():
    from fractions import Fraction

    # (1/2, 3, -7) has norm class <<2, 3, -7>>, indefinite, hence split
    algebra = CompositionAlgebra((Fraction(1, 2), 3, -7))
    v = decide_over_Q(algebra, _type(-6, X3_2))
    assert (v.decision, v.rule) == (YES, "R1")
    # a definite fractional triple is the anisotropic algebra
    algebra = CompositionAlgebra((Fraction(-1, 4), -3, Fraction(-7, 9)))
    v = decide_over_Q(algebra, _type(-1, X3_3X_1))
    assert (v.decision, v.rule) == (YES, "R3")
    v = decide_over_Q(algebra, _type(2, X3_3X_1))
    assert v.decision == NO
    with pytest.raises(ValueError):
        decide_over_Q(CompositionAlgebra((-1, -1)), _type(-1, X3_3X_1))


def test_decide_over_r():
    assert decide_over_R(True, -1, 1).decision == YES
    assert decide_over_R(True, -1, -1).decision == NO
    assert decide_over_R(True, 1, 1).decision == NO
    assert decide_over_R(False, 1, -1).decision == YES
    assert decide_over_R(False, 1, -1).rule == "R1"
    with pytest.raises(ValueError):
        decide_over_R(True, 2, 1)


GALOIS_CUBICS = [
    X3_3X_1,
    CubicEtale.field(-3, 0, 3),  # x^3 - 3x - 1 shifted by 1
    CubicEtale.field(-1, -2, 1),  # x^3 + x^2 - 2x - 1, discriminant 49
]


@pytest.mark.parametrize("cubic", GALOIS_CUBICS)
def test_laurent_counterexample(cubic):
    scenario = LaurentScenario(-1, -1, -1, cubic)
    over_k, over_kp, over_l = decide_laurent_counterexample(scenario)
    assert (over_k.decision, over_kp.decision, over_l.decision) == (NO, YES, YES)
    assert over_k.rule == "residue"
    assert ("h1-vanishing", YES) in over_k.crosschecks
    assert ("second-residue-anisotropic", YES) in over_k.crosschecks


def test_laurent_counterexample_other_quaternions():
    # (-1, -3) is division, contains Q(sqrt(-3))
    scenario = LaurentScenario(-1, -3, -3, X3_3X_1)
    over_k, over_kp, over_l = decide_laurent_counterexample(scenario)
    assert (over_k.decision, over_kp.decision, over_l.decision) == (NO, YES, YES)


def test_invalid_scenarios():
    with pytest.raises(InvalidScenario):
        decide_laurent_counterexample(LaurentScenario(1, 1, -1, X3_3X_1))  # split quaternion
    with pytest.raises(InvalidScenario):
        decide_laurent_counterexample(LaurentScenario(-1, -1, 5, X3_3X_1))  # sqrt(5) not inside
    with pytest.raises(InvalidScenario):
        decide_laurent_counterexample(LaurentScenario(-1, -1, -1, X3_2))  # not Galois
    with pytest.raises(InvalidScenario):
        decide_laurent_counterexample(LaurentScenario(-1, -1, -1, CubicEtale.split()))
    # floats are rejected when the scenario is built, not read as binary values
    with pytest.raises(ValueError):
        LaurentScenario(-0.5, -1, -1, X3_3X_1)
    with pytest.raises(ValueError):
        LaurentScenario(-1, -1, -1.0, X3_3X_1)


def test_odd_degree_reduction():
    assert odd_degree_reduction([(3, YES)]).decision == YES
    assert odd_degree_reduction([(2, YES), (4, YES)]).decision == INCONCLUSIVE
    assert odd_degree_reduction([(2, YES), (3, YES)]).decision == YES
    assert odd_degree_reduction([(2, NO)]).decision == INCONCLUSIVE
    with pytest.raises(ValueError):
        odd_degree_reduction([])


def test_verdict_json_shape():
    v = decide_over_Q(SPLIT, _type(-1, CubicEtale.split()))
    packed = v.to_json()
    assert set(packed) == {"decision", "rule", "witnesses", "crosschecks"}
    assert packed["decision"] == YES and packed["rule"] == "R1"
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in packed["crosschecks"])


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "grid_golden.jsonl"


def test_grid_verdicts_match_golden():
    """Every grid verdict, the 25 exhaustive lambda searches included, is
    byte-identical to the frozen one."""
    checked = 0
    for line in GOLDEN.read_text().splitlines():
        row = json.loads(line)
        inst = row["instance"]
        algebra = CompositionAlgebra(tuple(inst["octonion"]))
        verdict = decide_over_Q(algebra, _type(inst["d"], _parse_cubic(inst["cubic"])))
        got = json.dumps(verdict.to_json(), sort_keys=True)
        assert got == json.dumps(row["verdict"], sort_keys=True), inst
        checked += 1
    assert checked == 200


def test_real_place_certificate_fires_on_the_inconclusive_grid_instances(monkeypatch):
    """A search that never enumerates was settled by the real place; that
    happens on exactly the 25 golden INCONCLUSIVE instances."""
    events = []

    def search(*args):
        events.append("search")
        return lambda_witness_search(*args)

    def candidates(height):
        events.append("enumerate")
        return lambda_candidates(height)

    monkeypatch.setattr(engine, "lambda_witness_search", search)
    monkeypatch.setattr(hermitian, "lambda_candidates", candidates)
    fired = 0
    for line in GOLDEN.read_text().splitlines():
        row = json.loads(line)
        inst = row["instance"]
        events.clear()
        decide_over_Q(CompositionAlgebra(tuple(inst["octonion"])), _type(inst["d"], _parse_cubic(inst["cubic"])))
        crosscheck = dict(row["verdict"]["crosschecks"])["hermitian-criterion"]
        assert (events == ["search"]) == (crosscheck == INCONCLUSIVE), inst
        fired += events == ["search"]
    assert fired == 25


@pytest.mark.parametrize("params", [(2, 3, 25), (-2, -3, -7)])
@pytest.mark.parametrize("d", [-1, -5])
def test_presentation_is_the_first_search_hit(params, d):
    C = CompositionAlgebra(params)
    assert embeds_quadratic(C, QuadraticEtale(d))
    b, c = _find_presentation(C, d, is_split(C))
    assert (b, c) == ((1, 1) if is_split(C) else (-1, -1))
    # the brute-force search over the candidates 1, -1, 2, -2 finds it first
    candidates = (1, -1, 2, -2)
    first = next(
        (x, y)
        for x in candidates
        for y in candidates
        if is_isometric(pfister([d, x, y]), norm_form(C))
    )
    assert (b, c) == first

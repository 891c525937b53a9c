"""Decision procedures for maximal-torus types of octonion automorphism groups.

Over Q the verdict always comes from one of three complete rules:

  R1  split algebras admit every type;
  R2  a non-split algebra admits no type with split quadratic part;
  R3  for the anisotropic algebra, a type embeds iff the quadratic part is
      imaginary and the cubic discriminant is positive.

Every decision also runs the applicable independent rules (equal
discriminant, biquadratic, hermitian lambda-criterion) as crosschecks;
disagreement raises instead of being resolved by precedence.  Facts about
C are computed once per decision.  Only the lambda is searched for: the
common slot is a Hasse norm test (1, without doubling parameters, when no
candidate passes), and the other witnesses follow from the signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import SquareClass, class_product, is_norm, parse_rational, squarefree_class
from .composition import (
    DEFAULT_WITNESS_BOUND,
    CompositionAlgebra,
    embeds_quadratic,
    embeds_quaternion,
    is_split,
    norm_form,
    square_class_candidates,
)
from .etale import (
    CubicEtale,
    QuadraticEtale,
    TorusType,
    cubic_discriminant,
    galois_image,
)
from .hermitian import lambda_witness_search
from .quadforms import (
    LaurentForm,
    QuadForm,
    is_isometric,
    is_isotropic,
    pfister,
    represents_subform,
)
from .weyl import verify_h1_vanishing

YES = "YES"
NO = "NO"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_SEARCH_HEIGHT = 10


class CrossCheckDisagreement(RuntimeError):
    """Two complete rules disagreed; a bug detector, never a user state."""


class InvalidScenario(ValueError):
    """Laurent-series input outside the supported counterexample family."""


@dataclass
class Verdict:
    decision: str
    rule: str
    witnesses: dict = field(default_factory=dict)
    crosschecks: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "rule": self.rule,
            "witnesses": self.witnesses,
            "crosschecks": [list(pair) for pair in self.crosschecks],
        }


def _find_presentation(C: CompositionAlgebra, d: SquareClass, split: bool):
    """Parameters (b, c) with norm form <<d, b, c>>, for d embedding in C.

    Over Q a 3-fold Pfister form is hyperbolic at every prime, so it is
    fixed by its signature.  For split C, b = 1 makes <<d, b, c>>
    hyperbolic.  For anisotropic C the norm form is positive definite, so
    an embedding d is negative and <<d, -1, -1>> is positive definite too.
    """
    b = c = 1 if split else -1
    if not is_isometric(pfister([d, b, c]), norm_form(C)):
        raise CrossCheckDisagreement(f"<<{d}, {b}, {c}>> is not the norm form of {C}")
    return b, c


def decide_over_Q(C: CompositionAlgebra, t: TorusType, height: int = DEFAULT_SEARCH_HEIGHT) -> Verdict:
    """Decide whether Aut(C) has a maximal torus of type (k', l) over Q."""
    if C.dim != 8:
        raise ValueError("decisions are about octonion algebras")
    d = t.kprime.d
    delta = cubic_discriminant(t.l)
    split = is_split(C)
    kprime_embeds = embeds_quadratic(C, t.kprime)

    if split:
        decision, rule = YES, "R1"
    elif d == 1:
        decision, rule = NO, "R2"
    else:
        decision, rule = (YES if (d < 0 and delta > 0) else NO), "R3"

    verdict = Verdict(decision, rule)
    verdict.witnesses["d"] = d
    verdict.witnesses["delta"] = delta

    # equal discriminant rule: delta = d forces NO unless C splits
    if delta == d:
        eq = YES if split else NO
        verdict.crosschecks.append(("equal-discriminant", eq))
        if eq != decision:
            raise CrossCheckDisagreement("equal-discriminant rule disagrees")

    # biquadratic rule, applicable when the cubic is not a field
    if t.l.kind != "field":
        e = 1 if t.l.kind == "split" else t.l.e
        k1 = class_product(d, e)
        k2 = d  # so k2 embeds iff k' does
        bi = YES if (embeds_quadratic(C, QuadraticEtale(k1)) and kprime_embeds) else NO
        verdict.crosschecks.append(("biquadratic", bi))
        if bi != decision:
            raise CrossCheckDisagreement("biquadratic rule disagrees")
        if bi == YES and k1 != 1 and k2 != 1:
            slot = _common_slot(split, k1, k2)
            verdict.witnesses["common_slot"] = slot
            doubling = embeds_quaternion(C, CompositionAlgebra((k1, slot)))
            if doubling is not None:
                verdict.witnesses["doubling_params"] = [k1, slot, doubling]

    # hermitian lambda-criterion
    if not kprime_embeds:
        # condition (i) of the criterion is unsatisfiable
        verdict.crosschecks.append(("hermitian-criterion", NO))
        if decision == YES:
            raise CrossCheckDisagreement("hermitian criterion disagrees")
    else:
        b, c = _find_presentation(C, d, split)
        found = lambda_witness_search(t.l, d, b, c, height)
        if found is not None:
            lam, t_form = found
            verdict.crosschecks.append(("hermitian-criterion", YES))
            if decision == NO:
                raise CrossCheckDisagreement("hermitian criterion disagrees")
            verdict.witnesses["lambda"] = list(lam)
            verdict.witnesses["b"] = b
            verdict.witnesses["c"] = c
            verdict.witnesses["transfer_form"] = list(t_form.diag)
        else:
            verdict.crosschecks.append(("hermitian-criterion", INCONCLUSIVE))

    # monotone necessary condition: a YES type always splits C over k'
    if decision == YES and not kprime_embeds:
        raise CrossCheckDisagreement("YES verdict without a quadratic embedding")
    return verdict


def _common_slot(split: bool, k1: SquareClass, k2: SquareClass) -> SquareClass:
    """The first candidate c with (k1, c) = (k2, c) a quaternion subalgebra
    of C, else 1.  They are isomorphic iff c is a norm from Q(sqrt(k1*k2));
    by Pfister's subform theorem <<k1, c>> is a subform of a split norm
    always, and of the definite one (where k1 < 0) iff c < 0."""
    k = class_product(k1, k2)
    for c in square_class_candidates(DEFAULT_WITNESS_BOUND):
        if (c < 0 or split) and is_norm(k, c):
            return c
    return 1


def decide_over_R(definite: bool, d: int, delta: int) -> Verdict:
    """Decision over the reals; square classes are +-1."""
    if d not in (1, -1) or delta not in (1, -1):
        raise ValueError("real square classes are +1 or -1")
    if not definite:
        return Verdict(YES, "R1", {"d": d, "delta": delta})
    if d == -1 and delta == 1:
        return Verdict(YES, "real-compact", {"d": d, "delta": delta})
    return Verdict(NO, "real-compact", {"d": d, "delta": delta})


@dataclass(frozen=True)
class LaurentScenario:
    """The counterexample family over Q((t)): C = C(Q_K, t) with Q a division
    quaternion algebra, k' a quadratic subfield of Q, and l a Galois cubic."""

    a: Fraction
    b: Fraction
    d: SquareClass
    l: CubicEtale

    def __post_init__(self):
        object.__setattr__(self, "a", parse_rational(self.a))
        object.__setattr__(self, "b", parse_rational(self.b))
        object.__setattr__(self, "d", squarefree_class(self.d))

    def quaternion_norm(self) -> QuadForm:
        return pfister([squarefree_class(self.a), squarefree_class(self.b)])

    def validate(self):
        nq = self.quaternion_norm()
        if is_isotropic(nq):
            raise InvalidScenario("the quaternion algebra must be division")
        if not represents_subform(nq, QuadForm((1, -self.d))):
            raise InvalidScenario("k' must embed in the quaternion algebra")
        if self.l.kind != "field":
            raise InvalidScenario("l must be a cubic field")
        if cubic_discriminant(self.l) != 1:
            raise InvalidScenario("l must be Galois: square discriminant")


def decide_laurent_counterexample(s: LaurentScenario) -> tuple[Verdict, Verdict, Verdict]:
    """The three verdicts (over K, K', L) for the Laurent counterexample.

    Over K the residue rule applies: the relevant H^1 vanishes and the
    second Springer residue of the norm form is anisotropic, so the algebra
    is not defined over Q and no torus of the given type embeds.  Over K'
    the algebra splits (R1); over L the type becomes split-cubic and the
    quadratic part still splits the algebra.
    """
    s.validate()
    nq = s.quaternion_norm()
    t = TorusType(QuadraticEtale(s.d), s.l)

    image = galois_image(t)
    if not verify_h1_vanishing(image):
        raise CrossCheckDisagreement("H^1 vanishing fails on a valid scenario")
    laurent = LaurentForm(nq, nq)
    second_residue_anisotropic = not is_isotropic(laurent.q2)
    if not second_residue_anisotropic:
        raise CrossCheckDisagreement("second residue must be anisotropic here")

    over_k = Verdict(
        NO,
        "residue",
        witnesses={
            "laurent_form": {"q1": list(laurent.q1.diag), "q2": list(laurent.q2.diag)},
            "galois_image_order": len(image),
        },
        crosschecks=[("h1-vanishing", YES), ("second-residue-anisotropic", YES)],
    )
    over_kprime = Verdict(
        YES,
        "R1",
        witnesses={"splits_quaternion": s.d},
        crosschecks=[("quadratic-splits-C", YES)],
    )
    over_l = Verdict(
        YES,
        "split-cubic",
        witnesses={"splits_quaternion": s.d},
        crosschecks=[("quadratic-splits-C", YES)],
    )
    return over_k, over_kprime, over_l


def odd_degree_reduction(points) -> Verdict:
    """Zero-cycle rule: an odd gcd of YES-degrees forces a k-point."""
    points = list(points)
    if not points:
        raise ValueError("need at least one closed point")
    yes_degrees = [int(deg) for deg, decision in points if decision == YES]
    if yes_degrees and math.gcd(*yes_degrees) % 2 == 1:
        return Verdict(YES, "odd-degree", {"degrees": yes_degrees})
    return Verdict(INCONCLUSIVE, "odd-degree", {"degrees": yes_degrees})

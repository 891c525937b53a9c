"""Command line interface.

Exit codes: 0 for YES (and informational output), 3 for NO, 4 for
INCONCLUSIVE, 64 for a malformed command line, 65 for a value the library
rejects, 66 for a number whose square class trial division cannot certify
(FactorizationOverflow), and 70 when two decision rules disagree
(CrossCheckDisagreement, a bug).  Errors print one ``g2tori: error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import arith, composition, engine, etale, quadforms, weyl

EXIT_USAGE = 64
_EXIT_BY_DECISION = {engine.YES: 0, engine.NO: 3, engine.INCONCLUSIVE: 4}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


# first match wins, so UsageError precedes its base class ValueError
_EXIT_BY_ERROR = (
    (UsageError, EXIT_USAGE),
    (ValueError, 65),
    (arith.FactorizationOverflow, 66),
    (engine.CrossCheckDisagreement, 70),
)


def _parse_rationals(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational list {text!r}: {exc}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def _parse_cubic(text: str) -> etale.CubicEtale:
    try:
        if text == "split":
            return etale.CubicEtale.split()
        if text.startswith("partial:"):
            return etale.CubicEtale.partial(_parse_int(text.split(":", 1)[1]))
        if text.startswith("field:"):
            coeffs = [_parse_int(x) for x in text.split(":", 1)[1].split(",")]
            if len(coeffs) != 3:
                raise UsageError("field cubic needs three coefficients c0,c1,c2")
            return etale.CubicEtale.field(*coeffs)
    except etale.ReduciblePolynomial as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(f"bad cubic spec {text!r}; use split | partial:e | field:c0,c1,c2")


def _parse_group(text: str):
    if text in weyl.NAMED_SUBGROUPS:
        return weyl.named_subgroup(text)
    elements = []
    for token in text.split(","):
        token = token.strip()
        try:
            sign_text, perm_text = token.split(":")
            sign = int(sign_text)
            perm = tuple(int(ch) for ch in perm_text)
        except ValueError:
            raise UsageError(
                f"bad group element {token!r}; use e.g. 1:123 or -1:213"
            ) from None
        if sign not in (1, -1) or sorted(perm) != [1, 2, 3]:
            raise UsageError(f"bad group element {token!r}")
        elements.append(weyl.weyl_element(sign, perm))
    try:
        return weyl.normalize_subgroup(elements)
    except weyl.NotAGroup as exc:
        raise UsageError(str(exc)) from None


def _print_verdict(verdict: engine.Verdict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(verdict.to_json()))
    else:
        extra = f" witnesses={verdict.witnesses}" if verdict.witnesses else ""
        print(f"{verdict.decision} rule={verdict.rule}{extra}")
    return _EXIT_BY_DECISION[verdict.decision]


def _cmd_octonion(args) -> int:
    if args.action == "classify":
        algebra = composition.CompositionAlgebra(_parse_rationals(args.params))
        split = composition.is_split(algebra)
        print(
            json.dumps(
                {
                    "split": split,
                    "isomorphism_class": "split" if split else "anisotropic",
                    "norm_form": list(composition.norm_form(algebra).diag),
                }
            )
        )
        return 0
    left = composition.CompositionAlgebra(_parse_rationals(args.left))
    right = composition.CompositionAlgebra(_parse_rationals(args.right))
    same = quadforms.is_isometric(
        composition.norm_form(left), composition.norm_form(right)
    )
    print(engine.YES if same else engine.NO)
    return 0 if same else 3


def _cmd_embed(args) -> int:
    if args.action == "decide":
        algebra = composition.CompositionAlgebra(_parse_rationals(args.octonion))
        t = etale.TorusType(
            etale.QuadraticEtale(_parse_int(args.quadratic)), _parse_cubic(args.cubic)
        )
        verdict = engine.decide_over_Q(algebra, t, height=args.height)
        return _print_verdict(verdict, args.json)
    verdict = engine.decide_over_R(args.definite, args.d, args.delta)
    return _print_verdict(verdict, args.json)


def _cmd_laurent(args) -> int:
    a, b = _parse_rationals(args.quaternion)
    scenario = engine.LaurentScenario(
        a, b, _parse_int(args.quadratic), _parse_cubic(args.cubic)
    )
    try:
        over_k, over_kp, over_l = engine.decide_laurent_counterexample(scenario)
    except engine.InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        json.dumps(
            {
                "K": over_k.to_json(),
                "Kprime": over_kp.to_json(),
                "L": over_l.to_json(),
            }
        )
    )
    return 0


def _cmd_form(args) -> int:
    if args.action == "isotropic":
        q = quadforms.QuadForm(_parse_rationals(args.diag))
        if args.q2 is not None:
            laurent = quadforms.LaurentForm(q, quadforms.QuadForm(_parse_rationals(args.q2)))
            answer = quadforms.laurent_is_isotropic(laurent)
        else:
            answer = quadforms.is_isotropic(q)
        print(engine.YES if answer else engine.NO)
        return 0 if answer else 3
    if args.action == "isometric":
        q1 = quadforms.QuadForm(_parse_rationals(args.left))
        q2 = quadforms.QuadForm(_parse_rationals(args.right))
        answer = quadforms.is_isometric(q1, q2)
        print(engine.YES if answer else engine.NO)
        return 0 if answer else 3
    if args.action == "witt":
        q = quadforms.QuadForm(_parse_rationals(args.diag))
        index, kernel = quadforms.witt_decompose(q)
        print(json.dumps({"witt_index": index, "anisotropic_dim": kernel}))
        return 0
    lam = _parse_rationals(args.lam)
    form = etale.trace_transfer_form(_parse_cubic(args.cubic), lam)
    print(json.dumps(quadforms.quadform_to_json(form)))
    return 0


def _cmd_cohomology(args) -> int:
    group = _parse_group(args.group)
    catalog = weyl.lattice_catalog()
    lattice = catalog.lattices.get(args.lattice)
    if lattice is None:
        raise UsageError(
            f"unknown lattice {args.lattice!r}; choose from {sorted(catalog.lattices)}"
        )
    divisors = weyl.h1(group, lattice)
    print(json.dumps({"elementary_divisors": divisors}))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="g2tori")
    sub = parser.add_subparsers(dest="command", required=True)

    octonion = sub.add_parser("octonion", help="classify octonion algebras")
    oct_sub = octonion.add_subparsers(dest="action", required=True)
    classify = oct_sub.add_parser("classify")
    classify.add_argument("--params", required=True, help="doubling scalars a,b,c")
    iso = oct_sub.add_parser("isomorphic")
    iso.add_argument("--left", required=True)
    iso.add_argument("--right", required=True)

    embed = sub.add_parser("embed", help="torus type decisions")
    embed_sub = embed.add_subparsers(dest="action", required=True)
    decide = embed_sub.add_parser("decide")
    decide.add_argument("--octonion", required=True, help="doubling scalars a,b,c")
    decide.add_argument("--quadratic", required=True, help="square class d")
    decide.add_argument("--cubic", required=True, help="split | partial:e | field:c0,c1,c2")
    decide.add_argument("--height", type=int, default=engine.DEFAULT_SEARCH_HEIGHT)
    decide.add_argument("--json", action="store_true")
    real = embed_sub.add_parser("real")
    mode = real.add_mutually_exclusive_group(required=True)
    mode.add_argument("--definite", dest="definite", action="store_true")
    mode.add_argument("--split", dest="definite", action="store_false")
    real.add_argument("--d", type=int, required=True, choices=(1, -1))
    real.add_argument("--delta", type=int, required=True, choices=(1, -1))
    real.add_argument("--json", action="store_true")

    laurent = sub.add_parser("laurent", help="the Q((t)) counterexample family")
    laurent_sub = laurent.add_subparsers(dest="action", required=True)
    theorem = laurent_sub.add_parser("theorem")
    theorem.add_argument("--quaternion", required=True, help="scalars a,b")
    theorem.add_argument("--quadratic", required=True)
    theorem.add_argument("--cubic", required=True)

    form = sub.add_parser("form", help="quadratic form computations")
    form_sub = form.add_subparsers(dest="action", required=True)
    isotropic = form_sub.add_parser("isotropic")
    isotropic.add_argument("--diag", required=True)
    isotropic.add_argument("--q2", help="second residue form over Q((t))")
    isometric = form_sub.add_parser("isometric")
    isometric.add_argument("--left", required=True)
    isometric.add_argument("--right", required=True)
    witt = form_sub.add_parser("witt")
    witt.add_argument("--diag", required=True)
    transfer = form_sub.add_parser("transfer")
    transfer.add_argument("--cubic", required=True)
    transfer.add_argument("--lam", required=True, help="coordinates of lambda")

    cohomology = sub.add_parser("cohomology", help="H^1 of W0-lattices")
    coh_sub = cohomology.add_subparsers(dest="action", required=True)
    h1 = coh_sub.add_parser("h1")
    h1.add_argument("--group", required=True, help='e.g. "Z2xA3" or "1:123,-1:213"')
    h1.add_argument("--lattice", required=True, help="T0hat|T0coch|eps|N|M|Ilk|Zsign")

    return parser


_HANDLERS = {
    "octonion": _cmd_octonion,
    "embed": _cmd_embed,
    "laurent": _cmd_laurent,
    "form": _cmd_form,
    "cohomology": _cmd_cohomology,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except Exception as exc:
        for errors, code in _EXIT_BY_ERROR:
            if isinstance(exc, errors):
                print(f"g2tori: error: {exc}", file=sys.stderr)
                return code
        raise


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

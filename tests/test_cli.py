import json

from g2tori import engine
from g2tori.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_embed_decide_json_examples(capsys):
    code, out = run(
        capsys,
        "embed", "decide", "--octonion=-1,-1,-1", "--quadratic=-1",
        "--cubic", "field:-1,-3,0", "--json",
    )
    packed = json.loads(out)
    assert (packed["decision"], packed["rule"]) == ("YES", "R3")
    assert code == 0

    code, out = run(
        capsys,
        "embed", "decide", "--octonion=-1,-1,-1", "--quadratic=-1",
        "--cubic", "field:-2,0,0", "--json",
    )
    packed = json.loads(out)
    assert (packed["decision"], packed["rule"]) == ("NO", "R3")
    assert code == 3

    code, out = run(
        capsys,
        "embed", "decide", "--octonion=1,1,1", "--quadratic=7",
        "--cubic", "field:-2,0,0", "--json",
    )
    packed = json.loads(out)
    assert (packed["decision"], packed["rule"]) == ("YES", "R1")
    assert code == 0


def test_embed_decide_equal_discriminant_crosscheck(capsys):
    code, out = run(
        capsys,
        "embed", "decide", "--octonion=-1,-1,-1", "--quadratic=-3",
        "--cubic", "field:-2,0,0", "--json",
    )
    packed = json.loads(out)
    assert packed["decision"] == "NO"
    assert ["equal-discriminant", "NO"] in packed["crosschecks"]
    assert code == 3


def test_octonion_commands(capsys):
    code, out = run(capsys, "octonion", "classify", "--params=-1,-1,-1")
    packed = json.loads(out)
    assert packed["split"] is False and packed["norm_form"] == [1] * 8
    assert code == 0

    code, out = run(capsys, "octonion", "isomorphic", "--left=1,1,1", "--right=-1,-1,2")
    assert out == "YES" and code == 0
    code, out = run(capsys, "octonion", "isomorphic", "--left=1,1,1", "--right=-1,-1,-1")
    assert out == "NO" and code == 3


def test_embed_real(capsys):
    code, out = run(capsys, "embed", "real", "--definite", "--d=-1", "--delta=1")
    assert code == 0 and out.startswith("YES")
    code, out = run(capsys, "embed", "real", "--definite", "--d=-1", "--delta=-1")
    assert code == 3
    code, out = run(capsys, "embed", "real", "--split", "--d=1", "--delta=-1")
    assert code == 0


def test_laurent_theorem(capsys):
    code, out = run(
        capsys,
        "laurent", "theorem", "--quaternion=-1,-1", "--quadratic=-1",
        "--cubic", "field:-1,-3,0",
    )
    packed = json.loads(out)
    assert packed["K"]["decision"] == "NO"
    assert packed["Kprime"]["decision"] == "YES"
    assert packed["L"]["decision"] == "YES"
    assert code == 0


def test_form_commands(capsys):
    code, out = run(capsys, "form", "isotropic", "--diag", "1,1,1")
    assert out == "NO" and code == 3
    code, out = run(capsys, "form", "isotropic", "--diag=1,-2,1")
    assert out == "YES" and code == 0
    code, out = run(capsys, "form", "isotropic", "--diag", "1,1,1,1", "--q2", "1,1,1,1")
    assert out == "NO" and code == 3
    code, out = run(capsys, "form", "isometric", "--left=1,-1", "--right=2,-2")
    assert out == "YES" and code == 0
    code, out = run(capsys, "form", "witt", "--diag=1,1,-2")
    assert json.loads(out) == {"witt_index": 1, "anisotropic_dim": 1}
    code, out = run(capsys, "form", "transfer", "--cubic", "field:-1,-3,0", "--lam", "1,0,0")
    assert json.loads(out) == {"diag": [3, 6, 2]}


def test_cohomology_command(capsys):
    code, out = run(capsys, "cohomology", "h1", "--group", "Z2xA3", "--lattice", "Ilk")
    assert json.loads(out) == {"elementary_divisors": [3]}
    code, out = run(capsys, "cohomology", "h1", "--group=1:123,-1:123", "--lattice", "T0hat")
    assert json.loads(out) == {"elementary_divisors": [2, 2]}


def test_usage_errors(capsys):
    assert main(["nonsense"]) >= 64
    assert main(["embed", "decide", "--octonion", "1,1"]) >= 64  # missing args
    code = main(
        ["embed", "decide", "--octonion", "1,1,1", "--quadratic", "1", "--cubic", "bogus"]
    )
    assert code >= 64
    code = main(["cohomology", "h1", "--group=1:123,1:231", "--lattice", "T0hat"])
    assert code >= 64  # not closed under multiplication
    code = main(["cohomology", "h1", "--group", "A3", "--lattice", "Nope"])
    assert code >= 64
    code = main(
        ["embed", "decide", "--octonion", "1,1,1", "--quadratic", "1",
         "--cubic", "field:-1,1,-1"]
    )
    assert code >= 64  # reducible cubic


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("g2tori: error:") and err.count("\n") == 1, err


def test_factorization_overflow_exit_code(capsys):
    assert main(["form", "isotropic", "--diag=1000036000099,1"]) == 66
    _one_error_line(capsys)
    code = main(
        ["embed", "decide", "--octonion=-1,-1,-1", "--quadratic=1000036000099", "--cubic=split"]
    )
    assert code == 66
    _one_error_line(capsys)


def test_isometry_of_classes_with_an_uncertified_product(capsys):
    # each entry's class is certified; their product 1000003 * 1000033
    # is never factored, so the query answers instead of exiting 66
    code, out = run(capsys, "form", "isometric", "--left=1000003,1000033", "--right=4000012,1000033")
    assert out == "YES" and code == 0


def test_crosscheck_disagreement_exit_code(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise engine.CrossCheckDisagreement("biquadratic rule disagrees")

    monkeypatch.setattr(engine, "decide_over_Q", disagree)
    code = main(["embed", "decide", "--octonion=-1,-1,-1", "--quadratic=-1", "--cubic=split"])
    assert code == 70
    _one_error_line(capsys)

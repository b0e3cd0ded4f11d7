"""Expression grammar and command-line interface tests."""

import json
import random
from pathlib import Path

import pytest

from padem.cli import main
from padem.errors import ExprTypeError, ParseError, ReconstructionError
from padem.nilhecke import NilHeckeElement
from padem.parser import (
    Gen,
    Num,
    Power,
    Product,
    Sum,
    parse,
    parse_and_evaluate,
    render,
)
from padem.poly import Polynomial

SCHEMA = json.loads(
    (Path(__file__).parent / "schemas" / "cli_output.json").read_text()
)


# -- grammar ----------------------------------------------------------------


def test_parse_polynomial_example():
    f = parse_and_evaluate("x1^2*x2 + 3*x3", "polynomial", 5, 3)
    assert f == Polynomial(5, 3, {(2, 1, 0): 1, (0, 0, 1): 3})
    assert parse_and_evaluate("e2", "polynomial", 5, 3) == parse_and_evaluate(
        "x1*x2 + x1*x3 + x2*x3", "polynomial", 5, 3
    )
    assert parse_and_evaluate("p2", "polynomial", 5, 2) == parse_and_evaluate(
        "x1^2 + x2^2", "polynomial", 5, 2
    )


def test_parse_steenrod_example():
    ast = parse("P(2)*P(1)", "steenrod")
    e = parse_and_evaluate("P(2)*P(1)", "steenrod", 3, 1)
    assert e.terms == {(2, 1): 1}
    assert render(ast) == "P(2)*P(1)"


def test_parse_nilhecke_example():
    e = parse_and_evaluate("D1*D2*D1 - D2*D1*D2", "nilhecke", 3, 3)
    assert e.is_zero()
    via_alias = parse_and_evaluate("X1^3*D1", "nilhecke", 3, 2)
    explicit = NilHeckeElement.from_word(
        3, 2, (("x", 1), ("x", 1), ("x", 1), ("d", 1))
    )
    assert via_alias == explicit


def test_parentheses_and_precedence():
    f = parse_and_evaluate("(x1 + x2)^2", "polynomial", 5, 2)
    x1 = Polynomial.variable(5, 2, 1)
    x2 = Polynomial.variable(5, 2, 2)
    assert f == (x1 + x2) * (x1 + x2)
    g = parse_and_evaluate("x1 + x2*x1", "polynomial", 5, 2)
    assert g == x1 + x2 * x1
    assert parse_and_evaluate("2*(1 + x1)", "polynomial", 5, 2) == (
        Polynomial.one(5, 2) + x1
    ) * 2


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse("x1 + * x2", "polynomial")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse("x1 x2", "polynomial")  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse("", "polynomial")
    with pytest.raises(ParseError):
        parse("P(2", "steenrod")
    with pytest.raises(ParseError):
        parse("q1", "polynomial")


def test_type_errors_per_target():
    with pytest.raises(ExprTypeError):
        parse("D1", "polynomial")
    with pytest.raises(ExprTypeError):
        parse("P(2)", "nilhecke")
    with pytest.raises(ExprTypeError):
        parse("e2", "nilhecke")
    with pytest.raises(ExprTypeError):
        parse("x1", "steenrod")


# -- round trip on a generated corpus ---------------------------------------


def random_ast(rng, target, depth=0):
    kinds = {
        "polynomial": ["x", "e", "p"],
        "nilhecke": ["x", "D"],
        "steenrod": ["P"],
    }[target]

    def atom():
        roll = rng.random()
        if roll < 0.2:
            return Num(rng.randint(0, 9))
        if roll < 0.9 or depth >= 2:
            return Gen(rng.choice(kinds), rng.randint(1, 3))
        return random_ast(rng, target, depth + 1)

    def factor():
        a = atom()
        if rng.random() < 0.3:
            return Power(a, rng.randint(1, 4))
        return a

    def product():
        return Product(tuple(factor() for _ in range(rng.randint(1, 3))))

    terms = [(1, product())]
    for _ in range(rng.randint(0, 2)):
        terms.append((rng.choice((1, -1)), product()))
    return Sum(tuple(terms))


@pytest.mark.parametrize("target", ["polynomial", "nilhecke", "steenrod"])
def test_render_parse_round_trip(target):
    rng = random.Random(99)
    for _ in range(1000):
        ast = random_ast(rng, target)
        source = render(ast)
        reparsed = parse(source, target)
        assert render(reparsed) == source
        assert parse(render(reparsed), target) == reparsed


@pytest.mark.parametrize("p", (2, 3, 5))
def test_rendered_values_reparse_to_equal_values(p):
    # the text renderings of all three algebras are valid grammar inputs
    rng = random.Random(p)
    n = 3
    for _ in range(30):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): rng.randrange(1, p)
            for _ in range(rng.randint(1, 4))
        }
        f = Polynomial(p, n, terms)
        assert parse_and_evaluate(str(f), "polynomial", p, n) == f
    for _ in range(30):
        letters = tuple(
            ("x", rng.randint(1, n)) if rng.random() < 0.5 else ("d", rng.randint(1, n - 1))
            for _ in range(rng.randint(1, 4))
        )
        e = NilHeckeElement.from_word(p, n, letters, rng.randrange(1, p)).normalize()
        rendered = str(e)
        assert parse_and_evaluate(rendered, "nilhecke", p, n) == e
    from padem.steenrod import SteenrodElement, adem_normalize

    for _ in range(30):
        word = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        e = adem_normalize(SteenrodElement(p, {word: rng.randrange(1, p)}))
        assert parse_and_evaluate(str(e), "steenrod", p, 1) == e


# -- CLI --------------------------------------------------------------------


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_adem_example_byte_exact(capsys):
    code, out, _ = run_cli(capsys, "adem", "P(1)*P(1)", "-p", "3")
    assert code == 0
    assert out == "2*P(2)\n"


def test_cli_schubert_example_byte_exact(capsys):
    code, out, _ = run_cli(capsys, "schubert", "--n", "3", "--perm", "1,2,3")
    assert code == 0
    assert out == "1\n"


def test_cli_groth_example_byte_exact(capsys):
    code, out, _ = run_cli(capsys, "groth", "--profile", "1", "-p", "2")
    assert code == 0
    assert out == "relation 1+q^2\nfactors [Phi_4]\n"


def test_cli_act_and_nh(capsys):
    code, out, _ = run_cli(capsys, "act", "P(1)", "on", "x1", "-p", "3")
    assert code == 0 and out == "x1^3\n"
    code, out, _ = run_cli(
        capsys, "act", "P(1)", "on", "x1", "-p", "3", "--action", "nonstandard"
    )
    assert code == 0 and out == "2*x1^2\n"
    code, out, _ = run_cli(capsys, "nh", "apply", "D1*X1", "to", "1", "-p", "3", "-n", "2")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "nh", "normalize", "D1*X1", "-p", "3", "-n", "2")
    assert code == 0 and out == "x2*D1 + 1\n"


def test_cli_nh_normalize_long_power(capsys):
    # (D1*X1)^k = x2*D1 + 1 for every k >= 1; word rewriting took
    # exponential time in k here
    code, out, _ = run_cli(capsys, "nh", "normalize", "(D1*X1)^12", "-p", "3", "-n", "2")
    assert code == 0 and out == "x2*D1 + 1\n"


@pytest.mark.parametrize("prime", ("4", "101"))
def test_cli_nh_normalize_rejects_bad_prime(capsys, prime):
    code, out, err = run_cli(capsys, "nh", "normalize", "D1", "-p", prime, "-n", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_margolis(capsys):
    code, out, _ = run_cli(capsys, "margolis", "--t", "2", "--on", "x1", "-p", "2", "-n", "1")
    assert code == 0 and out == "x1^4\n"
    code, out, _ = run_cli(capsys, "margolis", "--t", "1", "--op", "D1", "-p", "2", "-n", "2")
    assert code == 0 and out == "x1*D1 + x2*D1\n"


def test_cli_exit_codes(capsys):
    assert run_cli(capsys, "adem", "P(1")[0] == 2  # syntax
    assert run_cli(capsys, "act", "D1", "on", "x1")[0] == 2  # type error
    assert run_cli(capsys, "schubert", "--n", "3", "--perm", "1,1,3")[0] == 3
    assert run_cli(capsys, "schubert", "--n", "3", "--perm", "1,2")[0] == 3
    assert run_cli(capsys, "adem", "P(1)*P(1)", "-p", "4")[0] == 3
    assert run_cli(capsys, "act", "P(1)", "onto", "x1")[0] == 1
    assert run_cli(capsys, "margolis", "--t", "1")[0] == 1


def test_cli_stdin_expression(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("P(1)*P(1)"))
    code, out, _ = run_cli(capsys, "adem", "-", "-p", "3")
    assert code == 0 and out == "2*P(2)\n"


def test_cli_env_default_prime(capsys, monkeypatch):
    monkeypatch.setenv("PADEM_PRIME", "3")
    code, out, _ = run_cli(capsys, "adem", "P(1)*P(1)")
    assert code == 0 and out == "2*P(2)\n"


def _check_schema(payload, spec):
    checkers = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "str": lambda v: isinstance(v, str),
        "bool": lambda v: isinstance(v, bool),
        "list[int]": lambda v: isinstance(v, list)
        and all(isinstance(x, int) for x in v),
        "list[dict]": lambda v: isinstance(v, list)
        and all(isinstance(x, dict) for x in v),
        "dict[str,int]": lambda v: isinstance(v, dict)
        and all(isinstance(k, str) and isinstance(x, int) for k, x in v.items()),
    }
    assert set(payload) == set(spec), (payload, spec)
    for key, typename in spec.items():
        assert checkers[typename](payload[key]), (key, typename, payload[key])


def test_cli_json_outputs_match_schema(capsys):
    invocations = {
        "adem": ["adem", "P(2)*P(1)", "-p", "3"],
        "act": ["act", "P(1)", "on", "x1^2", "-p", "3"],
        "nh-apply": ["nh", "apply", "D1", "to", "x1", "-p", "3", "-n", "2"],
        "nh-normalize": ["nh", "normalize", "D1*X1", "-p", "3", "-n", "2"],
        "schubert": ["schubert", "--n", "3", "--perm", "2,1,3", "-p", "5"],
        "margolis": ["margolis", "--t", "1", "--on", "x1", "-p", "3", "-n", "2"],
        "pdg-verify": ["pdg", "verify", "-p", "3", "-n", "2", "-D", "8"],
        "pdg-homology": ["pdg", "homology", "--truncate", "8", "-p", "2", "-n", "1"],
        "groth": ["groth", "--profile", "1,1", "-p", "2"],
        "verify-all": ["verify-all", "-p", "2", "-n", "2", "-D", "8", "--words", "5"],
    }
    for name, argv in invocations.items():
        code = main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, (name, out)
        payload = json.loads(out)
        _check_schema(payload, SCHEMA[name])


def test_cli_pdg_verify_failure_exit_code(capsys, monkeypatch):
    # force a failing verification by breaking a derivation image
    import padem.pdg as pdg_mod

    real = pdg_mod.khovanov_qi_derivation

    def broken(p, n):
        d = real(p, n)
        return pdg_mod.Derivation(
            p, n, [Polynomial.variable(p, n, 1)] + list(d.x_images[1:]), d.d_images
        )

    monkeypatch.setattr("padem.cli.pdg_mod.khovanov_qi_derivation", broken)
    code, out, _ = run_cli(capsys, "pdg", "verify", "-p", "3", "-n", "2", "-D", "6")
    assert code == 4
    assert "all_ok false" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        # NH_1 is F_p[x_1]: a valid size with no D generators
        (("pdg", "verify", "-n", "1"), 0),
        (("pdg", "verify", "-n", "1", "-D", "-5"), 3),
        (("pdg", "homology", "-n", "0", "--truncate", "6"), 3),
        (("pdg", "homology", "--truncate", "-4"), 3),
    ],
)
def test_cli_pdg_sizes_and_bounds(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert out.endswith("all_ok true\n") and err == ""


@pytest.mark.parametrize("n", ("0", "-2"))
def test_cli_pdg_verify_names_a_bad_size(capsys, n):
    code, out, err = run_cli(capsys, "pdg", "verify", "-n", n)
    assert code == 3 and out == ""
    assert err == f"error: need at least one variable, got n={n}\n"


def test_cli_verify_all_reports_a_raising_check(capsys, monkeypatch):
    argv = ("verify-all", "-p", "2", "-n", "2", "-D", "8", "--words", "5")
    code, clean, _ = run_cli(capsys, *argv)
    assert code == 0

    def raising(*args):
        raise ReconstructionError("bar action of P^1 is not realized by a nilHecke element")

    monkeypatch.setattr("padem.verify.check_bar_closed_form", raising)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and err == ""
    failed = (
        "FAIL [p=2, n=2] bar-closed-form :: "
        "bar action of P^1 is not realized by a nilHecke element"
    )
    expected = [
        failed if "bar-closed-form" in line else line for line in clean.splitlines()[:-1]
    ]
    assert out.splitlines() == expected + ["passed 16 failed 1"]

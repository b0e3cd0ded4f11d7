"""Expression grammar and command-line interface tests."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from padem.cli import UsageError, build_parser, main
from padem.errors import ExprTypeError, ParseError, ReconstructionError
from padem.nilhecke import NilHeckeElement
from padem.parser import (
    MAX_NESTING,
    Gen,
    Num,
    Power,
    Product,
    Sum,
    parse,
    parse_and_evaluate,
    render,
)
from padem.pdg import random_nh_word
from padem.poly import Polynomial
from padem.steenrod import adem_normalize
from padem.verify import _random_steenrod_word

from oracles import random_poly

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


def test_nodes_are_values_of_their_type_and_fields():
    x = Gen("x", 1)
    assert x == Gen("x", 1) and hash(x) == hash(Gen("x", 1))
    assert x != Gen("x", 2) and x != Gen("D", 1)
    assert Num(1) != Gen("x", 1)
    terms = ((1, Product((x,))),)
    assert Product(terms) != Sum(terms)
    assert Sum(terms) == Sum(((1, Product((Gen("x", 1),))),))
    assert len({Power(x, 2), Power(Gen("x", 1), 2), Power(x, 3)}) == 2
    assert repr(Power(Num(3), 2)) == "Power(base=Num(value=3), exponent=2)"
    assert repr(x) == "Gen(kind='x', index=1)"


def test_nodes_are_read_only():
    x = Gen("x", 1)
    for node, field in ((x, "index"), (Num(2), "value"), (Power(x, 2), "exponent")):
        with pytest.raises(AttributeError):
            setattr(node, field, 5)
        with pytest.raises(AttributeError):
            delattr(node, field)
    with pytest.raises(AttributeError):
        x.other = 1
    assert x == Gen("x", 1)


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
        f = random_poly(rng, p, n, max_exp=3, terms=4)
        assert parse_and_evaluate(str(f), "polynomial", p, n) == f
    for _ in range(30):
        e = NilHeckeElement.from_word(p, n, *random_nh_word(rng, p, n, max_len=4))
        assert parse_and_evaluate(str(e), "nilhecke", p, n) == e
    for _ in range(30):
        e = adem_normalize(_random_steenrod_word(rng, p, max_exp=6))
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


def test_cli_margolis_rejects_a_negative_degree_bound(capsys):
    # no monomial has negative degree, so the sweep that certifies the
    # reconstructed operator would check nothing
    argv = ("margolis", "--t", "1", "--op", "D1", "-p", "3", "-n", "2", "-D", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: degree bound -1 must be nonnegative\n"


GRADED_QUERIES = {
    "act": ("act", "P(2)*P(1)", "on", "x1^2*x2", "-p", "5", "-n", "2"),
    "margolis-on": ("margolis", "--t", "2", "--on", "x1*x2", "-p", "3", "-n", "2"),
    "margolis-op": ("margolis", "--t", "2", "--op", "D1", "-p", "3", "-n", "2"),
}


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("name", GRADED_QUERIES)
def test_cli_grading_changes_no_result(capsys, name, fmt):
    # a grading is a degree convention and changes no result, so act and
    # margolis take no --grading: the query answers without it, and
    # passing one is a usage error
    argv = (*GRADED_QUERIES[name], "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and not err
    code, out, err = run_cli(capsys, *argv, "--grading", "compressed")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_cli_groth_compressed_changes_the_degrees(capsys):
    argv = ("groth", "--profile", "2,1", "-p", "3", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    topological = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--compressed")
    assert code == 0
    compressed = json.loads(out)
    assert (topological["grading"], compressed["grading"]) == ("topological", "compressed")
    # |xi_k| is 2(p^k - 1) topological and 2(p^k - 1)/(p - 1) compressed,
    # so at p = 3 every topological degree is twice the compressed one
    assert topological["dim_q"] != compressed["dim_q"]
    assert topological["dim_q"][::2] == compressed["dim_q"]
    assert not any(topological["dim_q"][1::2])
    assert sum(compressed["dim_q"]) == 27


def test_cli_parenthesis_nesting_limit(capsys):
    nested = lambda depth: "(" * depth + "x1" + ")" * depth
    code, out, _ = run_cli(capsys, "nh", "normalize", nested(MAX_NESTING), "-n", "2")
    assert code == 0 and out == "x1\n"
    with pytest.raises(ParseError) as info:
        parse(nested(MAX_NESTING + 1), "nilhecke")
    assert info.value.position == MAX_NESTING
    code, out, err = run_cli(capsys, "nh", "normalize", nested(250), "-n", "2")
    assert code == 2 and out == ""
    assert err == f"parse error: parentheses nested deeper than {MAX_NESTING} at position {MAX_NESTING}\n"


def test_cli_number_longer_than_python_converts_is_a_parse_error(capsys):
    # Python turns at most sys.get_int_max_str_digits() digits into an int;
    # both an integer atom and an x<index> are held to it
    limit = sys.get_int_max_str_digits()
    long = "9" * 5000
    for argv, position in (
        (("adem", f"P(1)*{long}", "-p", "3"), 5),
        (("act", "P(0)", "on", f"x{long}", "-p", "3", "-n", "1"), 1),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: number at position {position} has more than {limit} digits\n"
    with pytest.raises(ParseError) as info:
        parse(f"x1 + 2*x{long}", "polynomial")
    assert info.value.position == 8


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_cli_result_too_long_to_print_is_a_domain_error(capsys, fmt):
    # the exponent of (x1^N)^N has about 8000 digits: computed exactly,
    # but not printable in decimal
    limit = sys.get_int_max_str_digits()
    huge = "9" * 4000
    code, out, err = run_cli(
        capsys, "act", "P(0)", "on", f"(x1^{huge})^{huge}", "-p", "3", "-n", "1", "--format", fmt
    )
    assert (code, out) == (3, "")
    assert err == f"error: cannot print a number of more than {limit} digits\n"


NINES = "9" * 4000


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("nh", "apply", "D1", "to", f"(x1^{NINES})^{NINES}", "-p", "3", "-n", "2"),
            "applying this element is over the work budget: it may make more than 1000000 terms",
        ),
        (
            ("pdg", "homology", "--truncate", "100000", "-p", "3", "-n", "2"),
            "the basis up to degree 100000 with n=2 is over the work budget: "
            "it holds more than 100000 elements",
        ),
        (
            ("pdg", "homology", "--truncate", "30", "-p", "97", "-n", "8"),
            "the basis up to degree 30 with n=8 is over the work budget: "
            "it holds more than 100000 elements",
        ),
        (
            ("pdg", "verify", "-p", "3", "-n", "40"),
            "the basis up to degree 24 with n=40 is over the work budget: "
            "it holds more than 100000 elements",
        ),
        # 97,461 monomials, each taking up to 97 steps of a rank chain
        (
            ("pdg", "homology", "--truncate", "880", "-p", "97", "-n", "2"),
            "the basis up to degree 880 with n=2 is over the work budget: "
            "its 97461 elements take up to p=97 steps each, more than 300000 in all",
        ),
        # one monomial, but a derivation of n * n exponents
        (
            ("pdg", "homology", "--truncate", "0", "-n", "1000"),
            "the derivation with n=1000 is over the work budget: "
            "its images hold n*n = 1000000 exponents, more than 300000",
        ),
        (
            ("pdg", "homology", "--truncate", "0", "-n", "10000"),
            "the derivation with n=10000 is over the work budget: "
            "its images hold n*n = 100000000 exponents, more than 300000",
        ),
        (
            ("pdg", "verify", "-n", "10000"),
            "the derivation with n=10000 is over the work budget: "
            "its images hold n*n = 100000000 exponents, more than 300000",
        ),
        (
            ("pdg", "verify", "-n", "900"),
            "the derivation with n=900 is over the work budget: "
            "its images hold n*n = 810000 exponents, more than 300000",
        ),
        # 6! = 720 permutations, each paired with every earlier one
        (
            ("margolis", "--t", "1", "--op", "D1", "-p", "3", "-n", "6", "-D", "0"),
            "the reconstruction with n=6 is over the work budget: its n! "
            "permutations form more than 100000 pairs",
        ),
        # C(203, 3) = 1,373,701 monomials would certify the reconstruction
        (
            ("margolis", "--t", "1", "--op", "D1", "-p", "3", "-n", "3", "-D", "400"),
            "the reconstruction sweep up to degree 400 with n=3 is over "
            "the work budget: it checks more than 100000 monomials",
        ),
        *(
            (
                ("margolis", "--t", t, "--on", "x1", "-p", p, "-n", "1"),
                f"d_{t} at p={p} is over the work budget: its degree holds more "
                "than 100000 admissible words",
            )
            for t, p in (("40", "2"), ("12", "3"))
        ),
        # 824,477 terms in all; refused at letter 34 of 43
        (
            ("schubert", "--n", "13", "--perm", "4,6,1,8,10,13,11,2,12,7,5,3,9"),
            "the Schubert polynomial with n=13 is over the work budget: "
            "it holds more than 100000 terms",
        ),
        # verify-all refuses up front what its rows would refuse: the
        # relation sweep's C(D // 2 + n, n) monomials, then the
        # bar-closed-form reconstruction at (n, min(D, 12))
        (
            ("verify-all", "-p", "3", "-n", "6"),
            "the reconstruction with n=6 is over the work budget: its n! "
            "permutations form more than 100000 pairs",
        ),
        (
            ("verify-all", "-n", "50"),
            "the relation sweep up to degree 24 with n=50 is over "
            "the work budget: it checks more than 100000 monomials",
        ),
        (
            ("verify-all", "-p", "3", "-n", "3", "-D", "100000"),
            "the relation sweep up to degree 100000 with n=3 is over "
            "the work budget: it checks more than 100000 monomials",
        ),
    ],
)
def test_cli_over_work_budget_exits_3_fast(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


def test_cli_internal_error_is_one_line_exit_5(capsys, monkeypatch):
    # any exception that is not a padem error marks a bug: exit 5, outside
    # the 0-4 contract, with one line and no traceback
    monkeypatch.setattr("padem.cli._cmd_adem", lambda args: {}["missing"])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "adem", "P(1)", "-p", "3")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (5, "", "internal error: KeyError: 'missing'\n")

    def broken(args):
        raise RuntimeError("two\nlines")

    monkeypatch.setattr("padem.cli._cmd_adem", broken)
    code, out, err = run_cli(capsys, "adem", "P(1)", "--format", "json")
    assert (code, out, err) == (5, "", "internal error: RuntimeError: two lines\n")


def test_cli_help_still_exits_through_system_exit(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage: padem" in capsys.readouterr().out


COMMANDS = ("adem", "act", "nh", "schubert", "margolis", "pdg", "groth", "verify-all")

# The 10 benchmark queries; the top level's and every subcommand's help;
# usage errors at each level; small pdg verify, verify-all and groth runs
PARSER_ARGVS = [
    ["adem", "P(1)*P(1)", "-p", "3"],
    ["act", "P(1)", "on", "x1", "-p", "3", "--action", "nonstandard"],
    ["nh", "normalize", "D1*X1", "-p", "3", "-n", "2"],
    ["nh", "apply", "D1*D2", "to", "x1^2*x2", "-n", "3"],
    ["schubert", "--n", "3", "--perm", "1,2,3"],
    ["margolis", "--t", "2", "--on", "x1", "-p", "2", "-n", "1"],
    ["pdg", "verify", "--twist", "1", "-p", "3", "-n", "2"],
    ["pdg", "homology", "--truncate", "6", "-p", "2", "-n", "1", "--s", "1"],
    ["groth", "--profile", "2,1", "-p", "2", "--format", "json"],
    ["adem", "P(1)*", "-p", "3"],
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["adem", "--help"],
    ["act", "--help"],
    ["nh", "--help"],
    ["nh", "apply", "--help"],
    ["nh", "normalize", "--help"],
    ["schubert", "--help"],
    ["margolis", "--help"],
    ["pdg", "--help"],
    ["pdg", "verify", "--help"],
    ["pdg", "homology", "--help"],
    ["groth", "--help"],
    ["verify-all", "--help"],
    ["nh"],
    ["pdg"],
    ["nh", "bogus"],
    ["-p", "3", "adem", "P(1)"],
    ["adem", "P(1)", "--bogus"],
    ["adem"],
    ["schubert", "--n", "3", "--perm"],
    ["margolis", "--t", "x", "--on", "x1"],
    ["act", "P(1)", "on", "x1", "--action", "bogus"],
    ["adem", "P(1)", "--form", "json"],
    ["pdg", "verify", "-p", "3", "-n", "2"],
    ["verify-all", "-p", "3", "--seed", "0"],
    ["verify-all", "-p", "3", "--seed", "0", "--format", "json"],
    ["groth", "--profile", "2,1", "-p", "3", "--compressed"],
]


def _parse_outcome(parser, argv, capsys):
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    return "parsed", vars(args)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_parser_for_one_command_matches_the_full_parser(capsys, argv):
    # a query builds only the parser of the subcommand it names; its
    # help, usage errors, handler and values are the full parser's
    command = argv[0] if argv else None
    parser = build_parser(command)
    if command in COMMANDS:
        assert parser.format_usage() == f"usage: padem [-h] {{{command}}} ...\n"
    else:
        assert parser.format_usage() == build_parser().format_usage()
    assert _parse_outcome(parser, argv, capsys) == _parse_outcome(build_parser(), argv, capsys)


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

    real = pdg_mod.twisted_derivation

    def broken(p, n, a):
        d = real(p, n, a)
        return pdg_mod.Derivation(
            p, n, [Polynomial.variable(p, n, 1)] + list(d.x_images[1:]), d.d_images
        )

    monkeypatch.setattr("padem.pdg.twisted_derivation", broken)
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


@pytest.mark.parametrize("bound", ("0", "1", "2", "3"))
def test_cli_pdg_verify_below_degree_four(capsys, bound):
    # no nonconstant monomial has degree <= bound / 2, so the Leibniz
    # pairs are drawn from the variables
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pdg", "verify", "-p", "3", "-n", "2", "-D", bound)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == "leibniz_ok true\nrelations_ok true\np_nilpotent_ok true\nall_ok true\n"


@pytest.mark.parametrize("n", ("0", "-2"))
def test_cli_pdg_verify_names_a_bad_size(capsys, n):
    code, out, err = run_cli(capsys, "pdg", "verify", "-n", n)
    assert code == 3 and out == ""
    assert err == f"error: need at least one variable, got n={n}\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        (("act", "P(1)", "on", "x1", "-p", "3", "-n", "0"), "0"),
        (("act", "P(1)", "on", "x1", "-p", "3", "-n", "-1"), "-1"),
        (("margolis", "--t", "1", "--on", "x1", "-n", "0"), "0"),
        (("schubert", "--n", "0", "--perm", "1"), "0"),
    ],
)
def test_cli_checks_the_size_before_the_input(capsys, argv, n):
    # the ring comes first: no message about the variable or the permutation
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: need at least one variable, got n={n}\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("-p", "4"), "4"),
        (("-n", "0"), "n=0"),
        (("-n", "1", "-p", "2"), "n=1"),
        (("-D", "-1", "-p", "2", "-n", "2"), "-1"),
        (("--words", "0"), "words=0"),
        (("--words", "-5"), "words=-5"),
    ],
)
def test_cli_verify_all_rejects_bad_arguments_before_any_check(capsys, argv, bad):
    code, out, err = run_cli(capsys, "verify-all", *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


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


def test_cli_verify_all_output_is_the_recorded_one(capsys):
    # the recorded text stdout, then JSON stdout, of verify-all -p 3
    # --seed 0: a change to the sweeps must report the same checks, in the
    # same order, with the same details
    golden = (Path(__file__).parent / "data" / "verify_all_p3_seed0.txt").read_text()
    argv = ("verify-all", "-p", "3", "--seed", "0")
    code, text, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    code, payload, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert text + payload == golden


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # each query is a fresh process: the CLI's import path, and a query
    # that needs none of them, stay off these modules (json only loads for
    # --format json, pdg, groth and verify for their own subcommands);
    # -S keeps site's .pth files from loading anything first
    code = (
        "import sys\n"
        "modules = {'dataclasses', 'inspect', 'json', 'heapq',\n"
        "           'padem.pdg', 'padem.groth', 'padem.verify'}\n"
        "import padem.cli\n"
        "print(sorted(modules & set(sys.modules)))\n"
        "assert padem.cli.main(['adem', 'P(1)*P(1)', '-p', '3']) == 0\n"
        "print(sorted(modules & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n2*P(2)\n[]\n"


def test_cli_runs_without_numpy():
    # padem has no runtime dependency: the p-DG commands must not import
    # numpy, which only the tests use
    code = (
        "import sys\n"
        "from padem import cli\n"
        "assert cli.main(['pdg', 'homology', '--truncate', '12', '-p', '3', '-n', '2']) == 0\n"
        "assert cli.main(['pdg', 'verify', '-p', '3', '-n', '2']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "dim[" in proc.stdout and "all_ok true" in proc.stdout

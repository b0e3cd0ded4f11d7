"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 parse error, 3 math domain error,
4 verification failure.  Exit 5, outside that contract, marks a padem
bug: any other exception ends in one "internal error:" line.  The
default prime comes from the PADEM_PRIME environment variable when set.
Expression arguments accept "-" to read from stdin.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, ParseError, PademError
from .nilhecke import Permutation, require_apply_budget, schubert
from .parser import (
    TARGET_NILHECKE,
    TARGET_POLYNOMIAL,
    TARGET_STEENROD,
    parse_and_evaluate,
)
from .steenrod import (
    ACTION_STANDARD,
    ACTIONS,
    GRADING_COMPRESSED,
    GRADING_TOPOLOGICAL,
    act,
    adem_normalize,
    bar_act_element,
    margolis_d,
)

ENV_PRIME = "PADEM_PRIME"


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _prime(args) -> int:
    """-p when given, else PADEM_PRIME when set, else 2."""
    if args.prime is not None:
        return args.prime
    raw = os.environ.get(ENV_PRIME)
    if raw is None:
        return 2
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_PRIME} is not an integer: {raw!r}")


def _add_common(sub, *, num_vars=True, degree=False, action=False):
    sub.add_argument("-p", "--prime", type=int, default=None, help="coefficient prime")
    if num_vars:
        sub.add_argument("-n", "--num-vars", type=int, default=3, help="variable count")
    if degree:
        sub.add_argument(
            "-D", "--degree-bound", type=int, default=24, help="verification degree bound"
        )
    if action:
        sub.add_argument("--action", choices=ACTIONS, default=ACTION_STANDARD)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _build_adem(subs):
    sub = subs.add_parser("adem", help="rewrite a power expression to admissible form")
    sub.set_defaults(handler=_cmd_adem)
    sub.add_argument("expr")
    _add_common(sub, num_vars=False)


def _build_act(subs):
    sub = subs.add_parser("act", help="apply a power expression to a polynomial")
    sub.set_defaults(handler=_cmd_act)
    sub.add_argument("expr")
    sub.add_argument("keyword", metavar="on")
    sub.add_argument("poly")
    _add_common(sub, action=True)


def _build_nh(subs):
    nh = subs.add_parser("nh", help="nilHecke operator computations")
    nh_subs = nh.add_subparsers(dest="nh_command", required=True)
    sub = nh_subs.add_parser("apply", help="apply an operator expression to a polynomial")
    sub.set_defaults(handler=_cmd_nh_apply)
    sub.add_argument("expr")
    sub.add_argument("keyword", metavar="to")
    sub.add_argument("poly")
    _add_common(sub)
    sub = nh_subs.add_parser("normalize", help="rewrite onto the x^a * D_w basis")
    sub.set_defaults(handler=_cmd_nh_normalize)
    sub.add_argument("expr")
    _add_common(sub)


def _build_schubert(subs):
    sub = subs.add_parser("schubert", help="Schubert polynomial of a permutation")
    sub.set_defaults(handler=_cmd_schubert)
    sub.add_argument("--n", type=int, required=True, help="symmetric group size")
    sub.add_argument("--perm", required=True, help="one-line notation, comma separated")
    sub.add_argument("-p", "--prime", type=int, default=None)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _build_margolis(subs):
    sub = subs.add_parser("margolis", help="apply the t-th primitive differential")
    sub.set_defaults(handler=_cmd_margolis)
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--on", dest="on_poly", default=None, help="polynomial expression")
    sub.add_argument("--op", dest="on_op", default=None, help="operator expression")
    _add_common(sub, degree=True, action=True)


def _build_pdg(subs):
    pdg = subs.add_parser("pdg", help="p-nilpotent derivation tools")
    pdg_subs = pdg.add_subparsers(dest="pdg_command", required=True)
    sub = pdg_subs.add_parser("verify", help="check the derivation axioms")
    sub.set_defaults(handler=_cmd_pdg_verify)
    sub.add_argument(
        "--twist", type=int, default=0, help="twisting parameter a (default 0, Khovanov-Qi)"
    )
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, degree=True)
    sub = pdg_subs.add_parser("homology", help="slash homology of a truncation")
    sub.set_defaults(handler=_cmd_pdg_homology)
    sub.add_argument("--truncate", type=int, required=True, help="top degree kept")
    sub.add_argument("--s", type=int, default=None, help="kernel power (default p-1)")
    _add_common(sub)


def _build_groth(subs):
    sub = subs.add_parser("groth", help="graded dimension and K_0 presentation")
    sub.set_defaults(handler=_cmd_groth)
    sub.add_argument("--profile", required=True, help="exponents r_1,...,r_N")
    sub.add_argument("--compressed", action="store_true", help="use |P^k| = 2k grading")
    sub.add_argument("-p", "--prime", type=int, default=None)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _build_verify_all(subs):
    sub = subs.add_parser("verify-all", help="run the invariant suite")
    sub.set_defaults(handler=_cmd_verify_all)
    sub.add_argument("-p", "--prime", type=int, default=None, help="restrict to one prime")
    sub.add_argument("-n", "--num-vars", type=int, default=None, help="restrict to one size")
    sub.add_argument("-D", "--degree-bound", type=int, default=24)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--words", type=int, default=100, help="random words per check")
    sub.add_argument("--format", choices=("text", "json"), default="text")


# Each subcommand's parser, with its leaves, in the order the help lists them.
_BUILDERS = {
    "adem": _build_adem,
    "act": _build_act,
    "nh": _build_nh,
    "schubert": _build_schubert,
    "margolis": _build_margolis,
    "pdg": _build_pdg,
    "groth": _build_groth,
    "verify-all": _build_verify_all,
}


def build_parser(command: str | None = None) -> _ArgumentParser:
    """The parser with only the subcommand `command` when it names one,
    else with every subcommand.  A subcommand's help and usage errors
    come from its own parser, so they are the same either way; the top
    level's (no command, -h, an unknown command) need every subcommand."""
    parser = _ArgumentParser(prog="padem", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    builders = (_BUILDERS[command],) if command in _BUILDERS else _BUILDERS.values()
    for build in builders:
        build(subs)
    return parser


def _evaluate(raw: str, target: str, p: int, n: int):
    """The value of an expression argument; "-" reads it from stdin."""
    return parse_and_evaluate(sys.stdin.read() if raw == "-" else raw, target, p, n)


def _parse_ints(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise DomainError(f"malformed {what}: {raw!r}")


# -- handlers -----------------------------------------------------------
#
# Each handler returns (JSON payload, text, exit code); main prints one
# of the two.  The pdg, groth and verify handlers import their module
# themselves, so that no other query loads it.


def _answer(result, **payload):
    """Exit 0 with one element as the answer: the text is str(result),
    and the payload carries it under "result"."""
    text = str(result)
    return {**payload, "result": text}, text, 0


def _cmd_adem(args):
    p = _prime(args)
    e = _evaluate(args.expr, TARGET_STEENROD, p, 1)
    return _answer(adem_normalize(e), prime=p, input=args.expr)


def _cmd_act(args):
    if args.keyword != "on":
        raise UsageError("usage: padem act <power-expr> on <poly-expr>")
    p = _prime(args)
    e = _evaluate(args.expr, TARGET_STEENROD, p, args.num_vars)
    f = _evaluate(args.poly, TARGET_POLYNOMIAL, p, args.num_vars)
    return _answer(act(e, f, args.action), prime=p, action=args.action)


def _cmd_nh_apply(args):
    p = _prime(args)
    if args.keyword != "to":
        raise UsageError("usage: padem nh apply <nh-expr> to <poly-expr>")
    e = _evaluate(args.expr, TARGET_NILHECKE, p, args.num_vars)
    f = _evaluate(args.poly, TARGET_POLYNOMIAL, p, args.num_vars)
    require_apply_budget(e, f)
    return _answer(e.apply(f), prime=p, num_vars=args.num_vars)


def _cmd_nh_normalize(args):
    # elements are stored in normal form, so the parsed element is the answer
    p = _prime(args)
    e = _evaluate(args.expr, TARGET_NILHECKE, p, args.num_vars)
    return _answer(e, prime=p, num_vars=args.num_vars)


def _cmd_schubert(args):
    p = _prime(args)
    images = _parse_ints(args.perm, "permutation")
    if len(images) != args.n:
        raise DomainError(f"permutation {args.perm} does not have length {args.n}")
    result = schubert(Permutation(images), args.n, p)
    return _answer(result, prime=p, n=args.n, perm=list(images))


def _cmd_margolis(args):
    p = _prime(args)
    if (args.on_poly is None) == (args.on_op is None):
        raise UsageError("margolis needs exactly one of --on or --op")
    dt = margolis_d(args.t, p)
    if args.on_poly is not None:
        f = _evaluate(args.on_poly, TARGET_POLYNOMIAL, p, args.num_vars)
        result = act(dt, f, args.action)
        target = "polynomial"
    else:
        e = _evaluate(args.on_op, TARGET_NILHECKE, p, args.num_vars)
        result = bar_act_element(dt, e, args.action, args.degree_bound)
        target = "operator"
    return _answer(result, prime=p, t=args.t, target=target)


def _cmd_pdg_verify(args):
    from . import pdg

    p = _prime(args)
    derivation = pdg.twisted_derivation(p, args.num_vars, args.twist)
    report = pdg.verify_pdg(derivation, args.degree_bound, seed=args.seed)
    keys = ("leibniz_ok", "relations_ok", "p_nilpotent_ok", "all_ok")
    payload = {"prime": p, "num_vars": args.num_vars, **{key: report[key] for key in keys}}
    text = "\n".join(f"{key} {str(report[key]).lower()}" for key in keys)
    return payload, text, 0 if report["all_ok"] else 4


def _cmd_pdg_homology(args):
    from . import pdg

    p = _prime(args)
    s = args.s if args.s is not None else p - 1
    # the derivation's budget is checked first: each monomial of the space
    # is a tuple of n exponents
    derivation = pdg.khovanov_qi_derivation(p, args.num_vars)
    space = pdg.polynomial_space(p, args.num_vars, args.truncate)
    op = pdg.derivation_operator(space, derivation, args.num_vars)
    dims, excluded = pdg.margolis_homology(space, op, s)
    lines = [f"dim[{d}] = {dims[d]}" for d in sorted(dims)]
    lines.append("excluded: " + (",".join(str(d) for d in excluded) if excluded else "none"))
    payload = {
        "prime": p,
        "num_vars": args.num_vars,
        "s": s,
        "dims": {str(d): v for d, v in sorted(dims.items())},
        "excluded_degrees": excluded,
        "p_nilpotent": True,  # margolis_homology verifies d^p = 0 first
    }
    return payload, "\n".join(lines), 0


def _cmd_groth(args):
    from . import groth

    p = _prime(args)
    exponents = _parse_ints(args.profile, "profile")
    grading = GRADING_COMPRESSED if args.compressed else GRADING_TOPOLOGICAL
    profile = groth.SubHopfProfile(p, exponents, grading)
    presentation = groth.k0_presentation(profile)
    relation = presentation["relation"]
    factors = presentation["cyclotomic_factors"]
    factor_text = "[" + ", ".join(f"Phi_{d}" for d in factors) + "]"
    payload = {
        "prime": p,
        "grading": grading,
        "profile": list(exponents),
        "dim_q": relation.coefficient_list(),
        "relation": str(relation),
        "factors": factors,
    }
    return payload, f"relation {relation}\nfactors {factor_text}", 0


def _cmd_verify_all(args):
    from . import verify

    primes = (args.prime,) if args.prime is not None else (2, 3, 5)
    sizes = (args.num_vars,) if args.num_vars is not None else (2, 3, 4)
    results = verify.run_matrix(primes, sizes, args.degree_bound, args.seed, args.words)
    lines = []
    payload_checks = []
    for config, checks in results:
        for check in checks:
            status = "PASS" if check.ok else "FAIL"
            detail = f" :: {check.detail}" if check.detail else ""
            lines.append(f"{status} [{config}] {check.name}{detail}")
            payload_checks.append(
                {"config": config, "name": check.name, "ok": check.ok, "detail": check.detail}
            )
    failed = sum(not check["ok"] for check in payload_checks)
    passed = len(payload_checks) - failed
    lines.append(f"passed {passed} failed {failed}")
    payload = {"passed": passed, "failed": failed, "checks": payload_checks}
    return payload, "\n".join(lines), 0 if failed == 0 else 4


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        payload, text, code = args.handler(args)
        if args.format == "json":
            import json  # here, not at the top: a text query never loads it

            text = json.dumps(payload, sort_keys=True)
        print(text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PademError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

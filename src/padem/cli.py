"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 parse error, 3 math domain error,
4 verification failure.  The default prime comes from the PADEM_PRIME
environment variable when set.  Expression arguments accept "-" to read
from stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import groth as groth_mod
from . import pdg as pdg_mod
from . import verify as verify_mod
from .errors import DomainError, ParseError, PademError
from .nilhecke import Permutation, schubert
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
    GRADINGS,
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


def _default_prime() -> int:
    raw = os.environ.get(ENV_PRIME)
    if raw is None:
        return 2
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_PRIME} is not an integer: {raw!r}")


def _add_common(sub, *, num_vars=True, degree=False, grading=False, action=False):
    sub.add_argument("-p", "--prime", type=int, default=None, help="coefficient prime")
    if num_vars:
        sub.add_argument("-n", "--num-vars", type=int, default=3, help="variable count")
    if degree:
        sub.add_argument(
            "-D", "--degree-bound", type=int, default=24, help="verification degree bound"
        )
    if grading:
        sub.add_argument("--grading", choices=GRADINGS, default=GRADING_TOPOLOGICAL)
    if action:
        sub.add_argument("--action", choices=ACTIONS, default=ACTION_STANDARD)
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="padem", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("adem", help="rewrite a power expression to admissible form")
    sub.add_argument("expr")
    _add_common(sub, num_vars=False)

    sub = subs.add_parser("act", help="apply a power expression to a polynomial")
    sub.add_argument("expr")
    sub.add_argument("keyword", metavar="on")
    sub.add_argument("poly")
    _add_common(sub, grading=True, action=True)

    nh = subs.add_parser("nh", help="nilHecke operator computations")
    nh_subs = nh.add_subparsers(dest="nh_command", required=True)
    sub = nh_subs.add_parser("apply", help="apply an operator expression to a polynomial")
    sub.add_argument("expr")
    sub.add_argument("keyword", metavar="to")
    sub.add_argument("poly")
    _add_common(sub)
    sub = nh_subs.add_parser("normalize", help="rewrite onto the x^a * D_w basis")
    sub.add_argument("expr")
    _add_common(sub)

    sub = subs.add_parser("schubert", help="Schubert polynomial of a permutation")
    sub.add_argument("--n", type=int, required=True, help="symmetric group size")
    sub.add_argument("--perm", required=True, help="one-line notation, comma separated")
    sub.add_argument("-p", "--prime", type=int, default=None)
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("margolis", help="apply the t-th primitive differential")
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--on", dest="on_poly", default=None, help="polynomial expression")
    sub.add_argument("--op", dest="on_op", default=None, help="operator expression")
    _add_common(sub, degree=True, grading=True, action=True)

    pdg = subs.add_parser("pdg", help="p-nilpotent derivation tools")
    pdg_subs = pdg.add_subparsers(dest="pdg_command", required=True)
    sub = pdg_subs.add_parser("verify", help="check the derivation axioms")
    sub.add_argument("--twist", type=int, default=None, help="twisting parameter a")
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, degree=True)
    sub = pdg_subs.add_parser("homology", help="slash homology of a truncation")
    sub.add_argument("--truncate", type=int, required=True, help="top degree kept")
    sub.add_argument("--s", type=int, default=None, help="kernel power (default p-1)")
    _add_common(sub)

    sub = subs.add_parser("groth", help="graded dimension and K_0 presentation")
    sub.add_argument("--profile", required=True, help="exponents r_1,...,r_N")
    sub.add_argument("--compressed", action="store_true", help="use |P^k| = 2k grading")
    sub.add_argument("-p", "--prime", type=int, default=None)
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("verify-all", help="run the invariant suite")
    sub.add_argument("-p", "--prime", type=int, default=None, help="restrict to one prime")
    sub.add_argument("-n", "--num-vars", type=int, default=None, help="restrict to one size")
    sub.add_argument("-D", "--degree-bound", type=int, default=24)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--words", type=int, default=100, help="random words per check")
    sub.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _read_expr(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    return value


def _prime(args) -> int:
    return args.prime if args.prime is not None else _default_prime()


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_ints(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise DomainError(f"malformed {what}: {raw!r}")


# -- handlers -----------------------------------------------------------


def _cmd_adem(args) -> int:
    p = _prime(args)
    e = parse_and_evaluate(_read_expr(args.expr), TARGET_STEENROD, p, 1)
    result = adem_normalize(e)
    _emit(
        args,
        {"prime": p, "input": args.expr, "result": str(result)},
        str(result),
    )
    return 0


def _cmd_act(args) -> int:
    if args.keyword != "on":
        raise UsageError("usage: padem act <power-expr> on <poly-expr>")
    p = _prime(args)
    e = parse_and_evaluate(_read_expr(args.expr), TARGET_STEENROD, p, args.num_vars)
    f = parse_and_evaluate(_read_expr(args.poly), TARGET_POLYNOMIAL, p, args.num_vars)
    result = act(e, f, args.action)
    _emit(
        args,
        {
            "prime": p,
            "action": args.action,
            "grading": args.grading,
            "result": str(result),
        },
        str(result),
    )
    return 0


def _cmd_nh(args) -> int:
    p = _prime(args)
    if args.nh_command == "apply":
        if args.keyword != "to":
            raise UsageError("usage: padem nh apply <nh-expr> to <poly-expr>")
        e = parse_and_evaluate(_read_expr(args.expr), TARGET_NILHECKE, p, args.num_vars)
        f = parse_and_evaluate(_read_expr(args.poly), TARGET_POLYNOMIAL, p, args.num_vars)
        result = e.apply(f)
        _emit(
            args,
            {"prime": p, "num_vars": args.num_vars, "result": str(result)},
            str(result),
        )
        return 0
    e = parse_and_evaluate(_read_expr(args.expr), TARGET_NILHECKE, p, args.num_vars)
    result = e.normalize()
    _emit(
        args,
        {"prime": p, "num_vars": args.num_vars, "result": str(result)},
        str(result),
    )
    return 0


def _cmd_schubert(args) -> int:
    p = _prime(args)
    images = _parse_ints(args.perm, "permutation")
    if len(images) != args.n:
        raise DomainError(
            f"permutation {args.perm} does not have length {args.n}"
        )
    w = Permutation(images)
    result = schubert(w, args.n, p)
    _emit(
        args,
        {"prime": p, "n": args.n, "perm": list(images), "result": str(result)},
        str(result),
    )
    return 0


def _cmd_margolis(args) -> int:
    p = _prime(args)
    if (args.on_poly is None) == (args.on_op is None):
        raise UsageError("margolis needs exactly one of --on or --op")
    dt = margolis_d(args.t, p)
    if args.on_poly is not None:
        f = parse_and_evaluate(
            _read_expr(args.on_poly), TARGET_POLYNOMIAL, p, args.num_vars
        )
        result = act(dt, f, args.action)
        target = "polynomial"
    else:
        e = parse_and_evaluate(
            _read_expr(args.on_op), TARGET_NILHECKE, p, args.num_vars
        )
        result = bar_act_element(dt, e, args.action, args.degree_bound)
        target = "operator"
    _emit(
        args,
        {"prime": p, "t": args.t, "target": target, "result": str(result)},
        str(result),
    )
    return 0


def _cmd_pdg(args) -> int:
    p = _prime(args)
    if args.pdg_command == "verify":
        if args.twist is None:
            derivation = pdg_mod.khovanov_qi_derivation(p, args.num_vars)
        else:
            derivation = pdg_mod.twisted_derivation(p, args.num_vars, args.twist)
        report = pdg_mod.verify_pdg(derivation, args.degree_bound, seed=args.seed)
        text = "\n".join(
            f"{key} {str(report[key]).lower()}"
            for key in ("leibniz_ok", "relations_ok", "p_nilpotent_ok", "all_ok")
        )
        _emit(
            args,
            {
                "prime": p,
                "num_vars": args.num_vars,
                "leibniz_ok": report["leibniz_ok"],
                "relations_ok": report["relations_ok"],
                "p_nilpotent_ok": report["p_nilpotent_ok"],
                "all_ok": report["all_ok"],
            },
            text,
        )
        return 0 if report["all_ok"] else 4
    s = args.s if args.s is not None else p - 1
    space = pdg_mod.polynomial_space(p, args.num_vars, args.truncate)
    op = pdg_mod.derivation_operator(
        space, pdg_mod.khovanov_qi_derivation(p, args.num_vars), args.num_vars
    )
    dims, excluded = pdg_mod.margolis_homology(space, op, s)
    lines = [f"dim[{d}] = {dims[d]}" for d in sorted(dims)]
    lines.append(
        "excluded: " + (",".join(str(d) for d in excluded) if excluded else "none")
    )
    _emit(
        args,
        {
            "prime": p,
            "num_vars": args.num_vars,
            "s": s,
            "dims": {str(d): v for d, v in sorted(dims.items())},
            "excluded_degrees": excluded,
            "p_nilpotent": True,  # margolis_homology verifies d^p = 0 first
        },
        "\n".join(lines),
    )
    return 0


def _cmd_groth(args) -> int:
    p = _prime(args)
    exponents = _parse_ints(args.profile, "profile")
    grading = GRADING_COMPRESSED if args.compressed else GRADING_TOPOLOGICAL
    profile = groth_mod.SubHopfProfile(p, exponents, grading)
    presentation = groth_mod.k0_presentation(profile)
    relation = presentation["relation"]
    factors = presentation["cyclotomic_factors"]
    factor_text = "[" + ", ".join(f"Phi_{d}" for d in factors) + "]"
    text = f"relation {relation}\nfactors {factor_text}"
    _emit(
        args,
        {
            "prime": p,
            "grading": grading,
            "profile": list(exponents),
            "dim_q": relation.coefficient_list(),
            "relation": str(relation),
            "factors": factors,
        },
        text,
    )
    return 0


def _cmd_verify_all(args) -> int:
    primes = (args.prime,) if args.prime is not None else (2, 3, 5)
    sizes = (args.num_vars,) if args.num_vars is not None else (2, 3, 4)
    results = verify_mod.run_matrix(
        primes, sizes, args.degree_bound, args.seed, args.words
    )
    passed = failed = 0
    lines = []
    payload_checks = []
    for config, checks in results:
        for check in checks:
            ok = check.ok
            passed += ok
            failed += not ok
            status = "PASS" if ok else "FAIL"
            detail = f" :: {check.detail}" if check.detail else ""
            lines.append(f"{status} [{config}] {check.name}{detail}")
            payload_checks.append(
                {
                    "config": config,
                    "name": check.name,
                    "ok": ok,
                    "detail": check.detail,
                }
            )
    lines.append(f"passed {passed} failed {failed}")
    _emit(
        args,
        {"passed": passed, "failed": failed, "checks": payload_checks},
        "\n".join(lines),
    )
    return 0 if failed == 0 else 4


_HANDLERS = {
    "adem": _cmd_adem,
    "act": _cmd_act,
    "nh": _cmd_nh,
    "schubert": _cmd_schubert,
    "margolis": _cmd_margolis,
    "pdg": _cmd_pdg,
    "groth": _cmd_groth,
    "verify-all": _cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PademError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

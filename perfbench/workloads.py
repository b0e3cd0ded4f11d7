"""The benchmark's workloads.

``PREPARE[name](seed, expected)`` imports the layers a workload needs,
makes its inputs from the seed and returns ``(ops, extras)``.  Each op is
``(kind, thunk)``: the thunk runs the program, checks every answer and
returns a list of outcomes ``(label, None)`` for a right answer or
``(label, reason)`` for a wrong one.  ``extras`` collects per-op samples
that a workload reports besides its outcomes (the CLI query times).

Why these four (see README.md for the full table):

* verify      - the product: ``padem verify-all -p 3``.  pdg handles many
                small matrices next to the nilHecke relation sweep.
* identities  - operator identities on monomial sweeps; poly / nilhecke /
                steenrod only, no numpy.  A linear-algebra change is
                predicted to leave it unchanged.
* homology    - Margolis homology on few large matrices; pdg's
                power_matrix and rank_mod_p dominate.
* cli         - fresh ``padem`` processes, one query per subcommand; the
                only workload that pays interpreter start and imports per
                answer.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

CHILD = Path(__file__).resolve().with_name("child.py")
P, N = 3, 3  # identities run at (p, n) = (3, 3) unless stated


def _outcome(label: str, ok: bool, reason: str = "wrong answer"):
    return [(label, None if ok else reason)]


# -- verify ---------------------------------------------------------------


def prepare_verify(seed: int, expected: dict):
    from padem import verify

    want = [tuple(item) for item in expected["verify"]["checks"]]

    def run_matrix():
        results = verify.run_matrix((3,), (2, 3, 4), 24, seed, 100)
        got = [(config, check.name, check.ok, check.detail) for config, checks in results for check in checks]
        outcomes = []
        for i in range(max(len(got), len(want))):
            if i >= len(got):
                outcomes.append((f"{want[i][0]} {want[i][1]}", "check missing"))
                continue
            config, name, ok, detail = got[i]
            label = f"{config} {name}"
            if i >= len(want) or (config, name) != want[i]:
                outcomes.append((label, "not in the recorded check list"))
            elif not ok:
                outcomes.append((label, detail or "check failed"))
            else:
                outcomes.append((label, None))
        return outcomes

    return [("verify", run_matrix)], {}


# -- identities -----------------------------------------------------------


def _random_monomial(rng, n, max_exp_sum):
    exps = [0] * n
    for _ in range(rng.randint(0, max_exp_sum)):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _random_poly(rng, p, n, max_exp_sum, terms):
    from padem.poly import Polynomial

    return Polynomial(
        p, n, {_random_monomial(rng, n, max_exp_sum): rng.randrange(1, p) for _ in range(rng.randint(1, terms))}
    )


def prepare_identities(seed: int, expected: dict):
    from padem import nilhecke, parser, poly, steenrod

    Polynomial = poly.Polynomial
    NilHeckeElement = nilhecke.NilHeckeElement
    SteenrodElement = steenrod.SteenrodElement
    cfg = expected["identities"]
    rng = random.Random(seed)
    ops = []

    def s_class(i):
        return nilhecke.divided_difference(Polynomial.variable(P, N, i) ** P, i)

    monos = poly.monomials_up_to_degree(N, cfg["degree_bound"])

    # P^d D_i - D_i P^d = sum_j (-1)^j s_i^j D_i P^(d-j) on every monomial.
    def commutator(d, i):
        def run():
            dd = nilhecke.divided_difference
            act = steenrod.act
            s = s_class(i)
            pd = SteenrodElement.p_power(P, d)
            lower = [SteenrodElement.p_power(P, d - j) for j in range(d + 1)]
            out = []
            for exps in monos:
                f = Polynomial.monomial(P, N, exps)
                lhs = act(pd, dd(f, i)) - dd(act(pd, f), i)
                rhs = Polynomial.zero(P, N)
                for j in range(1, d + 1):
                    rhs = rhs + s**j * dd(act(lower[j], f), i) * (-1 if j % 2 else 1)
                out += _outcome(f"commutator d={d} i={i} {exps}", lhs == rhs)
            return out

        return run

    for d in range(1, cfg["max_power"] + 1):
        for i in range(1, N):
            ops.append(("commutator", commutator(d, i)))

    # bar P^k (D_i) = (-1)^k s_i^k D_i, reconstructed and checked to the bound.
    def bar(k, i):
        def run():
            dgen = NilHeckeElement.d_gen(P, N, i)
            got = steenrod.bar_act(k, dgen, steenrod.ACTION_STANDARD, cfg["degree_bound"])
            want = NilHeckeElement.from_polynomial(s_class(i) ** k) * dgen * (-1 if k % 2 else 1)
            return _outcome(f"bar P^{k} D{i}", got == want)

        return run

    for k in range(1, cfg["max_power"] + 1):
        for i in range(1, N):
            ops.append(("bar_closed_form", bar(k, i)))

    # Normal forms of (D1*X1)^k at (3, 2).
    def normal_form(k, element):
        def run():
            got = str(element.normalize())
            return _outcome(f"(D1*X1)^{k}", got == cfg["d1x1_normal_form"], f"normal form {got}")

        return run

    for k in cfg["d1x1_powers"]:
        element = parser.parse_and_evaluate(f"(D1*X1)^{k}", parser.TARGET_NILHECKE, 3, 2)
        ops.append(("normal_form", normal_form(k, element)))

    # Seeded Adem words: strategies agree, output admissible, action kept.
    def adem(e, polys, label):
        def run():
            left = steenrod.adem_normalize(e, "leftmost")
            right = steenrod.adem_normalize(e, "rightmost")
            ok = left == right and left.is_admissible()
            for f in polys:
                for action in steenrod.ACTIONS:
                    ok = ok and steenrod.act(e, f, action) == steenrod.act(left, f, action)
            return _outcome(label, ok)

        return run

    for _ in range(cfg["adem_words"]):
        word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
        e = SteenrodElement(P, {word: rng.randrange(1, P)})
        polys = [_random_poly(rng, P, 2, 4, 2) for _ in range(2)]
        ops.append(("adem", adem(e, polys, f"adem {word}")))

    # Seeded nilHecke words: the normal form acts like the word.
    def nh_word(e, polys, label):
        def run():
            nf = e.normalize()
            ok = all(e.apply(f) == nf.apply(f) for f in polys)
            return _outcome(label, ok)

        return run

    for _ in range(cfg["nh_words"]):
        letters = []
        for _ in range(rng.randint(1, cfg["nh_word_length"])):
            if rng.random() < 0.5:
                letters.append(("x", rng.randint(1, N)))
            else:
                letters.append(("d", rng.randint(1, N - 1)))
        e = NilHeckeElement.from_word(P, N, tuple(letters), rng.randrange(1, P))
        polys = [_random_poly(rng, P, N, 5, 3) for _ in range(3)]
        ops.append(("nh_words", nh_word(e, polys, f"nh word {letters}")))

    return ops, {}


# -- homology -------------------------------------------------------------


def prepare_homology(seed: int, expected: dict):
    """The seed orders the spaces and the powers s within each space.  A
    space's operator is built by its first call and dropped after its last,
    so peak memory does not depend on the order."""
    from padem import pdg

    def build(key):
        kind, p, n, top = key.split(":")
        p, n, top = int(p), int(n), int(top)
        d = pdg.khovanov_qi_derivation(p, n)
        if kind == "poly":
            space = pdg.polynomial_space(p, n, top)
            return space, pdg.derivation_operator(space, d, n)
        space = pdg.nilhecke_space(p, n, top)
        return space, pdg.nh_derivation_operator(space, d)

    def homology(key, s, want, built, last):
        def run():
            if not built:
                built.append(build(key))
            space, op = built[0]
            dims, excluded = pdg.margolis_homology(space, op, s)
            if last:
                built.clear()
            got = {"dims": {str(d): v for d, v in sorted(dims.items())}, "excluded": list(excluded)}
            return _outcome(f"{key} s={s}", got == want, f"got {got}")

        return run

    rng = random.Random(seed)
    keys = list(expected["homology"])
    rng.shuffle(keys)
    ops = []
    for key in keys:
        per_s = list(expected["homology"][key].items())
        rng.shuffle(per_s)
        built: list = []
        for i, (s, want) in enumerate(per_s):
            ops.append(("homology", homology(key, int(s), want, built, i == len(per_s) - 1)))
    return ops, {}


# -- cli ------------------------------------------------------------------

def prepare_cli(seed: int, expected: dict, stats_dir: Path, traced: bool = False):
    """Each query is ``child.py query``, which runs it as the ``padem``
    console script does after checking that the caches start cold, and
    leaves its probe section in a file in stats_dir.  extras["queries"]
    gets (raw seconds, rescaled seconds) per query: spawn to exit less the
    probe's own cost, as measured and rescaled by the query's probe.
    Traced, each query also leaves its spans and cache counts, collected
    into extras["trace"]."""
    queries = list(expected["cli"])
    random.Random(seed).shuffle(queries)
    extras = {"queries": [], "trace": []}

    def query(q, number):
        def run():
            stats = stats_dir / f"query-{os.getpid()}-{number}.json"
            argv = [sys.executable, str(CHILD), "query", "1" if traced else "0", str(stats), *q["args"]]
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return _outcome(q["name"], False, "timed out")
            span = time.perf_counter() - start
            if not stats.exists():
                last = (err.decode().strip().splitlines() or [""])[-1]
                return _outcome(q["name"], False, f"exit {proc.returncode} before the probe reported: {last}")
            report = json.loads(stats.read_text())
            stats.unlink()
            raw = span - report["probe"]["cost_s"]
            extras["queries"].append((raw, raw * report["probe"]["factor"]))
            if traced:
                extras["trace"].append(report)
            ok = proc.returncode == q["rc"] and out.decode() == q["stdout"]
            return _outcome(q["name"], ok, f"exit {proc.returncode}, stdout {out.decode()!r}")

        return run

    return [(f"cli.{q['name']}", query(q, i)) for i, q in enumerate(queries)], extras


PREPARE = {
    "verify": prepare_verify,
    "identities": prepare_identities,
    "homology": prepare_homology,
    "cli": prepare_cli,
}


def perturb(expected: dict) -> dict:
    """A copy of the recorded answers with one answer per workload made
    wrong, for the benchmark's own test that its checks are not vacuous."""
    import copy

    bad = copy.deepcopy(expected)
    config, name = bad["verify"]["checks"][0]
    bad["verify"]["checks"][0] = [config, name + "-renamed"]
    bad["identities"]["d1x1_normal_form"] = "x2*D1 + 2"
    first = next(iter(bad["homology"].values()))
    next(iter(first.values()))["dims"]["0"] += 1
    bad["cli"][0]["stdout"] += "!"
    return bad

"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s).
Matrix unless a criterion narrows it: p in {2, 3, 5}, n in {2, 3, 4},
degree bound 24, fixed seed.
"""

import json
import random

from padem import groth, pdg, verify
from padem.arith import IntPolynomial, binomial_mod_p, cyclotomic, generalized_binomial
from padem.cli import main
from padem.nilhecke import NilHeckeElement, divided_difference
from padem.poly import (
    Polynomial,
    elementary_symmetric,
    monomials_up_to_degree,
)
from padem.steenrod import (
    ACTION_NONSTANDARD,
    ACTION_STANDARD,
    SteenrodElement,
    act,
    bar_act,
    bar_act_element,
    margolis_d,
)

from oracles import (
    conjugated_twist_image,
    dense_homology,
    random_poly,
    regular_nilpotent_module,
    total_dim,
)

PRIMES = (2, 3, 5)
VARS = (2, 3, 4)
DEGREE_BOUND = 24
SEED = 20240808


def run_check(failures, label, check):
    """Record a shared verify-all check that failed, with its detail."""
    if not check.ok:
        failures.append(f"{check.name} {label}: {check.detail}")


def report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {name}")
    for f in failures[:10]:
        print(f"  - {f}")
    assert not failures, f"criterion {number}: {failures[:10]}"


def P(p, k):
    return SteenrodElement.p_power(p, k)


def s_polynomial(p, n, i):
    return divided_difference(Polynomial.variable(p, n, i) ** p, i)


def test_criterion_1_nilhecke_relations():
    failures = []
    words_per_cell = -(-500 // (len(PRIMES) * len(VARS)))  # ceil
    for p in PRIMES:
        for n in VARS:
            label = f"p={p} n={n}"
            seed = f"{SEED}/{p}/{n}"
            run_check(failures, label, verify.check_nilhecke_relations(p, n, DEGREE_BOUND))
            run_check(failures, label, verify.check_normalize_action(p, n, seed, words_per_cell))
    report(1, "nilHecke relations and normal form", failures)


def test_criterion_2_steenrod_axioms():
    failures = []
    rng = random.Random(SEED + 1)
    products_per_cell = -(-500 // (len(PRIMES) * len(VARS)))
    for p in PRIMES:
        for n in VARS:
            for _ in range(products_per_cell):
                f = random_poly(rng, p, n, max_exp=4, terms=3)
                g = random_poly(rng, p, n, max_exp=4, terms=3)
                k = rng.randint(0, 6)
                lhs = act(P(p, k), f * g)
                rhs = Polynomial.zero(p, n)
                for i in range(k + 1):
                    rhs = rhs + act(P(p, i), f) * act(P(p, k - i), g)
                if lhs != rhs:
                    failures.append(f"p={p} n={n}: Cartan fails k={k}")
                if act(P(p, 0), f) != f:
                    failures.append(f"p={p} n={n}: P(0) not identity")
        for n in VARS:
            for exps in monomials_up_to_degree(n, DEGREE_BOUND):
                f = Polynomial.monomial(p, n, exps)
                half = sum(exps)
                if half and act(P(p, half), f) != f**p:
                    failures.append(f"p={p} n={n}: top power fails on {exps}")
                    break
                if not act(P(p, half + 1), f).is_zero() or not act(
                    P(p, half + 2), f
                ).is_zero():
                    failures.append(f"p={p} n={n}: instability fails on {exps}")
                    break
            for i in range(1, n + 1):
                ei = elementary_symmetric(i, n, p)
                if act(P(p, i), ei) != ei**p:
                    failures.append(f"p={p} n={n}: top power fails on e_{i}")
        if p > 2:
            x = Polynomial.variable(p, 1, 1)
            if act(P(p, 2), x, ACTION_NONSTANDARD).is_zero():
                failures.append(f"p={p}: no instability witness for nonstandard")
        else:
            for _ in range(40):
                f = random_poly(rng, 2, 3, max_exp=4, terms=3)
                k = rng.randint(0, 6)
                if act(P(2, k), f) != act(P(2, k), f, ACTION_NONSTANDARD):
                    failures.append("p=2: nonstandard differs from standard")
                    break
    report(2, "Steenrod axioms, instability, nonstandard witness", failures)


def test_criterion_3_adem_rewriting():
    failures = []
    for p in PRIMES:
        run_check(failures, f"p={p}", verify.check_adem(p, 2, f"{SEED + 2}/{p}", 500))
    report(3, "Adem action compatibility and strategy independence", failures)


def test_criterion_4_paper_theorems():
    failures = []

    # commutator identity, d <= 6, operators on P_n, n <= 3
    for p in PRIMES:
        for n in (2, 3):
            run_check(failures, f"p={p} n={n}", verify.check_commutator(p, n, DEGREE_BOUND, 6))

    # powers on the geometric sum, d <= 2p
    for p in PRIMES:
        run_check(failures, f"p={p}", verify.check_s_powers(p, 2, 2 * p))

    # generalized binomial rule on s^n, n <= 4, k <= 2p
    for p in PRIMES:
        s1 = s_polynomial(p, 2, 1)
        for n in range(1, 5):
            sn = s1**n
            for k in range(0, 2 * p + 1):
                got = act(P(p, k), sn)
                if k > n * p:
                    want = Polynomial.zero(p, 2)
                else:
                    want = s1 ** (k + n) * (generalized_binomial(n, k, p) * (-1) ** k)
                if got != want:
                    failures.append(f"generalized power rule p={p} n={n} k={k}")

    # bar action closed forms, powers <= 6
    for p in PRIMES:
        for nv in VARS:
            s = {i: s_polynomial(p, nv, i) for i in range(1, nv)}
            for k in range(1, 7):
                for i in range(1, nv):
                    got = bar_act(k, NilHeckeElement.d_gen(p, nv, i), ACTION_STANDARD, DEGREE_BOUND)
                    want = NilHeckeElement.from_polynomial(s[i] ** k) * NilHeckeElement.d_gen(
                        p, nv, i
                    ) * ((-1) ** k)
                    if got != want:
                        failures.append(f"bar closed form p={p} nv={nv} k={k} D{i}")
                got = bar_act(k, NilHeckeElement.x_gen(p, nv, 1), ACTION_STANDARD, DEGREE_BOUND)
                image = act(P(p, k), Polynomial.variable(p, nv, 1))
                if got != NilHeckeElement.from_polynomial(image):
                    failures.append(f"bar multiplication p={p} nv={nv} k={k}")

    # primitive differentials on generators, k <= 2; the recursion fixes
    # the sign (-1)^(k-1) on x_i^(p^k)
    for p in PRIMES:
        for n in VARS:
            run_check(failures, f"p={p} n={n}", verify.check_margolis_generators(p, n, 2))
    for p in (2, 3):
        for nv in (2, 3):
            s = {i: s_polynomial(p, nv, i) for i in range(1, nv)}
            for k in (1, 2):
                ell = (p**k - 1) // (p - 1)
                dk = margolis_d(k, p)
                for i in range(1, nv):
                    got = bar_act_element(dk, NilHeckeElement.d_gen(p, nv, i), ACTION_STANDARD, 12)
                    want = NilHeckeElement.from_polynomial(s[i] ** ell) * NilHeckeElement.d_gen(
                        p, nv, i
                    ) * ((-1) ** ell)
                    if got != want:
                        failures.append(f"margolis operator p={p} nv={nv} k={k} D{i}")

    # Wu formula at p = 2, n <= 3, i <= 4, up to four variables
    p = 2

    def e_or_zero(j, nv):
        if j < 0 or j > nv:
            return Polynomial.zero(p, nv)
        return elementary_symmetric(j, nv, p)

    for nv in (2, 3, 4):
        for i in range(1, min(4, nv) + 1):
            ei = elementary_symmetric(i, nv, p)
            for n in range(1, 4):
                got = act(P(p, n), ei)
                want = Polynomial.zero(p, nv)
                for k in range(0, n + 1):
                    c = binomial_mod_p(i - n + k - 1, k, p)
                    want = want + e_or_zero(n - k, nv) * e_or_zero(i + k, nv) * c
                if got != want:
                    failures.append(f"Wu formula nv={nv} i={i} n={n}")

    report(4, "operator identities from the underlying theory", failures)


def test_criterion_5_pdg_structures():
    failures = []

    # the Khovanov-Qi derivation and its twists a = 0, 1, 2
    for p in PRIMES:
        for n in (2, 3):
            run_check(failures, f"p={p} n={n}", verify.check_pdg(p, n, 20, SEED))

    # symmetric-function images, generator rule vs closed formula
    for p in PRIMES:
        for n in VARS:
            run_check(failures, f"p={p} n={n}", verify.check_symmetric_derivative_rule(p, n))

    # conjugating by the twisting monomial reproduces the twisted images
    for p in PRIMES:
        for n in (2, 3):
            for a in (0, 1, 2):
                d = pdg.twisted_derivation(p, n, a)
                for i in range(1, n):
                    got = conjugated_twist_image(p, n, a, i, degree_bound=12)
                    if got != d.d_images[i - 1]:
                        failures.append(f"conjugation p={p} n={n} a={a} D{i}")

    # one global sign per prime relating the induced power action and d
    for p in PRIMES:
        run_check(failures, f"p={p}", verify.check_steenrod_sign(p, 3, 12, SEED))

    report(5, "p-nilpotent derivation axioms, twists, induced sign", failures)


def test_criterion_6_margolis_homology_oracle():
    failures = []

    space = pdg.polynomial_space(2, 1, 6, powers=(4,))
    op = pdg.derivation_operator(space, pdg.khovanov_qi_derivation(2, 1), 1)
    dims, excluded = pdg.margolis_homology(space, op, 1)
    if dims != {0: 1, 6: 1} or excluded:
        failures.append(f"quotient example gave {dims}, excluded {excluded}")

    for p in PRIMES:
        space, op = regular_nilpotent_module(p)
        for s in range(1, p):
            dims, _ = pdg.margolis_homology(space, op, s)
            if dims:
                failures.append(f"free module not acyclic p={p} s={s}: {dims}")

    for p in PRIMES:
        configs = [
            pdg.polynomial_space(p, 1, 24, powers=(10,)),
            pdg.polynomial_space(p, 2, 16, powers=(4, 4)),
            pdg.polynomial_space(p, 2, 4 * p, powers=(p + 1, p + 1)),
            pdg.polynomial_space(p, 3, 12, powers=(3, 3, 3)),
        ]
        for space in configs:
            if total_dim(space) > 200:
                failures.append(f"p={p}: test space exceeds dimension 200")
                continue
            n = len(space.basis[0][0])
            op = pdg.derivation_operator(space, pdg.khovanov_qi_derivation(p, n), n)
            for s in range(1, p):
                dims, excluded = pdg.margolis_homology(space, op, s)
                if excluded:
                    failures.append(f"p={p} s={s}: unexpected exclusions {excluded}")
                oracle = dense_homology(space, op, s)
                if dims != oracle:
                    failures.append(f"p={p} s={s}: {dims} != oracle {oracle}")

    report(6, "slash homology against dense linear-algebra oracle", failures)


def test_criterion_7_grothendieck():
    failures = []
    for p in PRIMES:
        profile = groth.SubHopfProfile.filtration(1, p)
        series = groth.graded_dimension(profile)
        cap = series.degree() + 2 * p * (p - 1) + 2
        dims, certified = groth.enumerate_an_basis(1, p, degree_cap=cap)
        if not certified:
            failures.append(f"p={p}: enumeration not certified complete")
        want = {d: c for d, c in enumerate(series.coefficient_list()) if c}
        if dims != want:
            failures.append(f"p={p}: enumeration {dims} != dim_q {want}")

        for exponents in [(1,), (1, 1), (2, 1)]:
            presentation = groth.k0_presentation(groth.SubHopfProfile(p, exponents))
            product = IntPolynomial.one()
            for d in presentation["cyclotomic_factors"]:
                product = product * cyclotomic(d)
            if product != presentation["relation"]:
                failures.append(f"p={p} {exponents}: factor product mismatch")

    quotient = IntPolynomial.q_power_minus_one(12).exact_div(
        IntPolynomial.q_power_minus_one(4)
    )
    product = IntPolynomial.one()
    for d in (3, 6, 12):
        product = product * cyclotomic(d)
    if product != quotient:
        failures.append("(1-q^12)/(1-q^4) factorization mismatch")

    report(7, "graded dimensions, presentations, cyclotomic factors", failures)


def test_criterion_8_cli(capsys):
    failures = []

    from padem.parser import parse, render
    from test_parser_cli import random_ast

    rng = random.Random(SEED + 8)
    for target in ("polynomial", "nilhecke", "steenrod"):
        for _ in range(1000):
            ast = random_ast(rng, target)
            source = render(ast)
            if parse(render(parse(source, target)), target) != parse(source, target):
                failures.append(f"round trip fails for {source!r}")
                break

    examples = [
        (["adem", "P(1)*P(1)", "-p", "3"], "2*P(2)\n"),
        (["schubert", "--n", "3", "--perm", "1,2,3"], "1\n"),
        (["groth", "--profile", "1", "-p", "2"], "relation 1+q^2\nfactors [Phi_4]\n"),
    ]
    for argv, expected in examples:
        code = main(argv)
        out = capsys.readouterr().out
        if code != 0 or out != expected:
            failures.append(f"{argv}: exit {code}, output {out!r}")

    code = main(["verify-all", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    if code != 0 or payload["failed"] != 0:
        bad = [c for c in payload["checks"] if not c["ok"]]
        failures.append(f"verify-all exit {code}, failures {bad[:3]}")

    report(8, "parser round trip, exact CLI outputs, verify-all", failures)

"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s).
Matrix unless a criterion narrows it: p in {2, 3, 5}, n in {2, 3, 4},
degree bound 24, fixed seed.
"""

import json
import random

import numpy as np

from padem import groth, pdg
from padem.arith import IntPolynomial, binomial_mod_p, cyclotomic, generalized_binomial
from padem.cli import main
from padem.nilhecke import NilHeckeElement, apply_word, apply_word_sum, divided_difference
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
    adem_normalize,
    bar_act,
    bar_act_element,
    margolis_d,
)

PRIMES = (2, 3, 5)
VARS = (2, 3, 4)
DEGREE_BOUND = 24
SEED = 20240808


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


def random_poly(rng, p, n, max_exp=4, terms=3):
    t = {}
    for _ in range(rng.randint(1, terms)):
        t[tuple(rng.randint(0, max_exp) for _ in range(n))] = rng.randrange(1, p)
    return Polynomial(p, n, t)


def random_nh_word(rng, p, n, max_len=5):
    letters = []
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.5:
            letters.append(("x", rng.randint(1, n)))
        else:
            letters.append(("d", rng.randint(1, n - 1)))
    return tuple(letters), rng.randrange(1, p)


def test_criterion_1_nilhecke_relations():
    failures = []
    rng = random.Random(SEED)
    words_per_cell = -(-500 // (len(PRIMES) * len(VARS)))  # ceil
    for p in PRIMES:
        for n in VARS:
            monos = monomials_up_to_degree(n, DEGREE_BOUND)
            for name, lhs, rhs in pdg.nilhecke_relations(p, n):
                for exps in monos:
                    f = Polynomial.monomial(p, n, exps)
                    if apply_word_sum(lhs, f) != apply_word_sum(rhs, f):
                        failures.append(f"p={p} n={n}: {name} fails on {exps}")
                        break
            for _ in range(words_per_cell):
                letters, c = random_nh_word(rng, p, n)
                nf = NilHeckeElement.from_word(p, n, letters, c)
                for _ in range(2):
                    f = random_poly(rng, p, n)
                    if apply_word(letters, f) * c != nf.apply(f):
                        failures.append(f"p={p} n={n}: normal form changes action of {letters}")
                        break
    report(1, "nilHecke relations and normal form", failures)


def test_criterion_2_steenrod_axioms():
    failures = []
    rng = random.Random(SEED + 1)
    products_per_cell = -(-500 // (len(PRIMES) * len(VARS)))
    for p in PRIMES:
        for n in VARS:
            for _ in range(products_per_cell):
                f, g = random_poly(rng, p, n), random_poly(rng, p, n)
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
                f = random_poly(rng, 2, 3)
                k = rng.randint(0, 6)
                if act(P(2, k), f) != act(P(2, k), f, ACTION_NONSTANDARD):
                    failures.append("p=2: nonstandard differs from standard")
                    break
    report(2, "Steenrod axioms, instability, nonstandard witness", failures)


def test_criterion_3_adem_rewriting():
    failures = []
    rng = random.Random(SEED + 2)
    for p in PRIMES:
        for _ in range(500):
            word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
            e = SteenrodElement(p, {word: rng.randrange(1, p)})
            left = adem_normalize(e, "leftmost")
            right = adem_normalize(e, "rightmost")
            if left != right:
                failures.append(f"p={p}: strategies differ on {word}")
                continue
            if not left.is_admissible():
                failures.append(f"p={p}: output not admissible on {word}")
                continue
            for _ in range(2):
                f = random_poly(rng, p, 2, max_exp=3, terms=2)
                for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
                    if act(e, f, action) != act(left, f, action):
                        failures.append(f"p={p}: action changes on {word} ({action})")
                        break
    report(3, "Adem action compatibility and strategy independence", failures)


def test_criterion_4_paper_theorems():
    failures = []

    # commutator identity, d <= 6, operators on P_n, n <= 3
    for p in PRIMES:
        for n in (2, 3):
            s = {i: s_polynomial(p, n, i) for i in range(1, n)}
            monos = monomials_up_to_degree(n, DEGREE_BOUND)
            for d in range(1, 7):
                powers = [P(p, j) for j in range(d + 1)]
                for i in range(1, n):
                    for exps in monos:
                        f = Polynomial.monomial(p, n, exps)
                        lhs = act(powers[d], divided_difference(f, i)) - divided_difference(
                            act(powers[d], f), i
                        )
                        rhs = Polynomial.zero(p, n)
                        for j in range(1, d + 1):
                            rhs = rhs + s[i] ** j * divided_difference(
                                act(powers[d - j], f), i
                            ) * ((-1) ** j)
                        if lhs != rhs:
                            failures.append(f"commutator p={p} n={n} d={d} i={i}")
                            break

    # powers on the geometric sum, d <= 2p
    for p in PRIMES:
        s1 = s_polynomial(p, 2, 1)
        for d in range(0, 2 * p + 1):
            got = act(P(p, d), s1)
            want = s1 ** (d + 1) * ((-1) ** d) if d < p else Polynomial.zero(p, 2)
            if got != want:
                failures.append(f"s-power p={p} d={d}")

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
            for k in (1, 2):
                dk = margolis_d(k, p)
                for i in range(1, n + 1):
                    x = Polynomial.variable(p, n, i)
                    if act(dk, x) != x ** (p**k) * ((-1) ** (k - 1)):
                        failures.append(f"margolis generator p={p} n={n} k={k} x{i}")
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
    rng = random.Random(SEED + 4)

    for p in PRIMES:
        for n in (2, 3):
            for a in (None, 0, 1, 2):
                d = (
                    pdg.khovanov_qi_derivation(p, n)
                    if a is None
                    else pdg.twisted_derivation(p, n, a)
                )
                result = pdg.verify_pdg(d, degree_bound=20, seed=SEED)
                if not result["all_ok"]:
                    label = "khovanov-qi" if a is None else f"twist a={a}"
                    failures.append(f"p={p} n={n} {label}: {result['failures'][:1]}")

    # symmetric-function images, generator rule vs closed formula
    for p in PRIMES:
        for n in VARS:
            d = pdg.khovanov_qi_derivation(p, n)
            e = [elementary_symmetric(i, n, p) for i in range(n + 1)]
            for i in range(1, n + 1):
                want = e[1] * e[i]
                if i < n:
                    want = want - e[i + 1] * (i + 1)
                if d.apply_poly(e[i]) != want:
                    failures.append(f"p={p} n={n}: symmetric rule fails on e_{i}")

    # conjugating by the twisting monomial reproduces the twisted images
    for p in PRIMES:
        for n in (2, 3):
            for a in (0, 1, 2):
                d = pdg.twisted_derivation(p, n, a)
                for i in range(1, n):
                    got = pdg.conjugated_twist_image(p, n, a, i, degree_bound=12)
                    if got != d.d_images[i - 1]:
                        failures.append(f"conjugation p={p} n={n} a={a} D{i}")

    # one global sign per prime relating the induced power action and d
    for p in PRIMES:
        result = pdg.compare_with_steenrod(p, 3, degree_bound=12, seed=SEED)
        expected = 1 if p == 2 else -1
        if not result["consistent"] or result["global_sign"] != expected:
            failures.append(f"p={p}: sign report {result}")

    report(5, "p-nilpotent derivation axioms, twists, induced sign", failures)


def test_criterion_6_margolis_homology_oracle():
    failures = []

    space = pdg.polynomial_space(2, 1, 6, powers=(4,))
    op = pdg.derivation_operator(space, pdg.khovanov_qi_derivation(2, 1), 1)
    dims, excluded = pdg.margolis_homology(space, op, 1)
    if dims != {0: 1, 6: 1} or excluded:
        failures.append(f"quotient example gave {dims}, excluded {excluded}")

    for p in PRIMES:
        space, op = pdg.regular_nilpotent_module(p)
        for s in range(1, p):
            dims, _ = pdg.margolis_homology(space, op, s)
            if dims:
                failures.append(f"free module not acyclic p={p} s={s}: {dims}")

    def dense_oracle(space, op, s):
        p = space.p
        labels = [(d, i) for d in space.degrees for i in range(space.dim(d))]
        index = {lab: r for r, lab in enumerate(labels)}
        big = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for d in space.degrees:
            mat = op.matrix(d)
            if mat is None:
                continue
            for col in range(space.dim(d)):
                for row in range(space.dim(d + op.shift)):
                    if mat[row, col]:
                        big[index[(d + op.shift, row)], index[(d, col)]] = mat[row, col]
        ker_pow = np.linalg.matrix_power(big, s) % p
        im_pow = np.linalg.matrix_power(big, p - s) % p
        out = {}
        for d in space.degrees:
            cols = [index[(d, i)] for i in range(space.dim(d))]
            dim_ker = len(cols) - pdg.rank_mod_p(ker_pow[:, cols], p)
            src = d - op.shift * (p - s)
            src_cols = (
                [index[(src, i)] for i in range(space.dim(src))]
                if src in space.basis
                else []
            )
            dim_im = pdg.rank_mod_p(im_pow[:, src_cols], p) if src_cols else 0
            if dim_ker - dim_im:
                out[d] = dim_ker - dim_im
        return out

    for p in PRIMES:
        configs = [
            pdg.polynomial_space(p, 1, 24, powers=(10,)),
            pdg.polynomial_space(p, 2, 16, powers=(4, 4)),
            pdg.polynomial_space(p, 2, 4 * p, powers=(p + 1, p + 1)),
            pdg.polynomial_space(p, 3, 12, powers=(3, 3, 3)),
        ]
        for space in configs:
            if space.total_dim() > 200:
                failures.append(f"p={p}: test space exceeds dimension 200")
                continue
            n = len(space.basis[0][0])
            op = pdg.derivation_operator(space, pdg.khovanov_qi_derivation(p, n), n)
            for s in range(1, p):
                dims, excluded = pdg.margolis_homology(space, op, s)
                if excluded:
                    failures.append(f"p={p} s={s}: unexpected exclusions {excluded}")
                oracle = dense_oracle(space, op, s)
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

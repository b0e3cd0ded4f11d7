"""Invariant suite behind the verify-all subcommand.

Each check returns a Check record; run_matrix sweeps the configured
primes and variable counts.  Randomized checks take an explicit seed so
failures reproduce exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import groth, pdg
from .arith import binomial_mod_p
from .errors import PademError
from .nilhecke import (
    NilHeckeElement,
    apply_word,
    apply_word_sum,
    divided_difference,
    schubert,
)
from .poly import Polynomial, elementary_symmetric, monomials_up_to_degree
from .steenrod import (
    ACTION_NONSTANDARD,
    ACTION_STANDARD,
    SteenrodElement,
    act,
    adem_normalize,
    antipode_power,
    bar_act,
    margolis_d,
)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _random_monomial(rng, n, max_exp_sum):
    total = rng.randint(0, max_exp_sum)
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _random_poly(rng, p, n, max_exp_sum=5, terms=3):
    t = {}
    for _ in range(rng.randint(1, terms)):
        t[_random_monomial(rng, n, max_exp_sum)] = rng.randrange(1, p)
    return Polynomial(p, n, t)


def _random_nh_word(rng, p, n, max_len=4):
    """A random generator word and a nonzero coefficient."""
    letters = []
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.5:
            letters.append(("x", rng.randint(1, n)))
        else:
            letters.append(("d", rng.randint(1, n - 1)))
    return tuple(letters), rng.randrange(1, p)


def _random_steenrod_word(rng, p, max_len=3, max_exp=9):
    word = tuple(rng.randint(1, max_exp) for _ in range(rng.randint(1, max_len)))
    return SteenrodElement(p, {word: rng.randrange(1, p)})


def check_nilhecke_relations(p, n, degree_bound) -> Check:
    polys = [Polynomial.monomial(p, n, m) for m in monomials_up_to_degree(n, degree_bound)]
    for name, lhs, rhs in pdg.nilhecke_relations(p, n):
        for f in polys:
            if apply_word_sum(lhs, f) != apply_word_sum(rhs, f):
                return Check("nilhecke-relations", False, f"{name} fails on {f}")
    return Check("nilhecke-relations", True)


def check_normalize_action(p, n, degree_bound, rng, words) -> Check:
    for _ in range(words):
        letters, c = _random_nh_word(rng, p, n)
        e = NilHeckeElement.from_word(p, n, letters, c)
        for _ in range(3):
            f = _random_poly(rng, p, n)
            if e.apply(f) != apply_word(letters, f) * c:
                return Check("normalize-preserves-action", False, f"on {e}")
    return Check("normalize-preserves-action", True)


def check_leibniz(p, n, rng, samples=30) -> Check:
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        g = _random_poly(rng, p, n)
        j = rng.randint(1, n - 1)
        lhs = divided_difference(f * g, j)
        rhs = divided_difference(f, j) * g + f.transpose(j) * divided_difference(g, j)
        if lhs != rhs:
            return Check("twisted-leibniz", False, f"j={j}, f={f}, g={g}")
    return Check("twisted-leibniz", True)


def check_sym_equivariance(p, n, rng, samples=30) -> Check:
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        i = rng.randint(1, n)
        e = elementary_symmetric(i, n, p)
        j = rng.randint(1, n - 1)
        if divided_difference(e * f, j) != e * divided_difference(f, j):
            return Check("sym-equivariance", False, f"e_{i}, j={j}")
    return Check("sym-equivariance", True)


def check_steenrod_axioms(p, n, degree_bound, rng, samples) -> Check:
    # P^0 identity
    for _ in range(5):
        f = _random_poly(rng, p, n)
        if act(SteenrodElement.p_power(p, 0), f) != f:
            return Check("steenrod-axioms", False, "P(0) is not the identity")
    # Cartan formula on random products
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        g = _random_poly(rng, p, n)
        k = rng.randint(0, 6)
        for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
            lhs = act(SteenrodElement.p_power(p, k), f * g, action)
            rhs = Polynomial.zero(p, n)
            for i in range(k + 1):
                rhs = rhs + act(SteenrodElement.p_power(p, i), f, action) * act(
                    SteenrodElement.p_power(p, k - i), g, action
                )
            if lhs != rhs:
                return Check("steenrod-axioms", False, f"Cartan fails ({action})")
    # top power rule and instability, standard action
    for exps in monomials_up_to_degree(n, degree_bound):
        f = Polynomial.monomial(p, n, exps)
        half = sum(exps)
        if half and act(SteenrodElement.p_power(p, half), f) != f**p:
            return Check("steenrod-axioms", False, f"top power fails on {f}")
        if not act(SteenrodElement.p_power(p, half + 1), f).is_zero():
            return Check("steenrod-axioms", False, f"instability fails on {f}")
    # the nonstandard structure is not unstable at odd primes
    if p > 2:
        x = Polynomial.variable(p, 1, 1)
        witness = act(SteenrodElement.p_power(p, 2), x, ACTION_NONSTANDARD)
        if witness.is_zero():
            return Check("steenrod-axioms", False, "expected unstable violation")
    return Check("steenrod-axioms", True)


def check_adem(p, n, rng, words) -> Check:
    for _ in range(words):
        e = _random_steenrod_word(rng, p)
        left = adem_normalize(e, "leftmost")
        right = adem_normalize(e, "rightmost")
        if left != right:
            return Check("adem", False, f"strategy mismatch on {e}")
        if not left.is_admissible():
            return Check("adem", False, f"inadmissible output on {e}")
        for _ in range(2):
            f = _random_poly(rng, p, min(n, 2), max_exp_sum=4, terms=2)
            for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
                if act(e, f, action) != act(left, f, action):
                    return Check("adem", False, f"action changes on {e}")
    return Check("adem", True)


def check_commutator(p, n, degree_bound, max_d=3) -> Check:
    s = [None] + [
        divided_difference(Polynomial.variable(p, n, i) ** p, i) for i in range(1, n)
    ]
    monos = monomials_up_to_degree(n, min(degree_bound, 12))
    for d in range(1, max_d + 1):
        pd = SteenrodElement.p_power(p, d)
        for i in range(1, n):
            for exps in monos:
                f = Polynomial.monomial(p, n, exps)
                lhs = act(pd, divided_difference(f, i)) - divided_difference(
                    act(pd, f), i
                )
                rhs = Polynomial.zero(p, n)
                for j in range(1, d + 1):
                    term = s[i] ** j * divided_difference(
                        act(SteenrodElement.p_power(p, d - j), f), i
                    )
                    rhs = rhs + term * (-1 if j % 2 else 1)
                if lhs != rhs:
                    return Check("commutator", False, f"d={d}, i={i}, f={f}")
    return Check("commutator", True)


def check_s_powers(p, n) -> Check:
    s1 = divided_difference(Polynomial.variable(p, n, 1) ** p, 1)
    for d in range(0, 2 * p + 1):
        got = act(SteenrodElement.p_power(p, d), s1)
        want = s1 ** (d + 1) * (-1 if d % 2 else 1) if d < p else Polynomial.zero(p, n)
        if got != want:
            return Check("s-powers", False, f"d={d}")
    return Check("s-powers", True)


def check_bar_closed_form(p, n, degree_bound, max_power=2) -> Check:
    s1 = divided_difference(Polynomial.variable(p, n, 1) ** p, 1)
    dgen = NilHeckeElement.d_gen(p, n, 1)
    for k in range(1, max_power + 1):
        got = bar_act(k, dgen, ACTION_STANDARD, degree_bound)
        want = NilHeckeElement.from_polynomial(s1**k) * dgen * (-1 if k % 2 else 1)
        if got != want:
            return Check("bar-closed-form", False, f"power {k} on D1")
        got_x = bar_act(k, NilHeckeElement.x_gen(p, n, 1), ACTION_STANDARD, degree_bound)
        want_x = NilHeckeElement.from_polynomial(
            act(SteenrodElement.p_power(p, k), Polynomial.variable(p, n, 1))
        )
        if got_x != want_x:
            return Check("bar-closed-form", False, f"power {k} on x1")
    return Check("bar-closed-form", True)


def check_margolis_generators(p, n, degree_bound, max_t=2) -> Check:
    # The recursion fixes the sign (-1)^(t-1) on x_i^(p^t).
    for t in range(1, max_t + 1):
        dt = margolis_d(t, p)
        for i in range(1, n + 1):
            x = Polynomial.variable(p, n, i)
            if act(dt, x) != x ** (p**t) * ((-1) ** (t - 1)):
                return Check("margolis-generators", False, f"d_{t} on x{i}")
    return Check("margolis-generators", True)


def check_pdg(p, n, degree_bound, seed) -> Check:
    nn = min(n, 3)
    for a in (None, 0, 1, 2):
        if a is None:
            d = pdg.khovanov_qi_derivation(p, nn)
        else:
            d = pdg.twisted_derivation(p, nn, a)
        report = pdg.verify_pdg(d, degree_bound=min(degree_bound, 14), seed=seed)
        if not report["all_ok"]:
            label = "khovanov-qi" if a is None else f"twist a={a}"
            return Check("pdg-verify", False, f"{label}: {report['failures'][:1]}")
    return Check("pdg-verify", True)


def check_symmetric_derivative_rule(p, n) -> Check:
    d = pdg.khovanov_qi_derivation(p, n)
    e = [elementary_symmetric(i, n, p) for i in range(n + 1)]
    for i in range(1, n + 1):
        got = d.apply_poly(e[i])
        want = e[1] * e[i]
        if i < n:
            want = want - e[i + 1] * (i + 1)
        if got != want:
            return Check("symmetric-derivative", False, f"e_{i}")
    return Check("symmetric-derivative", True)


def check_steenrod_sign(p, n, degree_bound, seed) -> Check:
    report = pdg.compare_with_steenrod(p, min(n, 3), min(degree_bound, 12), seed=seed)
    expected = 1 if p == 2 else -1
    if not report["consistent"] or report["global_sign"] != expected:
        return Check("steenrod-sign", False, str(report))
    return Check("steenrod-sign", True)


def check_groth(p) -> Check:
    profile = groth.SubHopfProfile.filtration(1, p)
    dim_q = groth.graded_dimension(profile)
    dims, certified = groth.enumerate_an_basis(1, p, degree_cap=4 * p * (p - 1) + 8)
    if not certified:
        return Check("groth", False, "closure not certified")
    series = {d: c for d, c in enumerate(dim_q.coefficient_list()) if c}
    if series != dims:
        return Check("groth", False, f"dimension mismatch {series} vs {dims}")
    presentation = groth.k0_presentation(profile)
    product = groth.IntPolynomial.one()
    for d in presentation["cyclotomic_factors"]:
        product = product * groth.cyclotomic(d)
    if product != presentation["relation"]:
        return Check("groth", False, "factor product mismatch")
    return Check("groth", True)


def check_hopf_antipode(p, max_d=6) -> Check:
    for d in range(1, max_d + 1):
        total = SteenrodElement.zero(p)
        for i in range(d + 1):
            total = total + antipode_power(p, i) * SteenrodElement.p_power(p, d - i)
        if not adem_normalize(total).is_zero():
            return Check("hopf-antipode", False, f"degree {d}")
    return Check("hopf-antipode", True)


def check_schubert_unit(p, n) -> Check:
    from .nilhecke import Permutation

    if schubert(Permutation.identity(n), n, p) != Polynomial.one(p, n):
        return Check("schubert-unit", False, "identity class is not 1")
    return Check("schubert-unit", True)


def check_binomials(p) -> Check:
    import math

    for nn in range(0, 25):
        for kk in range(0, 25):
            if binomial_mod_p(nn, kk, p) != math.comb(nn, kk) % p:
                return Check("binomials", False, f"C({nn},{kk})")
    return Check("binomials", True)


def run_suite(p: int, n: int, degree_bound: int = 24, seed: int = 0, words: int = 100) -> list[Check]:
    """Run every check in order; a check that raises a PademError is
    reported as failed with the error as its detail, and the rest still run."""
    rng = random.Random(seed)
    checks = [
        ("binomials", lambda: check_binomials(p)),
        ("nilhecke-relations", lambda: check_nilhecke_relations(p, n, degree_bound)),
        (
            "normalize-preserves-action",
            lambda: check_normalize_action(p, n, degree_bound, rng, words),
        ),
        ("twisted-leibniz", lambda: check_leibniz(p, n, rng)),
        ("sym-equivariance", lambda: check_sym_equivariance(p, n, rng)),
        ("schubert-unit", lambda: check_schubert_unit(p, n)),
        (
            "steenrod-axioms",
            lambda: check_steenrod_axioms(
                p, n, min(degree_bound, 16), rng, max(10, words // 4)
            ),
        ),
        ("adem", lambda: check_adem(p, n, rng, words)),
        ("commutator", lambda: check_commutator(p, n, degree_bound)),
        ("s-powers", lambda: check_s_powers(p, n)),
        ("hopf-antipode", lambda: check_hopf_antipode(p)),
        ("bar-closed-form", lambda: check_bar_closed_form(p, n, min(degree_bound, 12))),
        ("margolis-generators", lambda: check_margolis_generators(p, n, degree_bound)),
        ("pdg-verify", lambda: check_pdg(p, n, degree_bound, seed)),
        ("symmetric-derivative", lambda: check_symmetric_derivative_rule(p, n)),
        ("steenrod-sign", lambda: check_steenrod_sign(p, n, degree_bound, seed)),
        ("groth", lambda: check_groth(p)),
    ]
    results = []
    for name, run in checks:
        try:
            results.append(run())
        except PademError as exc:
            results.append(Check(name, False, str(exc)))
    return results


def run_matrix(
    primes=(2, 3, 5),
    var_counts=(2, 3, 4),
    degree_bound: int = 24,
    seed: int = 0,
    words: int = 100,
) -> list[tuple[str, list[Check]]]:
    out = []
    for p in primes:
        for n in var_counts:
            out.append((f"p={p}, n={n}", run_suite(p, n, degree_bound, seed, words)))
    return out

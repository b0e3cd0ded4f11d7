"""Invariant suite behind the verify-all subcommand.

Each check returns a Check record and sweeps exactly the bounds it is
given; the table in _run_table is the one place that states them, as a
function of (p, n, degree bound, seed, words).  Randomized checks draw
from the suite's seeded rng so failures reproduce exactly.  run_matrix
sweeps the configured primes and variable counts and runs each distinct
check without the rng once: a row whose name and arguments repeat an
earlier one reports the kept result, so the n = 4 lines of pdg-verify
and steenrod-sign report the reused n = 3 result, and binomials,
hopf-antipode and groth run once per prime.
"""

from __future__ import annotations

import itertools
import math
import random

from . import groth, pdg
from .arith import binomial_mod_p, require_ring
from .errors import DomainError, PademError
from .nilhecke import (
    NilHeckeElement,
    Permutation,
    apply_word,
    divided_difference,
    first_word_sum_mismatch,
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


class Check:
    """One check's outcome: its name, whether it passed, and a detail
    that says what failed."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __eq__(self, other) -> bool:
        if other.__class__ is not Check:
            return NotImplemented
        return (self.name, self.ok, self.detail) == (other.name, other.ok, other.detail)

    def __repr__(self) -> str:
        return f"Check(name={self.name!r}, ok={self.ok!r}, detail={self.detail!r})"


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


def _random_steenrod_word(rng, p, max_len=3, max_exp=9):
    word = tuple(rng.randint(1, max_exp) for _ in range(rng.randint(1, max_len)))
    return SteenrodElement(p, {word: rng.randrange(1, p)})


def check_nilhecke_relations(p, n, degree_bound) -> Check:
    monos = monomials_up_to_degree(n, degree_bound)
    for name, lhs, rhs in pdg.nilhecke_relations(p, n):
        i = first_word_sum_mismatch(lhs, rhs, monos, p, n)
        if i is not None:
            f = Polynomial.monomial(p, n, monos[i])
            return Check("nilhecke-relations", False, f"{name} fails on {f}")
    return Check("nilhecke-relations", True)


def check_normalize_action(p, n, rng, words) -> Check:
    for _ in range(words):
        letters, c = pdg.random_nh_word(rng, p, n)
        e = NilHeckeElement.from_word(p, n, letters, c)
        for _ in range(3):
            f = _random_poly(rng, p, n)
            if e.apply(f) != apply_word(letters, f) * c:
                return Check("normalize-preserves-action", False, f"on {e}")
    return Check("normalize-preserves-action", True)


def check_leibniz(p, n, rng, samples) -> Check:
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        g = _random_poly(rng, p, n)
        j = rng.randint(1, n - 1)
        lhs = divided_difference(f * g, j)
        rhs = divided_difference(f, j) * g + f.transpose(j) * divided_difference(g, j)
        if lhs != rhs:
            return Check("twisted-leibniz", False, f"j={j}, f={f}, g={g}")
    return Check("twisted-leibniz", True)


def check_sym_equivariance(p, n, rng, samples) -> Check:
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
            f = _random_poly(rng, p, n, max_exp_sum=4, terms=2)
            for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
                if act(e, f, action) != act(left, f, action):
                    return Check("adem", False, f"action changes on {e}")
    return Check("adem", True)


def check_commutator(p, n, degree_bound, max_d) -> Check:
    # signed[i][j] = (-1)^j s_i^j with s_i = D_i(x_i^p), powers[m] = P^m,
    # and moved[k][i][m] = D_i(P^m f) for the k-th monomial f, computed
    # once for every d and i (P^0 is the identity)
    signed = [None]
    for i in range(1, n):
        s_i = divided_difference(Polynomial.variable(p, n, i) ** p, i)
        signed.append([None] + [s_i**j * (-1 if j % 2 else 1) for j in range(1, max_d + 1)])
    powers = [SteenrodElement.p_power(p, m) for m in range(max_d + 1)]
    monos = [Polynomial.monomial(p, n, exps) for exps in monomials_up_to_degree(n, degree_bound)]
    moved = []
    for f in monos:
        images = [f] + [act(powers[m], f) for m in range(1, max_d + 1)]
        moved.append([None] + [[divided_difference(g, i) for g in images] for i in range(1, n)])
    for d in range(1, max_d + 1):
        for i in range(1, n):
            for f, row in zip(monos, moved):
                dp = row[i]
                lhs = act(powers[d], dp[0]) - dp[d]
                rhs = Polynomial.zero(p, n)
                for j in range(1, d + 1):
                    rhs = rhs + signed[i][j] * dp[d - j]
                if lhs != rhs:
                    return Check("commutator", False, f"d={d}, i={i}, f={f}")
    return Check("commutator", True)


def check_s_powers(p, n, max_d) -> Check:
    s1 = divided_difference(Polynomial.variable(p, n, 1) ** p, 1)
    for d in range(0, max_d + 1):
        got = act(SteenrodElement.p_power(p, d), s1)
        want = s1 ** (d + 1) * (-1 if d % 2 else 1) if d < p else Polynomial.zero(p, n)
        if got != want:
            return Check("s-powers", False, f"d={d}")
    return Check("s-powers", True)


def check_bar_closed_form(p, n, degree_bound, max_power) -> Check:
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


def check_margolis_generators(p, n, max_t) -> Check:
    # The recursion fixes the sign (-1)^(t-1) on x_i^(p^t).
    for t in range(1, max_t + 1):
        dt = margolis_d(t, p)
        for i in range(1, n + 1):
            x = Polynomial.variable(p, n, i)
            if act(dt, x) != x ** (p**t) * ((-1) ** (t - 1)):
                return Check("margolis-generators", False, f"d_{t} on x{i}")
    return Check("margolis-generators", True)


def check_pdg(p, n, degree_bound, seed) -> Check:
    for a in (None, 0, 1, 2):
        if a is None:
            d = pdg.khovanov_qi_derivation(p, n)
        else:
            d = pdg.twisted_derivation(p, n, a)
        report = pdg.verify_pdg(d, degree_bound=degree_bound, seed=seed)
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


# Random operators check_steenrod_sign checks bar P^1 = sign * d on.
SIGN_SAMPLES = 8


def check_steenrod_sign(p, n, degree_bound, seed) -> Check:
    # bar P^1 under the nonstandard action is sign * d for the Khovanov-Qi
    # derivation d, with sign +1 at p = 2 and -1 otherwise: on each x_i
    # and D_i, then on SIGN_SAMPLES random operator words
    d = pdg.khovanov_qi_derivation(p, n)
    sign = 1 if p == 2 else -1
    rng = random.Random(seed)
    generators = [NilHeckeElement.x_gen(p, n, i) for i in range(1, n + 1)]
    generators += [NilHeckeElement.d_gen(p, n, i) for i in range(1, n)]
    samples = (
        NilHeckeElement.from_word(p, n, *pdg.random_nh_word(rng, p, n))
        for _ in range(SIGN_SAMPLES)
    )
    for e in itertools.chain(generators, samples):
        if bar_act(1, e, ACTION_NONSTANDARD, degree_bound) != d.apply_nh(e) * sign:
            return Check("steenrod-sign", False, f"bar P(1) != {sign} * d on {e}")
    return Check("steenrod-sign", True)


def check_groth(p, degree_cap) -> Check:
    profile = groth.SubHopfProfile.filtration(1, p)
    dim_q = groth.graded_dimension(profile)
    dims, certified = groth.enumerate_an_basis(1, p, degree_cap=degree_cap)
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


def check_hopf_antipode(p, max_d) -> Check:
    for d in range(1, max_d + 1):
        total = SteenrodElement.zero(p)
        for i in range(d + 1):
            total = total + antipode_power(p, i) * SteenrodElement.p_power(p, d - i)
        if not adem_normalize(total).is_zero():
            return Check("hopf-antipode", False, f"degree {d}")
    return Check("hopf-antipode", True)


def check_schubert_unit(p, n) -> Check:
    if schubert(Permutation.identity(n), n, p) != Polynomial.one(p, n):
        return Check("schubert-unit", False, "identity class is not 1")
    return Check("schubert-unit", True)


def check_binomials(p, limit) -> Check:
    for nn in range(limit):
        for kk in range(limit):
            if binomial_mod_p(nn, kk, p) != math.comb(nn, kk) % p:
                return Check("binomials", False, f"C({nn},{kk})")
    return Check("binomials", True)


def _run_table(p, n, degree_bound, seed, words, kept) -> list[Check]:
    """Run every check of the table in order, with the Check of each row
    that does not use the rng kept under (name, arguments): a repeated
    row reports the kept one.  See run_matrix."""
    require_ring(p, n)
    if n < 2:
        raise DomainError(f"the invariant suite needs at least two variables, got n={n}")
    if degree_bound < 0:
        raise DomainError(f"degree bound {degree_bound} must be nonnegative")
    if words < 1:
        raise DomainError(f"need at least one random word per check, got words={words}")
    rng = random.Random(seed)
    # (name, check function, the exact arguments it runs with): every
    # bound verify-all uses is stated here and only here; the table is
    # built on every call, so a replaced module attribute runs
    table = [
        ("binomials", check_binomials, (p, 25)),
        ("nilhecke-relations", check_nilhecke_relations, (p, n, degree_bound)),
        ("normalize-preserves-action", check_normalize_action, (p, n, rng, words)),
        ("twisted-leibniz", check_leibniz, (p, n, rng, 30)),
        ("sym-equivariance", check_sym_equivariance, (p, n, rng, 30)),
        ("schubert-unit", check_schubert_unit, (p, n)),
        (
            "steenrod-axioms",
            check_steenrod_axioms,
            (p, n, min(degree_bound, 16), rng, max(10, words // 4)),
        ),
        ("adem", check_adem, (p, min(n, 2), rng, words)),
        ("commutator", check_commutator, (p, n, min(degree_bound, 12), 3)),
        ("s-powers", check_s_powers, (p, n, 2 * p)),
        ("hopf-antipode", check_hopf_antipode, (p, 6)),
        ("bar-closed-form", check_bar_closed_form, (p, n, min(degree_bound, 12), 2)),
        ("margolis-generators", check_margolis_generators, (p, n, 2)),
        ("pdg-verify", check_pdg, (p, min(n, 3), min(degree_bound, 14), seed)),
        ("symmetric-derivative", check_symmetric_derivative_rule, (p, n)),
        ("steenrod-sign", check_steenrod_sign, (p, min(n, 3), min(degree_bound, 12), seed)),
        ("groth", check_groth, (p, 4 * p * (p - 1) + 8)),
    ]
    results = []
    for name, fn, args in table:
        key = None if rng in args else (name, args)
        check = kept.get(key)
        if check is None:
            try:
                check = fn(*args)
            except PademError as exc:
                check = Check(name, False, str(exc))
            if key is not None:
                kept[key] = check
        results.append(check)
    return results


def run_matrix(
    primes=(2, 3, 5),
    var_counts=(2, 3, 4),
    degree_bound: int = 24,
    seed: int = 0,
    words: int = 100,
) -> list[tuple[str, list[Check]]]:
    """Run the table of checks for every prime and variable count, each
    distinct check without the rng run once across the matrix; a check
    that raises a PademError is reported as failed with the error as its
    detail, and the rest still run.

    The arguments of each configuration are validated before any of its
    checks runs, and a bad one raises DomainError: the checks use
    D_1..D_{n-1}, so n >= 2, the degree bound is nonnegative, and the
    random-word checks need at least one word."""
    kept: dict = {}
    out = []
    for p in primes:
        for n in var_counts:
            out.append((f"p={p}, n={n}", _run_table(p, n, degree_bound, seed, words, kept)))
    return out

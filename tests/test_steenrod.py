"""Reduced-power algebra tests: Adem rewriting, actions, antipode,
bar action, Margolis differentials, and the one-variable coaction."""

import itertools
import math
import random
import time

import pytest

from padem import verify
from padem.arith import binomial_mod_p
from padem.errors import DomainError
from padem.nilhecke import NilHeckeElement, divided_difference
from padem.pdg import random_nh_word
from padem.poly import (
    Polynomial,
    elementary_symmetric,
    monomials_up_to_degree,
    power_sum,
)
from padem.steenrod import (
    ACTION_NONSTANDARD,
    ACTION_STANDARD,
    ACTIONS,
    GRADING_COMPRESSED,
    MARGOLIS_TERM_BUDGET,
    SteenrodElement,
    _admissible_count,
    _is_admissible_word,
    act,
    adem_normalize,
    antipode,
    antipode_power,
    bar_act,
    bar_act_element,
    margolis_d,
    margolis_pst,
    milnor_coaction,
    xi_monomial_degree,
)
from padem.verify import _random_steenrod_word

from oracles import antipode_total_power, is_symmetric, random_poly, total_power_monomial

PRIMES = (2, 3, 5)


def P(p, *word):
    return SteenrodElement(p, {tuple(word): 1})


def s_polynomial(p, n, i):
    """The geometric sum (x_i^p - x_{i+1}^p)/(x_i - x_{i+1})."""
    return divided_difference(Polynomial.variable(p, n, i) ** p, i)


# -- element basics -------------------------------------------------------


def test_element_construction_strips_identity_letters():
    e = SteenrodElement(3, {(2, 0, 1): 1})
    assert e.terms == {(2, 1): 1}
    assert SteenrodElement(3, {(0,): 1}) == SteenrodElement.one(3)


def test_word_degrees_by_grading():
    e = SteenrodElement(3, {(2, 1): 1})
    assert e.word_degree((2, 1)) == 12
    assert e.word_degree((2, 1), GRADING_COMPRESSED) == 6
    assert e.degree() == 12
    assert e.degree(GRADING_COMPRESSED) == 6
    with pytest.raises(DomainError, match="unknown grading"):
        e.degree("bogus")


def test_rendering():
    assert str(SteenrodElement(3, {(2,): 2})) == "2*P(2)"
    assert str(SteenrodElement(3, {(3, 1): 1, (): 2})) == "P(3)*P(1) + 2"
    assert str(SteenrodElement.zero(5)) == "0"


# -- Adem rewriting -------------------------------------------------------


def test_adem_examples():
    assert adem_normalize(P(2, 1, 1)).is_zero()
    assert adem_normalize(P(3, 1, 1)) == SteenrodElement(3, {(2,): 2})
    assert adem_normalize(P(3, 3, 1)) == P(3, 3, 1)  # already admissible


def test_adem_known_composites_at_two():
    # P here is the even half: P(a)P(b) with a < 2b rewrites
    assert adem_normalize(P(2, 1, 2)) == P(2, 3)
    assert adem_normalize(P(2, 2, 2)) == P(2, 3, 1)
    assert adem_normalize(P(2, 1, 3)).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_adem_output_admissible_and_action_compatible(p):
    rng = random.Random(17)
    for _ in range(60):
        e = _random_steenrod_word(rng, p)
        nf = adem_normalize(e)
        assert nf.is_admissible()
        assert nf.is_homogeneous()
        assert adem_normalize(e, "rightmost") == nf
        for _ in range(2):
            f = random_poly(rng, p, 2, max_exp=3, terms=2)
            for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
                assert act(e, f, action) == act(nf, f, action)


def test_adem_preserves_homogeneity():
    e = adem_normalize(P(5, 3, 2, 4))
    assert e.is_homogeneous()


# -- actions --------------------------------------------------------------


def test_action_examples():
    x = Polynomial.variable(3, 2, 1)
    assert act(P(3, 1), x) == x**3
    assert act(P(3, 0), x + x * x) == x + x * x
    assert act(P(3, 1), x, ACTION_NONSTANDARD) == x * x * 2
    x5 = Polynomial.variable(5, 1, 1)
    assert act(P(5, 2), x5, ACTION_NONSTANDARD) == x5**3 * 6


@pytest.mark.parametrize("p", PRIMES)
def test_power_of_generator_rule(p):
    x = Polynomial.variable(p, 1, 1)
    for n in range(1, 8):
        for k in range(0, n + 2):
            got = act(P(p, k), x**n)
            want = x ** (n + k * (p - 1)) * math.comb(n, k) if k <= n else Polynomial.zero(p, 1)
            assert got == want


@pytest.mark.parametrize("p", PRIMES)
def test_cartan_formula(p):
    rng = random.Random(29)
    for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
        for _ in range(25):
            f = random_poly(rng, p, 3, max_exp=3, terms=2)
            g = random_poly(rng, p, 3, max_exp=3, terms=2)
            k = rng.randint(0, 5)
            lhs = act(P(p, k), f * g, action)
            rhs = Polynomial.zero(p, 3)
            for i in range(k + 1):
                rhs = rhs + act(P(p, i), f, action) * act(P(p, k - i), g, action)
            assert lhs == rhs


@pytest.mark.parametrize("p", PRIMES)
def test_top_power_and_instability(p):
    for exps in monomials_up_to_degree(2, 12):
        f = Polynomial.monomial(p, 2, exps)
        half = sum(exps)
        if half:
            assert act(P(p, half), f) == f**p
        assert act(P(p, half + 1), f).is_zero()
        assert act(P(p, half + 3), f).is_zero()


def test_nonstandard_preserves_symmetry():
    for p in PRIMES:
        for n in (2, 3):
            for i in range(1, n + 1):
                e = elementary_symmetric(i, n, p)
                for d in range(5):
                    assert is_symmetric(act(P(p, d), e, ACTION_NONSTANDARD))


def test_nonstandard_power_sum_rule():
    # P^d p_k = C(k(p-1), d) p_{d+k} under the nonstandard action
    for p in PRIMES:
        for n in (2, 3):
            for k in range(1, 4):
                pk = power_sum(k, n, p)
                for d in range(1, 2 * p):
                    got = act(P(p, d), pk, ACTION_NONSTANDARD)
                    c = binomial_mod_p(k * (p - 1), d, p)
                    want = power_sum(d + k, n, p) * c
                    assert got == want, (p, n, k, d)


def test_nonstandard_action_on_a_power_is_the_cartan_expansion():
    # P^* x = sum_m C(p-1, m) x^(m+1) on one variable, so P^j x^a is the
    # coefficient of t^j in (sum_m C(p-1, m) t^m)^a, expanded here by
    # integer convolution and reduced mod p at the end
    for p in (2, 3, 5, 7, 11):
        row = [1]  # (sum_m C(p-1, m) t^m)^a over Z
        for a in range(13):
            x_a = Polynomial.monomial(p, 1, (a,))
            for j in range(len(row) + 2):
                got = act(P(p, j), x_a, ACTION_NONSTANDARD)
                c = row[j] if j < len(row) else 0
                assert got == Polynomial.monomial(p, 1, (a + j,)) * c, (p, a, j)
            row = [
                sum(row[i - m] * math.comb(p - 1, m) for m in range(p) if 0 <= i - m < len(row))
                for i in range(len(row) + p - 1)
            ]


def _near_powers(p, top):
    """The exponents on and next to p^0, ..., p^top."""
    return sorted({e for q in (p**i for i in range(top + 1)) for e in (q - 1, q, q + 1)})


@pytest.mark.parametrize("p", PRIMES)
def test_action_on_monomials_matches_the_total_power(p):
    # every k from 0 to one past the top power, which instability makes 0
    grids = ((1, _near_powers(p, 2)), (2, _near_powers(p, 1)), (3, sorted({0, 1, p - 1, p})))
    for n, exponents in grids:
        for exps in itertools.product(exponents, repeat=n):
            f = Polynomial.monomial(p, n, exps)
            for action, scale in ((ACTION_STANDARD, 1), (ACTION_NONSTANDARD, p - 1)):
                for k in range(scale * sum(exps) + 2):
                    got = act(P(p, k), f, action).terms
                    assert got == total_power_monomial(p, action, k, exps), (action, k, exps)


@pytest.mark.parametrize("action", ACTIONS)
def test_small_power_of_a_huge_exponent_is_fast(action):
    # a row stops at the power being split: three entries here, not one
    # per j up to the exponent
    p, a = 5, 10**8 + 3
    upper, step = (a, p - 1) if action == ACTION_STANDARD else ((p - 1) * a, 1)
    start = time.perf_counter()
    got = act(P(p, 2), Polynomial.monomial(p, 1, (a,)), action)
    assert time.perf_counter() - start < 0.5
    assert got.terms == {(a + 2 * step,): math.comb(upper, 2) % p}


@pytest.mark.parametrize("action", ACTIONS)
def test_power_on_a_monomial_is_linear_in_the_variables(action):
    # only the variables with a nonzero exponent are walked, so a query in
    # 100,000 variables takes milliseconds
    p, n = 3, 100_000
    start = time.perf_counter()
    for i, a in ((0, 1), (n - 1, 2), (n // 2, 5)):
        exps = [0] * n
        exps[i] = a
        got = act(P(p, 2), Polynomial.monomial(p, n, exps), action).terms
        want = {}
        for (e,), c in total_power_monomial(p, action, 2, (a,)).items():
            exps[i] = e
            want[tuple(exps)] = c
        assert got == want
    assert time.perf_counter() - start < 1


# -- antipode -------------------------------------------------------------


def test_antipode_small_values():
    assert antipode_power(3, 0) == SteenrodElement.one(3)
    assert antipode_power(3, 1) == SteenrodElement(3, {(1,): 2})
    assert antipode_power(3, 2) == P(3, 2)
    assert antipode(P(3, 1)) == SteenrodElement(3, {(1,): 2})


@pytest.mark.parametrize("p", PRIMES)
def test_antipode_hopf_identity(p):
    # sum S(P^i) P^j = 0 = sum P^i S(P^j) over i + j = d, for d >= 1
    for d in range(1, 9):
        left = SteenrodElement.zero(p)
        right = SteenrodElement.zero(p)
        for i in range(d + 1):
            left = left + antipode_power(p, i) * P(p, d - i)
            right = right + P(p, i) * antipode_power(p, d - i)
        assert adem_normalize(left).is_zero()
        assert adem_normalize(right).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_antipode_action_matches_the_total_antipode(p):
    # S_t = sum_i t^i S(P^i) is the ring map inverse to P_t on each variable
    for n in (1, 2, 3):
        for exps in monomials_up_to_degree(n, 12):
            f = Polynomial.monomial(p, n, exps)
            for i in range(9):
                got = act(antipode_power(p, i), f).terms
                assert got == antipode_total_power(p, i, exps), (i, exps)


def test_antipode_is_antimultiplicative():
    p = 3
    e = P(p, 2, 1)
    direct = antipode(e)
    swapped = adem_normalize(antipode_power(p, 1) * antipode_power(p, 2))
    assert direct == swapped


# -- bar action ------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_bar_action_closed_forms(p):
    # powers 1..3 on D1 and x1; power 0 is test_bar_act_zero_power_is_identity
    assert verify.check_bar_closed_form(p, 2, 12, 3).ok


def bar_act_oracle(k, e, y, action):
    """The bar action's defining sum, one Polynomial-level act at a time:
    sum_i P^(k-i)(e(S(P^i) y))."""
    out = Polynomial.zero(e.p, e.n)
    for i in range(k + 1):
        inner = e.apply(act(antipode_power(e.p, i), y, action))
        out = out + act(P(e.p, k - i), inner, action)
    return out


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_bar_act_matches_polynomial_level_definition(p, n):
    rng = random.Random(61 + 10 * p + n)
    monomials = monomials_up_to_degree(n, 8)
    for _ in range(3):
        letters, c = random_nh_word(rng, p, n, max_len=3)
        e = NilHeckeElement.from_word(p, n, letters, c)
        for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
            for k in range(4):
                got = bar_act(k, e, action, 8)
                for exps in monomials:
                    y = Polynomial.monomial(p, n, exps)
                    assert got.apply(y) == bar_act_oracle(k, e, y, action), (letters, action, k, exps)


@pytest.mark.parametrize("k", (0, 1))
def test_bar_act_rejects_an_unknown_action(k):
    with pytest.raises(DomainError):
        bar_act(k, NilHeckeElement.d_gen(3, 2, 1), "bogus")


def test_bar_act_zero_power_is_identity():
    e = NilHeckeElement.from_word(3, 2, (("x", 1), ("d", 1)), 2)
    assert bar_act(0, e, ACTION_STANDARD, 8) == e


def test_bar_act_is_derivation_for_power_one():
    p, n = 3, 2
    rng = random.Random(37)
    for _ in range(6):
        letters = tuple(
            ("x", rng.randint(1, n)) if rng.random() < 0.5 else ("d", 1)
            for _ in range(rng.randint(1, 3))
        )
        u = NilHeckeElement.from_word(p, n, letters)
        v = NilHeckeElement.d_gen(p, n, 1)
        lhs = bar_act(1, u * v, ACTION_STANDARD, 10)
        rhs = bar_act(1, u, ACTION_STANDARD, 10) * v + u * bar_act(1, v, ACTION_STANDARD, 10)
        assert lhs == rhs


# -- Margolis differentials -------------------------------------------------


def test_margolis_d_examples():
    assert margolis_d(1, 3) == P(3, 1)
    d2 = margolis_d(2, 2)
    x = Polynomial.variable(2, 1, 1)
    assert act(d2, x) == x**4
    with pytest.raises(DomainError):
        margolis_d(0, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_margolis_generator_values_with_recursion_sign(p):
    assert verify.check_margolis_generators(p, 2, 2).ok


@pytest.mark.parametrize("p", (2, 3))
def test_margolis_on_divided_difference_via_bar_action(p):
    n = 2
    s1 = s_polynomial(p, n, 1)
    d1 = NilHeckeElement.d_gen(p, n, 1)
    for t in (1, 2):
        ell = (p**t - 1) // (p - 1)
        got = bar_act_element(margolis_d(t, p), d1, ACTION_STANDARD, 10)
        want = NilHeckeElement.from_polynomial(s1**ell) * d1 * ((-1) ** ell)
        assert got == want, (p, t)


@pytest.mark.parametrize("p", PRIMES)
def test_margolis_degree(p):
    for t in (1, 2, 3):
        assert margolis_d(t, p).degree() == 2 * (p**t - 1)


@pytest.mark.parametrize("p", (2, 3))
def test_margolis_p_nilpotence_on_polynomials(p):
    dt = margolis_d(2, p)
    power = SteenrodElement.one(p)
    for _ in range(p):
        power = power * dt
    rng = random.Random(41)
    for _ in range(10):
        f = random_poly(rng, p, 2, max_exp=3, terms=2)
        assert act(power, f).is_zero()


def _admissible_words(p, degree):
    """Every word P^{a_1} ... P^{a_k} with a_1 + ... + a_k = degree and
    all a_i >= 1 that is admissible, by brute force over compositions."""
    if degree == 0:
        return [()]
    out = []
    for first in range(1, degree + 1):
        out += [(first,) + w for w in _admissible_words(p, degree - first)]
    return [w for w in out if _is_admissible_word(w, p)]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_admissible_count_matches_enumeration(p):
    for degree in range(0, 17):
        count = len(_admissible_words(p, degree))
        assert _admissible_count(p, degree, 10**6) == count, degree
        capped = _admissible_count(p, degree, 2)
        assert capped == count if count <= 2 else capped > 2


@pytest.mark.parametrize(
    "t, p", ((9, 2), (40, 2), (7, 3), (12, 3), (6, 5), (4, 97), (10**9, 97))
)
def test_margolis_d_over_budget_raises_before_rewriting(t, p):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="work budget"):
        margolis_d(t, p)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("t, p", ((8, 2), (6, 3), (5, 5), (3, 97)))
def test_margolis_d_largest_within_budget(t, p):
    degree = (p**t - 1) // (p - 1)
    assert _admissible_count(p, degree, MARGOLIS_TERM_BUDGET) <= MARGOLIS_TERM_BUDGET
    dt = margolis_d(t, p)
    assert dt.degree() == 2 * (p**t - 1)
    assert len(dt.terms) <= _admissible_count(p, degree, MARGOLIS_TERM_BUDGET)
    with pytest.raises(DomainError):
        margolis_d(t + 1, p)


# -- coaction and dual differentials ----------------------------------------


def test_coaction_examples():
    p = 2
    x = Polynomial.variable(p, 1, 1)
    out = milnor_coaction(x, 2 * (2**3 - 1))
    assert out[()] == x
    assert out[(1,)] == x**2
    assert out[(0, 1)] == x**4
    assert out[(0, 0, 1)] == x**8
    unit = milnor_coaction(Polynomial.one(p, 1), 10)
    assert unit == {(): Polynomial.one(p, 1)}


@pytest.mark.parametrize("p", (2, 3))
def test_coaction_on_pth_powers(p):
    x = Polynomial.variable(p, 1, 1)
    cap = 2 * p * (p**2 - 1)
    out = milnor_coaction(x**p, cap)
    assert out[()] == x**p
    assert out[(p,)] == x ** (p * p)
    assert out[(0, p)] == x ** (p**3)


def _flat_coaction(f, cap):
    """The coaction of f as {(xi, x-exponent): coefficient}."""
    return {(xi, m): c for xi, g in milnor_coaction(f, cap).items() for (m,), c in g.terms.items()}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_coaction_is_multiplicative(p):
    # psi(x^(a+b)) = psi(x^a) psi(x^b), truncated: the product is taken
    # here term by term, with no expansion from padem
    for cap in (2 * (p**2 - 1), 2 * (p**3 - 1)):
        flat = [_flat_coaction(Polynomial.monomial(p, 1, (a,)), cap) for a in range(25)]
        for a in range(13):
            for b in range(a, 13):
                product = {}
                for (xi1, m1), c1 in flat[a].items():
                    for (xi2, m2), c2 in flat[b].items():
                        xi = tuple(u + v for u, v in itertools.zip_longest(xi1, xi2, fillvalue=0))
                        if xi_monomial_degree(p, xi) <= cap:
                            key = (xi, m1 + m2)
                            product[key] = (product.get(key, 0) + c1 * c2) % p
                assert {k: c for k, c in product.items() if c} == flat[a + b], (a, b, cap)


def test_coaction_rejects_a_negative_cap():
    x = Polynomial.variable(3, 1, 1)
    for f in (Polynomial.one(3, 1), x, x**5):
        with pytest.raises(DomainError, match="degree cap -1 must be nonnegative"):
            milnor_coaction(f, -1)


def test_coaction_of_a_large_power_is_fast():
    # one term per composition of 3^7 that fits under the cap; C(3^7, c)
    # vanishes mod 3 unless c is 0 or 3^7, so the walk stops at once
    p = 3
    f = Polynomial.monomial(p, 1, (p**7,))
    start = time.perf_counter()
    assert margolis_pst(4, 1, f).is_zero()
    assert margolis_pst(7, 1, f) == Polynomial.monomial(p, 1, (p**8,))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", (2, 3))
def test_coaction_counit(p):
    # the empty dual monomial carries the element itself
    rng = random.Random(43)
    for _ in range(10):
        f = random_poly(rng, p, 1, max_exp=6, terms=2)
        out = milnor_coaction(f, 2 * (p**2 - 1))
        assert out.get((), Polynomial.zero(p, 1)) == f


def test_margolis_pst_examples():
    for p in (2, 3):
        x = Polynomial.variable(p, 1, 1)
        assert margolis_pst(0, 1, x) == x**p
        assert margolis_pst(1, 1, x).is_zero()
    assert margolis_pst(0, 1, Polynomial.variable(2, 1, 1) ** 2).is_zero()


@pytest.mark.parametrize("p", (2, 3))
def test_margolis_pst_matches_recursion_up_to_sign(p):
    for t in (1, 2):
        dt = margolis_d(t, p)
        sign = (-1) ** (t - 1)
        for m in range(0, 8):
            f = Polynomial.monomial(p, 1, (m,))
            assert margolis_pst(0, t, f) == act(dt, f) * sign


def test_margolis_pst_nilpotence():
    p = 2
    for t in (1, 2):
        for m in range(1, 8):
            f = Polynomial.monomial(p, 1, (m,))
            for _ in range(p):
                f = margolis_pst(0, t, f)
            assert f.is_zero()


# -- operator identities ----------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_commutator_identity_small(p):
    assert verify.check_commutator(p, 2, 8, 3).ok


@pytest.mark.parametrize("p", PRIMES)
def test_power_on_s_identity(p):
    assert verify.check_s_powers(p, 2, 2 * p).ok

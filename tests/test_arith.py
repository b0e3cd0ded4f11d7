"""Scalar arithmetic and Z[q] polynomial tests."""

import math
import time

import pytest

from padem.arith import (
    IntPolynomial,
    Record,
    binomial_mod_p,
    capped_binomial,
    cyclotomic,
    divisors,
    factor_quotient,
    generalized_binomial,
    is_prime,
    require_prime,
)
from padem.errors import DivisibilityError, DomainError

PRIMES = (2, 3, 5)


def naive_power_row(n, p):
    """Coefficients of (1 + x + ... + x^(p-1))^n over Z, by convolution."""
    row = [1]
    for _ in range(n):
        new = [0] * (len(row) + p - 1)
        for i, c in enumerate(row):
            for j in range(p):
                new[i + j] += c
        row = new
    return row


def test_prime_validation():
    assert is_prime(2) and is_prime(97) and not is_prime(91)
    require_prime(5)
    with pytest.raises(DomainError):
        require_prime(6)
    with pytest.raises(DomainError):
        require_prime(101)


def test_binomial_examples():
    assert binomial_mod_p(5, 2, 3) == math.comb(5, 2) % 3 == 1
    assert binomial_mod_p(7, 0, 2) == 1
    assert binomial_mod_p(-4, 0, 5) == 1
    assert binomial_mod_p(1, 2, 5) == 0
    with pytest.raises(DomainError):
        binomial_mod_p(3, -1, 5)


@pytest.mark.parametrize("p", PRIMES)
def test_binomial_against_factorials(p):
    for n in range(61):
        for k in range(61):
            assert binomial_mod_p(n, k, p) == math.comb(n, k) % p


@pytest.mark.parametrize("p", PRIMES)
def test_binomial_negative_upper(p):
    # C(n, k) = n(n-1)...(n-k+1)/k! for negative n
    for n in range(-8, 0):
        for k in range(8):
            falling = 1
            for i in range(k):
                falling *= n - i
            assert binomial_mod_p(n, k, p) == falling // math.factorial(k) % p


@pytest.mark.parametrize("p", PRIMES)
def test_vandermonde(p):
    for m in range(0, 31, 3):
        for n in range(0, 31, 4):
            for k in range(0, 31, 5):
                lhs = binomial_mod_p(m + n, k, p)
                rhs = sum(
                    binomial_mod_p(m, j, p) * binomial_mod_p(n, k - j, p)
                    for j in range(k + 1)
                )
                assert lhs == rhs % p


def test_capped_binomial():
    for n in range(-2, 30):
        for k in range(-2, 32):
            want = math.comb(n, k) if 0 <= k <= n else 0
            got = capped_binomial(n, k, 1000)
            assert got == want if want <= 1000 else got > 1000
    # a huge argument stops after a few steps
    assert capped_binomial(10**4000 + 40, 40, 10**6) > 10**6
    assert capped_binomial(2 * 10**6, 10**6, 10**6) > 10**6


def test_generalized_binomial_examples():
    for p in PRIMES:
        assert generalized_binomial(1, p - 1, p) == 1
    assert generalized_binomial(2, 2, 3) == 0  # 1 + 2x + 3x^2 + 2x^3 + x^4
    assert generalized_binomial(3, 5, 2) == 0
    assert generalized_binomial(3, 5, 2) == binomial_mod_p(3, 5, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_generalized_binomial_is_power_coefficient(p):
    for n in range(7):
        row = naive_power_row(n, p)
        for k in range(len(row) + 3):
            want = row[k] % p if k < len(row) else 0
            assert generalized_binomial(n, k, p) == want


def test_generalized_binomial_matches_binomial_at_two():
    for n in range(20):
        for k in range(20):
            assert generalized_binomial(n, k, 2) == binomial_mod_p(n, k, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_generalized_binomial_row_sums_vanish(p):
    # substituting x = 1 gives p^n = 0 mod p
    for n in range(1, 21):
        total = sum(generalized_binomial(n, k, p) for k in range(n * (p - 1) + 1))
        assert total % p == 0


def test_generalized_binomial_at_a_large_row():
    # (1 + x + ... + x^4)^n = (1 - x)^(4n) mod 5: no row is expanded;
    # 4n = 2 5^9 + 5^7 + 5^6, so k = 5^6, odd, is the first nonzero past 0
    n, p = 10**6, 5
    start = time.perf_counter()
    got = [generalized_binomial(n, k, p) for k in (12345, 5**6)]
    assert time.perf_counter() - start < 1
    assert got == [(-1) ** k * math.comb(4 * n, k) % p for k in (12345, 5**6)] == [0, 4]


def test_int_polynomial_arithmetic():
    q = IntPolynomial.monomial(1, 1)
    f = q * q - IntPolynomial.one()
    assert f == IntPolynomial({2: 1, 0: -1})
    assert f.exact_div(q - IntPolynomial.one()) == q + IntPolynomial.one()
    assert (f * f).degree() == 4
    assert str(IntPolynomial({2: 1, 0: 1})) == "1+q^2"
    assert str(IntPolynomial({1: 1, 0: -1})) == "-1+q"
    assert str(IntPolynomial.zero()) == "0"
    with pytest.raises(DivisibilityError):
        (q * q).exact_div(q + IntPolynomial.one())


def test_exact_div_of_q_power_minus_one_at_large_degree():
    # one pass over the degrees: 1 + q + ... + q^(N-1), the dense quotient
    # of q^N - 1 by q - 1, is divisible by q + 1 exactly when N is even,
    # and q^N - 1 by q^M - 1 exactly when M divides N
    q, one = IntPolynomial.monomial(1, 1), IntPolynomial.one()
    start = time.perf_counter()
    for big in (20_000, 20_001):
        dense = IntPolynomial.q_power_minus_one(big).exact_div(q - one)
        assert dense == IntPolynomial({d: 1 for d in range(big)})
        if big % 2:
            with pytest.raises(DivisibilityError, match="not exact"):
                dense.exact_div(q + one)
        else:
            assert dense.exact_div(q + one) == IntPolynomial({d: 1 for d in range(0, big, 2)})
    top = IntPolynomial.q_power_minus_one(20_000)
    assert top.exact_div(IntPolynomial.q_power_minus_one(400)) == IntPolynomial(
        {d: 1 for d in range(0, 20_000, 400)}
    )
    with pytest.raises(DivisibilityError, match="not exact"):
        top.exact_div(IntPolynomial.q_power_minus_one(401))
    assert time.perf_counter() - start < 1


def test_cyclotomic_small_values():
    q = IntPolynomial.monomial(1, 1)
    one = IntPolynomial.one()
    assert cyclotomic(1) == q - one
    assert cyclotomic(2) == q + one
    assert cyclotomic(4) == q * q + one
    for p in PRIMES:
        assert cyclotomic(p) == IntPolynomial({k: 1 for k in range(p)})


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 60, 105])
def test_cyclotomic_product_identity(n):
    product = IntPolynomial.one()
    for d in divisors(n):
        product = product * cyclotomic(d)
    assert product == IntPolynomial.q_power_minus_one(n)


def test_factor_quotient_examples():
    assert factor_quotient(4, 2) == [4]
    assert factor_quotient(12, 4) == [3, 6, 12]
    assert factor_quotient(6, 6) == []
    with pytest.raises(DomainError):
        factor_quotient(10, 4)


def test_factor_quotient_products_are_exact():
    for num in range(1, 121):
        for den in divisors(num):
            ds = factor_quotient(num, den)
            product = IntPolynomial.one()
            for d in ds:
                product = product * cyclotomic(d)
            quotient = IntPolynomial.q_power_minus_one(num).exact_div(
                IntPolynomial.q_power_minus_one(den)
            )
            assert product == quotient


class _Pair(Record):
    __slots__ = ("left", "right")


def test_record_takes_one_value_per_field():
    pair = _Pair(1, (2, 3))
    assert (pair.left, pair.right) == (1, (2, 3))
    assert pair == _Pair(1, (2, 3)) and hash(pair) == hash(_Pair(1, (2, 3)))
    assert repr(pair) == "_Pair(left=1, right=(2, 3))"
    for values in ((), (1,), (1, 2, 3)):
        with pytest.raises(TypeError, match=f"_Pair takes 2 fields, got {len(values)}"):
            _Pair(*values)
    with pytest.raises(AttributeError):
        pair.left = 4

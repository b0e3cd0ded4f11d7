"""Sparse polynomial ring tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padem.errors import DivisibilityError, DomainError, MismatchError
from padem.poly import (
    Polynomial,
    _compositions,
    elementary_symmetric,
    exact_divide,
    monomials_up_to_degree,
    power_sum,
)

from oracles import is_sigma_invariant, is_symmetric, tuple_product

PRIMES = (2, 3, 5)


def random_poly(rng, p, n, max_exp=4, terms=4):
    t = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        t[exps] = rng.randrange(p)
    return Polynomial(p, n, t)


def test_construction_and_cleanup():
    f = Polynomial(5, 2, {(1, 0): 7, (0, 1): 5})
    assert f.terms == {(1, 0): 2}
    assert Polynomial.zero(5, 2).is_zero()
    with pytest.raises(MismatchError):
        Polynomial(5, 2, {(1, 0, 0): 1})
    with pytest.raises(DomainError):
        Polynomial(6, 2, {(1, 0): 1})


def test_degree_and_homogeneity():
    p = Polynomial(3, 2, {(2, 1): 1, (0, 3): 2})
    assert p.degree() == 6
    assert p.is_homogeneous()
    assert p.homogeneous_degree() == 6
    q = p + Polynomial.one(3, 2)
    assert not q.is_homogeneous()
    assert q.degree() == 6
    with pytest.raises(DomainError):
        q.homogeneous_degree()
    assert Polynomial.zero(3, 2).degree() is None


@pytest.mark.parametrize("p", PRIMES)
def test_ring_axioms_on_random_inputs(p):
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(25):
            f, g, h = (random_poly(rng, p, n) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f * Polynomial.one(p, n) == f
            assert (f - f).is_zero()


# Exponents on both sides of the packed product's bound of 128 and of a
# byte's 256.  A shared ceiling puts both operands below 128, or one on
# each side of it, or both far past it, where the product runs on tuples.
BOUNDARY = (0, 1, 2, 126, 127, 128, 129, 254, 255, 256, 257)


@st.composite
def polynomial_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from((2, 128, 257, 10**6)))
    exponent = st.one_of(st.sampled_from([e for e in BOUNDARY if e <= top]), st.integers(0, top))
    monomials = st.tuples(*[exponent] * n)
    f, g = (
        Polynomial(p, n, draw(st.dictionaries(monomials, st.integers(1, p - 1), max_size=4)))
        for _ in range(2)
    )
    return f, g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polynomial_pairs(), st.integers(0, 8))
def test_product_matches_the_tuple_product(pair, k):
    f, g = pair
    assert (f * g).terms == tuple_product(f, g)
    assert (g * f).terms == tuple_product(g, f)
    power = Polynomial.one(f.p, f.n)
    for _ in range(k):
        power = Polynomial._raw(f.p, f.n, tuple_product(power, f))
    assert (f**k).terms == power.terms


def test_scalar_one_returns_the_element():
    f = Polynomial(5, 2, {(1, 0): 2, (0, 3): 4})
    assert f * 1 is f and f * 6 is f and 11 * f is f
    assert (f * 2).terms == {(1, 0): 4, (0, 3): 3}
    assert (f * 5).is_zero()


def test_transpose_examples():
    p, n = 5, 3
    x1, x2, x3 = (Polynomial.variable(p, n, i) for i in (1, 2, 3))
    assert x1.transpose(1) == x2
    assert (x1 * x2).transpose(1) == x1 * x2
    assert (x1 * x1 + x3).transpose(1) == x2 * x2 + x3
    with pytest.raises(DomainError):
        x1.transpose(3)


def test_exact_divide_examples():
    p, n = 7, 2
    x1, x2 = Polynomial.variable(p, n, 1), Polynomial.variable(p, n, 2)
    assert exact_divide(x1**2 - x2**2, x1 - x2) == x1 + x2
    f = x1**3 + 2 * x1 * x2
    assert exact_divide(f, Polynomial.one(p, n)) == f
    quotient = exact_divide(x1**3 - x2**3, x1 - x2)
    assert quotient == x1**2 + x1 * x2 + x2**2
    assert quotient * (x1 - x2) == x1**3 - x2**3


@pytest.mark.parametrize("p", PRIMES)
def test_exact_divide_roundtrip_random(p):
    rng = random.Random(23)
    for n in (2, 3):
        for _ in range(40):
            f = random_poly(rng, p, n)
            g = random_poly(rng, p, n)
            if g.is_zero():
                continue
            assert exact_divide(f * g, g) == f


def test_exact_divide_detects_failure():
    p, n = 3, 2
    x1, x2 = Polynomial.variable(p, n, 1), Polynomial.variable(p, n, 2)
    with pytest.raises(DivisibilityError):
        exact_divide(x1 * x1 + x2, x1 + x2)
    with pytest.raises(DomainError):
        exact_divide(x1, Polynomial.zero(p, n))


def test_elementary_symmetric_and_power_sums():
    p = 7
    e1 = elementary_symmetric(1, 2, p)
    x1, x2 = Polynomial.variable(p, 2, 1), Polynomial.variable(p, 2, 2)
    assert e1 == x1 + x2
    assert elementary_symmetric(2, 2, p) == x1 * x2
    e2 = elementary_symmetric(2, 3, p)
    assert len(e2.terms) == 3
    assert elementary_symmetric(0, 3, p) == Polynomial.one(p, 3)
    assert power_sum(1, 3, p) == elementary_symmetric(1, 3, p)
    assert power_sum(2, 1, p) == Polynomial.variable(p, 1, 1) ** 2
    assert power_sum(3, 2, p) == x1**3 + x2**3
    with pytest.raises(DomainError):
        elementary_symmetric(4, 3, p)


def test_symmetry_predicates():
    p = 7
    assert is_symmetric(elementary_symmetric(2, 3, p))
    x1 = Polynomial.variable(p, 2, 1)
    assert not is_symmetric(x1)
    f = Polynomial(7, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 5})
    assert is_sigma_invariant(f, 1)
    assert not is_sigma_invariant(f, 2)


@pytest.mark.parametrize("p", [3, 5])
def test_newton_identity(p):
    for n in (2, 3, 4):
        e1 = elementary_symmetric(1, n, p)
        e2 = elementary_symmetric(2, n, p)
        p1 = power_sum(1, n, p)
        p2 = power_sum(2, n, p)
        assert e1 * p1 - e2 * 2 == p2


def test_rendering_is_graded_lex():
    f = Polynomial(5, 3, {(2, 1, 0): 2, (0, 0, 1): 1})
    assert str(f) == "2*x1^2*x2 + x3"
    assert str(Polynomial.zero(5, 3)) == "0"
    assert str(Polynomial.constant(5, 3, 4)) == "4"


def test_monomial_enumeration():
    monos = monomials_up_to_degree(2, 6)
    assert (0, 0) in monos and (3, 0) in monos and (2, 2) not in monos
    assert len(monos) == 10  # exponent sums 0..3 in two variables


def _recursive_compositions(total, n):
    """The recursive enumeration monomials_up_to_degree used to make: the
    first exponent ascending, then the rest in the same order."""
    if n == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _recursive_compositions(total - first, n - 1)
    ]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_monomial_enumeration_keeps_its_order(n):
    # the sweeps report the first failing monomial in this order
    for bound in (0, 1, 2, 7, 12):
        want = [m for total in range(bound // 2 + 1) for m in _recursive_compositions(total, n)]
        assert list(monomials_up_to_degree(n, bound)) == want


def test_monomial_enumeration_has_no_recursion_in_n():
    # one frame per variable would pass Python's recursion limit here
    n = 1500
    assert monomials_up_to_degree(n, 0) == ((0,) * n,)
    degree_one = _compositions(1, n)
    assert len(degree_one) == n
    assert degree_one[0] == (0,) * (n - 1) + (1,) and degree_one[-1] == (1,) + (0,) * (n - 1)

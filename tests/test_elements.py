"""Laws of the shared F_p-linear arithmetic (arith.LinearCombination) on
polynomials, nilHecke elements and Steenrod elements, and its ring
compatibility check."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padem.errors import DomainError, MismatchError
from padem.nilhecke import NilHeckeElement
from padem.pdg import khovanov_qi_derivation
from padem.poly import Polynomial
from padem.steenrod import SteenrodElement, act

PRIMES = (2, 3, 5)

CONFIGS = [
    pytest.param(kind, p, n, id=f"{kind}-p{p}-n{n}")
    for kind in ("polynomial", "nilhecke")
    for p in PRIMES
    for n in (2, 3)
] + [pytest.param("steenrod", p, None, id=f"steenrod-p{p}") for p in PRIMES]

LAWS = settings(max_examples=25, deadline=None, derandomize=True)


def elements(kind, p, n):
    """Elements with up to three terms and coefficients of either sign."""
    coeffs = st.integers(-2 * p, 2 * p)
    if kind == "polynomial":
        keys = st.tuples(*[st.integers(0, 3)] * n)
        make = functools.partial(Polynomial, p, n)
    elif kind == "nilhecke":
        keys = st.tuples(
            st.tuples(*[st.integers(0, 2)] * n),
            st.sampled_from(list(itertools.permutations(range(1, n + 1)))),
        )
        make = functools.partial(NilHeckeElement, p, n)
    else:
        keys = st.lists(st.integers(0, 4), max_size=3).map(tuple)
        make = functools.partial(SteenrodElement, p)
    return st.dictionaries(keys, coeffs, max_size=3).map(make)


def one(kind, p, n):
    if kind == "polynomial":
        return Polynomial.one(p, n)
    if kind == "nilhecke":
        return NilHeckeElement.one(p, n)
    return SteenrodElement.one(p)


def zero(kind, p, n):
    return one(kind, p, n) * 0


@pytest.mark.parametrize("kind, p, n", CONFIGS)
@LAWS
@given(data=st.data())
def test_addition_laws(kind, p, n, data):
    x, y, z = (data.draw(elements(kind, p, n)) for _ in range(3))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + zero(kind, p, n) == x
    assert x - x == zero(kind, p, n)
    assert (x - y) + y == x
    assert -(-x) == x
    assert x + (-y) == x - y


@pytest.mark.parametrize("kind, p, n", CONFIGS)
@LAWS
@given(data=st.data(), a=st.integers(-20, 20), b=st.integers(-20, 20))
def test_scalar_laws(kind, p, n, data, a, b):
    x = data.draw(elements(kind, p, n))
    assert a * x + b * x == (a + b) * x
    assert a * x == x * a
    assert (a * x).terms == {k: a * c % p for k, c in x.terms.items() if a * c % p}


@pytest.mark.parametrize("kind, p, n", CONFIGS)
@LAWS
@given(data=st.data())
def test_product_laws(kind, p, n, data):
    x, y, z = (data.draw(elements(kind, p, n)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert one(kind, p, n) * x == x == x * one(kind, p, n)


@pytest.mark.parametrize("kind, p, n", CONFIGS)
@LAWS
@given(data=st.data())
def test_power_is_repeated_product(kind, p, n, data):
    x = data.draw(elements(kind, p, n))
    for k in range(7):
        assert x**k == functools.reduce(operator.mul, [x] * k, one(kind, p, n)), k


def seeded_element(rng, kind, p, n):
    """Up to two terms with small keys, so that eighth powers stay small."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        if kind == "polynomial":
            key = tuple(rng.randint(0, 2) for _ in range(n))
        elif kind == "nilhecke":
            images = list(range(1, n + 1))
            rng.shuffle(images)
            key = (tuple(rng.randint(0, 1) for _ in range(n)), tuple(images))
        else:
            key = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        terms[key] = rng.randrange(1, p)
    if kind == "polynomial":
        return Polynomial(p, n, terms)
    if kind == "nilhecke":
        return NilHeckeElement(p, n, terms)
    return SteenrodElement(p, terms)


@pytest.mark.parametrize("kind, p, n", CONFIGS)
def test_powers_are_memoized_without_changing_values(kind, p, n):
    rng = random.Random(900 + 10 * p + (n or 0))
    for _ in range(4):
        f = seeded_element(rng, kind, p, n)
        product = one(kind, p, n)
        for k in range(9):
            assert f**k == product, k
            product = product * f
        for a in range(9):
            for b in range(9 - a):
                assert f**a * f**b == f ** (a + b), (a, b)
        for k in range(9):
            first = f**k
            assert f**k is first
        for _ in range(2):
            with pytest.raises(DomainError):
                f ** -1


@pytest.mark.parametrize("kind, p, n", CONFIGS)
@LAWS
@given(data=st.data())
def test_equal_elements_hash_equal(kind, p, n, data):
    x, y = (data.draw(elements(kind, p, n)) for _ in range(2))
    rebuilt = x._new(dict(reversed(list(x.terms.items()))))
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert hash(x + y) == hash(y + x)
    assert hash(x - x) == hash(zero(kind, p, n))


def _ring_pairs():
    """(left, right) operands over different rings, for each class."""
    yield Polynomial.one(3, 2), Polynomial.one(5, 2)
    yield Polynomial.one(3, 2), Polynomial.one(3, 3)
    yield NilHeckeElement.d_gen(3, 2, 1), NilHeckeElement.d_gen(5, 2, 1)
    yield NilHeckeElement.d_gen(3, 2, 1), NilHeckeElement.d_gen(3, 3, 1)
    yield SteenrodElement.p_power(3, 1), SteenrodElement.p_power(5, 1)


@pytest.mark.parametrize("left, right", list(_ring_pairs()))
@pytest.mark.parametrize("op", (operator.add, operator.sub, operator.mul))
def test_arithmetic_across_rings_raises(op, left, right):
    with pytest.raises(MismatchError):
        op(left, right)
    with pytest.raises(MismatchError):
        op(right, left)


def test_actions_across_rings_raise():
    dgen = NilHeckeElement.d_gen(3, 2, 1)
    with pytest.raises(MismatchError):
        dgen.apply(Polynomial.variable(5, 2, 1))
    with pytest.raises(MismatchError):
        dgen.apply(Polynomial.variable(3, 3, 1))
    power = SteenrodElement.p_power(3, 1)
    with pytest.raises(MismatchError):
        act(power, Polynomial.variable(5, 2, 1))
    # The Steenrod algebra has no variable count: it acts on every F_3[x_1..x_n].
    for n in (1, 2, 3):
        assert act(power, Polynomial.variable(3, n, 1)) == Polynomial.variable(3, n, 1) ** 3
    d = khovanov_qi_derivation(3, 2)
    for f in (Polynomial.variable(5, 2, 1), Polynomial.variable(3, 3, 1)):
        with pytest.raises(MismatchError):
            d.apply_poly(f)
    for e in (NilHeckeElement.d_gen(5, 2, 1), NilHeckeElement.d_gen(3, 3, 1)):
        with pytest.raises(MismatchError):
            d.apply_nh(e)

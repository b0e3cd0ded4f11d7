"""Derivation, graded-operator, and slash-homology tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padem import nilhecke
from padem import pdg as pdg_mod
from padem import verify
from padem.arith import _echelon, capped_binomial
from padem.errors import DomainError, MismatchError, StructureError
from padem.nilhecke import NilHeckeElement, _pack, all_permutations
from padem.pdg import (
    Derivation,
    GradedOperator,
    GradedSpace,
    derivation_operator,
    khovanov_qi_derivation,
    margolis_homology,
    nh_derivation_operator,
    nilhecke_space,
    polynomial_space,
    twisted_derivation,
    verify_pdg,
)
from padem.poly import Polynomial, monomials_up_to_degree

from oracles import (
    conjugated_twist_image,
    dense_homology,
    dense_power_matrix,
    dense_power_ranks,
    non_nilpotent_by_tuples,
    power_one_derivation,
    rank_mod_p,
    regular_nilpotent_module,
    row_reduction_rank,
    sympy_rank,
    total_dim,
)

PRIMES = (2, 3, 5)


def xvar(p, n, i):
    return Polynomial.variable(p, n, i)


# -- generator images -------------------------------------------------------


def test_khovanov_qi_polynomial_images():
    d = khovanov_qi_derivation(3, 2)
    x1 = xvar(3, 2, 1)
    assert d.apply_poly(x1) == x1 * x1
    # iterating: d^2 x = 2x^3, d^3 x = 6x^4 = 0 mod 3
    dd = d.apply_poly(d.apply_poly(x1))
    assert dd == x1**3 * 2
    assert d.apply_poly(dd).is_zero()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_khovanov_qi_images_in_closed_form(p, n):
    # x_i -> x_i^2 and D_i -> -(x_i + x_{i+1}) D_i, written with the
    # generators; the builder is the twist a = 0
    d = khovanov_qi_derivation(p, n)
    assert d.x_images == tuple(xvar(p, n, i) ** 2 for i in range(1, n + 1))
    x = [NilHeckeElement.x_gen(p, n, i) for i in range(1, n + 1)]
    d_images = [(x[i - 1] + x[i]) * NilHeckeElement.d_gen(p, n, i) * -1 for i in range(1, n)]
    assert d.d_images == tuple(d_images)
    assert d.shift == 2


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_symmetric_function_rule_two_ways(p, n):
    assert verify.check_symmetric_derivative_rule(p, n).ok


def test_twisted_images_and_specialization():
    p, n = 3, 2
    for a in range(4):
        d = twisted_derivation(p, n, a)
        assert d.apply_poly(xvar(p, n, 1)) == xvar(p, n, 1) ** 2
    base = khovanov_qi_derivation(p, n)
    zero_twist = twisted_derivation(p, n, 0)
    assert zero_twist.d_images[0] == base.d_images[0]
    # a = 0 has no scalar part and opposite-sign dot coefficients
    x1d1 = NilHeckeElement.x_gen(p, n, 1) * NilHeckeElement.d_gen(p, n, 1)
    x2d1 = NilHeckeElement.x_gen(p, n, 2) * NilHeckeElement.d_gen(p, n, 1)
    assert zero_twist.d_images[0] == (x1d1 + x2d1) * (-1)


def test_leibniz_extension_on_operators():
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    u = NilHeckeElement.x_gen(p, n, 1)
    v = NilHeckeElement.d_gen(p, n, 1)
    assert d.apply_nh(u * v) == d.apply_nh(u) * v + u * d.apply_nh(v)


def shipped_derivations(p, n):
    yield "khovanov-qi", khovanov_qi_derivation(p, n)
    for a in (1, 2):
        yield f"twist a={a}", twisted_derivation(p, n, a)
    yield "power one", power_one_derivation(p, n)


def leibniz_poly(d, f):
    """d(f) by Polynomial products: d(x^m) = sum_i m_i x^(m - e_i) d(x_i)."""
    out = Polynomial.zero(d.p, d.n)
    for m, c in f.terms.items():
        for i, e in enumerate(m):
            if e:
                lowered = m[:i] + (e - 1,) + m[i + 1 :]
                out = out + Polynomial.monomial(d.p, d.n, lowered, c * e) * d.x_images[i]
    return out


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_derivation_kernel_matches_word_leibniz(p, n):
    # apply_nh against d(x^a) D_w + x^a d(D_w) built with element products,
    # d(D_w) by the word Leibniz rule, on every basis label up to degree 12
    rng = random.Random(29)
    monos = monomials_up_to_degree(n, 16)
    for name, d in shipped_derivations(p, n):
        for exps in monos:
            f = Polynomial(p, n, {exps: rng.randrange(1, p), rng.choice(monos): 1})
            assert d.apply_poly(f) == leibniz_poly(d, f), (name, exps)
        words = {}
        for exps, images in nilhecke_space(p, n, 12).index:
            if images not in words:
                dword = nilhecke._reduced_word(images)
                words[images] = (
                    NilHeckeElement.from_word(p, n, dword),
                    d.apply_words(((1, dword),)),
                )
            dw, d_dw = words[images]
            c = rng.randrange(1, p)
            xa = Polynomial.monomial(p, n, exps, c)
            want = (
                NilHeckeElement.from_polynomial(leibniz_poly(d, xa)) * dw
                + NilHeckeElement.from_polynomial(xa) * d_dw
            )
            got = d.apply_nh(NilHeckeElement(p, n, {(exps, images): c}))
            assert got == want, (name, exps, images)


def test_derivation_rejects_bad_sizes():
    x = Polynomial.variable(3, 2, 1)
    with pytest.raises(DomainError, match="n=0"):
        Derivation(3, 0, [], [])
    with pytest.raises(DomainError):
        Derivation(4, 1, [xvar(5, 1, 1)], [])
    with pytest.raises(MismatchError):
        Derivation(3, 1, [x], [])
    with pytest.raises(MismatchError):
        # an x image over F_3 in a derivation over F_5
        Derivation(5, 2, [xvar(5, 2, 1), x], [NilHeckeElement.d_gen(5, 2, 1)])
    with pytest.raises(MismatchError):
        # a derivation in 2 variables on monomials in 3
        derivation_operator(polynomial_space(3, 3, 4), khovanov_qi_derivation(3, 2), 3)


def test_apply_nh_repeats_with_a_warm_cache():
    p, n = 3, 3
    labels = list(nilhecke_space(p, n, 8).index)
    for name, d in shipped_derivations(p, n):
        elements = [NilHeckeElement(p, n, {label: 1}) for label in labels]
        first = [d.apply_nh(e) for e in elements]
        assert len(d._d_permutation) == 6
        assert [d.apply_nh(e) for e in elements] == first, name
        assert len(d._d_permutation) == 6


@st.composite
def _derivation_and_label(draw):
    """A derivation with random x images (several terms, constants, or
    no x_i at all) and the D images of khovanov_qi_derivation, and a
    basis label (a, w)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    x_images = []
    for _ in range(n):
        terms = draw(st.dictionaries(exps, st.integers(-2 * p, 2 * p), max_size=4))
        x_images.append(Polynomial(p, n, terms))
    d = Derivation(p, n, x_images, list(khovanov_qi_derivation(p, n).d_images))
    w = draw(st.sampled_from(all_permutations(n)))
    return d, (draw(exps), w.images)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_derivation_and_label())
def test_term_kernels_match_polynomial_leibniz(case):
    d, (a, images) = case
    p, n = d.p, d.n
    want = leibniz_poly(d, Polynomial.monomial(p, n, a))
    assert d._poly_terms({a: 1}) == want.terms
    assert d._poly_terms({a: 2}) == (want * 2).terms
    # d(x^a D_w) = d(x^a) D_w + x^a d(D_w)
    d_w = NilHeckeElement(p, n, {((0,) * n, images): 1})
    x_a = NilHeckeElement.from_polynomial(Polynomial.monomial(p, n, a))
    got = d.apply_nh(NilHeckeElement(p, n, {(a, images): 1}))
    assert got == NilHeckeElement.from_polynomial(want) * d_w + x_a * d.apply_nh(d_w)


# -- axiom verification -------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_verify_pdg_passes_for_shipped_derivations(p, n):
    # the Khovanov-Qi derivation and the twists a = 1, 2
    assert verify.check_pdg(p, n, 12, 0).ok


@pytest.mark.parametrize("p", (2, 3))
def test_verify_pdg_passes_for_power_one_derivation(p):
    d = power_one_derivation(p, 2)
    report = verify_pdg(d, degree_bound=10)
    assert report["all_ok"], report["failures"]


def test_verify_pdg_detects_broken_nilpotence():
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    broken = Derivation(p, n, [xvar(p, n, 1), d.x_images[1]], list(d.d_images))
    report = verify_pdg(broken, degree_bound=8)
    assert not report["all_ok"]


def nilpotency_failures(report):
    return [f for f in report["failures"] if f.startswith("d^")]


def test_verify_pdg_nilpotency_sides():
    p, n = 3, 2
    x1 = xvar(p, n, 1)
    d1 = NilHeckeElement.d_gen(p, n, 1)
    assert verify_pdg(khovanov_qi_derivation(p, n), degree_bound=8)["p_nilpotent_ok"]
    # x -> 0, D1 -> D1 fails the relations, so the operator side, where
    # d^p(D1) = D1, never runs
    loop = Derivation(p, n, [Polynomial.zero(p, n)] * 2, [d1])
    assert loop.apply_nh(loop.apply_nh(loop.apply_nh(d1))) == d1
    report = verify_pdg(loop, degree_bound=8)
    assert not report["relations_ok"]
    assert report["p_nilpotent_ok"] and nilpotency_failures(report) == []
    # the inner derivation [z, -] by a non-homogeneous z is well defined;
    # ad(z)^p = ad(z^p) is not zero, and the sweep meets it on D1 itself
    z = NilHeckeElement.from_polynomial(x1 + x1**2)
    inner = Derivation(p, n, [Polynomial.zero(p, n)] * 2, [z * d1 - d1 * z])
    report = verify_pdg(inner, degree_bound=12)
    assert report["relations_ok"]
    assert nilpotency_failures(report) == [f"d^{p} != 0 on x^(0, 0) D_(2, 1)"]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_verify_pdg_sweeps_each_basis_element_once(monkeypatch, n):
    # one sweep: the monomials as (m, identity), then the labels of the
    # other permutations; the loop derivation fails the relations, so its
    # sweep holds the monomials alone
    sweeps = []
    real = pdg_mod._first_non_nilpotent

    def recorded(d, labels):
        sweeps.append(labels)
        return real(d, labels)

    monkeypatch.setattr(pdg_mod, "_first_non_nilpotent", recorded)
    identity = tuple(range(1, n + 1))
    monomials = [(m, identity) for m in monomials_up_to_degree(n, 10)]
    assert verify_pdg(khovanov_qi_derivation(3, n), degree_bound=10)["all_ok"]
    (labels,) = sweeps
    assert labels[: len(monomials)] == monomials
    assert sorted(labels) == sorted(label for _, label in pdg_mod._nh_labels(n, 10))
    if n > 1:
        d1 = NilHeckeElement.d_gen(3, n, 1)
        loop = Derivation(3, n, [Polynomial.zero(3, n)] * n, [d1] * (n - 1))
        assert not verify_pdg(loop, degree_bound=10)["relations_ok"]
        assert sweeps[1] == monomials


@pytest.mark.parametrize("p", PRIMES)
def test_mixed_degree_derivation_iterates_directly(p):
    # d = d/dx1 + x2^2 d/dx2 sends x1 to degree 0 and x2 to degree 4, so
    # it has no degree shift; the two parts commute, and each has p-th
    # power zero in characteristic p, so d^p = 0
    n = 2
    x1, x2 = xvar(p, n, 1), xvar(p, n, 2)
    zero_d = [NilHeckeElement.zero(p, n)]
    d = Derivation(p, n, [Polynomial.one(p, n), x2**2], zero_d)
    assert d.shift is None
    with pytest.raises(StructureError):
        derivation_operator(polynomial_space(p, n, 8), d, n)
    with pytest.raises(StructureError):
        nh_derivation_operator(nilhecke_space(p, n, 8), d)
    assert verify_pdg(d, degree_bound=14)["p_nilpotent_ok"]
    # x1 -> x1 instead: d^p(x1) = x1
    broken = Derivation(p, n, [x1, x2**2], zero_d)
    failure = f"d^{p} != 0 on the monomial with exponents (1, 0)"
    for bound in (4, 14):
        assert nilpotency_failures(verify_pdg(broken, degree_bound=bound)) == [failure]
    # one x image with terms of two degrees; with n = 1 there are no
    # relations, and the identity is the only permutation, so the
    # operator side adds no label to the monomials
    x = xvar(p, 1, 1)
    inhomogeneous = Derivation(p, 1, [x + x**2], [])
    assert inhomogeneous.shift is None
    assert nilpotency_failures(verify_pdg(inhomogeneous, degree_bound=14)) == [
        f"d^{p} != 0 on the monomial with exponents (1,)",
    ]


# d^p is again a derivation in characteristic p, so a derivation with
# d^p != 0 already fails on a generator; only a planted fault can sit
# high up.  Each planted fault adds the identity on one basis element of
# degree 12, d(b) += b, so d^p(b) keeps b; no element before b in the
# sweep reaches b.  It is planted in the row the packed sweep writes for
# the key of b: the offset tables are read for every key with a nonzero
# field (the table of x1 for every x1^a, the table of D1 for every
# x^a D1), so a fault on one element lives in its row.  A monomial m is
# swept as the label (m, identity).


def _plant_identity(monkeypatch, planted):
    """d(b) += b for the label b = planted in the rows of
    pdg._nilpotence_rows."""
    real = pdg_mod._nilpotence_rows

    def planted_rows(d, width, perms):
        row = real(d, width, perms)
        exps, images = planted
        key = _pack(exps, width, perms.index(images))

        def planted_row(k):
            if k != key:
                return row(k)
            out = dict(row(k))
            out[k] = (out.get(k, 0) + 1) % d.p
            return tuple((j, c) for j, c in out.items() if c)

        return planted_row

    monkeypatch.setattr(pdg_mod, "_nilpotence_rows", planted_rows)


@pytest.mark.parametrize("p", PRIMES)
def test_planted_polynomial_fault_above_degree_ten(p, planted_fault):
    # x2 = 1 is out of reach from below: x2^0 -> 0 * x2^1 under x2^2 d/dx2
    n, planted = 2, (5, 1)
    d = Derivation(p, n, [Polynomial.one(p, n), xvar(p, n, 2) ** 2], [NilHeckeElement.zero(p, n)])
    _plant_identity(planted_fault, (planted, (1, 2)))
    failure = f"d^{p} != 0 on the monomial with exponents {planted}"
    assert nilpotency_failures(verify_pdg(d, degree_bound=14)) == [failure]
    assert nilpotency_failures(verify_pdg(d, degree_bound=10)) == []


@pytest.mark.parametrize("p", PRIMES)
def test_planted_operator_fault_above_degree_six(p, planted_fault):
    # x_i -> 1, D_i -> 0 is the sum of the d/dx_i; it is well defined, has
    # degree shift -2, and d^p = 0.  It lowers degree, so nothing before
    # the planted x1^7 D1 (degree 12) reaches it.
    n, planted = 2, ((7, 0), (2, 1))
    d = Derivation(p, n, [Polynomial.one(p, n)] * n, [NilHeckeElement.zero(p, n)])
    assert d.shift == -2
    _plant_identity(planted_fault, planted)
    report = verify_pdg(d, degree_bound=14)
    assert report["relations_ok"]
    assert nilpotency_failures(report) == [f"d^{p} != 0 on x^(7, 0) D_(2, 1)"]
    assert nilpotency_failures(verify_pdg(d, degree_bound=10)) == []


def _identity_labels(monomials):
    """The monomials as the labels (m, identity) the sweep walks."""
    return [(m, tuple(range(1, len(m) + 1))) for m in monomials]


def _first_rank_failure(space, op, degree_bound):
    """Reference: the first degree up to the bound out of which the rank
    chain of the graded operator gives d^p nonzero rank."""
    p = space.p
    for deg in space.degrees:
        if deg <= degree_bound:
            ranks = op.ranks(deg)
            assert len(ranks) == p + 1, deg  # the chain stays in the space
            if ranks[p]:
                return deg
    return None


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_direct_sweep_matches_rank_chains(p, n):
    # the direct sweep's verdict and first failing degree against the
    # rank of d^p on the graded operators, on the polynomial ring and on
    # the operator algebra; x1 -> x1 x2 is a homogeneous broken variant
    bound = 12
    kq = khovanov_qi_derivation(p, n)
    broken = Derivation(p, n, [xvar(p, n, 1) * xvar(p, n, 2), *kq.x_images[1:]], list(kq.d_images))
    for name, d in [*shipped_derivations(p, n), ("broken", broken)]:
        top = bound + d.shift * p
        monos = monomials_up_to_degree(n, bound)
        m = pdg_mod._first_non_nilpotent(d, _identity_labels(monos))
        space = polynomial_space(p, n, top)
        want = _first_rank_failure(space, derivation_operator(space, d, n), bound)
        assert (None if m is None else 2 * sum(m[0])) == want, (name, m)
        labels = [label for _, label in pdg_mod._nh_labels(n, bound)]
        label = pdg_mod._first_non_nilpotent(d, labels)
        space = nilhecke_space(p, n, top)
        want = _first_rank_failure(space, nh_derivation_operator(space, d), bound)
        got = None if label is None else space.index[label][0]
        assert got == want, (name, label)
        if name == "broken":
            assert want is not None


@st.composite
def _homogeneous_derivations(draw, p, n):
    """(derivation, degree bound): x_i -> a random quadratic
    polynomial, or x_i -> x_i^2 for every i, and D_i -> its image under
    one of the twists a = 0, 1, 2 or 0, each i apart, so the relations
    need not hold; or the shift -2 derivation x_i -> 1, D_i -> 0."""
    zero = NilHeckeElement.zero(p, n)
    if draw(st.integers(0, 3)) == 0:  # one case in four lowers degree
        d = Derivation(p, n, [Polynomial.one(p, n)] * n, [zero] * (n - 1))
    else:
        quadratic = [m for m in monomials_up_to_degree(n, 4) if sum(m) == 2]
        terms = st.dictionaries(st.sampled_from(quadratic), st.integers(1, p - 1), max_size=3)
        if draw(st.booleans()):
            x_images = [Polynomial(p, n, draw(terms)) for _ in range(n)]
        else:
            x_images = [xvar(p, n, i) ** 2 for i in range(1, n + 1)]
        d_images = []
        for i in range(n - 1):
            a = draw(st.sampled_from((0, 1, 2, None)))
            d_images.append(zero if a is None else twisted_derivation(p, n, a).d_images[i])
        d = Derivation(p, n, x_images, d_images)
    return d, draw(st.sampled_from((8, 10) if n == 3 else (10, 14)))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_nilpotence_sweep_matches_the_tuple_walk(p, n, data):
    # the first element on which d^p is nonzero, or none, as the walk on
    # tuple keys through Derivation._poly_terms and _nh_terms finds it
    d, bound = data.draw(_homogeneous_derivations(p, n))
    monomials = monomials_up_to_degree(d.n, bound)
    labels = [label for _, label in pdg_mod._nh_labels(d.n, bound)]
    m = non_nilpotent_by_tuples(d, monomials)
    want = None if m is None else _identity_labels([m])[0]
    assert pdg_mod._first_non_nilpotent(d, _identity_labels(monomials)) == want
    want = non_nilpotent_by_tuples(d, labels, labels=True)
    assert pdg_mod._first_non_nilpotent(d, labels) == want


@pytest.mark.parametrize("p", (2, 3))
def test_the_nilpotence_walk_takes_exactly_p_steps(p):
    # d x_i = x_(i+1) on p + 1 variables, x_(p+1) to zero: d^(p-1) x_2 and
    # d^p x_1 are x_(p+1), and d^p x_2 = d^(p+1) x_1 = 0, so of the labels
    # x_2, x_1 only x_1 fails; a walk one step short would name x_2, and
    # one step long neither
    n = p + 1
    shifted = [xvar(p, n, i + 1) for i in range(1, n)] + [Polynomial.zero(p, n)]
    d = Derivation(p, n, shifted, [NilHeckeElement.zero(p, n)] * (n - 1))
    labels = _identity_labels([(0, 1) + (0,) * (n - 2), (1,) + (0,) * (n - 1)])
    assert pdg_mod._first_non_nilpotent(d, labels) == labels[1]
    assert non_nilpotent_by_tuples(d, [m for m, _ in labels]) == labels[1][0]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_packed_nilpotence_sweep_on_a_lowering_derivation(p):
    # d/dx on one variable lowers every exponent, so a field need hold no
    # more than the largest exponent of the basis; d^p = 0
    d = Derivation(p, 1, [Polynomial.one(p, 1)], [])
    for bound in (0, 4, 14, 40):
        monomials = monomials_up_to_degree(1, bound)
        labels = [label for _, label in pdg_mod._nh_labels(1, bound)]
        assert pdg_mod._first_non_nilpotent(d, _identity_labels(monomials)) is None
        assert pdg_mod._first_non_nilpotent(d, labels) is None
        assert non_nilpotent_by_tuples(d, monomials) is None
        assert non_nilpotent_by_tuples(d, labels, labels=True) is None


def test_basis_counts_match_the_enumerations():
    for n in range(1, 5):
        for bound in (0, 1, 8, 15, 20):
            half = bound // 2
            monomials = capped_binomial(half + n, n, 10**9)
            assert monomials == len(monomials_up_to_degree(n, bound))
            labels = pdg_mod._nh_label_count(n, half, 10**9)
            assert labels == len(pdg_mod._nh_labels(n, bound))
    # verify_pdg's sweep at the CLI's default bound, n = 4, stays inside;
    # its labels hold the monomials, the identity labels
    assert pdg_mod._nh_label_count(4, 12, 10**9) == 97011
    assert 97011 <= pdg_mod.BASIS_BUDGET
    assert 97011 * 3 <= pdg_mod.WORK_BUDGET < 97011 * 5


def _old_nh_labels(n, top_degree):
    """The per-length enumeration _nh_labels replaced: one monomial list
    per permutation length, filtered by degree, then sorted stably."""
    out = []
    for w in all_permutations(n):
        length = w.length()
        for exps in monomials_up_to_degree(n, top_degree + 2 * length):
            deg = 2 * sum(exps) - 2 * length
            if deg <= top_degree:
                out.append((deg, (exps, w.images)))
    return sorted(out, key=lambda item: item[0])


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_nh_labels_keep_their_order(n):
    # verify_pdg's "first failing label" depends on this order
    for bound in (0, 1, 2, 5, 8, 13):
        assert pdg_mod._nh_labels(n, bound) == _old_nh_labels(n, bound)


def test_builders_refuse_a_basis_over_the_budget(monkeypatch):
    # C(3 + 3, 3) = 20 monomials of degree <= 6 in 3 variables
    monkeypatch.setattr(pdg_mod, "BASIS_BUDGET", 20)
    assert total_dim(polynomial_space(3, 3, 6)) == 20
    with pytest.raises(DomainError, match="over the work budget"):
        polynomial_space(3, 3, 8)
    # at n = 2 and degree <= 2: 3 monomials, and 3 + 6 labels x^a, x^a D_1
    assert total_dim(nilhecke_space(3, 2, 2)) == 9
    monkeypatch.setattr(pdg_mod, "BASIS_BUDGET", 8)
    with pytest.raises(DomainError, match="over the work budget"):
        nilhecke_space(3, 2, 2)
    # verify_pdg counts its 16 labels at n = 2 and degree <= 4 once: the 6
    # monomials are among them, the identity labels
    monkeypatch.setattr(pdg_mod, "BASIS_BUDGET", 16)
    assert verify_pdg(khovanov_qi_derivation(3, 2), degree_bound=4)["all_ok"]
    monkeypatch.setattr(pdg_mod, "BASIS_BUDGET", 15)
    with pytest.raises(DomainError, match="over the work budget"):
        verify_pdg(khovanov_qi_derivation(3, 2), degree_bound=4)


def test_budget_counts_p_steps_per_element(monkeypatch):
    # 20 monomials of degree <= 6 in 3 variables take 60 steps at p = 3
    # and 100 at p = 5; the element count alone is far inside its budget
    monkeypatch.setattr(pdg_mod, "WORK_BUDGET", 60)
    assert total_dim(polynomial_space(3, 3, 6)) == 20
    with pytest.raises(DomainError, match="its 20 elements take up to p=5 steps each"):
        polynomial_space(5, 3, 6)
    # 9 labels at n = 2 and degree <= 2
    monkeypatch.setattr(pdg_mod, "WORK_BUDGET", 26)
    with pytest.raises(DomainError, match="its 9 elements take up to p=3 steps each"):
        nilhecke_space(3, 2, 2)
    # verify_pdg: 16 labels at degree <= 4, the 6 monomials among them,
    # 16 * 3 = 48
    monkeypatch.setattr(pdg_mod, "WORK_BUDGET", 48)
    assert verify_pdg(khovanov_qi_derivation(3, 2), degree_bound=4)["all_ok"]
    monkeypatch.setattr(pdg_mod, "WORK_BUDGET", 47)
    with pytest.raises(DomainError, match="its 16 elements take up to p=3 steps each, more than 47"):
        verify_pdg(khovanov_qi_derivation(3, 2), degree_bound=4)


def test_derivation_builders_refuse_before_building(monkeypatch):
    # n * n exponents against the budget, before any image is made
    monkeypatch.setattr(pdg_mod, "WORK_BUDGET", 16)
    assert khovanov_qi_derivation(3, 4).n == 4
    assert twisted_derivation(3, 4, 1).n == 4
    for build in (khovanov_qi_derivation, lambda p, n: twisted_derivation(p, n, 1)):
        with pytest.raises(DomainError, match="the derivation with n=5 is over the work budget"):
            build(3, 5)
        with pytest.raises(DomainError, match="need at least one variable"):
            build(3, 0)


@pytest.mark.parametrize("n, bound", ((0, 8), (2, -2)))
def test_spaces_reject_bad_sizes(n, bound):
    with pytest.raises(DomainError):
        polynomial_space(3, n, bound)
    with pytest.raises(DomainError):
        nilhecke_space(3, n, bound)


def test_verify_pdg_rejects_negative_bound():
    with pytest.raises(DomainError):
        verify_pdg(khovanov_qi_derivation(3, 2), degree_bound=-1)


def test_verify_pdg_detects_wrong_sign_on_operators():
    # flipping the sign of the D_i image breaks well-definedness at odd p
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    flipped = Derivation(p, n, list(d.x_images), [d.d_images[0] * (-1)])
    report = verify_pdg(flipped, degree_bound=8)
    assert not report["relations_ok"]


# -- twist as conjugation ------------------------------------------------------


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("a", (0, 1, 2))
def test_twist_matches_conjugated_structure(p, n, a):
    d = twisted_derivation(p, n, a)
    for i in range(1, n):
        assert conjugated_twist_image(p, n, a, i, degree_bound=10) == d.d_images[i - 1]


# -- graded operators and homology ---------------------------------------------


def test_quotient_ring_example():
    space = polynomial_space(2, 1, 6, powers=(4,))
    assert space.complete
    op = derivation_operator(space, khovanov_qi_derivation(2, 1), 1)
    dims, excluded = margolis_homology(space, op, 1)
    assert dims == {0: 1, 6: 1}
    assert excluded == []


def test_zero_differential_gives_whole_space():
    p = 3
    space = polynomial_space(p, 2, 8)
    zero = Derivation(
        p, 2, [Polynomial.zero(p, 2)] * 2, [NilHeckeElement.zero(p, 2)]
    )
    op = derivation_operator(space, zero, 2)
    dims, excluded = margolis_homology(space, op, 2)
    assert excluded == []
    assert dims == {d: space.dim(d) for d in space.degrees}


@pytest.mark.parametrize("p", PRIMES)
def test_regular_module_is_acyclic(p):
    space, op = regular_nilpotent_module(p)
    for s in range(1, p):
        dims, excluded = margolis_homology(space, op, s)
        assert dims == {}
        assert excluded == []


def test_truncation_excludes_boundary():
    p = 2
    space = polynomial_space(p, 1, 6)
    assert not space.complete
    op = derivation_operator(space, khovanov_qi_derivation(p, 1), 1)
    dims, excluded = margolis_homology(space, op, 1)
    assert 6 in excluded  # x^3 maps outside the window
    assert dims.get(0) == 1


def test_nilpotence_precondition_enforced():
    p = 3
    space = polynomial_space(p, 1, 12, powers=(5,))
    broken = Derivation(p, 1, [xvar(p, 1, 1)], [])
    op = derivation_operator(space, broken, 1)
    with pytest.raises(StructureError):
        margolis_homology(space, op, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_homology_matches_dense_oracle(p):
    configs = [
        polynomial_space(p, 1, 20, powers=(8,)),
        polynomial_space(p, 2, 12, powers=(3, 4)),
        polynomial_space(p, 2, 4 * p, powers=(p + 1, p + 1)),
    ]
    for space in configs:
        assert total_dim(space) <= 200
        op = derivation_operator(space, khovanov_qi_derivation(p, space.basis[0][0].__len__()), len(space.basis[0][0]))
        for s in range(1, p):
            dims, excluded = margolis_homology(space, op, s)
            assert excluded == []
            assert dims == dense_homology(space, op, s), (p, s)


def test_homology_on_operator_algebra_truncation():
    # slash homology also runs on the x^a * D_w basis of the operator
    # algebra; cross-check the same dense oracle there.
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    space = nilhecke_space(p, n, 10)
    op = nh_derivation_operator(space, d)
    for s in range(1, p):
        dims, excluded = margolis_homology(space, op, s)
        oracle = dense_homology(space, op, s)
        assert {k: v for k, v in dims.items() if k not in excluded} == {
            k: v for k, v in oracle.items() if k not in excluded
        }


def test_nh_operator_nilpotence_matrices():
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    space = nilhecke_space(p, n, 8 + 2 * p)
    op = nh_derivation_operator(space, d)
    for deg in space.degrees:
        if deg > 8:
            continue
        ranks = op.ranks(deg)
        assert len(ranks) == p + 1 and ranks[p] == 0, (deg, ranks)


# -- comparison with the induced power action ----------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_global_sign_per_prime(p):
    # bar P^1 = d at p = 2 and -d at odd p, on the generators and on
    # random operator words
    check = verify.check_steenrod_sign(p, 2, 10, 0)
    assert check.ok, check.detail


def test_sign_is_uniform_across_generators():
    # at p = 3 every generator carries the sign -1
    check = verify.check_steenrod_sign(3, 3, 10, 0)
    assert check.ok, check.detail


# -- exact F_p linear algebra ----------------------------------------------------

ORACLE_PRIMES = (2, 3, 5, 97)


def _chain(p, dims, seed, full=False, complete=True):
    """A graded space with the given dimensions in degrees 0, 2, 4, ...
    and a random degree-2 operator out of all but the top degree;
    full=True makes every entry p-1."""
    rng = np.random.default_rng(seed)
    space = GradedSpace(p, {2 * i: list(range(k)) for i, k in enumerate(dims)}, complete)
    shapes = zip(dims[1:], dims[:-1])
    mats = [np.full(s, p - 1) if full else rng.integers(0, p, s) for s in shapes]
    columns = {
        2 * i: [{r: int(c) for r, c in enumerate(col) if c} for col in m.T]
        for i, m in enumerate(mats)
    }
    return GradedOperator(space, 2, columns), mats


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("full", (False, True))
def test_rank_chain_matches_exact_integer_product(p, full):
    # long inner dimensions, long outer ones, and an empty degree; the
    # chain out of each degree holds the ranks of d^0..d^p, which must be
    # those of the integer products (exact in int64: every sum stays below
    # 600 * 96^2)
    chains = ((30, 600, 30, 600, 20), (600, 25, 600, 25), (7, 1, 9, 0, 4))
    for seed, dims in enumerate(chains):
        op, mats = _chain(p, dims, seed, full)
        for start in range(len(dims)):
            ranks = op.ranks(2 * start)
            assert len(ranks) == p + 1 and ranks[0] == dims[start]
            exact = None
            for k, step in enumerate(mats[start : start + p], start=1):
                exact = step if exact is None else step @ exact % p
                assert ranks[k] == row_reduction_rank(exact, p), (p, dims, start, k)
            assert not any(ranks[len(mats) - start + 1 :])


@st.composite
def _graded_operator(draw):
    """A graded space with up to six degrees 0, 2, 4, ... of dimension
    0..5, complete or a truncation, and an operator of shift -2, 2 or 4
    with sparse random columns; a degree may store no columns (a zero
    map, or a boundary degree of a truncation) or only empty ones."""
    p = draw(st.sampled_from(PRIMES))
    dims = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    complete = draw(st.booleans())
    shift = draw(st.sampled_from((-2, 2, 4)))
    space = GradedSpace(p, {2 * i: list(range(k)) for i, k in enumerate(dims)}, complete)
    columns = {}
    for d in space.degrees:
        kind = draw(st.sampled_from(("random", "random", "none", "empty")))
        if kind == "none":
            continue
        rows = space.dim(d + shift) if kind == "random" else 0
        entry = st.dictionaries(st.integers(0, rows - 1), st.integers(1, p - 1), max_size=3)
        columns[d] = [draw(entry) if rows else {} for _ in range(space.dim(d))]
    return GradedOperator(space, shift, columns)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_graded_operator())
def test_rank_chains_match_dense_powers(op):
    # every degree of the space and the boundary degrees around it,
    # where margolis_homology asks for chains out of an empty source
    for d in range(-8, 2 * len(op.space.basis) + 10, 2):
        assert op.ranks(d) == dense_power_ranks(op, d), d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES), st.integers(0, 7), st.data())
def test_echelon_keeps_input_vectors_of_oracle_rank(p, cols, data):
    # unreduced integers: multiples of p, negatives and large values
    coeff = st.integers(-3 * p, 3 * p) | st.integers(-(10**30), 10**30)
    vec = st.dictionaries(st.integers(0, cols - 1), coeff, max_size=cols) if cols else st.just({})
    vectors = data.draw(st.lists(vec, max_size=8))
    kept = _echelon(vectors, p)
    mat = np.array([[v.get(j, 0) % p for j in range(cols)] for v in vectors], dtype=np.int64)
    assert len(kept) == row_reduction_rank(mat.reshape(len(vectors), cols), p)
    positions = [next(i for i, v in enumerate(vectors) if v is k) for k in kept]
    assert positions == sorted(positions)  # the inputs themselves, in input order


def test_powers_stop_at_a_boundary_degree():
    space = polynomial_space(2, 1, 6)
    op = derivation_operator(space, khovanov_qi_derivation(2, 1), 1)
    # x^3 -> x^4 leaves the window, so the chain out of degree 2 stops
    # after its steps out of degrees 2 and 4: x -> x^2 -> 2x^3 = 0
    assert op.ranks(2) == (1, 1, 0)


def test_chain_and_rank_exact_at_a_large_prime():
    big = 134217689  # prime, (p - 1)^2 > 2^53: no float64 product is exact
    dims = (6, 5, 7, 4)
    # the top degree is a boundary degree, so the chain stops there
    # instead of running p steps
    op, mats = _chain(big, dims, 0, complete=False)
    assert len(op.ranks(0)) == len(dims)
    exact = np.eye(dims[0], dtype=object)
    for k, step in enumerate(mats, start=1):
        exact = step.astype(object) @ exact % big
        assert op.ranks(0)[k] == sympy_rank(exact, big) > 0
    rng = random.Random(big)
    low_rank = [[rng.randrange(big) for _ in range(3)] for _ in range(9)]
    mat = np.array(low_rank, dtype=object) @ np.array(
        [[rng.randrange(big) for _ in range(8)] for _ in range(3)], dtype=object
    )
    for m in (mat, mat[:, :2], np.eye(5, dtype=object) * (big - 1)):
        assert rank_mod_p(m, big) == sympy_rank(m, big)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rank_matches_sympy(p):
    rng = np.random.default_rng(p)
    cases = [
        rng.integers(0, p, (40, 15)),
        rng.integers(0, p, (15, 40)),
        rng.integers(0, p, (30, 4)) @ rng.integers(0, p, (4, 30)),
        rng.integers(0, p, (25, 6)) @ rng.integers(0, p, (6, 50)),
        (rng.random((60, 60)) < 0.05) * rng.integers(1, p, (60, 60)),
        np.zeros((12, 9), dtype=np.int64),
        np.zeros((0, 7), dtype=np.int64),
        np.zeros((7, 0), dtype=np.int64),
    ]
    for mat in cases:
        want = sympy_rank(mat, p)
        assert rank_mod_p(mat, p) == want, (p, mat.shape)
        assert rank_mod_p(mat.astype(np.float64), p) == want
        assert rank_mod_p(mat - p * 3, p) == want  # negative representatives


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(ORACLE_PRIMES),
    st.integers(0, 8),
    st.integers(0, 8),
    st.data(),
)
def test_rank_matches_sympy_on_small_matrices(p, rows, cols, data):
    size = rows * cols
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    mat = np.array(entries, dtype=np.int64).reshape(rows, cols)
    assert rank_mod_p(mat, p) == sympy_rank(mat, p)


def _reference_homology(space, op, s):
    """The int64 matrix-power and Python row-loop computation, one power
    matrix per degree and per use."""
    p = space.p
    for d in space.degrees:
        full = dense_power_matrix(op, d, p)
        if full is not None and full.size and (full % p).any():
            raise StructureError("operator is not p-nilpotent on this space")
    dims, excluded = {}, []
    for d in space.degrees:
        ker_mat = dense_power_matrix(op, d, s)
        incoming = dense_power_matrix(op, d - op.shift * (p - s), p - s)
        if ker_mat is None or incoming is None:
            excluded.append(d)
            continue
        value = space.dim(d) - row_reduction_rank(ker_mat, p) - row_reduction_rank(incoming, p)
        if value:
            dims[d] = value
    return dims, excluded


@pytest.mark.parametrize("kind", ("poly", "nh"))
def test_homology_matches_int64_reference(kind):
    p = 3
    d = khovanov_qi_derivation(p, 3 if kind == "poly" else 2)
    if kind == "poly":
        space = polynomial_space(p, 3, 18)
        op = derivation_operator(space, d, 3)
    else:
        space = nilhecke_space(p, 2, 14)
        op = nh_derivation_operator(space, d)
    for s in range(1, p):
        assert margolis_homology(space, op, s) == _reference_homology(space, op, s)

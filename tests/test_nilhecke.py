"""nilHecke operator tests: relations, normal form, Schubert polynomials."""

import functools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padem import nilhecke, pdg, steenrod, verify
from padem.arith import capped_binomial
from padem.errors import DomainError
from padem.nilhecke import (
    SWEEP_CHUNK,
    NilHeckeElement,
    Permutation,
    all_permutations,
    apply_word,
    divided_difference,
    first_word_sum_mismatch,
    reconstruct_operator,
    schubert,
    sym_linearity_check,
)
from padem.pdg import random_nh_word
from padem.steenrod import ACTION_STANDARD, ACTIONS
from padem.poly import (
    Polynomial,
    elementary_symmetric,
    exact_divide,
    monomials_up_to_degree,
)

from oracles import (
    apply_word_sum,
    conjugated_twist_image,
    power_one_derivation,
    random_poly,
    row_reduction_rank,
    tuple_product,
)

PRIMES = (2, 3, 5)


def random_word_element(rng, p, n, max_len=5):
    letters, c = random_nh_word(rng, p, n, max_len)
    return NilHeckeElement.from_word(p, n, letters, c)


# -- permutations --------------------------------------------------------


def test_permutation_basics():
    w = Permutation((2, 3, 1))
    assert w.length() == 2
    assert w.inverse() == Permutation((3, 1, 2))
    assert (w * w.inverse()) == Permutation.identity(3)
    assert Permutation.longest(4).length() == 6
    with pytest.raises(DomainError):
        Permutation((1, 1, 3))


def test_reduced_words_are_reduced_and_least():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            word = nilhecke._reduced_word(w.images)
            assert len(word) == w.length()
            prod = Permutation.identity(n)
            for _, j in word:
                prod = prod * Permutation.transposition(n, j)
            assert prod == w
    assert nilhecke._reduced_word((3, 2, 1)) == (("d", 1), ("d", 2), ("d", 1))


def test_reduced_word_of_a_large_identity_is_fast():
    # one pass over a position table: O(n) per letter, not O(n^2)
    start = time.perf_counter()
    assert nilhecke._reduced_word(tuple(range(1, 20_001))) == ()
    assert time.perf_counter() - start < 1


# -- divided differences -------------------------------------------------


def test_divided_difference_examples():
    p, n = 5, 2
    x1, x2 = Polynomial.variable(p, n, 1), Polynomial.variable(p, n, 2)
    assert divided_difference(x1, 1) == Polynomial.one(p, n)
    assert divided_difference(x1 * x2, 1).is_zero()
    assert divided_difference(x1 * x1, 1) == x1 + x2
    with pytest.raises(DomainError):
        divided_difference(x1, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_divided_difference_never_fails_and_lowers_degree(p):
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(30):
            f = random_poly(rng, p, n, max_exp=3, terms=3)
            for j in range(1, n):
                g = divided_difference(f, j)  # DivisibilityError = bug
                if f.is_homogeneous() and not f.is_zero() and not g.is_zero():
                    assert g.is_homogeneous()
                    assert g.degree() == f.degree() - 2


def test_apply_term_count_bounds_the_terms_made():
    # the count against the terms each letter really makes, one monomial
    # at a time (a sum of monomials only merges terms), plus one shifted
    # copy of D_w(f) per term x^a D_w; p = 97 keeps cancellations rare
    p, rng = 97, random.Random(13)
    for n in (2, 3, 4):
        for _ in range(40):
            e = sum(
                (random_word_element(rng, p, n, max_len=7) for _ in range(3)),
                NilHeckeElement.zero(p, n),
            )
            f = random_poly(rng, p, n, max_exp=6, terms=4)
            made = 0
            heads = [images for _, images in e.terms]
            for images in set(heads):
                for m in f.terms:
                    terms = {m: 1}
                    for _, j in reversed(nilhecke._reduced_word(images)):
                        terms = nilhecke._divided_difference_terms(terms, j, p)
                        made += len(terms)
                    made += heads.count(images) * len(terms)
            assert nilhecke._apply_term_count(e, f, 10**12) >= made
    # one divided difference of a pure power: the bound is exact
    x1 = Polynomial.variable(5, 2, 1)
    assert nilhecke._apply_term_count(NilHeckeElement.d_gen(5, 2, 1), x1**40, 10**6) == 80


def test_apply_budget_refuses_only_above_the_budget(monkeypatch):
    d1 = NilHeckeElement.d_gen(3, 2, 1)
    x1 = Polynomial.variable(3, 2, 1)
    monkeypatch.setattr(nilhecke, "APPLY_TERM_BUDGET", 80)
    nilhecke.require_apply_budget(d1, x1**40)
    with pytest.raises(DomainError, match="over the work budget"):
        nilhecke.require_apply_budget(d1, x1**41)


@pytest.mark.parametrize("p", PRIMES)
def test_twisted_leibniz(p):
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(30):
            f = random_poly(rng, p, n, max_exp=3, terms=3)
            g = random_poly(rng, p, n, max_exp=3, terms=3)
            for j in range(1, n):
                lhs = divided_difference(f * g, j)
                rhs = divided_difference(f, j) * g + f.transpose(j) * divided_difference(g, j)
                assert lhs == rhs


@pytest.mark.parametrize("p", PRIMES)
def test_symmetric_equivariance(p):
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(20):
            f = random_poly(rng, p, n, max_exp=3, terms=3)
            for i in range(1, n + 1):
                e = elementary_symmetric(i, n, p)
                for j in range(1, n):
                    assert divided_difference(e * f, j) == e * divided_difference(f, j)


# -- element algebra and action -------------------------------------------


def test_apply_examples():
    p, n = 5, 2
    one = Polynomial.one(p, n)
    x1 = Polynomial.variable(p, n, 1)
    d1x1 = NilHeckeElement.d_gen(p, n, 1) * NilHeckeElement.x_gen(p, n, 1)
    assert d1x1.apply(one) == one
    x1d1 = NilHeckeElement.x_gen(p, n, 1) * NilHeckeElement.d_gen(p, n, 1)
    assert x1d1.apply(x1) == x1
    d1d1 = NilHeckeElement.d_gen(p, n, 1) * NilHeckeElement.d_gen(p, n, 1)
    rng = random.Random(1)
    for _ in range(10):
        assert d1d1.apply(random_poly(rng, p, n, max_exp=3, terms=3)).is_zero()


def _first_relation_failure(p, n, degree_bound):
    """The per-monomial reference for the relation sweep: the detail of
    the first (relation, monomial) where the two sides differ under
    apply_word_sum, with the monomial's sweep index; None if none does."""
    monos = monomials_up_to_degree(n, degree_bound)
    for name, lhs, rhs in pdg.nilhecke_relations(p, n):
        for index, exps in enumerate(monos):
            f = Polynomial.monomial(p, n, exps)
            if apply_word_sum(lhs, f) != apply_word_sum(rhs, f):
                return f"{name} fails on {f}", index
    return None


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_defining_relations_as_operators(p, n):
    assert _first_relation_failure(p, n, 12) is None


W0_4 = nilhecke._reduced_word(Permutation.longest(4).images)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "n, degree_bound, name, lhs, rhs, chunk",
    [
        pytest.param(3, 24, "D1 = 0", ((1, (("d", 1),)),), (), "first", id="first-chunk"),
        # the constant of a true relation, off by one
        pytest.param(
            2, 24, "D1*x1 - x2*D1 = 2",
            ((1, (("d", 1), ("x", 1))), (-1, (("x", 2), ("d", 1)))), ((2, ()),),
            "first", id="first-chunk-coefficients",
        ),
        # D_{w0} kills the 126 monomials of exponent sum below 6
        pytest.param(4, 16, "D_w0 = 0", ((1, W0_4),), (), "later", id="later-chunk"),
        # 126 monomials: a full chunk, then 62, and the first failure is at 72
        pytest.param(
            4, 10, "D_w0*x1 = 0", ((1, W0_4 + (("x", 1),)),), (), "last partial",
            id="last-partial-chunk",
        ),
    ],
)
def test_relation_sweep_reports_planted_fault_like_reference(
    monkeypatch, p, n, degree_bound, name, lhs, rhs, chunk
):
    real = pdg.nilhecke_relations
    reduced = lambda side: tuple((c % p, word) for c, word in side)
    false_relation = (name, reduced(lhs), reduced(rhs))
    monkeypatch.setattr(pdg, "nilhecke_relations", lambda p, n: real(p, n) + [false_relation])
    want, index = _first_relation_failure(p, n, degree_bound)
    assert want.startswith(name)
    count = len(monomials_up_to_degree(n, degree_bound))
    at, last = index // SWEEP_CHUNK, (count - 1) // SWEEP_CHUNK
    partial = at == last and count % SWEEP_CHUNK
    assert chunk == ("first" if at == 0 else "last partial" if partial else "later")
    got = verify.check_nilhecke_relations(p, n, degree_bound)
    assert not got.ok
    assert got.detail == want


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n, degree_bound", ((2, 24), (3, 12), (4, 10)))
def test_relation_sweep_passes_true_relations(p, n, degree_bound):
    assert _first_relation_failure(p, n, degree_bound) is None
    assert verify.check_nilhecke_relations(p, n, degree_bound).ok


def _normal_form_words(lhs, p, n):
    """The basis terms c x^a D_w of the sum of words lhs, each written
    back as a word: a_i letters x_i to the left of the reduced word of w.
    The same operator as lhs, through other letters."""
    e = sum(
        (NilHeckeElement.from_word(p, n, word, c) for c, word in lhs),
        NilHeckeElement.zero(p, n),
    )
    words = []
    for (exps, images), c in e.terms.items():
        xs = tuple(("x", i + 1) for i, a in enumerate(exps) for _ in range(a))
        words.append((c, xs + nilhecke._reduced_word(images)))
    return tuple(words)


@st.composite
def _relations(draw):
    """(p, n, relations, monomials): one to three relations (lhs, rhs),
    each rhs the normal form of its lhs, and so agreeing with it
    everywhere, plus at times one more word ending in D1, which makes a
    mismatch on the first monomial with a1 != a2 once its coefficient is
    nonzero mod p; a prefix of the monomials has a1 = a2, so that one may
    come late, in any chunk.  Exponents sit at and next to 2^k - 1, and
    the x letters of the normal forms carry them past it."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.sampled_from((2, 3, 4)))
    x_letter = st.tuples(st.just("x"), st.integers(1, n))
    letter = st.one_of(x_letter, st.tuples(st.just("d"), st.integers(1, n - 1)))
    coefficient = st.integers(-p, 2 * p)
    word = st.tuples(coefficient, st.lists(letter, max_size=4).map(tuple))
    killed_on_prefix = st.lists(x_letter, max_size=2).map(lambda xs: (*xs, ("d", 1)))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = tuple(draw(st.lists(word, min_size=1, max_size=3)))
        rhs = _normal_form_words(lhs, p, n)
        rhs += tuple(draw(st.lists(st.tuples(coefficient, killed_on_prefix), max_size=1)))
        relations.append((lhs, rhs))
    exponent = st.sampled_from((0, 1, 2, 3, 4, 7, 8, 15))
    count = draw(st.integers(1, 2 * SWEEP_CHUNK + 10))
    monomials = draw(st.lists(st.tuples(*[exponent] * n), min_size=count, max_size=count))
    prefix = draw(st.integers(0, count))
    monomials = [(m[0], m[0], *m[2:]) for m in monomials[:prefix]] + monomials[prefix:]
    return p, n, relations, monomials


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_relations())
def test_packed_sweep_matches_the_word_reference(case):
    # the one sweep over all the relations finds the first failing
    # relation and its first failing monomial, as the word reference does
    # looped over the relations
    p, n, relations, monomials = case

    def first_mismatch(lhs, rhs):
        return next(
            (
                i
                for i, exps in enumerate(monomials)
                if apply_word_sum(lhs, f := Polynomial.monomial(p, n, exps))
                != apply_word_sum(rhs, f)
            ),
            None,
        )

    want = next(
        (
            (r, i)
            for r, (lhs, rhs) in enumerate(relations)
            if (i := first_mismatch(lhs, rhs)) is not None
        ),
        None,
    )
    assert first_word_sum_mismatch(relations, monomials, p, n) == want
    swapped = [(rhs, lhs) for lhs, rhs in relations]
    assert first_word_sum_mismatch(swapped, monomials, p, n) == want


_DD_PAIR = nilhecke._dd_pair
_FIELD_OFFSETS = nilhecke._field_offsets


def _flipped_sign(ab):
    return tuple((xy, -sign) for xy, sign in _DD_PAIR(ab))


def _dropped_term(ab):
    return _DD_PAIR(ab)[1:]


def _unsigned(ab):
    return tuple((xy, 1) for xy, _ in _DD_PAIR(ab))


@pytest.mark.parametrize("fault", (_flipped_sign, _dropped_term, _unsigned))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_relation_sweep_checks_the_shared_closed_form(monkeypatch, fault, n):
    # divided_difference, apply, the product and the relation sweep all
    # read _dd_pair; a wrong closed form must fail the sweep
    assert verify.check_nilhecke_relations(3, n, 12).ok
    monkeypatch.setattr(nilhecke, "_dd_pair", fault)
    assert not verify.check_nilhecke_relations(3, n, 12).ok


def _sign_flipped_from_degree_five(ab):
    rows = _DD_PAIR(ab)
    return tuple((xy, -sign) for xy, sign in rows) if sum(ab) >= 5 else rows


def _d_offsets_sign_flipped_from_degree_five(fn, first, fields, bits, width):
    # the same fault, planted in the offsets of the packed D_j rows only
    offsets = _FIELD_OFFSETS(fn, first, fields, bits, width)
    if fn is not _DD_PAIR or (bits & (1 << width) - 1) + (bits >> width) < 5:
        return offsets
    return tuple((offset, -sign) for offset, sign in offsets)


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_relation_sweep_reports_a_fault_in_the_packed_d_rows_like_reference(
    planted_fault, p, n
):
    # a sign flip on x_j^a x_(j+1)^b with a + b >= 5 in the packed D_j
    # rows fails the sweep at the relation and monomial where the same
    # flip in _dd_pair fails the word reference
    planted_fault.setattr(nilhecke, "_field_offsets", _d_offsets_sign_flipped_from_degree_five)
    got = verify.check_nilhecke_relations(p, n, 12)
    planted_fault.undo()
    planted_fault.setattr(nilhecke, "_dd_pair", _sign_flipped_from_degree_five)
    want, _index = _first_relation_failure(p, n, 12)
    assert not got.ok
    assert got.detail == want


@st.composite
def _packed_letter_cases(draw):
    """(p, name, add, kernel, monomials, width, scale) for one packed
    letter: add(batch, scale, out, width) adds it into out, and kernel(exps)
    is its tuple kernel on one monomial.  The letters are x_i, D_j, P^k
    under either action and the product by a polynomial g.  The width is
    the sweeps' rule, the bits of the largest exponent plus the most the
    letter raises one (1 for x_i, none for D_j, k(p - 1) or k for P^k,
    the largest exponent of g), and the exponents sit at 0, 1 and the top
    of that width, so the largest terms fill their field."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    name = draw(st.sampled_from(("x", "d", "P", "product") if n > 1 else ("x", "P", "product")))
    if name == "x":
        i = draw(st.integers(1, n))
        lift = 1

        def add(batch, scale, out, width):
            nilhecke._add_packed_letter(("x", i), batch, scale, out, width, {})

        def kernel(exps):
            return nilhecke._word_terms((("x", i),), {exps: 1}, p)

    elif name == "d":
        j = draw(st.integers(1, n - 1))
        lift = 0

        def add(batch, scale, out, width):
            nilhecke._add_packed_letter(("d", j), batch, scale, out, width, {j: {}})

        def kernel(exps):
            return nilhecke._word_terms((("d", j),), {exps: 1}, p)

    elif name == "P":
        action = draw(st.sampled_from(ACTIONS))
        k = draw(st.integers(0, 7))
        lift = k * (p - 1) if action == ACTION_STANDARD else k
        fn = functools.partial(steenrod._act_power_monomial, p, action, k)

        def add(batch, scale, out, width):
            nilhecke._add_field_map(fn, 0, n, batch, scale, out, width, {})

        def kernel(exps):
            return dict(fn(exps))

    else:
        exponents = st.tuples(*[st.integers(0, 3)] * n)
        g = Polynomial(p, n, draw(st.dictionaries(exponents, st.integers(-p, p), max_size=4)))
        lift = max(map(max, g.terms), default=0)

        def add(batch, scale, out, width):
            row = tuple((nilhecke._pack(m, width), c) for m, c in g.terms.items())
            nilhecke._add_product(batch, row, scale, out)

        def kernel(exps):
            return tuple_product(Polynomial.monomial(p, n, exps), g)

    width = draw(st.integers(max(lift.bit_length(), 1), 7))
    top = (1 << width) - 1 - lift
    exponent = st.sampled_from(sorted({0, min(1, top), max(top - 1, 0), top}))
    monomials = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=6))
    if draw(st.booleans()):
        monomials[0] = (top,) * n
    assert nilhecke._field_width(monomials, lift) <= width
    return p, name, add, kernel, monomials, width, draw(st.integers(-p, p))


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(_packed_letter_cases())
def test_packed_letters_match_their_tuple_kernels(case):
    # each monomial is packed with its index on top; every term of the
    # tuple kernel lands in its own monomial's index and fields, with no
    # carry, scaled and not reduced (so a scale of 0 mod p keeps its
    # keys), and mod p with the kernel's coefficient
    p, name, add, kernel, monomials, width, scale = case
    batch = {nilhecke._pack(exps, width, index): 1 for index, exps in enumerate(monomials)}
    out = {}
    add(batch, scale, out, width)
    want = {}
    for index, exps in enumerate(monomials):
        for m, c in kernel(exps).items():
            assert max(m) < 1 << width
            want[nilhecke._pack(m, width, index)] = scale * c
    assert out.keys() == want.keys(), name
    assert all((out[k] - c) % p == 0 for k, c in want.items()), name


def test_word_sum_mismatch_checks_letters():
    monos = monomials_up_to_degree(3, 4)
    with pytest.raises(DomainError):
        first_word_sum_mismatch([(((1, (("d", 3),)),), ())], monos, 3, 3)
    with pytest.raises(DomainError):
        first_word_sum_mismatch([((), ((1, (("x", 4),)),))], monos, 3, 3)


def test_normalize_examples():
    p, n = 3, 2
    d1 = NilHeckeElement.d_gen(p, n, 1)
    x1 = NilHeckeElement.x_gen(p, n, 1)
    x2 = NilHeckeElement.x_gen(p, n, 2)
    got = (d1 * x1).normalize()
    assert got == x2 * d1 + NilHeckeElement.one(p, n)
    assert str(got) == "x2*D1 + 1"
    assert (x1 * d1).normalize() == x1 * d1
    p3, n3 = 3, 3
    d1, d2 = NilHeckeElement.d_gen(p3, n3, 1), NilHeckeElement.d_gen(p3, n3, 2)
    assert (d1 * d2 * d1 - d2 * d1 * d2).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_normalize_preserves_action(p):
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(25):
            letters, c = random_nh_word(rng, p, n, max_len=5)
            nf = NilHeckeElement.from_word(p, n, letters, c)
            for exps, images in nf.terms:
                assert len(exps) == n and all(e >= 0 for e in exps)
                assert sorted(images) == list(range(1, n + 1))
            for _ in range(3):
                f = random_poly(rng, p, n, max_exp=3, terms=3)
                assert apply_word(letters, f) * c == nf.apply(f)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_divided_difference_matches_exact_division(p, n):
    rng = random.Random(17)
    for _ in range(30):
        f = random_poly(rng, p, n, max_exp=12, terms=3)
        for j in range(1, n):
            root = Polynomial.variable(p, n, j) - Polynomial.variable(p, n, j + 1)
            assert divided_difference(f, j) == exact_divide(f - f.transpose(j), root)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_basis_products_match_word_actions(p, n):
    rng = random.Random(19)
    for _ in range(20):
        letters, c = random_nh_word(rng, p, n, max_len=5)
        u = NilHeckeElement.from_word(p, n, letters, c)
        v = random_word_element(rng, p, n) + random_word_element(rng, p, n)
        w = random_word_element(rng, p, n)
        assert (u * v) * w == u * (v * w)
        for _ in range(2):
            f = random_poly(rng, p, n, max_exp=3, terms=3)
            assert u.apply(f) == apply_word(letters, f) * c
            assert (u * v).apply(f) == u.apply(v.apply(f))


def slow_apply_word(letters, f):
    """Word action by polynomial products and exact division."""
    p, n = f.p, f.n
    for kind, i in reversed(letters):
        if kind == "x":
            f = f * Polynomial.variable(p, n, i)
        else:
            root = Polynomial.variable(p, n, i) - Polynomial.variable(p, n, i + 1)
            f = exact_divide(f - f.transpose(i), root)
    return f


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_apply_word_matches_slow_reference(p, n):
    rng = random.Random(23)
    for _ in range(40):
        letters, c = random_nh_word(rng, p, n, max_len=6)
        other, c2 = random_nh_word(rng, p, n, max_len=6)
        f = random_poly(rng, p, n, max_exp=5, terms=4)
        assert apply_word(letters, f) == slow_apply_word(letters, f)
        want = slow_apply_word(letters, f) * c + slow_apply_word(other, f) * c2
        assert apply_word_sum(((c, letters), (c2, other)), f) == want


def test_elements_require_a_prime():
    with pytest.raises(DomainError):
        NilHeckeElement.one(4, 2)
    with pytest.raises(DomainError):
        NilHeckeElement.d_gen(101, 2, 1)


def test_word_degrees():
    e = NilHeckeElement.from_word(5, 3, (("x", 1), ("x", 2), ("d", 1)))
    assert e.word_degree((("x", 1), ("x", 2), ("d", 1))) == 2
    assert e.degree() == 2


# -- Schubert polynomials -------------------------------------------------


def test_schubert_examples():
    assert schubert(Permutation.longest(2), 2, 3) == Polynomial.variable(3, 2, 1)
    assert schubert(Permutation.identity(3), 3, 3) == Polynomial.one(3, 3)
    assert schubert(Permutation.identity(2), 2, 5) == Polynomial.one(5, 2)


def test_schubert_well_defined_across_reduced_words():
    # D_w is independent of the chosen reduced word of w.
    p, n = 3, 3
    w0 = Permutation.longest(n)
    f = Polynomial(p, n, {(3, 2, 1): 1, (2, 2, 0): 2})
    a = apply_word((("d", 1), ("d", 2), ("d", 1)), f)
    b = apply_word((("d", 2), ("d", 1), ("d", 2)), f)
    assert a == b
    assert schubert(w0, n, p) == Polynomial.monomial(p, n, (2, 1, 0))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_schubert_basis_independent_in_coinvariants(p, n):
    """Schubert classes stay independent modulo nonconstant symmetric
    polynomials, checked degree by degree with dense linear algebra."""
    by_degree = {}
    for w in all_permutations(n):
        by_degree.setdefault(2 * w.length(), []).append(schubert(w, n, p))
    for degree, schuberts in by_degree.items():
        half = degree // 2
        monos = [m for m in monomials_up_to_degree(n, degree) if sum(m) == half]
        index = {m: i for i, m in enumerate(monos)}
        ideal_rows = []
        for i in range(1, n + 1):
            e = elementary_symmetric(i, n, p)
            for m in monomials_up_to_degree(n, degree - 2 * i):
                if sum(m) != half - i:
                    continue
                g = e * Polynomial.monomial(p, n, m)
                row = np.zeros(len(monos), dtype=np.int64)
                for mm, c in g.terms.items():
                    row[index[mm]] = c
                ideal_rows.append(row)
        base = np.array(ideal_rows, dtype=np.int64) if ideal_rows else np.zeros((0, len(monos)), dtype=np.int64)
        base_rank = row_reduction_rank(base, p)
        rows = list(base)
        for f in schuberts:
            row = np.zeros(len(monos), dtype=np.int64)
            for mm, c in f.terms.items():
                row[index[mm]] = c
            rows.append(row)
        full_rank = row_reduction_rank(np.array(rows, dtype=np.int64), p)
        assert full_rank == base_rank + len(schuberts)


# -- Sym-linearity and reconstruction --------------------------------------


def test_sym_linearity_of_generators():
    p, n = 3, 2
    assert sym_linearity_check(NilHeckeElement.d_gen(p, n, 1), 10)
    assert sym_linearity_check(NilHeckeElement.x_gen(p, n, 1), 10)
    d1 = NilHeckeElement.d_gen(p, n, 1)
    x1 = NilHeckeElement.x_gen(p, n, 1)
    x2 = NilHeckeElement.x_gen(p, n, 2)
    identity = d1 * x1 - x2 * d1
    assert identity == NilHeckeElement.one(p, n)
    assert sym_linearity_check(identity, 10)


def test_sym_linearity_refuses_a_negative_bound_and_work_over_the_budget():
    d1 = NilHeckeElement.d_gen(3, 3, 1)
    with pytest.raises(DomainError, match="^degree bound -5 must be nonnegative$"):
        sym_linearity_check(d1, -5)
    # C(10**6 / 2 + 3, 3) monomials, refused before any is built
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^the Sym-linearity sweep up to degree 1000000 .* budget"):
        sym_linearity_check(d1, 10**6)
    assert time.perf_counter() - start < 1


def test_reconstruct_operator_roundtrip():
    rng = random.Random(3)
    for p, n in ((3, 2), (2, 3)):
        for _ in range(5):
            e = random_word_element(rng, p, n)
            rebuilt = reconstruct_operator(p, n, e.apply, 10)
            assert rebuilt == e


def test_reconstruct_operator_rejects_non_nilhecke():
    from padem.errors import ReconstructionError

    p, n = 3, 2

    def frobenius(f):
        return Polynomial(p, n, {tuple(3 * e for e in m): c for m, c in f.terms.items()})

    with pytest.raises(ReconstructionError):
        reconstruct_operator(p, n, frobenius, 8)


def test_reconstruction_budget_refuses_only_above_the_budget(monkeypatch):
    # the count is C(degree_bound // 2 + n, n), the monomials of the sweep
    p, n = 3, 2
    d1 = NilHeckeElement.d_gen(p, n, 1)
    assert len(monomials_up_to_degree(n, 9)) == 15
    monkeypatch.setattr(nilhecke, "RECONSTRUCT_BUDGET", 15)
    assert reconstruct_operator(p, n, d1.apply, 9) == d1
    with pytest.raises(DomainError, match="checks more than 15 monomials"):
        reconstruct_operator(p, n, d1.apply, 10)


def test_schubert_budget_refuses_only_above_the_budget(monkeypatch):
    # the terms are counted after each letter of D_{w^-1 w_0}: for
    # w = 1432 the staircase x1^3 x2^2 x3 goes through 1, 2 and 5 terms
    p, n = 5, 4
    w = Permutation((1, 4, 3, 2))
    schubert.cache_clear()
    monkeypatch.setattr(nilhecke, "SCHUBERT_TERM_BUDGET", 4)
    with pytest.raises(DomainError, match="over the work budget: it holds more than 4 terms"):
        schubert(w, n, p)
    monkeypatch.setattr(nilhecke, "SCHUBERT_TERM_BUDGET", 5)
    assert len(schubert(w, n, p).terms) == 5


def test_reconstruction_pairs_refuse_only_above_the_budget(monkeypatch):
    # the count is n!(n! - 1)/2, each permutation paired with every
    # earlier one: 15 at n = 3, where the sweep at degree 2 is 4 monomials
    p, n = 3, 3
    d1 = NilHeckeElement.d_gen(p, n, 1)
    # n! is capped, so a huge n is refused at once
    with pytest.raises(DomainError, match="n=100000 is over the work budget"):
        reconstruct_operator(p, 100_000, d1.apply, 0)
    monkeypatch.setattr(nilhecke, "RECONSTRUCT_BUDGET", 15)
    assert reconstruct_operator(p, n, d1.apply, 2) == d1
    monkeypatch.setattr(nilhecke, "RECONSTRUCT_BUDGET", 14)
    with pytest.raises(DomainError, match="permutations form more than 14 pairs"):
        reconstruct_operator(p, n, d1.apply, 2)


def test_reconstruction_bounds_in_use_stay_inside_the_budget():
    # n = 4 at degree 24 is the largest reconstruction the tests,
    # verify-all, the README and the benchmark ask for; margolis --op at
    # n = 2, degree 400 is slow but inside, and at n = 3 it is refused
    budget = nilhecke.RECONSTRUCT_BUDGET
    assert len(monomials_up_to_degree(4, 24)) <= budget
    assert len(monomials_up_to_degree(2, 400)) == 20301 <= budget
    assert capped_binomial(200 + 3, 3, 10**9) == 1373701 > budget


def test_reconstruction_rejects_a_negative_degree_bound():
    # every caller's certifying sweep would be empty
    from padem.steenrod import bar_act, bar_act_element, margolis_d

    p, n = 3, 2
    d1 = NilHeckeElement.d_gen(p, n, 1)
    builds = (
        lambda: reconstruct_operator(p, n, lambda f: f, -1),
        lambda: bar_act(1, d1, "standard", -1),
        lambda: bar_act_element(margolis_d(1, p), d1, "standard", -1),
        lambda: power_one_derivation(p, n, -1),
        lambda: conjugated_twist_image(p, n, 1, 1, -1),
    )
    for build in builds:
        with pytest.raises(DomainError, match="degree bound -1 must be nonnegative"):
            build()

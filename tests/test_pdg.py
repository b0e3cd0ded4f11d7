"""Derivation, graded-operator, and slash-homology tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from padem.errors import DomainError, MismatchError, StructureError
from padem.nilhecke import NilHeckeElement, Permutation
from padem.pdg import (
    Derivation,
    GradedOperator,
    GradedSpace,
    compare_with_steenrod,
    conjugated_twist_image,
    derivation_operator,
    khovanov_qi_derivation,
    margolis_homology,
    nh_derivation_operator,
    nilhecke_space,
    polynomial_space,
    power_one_derivation,
    rank_mod_p,
    regular_nilpotent_module,
    twisted_derivation,
    verify_pdg,
)
from padem.poly import Polynomial, elementary_symmetric, monomials_up_to_degree

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
@pytest.mark.parametrize("n", (2, 3, 4))
def test_symmetric_function_rule_two_ways(p, n):
    # d(e_i) = e_1 e_i - (i+1) e_{i+1} for i < n, and d(e_n) = e_1 e_n,
    # computed from the generator rule and compared with the formula.
    d = khovanov_qi_derivation(p, n)
    e = [elementary_symmetric(i, n, p) for i in range(n + 1)]
    for i in range(1, n + 1):
        got = d.apply_poly(e[i])
        want = e[1] * e[i]
        if i < n:
            want = want - e[i + 1] * (i + 1)
        assert got == want


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
    for a in (0, 1, 2):
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
                dword = tuple(("d", j) for j in Permutation(images).reduced_word())
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


def test_apply_nh_repeats_with_a_warm_cache():
    p, n = 3, 3
    labels = list(nilhecke_space(p, n, 8).index)
    for name, d in shipped_derivations(p, n):
        elements = [NilHeckeElement(p, n, {label: 1}) for label in labels]
        first = [d.apply_nh(e) for e in elements]
        assert len(d._d_permutation) == 6
        assert [d.apply_nh(e) for e in elements] == first, name
        assert len(d._d_permutation) == 6


# -- axiom verification -------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_verify_pdg_passes_for_shipped_derivations(p, n):
    for a in (None, 0, 1, 2):
        d = khovanov_qi_derivation(p, n) if a is None else twisted_derivation(p, n, a)
        report = verify_pdg(d, degree_bound=12)
        assert report["all_ok"], (p, n, a, report["failures"])


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


def test_verify_pdg_reports_nilpotency_bounds():
    p, n = 3, 2
    x1, x2 = xvar(p, n, 1), xvar(p, n, 2)
    report = verify_pdg(khovanov_qi_derivation(p, n), degree_bound=8)
    assert report["nilpotency_degree_bound"] == {"poly": 8, "nh": 8}
    # x images of different degrees: no graded matrices on the polynomial
    # side, and the relations fail, so the operator side never runs
    mixed = Derivation(p, n, [x1**2, x2**3], [NilHeckeElement.zero(p, n)])
    report = verify_pdg(mixed, degree_bound=12)
    assert report["nilpotency_degree_bound"] == {"poly": 10, "nh": None}
    # the inner derivation [z, -] by a non-homogeneous z is well defined
    # but sends D1 to mixed degrees
    z = NilHeckeElement.from_polynomial(x1 + x1**2)
    d1 = NilHeckeElement.d_gen(p, n, 1)
    inner = Derivation(p, n, [Polynomial.zero(p, n)] * 2, [z * d1 - d1 * z])
    report = verify_pdg(inner, degree_bound=12)
    assert report["relations_ok"]
    assert report["nilpotency_degree_bound"] == {"poly": 12, "nh": 6}


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


def _dense_oracle(space, op, s):
    """Whole-space dense matrices; ranks per degree from the global map."""
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
    dims = {}
    for d in space.degrees:
        cols = [index[(d, i)] for i in range(space.dim(d))]
        if not cols:
            continue
        sub = ker_pow[:, cols]
        dim_ker = len(cols) - rank_mod_p(sub, p)
        src = d - op.shift * (p - s)
        src_cols = [index[(src, i)] for i in range(space.dim(src))] if src in space.basis else []
        dim_im = rank_mod_p(im_pow[:, src_cols], p) if src_cols else 0
        if dim_ker - dim_im:
            dims[d] = dim_ker - dim_im
    return dims


@pytest.mark.parametrize("p", PRIMES)
def test_homology_matches_dense_oracle(p):
    configs = [
        polynomial_space(p, 1, 20, powers=(8,)),
        polynomial_space(p, 2, 12, powers=(3, 4)),
        polynomial_space(p, 2, 4 * p, powers=(p + 1, p + 1)),
    ]
    for space in configs:
        assert space.total_dim() <= 200
        op = derivation_operator(space, khovanov_qi_derivation(p, space.basis[0][0].__len__()), len(space.basis[0][0]))
        for s in range(1, p):
            dims, excluded = margolis_homology(space, op, s)
            assert excluded == []
            assert dims == _dense_oracle(space, op, s), (p, s)


def test_homology_on_operator_algebra_truncation():
    # slash homology also runs on the x^a * D_w basis of the operator
    # algebra; cross-check the same dense oracle there.
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    space = nilhecke_space(p, n, 10)
    op = nh_derivation_operator(space, d)
    for s in range(1, p):
        dims, excluded = margolis_homology(space, op, s)
        oracle = _dense_oracle(space, op, s)
        for deg in excluded:
            oracle.pop(deg, None)
        for deg in list(dims):
            if deg in excluded:
                dims.pop(deg)
        assert dims == {k: v for k, v in oracle.items() if k not in excluded}


def test_nh_operator_nilpotence_matrices():
    p, n = 3, 2
    d = khovanov_qi_derivation(p, n)
    space = nilhecke_space(p, n, 8 + 2 * p)
    op = nh_derivation_operator(space, d)
    for deg in space.degrees:
        if deg > 8:
            continue
        mat = op.power_matrix(deg, p)
        if mat is not None and mat.size:
            assert not (mat % p).any()


# -- comparison with the induced power action ----------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_global_sign_per_prime(p):
    report = compare_with_steenrod(p, 2, degree_bound=10)
    assert report["consistent"]
    assert report["global_sign"] == (1 if p == 2 else -1)
    assert report["elements_ok"]


def test_sign_is_uniform_across_generators():
    report = compare_with_steenrod(3, 3, degree_bound=10)
    values = set(report["per_generator"].values())
    assert values == {-1}


# -- exact F_p linear algebra ----------------------------------------------------

ORACLE_PRIMES = (2, 3, 5, 97)


def _chain(p, dims, seed, full=False):
    """A complete graded space with the given dimensions in degrees 0, 2,
    4, ... and a random degree-2 operator; full=True makes every entry p-1."""
    rng = np.random.default_rng(seed)
    space = GradedSpace(p, {2 * i: list(range(k)) for i, k in enumerate(dims)}, True)
    shapes = zip(dims[1:], dims[:-1])
    mats = [
        np.full(s, p - 1.0) if full else rng.integers(0, p, s).astype(np.float64)
        for s in shapes
    ]
    return GradedOperator(space, 2, {2 * i: m for i, m in enumerate(mats)}), mats


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("full", (False, True))
def test_power_matrix_matches_exact_integer_product(p, full):
    # long inner dimensions, long outer ones, and an empty degree
    chains = ((30, 600, 30, 600, 20), (600, 25, 600, 25), (7, 1, 9, 0, 4))
    for seed, dims in enumerate(chains):
        op, mats = _chain(p, dims, seed, full)
        exact = np.eye(dims[0], dtype=object)
        for k, step in enumerate(mats, start=1):
            exact = step.astype(np.int64).astype(object) @ exact % p
            got = op.power_matrix(0, k)
            assert got.dtype == np.float64
            assert np.array_equal(got.astype(np.int64), exact.astype(np.int64)), (p, dims, k)
        powers = list(op.powers(0, len(mats)))
        assert len(powers) == len(mats) + 1
        assert np.array_equal(powers[-1], got)


def test_powers_stop_at_a_boundary_degree():
    space = polynomial_space(2, 1, 6)
    op = derivation_operator(space, khovanov_qi_derivation(2, 1), 1)
    # x^3 -> x^4 leaves the window, so the chain out of degree 2 stops
    # after its steps out of degrees 2 and 4
    assert len(list(op.powers(2, 5))) == 3
    assert op.power_matrix(2, 2) is not None
    assert op.power_matrix(2, 3) is None


def test_float_products_refuse_inexact_primes():
    big = 134217689  # prime, (p - 1)^2 > 2^53
    space = GradedSpace(big, {0: [0], 2: [1]}, True)
    op = GradedOperator(space, 2, {0: np.ones((1, 1))})
    with pytest.raises(DomainError):
        op.power_matrix(0, 1)
    with pytest.raises(DomainError):
        rank_mod_p(np.eye(2), big)


def _sympy_rank(mat, p):
    rows, cols = mat.shape
    entries = [[int(v) for v in row] for row in mat]
    return DomainMatrix(entries, (rows, cols), ZZ).convert_to(GF(p)).rank()


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
        want = _sympy_rank(mat, p)
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
    assert rank_mod_p(mat, p) == _sympy_rank(mat, p)


def _int64_power_matrix(op, d, k):
    p = op.space.p
    mat = np.eye(op.space.dim(d), dtype=np.int64)
    cur = d
    for _ in range(k):
        step = op.matrix(cur)
        if step is None:
            return None
        mat = (step.astype(np.int64) @ mat) % p
        cur += op.shift
    return mat


def _row_loop_rank(mat, p):
    m = mat.copy() % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if m[i, c] % p), None)
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return r


def _reference_homology(space, op, s):
    """The int64 matrix-power and Python row-loop computation, one power
    matrix per degree and per use."""
    p = space.p
    for d in space.degrees:
        full = _int64_power_matrix(op, d, p)
        if full is not None and full.size and (full % p).any():
            raise StructureError("operator is not p-nilpotent on this space")
    dims, excluded = {}, []
    for d in space.degrees:
        ker_mat = _int64_power_matrix(op, d, s)
        incoming = _int64_power_matrix(op, d - op.shift * (p - s), p - s)
        if ker_mat is None or incoming is None:
            excluded.append(d)
            continue
        value = space.dim(d) - _row_loop_rank(ker_mat, p) - _row_loop_rank(incoming, p)
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

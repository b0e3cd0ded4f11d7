"""Reference constructions that only the tests use, one copy each:
ranks over F_p of dense matrices (by the package's elimination, by a
row-reduction loop and by sympy), dense powers of graded operators and
their ranks, slash homology from whole-space dense matrices, the regular
module over F_p[u]/(u^p), the first reduced power as a derivation, the
twisted differential as a conjugation, the word-by-word value of a sum of
generator words, the total power and the total antipode on a monomial,
the product of polynomials on exponent tuples, the commutator and
top-power sweeps of verify-all one monomial at a time, the p-nilpotence
sweep of verify_pdg on tuple keys, seeded random polynomials, symmetry
of a polynomial and the size of a graded basis."""

import math

import numpy as np
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from padem import verify
from padem.arith import _echelon
from padem.nilhecke import NilHeckeElement, apply_word, divided_difference, reconstruct_operator
from padem.pdg import Derivation, GradedOperator, GradedSpace, khovanov_qi_derivation
from padem.poly import Polynomial, monomials_up_to_degree
from padem.steenrod import SteenrodElement, act, bar_act


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of the matrix with these rows of integers."""
    vectors = ({j: int(c) for j, c in enumerate(row) if c} for row in rows)
    return len(_echelon(vectors, p))


def row_reduction_rank(mat, p: int) -> int:
    """Rank over F_p of a numpy matrix, by Gauss-Jordan elimination one
    row at a time."""
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


def sympy_rank(mat, p: int) -> int:
    """Rank over F_p of a numpy matrix, computed by sympy."""
    entries = [[int(v) for v in row] for row in mat]
    return DomainMatrix(entries, mat.shape, ZZ).convert_to(GF(p)).rank()


def dense_homology(space: GradedSpace, op: GradedOperator, s: int) -> dict[int, int]:
    """Slash homology ker d^s / im d^(p-s) per degree, from powers of the
    int64 matrix of op on the whole space and sympy ranks of its column
    blocks; the nonzero dimensions only."""
    p = space.p
    labels = [(d, i) for d in space.degrees for i in range(space.dim(d))]
    index = {lab: r for r, lab in enumerate(labels)}
    big = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for d, cols in op.columns.items():
        for col, image in enumerate(cols):
            for row, c in image.items():
                big[index[(d + op.shift, row)], index[(d, col)]] = c
    ker_pow = np.linalg.matrix_power(big, s) % p
    im_pow = np.linalg.matrix_power(big, p - s) % p
    out = {}
    for d in space.degrees:
        cols = [index[(d, i)] for i in range(space.dim(d))]
        dim_ker = len(cols) - sympy_rank(ker_pow[:, cols], p)
        src = d - op.shift * (p - s)
        src_cols = [index[(src, i)] for i in range(space.dim(src))] if src in space.basis else []
        dim_im = sympy_rank(im_pow[:, src_cols], p) if src_cols else 0
        if dim_ker - dim_im:
            out[d] = dim_ker - dim_im
    return out


def dense_matrix(op: GradedOperator, d: int):
    """The int64 matrix of op out of degree d, read from its sparse
    columns; None at a boundary degree."""
    space = op.space
    cols = op.columns.get(d)
    if cols is None and space.dim(d) and not space.complete:
        return None
    mat = np.zeros((space.dim(d + op.shift), space.dim(d)), dtype=np.int64)
    for j, col in enumerate(cols or ()):
        for i, c in col.items():
            mat[i, j] = c
    return mat


def dense_power_matrix(op: GradedOperator, d: int, k: int):
    """The int64 matrix of op^k out of degree d, a product of k dense
    steps reduced mod p; None when a step starts at a boundary degree."""
    p = op.space.p
    mat = np.eye(op.space.dim(d), dtype=np.int64)
    cur = d
    for _ in range(k):
        step = dense_matrix(op, cur)
        if step is None:
            return None
        mat = (step @ mat) % p
        cur += op.shift
    return mat


def dense_power_ranks(op: GradedOperator, d: int) -> tuple[int, ...]:
    """Ranks of op^0, op^1, ..., op^j out of degree d by row reduction of
    the dense powers, with j = p unless a power reaches a boundary degree
    first."""
    out = []
    for k in range(op.space.p + 1):
        mat = dense_power_matrix(op, d, k)
        if mat is None:
            break
        out.append(row_reduction_rank(mat, op.space.p))
    return tuple(out)


def regular_nilpotent_module(p: int) -> tuple[GradedSpace, GradedOperator]:
    """The rank-one free module over F_p[u]/(u^p) with u in degree 2,
    together with multiplication by u."""
    basis = {2 * k: [k] for k in range(p)}
    space = GradedSpace(p, basis, complete=True)

    def fn(k: int) -> dict[int, int]:
        return {k + 1: 1} if k + 1 < p else {}

    return space, GradedOperator.from_callable(space, fn, 2)


def power_one_derivation(p: int, n: int, degree_bound: int = 12) -> Derivation:
    """The first reduced power acting as a derivation: x_i -> x_i^p on
    polynomials, with the operator images induced through the bar action.

    This is the degree 2(p-1) differential generating the smallest
    filtration subalgebra."""
    x_images = [Polynomial.variable(p, n, i) ** p for i in range(1, n + 1)]
    d_images = [
        bar_act(1, NilHeckeElement.d_gen(p, n, i), "standard", degree_bound)
        for i in range(1, n)
    ]
    return Derivation(p, n, x_images, d_images)


def twist_weight(p: int, n: int, a: int) -> Polynomial:
    """The logarithmic derivative of x_2^a x_3^{2a} ... x_n^{(n-1)a} under
    x_i -> x_i^2, namely sum (i-1) a x_i."""
    out = Polynomial.zero(p, n)
    for i in range(2, n + 1):
        out = out + Polynomial.variable(p, n, i) * ((i - 1) * a)
    return out


def conjugated_twist_image(
    p: int, n: int, a: int, i: int, degree_bound: int = 16
) -> NilHeckeElement:
    """Image of D_i under the differential obtained by conjugating the
    polynomial differential with the twisting monomial.

    The conjugated differential on the polynomial ring is
    f -> d(f) + (sum (j-1) a x_j) f; the returned element is its
    commutator with D_i, reconstructed from the action.
    """
    base = khovanov_qi_derivation(p, n)
    weight = twist_weight(p, n, a)

    def conjugated(f: Polynomial) -> Polynomial:
        return base.apply_poly(f) + weight * f

    def commutator(y: Polynomial) -> Polynomial:
        return conjugated(divided_difference(y, i)) - divided_difference(
            conjugated(y), i
        )

    return reconstruct_operator(
        p, n, commutator, degree_bound, note=f"conjugated image of D_{i}"
    )


def apply_word_sum(words, f: Polynomial) -> Polynomial:
    """Value on f of a sum ((coefficient, letters), ...) of generator
    words: the sum of c * apply_word(letters, f), one word at a time."""
    out = Polynomial.zero(f.p, f.n)
    for c, letters in words:
        out = out + apply_word(letters, f) * c
    return out


def random_poly(rng, p: int, n: int, max_exp: int, terms: int) -> Polynomial:
    """One to `terms` monomials with exponents in 0..max_exp and nonzero
    coefficients."""
    t = {}
    for _ in range(rng.randint(1, terms)):
        t[tuple(rng.randint(0, max_exp) for _ in range(n))] = rng.randrange(1, p)
    return Polynomial(p, n, t)


def total_power_monomial(p: int, action: str, k: int, exps: tuple) -> dict:
    """P^k x^exps as {exponents: coefficient mod p}, nonzero ones only: the
    t^k coefficient of the total power, the product over the variables of
    (x_i + t x_i^p)^(a_i) (standard) or x_i^(a_i) (1 + t x_i)^((p-1) a_i)
    (nonstandard), expanded over Z by the binomial theorem."""
    series = {(0, ()): 1}  # (power of t, exponents so far) -> integer coefficient
    for a in exps:
        if action == "standard":
            factor = [(j, math.comb(a, j), a + j * (p - 1)) for j in range(a + 1)]
        else:
            factor = [(j, math.comb((p - 1) * a, j), a + j) for j in range((p - 1) * a + 1)]
        nxt = {}
        for (t, m), c in series.items():
            for j, cj, e in factor:
                if t + j > k:
                    break
                key = (t + j, m + (e,))
                nxt[key] = nxt.get(key, 0) + c * cj
        series = nxt
    return {m: c % p for (t, m), c in series.items() if t == k and c % p}


def antipode_total_power(p: int, i: int, exps: tuple) -> dict:
    """S(P^i) x^exps as {exponents: coefficient mod p}, nonzero ones only,
    for the standard action: the t^i coefficient of the product over the
    variables of S_t(x_k)^(a_k), where S_t(x) = sum_j (-1)^j
    t^((p^j - 1)/(p - 1)) x^(p^j) inverts x + t x^p, expanded over Z one
    factor at a time."""
    s_t = []  # (power of t, exponent of x, sign) of S_t(x), up to t^i
    j = 0
    while (p**j - 1) // (p - 1) <= i:
        s_t.append(((p**j - 1) // (p - 1), p**j, (-1) ** j))
        j += 1
    series = {(0, ()): 1}  # (power of t, exponents so far) -> integer coefficient
    for a in exps:
        power = {(0, 0): 1}  # S_t(x)^a as (power of t, exponent) -> coefficient
        for _ in range(a):
            nxt = {}
            for (t, e), c in power.items():
                for tj, ej, sign in s_t:
                    if t + tj <= i:
                        key = (t + tj, e + ej)
                        nxt[key] = nxt.get(key, 0) + sign * c
            power = nxt
        nxt = {}
        for (t, m), c in series.items():
            for (tj, e), cj in power.items():
                if t + tj <= i:
                    key = (t + tj, m + (e,))
                    nxt[key] = nxt.get(key, 0) + c * cj
        series = nxt
    return {m: c % p for (t, m), c in series.items() if t == i and c % p}


def tuple_product(f: Polynomial, g: Polynomial) -> dict:
    """The terms of f * g, multiplied out over exponent tuples: each pair
    of monomials adds entry by entry, coefficients reduced mod p, zeros
    dropped."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % f.p
    return {m: c for m, c in out.items() if c}


def commutator_by_monomial(p: int, n: int, degree_bound: int, max_d: int):
    """verify.check_commutator one monomial at a time on tuple-keyed
    polynomials: P^d D_i f + s_i P^(d-1) D_i f = D_i P^d f for d <= max_d,
    each (i, f) up to its first failing d, keeping the least (d, i) and
    the first f there."""
    s = [None] + [verify._s(p, n, i) for i in range(1, n)]
    powers = [SteenrodElement.p_power(p, d) for d in range(max_d + 1)]
    first = None
    for exps in monomials_up_to_degree(n, degree_bound):
        f = Polynomial.monomial(p, n, exps)
        images = [f] + [act(powers[d], f) for d in range(1, max_d + 1)]
        for i in range(1, n):
            moved = prev = divided_difference(f, i)
            for d in range(1, max_d + 1):
                got = act(powers[d], moved)
                if got + s[i] * prev != divided_difference(images[d], i):
                    if first is None or (d, i) < first[:2]:
                        first = (d, i, f)
                    break
                prev = got
    if first is not None:
        return verify.Check("commutator", False, "d={}, i={}, f={}".format(*first))
    return verify.Check("commutator", True)


def top_power_by_monomial(p: int, n: int, degree_bound: int):
    """The top-power and instability sweep of verify.check_steenrod_axioms
    one monomial at a time, under the standard action: the detail of the
    first f of degree h with P^h f != f^p (h > 0), checked first, or
    P^(h+1) f != 0; None when there is none."""
    for exps in monomials_up_to_degree(n, degree_bound):
        f = Polynomial.monomial(p, n, exps)
        half = sum(exps)
        if half and act(SteenrodElement.p_power(p, half), f) != f**p:
            return f"top power fails on {f}"
        if not act(SteenrodElement.p_power(p, half + 1), f).is_zero():
            return f"instability fails on {f}"
    return None


def non_nilpotent_by_tuples(d: Derivation, basis, labels: bool = False):
    """The p-nilpotence sweep of pdg.verify_pdg one basis element at a
    time on tuple keys: the first monomial, or with labels the first
    normal-form label (exponents, permutation images), on which d^p is
    nonzero, or None.  d of a key comes from the tuple kernels
    Derivation._poly_terms and _nh_terms, and is kept per key."""
    p = d.p
    image = d._nh_terms if labels else d._poly_terms
    rows: dict = {}
    for key in basis:
        terms = {key: 1}
        for _ in range(p):
            out: dict = {}
            for k, c in terms.items():
                row = rows.get(k)
                if row is None:
                    row = rows[k] = image({k: 1})
                for j, v in row.items():
                    out[j] = out.get(j, 0) + c * v
            terms = {j: r for j, c in out.items() if (r := c % p)}
        if terms:
            return key
    return None


def is_symmetric(f: Polynomial) -> bool:
    """Is f fixed by every transposition of adjacent variables?"""
    return all(f.transpose(j) == f for j in range(1, f.n))


def is_sigma_invariant(f: Polynomial, j: int) -> bool:
    """Is f fixed by the transposition of x_j and x_(j+1)?"""
    return f.transpose(j) == f


def total_dim(space: GradedSpace) -> int:
    """The number of basis elements of space, over all degrees."""
    return sum(len(v) for v in space.basis.values())

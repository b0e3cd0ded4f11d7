"""p-nilpotent derivations on polynomial and nilHecke algebras.

A derivation here is determined by images of the generators x_i and D_i
and extends by the Leibniz rule.  The module provides the degree +2
differential sending x_i to x_i^2 together with its twisted deformations,
structural verification (Leibniz, well-definedness on the defining
relations, p-nilpotence on every basis element up to a degree bound)
and Margolis homology of graded truncations.  The p-nilpotence sweeps
run on nilhecke.least_failure, shared with forked helpers as
pool.fork_map states, and walk packed int keys: each basis element is
its exponents in fields, with a label's permutation above them, and d of
a key is written from per-variable and per-permutation offset tables
(_nilpotence_rows).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import add, itemgetter

from .arith import _echelon, capped_binomial, capped_factorial, reduce_terms, require_ring
from .errors import DomainError, MismatchError, StructureError
from .nilhecke import (
    NilHeckeElement,
    _pack,
    _reduced_word,
    all_permutations,
    divided_difference,  # noqa: F401 (perfbench/check_bench.py traces it here)
    first_key_check,
    least_failure,
)
from .poly import Monomial, Polynomial, monomials_up_to_degree


class Derivation:
    """Degree +2 derivation given on generators, extended by Leibniz.

    The images are stored as tuples, and for each variable x_i the terms
    c x^b of d(x_i) also as exponent shifts (b - e_i, c), which take a
    monomial x^m with m_i > 0 to x^(m - e_i) x^b.  d(D_w) is computed once
    per permutation w and kept on the instance (at most n! entries).  shift
    is the degree shift read off the terms of the x images (|x_i| = 2), 2
    when they are all zero, and None when the terms have different
    degrees: such a derivation has no graded operator."""

    def __init__(
        self,
        p: int,
        n: int,
        x_images: list[Polynomial],
        d_images: list[NilHeckeElement],
    ):
        require_ring(p, n)
        if len(x_images) != n or len(d_images) != n - 1:
            raise MismatchError("need one image per generator")
        if any(g.p != p or g.n != n for g in (*x_images, *d_images)):
            raise MismatchError("generator image over a different ring")
        self.p = p
        self.n = n
        self.x_images = tuple(x_images)
        self.d_images = tuple(d_images)
        self._x_shifts = tuple(
            tuple(
                (tuple(e - (j == i) for j, e in enumerate(b)), v) for b, v in f.terms.items()
            )
            for i, f in enumerate(x_images)
        )
        shifts = {2 * sum(m) - 2 for f in x_images for m in f.terms}
        self.shift: int | None = None
        if len(shifts) <= 1:
            self.shift = shifts.pop() if shifts else 2
        self._d_permutation: dict[tuple[int, ...], dict] = {}

    def _poly_terms(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        """Terms of d applied to the polynomial with these terms:
        d(x^m) = sum_i m_i x^(m - e_i) d(x_i)."""
        out: dict[Monomial, int] = {}
        get = out.get
        shifts = self._x_shifts
        for m, c in terms.items():
            for i, e in enumerate(m):
                if e:
                    ce = c * e
                    for delta, v in shifts[i]:
                        key = tuple(map(add, m, delta))
                        out[key] = get(key, 0) + ce * v
        return reduce_terms(out, self.p)

    def apply_poly(self, f: Polynomial) -> Polynomial:
        f._check_compatible(self)
        return Polynomial._raw(self.p, self.n, self._poly_terms(f.terms))

    def apply_words(self, words) -> NilHeckeElement:
        """d of a sum ((coeff, letters), ...) of generator words, by the
        Leibniz rule letter by letter."""
        p, n = self.p, self.n
        out = NilHeckeElement.zero(p, n)
        for c, word in words:
            for j, (kind, i) in enumerate(word):
                if kind == "x":
                    image = NilHeckeElement.from_polynomial(self.x_images[i - 1])
                else:
                    image = self.d_images[i - 1]
                head = NilHeckeElement.from_word(p, n, word[:j], c)
                tail = NilHeckeElement.from_word(p, n, word[j + 1 :])
                out = out + head * image * tail
        return out

    def _permutation_terms(self, images: tuple[int, ...]) -> dict:
        """Terms of d(D_w), by the word Leibniz rule along the reduced
        word of w on the first call for w."""
        terms = self._d_permutation.get(images)
        if terms is None:
            terms = self.apply_words(((1, _reduced_word(images)),)).terms
            self._d_permutation[images] = terms
        return terms

    def _nh_terms(self, terms: dict) -> dict:
        """Terms of d applied to the nilHecke element with these basis
        terms, by Leibniz on the basis: d(x^a D_w) = d(x^a) D_w + x^a
        d(D_w).  d(x^a) D_w is written from the exponent shifts as in
        _poly_terms, and x^a d(D_w) shifts the exponents of the cached
        d(D_w)."""
        out: dict = {}
        get = out.get
        shifts = self._x_shifts
        for (exps, images), c in terms.items():
            for i, a in enumerate(exps):
                if a:
                    ca = c * a
                    for delta, v in shifts[i]:
                        key = (tuple(map(add, exps, delta)), images)
                        out[key] = get(key, 0) + ca * v
            for (b, w), v in self._permutation_terms(images).items():
                key = (tuple(map(add, exps, b)), w)
                out[key] = get(key, 0) + c * v
        return reduce_terms(out, self.p)

    def apply_nh(self, e: NilHeckeElement) -> NilHeckeElement:
        e._check_compatible(self)
        return NilHeckeElement._raw(self.p, self.n, self._nh_terms(e.terms))


def khovanov_qi_derivation(p: int, n: int) -> Derivation:
    """The differential with x_i -> x_i^2 and D_i -> -(x_i + x_{i+1}) D_i:
    twisted_derivation(p, n, 0).

    At p = 2 the sign is invisible.  At odd primes this sign on the D_i
    image is the one compatible with the Leibniz extension across the
    relation D_i x_i - x_{i+1} D_i = 1; it is the commutator with the
    polynomial differential.
    """
    return twisted_derivation(p, n, 0)


def twisted_derivation(p: int, n: int, a: int) -> Derivation:
    """The twisted differential: x_i -> x_i^2 and
    D_i -> a - (a+1) x_i D_i + (a-1) x_{i+1} D_i.

    Setting a = 0 gives khovanov_qi_derivation.  The family arises by
    conjugating the polynomial differential with multiplication by
    x_2^a x_3^{2a} ... x_n^{(n-1)a}; the tests check the images against
    that conjugation (conjugated_twist_image in tests/oracles.py).  The
    images are written on their normal-form labels: x_i D_i is x^(e_i)
    D_(s_i).
    """
    _require_derivation_budget(p, n)
    zero = (0,) * n
    identity = tuple(range(1, n + 1))
    unit = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]  # unit[i] = e_(i+1)
    x_images = [Polynomial._raw(p, n, {tuple(2 * e for e in m): 1}) for m in unit]
    d_images = []
    for i in range(1, n):
        s_i = identity[: i - 1] + (i + 1, i) + identity[i + 1 :]
        terms = {(zero, identity): a, (unit[i - 1], s_i): -(a + 1), (unit[i], s_i): a - 1}
        d_images.append(NilHeckeElement._raw(p, n, reduce_terms(terms, p)))
    return Derivation(p, n, x_images, d_images)


# -- defining relations -------------------------------------------------


def nilhecke_relations(p: int, n: int) -> list[tuple[str, tuple, tuple]]:
    """The defining relations (name, left side, right side); each side is
    a sum of generator words ((coefficient mod p, letters), ...)."""
    x = lambda i: ("x", i)
    d = lambda i: ("d", i)
    word = lambda *letters, c=1: ((c % p, letters),)
    one = word()
    zero = ()
    rels = []
    for i in range(1, n):
        rels.append((f"D{i}^2 = 0", word(d(i), d(i)), zero))
        rels.append((f"x{i}*D{i} - D{i}*x{i + 1} = 1", word(x(i), d(i)) + word(d(i), x(i + 1), c=-1), one))
        rels.append((f"D{i}*x{i} - x{i + 1}*D{i} = 1", word(d(i), x(i)) + word(x(i + 1), d(i), c=-1), one))
    for i in range(1, n - 1):
        rels.append((f"braid {i},{i + 1}", word(d(i), d(i + 1), d(i)), word(d(i + 1), d(i), d(i + 1))))
    for i in range(1, n):
        for j in range(1, n + 1):
            if abs(i - j) > 1:
                rels.append((f"D{i}*x{j} commute", word(d(i), x(j)), word(x(j), d(i))))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((f"D{i}*D{j} commute", word(d(i), d(j)), word(d(j), d(i))))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append((f"x{i}*x{j} commute", word(x(i), x(j)), word(x(j), x(i))))
    return rels


# -- graded spaces and operators ----------------------------------------


class GradedSpace:
    """Finite-dimensional graded F_p vector space with labelled bases.

    complete=True means the space is closed under the operators built on
    it (a finite quotient); complete=False marks a truncation whose top
    degrees are boundary artifacts.
    """

    def __init__(self, p: int, basis: dict[int, list], complete: bool):
        self.p = p
        self.basis = {d: list(labels) for d, labels in sorted(basis.items()) if labels}
        self.complete = complete
        self.monomial_powers: tuple[int, ...] | None = None
        self.index: dict = {}
        for d, labels in self.basis.items():
            for pos, label in enumerate(labels):
                self.index[label] = (d, pos)

    @property
    def degrees(self) -> list[int]:
        return list(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))


class GradedOperator:
    """Homogeneous operator of fixed degree shift, stored as sparse columns.

    columns[d] lists, for each basis vector at degree d in order, its image
    {position at degree d + shift: coefficient in 1..p-1}.  A degree with
    no columns is a zero map when its source is empty or the space is
    complete, and a boundary degree otherwise.
    """

    def __init__(
        self, space: GradedSpace, shift: int, columns: dict[int, list[dict[int, int]]]
    ):
        self.space = space
        self.shift = shift
        self.columns = columns
        self._ranks: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_callable(cls, space: GradedSpace, fn, shift: int) -> "GradedOperator":
        """Build the columns from fn: label -> {label: coefficient in
        1..p-1}, one index lookup per entry.

        For incomplete spaces, any image outside the space marks the whole
        source degree as a boundary degree (no columns stored).
        """
        where = space.index.get
        columns: dict[int, list[dict[int, int]]] = {}
        for d, labels in space.basis.items():
            cols = []
            for label in labels:
                col = {}
                for out_label, c in fn(label).items():
                    found = where(out_label)
                    if found is None:
                        if space.complete:
                            raise StructureError(
                                f"image of {label!r} leaves a complete space"
                            )
                        col = None
                        break
                    if found[0] != d + shift:
                        raise StructureError(
                            f"operator is not homogeneous of degree {shift}"
                        )
                    col[found[1]] = c
                if col is None:
                    break  # a boundary degree
                cols.append(col)
            else:
                columns[d] = cols
        return cls(space, shift, columns)

    def ranks(self, d: int) -> tuple[int, ...]:
        """Ranks of d^0, d^1, ..., d^j out of degree d, with j = p unless
        the chain reaches a boundary degree first.

        _echelon picks from the columns out of degree d a basis of im d;
        then a basis of im d^(i-1) is pushed through d and reduced by
        _echelon to a basis of im d^i, so step i eliminates at most rank
        d^(i-1) sparse vectors.  The basis is made of columns of d^i, which
        stay as sparse as they are; their coefficients are reduced mod p
        as they are pushed.  The chain is kept per degree."""
        chain = self._ranks.get(d)
        if chain is not None:
            return chain
        space = self.space
        p = space.p
        out = [space.dim(d)]
        for step in range(p):
            cur = d + step * self.shift
            cols = self.columns.get(cur)
            if cols is None:
                if space.dim(cur) and not space.complete:
                    break  # a boundary degree
                basis = []  # a zero map
            elif step == 0:
                basis = _echelon(cols, p)
            else:
                images = []
                for vec in basis:
                    image: dict[int, int] = {}
                    get = image.get
                    for i, c in vec.items():
                        c %= p
                        if c:
                            for j, v in cols[i].items():
                                image[j] = get(j, 0) + c * v
                    images.append(image)
                basis = _echelon(images, p)
            out.append(len(basis))
        chain = self._ranks[d] = tuple(out)
        return chain


def margolis_homology(
    space: GradedSpace, op: GradedOperator, s: int
) -> tuple[dict[int, int], list[int]]:
    """Graded dimensions of ker(d^s) / im(d^(p-s)) on the space.

    s = p - 1 gives ker d^(p-1) / im d.  Verifies d^p = 0 wherever the
    composite stays inside the space; incomplete truncations exclude the
    top boundary band, and the excluded degrees are returned alongside
    the dimension vector (nonzero entries only).  Everything is read from
    the operator's rank chains, so further values of s reuse them.
    """
    p = space.p
    if not 1 <= s <= p - 1:
        raise DomainError(f"power s={s} must lie in 1..{p - 1}")
    for d in space.degrees:
        ranks = op.ranks(d)
        if len(ranks) > p and ranks[p]:
            raise StructureError("operator is not p-nilpotent on this space")
    # a source of d^(p-s) may lie outside the space: its chain of empty
    # images still decides whether the target degree is excluded
    lag = op.shift * (p - s)
    dims: dict[int, int] = {}
    excluded: list[int] = []
    for d in space.degrees:
        ker = op.ranks(d)
        im = op.ranks(d - lag)
        if len(ker) <= s or len(im) <= p - s:
            excluded.append(d)
            continue
        value = space.dim(d) - ker[s] - im[p - s]
        if value:
            dims[d] = value
    return dims, excluded


# -- builders ------------------------------------------------------------


# The work budget of a pdg query.  A graded space, or the p-nilpotency
# sweep of verify_pdg, may hold at most BASIS_BUDGET basis elements, and
# those elements times p at most WORK_BUDGET: each element takes up to p
# steps of a rank chain or of the sweep.  A derivation on n variables
# writes n images of n exponents, so n * n may be at most WORK_BUDGET.
BASIS_BUDGET = 100_000
WORK_BUDGET = 300_000


def _require_grading(p: int, n: int, degree_bound: int) -> None:
    require_ring(p, n)
    if degree_bound < 0:
        raise DomainError(f"degree bound {degree_bound} must be nonnegative")


def _nh_label_count(n: int, half: int, cap: int) -> int:
    """Number of normal-form labels (a, w) of NH_n with |a| <= half +
    l(w), or some number above cap once it is known to exceed it: the sum
    over lengths l of C(half + l + n, n) times the number of permutations
    with l inversions.  Every permutation has a label (a = 0), so n! above
    the cap decides before those numbers are made."""
    size = capped_factorial(n, cap)
    if size > cap:
        return size
    inversions = [1]  # inversions[l]: permutations of 1..i with l inversions
    for i in range(2, n + 1):
        inversions = [
            sum(inversions[max(0, l - i + 1) : l + 1]) for l in range(len(inversions) + i - 1)
        ]
    total = 0
    for length, count in enumerate(inversions):
        total += count * capped_binomial(half + length + n, n, cap)
        if total > cap:
            break
    return total


def _require_basis_budget(
    p: int, n: int, top_degree: int, monomials: bool, labels: bool
) -> None:
    """Raise DomainError when the basis up to top_degree holds more than
    BASIS_BUDGET elements, or its elements times p are more than
    WORK_BUDGET, counted before any element is made: the C(top_degree // 2
    + n, n) monomials, and the nilHecke labels."""
    half = top_degree // 2
    size = 0
    if monomials:
        size += capped_binomial(half + n, n, BASIS_BUDGET)
    if labels:
        size += _nh_label_count(n, half, BASIS_BUDGET)
    over = f"the basis up to degree {top_degree} with n={n} is over the work budget"
    if size > BASIS_BUDGET:
        raise DomainError(f"{over}: it holds more than {BASIS_BUDGET} elements")
    if size * p > WORK_BUDGET:
        raise DomainError(
            f"{over}: its {size} elements take up to p={p} steps each, "
            f"more than {WORK_BUDGET} in all"
        )


def _require_derivation_budget(p: int, n: int) -> None:
    """Raise DomainError when a derivation on n variables is over the
    work budget, before any of its images is made."""
    require_ring(p, n)
    if n * n > WORK_BUDGET:
        raise DomainError(
            f"the derivation with n={n} is over the work budget: its images hold "
            f"n*n = {n * n} exponents, more than {WORK_BUDGET}"
        )


def polynomial_space(
    p: int, n: int, top_degree: int, powers: tuple[int, ...] | None = None
) -> GradedSpace:
    """Monomial basis of F_p[x_1..x_n], degree |x_i| = 2, up to top_degree.

    With powers given, monomials with exps[i] >= powers[i] are struck out
    (the quotient by those monomial powers); the space is complete when
    the whole quotient fits under the degree cap.
    """
    _require_grading(p, n, top_degree)
    _require_basis_budget(p, n, top_degree, monomials=True, labels=False)
    if powers is not None and len(powers) != n:
        raise MismatchError("need one power per variable")
    basis: dict[int, list[Monomial]] = {}
    for exps in monomials_up_to_degree(n, top_degree):
        if powers is not None and any(e >= k for e, k in zip(exps, powers)):
            continue
        basis.setdefault(2 * sum(exps), []).append(exps)
    complete = powers is not None and 2 * sum(k - 1 for k in powers) <= top_degree
    space = GradedSpace(p, basis, complete)
    space.monomial_powers = tuple(powers) if powers is not None else None
    return space


def _require_shift(d: Derivation) -> int:
    if d.shift is None:
        raise StructureError("the derivation has no uniform degree shift")
    return d.shift


def derivation_operator(
    space: GradedSpace, d: Derivation, n: int
) -> GradedOperator:
    """The derivation d on a monomial space in n variables, which must be
    d's own."""
    if n != d.n:
        raise MismatchError(f"a derivation in {d.n} variables on monomials in {n}")
    shift = _require_shift(d)
    powers = space.monomial_powers

    def fn(exps: Monomial) -> dict[Monomial, int]:
        # on a monomial-power quotient, striking out the monomials in the
        # ideal is the induced map: d only raises exponents, so the ideal
        # is stable under it
        terms = d._poly_terms({exps: 1})
        if powers is None:
            return terms
        return {m: c for m, c in terms.items() if all(e < k for e, k in zip(m, powers))}

    return GradedOperator.from_callable(space, fn, shift)


def _nh_labels(n: int, top_degree: int) -> list[tuple[int, tuple]]:
    """(degree, label) for the normal-form basis labels (exponents,
    permutation images) of NH_n with operator degree 2|a| - 2 l(w) at
    most top_degree, by degree: for each w in turn, the monomials with
    |a| <= top_degree // 2 + l(w), a prefix of the monomials enumerated
    once at the bound of the longest permutation."""
    perms = all_permutations(n)
    lengths = [w.length() for w in perms]
    monos = monomials_up_to_degree(n, top_degree + 2 * max(lengths))
    totals = [sum(m) for m in monos]
    half = top_degree // 2
    out = []
    for w, length in zip(perms, lengths):
        stop = bisect_right(totals, half + length)
        for exps, total in zip(monos[:stop], totals):
            out.append((2 * (total - length), (exps, w.images)))
    return sorted(out, key=itemgetter(0))


def nilhecke_space(p: int, n: int, top_degree: int) -> GradedSpace:
    """Normal-form basis (exponents, permutation) of NH_n with operator
    degree 2|a| - 2 l(w) at most top_degree."""
    _require_grading(p, n, top_degree)
    _require_basis_budget(p, n, top_degree, monomials=False, labels=True)
    basis: dict[int, list] = {}
    for deg, label in _nh_labels(n, top_degree):
        basis.setdefault(deg, []).append(label)
    return GradedSpace(p, basis, complete=False)


def nh_derivation_operator(space: GradedSpace, d: Derivation) -> GradedOperator:
    shift = _require_shift(d)
    return GradedOperator.from_callable(space, lambda label: d._nh_terms({label: 1}), shift)


# -- verification --------------------------------------------------------

# Random product pairs verify_pdg checks the Leibniz rule on, per side.
LEIBNIZ_SAMPLES = 40


def verify_pdg(d: Derivation, degree_bound: int = 20, seed: int = 0) -> dict:
    """Check the p-DG axioms for a derivation.

    Returns a report with leibniz_ok (LEIBNIZ_SAMPLES random products,
    polynomial and operator sides), relations_ok (the Leibniz extension
    is well defined across every defining relation), p_nilpotent_ok (the
    p-th power of the derivation vanishes on every basis element up to
    the degree bound: the monomials, and the operators x^a D_w when the
    relations hold), and a failure list.
    """
    p, n = d.p, d.n
    _require_grading(p, n, degree_bound)
    _require_basis_budget(p, n, degree_bound, monomials=True, labels=True)
    rng = random.Random(seed)
    failures: list[str] = []

    mono_pool = [m for m in monomials_up_to_degree(n, degree_bound // 2) if sum(m)]
    if not mono_pool:  # degree_bound < 4: the pairs are drawn from the variables
        mono_pool = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    sides = (
        ("polynomial", d.apply_poly, lambda: _random_poly(rng, p, n, mono_pool)),
        (
            "operator",
            d.apply_nh,
            lambda: NilHeckeElement.from_word(p, n, *random_nh_word(rng, p, n)),
        ),
    )
    leibniz_ok = True
    for side, apply, draw in sides:
        for _ in range(LEIBNIZ_SAMPLES):
            u, v = draw(), draw()
            if apply(u * v) != apply(u) * v + u * apply(v):
                leibniz_ok = False
                failures.append(f"{side} Leibniz fails on {u} | {v}")
                break

    relations_ok = True
    for name, lhs, rhs in nilhecke_relations(p, n):
        if d.apply_words(lhs) != d.apply_words(rhs):
            relations_ok = False
            failures.append(f"not well defined on relation {name}")

    p_nilpotent_ok = True
    m = _first_non_nilpotent(d, monomials_up_to_degree(n, degree_bound))
    if m is not None:
        p_nilpotent_ok = False
        failures.append(f"d^{p} != 0 on the monomial with exponents {m}")
    if relations_ok:
        basis = [label for _, label in _nh_labels(n, degree_bound)]
        label = _first_non_nilpotent(d, basis, labels=True)
        if label is not None:
            p_nilpotent_ok = False
            failures.append(f"d^{p} != 0 on x^{label[0]} D_{label[1]}")

    return {
        "leibniz_ok": leibniz_ok,
        "relations_ok": relations_ok,
        "p_nilpotent_ok": p_nilpotent_ok,
        "all_ok": leibniz_ok and relations_ok and p_nilpotent_ok,
        "failures": failures,
    }


def _first_non_nilpotent(d: Derivation, basis, labels: bool = False):
    """The first basis element, in the order given, on which d^p is
    nonzero, or None: the basis holds monomials, or with labels the
    normal-form labels (exponents, permutation images).  Swept by
    nilhecke.least_failure one element at a time.

    Each element is a packed int (nilhecke._pack): the exponents in fields
    of width bits, and for a label the index of its permutation among
    all_permutations(n) above them.  A row, d of one key as (key,
    coefficient) pairs, is written by _nilpotence_rows and kept per key in
    the process, so the p-fold iterations share the rows.  width holds the
    largest exponent plus p times the most one step raises one (none when
    every step only lowers), so no field overflows in p steps."""
    p = d.p
    perms = [w.images for w in all_permutations(d.n)] if labels else []
    rise = max(
        [0]
        + [e for shifts in d._x_shifts for delta, _ in shifts for e in delta]
        + [e for w in perms for b, _ in d._permutation_terms(w) for e in b]
    )
    where = {w: j for j, w in enumerate(perms)}
    fields = [(exps, where[w]) for exps, w in basis] if labels else [(m, 0) for m in basis]
    width = (max((max(exps) for exps, _ in fields), default=0) + p * rise).bit_length() or 1
    keys = [_pack(exps, width, j) for exps, j in fields]
    row = _nilpotence_rows(d, width, perms)
    rows: dict[int, tuple] = {}

    def fails(key) -> bool:
        terms = {key: 1}
        for step in range(p):
            out: dict[int, int] = {}
            for k, c in terms.items():
                r = rows.get(k)
                if r is None:
                    r = rows[k] = row(k)
                for j, v in r:
                    if j in out:
                        out[j] += c * v
                    else:
                        out[j] = c * v
            if step == p - 1:
                return any(c % p for c in out.values())
            terms = {j: r for j, c in out.items() if (r := c % p)}

    found = least_failure(keys, first_key_check(fails))
    return None if found is None else basis[found[1]]


def _nilpotence_rows(d: Derivation, width: int, perms: list):
    """row(key): d of the basis element with this packed key (see
    _first_non_nilpotent) as (key, coefficient mod p) pairs, built from two
    offset tables.  perms lists the permutations of a label's field, in
    the order of its values, and is empty for monomials.

    d(x^a) = sum_i a_i x^(a - e_i) d(x_i): the table of x_i packs the
    shifts (b - e_i, v) of Derivation._x_shifts, each read with
    coefficient a_i * v for the field a_i of x_i.  A shift lowers only
    that field, by one at most, and it is read only when the field is at
    least 1, so no field borrows.  A label x^a D_w adds x^a d(D_w): the
    table of w packs each term (b, w') of d(D_w) with the permutation
    field moved from w to w'."""
    p = d.p
    mask = (1 << width) - 1
    by_variable = [
        (width * i, tuple((_pack(delta, width), v) for delta, v in shifts))
        for i, shifts in enumerate(d._x_shifts)
        if shifts
    ]
    where = {w: j for j, w in enumerate(perms)}
    top = width * d.n
    by_permutation = [
        tuple((_pack(b, width, where[u] - j), v) for (b, u), v in d._permutation_terms(w).items())
        for j, w in enumerate(perms)
    ]

    def row(key) -> tuple:
        out: dict[int, int] = {}
        for shift, shifts in by_variable:
            a = key >> shift & mask
            if a:
                for offset, v in shifts:
                    k = key + offset
                    out[k] = out.get(k, 0) + a * v
        if by_permutation:
            for offset, v in by_permutation[key >> top]:
                k = key + offset
                out[k] = out.get(k, 0) + v
        return tuple((k, r) for k, c in out.items() if (r := c % p))

    return row


def _random_poly(rng, p, n, pool) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(pool)] = rng.randrange(1, p)
    return Polynomial(p, n, terms)


def random_nh_word(rng, p: int, n: int, max_len: int = 4) -> tuple[tuple, int]:
    """A random generator word of one to max_len letters, each x or D with
    probability 1/2, and a nonzero coefficient; only x letters when n = 1."""
    letters = []
    for _ in range(rng.randint(1, max_len)):
        if n == 1 or rng.random() < 0.5:
            letters.append(("x", rng.randint(1, n)))
        else:
            letters.append(("d", rng.randint(1, n - 1)))
    return tuple(letters), rng.randrange(1, p)

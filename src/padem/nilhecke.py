"""The nilHecke algebra NH_n: elements in the x^a * D_w basis, their
action on polynomials, and Schubert polynomials.

An element is stored as {(exponents, permutation images): c}, one
coefficient per basis operator x^a * D_w, with w in one-line notation.
Products stay in the basis by the left-multiplication rule

    D_i * x^a D_w = d_i(x^a) D_w + x^{s_i a} D_{s_i w},

where the second term is present only when l(s_i w) > l(w).  This is the
relation D_i x_i - x_{i+1} D_i = 1 read as D_i f = d_i(f) + s_i(f) D_i,
together with D_i D_w = D_{s_i w} or 0, which subsumes D_i^2 = 0 and the
braid relation.  The divided difference of a monomial has the closed
form (x^a y^b - x^b y^a) / (x - y) = +-(xy)^min(a,b) h_{|a-b|-1}(x, y),
cached per exponent pair; it is the one closed form behind
divided_difference, apply, the product and the relation sweep.

Words over the letters ('x', i) for multiplication by x_i and ('d', j)
for the divided difference at j are an input format: from_word
multiplies them into the basis, and apply_word composes the generator
actions one letter at a time on the terms of a polynomial as the
word-level reference.  The letters of each D_w are kept in one cached
table, _reduced_word, read by every kernel.

least_failure is the one driver of the exhaustive sweeps: it runs the
keys in runs of SWEEP_CHUNK, each a task of pool.fork_map, and returns
the least failure.  first_key_check tries one key at a time (the
certificate of reconstruct_operator, sym_linearity_check, verify's top
power, and pdg's p-nilpotence sweeps, whose keys are _pack ints);
packed_check packs a run of monomials into ints, a field per exponent,
for first_word_sum_mismatch (the relation sweep: one pass for a whole
list of relations) and verify's commutator.  Every letter on packed keys
is one of two kernels: _add_product multiplies by a packed polynomial,
the same row for every key (x_i, the empty word, s_i), and
_add_field_map writes a tuple kernel of a run of fields (D_j by
_dd_pair, P^k by steenrod._act_power_monomial).  Elements are immutable
after construction.
"""

from __future__ import annotations

import functools
import itertools
from operator import add

from .arith import LinearCombination, capped_binomial, capped_factorial, reduce_terms, require_ring
from .errors import DomainError, MismatchError, ReconstructionError
from .pool import fork_map
from .poly import (
    Monomial,
    Polynomial,
    _check_exponents,
    _monomial_factors,
    elementary_symmetric,
    grlex_key,
    monomials_up_to_degree,
)

Letter = tuple[str, int]
Word = tuple[Letter, ...]
BasisKey = tuple[Monomial, tuple[int, ...]]


class Permutation:
    """Permutation of {1..n} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError(f"{images} is not a permutation of 1..{len(images)}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def transposition(cls, n: int, j: int) -> "Permutation":
        if not 1 <= j < n:
            raise DomainError(f"transposition index {j} out of range")
        images = list(range(1, n + 1))
        images[j - 1], images[j] = images[j], images[j - 1]
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self*other)(i) = self(other(i))."""
        if self.n != other.n:
            raise MismatchError("permutations of different sizes")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Number of inversions."""
        return len(_reduced_word(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


@functools.cache
def _reduced_word(images: tuple[int, ...]) -> Word:
    """The letters ('d', j) of D_w for the permutation w with these
    images, along its lexicographically least reduced word: peel off the
    least left descent j of w (j + 1 stands before j in one-line
    notation) and continue with s_j w.  pos[v] is the position of v in
    s_j ... w; swapping j and j + 1 moves only the descents at j - 1, j
    and j + 1, so the next least descent is at j - 1 or later."""
    pos = [0] * (len(images) + 1)
    for i, v in enumerate(images):
        pos[v] = i
    word = []
    j = 1
    while True:
        j = next((k for k in range(max(j - 1, 1), len(images)) if pos[k] > pos[k + 1]), None)
        if j is None:
            return tuple(word)
        word.append(("d", j))
        pos[j], pos[j + 1] = pos[j + 1], pos[j]


def _raise_length(images: tuple[int, ...], i: int) -> tuple[int, ...] | None:
    """Images of s_i w when l(s_i w) > l(w), that is when i stands before
    i + 1 in one-line notation; None otherwise."""
    a, b = images.index(i), images.index(i + 1)
    if a > b:
        return None
    out = list(images)
    out[a], out[b] = i + 1, i
    return tuple(out)


@functools.cache
def _dd_pair(ab: tuple[int, int]) -> tuple[tuple[tuple[int, int], int], ...]:
    """(x^a y^b - x^b y^a) / (x - y) for ab = (a, b) as terms ((exponent
    of x, exponent of y), sign): +-(xy)^min(a,b) h_{|a-b|-1}(x, y), plus
    when a > b."""
    a, b = ab
    lo, hi = min(a, b), max(a, b)
    sign = 1 if a > b else -1
    return tuple(((lo + t, hi - 1 - t), sign) for t in range(hi - lo))


def _add_term(terms: dict, key, c: int, p: int) -> None:
    v = (terms.get(key, 0) + c) % p
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


def _left_multiply(p: int, word: Word, terms: dict[BasisKey, int]) -> dict[BasisKey, int]:
    """word * (sum of basis terms), the rightmost letter first."""
    for kind, i in reversed(word):
        if kind == "x":
            terms = {
                (exps[: i - 1] + (exps[i - 1] + 1,) + exps[i:], images): c
                for (exps, images), c in terms.items()
            }
            continue
        out: dict[BasisKey, int] = {}
        for (exps, images), c in terms.items():
            head, tail = exps[: i - 1], exps[i + 1 :]
            for xy, sign in _dd_pair(exps[i - 1 : i + 1]):
                _add_term(out, (head + xy + tail, images), c * sign, p)
            raised = _raise_length(images, i)
            if raised is not None:
                _add_term(out, (head + (exps[i], exps[i - 1]) + tail, raised), c, p)
        terms = out
    return terms


def _check_word(n: int, word: Word) -> None:
    """Raise DomainError at the first letter of word, in order, that is
    not a generator of NH_n."""
    for kind, i in word:
        if kind == "x":
            if not 1 <= i <= n:
                raise DomainError(f"X index {i} out of range 1..{n}")
        elif kind == "d":
            if not 1 <= i < n:
                raise DomainError(f"D index {i} out of range 1..{n - 1}")
        else:
            raise DomainError(f"unknown letter kind {kind!r}")


def _divided_difference_terms(
    terms: dict[Monomial, int], j: int, p: int
) -> dict[Monomial, int]:
    """Terms of the divided difference at j of the polynomial with these
    terms, monomial by monomial in closed form."""
    out: dict[Monomial, int] = {}
    get = out.get
    for m, c in terms.items():
        head, tail = m[: j - 1], m[j + 1 :]
        for xy, sign in _dd_pair(m[j - 1 : j + 1]):
            key = head + xy + tail
            v = (get(key, 0) + c * sign) % p
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def divided_difference(f: Polynomial, j: int) -> Polynomial:
    """(f - s_j f) / (x_j - x_{j+1}), monomial by monomial in closed form."""
    if not 1 <= j < f.n:
        raise DomainError(f"divided difference index {j} out of range 1..{f.n - 1}")
    return Polynomial._raw(f.p, f.n, _divided_difference_terms(f.terms, j, f.p))


class NilHeckeElement(LinearCombination):
    """F_p-linear combination of the basis operators x^a * D_w acting on
    F_p[x_1..x_n], stored (exponents, permutation images) -> nonzero
    coefficient."""

    __slots__ = ()

    def _check_key(self, key) -> BasisKey:
        exps, images = key
        exps = _check_exponents(exps, self.n)
        images = Permutation(images).images
        if len(images) != self.n:
            raise MismatchError(
                f"permutation {images} has wrong length for {self.n} variables"
            )
        return exps, images

    def _unit_key(self) -> BasisKey:
        return (0,) * self.n, tuple(range(1, self.n + 1))

    def _product(self, other: "NilHeckeElement") -> dict[BasisKey, int]:
        p = self.p
        heads: dict[tuple[int, ...], list[tuple[Monomial, int]]] = {}
        for (exps, images), c in self.terms.items():
            heads.setdefault(images, []).append((exps, c))
        new: dict[BasisKey, int] = {}
        for images, monomials in heads.items():
            tail = _left_multiply(p, _reduced_word(images), other.terms)
            for a, c1 in monomials:
                for (b, w), c2 in tail.items():
                    _add_term(new, (tuple(map(add, a, b)), w), c1 * c2, p)
        return new

    @staticmethod
    def _sort_key(key: BasisKey):
        return grlex_key(key[0]), key[1]

    @staticmethod
    def _key_factors(key: BasisKey) -> list[str]:
        exps, images = key
        return _monomial_factors(exps) + [f"D{j}" for _, j in _reduced_word(images)]

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, p: int, n: int) -> "NilHeckeElement":
        return cls(p, n)

    @classmethod
    def one(cls, p: int, n: int) -> "NilHeckeElement":
        return cls(p, n, {((0,) * n, tuple(range(1, n + 1))): 1})

    @classmethod
    def x_gen(cls, p: int, n: int, i: int) -> "NilHeckeElement":
        return cls.from_word(p, n, (("x", i),))

    @classmethod
    def d_gen(cls, p: int, n: int, j: int) -> "NilHeckeElement":
        return cls.from_word(p, n, (("d", j),))

    @classmethod
    def from_word(cls, p: int, n: int, word: Word, coeff: int = 1) -> "NilHeckeElement":
        """coeff times the product of the letters of word."""
        require_ring(p, n)
        _check_word(n, word)
        c = coeff % p
        unit = {((0,) * n, tuple(range(1, n + 1))): c} if c else {}
        return cls._raw(p, n, _left_multiply(p, tuple(word), unit))

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "NilHeckeElement":
        """The multiplication operator of a polynomial."""
        identity = tuple(range(1, f.n + 1))
        return cls._raw(f.p, f.n, {(m, identity): c for m, c in f.terms.items()})

    def word_degree(self, word: Word) -> int:
        return 2 * sum(1 if kind == "x" else -1 for kind, _ in word)

    def degree(self):
        """Maximum degree 2|a| - 2 l(w) over the terms, or None if zero."""
        if not self.terms:
            return None
        return max(2 * sum(exps) - 2 * len(_reduced_word(im)) for exps, im in self.terms)

    # -- action ------------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Act on a polynomial: x^a * D_w sends f to x^a * D_w(f)."""
        self._check_compatible(f)
        p = self.p
        return Polynomial._raw(p, self.n, reduce_terms(_apply_terms(self.terms, f.terms, p), p))

    def normalize(self) -> "NilHeckeElement":
        """The element itself: elements are stored in the x^a * D_w basis."""
        return self


def _apply_terms(
    terms: dict[BasisKey, int], f_terms: dict[Monomial, int], p: int
) -> dict[Monomial, int]:
    """Terms, not yet reduced mod p, of the element with these basis terms
    applied to the polynomial with terms f_terms.  D_w(f) is computed once
    per permutation w and shifted by each x^a in front of it; x^0 needs no
    shift."""
    out: dict[Monomial, int] = {}
    get = out.get
    d_images: dict[tuple[int, ...], dict[Monomial, int]] = {}
    for (exps, images), c in terms.items():
        g = d_images.get(images)
        if g is None:
            g = d_images[images] = _word_terms(_reduced_word(images), f_terms, p)
        if any(exps):
            for m, v in g.items():
                key = tuple(map(add, m, exps))
                out[key] = get(key, 0) + c * v
        else:
            for m, v in g.items():
                out[m] = get(m, 0) + c * v
    return out


# Most terms one apply may make, as counted by _apply_term_count.
APPLY_TERM_BUDGET = 1_000_000


def _apply_term_count(e: NilHeckeElement, f: Polynomial, cap: int) -> int:
    """An upper bound on the terms e.apply(f) makes, or some number above
    cap once it is known to exceed it; counted from the degrees of f's
    monomials, before any term is made.

    D_w(f) is computed once per permutation w of e, one divided
    difference at a time.  A divided difference splits a monomial of
    degree d into at most d monomials of degree d - 1, and there are
    C(d - 1 + n - 1, n - 1) of those, so on one monomial the smaller of
    the two bounds, taken letter by letter, caps the terms after each
    letter.  Each term x^a D_w of e then makes a shifted copy of D_w(f)."""
    n = e.n
    degrees: dict[int, int] = {}
    for m in f.terms:
        d = sum(m)
        degrees[d] = degrees.get(d, 0) + 1
    heads: dict[tuple[int, ...], int] = {}
    for _, images in e.terms:
        heads[images] = heads.get(images, 0) + 1
    total = 0
    for images, count in heads.items():
        length = len(_reduced_word(images))
        for d, monomials in degrees.items():
            size = 1  # terms after the letters so far, on one monomial
            for k in range(1, length + 1):
                size = min(size * max(d - k + 1, 0), capped_binomial(d - k + n - 1, n - 1, cap))
                total += monomials * size
            total += count * monomials * size
            if total > cap:
                return total
    return total


def require_apply_budget(e: NilHeckeElement, f: Polynomial) -> None:
    """Raise DomainError when e.apply(f) may make more than
    APPLY_TERM_BUDGET terms."""
    if _apply_term_count(e, f, APPLY_TERM_BUDGET) > APPLY_TERM_BUDGET:
        raise DomainError(
            f"applying this element is over the work budget: it may make "
            f"more than {APPLY_TERM_BUDGET} terms"
        )


def _word_terms(word: Word, terms: dict[Monomial, int], p: int) -> dict[Monomial, int]:
    """Terms of word applied to the polynomial with these terms, one
    letter at a time, rightmost first: ('x', i) bumps the exponent of x_i
    in every monomial, ('d', j) is the divided difference at j.  The
    tuple-keyed kernel behind apply_word and apply; the relation sweep
    runs the same letters on packed int keys (_add_packed_word)."""
    for kind, i in reversed(word):
        if kind == "x":
            terms = {m[: i - 1] + (m[i - 1] + 1,) + m[i:]: c for m, c in terms.items()}
        else:
            terms = _divided_difference_terms(terms, i, p)
    return terms


def apply_word(word: Word, f: Polynomial) -> Polynomial:
    """Apply the letters of word to f one generator at a time, rightmost
    first.  The word-level reference for the basis arithmetic."""
    _check_word(f.n, word[::-1])
    return Polynomial._raw(f.p, f.n, _word_terms(word, f.terms, f.p))


# Keys per run of least_failure: enough to spread the cost of a packed
# letter, or of a fork, over many keys, few enough that a run's term
# dicts, and so peak memory, stay small; a shorter sweep never forks.
SWEEP_CHUNK = 64


def _pack(exps, width: int, top: int = 0) -> int:
    """The exponents packed into one int, the exponent of x_i in the width
    bits from width * (i - 1) up, with top in the bits above them.  The
    fields are added, so negative entries pack an offset: adding it to a
    key whose fields stay nonnegative moves each field by its entry."""
    key = top
    for e in reversed(exps):
        key = (key << width) + e
    return key


def _field_width(exponents, lift: int) -> int:
    """Bits of a field that holds the largest entry of the exponent tuples
    plus lift, the most a caller's maps raise one, and at least one bit."""
    return (max(map(max, exponents), default=0) + lift).bit_length() or 1


def _add_product(terms: dict[int, int], row, scale: int, out: dict[int, int]) -> None:
    """Add scale times the product of the packed terms by the packed
    polynomial row, ((key, coefficient), ...), into out: a map with the
    same row for every key.  Coefficients are not reduced."""
    for step, v in row:
        v *= scale
        for k, c in terms.items():
            key = k + step
            if key in out:
                out[key] += v * c
            else:
                out[key] = v * c


def _field_offsets(fn, first: int, fields: int, bits: int, width: int) -> tuple:
    """(offset, coefficient) of each term (exponents, coefficient) of fn
    on the exponents that bits holds, read from the fields first to
    first + fields - 1 of a key: the offset takes the key to the packed
    term."""
    field = (1 << width) - 1
    exps = tuple(bits >> width * i & field for i in range(fields))
    return tuple(((_pack(m, width) - bits) << width * first, c) for m, c in fn(exps))


def _add_field_map(
    fn, first: int, fields: int, terms: dict[int, int], scale: int, out: dict, width: int, table
) -> None:
    """Add scale times a map of a run of fields to packed monomials into
    out: on each key it reads the exponents in fields first .. first +
    fields - 1 (0-based) and writes the terms fn(exponents) of the same
    fields, leaving the other fields as they are.  The offsets of each run
    of bits are kept in table (_field_offsets).  Coefficients are not
    reduced; the caller chooses width to hold the exponents fn makes."""
    shift = width * first
    run = (1 << width * fields) - 1
    for k, c in terms.items():
        bits = k >> shift & run
        offsets = table.get(bits)
        if offsets is None:
            offsets = table[bits] = _field_offsets(fn, first, fields, bits, width)
        c *= scale
        for offset, v in offsets:
            key = k + offset
            if key in out:
                out[key] += c * v
            else:
                out[key] = c * v


def _add_packed_letter(
    letter: Letter, terms: dict[int, int], scale: int, out: dict[int, int], width: int, tables
) -> None:
    """Add scale times the letter applied to packed monomials into out:
    ('x', i) is the product by the packed x_i, ('d', j) the field map of
    _dd_pair on the fields of x_j and x_{j+1}, its offsets kept in
    tables[j].  Coefficients are not reduced."""
    kind, i = letter
    if kind == "x":
        _add_product(terms, ((1 << width * (i - 1), 1),), scale, out)
    else:
        _add_field_map(_dd_pair, i - 1, 2, terms, scale, out, width, tables[i])


def _add_packed_word(
    word: Word, terms: dict[int, int], scale: int, out: dict[int, int], width: int, tables
) -> None:
    """Add scale times word applied to packed monomials into out, one
    letter at a time, rightmost first; the leftmost letter adds into out."""
    for letter in reversed(word[1:]):
        applied: dict[int, int] = {}
        _add_packed_letter(letter, terms, 1, applied, width, tables)
        terms = applied
    if word:
        _add_packed_letter(word[0], terms, scale, out, width, tables)
    else:
        _add_product(terms, ((0, 1),), scale, out)


class _EmptyRankFailure(Exception):
    """A failure of the empty rank, raised out of its task with its index."""


def least_failure(keys, check, calls=()):
    """The least (rank, index) of a failure that check finds on the keys,
    or None: the one driver of the exhaustive sweeps.

    check(run) gives None or (rank, index in the run), the rank a tuple,
    for each run of SWEEP_CHUNK keys, each a task of pool.fork_map with
    calls the functions check calls.  A failure of the empty rank, the
    least there is, is raised out of its task, so the sweep ends there in
    serial order; an exception of check is re-raised as fork_map states."""

    def task(t: int):
        start = t * SWEEP_CHUNK
        found = check(keys[start : start + SWEEP_CHUNK])
        if found and not found[0]:
            raise _EmptyRankFailure(start + found[1])
        return found and (found[0], start + found[1])

    try:
        found = fork_map(task, -(-len(keys) // SWEEP_CHUNK), calls)
    except _EmptyRankFailure as stop:
        return (), stop.args[0]
    return min(filter(None, found), default=None)


def first_key_check(fails):
    """A check of least_failure: ((), index) of a run's first failing key."""
    return lambda run: next((((), i) for i, key in enumerate(run) if fails(key)), None)


def packed_check(monomials, p: int, n: int, lift: int, diffs):
    """A check of least_failure on runs of the monomials, each packed into
    {key: 1} (see _pack) with its index in the run as top.  diffs(batch,
    width) yields (rank, diff) pairs of increasing rank: diff maps packed
    keys to unreduced coefficients of a map that vanishes mod p on each
    monomial, named by the index field, where the property ranked there
    holds.  A run fails at its first rank with a coefficient nonzero mod p,
    at the least index there.  width is _field_width(monomials, lift),
    lift the most the caller's letters raise one, so no field overflows."""
    width = _field_width(monomials, lift)
    shift = width * n

    def check(run):
        batch = {_pack(exps, width, index): 1 for index, exps in enumerate(run)}
        for rank, diff in diffs(batch, width):
            bad = [k for k, v in diff.items() if v % p]
            if bad:
                return rank, min(bad) >> shift
        return None

    return check


def first_word_sum_mismatch(relations, monomials, p: int, n: int):
    """(relation index, monomial index) of the first relation, in list
    order, whose sides differ on one of the monomials, and the first such
    monomial; None when every relation holds on all of them.  A relation
    is a pair (lhs, rhs) of sums of generator words.

    Agrees with comparing the sums of apply_word values relation by
    relation, on each monomial one by one, but one sweep serves every
    relation: each run of monomials is packed once (packed_check), and
    lhs minus rhs of each relation in turn, ranked (relation index,), is
    summed into one dict of unreduced coefficients, with one set of D
    letter tables for all the words.  A letter never takes an exponent
    past the largest one plus the x letters of its word (a divided
    difference lowers max(a, b)), so the most x letters of any word is
    the lift."""
    sums = []
    for lhs, rhs in relations:
        for _, word in (*lhs, *rhs):
            _check_word(n, word)
        sums.append([(c, word) for c, word in lhs] + [(-c, word) for c, word in rhs])
    lift = max(
        (sum(kind == "x" for kind, _ in word) for terms in sums for _, word in terms), default=0
    )
    tables: dict[int, dict] = {j: {} for j in range(1, n)}

    def diffs(batch, width):
        for r, terms in enumerate(sums):
            diff: dict[int, int] = {}
            for c, word in terms:
                _add_packed_word(word, batch, c, diff, width, tables)
            yield (r,), diff

    found = least_failure(monomials, packed_check(monomials, p, n, lift, diffs))
    return None if found is None else (found[0][0], found[1])


# Most terms schubert may hold after any letter of D_{w^{-1} w_0}.
SCHUBERT_TERM_BUDGET = 100_000


@functools.cache
def schubert(w: Permutation, n: int, p: int) -> Polynomial:
    """Schubert polynomial of w: apply D_{w^{-1} w_0} to the staircase
    x_1^{n-1} x_2^{n-2} ... x_{n-1}, one letter at a time, rightmost
    first.  Raise DomainError once the terms after a letter number more
    than SCHUBERT_TERM_BUDGET."""
    if w.n != n:
        raise MismatchError("permutation size does not match variable count")
    terms = Polynomial.monomial(p, n, tuple(range(n - 1, -1, -1))).terms
    u = w.inverse() * Permutation.longest(n)
    for letter in reversed(_reduced_word(u.images)):
        terms = _word_terms((letter,), terms, p)
        if len(terms) > SCHUBERT_TERM_BUDGET:
            raise DomainError(
                f"the Schubert polynomial with n={n} is over the work budget: "
                f"it holds more than {SCHUBERT_TERM_BUDGET} terms"
            )
    return Polynomial._raw(p, n, terms)


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


# Most monomials the sweep of reconstruct_operator, or of the nilHecke
# relations in verify-all, may check, and most pairs of permutations the
# peeling of reconstruct_operator may take.
RECONSTRUCT_BUDGET = 100_000


def require_sweep_budget(sweep: str, n: int, degree_bound: int) -> None:
    """Raise DomainError for a negative degree bound, whose sweep would
    check nothing, and when a sweep of monomials_up_to_degree(n,
    degree_bound), C(degree_bound // 2 + n, n) monomials, checks more than
    RECONSTRUCT_BUDGET of them."""
    if degree_bound < 0:
        raise DomainError(f"degree bound {degree_bound} must be nonnegative")
    if capped_binomial(degree_bound // 2 + n, n, RECONSTRUCT_BUDGET) > RECONSTRUCT_BUDGET:
        raise DomainError(
            f"{sweep} up to degree {degree_bound} with n={n} is over "
            f"the work budget: it checks more than {RECONSTRUCT_BUDGET} monomials"
        )


def require_reconstruction_budget(n: int, degree_bound: int) -> None:
    """Raise DomainError when reconstruct_operator at (n, degree_bound)
    fails require_sweep_budget, or would pair more than RECONSTRUCT_BUDGET
    permutations with earlier ones, counted as n!(n! - 1)/2 with n!
    capped."""
    require_sweep_budget("the reconstruction sweep", n, degree_bound)
    perms = capped_factorial(n, RECONSTRUCT_BUDGET)
    if perms * (perms - 1) // 2 > RECONSTRUCT_BUDGET:
        raise DomainError(
            f"the reconstruction with n={n} is over the work budget: its n! "
            f"permutations form more than {RECONSTRUCT_BUDGET} pairs"
        )


def reconstruct_operator(
    p: int,
    n: int,
    fn,
    degree_bound: int,
    note: str = "operator",
) -> NilHeckeElement:
    """Write a linear operator on F_p[x_1..x_n] in the x^a * D_w basis.

    The candidate is extracted from the operator's values on Schubert
    polynomials (processing permutations by increasing length peels off
    one D_w coefficient at a time) and then checked against fn on every
    monomial within the degree bound.  Operators that are not actually
    nilHecke elements fail the check and raise ReconstructionError.  A
    negative bound, whose sweep would check nothing, raises DomainError,
    and so does work over require_reconstruction_budget, before any
    Schubert value is built.

    The sweep runs on least_failure, with fn and NilHeckeElement.apply
    as its calls.  A mismatch anywhere raises the same
    ReconstructionError, and an exception of fn is re-raised.
    """
    require_reconstruction_budget(n, degree_bound)
    perms = sorted(all_permutations(n), key=lambda w: (w.length(), w.images))
    parts: dict[Permutation, Polynomial] = {}
    for w in perms:
        s_w = schubert(w, n, p)
        val = fn(s_w)
        for u, coeff_poly in parts.items():
            du = apply_word(_reduced_word(u.images), s_w)
            if not du.is_zero():
                val = val - coeff_poly * du
        parts[w] = val

    result = NilHeckeElement._raw(
        p,
        n,
        {
            (m, w.images): c
            for w, coeff_poly in parts.items()
            for m, c in coeff_poly.terms.items()
        },
    )

    def fails(exps) -> bool:
        y = Polynomial._raw(p, n, {exps: 1})
        return result.apply(y) != fn(y)

    monos = monomials_up_to_degree(n, degree_bound)
    if least_failure(monos, first_key_check(fails), (fn, NilHeckeElement.apply)) is not None:
        raise ReconstructionError(f"{note} is not realized by a nilHecke element")
    return result


def sym_linearity_check(e: NilHeckeElement, degree_bound: int) -> bool:
    """Does e commute with multiplication by every elementary symmetric
    polynomial e_i, on each monomial f with e_i f within the degree bound?
    A negative bound, or a sweep over require_sweep_budget, raises
    DomainError."""
    p, n = e.p, e.n
    require_sweep_budget("the Sym-linearity sweep", n, degree_bound)
    sym = {i: elementary_symmetric(i, n, p) for i in range(1, n + 1)}
    keys = [(i, exps) for i in sym for exps in monomials_up_to_degree(n, degree_bound - 2 * i)]

    def fails(key) -> bool:
        g, f = sym[key[0]], Polynomial.monomial(p, n, key[1])
        return e.apply(g * f) != g * e.apply(f)

    return least_failure(keys, first_key_check(fails), (NilHeckeElement.apply,)) is None

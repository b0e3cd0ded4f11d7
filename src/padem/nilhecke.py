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
cached per exponent pair; it is the one kernel behind divided_difference,
apply and the product.

Words over the letters ('x', i) for multiplication by x_i and ('d', j)
for the divided difference at j are an input format: from_word
multiplies them into the basis, and apply_word composes the generator
actions one letter at a time as the word-level reference.  Elements are
immutable after construction.
"""

from __future__ import annotations

import functools

from .arith import require_prime
from .errors import DomainError, MismatchError
from .poly import Monomial, Polynomial, grlex_key

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

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word, multiplying left to right."""
        return _reduced_word(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


@functools.cache
def _reduced_word(images: tuple[int, ...]) -> tuple[int, ...]:
    """Peel off the least left descent j of w (j + 1 stands before j in
    one-line notation) and continue with s_j w."""
    w = list(images)
    word = []
    while True:
        j = next((j for j in range(1, len(w)) if w.index(j) > w.index(j + 1)), None)
        if j is None:
            return tuple(word)
        word.append(j)
        a, b = w.index(j), w.index(j + 1)
        w[a], w[b] = j + 1, j


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
def _dd_pair(a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """(x^a y^b - x^b y^a) / (x - y) as terms (exponent of x, exponent of
    y, sign): +-(xy)^min(a,b) h_{|a-b|-1}(x, y), plus when a > b."""
    lo, hi = min(a, b), max(a, b)
    sign = 1 if a > b else -1
    top = hi - lo - 1
    return tuple((lo + t, hi - 1 - t, sign) for t in range(top + 1))


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
            for a, b, sign in _dd_pair(exps[i - 1], exps[i]):
                _add_term(out, (head + (a, b) + tail, images), c * sign, p)
            raised = _raise_length(images, i)
            if raised is not None:
                _add_term(out, (head + (exps[i], exps[i - 1]) + tail, raised), c, p)
        terms = out
    return terms


def _check_ring(p: int, n: int) -> None:
    require_prime(p)
    if n < 1:
        raise DomainError("need at least one variable")


def _check_letter(n: int, letter: Letter) -> None:
    kind, i = letter
    if kind == "x":
        if not 1 <= i <= n:
            raise DomainError(f"X index {i} out of range 1..{n}")
    elif kind == "d":
        if not 1 <= i < n:
            raise DomainError(f"D index {i} out of range 1..{n - 1}")
    else:
        raise DomainError(f"unknown letter kind {kind!r}")


def divided_difference(f: Polynomial, j: int) -> Polynomial:
    """(f - s_j f) / (x_j - x_{j+1}), monomial by monomial in closed form."""
    if not 1 <= j < f.n:
        raise DomainError(f"divided difference index {j} out of range 1..{f.n - 1}")
    p = f.p
    out: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        head, tail = m[: j - 1], m[j + 1 :]
        for a, b, sign in _dd_pair(m[j - 1], m[j]):
            _add_term(out, head + (a, b) + tail, c * sign, p)
    return Polynomial._raw(p, f.n, out)


class NilHeckeElement:
    """F_p-linear combination of the basis operators x^a * D_w acting on
    F_p[x_1..x_n], stored (exponents, permutation images) -> nonzero
    coefficient."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: dict[BasisKey, int] | None = None):
        _check_ring(p, n)
        clean: dict[BasisKey, int] = {}
        if terms:
            for (exps, images), c in terms.items():
                exps, images = tuple(exps), tuple(images)
                if len(exps) != n or len(images) != n:
                    raise MismatchError(
                        f"basis key {exps}, {images} has wrong length for {n} variables"
                    )
                if any(e < 0 for e in exps):
                    raise DomainError("negative exponent")
                Permutation(images)
                c %= p
                if c:
                    clean[(exps, images)] = c
        self.p = p
        self.n = n
        self.terms = clean

    @classmethod
    def _raw(cls, p: int, n: int, terms: dict[BasisKey, int]) -> "NilHeckeElement":
        """Internal fast path: terms must already be clean (valid keys,
        coefficients nonzero in [1, p))."""
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.terms = terms
        return self

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
        _check_ring(p, n)
        for letter in word:
            _check_letter(n, letter)
        c = coeff % p
        unit = {((0,) * n, tuple(range(1, n + 1))): c} if c else {}
        return cls._raw(p, n, _left_multiply(p, tuple(word), unit))

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "NilHeckeElement":
        """The multiplication operator of a polynomial."""
        identity = tuple(range(1, f.n + 1))
        return cls._raw(f.p, f.n, {(m, identity): c for m, c in f.terms.items()})

    # -- algebra -----------------------------------------------------

    def _check_compatible(self, other: "NilHeckeElement") -> None:
        if self.p != other.p or self.n != other.n:
            raise MismatchError("nilHecke elements over different rings")

    def __add__(self, other: "NilHeckeElement") -> "NilHeckeElement":
        self._check_compatible(other)
        new = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(new, key, c, self.p)
        return NilHeckeElement._raw(self.p, self.n, new)

    def __neg__(self) -> "NilHeckeElement":
        p = self.p
        return NilHeckeElement._raw(p, self.n, {k: p - c for k, c in self.terms.items()})

    def __sub__(self, other: "NilHeckeElement") -> "NilHeckeElement":
        return self + (-other)

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            c = other % p
            terms = {k: v * c % p for k, v in self.terms.items()} if c else {}
            return NilHeckeElement._raw(p, self.n, terms)
        self._check_compatible(other)
        heads: dict[tuple[int, ...], list[tuple[Monomial, int]]] = {}
        for (exps, images), c in self.terms.items():
            heads.setdefault(images, []).append((exps, c))
        new: dict[BasisKey, int] = {}
        for images, monomials in heads.items():
            dword = tuple(("d", j) for j in _reduced_word(images))
            tail = _left_multiply(p, dword, other.terms)
            for a, c1 in monomials:
                for (b, w), c2 in tail.items():
                    _add_term(new, (tuple(x + y for x, y in zip(a, b)), w), c1 * c2, p)
        return NilHeckeElement._raw(p, self.n, new)

    def __rmul__(self, other: int) -> "NilHeckeElement":
        return self * other

    def __pow__(self, k: int) -> "NilHeckeElement":
        if k < 0:
            raise DomainError("negative power of an operator")
        out = NilHeckeElement.one(self.p, self.n)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

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
        if f.p != self.p or f.n != self.n:
            raise MismatchError("operand over a different ring")
        out = Polynomial.zero(self.p, self.n)
        d_images: dict[tuple[int, ...], Polynomial] = {}
        for (exps, images), c in self.terms.items():
            g = d_images.get(images)
            if g is None:
                g = d_images[images] = apply_d_word(f, _reduced_word(images))
            out = out + g.shift_monomial(exps, c)
        return out

    def normalize(self) -> "NilHeckeElement":
        """The element itself: elements are stored in the x^a * D_w basis."""
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, NilHeckeElement):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.p, self.n, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def sort_key(item):
            (exps, images) = item
            return (grlex_key(exps), images)
        parts = []
        for exps, images in sorted(self.terms, key=sort_key, reverse=True):
            c = self.terms[(exps, images)]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            factors.extend(f"D{j}" for j in _reduced_word(images))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NilHeckeElement(p={self.p}, n={self.n}, {self})"


def apply_d_word(f: Polynomial, word: tuple[int, ...]) -> Polynomial:
    """Apply D_{word[0]} ... D_{word[-1]}, rightmost first."""
    for j in reversed(word):
        f = divided_difference(f, j)
    return f


def apply_word(word: Word, f: Polynomial) -> Polynomial:
    """Apply the letters of word to f one generator at a time, rightmost
    first: ('x', i) multiplies by x_i, ('d', j) is the divided difference
    at j.  The word-level reference for the basis arithmetic."""
    for letter in reversed(word):
        _check_letter(f.n, letter)
        kind, i = letter
        if kind == "x":
            f = f * Polynomial.variable(f.p, f.n, i)
        else:
            f = divided_difference(f, i)
    return f


@functools.cache
def staircase_monomial(p: int, n: int) -> Polynomial:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}."""
    exps = tuple(n - 1 - i for i in range(n))
    return Polynomial.monomial(p, n, exps)


@functools.cache
def schubert(w: Permutation, n: int, p: int) -> Polynomial:
    """Schubert polynomial of w: apply D_{w^{-1} w_0} to the staircase."""
    if w.n != n:
        raise MismatchError("permutation size does not match variable count")
    u = w.inverse() * Permutation.longest(n)
    return apply_d_word(staircase_monomial(p, n), u.reduced_word())


def all_permutations(n: int) -> list[Permutation]:
    import itertools

    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


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
    nilHecke elements fail the check and raise ReconstructionError.
    """
    from .errors import ReconstructionError
    from .poly import monomials_up_to_degree

    perms = sorted(all_permutations(n), key=lambda w: (w.length(), w.images))
    parts: dict[Permutation, Polynomial] = {}
    for w in perms:
        val = fn(schubert(w, n, p))
        for u, coeff_poly in parts.items():
            du = apply_d_word(schubert(w, n, p), u.reduced_word())
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

    for exps in monomials_up_to_degree(n, degree_bound):
        y = Polynomial.monomial(p, n, exps)
        if result.apply(y) != fn(y):
            raise ReconstructionError(
                f"{note} is not realized by a nilHecke element"
            )
    return result


def sym_linearity_check(e: NilHeckeElement, degree_bound: int) -> bool:
    """Does e commute with multiplication by every elementary symmetric
    polynomial, on all monomials within the degree bound?"""
    from .poly import elementary_symmetric, monomials_up_to_degree

    p, n = e.p, e.n
    for i in range(1, n + 1):
        g = elementary_symmetric(i, n, p)
        for exps in monomials_up_to_degree(n, degree_bound - 2 * i):
            f = Polynomial.monomial(p, n, exps)
            if e.apply(g * f) != g * e.apply(f):
                return False
    return True

"""Sparse multivariate polynomials over F_p, graded with |x_i| = 2.

Monomials are exponent tuples of fixed length.  Term order is graded
lexicographic, which fixes a canonical leading term for exact division
and a deterministic text rendering.  Values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .arith import require_prime
from .errors import DivisibilityError, DomainError, MismatchError

Monomial = tuple[int, ...]


def grlex_key(exps: Monomial) -> tuple[int, Monomial]:
    return (sum(exps), exps)


class Polynomial:
    """Element of F_p[x_1, ..., x_n], stored term -> nonzero coefficient."""

    __slots__ = ("p", "n", "terms", "_hash")

    def __init__(self, p: int, n: int, terms: dict[Monomial, int] | None = None):
        require_prime(p)
        if n < 1:
            raise DomainError("need at least one variable")
        self.p = p
        self.n = n
        clean: dict[Monomial, int] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != n:
                    raise MismatchError(
                        f"monomial {exps} has wrong length for {n} variables"
                    )
                if any(e < 0 for e in exps):
                    raise DomainError("negative exponent")
                c %= p
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def _raw(cls, p: int, n: int, terms: dict[Monomial, int]) -> "Polynomial":
        """Internal fast path: terms must already be clean (tuples of the
        right length, coefficients nonzero in [1, p))."""
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.terms = terms
        self._hash = None
        return self

    @classmethod
    def zero(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n)

    @classmethod
    def one(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n, {(0,) * n: 1})

    @classmethod
    def constant(cls, p: int, n: int, c: int) -> "Polynomial":
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def variable(cls, p: int, n: int, i: int) -> "Polynomial":
        """The generator x_i, 1-indexed."""
        if not 1 <= i <= n:
            raise DomainError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(p, n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, p: int, n: int, exps: Monomial, c: int = 1) -> "Polynomial":
        return cls(p, n, {tuple(exps): c})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Maximum graded degree (2 per exponent unit), or None if zero."""
        if not self.terms:
            return None
        return 2 * max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        if self.is_zero():
            raise DomainError("the zero polynomial has no homogeneous degree")
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise DomainError("polynomial is not homogeneous")
        return 2 * degs.pop()

    def leading_term(self) -> tuple[Monomial, int]:
        if not self.terms:
            raise DomainError("the zero polynomial has no leading term")
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.p != other.p or self.n != other.n:
            raise MismatchError(
                f"mixing F_{self.p}[{self.n} vars] with F_{other.p}[{other.n} vars]"
            )

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.p == other.p
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.p, self.n, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        p = self.p
        new = dict(self.terms)
        for m, c in other.terms.items():
            v = (new.get(m, 0) + c) % p
            if v:
                new[m] = v
            else:
                new.pop(m, None)
        return Polynomial._raw(p, self.n, new)

    def __neg__(self) -> "Polynomial":
        p = self.p
        return Polynomial._raw(p, self.n, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        p = self.p
        new = dict(self.terms)
        for m, c in other.terms.items():
            v = (new.get(m, 0) - c) % p
            if v:
                new[m] = v
            else:
                new.pop(m, None)
        return Polynomial._raw(p, self.n, new)

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            c = other % p
            if not c:
                return Polynomial._raw(p, self.n, {})
            return Polynomial._raw(
                p, self.n, {m: v * c % p for m, v in self.terms.items()}
            )
        self._check_compatible(other)
        new: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = (new.get(m, 0) + c1 * c2) % p
                if v:
                    new[m] = v
                else:
                    new.pop(m, None)
        return Polynomial._raw(p, self.n, new)

    def shift_monomial(self, exps: Monomial, coeff: int = 1) -> "Polynomial":
        """Multiply by a single monomial (key shift, no convolution)."""
        p = self.p
        coeff %= p
        if not coeff:
            return Polynomial._raw(p, self.n, {})
        return Polynomial._raw(
            p,
            self.n,
            {
                tuple(a + b for a, b in zip(m, exps)): c * coeff % p
                for m, c in self.terms.items()
            },
        )

    def __rmul__(self, other: int) -> "Polynomial":
        return self * other

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise DomainError("negative power of a polynomial")
        out = Polynomial.one(self.p, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- symmetric group action --------------------------------------

    def transpose(self, j: int) -> "Polynomial":
        """Exchange x_j and x_{j+1} in every term (1 <= j < n)."""
        if not 1 <= j < self.n:
            raise DomainError(f"transposition index {j} out of range 1..{self.n - 1}")
        new: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            exps = list(m)
            exps[j - 1], exps[j] = exps[j], exps[j - 1]
            new[tuple(exps)] = c
        return Polynomial._raw(self.p, self.n, new)

    # -- rendering ---------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(p={self.p}, n={self.n}, {self})"


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient h with g*h = f, by leading-term elimination.

    Raises DivisibilityError when g does not divide f exactly.
    """
    f._check_compatible(g)
    if g.is_zero():
        raise DomainError("division by zero polynomial")
    lead_m, lead_c = g.leading_term()
    inv = pow(lead_c, -1, f.p)
    rem = dict(f.terms)
    quo: dict[Monomial, int] = {}
    p = f.p
    gterms = list(g.terms.items())
    # Max-heap over graded lex with lazy deletion of stale entries.
    heap = [(-sum(m), tuple(-e for e in m), m) for m in rem]
    heapq.heapify(heap)
    while rem:
        m = heapq.heappop(heap)[2]
        if m not in rem:
            continue
        qm = tuple(a - b for a, b in zip(m, lead_m))
        if any(e < 0 for e in qm):
            raise DivisibilityError("leading term not divisible")
        qc = rem[m] * inv % p
        quo[qm] = qc
        for gm, gc in gterms:
            key = tuple(a + b for a, b in zip(qm, gm))
            old = rem.get(key, 0)
            val = (old - qc * gc) % p
            if val:
                rem[key] = val
                if not old:
                    heapq.heappush(heap, (-sum(key), tuple(-e for e in key), key))
            else:
                rem.pop(key, None)
    return Polynomial._raw(f.p, f.n, quo)


def elementary_symmetric(i: int, n: int, p: int) -> Polynomial:
    """e_i in n variables; e_0 = 1."""
    if i < 0 or i > n:
        raise DomainError(f"e_{i} undefined in {n} variables")
    terms: dict[Monomial, int] = {}
    for subset in itertools.combinations(range(n), i):
        exps = [0] * n
        for pos in subset:
            exps[pos] = 1
        terms[tuple(exps)] = 1
    return Polynomial(p, n, terms)


def power_sum(k: int, n: int, p: int) -> Polynomial:
    """p_k = x_1^k + ... + x_n^k."""
    if k < 1:
        raise DomainError("power sum index must be positive")
    terms: dict[Monomial, int] = {}
    for pos in range(n):
        exps = [0] * n
        exps[pos] = k
        terms[tuple(exps)] = 1
    return Polynomial(p, n, terms)


def is_sigma_invariant(f: Polynomial, j: int) -> bool:
    return f.transpose(j) == f


def is_symmetric(f: Polynomial) -> bool:
    return all(is_sigma_invariant(f, j) for j in range(1, f.n))


@functools.cache
def monomials_up_to_degree(n: int, max_degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples with graded degree 2*sum(exps) <= max_degree."""
    bound = max_degree // 2
    out = []
    for total in range(bound + 1):
        out.extend(_compositions(total, n))
    return tuple(out)


def _compositions(total: int, n: int) -> list[Monomial]:
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            out.append((first,) + rest)
    return out

"""Sparse multivariate polynomials over F_p, graded with |x_i| = 2.

Monomials are exponent tuples of fixed length.  Term order is graded
lexicographic, which fixes a canonical leading term for exact division
and a deterministic text rendering.  Values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, sub

from .arith import LinearCombination, reduce_terms, require_ring
from .errors import DivisibilityError, DomainError, MismatchError

Monomial = tuple[int, ...]


def grlex_key(exps: Monomial) -> tuple[int, Monomial]:
    return (sum(exps), exps)


def _check_exponents(exps, n: int) -> Monomial:
    exps = tuple(exps)
    if len(exps) != n:
        raise MismatchError(f"monomial {exps} has wrong length for {n} variables")
    if min(exps) < 0:  # n >= 1, so exps is not empty
        raise DomainError("negative exponent")
    return exps


def _monomial_factors(exps: Monomial) -> list[str]:
    return [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]


class Polynomial(LinearCombination):
    """Element of F_p[x_1, ..., x_n], stored term -> nonzero coefficient."""

    __slots__ = ()

    def _check_key(self, exps) -> Monomial:
        return _check_exponents(exps, self.n)

    def _unit_key(self) -> Monomial:
        return (0,) * self.n

    def _product(self, other: "Polynomial") -> dict[Monomial, int]:
        """The terms of self * other.  While every exponent is below 128,
        each monomial is packed into one int, a byte per variable, so two
        keys add as ints: a byte sum stays below 256 and never carries.
        Any larger exponent takes the loop over exponent tuples."""
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        if not small:
            return {}
        new: dict = {}
        get = new.get
        flat = itertools.chain.from_iterable
        if max(flat(small)) < 128 and max(flat(large)) < 128:
            pack = int.from_bytes
            packed = [(pack(bytes(m), "little"), c) for m, c in large.items()]
            for m1, c1 in small.items():
                k1 = pack(bytes(m1), "little")
                for k2, c2 in packed:
                    k = k1 + k2
                    new[k] = get(k, 0) + c1 * c2
            n, p = self.n, self.p
            return {tuple(k.to_bytes(n, "little")): r for k, c in new.items() if (r := c % p)}
        for m1, c1 in small.items():
            for m2, c2 in large.items():
                m = tuple(map(add, m1, m2))
                new[m] = get(m, 0) + c1 * c2
        return reduce_terms(new, self.p)

    _sort_key = staticmethod(grlex_key)
    _key_factors = staticmethod(_monomial_factors)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n)

    @classmethod
    def one(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n, {(0,) * n: 1})

    @classmethod
    def variable(cls, p: int, n: int, i: int) -> "Polynomial":
        """The generator x_i, 1-indexed."""
        require_ring(p, n)
        if not 1 <= i <= n:
            raise DomainError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(p, n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, p: int, n: int, exps: Monomial, c: int = 1) -> "Polynomial":
        return cls(p, n, {tuple(exps): c})

    # -- basic queries -----------------------------------------------

    def degree(self):
        """Maximum graded degree (2 per exponent unit), or None if zero."""
        if not self.terms:
            return None
        return 2 * max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_term(self) -> tuple[Monomial, int]:
        if not self.terms:
            raise DomainError("the zero polynomial has no leading term")
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

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


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient h with g*h = f, by leading-term elimination.

    Raises DivisibilityError when g does not divide f exactly.
    """
    import heapq  # here, not at the top: no CLI query divides

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


@functools.cache
def monomials_up_to_degree(n: int, max_degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples with graded degree 2*sum(exps) <= max_degree."""
    bound = max_degree // 2
    out = []
    for total in range(bound + 1):
        out.extend(_compositions(total, n))
    return tuple(out)


def _compositions(total: int, n: int) -> list[Monomial]:
    """The exponent tuples of n >= 1 entries summing to total, in
    lexicographic order.  Stars and bars: the n - 1 cut points 0 <= c_1
    <= ... <= c_(n-1) <= total, in lexicographic order, give the parts
    c_1, c_2 - c_1, ..., total - c_(n-1), with no recursion in n."""
    last, first = (total,), (0,)
    return [
        tuple(map(sub, cuts + last, first + cuts))
        for cuts in itertools.combinations_with_replacement(range(total + 1), n - 1)
    ]

"""Exact scalar and univariate integer-polynomial arithmetic.

Residues mod a prime p are plain ints in [0, p).  LinearCombination is
the one F_p-linear arithmetic behind polynomials, nilHecke elements and
Steenrod elements.  Polynomials in Z[q] keep arbitrary-precision integer
coefficients so that cyclotomic division and multiplication stay exact
no matter how the coefficients grow.  Record is the immutable value type
of the parse tree and of sub-Hopf profiles.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import DivisibilityError, DomainError, MismatchError

#: Largest prime accepted.  Everything is exact, so the bound only
#: guards against accidentally huge inputs.
MAX_PRIME = 97


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_checked_primes: set[int] = set()


def require_prime(p: int) -> int:
    if p in _checked_primes:
        return p
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"{p!r} is not a prime")
    if p > MAX_PRIME:
        raise DomainError(f"prime {p} exceeds the configured bound {MAX_PRIME}")
    _checked_primes.add(p)
    return p


def require_ring(p: int, n: int) -> None:
    """Validate the ring F_p[x_1..x_n]: p a prime within the bound, n >= 1."""
    require_prime(p)
    if n < 1:
        raise DomainError(f"need at least one variable, got n={n}")


def reduce_terms(terms: dict, p: int) -> dict:
    """The terms with coefficients reduced mod p, zeros dropped."""
    return {key: r for key, c in terms.items() if (r := c % p)}


def _echelon(vectors, p: int) -> list:
    """The vectors {key: integer} that are independent over F_p of the
    ones before them, as given (the same objects, not reduced mod p): a
    basis of their span.  The keys are matrix indices or any other totally
    ordered labels.

    Sparse echelon elimination: each vector is copied once, reduced mod p,
    into a working dict, which is reduced by the echelon row at its lowest
    key, with the row's fill-in, until that key is new; the working dict
    is then kept as the row there, scaled to a leading 1.  Exact Python
    ints, any prime."""
    rows: dict = {}
    kept = []
    for vec in vectors:
        v = {i: r for i, c in vec.items() if (r := c % p)}
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                inv = pow(v[lead], -1, p)
                rows[lead] = {i: c * inv % p for i, c in v.items()}
                kept.append(vec)
                break
            c = v[lead]
            for i, r in row.items():
                x = (v.get(i, 0) - c * r) % p
                if x:
                    v[i] = x
                else:
                    del v[i]
    return kept


class Record:
    """Immutable value with the fields named in a subclass's __slots__:
    equal to a record of the same class with equal fields, hashable, and
    shown as Class(field=value, ...).  The constructor takes one value
    per field, in slot order; assigning a field later raises
    AttributeError."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which every
        # subclass gives its fields in slot order
        return (type(self), self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _ring_text(x) -> str:
    return f"F_{x.p}" if x.n is None else f"F_{x.p}[{x.n} vars]"


class LinearCombination:
    """F_p-linear combination of basis keys, stored key -> coefficient in
    [1, p), over the ring fixed by the prime p and the variable count n.

    The constructor validates (p, n) with require_ring.  n is None for
    an algebra without a variable count (the Steenrod algebra acts on
    polynomials in any number of variables); such an element is
    compatible with every n, and its class overrides __init__.
    A subclass supplies the key check (_check_key), the unit's key
    (_unit_key), the product of two elements' terms (_product), and the
    order (_sort_key) and factors (_key_factors) of its terms in text.
    Elements are immutable after construction, so each one caches its
    hash and the powers it has been raised to (_hash, _powers).
    """

    __slots__ = ("p", "n", "terms", "_hash", "_powers")

    def __init__(self, p: int, n: int, terms: dict | None = None):
        require_ring(p, n)
        self.p = p
        self.n = n
        self._hash = None
        self._powers = None
        self.terms = self._clean(terms)

    def _clean(self, terms) -> dict:
        """Validated keys, coefficients reduced mod p, zeros dropped."""
        clean: dict = {}
        if terms:
            p = self.p
            for key, c in terms.items():
                key = self._check_key(key)
                c = (clean.get(key, 0) + c) % p
                if c:
                    clean[key] = c
                else:
                    clean.pop(key, None)
        return clean

    @classmethod
    def _raw(cls, p: int, n, terms: dict):
        """Internal fast path: terms must already be clean (valid keys,
        coefficients nonzero in [1, p))."""
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.terms = terms
        self._hash = None
        self._powers = None
        return self

    def _new(self, terms: dict):
        """An element over this element's ring with these clean terms."""
        return self._raw(self.p, self.n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_compatible(self, other) -> None:
        if self.p != other.p or (self.n != other.n and self.n is not None):
            raise MismatchError(f"mixing {_ring_text(self)} with {_ring_text(other)}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.p, self.n, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        self._check_compatible(other)
        p = self.p
        new = dict(self.terms)
        for key, c in other.terms.items():
            v = (new.get(key, 0) + c) % p
            if v:
                new[key] = v
            else:
                new.pop(key, None)
        return self._new(new)

    def __sub__(self, other):
        self._check_compatible(other)
        p = self.p
        new = dict(self.terms)
        for key, c in other.terms.items():
            v = (new.get(key, 0) - c) % p
            if v:
                new[key] = v
            else:
                new.pop(key, None)
        return self._new(new)

    def __neg__(self):
        p = self.p
        return self._new({key: p - c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.p
            c = other % p
            if c == 1:  # elements are immutable, so self is the product
                return self
            return self._new({key: v * c % p for key, v in self.terms.items()} if c else {})
        self._check_compatible(other)
        return self._new(self._product(other))

    def __rmul__(self, other: int):
        return self * other

    def __pow__(self, k: int):
        """Square-and-multiply, memoized on this element: the cache
        lives on the instance, like its hash, and goes with it."""
        if k < 0:
            raise DomainError(f"negative power {k}")
        if self._powers is None:
            self._powers = {}
        out = self._powers.get(k)
        if out is not None:
            return out
        out = self._new({self._unit_key(): 1})
        base, e = self, k
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        self._powers[k] = out
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        try:
            for key in sorted(self.terms, key=self._sort_key, reverse=True):
                c = self.terms[key]
                body = "*".join(self._key_factors(key))
                if not body:
                    parts.append(str(c))
                else:
                    parts.append(body if c == 1 else f"{c}*{body}")
        except ValueError:  # an int longer than Python converts to decimal
            limit = sys.get_int_max_str_digits()
            raise DomainError(f"cannot print a number of more than {limit} digits")
        return " + ".join(parts)

    def __repr__(self) -> str:
        ring = f"p={self.p}" if self.n is None else f"p={self.p}, n={self.n}"
        return f"{type(self).__name__}({ring}, {self})"


def binomial_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) reduced mod p.

    Negative upper index uses C(n, k) = (-1)^k C(k - n - 1, k), the
    convention matching C(n, k) = n(n-1)...(n-k+1)/k!.  Nonnegative n
    goes through Lucas' theorem.
    """
    require_prime(p)
    if k < 0:
        raise DomainError("binomial lower index must be nonnegative")
    if n < 0:
        sign = -1 if k % 2 else 1
        return (sign * binomial_mod_p(k - n - 1, k, p)) % p
    out = 1
    while k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = (out * math.comb(nd, kd)) % p
        n //= p
        k //= p
    return out


def capped_binomial(n: int, k: int, cap: int) -> int:
    """C(n, k), or some number above cap once it is known to exceed it.

    With k <= n - k, the partial products C(n - k + i, i), i = 0..k, grow
    at least as fast as 2^i, so the loop stops after about log2(cap)
    steps however large n and k are."""
    if not 0 <= k <= n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
        if out > cap:
            break
    return out


def capped_factorial(n: int, cap: int) -> int:
    """n!, or some number above cap once it is known to exceed it: the
    product stops at the first factor that takes it over cap."""
    out = 1
    for i in range(2, n + 1):
        out *= i
        if out > cap:
            break
    return out


def generalized_binomial(n: int, k: int, p: int) -> int:
    """Coefficient of x^k in (1 + x + ... + x^(p-1))^n, reduced mod p.

    Mod p, 1 + x + ... + x^(p-1) = (1 - x^p)/(1 - x) = (1 - x)^(p-1), so
    the coefficient is (-1)^k C((p-1)n, k).  Agrees with
    binomial_mod_p(n, k, 2) when p = 2.
    """
    require_prime(p)
    if n < 0 or k < 0:
        raise DomainError("generalized binomial needs nonnegative arguments")
    c = binomial_mod_p((p - 1) * n, k, p)
    return -c % p if k % 2 else c


class IntPolynomial:
    """Sparse polynomial in one variable q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for d, c in coeffs.items():
                if d < 0:
                    raise DomainError("negative exponents are not supported")
                if c:
                    clean[d] = c
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, degree: int) -> "IntPolynomial":
        return cls({degree: coeff})

    @classmethod
    def q_power_minus_one(cls, n: int) -> "IntPolynomial":
        """q^n - 1."""
        return cls({n: 1, 0: -1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(self.coeffs)

    def coefficient(self, d: int) -> int:
        return self.coeffs.get(d, 0)

    def coefficient_list(self) -> list[int]:
        """Dense list [c_0, c_1, ..., c_deg]."""
        if not self.coeffs:
            return [0]
        out = [0] * (self.degree() + 1)
        for d, c in self.coeffs.items():
            out[d] = c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        new = dict(self.coeffs)
        for d, c in other.coeffs.items():
            new[d] = new.get(d, 0) + c
        return IntPolynomial(new)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial({d: c * other for d, c in self.coeffs.items()})
        new: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                new[d] = new.get(d, 0) + c1 * c2
        return IntPolynomial(new)

    def __rmul__(self, other: int) -> "IntPolynomial":
        return self * other

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division over Z; raises DivisibilityError on any remainder."""
        if divisor.is_zero():
            raise DomainError("division by the zero polynomial")
        rem = dict(self.coeffs)
        lead_deg = divisor.degree()
        lead_coeff = divisor.coeffs[lead_deg]
        lower = [(dd, cc) for dd, cc in divisor.coeffs.items() if dd != lead_deg]
        quo: dict[int, int] = {}
        # one pass from the top degree down: each quotient term clears its
        # degree, and the divisor's lower terms only reach degrees below it
        for d in range(self.degree(), lead_deg - 1, -1):
            c = rem.pop(d, 0)
            if not c:
                continue
            c, r = divmod(c, lead_coeff)
            if r:
                raise DivisibilityError("polynomial division is not exact")
            shift = d - lead_deg
            quo[shift] = c
            for dd, cc in lower:
                rem[dd + shift] = rem.get(dd + shift, 0) - c * cc
        if any(rem.values()):
            raise DivisibilityError("polynomial division is not exact")
        return IntPolynomial(quo)

    def evaluate(self, x: int) -> int:
        return sum(c * x**d for d, c in self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                body = str(c)
            else:
                q = "q" if d == 1 else f"q^{d}"
                if c == 1:
                    body = q
                elif c == -1:
                    body = f"-{q}"
                else:
                    body = f"{c}*{q}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += body if body.startswith("-") else "+" + body
        return out

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def divisors(n: int) -> list[int]:
    if n < 1:
        raise DomainError("divisors of a nonpositive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@functools.cache
def cyclotomic(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial over Z, by exact recursive division."""
    if d < 1:
        raise DomainError("cyclotomic index must be positive")
    result = IntPolynomial.q_power_minus_one(d)
    for e in divisors(d):
        if e < d:
            result = result.exact_div(cyclotomic(e))
    return result


def factor_quotient(numerator_exp: int, denominator_exp: int) -> list[int]:
    """Cyclotomic indices d with (1 - q^num)/(1 - q^den) = prod Phi_d(q).

    These are the divisors of the numerator exponent that do not divide
    the denominator exponent.  The factorization is checked by exact
    multiplication before returning.
    """
    if numerator_exp < 1 or denominator_exp < 1:
        raise DomainError("exponents must be positive")
    if numerator_exp % denominator_exp:
        raise DomainError(
            f"{denominator_exp} does not divide {numerator_exp}"
        )
    ds = [d for d in divisors(numerator_exp) if denominator_exp % d]
    quotient = IntPolynomial.q_power_minus_one(numerator_exp).exact_div(
        IntPolynomial.q_power_minus_one(denominator_exp)
    )
    product = IntPolynomial.one()
    for d in ds:
        product = product * cyclotomic(d)
    if product != quotient:
        raise DomainError("cyclotomic factorization failed verification")
    return ds

"""Graded dimensions of finite-dimensional quotients of the dual algebra
of reduced powers, and the resulting Grothendieck-group presentations.

A profile stores the exponents r_k of a quotient by the p^(r_k)-th powers
of the dual generators; r_k = 0 kills the generator outright.  The graded
dimension is an exact product of geometric factors in Z[q], and the
presentation factors it into cyclotomic polynomials.
"""

from __future__ import annotations

from .arith import IntPolynomial, Record, _echelon, cyclotomic, factor_quotient, require_prime
from .errors import DomainError
from .steenrod import (
    GRADING_TOPOLOGICAL,
    GRADINGS,
    SteenrodElement,
    adem_normalize,
    grading_scale,
)


def _check_profile_condition(r: tuple[int, ...]) -> None:
    """Admissibility of the exponent sequence: for 0 < j < m either
    r_m >= r_{m-j} - j or r_m >= r_j, with r = 0 beyond the stored tail.

    This is the closure condition for the quotient to be a Hopf quotient;
    the finite filtration profiles (n, n-1, ..., 1) all satisfy it with
    equality in the first branch.
    """
    if not r:
        return
    reach = len(r) + max(r) + 1

    def get(k: int) -> int:
        return r[k - 1] if k <= len(r) else 0

    for m in range(2, reach + 1):
        for j in range(1, m):
            if get(m) >= get(m - j) - j or get(m) >= get(j):
                continue
            raise DomainError(
                f"profile {r} violates the sub-Hopf condition at (m={m}, j={j})"
            )


class SubHopfProfile(Record):
    """Profile of a finite-dimensional sub-Hopf algebra of the reduced
    powers: prime, exponent sequence r_k, and grading convention."""

    __slots__ = ("p", "exponents", "grading")

    def __init__(self, p: int, exponents: tuple[int, ...], grading: str = GRADING_TOPOLOGICAL):
        require_prime(p)
        exponents = tuple(exponents)
        if any(r < 0 for r in exponents):
            raise DomainError("profile exponents must be nonnegative")
        if grading not in GRADINGS:
            raise DomainError(f"unknown grading {grading!r}")
        _check_profile_condition(exponents)
        self._set(p, exponents, grading)

    @classmethod
    def filtration(cls, n: int, p: int, grading: str = GRADING_TOPOLOGICAL) -> "SubHopfProfile":
        """The level-n filtration algebra A(n), generated by the powers
        P^(p^j) for 0 <= j < n; its profile is (n, n-1, ..., 1)."""
        if n < 0:
            raise DomainError("filtration level must be nonnegative")
        return cls(p, tuple(range(n, 0, -1)), grading)

    def heights(self) -> tuple[int, ...]:
        """The truncation heights p^(r_k)."""
        return tuple(self.p**r for r in self.exponents)


def xi_degree(k: int, profile: SubHopfProfile) -> int:
    """Degree of the k-th dual generator under the profile's grading."""
    if k < 1:
        raise DomainError("generator index must be positive")
    p = profile.p
    return grading_scale(p, profile.grading) * (p**k - 1) // (p - 1)


def graded_dimension(profile: SubHopfProfile) -> IntPolynomial:
    """dim_q of the sub-Hopf algebra: the product over k of
    (1 - q^(h_k d_k)) / (1 - q^(d_k)) with h_k = p^(r_k), d_k = |xi_k|."""
    result = IntPolynomial.one()
    for k, height in enumerate(profile.heights(), start=1):
        deg = xi_degree(k, profile)
        factor = IntPolynomial({i * deg: 1 for i in range(height)})
        result = result * factor
    return result


def k0_presentation(profile: SubHopfProfile) -> dict:
    """The Grothendieck-group presentation Z[q] / (dim_q A).

    Returns the relation polynomial, its cyclotomic factor indices (with
    multiplicity), and the ring description.  The factorization is
    verified by exact multiplication.
    """
    relation = graded_dimension(profile)
    factors: list[int] = []
    for k, height in enumerate(profile.heights(), start=1):
        if height == 1:
            continue
        deg = xi_degree(k, profile)
        factors.extend(factor_quotient(height * deg, deg))
    factors.sort()
    product = IntPolynomial.one()
    for d in factors:
        product = product * cyclotomic(d)
    if product != relation:
        raise DomainError("cyclotomic factorization failed verification")
    return {
        "ring": "Z[q]",
        "relation": relation,
        "cyclotomic_factors": factors,
    }


def enumerate_an_basis(
    n: int, p: int, degree_cap: int = 64, grading: str = GRADING_TOPOLOGICAL
) -> tuple[dict[int, int], bool]:
    """Graded dimensions of the subalgebra generated by P^(p^j), j < n,
    found by closing the generators under product + admissible rewriting.

    Degree d is spanned by the products gen * b over the generators and a
    basis b of degree d - |gen|, reduced to a basis by one sparse F_p
    elimination, so every dimension at or below the cap is exact.  The
    result is certified complete when an entire band of width max(generator
    degree) above the top nonzero degree fits under the cap and is empty;
    otherwise the flag is False and the dimensions are a partial lower
    picture.
    """
    require_prime(p)
    if n < 0:
        raise DomainError("level must be nonnegative")
    scale = grading_scale(p, grading)
    generators = [SteenrodElement.p_power(p, p**j) for j in range(n)]
    gen_degrees = [scale * p**j for j in range(n)]

    # span[d]: a basis of degree d, as terms keyed by admissible word
    span: dict[int, list[dict]] = {0: [SteenrodElement.one(p).terms]}
    for degree in range(scale, degree_cap + 1, scale):
        products = [
            adem_normalize(gen * SteenrodElement(p, b)).terms
            for gen, gdeg in zip(generators, gen_degrees)
            for b in span.get(degree - gdeg, ())
        ]
        span[degree] = _echelon(products, p)

    dims = {deg: len(rows) for deg, rows in span.items() if rows}
    if n == 0:
        return dims, True
    top = max(dims)
    certified = top + max(gen_degrees) <= degree_cap
    return dims, certified

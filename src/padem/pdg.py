"""p-nilpotent derivations on polynomial and nilHecke algebras.

A derivation here is determined by images of the generators x_i and D_i
and extends by the Leibniz rule.  The module provides the degree +2
differential sending x_i to x_i^2 together with its twisted deformations,
structural verification (Leibniz, well-definedness on the defining
relations, p-nilpotence on graded truncations), Margolis homology of
graded truncations, and the comparison with the induced Steenrod action.
"""

from __future__ import annotations

import random
from operator import add

import numpy as np

from .arith import require_prime
from .errors import DomainError, MismatchError, StructureError
from .nilhecke import (
    NilHeckeElement,
    Permutation,
    _reduce,
    all_permutations,
    divided_difference,
    reconstruct_operator,
)
from .poly import Monomial, Polynomial, monomials_up_to_degree
from .steenrod import ACTION_NONSTANDARD, bar_act


class Derivation:
    """Degree +2 derivation given on generators, extended by Leibniz.

    The images are stored as tuples; d(D_w) is computed once per
    permutation w and kept on the instance (at most n! entries)."""

    def __init__(
        self,
        p: int,
        n: int,
        x_images: list[Polynomial],
        d_images: list[NilHeckeElement],
    ):
        require_prime(p)
        if n < 1:
            raise DomainError(f"need at least one variable, got n={n}")
        if len(x_images) != n or len(d_images) != n - 1:
            raise MismatchError("need one image per generator")
        if any(g.p != p or g.n != n for g in (*x_images, *d_images)):
            raise MismatchError("generator image over a different ring")
        self.p = p
        self.n = n
        self.x_images = tuple(x_images)
        self.d_images = tuple(d_images)
        # Degree shift read off the first generator image (|x_i| = 2).
        shifts = {
            f.homogeneous_degree() - 2 for f in x_images if not f.is_zero()
        }
        self.shift = shifts.pop() if len(shifts) == 1 else 2
        self._d_permutation: dict[tuple[int, ...], dict] = {}

    def _poly_terms(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        """Terms of d applied to the polynomial with these terms:
        d(x^m) = sum_i m_i x^(m - e_i) d(x_i)."""
        out: dict[Monomial, int] = {}
        get = out.get
        for m, c in terms.items():
            for i, e in enumerate(m):
                if not e:
                    continue
                lowered = m[:i] + (e - 1,) + m[i + 1 :]
                for b, v in self.x_images[i].terms.items():
                    key = tuple(map(add, lowered, b))
                    out[key] = get(key, 0) + c * e * v
        return _reduce(out, self.p)

    def apply_poly(self, f: Polynomial) -> Polynomial:
        if f.p != self.p or f.n != self.n:
            raise MismatchError("polynomial over a different ring")
        return Polynomial._raw(self.p, self.n, self._poly_terms(f.terms))

    def _letter_image(self, letter) -> NilHeckeElement:
        kind, i = letter
        if kind == "x":
            return NilHeckeElement.from_polynomial(self.x_images[i - 1])
        return self.d_images[i - 1]

    def apply_words(self, words) -> NilHeckeElement:
        """d of a sum ((coeff, letters), ...) of generator words, by the
        Leibniz rule letter by letter."""
        out = NilHeckeElement.zero(self.p, self.n)
        for c, word in words:
            for j in range(len(word)):
                head = NilHeckeElement.from_word(self.p, self.n, word[:j], c)
                tail = NilHeckeElement.from_word(self.p, self.n, word[j + 1 :])
                out = out + head * self._letter_image(word[j]) * tail
        return out

    def _permutation_terms(self, images: tuple[int, ...]) -> dict:
        """Terms of d(D_w), by the word Leibniz rule along the reduced
        word of w on the first call for w."""
        terms = self._d_permutation.get(images)
        if terms is None:
            dword = tuple(("d", j) for j in Permutation(images).reduced_word())
            terms = self.apply_words(((1, dword),)).terms
            self._d_permutation[images] = terms
        return terms

    def apply_nh(self, e: NilHeckeElement) -> NilHeckeElement:
        """Leibniz on the basis: d(x^a D_w) = d(x^a) D_w + x^a d(D_w),
        where x^a d(D_w) shifts the exponents of the cached d(D_w)."""
        if e.p != self.p or e.n != self.n:
            raise MismatchError("element over a different ring")
        out: dict = {}
        get = out.get
        for (exps, images), c in e.terms.items():
            for m, v in self._poly_terms({exps: c}).items():
                key = (m, images)
                out[key] = get(key, 0) + v
            for (b, w), v in self._permutation_terms(images).items():
                key = (tuple(map(add, exps, b)), w)
                out[key] = get(key, 0) + c * v
        return NilHeckeElement._raw(self.p, self.n, _reduce(out, self.p))


def khovanov_qi_derivation(p: int, n: int) -> Derivation:
    """The differential with x_i -> x_i^2 and D_i -> -(x_i + x_{i+1}) D_i.

    At p = 2 the sign is invisible.  At odd primes this sign on the D_i
    image is the one compatible with the Leibniz extension across the
    relation D_i x_i - x_{i+1} D_i = 1; it is the commutator with the
    polynomial differential and coincides with twisted_derivation(p, n, 0).
    """
    x_images = [
        Polynomial.variable(p, n, i) * Polynomial.variable(p, n, i)
        for i in range(1, n + 1)
    ]
    d_images = []
    for i in range(1, n):
        coeff = Polynomial.variable(p, n, i) + Polynomial.variable(p, n, i + 1)
        d_images.append(
            NilHeckeElement.from_polynomial(coeff)
            * NilHeckeElement.d_gen(p, n, i)
            * (p - 1)
        )
    return Derivation(p, n, x_images, d_images)


def twisted_derivation(p: int, n: int, a: int) -> Derivation:
    """The twisted differential: x_i -> x_i^2 and
    D_i -> a - (a+1) x_i D_i + (a-1) x_{i+1} D_i.

    Setting a = 0 recovers khovanov_qi_derivation.  The family arises by
    conjugating the polynomial differential with multiplication by
    x_2^a x_3^{2a} ... x_n^{(n-1)a}; see conjugated_twist_image.
    """
    x_images = [
        Polynomial.variable(p, n, i) * Polynomial.variable(p, n, i)
        for i in range(1, n + 1)
    ]
    d_images = []
    for i in range(1, n):
        img = (
            NilHeckeElement.one(p, n) * a
            + NilHeckeElement.from_polynomial(Polynomial.variable(p, n, i))
            * NilHeckeElement.d_gen(p, n, i)
            * (-(a + 1))
            + NilHeckeElement.from_polynomial(Polynomial.variable(p, n, i + 1))
            * NilHeckeElement.d_gen(p, n, i)
            * (a - 1)
        )
        d_images.append(img)
    return Derivation(p, n, x_images, d_images)


def power_one_derivation(p: int, n: int, degree_bound: int = 12) -> Derivation:
    """The first reduced power acting as a derivation: x_i -> x_i^p on
    polynomials, with the operator images induced through the bar action.

    This is the degree 2(p-1) differential generating the smallest
    filtration subalgebra."""
    x_images = [
        Polynomial.variable(p, n, i) ** p for i in range(1, n + 1)
    ]
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

    @property
    def top(self) -> int:
        return max(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())


class GradedOperator:
    """Homogeneous operator of fixed degree shift, one matrix per degree.

    matrices[d] has shape (dim(d + shift), dim(d)) and maps coordinates at
    degree d to coordinates at degree d + shift.
    """

    def __init__(self, space: GradedSpace, shift: int, matrices: dict[int, np.ndarray]):
        self.space = space
        self.shift = shift
        self.matrices = matrices

    @classmethod
    def from_callable(cls, space: GradedSpace, fn, shift: int) -> "GradedOperator":
        """Build matrices from fn: label -> {label: coefficient}.

        For incomplete spaces, any image outside the space marks the whole
        source degree as a boundary degree (no matrix stored).
        """
        matrices: dict[int, np.ndarray] = {}
        for d, labels in space.basis.items():
            target_dim = space.dim(d + shift)
            mat = np.zeros((target_dim, len(labels)))
            valid = True
            for col, label in enumerate(labels):
                for out_label, c in fn(label).items():
                    c %= space.p
                    if not c:
                        continue
                    if out_label not in space.index:
                        if space.complete:
                            raise StructureError(
                                f"image of {label!r} leaves a complete space"
                            )
                        valid = False
                        break
                    dd, pos = space.index[out_label]
                    if dd != d + shift:
                        raise StructureError(
                            f"operator is not homogeneous of degree {shift}"
                        )
                    mat[pos, col] = c
                if not valid:
                    break
            if valid:
                matrices[d] = mat
        return cls(space, shift, matrices)

    def matrix(self, d: int) -> np.ndarray | None:
        """Matrix out of degree d; a zero map when the source or target is
        empty and the space is complete, None when d is a boundary degree."""
        if d in self.matrices:
            return self.matrices[d]
        src = self.space.dim(d)
        if src == 0:
            return np.zeros((self.space.dim(d + self.shift), 0))
        if self.space.complete:
            return np.zeros((self.space.dim(d + self.shift), src))
        return None

    def powers(self, d: int, k: int):
        """Yield the matrices of d^0, d^1, ..., d^j out of degree d, with
        j = k unless the chain reaches a boundary degree first.

        Each step is one float64 product reduced mod p in place.  Entries
        stay in 0..p-1, so a product over an inner dimension m sums at most
        m * (p-1)^2 < 2^53 and every partial sum is an exact integer."""
        p = self.space.p
        mat = np.eye(self.space.dim(d))
        yield mat
        cur = d
        for _ in range(k):
            step = self.matrix(cur)
            if step is None:
                return
            _require_exact(step.shape[1], p)
            mat = step @ mat
            np.fmod(mat, p, out=mat)
            yield mat
            cur += self.shift

    def power_matrix(self, d: int, k: int) -> np.ndarray | None:
        """Matrix of the k-fold composite out of degree d, or None if the
        chain crosses a boundary degree."""
        for j, mat in enumerate(self.powers(d, k)):
            if j == k:
                return mat
        return None


def _require_exact(terms: int, p: int) -> None:
    """A sum of `terms` products of residues mod p is exact in float64."""
    if terms * (p - 1) ** 2 >= 2**53:
        raise DomainError(
            f"{terms} products of residues mod {p} exceed exact float64 range"
        )


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank over F_p by row echelon elimination on a float64 copy."""
    m = np.asarray(np.mod(mat, p), dtype=np.float64)
    if m.shape[1] > m.shape[0]:
        m = m.T.copy()
    rows, cols = m.shape
    # an update adds (p-1) * (p-1) to an entry below p
    _require_exact(2, p)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        below = r + nz[1:]
        if below.size:
            pivot = np.fmod(m[r, c:] * pow(int(m[r, c]), -1, p), p)
            m[below, c:] = np.fmod(
                m[below, c:] + np.outer(p - m[below, c], pivot), p
            )
        r += 1
    return r


def margolis_homology(
    space: GradedSpace, op: GradedOperator, s: int
) -> tuple[dict[int, int], list[int]]:
    """Graded dimensions of ker(d^s) / im(d^(p-s)) on the space.

    s = p - 1 gives ker d^(p-1) / im d.  Verifies d^p = 0 wherever the
    composite stays inside the space; incomplete truncations exclude the
    top boundary band, and the excluded degrees are returned alongside
    the dimension vector (nonzero entries only).  One pass over the
    powers d^0..d^p out of each degree keeps only the ranks.
    """
    p = space.p
    if not 1 <= s <= p - 1:
        raise DomainError(f"power s={s} must lie in 1..{p - 1}")
    lag = op.shift * (p - s)
    ker_rank: dict[int, int] = {}  # rank of d^s out of the degree
    im_rank: dict[int, int] = {}  # rank of d^(p-s) into the degree
    # a source of d^(p-s) may lie outside the space: its chain of empty
    # matrices still decides whether the target degree is excluded
    for e in sorted(set(space.degrees) | {d - lag for d in space.degrees}):
        for j, mat in enumerate(op.powers(e, p)):
            if j == s:
                ker_rank[e] = rank_mod_p(mat, p)
            if j == p - s:
                im_rank[e + lag] = ker_rank[e] if j == s else rank_mod_p(mat, p)
            if j == p and mat.any():
                raise StructureError("operator is not p-nilpotent on this space")
    dims: dict[int, int] = {}
    excluded: list[int] = []
    for d in space.degrees:
        if d not in ker_rank or d not in im_rank:
            excluded.append(d)
            continue
        value = space.dim(d) - ker_rank[d] - im_rank[d]
        if value:
            dims[d] = value
    return dims, excluded


# -- builders ------------------------------------------------------------


def _require_grading(n: int, degree_bound: int) -> None:
    if n < 1:
        raise DomainError(f"need at least one variable, got n={n}")
    if degree_bound < 0:
        raise DomainError(f"degree bound {degree_bound} must be nonnegative")


def polynomial_space(
    p: int, n: int, top_degree: int, powers: tuple[int, ...] | None = None
) -> GradedSpace:
    """Monomial basis of F_p[x_1..x_n], degree |x_i| = 2, up to top_degree.

    With powers given, monomials with exps[i] >= powers[i] are struck out
    (the quotient by those monomial powers); the space is complete when
    the whole quotient fits under the degree cap.
    """
    _require_grading(n, top_degree)
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


def _ideal_projector(space: GradedSpace):
    """Quotient projection for monomial-power quotients.

    Striking out monomials in the ideal is the induced map on the
    quotient; the ideal is stable under every operator used here because
    their images only raise exponents."""
    powers = space.monomial_powers

    def project(terms: dict[Monomial, int]) -> dict[Monomial, int]:
        if powers is None:
            return terms
        return {
            m: c for m, c in terms.items() if all(e < k for e, k in zip(m, powers))
        }

    return project


def derivation_operator(
    space: GradedSpace, d: Derivation, n: int
) -> GradedOperator:
    project = _ideal_projector(space)

    def fn(exps: Monomial) -> dict[Monomial, int]:
        f = d.apply_poly(Polynomial.monomial(d.p, n, exps))
        return project(dict(f.terms))

    return GradedOperator.from_callable(space, fn, d.shift)


def nilhecke_space(p: int, n: int, top_degree: int) -> GradedSpace:
    """Normal-form basis (exponents, permutation) of NH_n with operator
    degree 2|a| - 2 l(w) at most top_degree."""
    _require_grading(n, top_degree)
    basis: dict[int, list] = {}
    for w in all_permutations(n):
        length = w.length()
        for exps in monomials_up_to_degree(n, top_degree + 2 * length):
            deg = 2 * sum(exps) - 2 * length
            if deg <= top_degree:
                basis.setdefault(deg, []).append((exps, w.images))
    return GradedSpace(p, basis, complete=False)


def nh_derivation_operator(space: GradedSpace, d: Derivation) -> GradedOperator:
    def fn(label) -> dict:
        return d.apply_nh(NilHeckeElement._raw(d.p, d.n, {label: 1})).terms

    return GradedOperator.from_callable(space, fn, d.shift)


def regular_nilpotent_module(p: int) -> tuple[GradedSpace, GradedOperator]:
    """The rank-one free module over F_p[u]/(u^p) with u in degree 2,
    together with multiplication by u."""
    basis = {2 * k: [k] for k in range(p)}
    space = GradedSpace(p, basis, complete=True)

    def fn(k: int) -> dict[int, int]:
        return {k + 1: 1} if k + 1 < p else {}

    return space, GradedOperator.from_callable(space, fn, 2)


# -- verification --------------------------------------------------------


def verify_pdg(
    d: Derivation,
    degree_bound: int = 20,
    samples: int = 40,
    seed: int = 0,
) -> dict:
    """Check the p-DG axioms for a derivation.

    Returns a report with leibniz_ok (random products, polynomial and
    operator sides), relations_ok (the Leibniz extension is well defined
    across every defining relation), p_nilpotent_ok (the p-th power of
    the derivation vanishes on graded truncations of both the polynomial
    ring and the operator algebra), nilpotency_degree_bound (the degree
    bound each side's p-nilpotency check actually covered: the requested
    one, a smaller cap when it falls back to direct iteration, None when
    it did not run), and a failure list.
    """
    p, n = d.p, d.n
    _require_grading(n, degree_bound)
    rng = random.Random(seed)
    failures: list[str] = []

    mono_pool = [m for m in monomials_up_to_degree(n, degree_bound // 2) if sum(m)]
    leibniz_ok = True
    for _ in range(samples):
        f = _random_poly(rng, p, n, mono_pool)
        g = _random_poly(rng, p, n, mono_pool)
        lhs = d.apply_poly(f * g)
        rhs = d.apply_poly(f) * g + f * d.apply_poly(g)
        if lhs != rhs:
            leibniz_ok = False
            failures.append(f"polynomial Leibniz fails on {f} | {g}")
            break
    for _ in range(samples):
        u = _random_nh(rng, p, n)
        v = _random_nh(rng, p, n)
        lhs = d.apply_nh(u * v)
        rhs = d.apply_nh(u) * v + u * d.apply_nh(v)
        if lhs != rhs:
            leibniz_ok = False
            failures.append("operator Leibniz fails on a random word pair")
            break

    relations_ok = True
    for name, lhs, rhs in nilhecke_relations(p, n):
        if d.apply_words(lhs) != d.apply_words(rhs):
            relations_ok = False
            failures.append(f"not well defined on relation {name}")

    p_nilpotent_ok = True
    checked_bound: dict[str, int | None] = {"poly": None, "nh": None}
    failure, checked_bound["poly"] = _poly_nilpotency_failure(d, degree_bound)
    if failure:
        p_nilpotent_ok = False
        failures.append(failure)
    if relations_ok:
        failure, checked_bound["nh"] = _nh_nilpotency_failure(d, degree_bound)
        if failure:
            p_nilpotent_ok = False
            failures.append(failure)

    return {
        "leibniz_ok": leibniz_ok,
        "relations_ok": relations_ok,
        "p_nilpotent_ok": p_nilpotent_ok,
        "all_ok": leibniz_ok and relations_ok and p_nilpotent_ok,
        "nilpotency_degree_bound": checked_bound,
        "failures": failures,
    }


def _non_nilpotent_degree(op: GradedOperator, degree_bound: int) -> int | None:
    """The first degree up to the bound on which d^p is a nonzero matrix."""
    p = op.space.p
    for deg in op.space.degrees:
        if deg <= degree_bound:
            mat = op.power_matrix(deg, p)
            if mat is not None and mat.any():
                return deg
    return None


def _poly_nilpotency_failure(d: Derivation, degree_bound: int) -> tuple[str | None, int]:
    """d^p on the polynomial ring up to the degree bound, via graded
    matrices; derivations without a uniform degree shift fall back to
    direct iteration up to degree 10.  Returns the failure, if any, and
    the degree bound checked."""
    p, n = d.p, d.n
    try:
        pspace = polynomial_space(p, n, degree_bound + d.shift * p)
        deg = _non_nilpotent_degree(derivation_operator(pspace, d, n), degree_bound)
    except StructureError:
        pass
    else:
        failure = None if deg is None else f"d^{p} != 0 on polynomial degree {deg}"
        return failure, degree_bound
    bound = min(degree_bound, 10)
    for exps in monomials_up_to_degree(n, bound):
        f = Polynomial.monomial(p, n, exps)
        for _ in range(p):
            f = d.apply_poly(f)
        if not f.is_zero():
            return f"d^{p} != 0 on the monomial with exponents {exps}", bound
    return None, bound


def _nh_nilpotency_failure(d: Derivation, degree_bound: int) -> tuple[str | None, int]:
    """As _poly_nilpotency_failure on the operator algebra; the direct
    iteration falls back to polynomial parts up to degree 6."""
    p = d.p
    try:
        nspace = nilhecke_space(p, d.n, degree_bound + d.shift * p)
        deg = _non_nilpotent_degree(nh_derivation_operator(nspace, d), degree_bound)
    except StructureError:
        pass
    else:
        failure = None if deg is None else f"d^{p} != 0 on operator degree {deg}"
        return failure, degree_bound
    bound = min(degree_bound, 6)
    for w in all_permutations(d.n):
        for exps in monomials_up_to_degree(d.n, bound):
            e = NilHeckeElement(p, d.n, {(exps, w.images): 1})
            for _ in range(p):
                e = d.apply_nh(e)
            if not e.is_zero():
                return f"d^{p} != 0 on x^{exps} D_{w.images}", bound
    return None, bound


def _random_poly(rng, p, n, pool) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(pool)] = rng.randrange(1, p)
    return Polynomial(p, n, terms)


def _random_nh(rng, p, n) -> NilHeckeElement:
    letters = []
    for _ in range(rng.randint(1, 4)):
        if n == 1 or rng.random() < 0.5:
            letters.append(("x", rng.randint(1, n)))
        else:
            letters.append(("d", rng.randint(1, n - 1)))
    return NilHeckeElement.from_word(p, n, tuple(letters), rng.randrange(1, p))


def compare_with_steenrod(
    p: int, n: int, degree_bound: int = 16, samples: int = 8, seed: int = 0
) -> dict:
    """Compare the induced action of P^1 (nonstandard structure) with the
    generator differential.

    Determines the sign on each generator empirically, checks the signs
    agree globally, and confirms bar P^1 = sign * d on random operator
    words.  Expected outcome: +1 at p = 2 and -1 at odd primes.
    """
    d = khovanov_qi_derivation(p, n)
    rng = random.Random(seed)
    per_generator: dict[str, int] = {}
    signs = set()

    def detect(bar_img: NilHeckeElement, der_img: NilHeckeElement, name: str):
        plus = bar_img == der_img
        minus = bar_img == -der_img
        if plus:
            per_generator[name] = 1
            signs.add(1)
        elif minus:
            per_generator[name] = -1
            signs.add(-1)
        else:
            per_generator[name] = 0
            signs.add(0)

    for i in range(1, n + 1):
        bar_img = bar_act(1, NilHeckeElement.x_gen(p, n, i), ACTION_NONSTANDARD, degree_bound)
        der_img = NilHeckeElement.from_polynomial(d.x_images[i - 1])
        detect(bar_img, der_img, f"x{i}")
    for i in range(1, n):
        bar_img = bar_act(1, NilHeckeElement.d_gen(p, n, i), ACTION_NONSTANDARD, degree_bound)
        detect(bar_img, d.d_images[i - 1], f"D{i}")

    if p == 2:
        global_sign = 1 if signs <= {1, -1} and 0 not in signs else 0
    else:
        global_sign = signs.pop() if len(signs) == 1 else 0

    elements_ok = global_sign != 0
    if elements_ok:
        for _ in range(samples):
            e = _random_nh(rng, p, n)
            if bar_act(1, e, ACTION_NONSTANDARD, degree_bound) != d.apply_nh(e) * global_sign:
                elements_ok = False
                break

    return {
        "per_generator": per_generator,
        "global_sign": global_sign,
        "elements_ok": elements_ok,
        "consistent": global_sign != 0 and elements_ok,
    }

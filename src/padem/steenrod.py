"""The mod-p algebra of Steenrod reduced powers.

Covers Adem rewriting to admissible form, the standard and nonstandard
actions on polynomial rings (Cartan expansion on products), the antipode,
the induced bar action on nilHecke operators, Margolis differentials, and
the comodule coaction on a one-variable polynomial ring.

A grading is a degree convention, not part of an element: "topological"
(|P^k| = 2k(p-1), the default) or "compressed" (|P^k| = 2k), passed to
SteenrodElement.degree and word_degree to read a degree.  The rewriting
and the actions do not depend on it.
"""

from __future__ import annotations

import functools

from .arith import LinearCombination, binomial_mod_p, reduce_terms, require_prime
from .errors import DomainError
from .nilhecke import NilHeckeElement, _apply_terms, reconstruct_operator
from .poly import Monomial, Polynomial

GRADING_TOPOLOGICAL = "topological"
GRADING_COMPRESSED = "compressed"
GRADINGS = (GRADING_TOPOLOGICAL, GRADING_COMPRESSED)

ACTION_STANDARD = "standard"
ACTION_NONSTANDARD = "nonstandard"
ACTIONS = (ACTION_STANDARD, ACTION_NONSTANDARD)

SteenrodWord = tuple[int, ...]


class SteenrodElement(LinearCombination):
    """F_p-linear combination of words P^{a_1} ... P^{a_k}.

    P^0 letters are identities and are stripped on construction; the
    empty word is the unit.  The ring is F_p alone (n is None), so an
    element acts on polynomials in any number of variables.
    """

    __slots__ = ()

    def __init__(self, p: int, terms: dict[SteenrodWord, int] | None = None):
        require_prime(p)
        self.p = p
        self.n = None
        self._hash = None
        self._powers = None
        self.terms = self._clean(terms)

    @staticmethod
    def _check_key(word) -> SteenrodWord:
        out = tuple(k for k in word if k != 0)
        if any(k < 0 for k in out):
            raise DomainError("negative power exponent")
        return out

    @staticmethod
    def _unit_key() -> SteenrodWord:
        return ()

    def _product(self, other: "SteenrodElement") -> dict[SteenrodWord, int]:
        new: dict[SteenrodWord, int] = {}
        get = new.get
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                new[w] = get(w, 0) + c1 * c2
        return reduce_terms(new, self.p)

    @staticmethod
    def _sort_key(word: SteenrodWord):
        return sum(word), word

    @staticmethod
    def _key_factors(word: SteenrodWord) -> list[str]:
        return [f"P({k})" for k in word]

    @classmethod
    def zero(cls, p: int) -> "SteenrodElement":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "SteenrodElement":
        return cls(p, {(): 1})

    @classmethod
    def p_power(cls, p: int, k: int) -> "SteenrodElement":
        if k < 0:
            raise DomainError("power index must be nonnegative")
        return cls(p, {(k,): 1})

    def word_degree(self, word: SteenrodWord, grading: str = GRADING_TOPOLOGICAL) -> int:
        """Degree of a word under the grading convention."""
        return grading_scale(self.p, grading) * sum(word)

    def is_homogeneous(self) -> bool:
        return len({sum(w) for w in self.terms}) <= 1

    def degree(self, grading: str = GRADING_TOPOLOGICAL):
        if not self.terms:
            return None
        degs = {self.word_degree(w, grading) for w in self.terms}
        if len(degs) != 1:
            raise DomainError("element is not homogeneous")
        return degs.pop()

    def is_admissible(self) -> bool:
        return all(_is_admissible_word(w, self.p) for w in self.terms)


def grading_scale(p: int, grading: str) -> int:
    """|P^1| under the grading convention: 2(p - 1) topological, 2
    compressed."""
    if grading not in GRADINGS:
        raise DomainError(f"unknown grading {grading!r}")
    return 2 * (p - 1) if grading == GRADING_TOPOLOGICAL else 2


def _is_admissible_word(word: SteenrodWord, p: int) -> bool:
    return all(word[i] >= p * word[i + 1] for i in range(len(word) - 1))


@functools.cache
def _adem_pair(p: int, a: int, b: int) -> tuple[tuple[SteenrodWord, int], ...]:
    """Admissible expansion of the inadmissible product P^a P^b (0 < a < pb)."""
    acc: dict[SteenrodWord, int] = {}
    for j in range(a // p + 1):
        c = binomial_mod_p((p - 1) * (b - j) - 1, a - p * j, p)
        if not c:
            continue
        if (a + j) % 2:
            c = p - c
        word = (a + b - j, j) if j else (a + b,)
        acc[word] = (acc.get(word, 0) + c) % p
    return tuple((w, c) for w, c in acc.items() if c)


def _find_inadmissible(word: SteenrodWord, p: int, leftmost: bool) -> int | None:
    indices = range(len(word) - 1)
    if not leftmost:
        indices = reversed(indices)
    for i in indices:
        if word[i] < p * word[i + 1]:
            return i
    return None


def _adem_normalize_terms(
    p: int, terms: dict[SteenrodWord, int], strategy: str
) -> dict[SteenrodWord, int]:
    leftmost = strategy == "leftmost"
    if not leftmost and strategy != "rightmost":
        raise DomainError(f"unknown strategy {strategy!r}")
    out: dict[SteenrodWord, int] = {}
    stack = [(c, w) for w, c in terms.items()]
    while stack:
        c, w = stack.pop()
        i = _find_inadmissible(w, p, leftmost)
        if i is None:
            val = (out.get(w, 0) + c) % p
            if val:
                out[w] = val
            else:
                out.pop(w, None)
            continue
        for pair_word, pc in _adem_pair(p, w[i], w[i + 1]):
            stack.append((c * pc % p, w[:i] + pair_word + w[i + 2 :]))
    return out


def adem_normalize(e: SteenrodElement, strategy: str = "leftmost") -> SteenrodElement:
    """Rewrite into admissible form by exhaustive Adem relation application."""
    return e._new(_adem_normalize_terms(e.p, e.terms, strategy))


# -- actions on polynomial rings --------------------------------------


@functools.cache
def _single_var_row(p: int, action: str, a: int, top: int) -> tuple[tuple[int, int, int], ...]:
    """(j, coefficient, new exponent) of P^j x^a in one variable, for every
    j <= top whose coefficient is nonzero mod p, in increasing j.

    The total power P_t = sum_j t^j P^j is a ring map, fixed by
    P_t(x) = x + t x^p (standard) or x (1 + t x)^(p-1) (nonstandard), so
    P^j x^a is C(a, j) x^(a + j(p-1)) or C((p-1)a, j) x^(a + j), and zero
    past j = a or (p-1)a.  The caller caps top there and at the power being
    split, so a huge exponent under a small power builds a short row."""
    if action == ACTION_STANDARD:
        upper, step = a, p - 1
    else:
        upper, step = (p - 1) * a, 1
    return tuple(
        (j, c, a + j * step) for j in range(top + 1) if (c := binomial_mod_p(upper, j, p))
    )


@functools.cache
def _act_power_monomial(
    p: int, action: str, k: int, exps: Monomial
) -> tuple[tuple[Monomial, int], ...]:
    """P^k on a monomial, distributing k over the variables (Cartan).

    A partial split is dropped as soon as the rows of the variables still
    to come cannot take what is left of k, so every split that survives
    the last variable uses all of k.  Splits never meet: the exponents of
    a prefix fix its j's.  So no coefficient is summed, and a product of
    nonzero row entries is nonzero mod p.

    A zero exponent's row holds only j = 0, so only the variables with a
    nonzero exponent are walked, and each surviving split is written into
    a copy of exps once: the cost is linear in the number of variables."""
    scale = 1 if action == ACTION_STANDARD else p - 1
    where = [i for i, a in enumerate(exps) if a]
    rows = [_single_var_row(p, action, exps[i], min(k, scale * exps[i])) for i in where]
    room = [0] * (len(rows) + 1)  # room[i]: the most that rows i.. can take
    for i in range(len(rows) - 1, -1, -1):
        room[i] = room[i + 1] + rows[i][-1][0]
    if k > room[0]:
        return ()
    frontier: list[tuple[Monomial, int, int]] = [((), k, 1)]
    for row, rest in zip(rows, room[1:]):
        nxt = []
        for prefix, k_rem, c in frontier:
            least = k_rem - rest
            for j, cj, e in row:
                if j > k_rem:
                    break
                if j >= least:
                    nxt.append((prefix + (e,), k_rem - j, c * cj % p))
        frontier = nxt
    out = []
    for split, _, c in frontier:
        m = list(exps)
        for i, e in zip(where, split):
            m[i] = e
        out.append((tuple(m), c))
    return tuple(out)


def _add_power_terms(
    p: int, action: str, k: int, terms: dict[Monomial, int], scale: int, out: dict
) -> None:
    """Add scale times P^k of the polynomial with these terms into out,
    unreduced."""
    get = out.get
    if k == 0:
        for m, c in terms.items():
            out[m] = get(m, 0) + scale * c
        return
    for m, c in terms.items():
        c *= scale
        for m2, c2 in _act_power_monomial(p, action, k, m):
            out[m2] = get(m2, 0) + c * c2


def _act_terms(p: int, action: str, words, terms: dict[Monomial, int]) -> dict[Monomial, int]:
    """Terms of the sum of power words ((word, coefficient), ...) applied
    to the polynomial with these terms, rightmost letter first, reduced
    mod p: each inner letter's value once, and the output once, as the
    leftmost letter of each word adds into it."""
    out: dict[Monomial, int] = {}
    for word, c in words:
        g = terms
        for k in reversed(word[1:]):
            if not g:
                break
            acc: dict[Monomial, int] = {}
            _add_power_terms(p, action, k, g, 1, acc)
            g = reduce_terms(acc, p)
        _add_power_terms(p, action, word[0] if word else 0, g, c, out)
    return reduce_terms(out, p)


def _require_action(action: str) -> None:
    if action not in ACTIONS:
        raise DomainError(f"unknown action {action!r}")


def act(e: SteenrodElement, f: Polynomial, action: str = ACTION_STANDARD) -> Polynomial:
    """Apply a sum of power words to a polynomial, rightmost letter first."""
    _require_action(action)
    e._check_compatible(f)
    return Polynomial._raw(f.p, f.n, _act_terms(f.p, action, e.terms.items(), f.terms))


# -- antipode ----------------------------------------------------------


@functools.cache
def _antipode_power_terms(p: int, d: int) -> tuple[tuple[SteenrodWord, int], ...]:
    # S(P^d) = -P^d - sum_{i=1}^{d-1} P^i S(P^{d-i}), kept admissible.
    if d == 0:
        return (((), 1),)
    acc: dict[SteenrodWord, int] = {(d,): p - 1}
    for i in range(1, d):
        for word, c in _antipode_power_terms(p, d - i):
            w = (i,) + word
            acc[w] = (acc.get(w, 0) - c) % p
    return tuple(_adem_normalize_terms(p, acc, "leftmost").items())


def antipode_power(p: int, d: int) -> SteenrodElement:
    """S(P^d) in admissible form."""
    if d < 0:
        raise DomainError("power index must be nonnegative")
    return SteenrodElement(p, dict(_antipode_power_terms(p, d)))


def antipode(e: SteenrodElement) -> SteenrodElement:
    """Antipode: linear, and anti-multiplicative over words."""
    out = SteenrodElement.zero(e.p)
    for word, c in e.terms.items():
        prod = SteenrodElement.one(e.p)
        for k in reversed(word):
            prod = prod * antipode_power(e.p, k)
        out = out + prod * c
    return adem_normalize(out)


# -- bar action on nilHecke operators ----------------------------------


def bar_act(
    k: int,
    e: NilHeckeElement,
    action: str = ACTION_STANDARD,
    degree_bound: int = 24,
) -> NilHeckeElement:
    """Induced action of P^k on a nilHecke operator.

    The operator y -> sum_{i+j=k} P^j(e(S(P^i)(y))) is reconstructed in the
    x^a * D_w basis from its values on Schubert polynomials, then checked
    against the direct action on every monomial within the degree bound.
    A mismatch means the operator left the nilHecke algebra and raises
    ReconstructionError.  The sweep is shared as
    nilhecke.reconstruct_operator states.
    """
    if k < 0:
        raise DomainError("power index must be nonnegative")
    _require_action(action)
    p, nv = e.p, e.n
    if k == 0:
        return e
    antipodes = [_antipode_power_terms(p, i) for i in range(k + 1)]

    def transformed(y: Polynomial) -> Polynomial:
        out: dict[Monomial, int] = {}
        for i, words in enumerate(antipodes):
            g = _act_terms(p, action, words, y.terms)
            if g:
                _add_power_terms(p, action, k - i, _apply_terms(e.terms, g, p), 1, out)
        return Polynomial._raw(p, nv, reduce_terms(out, p))

    return reconstruct_operator(
        p, nv, transformed, degree_bound, note=f"bar action of P^{k}"
    )


def bar_act_element(
    el: SteenrodElement,
    e: NilHeckeElement,
    action: str = ACTION_STANDARD,
    degree_bound: int = 24,
) -> NilHeckeElement:
    """Bar action of a sum of power words; words compose rightmost first."""
    out = NilHeckeElement.zero(e.p, e.n)
    for word, c in el.terms.items():
        cur = e
        for k in reversed(word):
            cur = bar_act(k, cur, action, degree_bound)
        out = out + cur * c
    return out


# -- Margolis differentials --------------------------------------------

# Most admissible words a degree may hold for margolis_d to rewrite in it.
MARGOLIS_TERM_BUDGET = 100_000


def _admissible_count(p: int, degree: int, cap: int) -> int:
    """Number of admissible words P^{a_1} ... P^{a_k} with a_1 + ... + a_k
    equal to degree, or some number above cap once it is known to exceed it.

    The admissible words and the Milnor basis elements P(r_1, r_2, ...)
    with sum r_i (p^i - 1)/(p - 1) = degree are bases of the same space,
    so this counts the partitions of degree into the parts 1, p + 1,
    p^2 + p + 1, ...  The parts 1 and p + 1 alone give more than
    degree // (p + 1) of them."""
    if degree // (p + 1) > cap:
        return degree // (p + 1)
    parts = [1]
    while parts[-1] * p + 1 <= degree:
        parts.append(parts[-1] * p + 1)

    def count(rest: int, k: int) -> int:
        # partitions of rest into parts[0..k]
        if k == 0:
            return 1
        if k == 1:
            return rest // parts[1] + 1
        total = 0
        for used in range(0, rest + 1, parts[k]):
            total += count(rest - used, k - 1)
            if total > cap:
                break
        return total

    return count(degree, len(parts) - 1)


def _require_margolis_budget(t: int, p: int) -> None:
    """Raise DomainError when d_t's degree (p^t - 1)/(p - 1), in units of
    |P^1|, holds more than MARGOLIS_TERM_BUDGET admissible words.  The
    degree is summed one power of p at a time and stops once it alone
    exceeds the budget, so a huge t costs no big powers."""
    degree, power = 0, 1
    for _ in range(t):
        degree += power
        power *= p
        if degree // (p + 1) > MARGOLIS_TERM_BUDGET:
            break  # over the budget already; the count only grows with the degree
    if _admissible_count(p, degree, MARGOLIS_TERM_BUDGET) > MARGOLIS_TERM_BUDGET:
        raise DomainError(
            f"d_{t} at p={p} is over the work budget: its degree holds more "
            f"than {MARGOLIS_TERM_BUDGET} admissible words"
        )


@functools.cache
def margolis_d(t: int, p: int) -> SteenrodElement:
    """The primitive differential d_t, built from d_1 = P^1 and
    d_{i+1} = d_i P^{p^i} - P^{p^i} d_i, in admissible form.

    The recursion is taken as the definition.  Under the standard action
    it satisfies d_t(x_i) = (-1)^(t-1) x_i^(p^t); the commutator order
    fixes this sign, and d_t agrees with the coaction dual margolis_pst
    up to the same (-1)^(t-1).  At p = 2 all signs vanish.  A t whose
    degree holds more than MARGOLIS_TERM_BUDGET admissible words raises
    DomainError before any rewriting."""
    if t < 1:
        raise DomainError("differential index must be positive")
    require_prime(p)
    _require_margolis_budget(t, p)
    if t == 1:
        return SteenrodElement.p_power(p, 1)
    prev = margolis_d(t - 1, p)
    step = SteenrodElement.p_power(p, p ** (t - 1))
    return adem_normalize(prev * step - step * prev)


# -- Milnor coaction on one variable -----------------------------------

XiMonomial = tuple[int, ...]


def xi_monomial_degree(p: int, xi: XiMonomial) -> int:
    """Topological degree of a monomial in the dual generators."""
    return sum(e * 2 * (p**k - 1) for k, e in enumerate(xi, start=1))


def _coaction_of_power(p: int, m: int, cap: int):
    """Terms (x-exponent, xi-monomial, coefficient) of the coaction on x^m
    whose xi-monomial has degree at most cap, coefficients nonzero mod p.

    By the multinomial theorem, psi(x)^m = (x + x^p xi_1 + x^(p^2) xi_2
    + ...)^m has one term for each m = c_0 + c_1 + ... + c_K: the monomial
    x^(sum c_k p^k) xi_1^(c_1) ... xi_K^(c_K), with coefficient the product
    over k >= 1 of C(m - c_1 - ... - c_(k-1), c_k).  The walk fixes c_1,
    c_2, ... in turn, within the degree left under cap, and drops a prefix
    whose coefficient is zero mod p."""
    frontier = [(m, 0, (), 1, cap)]  # (m left, x-exponent, xi, coefficient, degree left)
    k = 1
    while 2 * (p**k - 1) <= cap:
        step, power = 2 * (p**k - 1), p**k
        nxt = []
        for rest, xe, xi, c, room in frontier:
            for ck in range(min(rest, room // step) + 1):
                if b := binomial_mod_p(rest, ck, p):
                    nxt.append((rest - ck, xe + ck * power, xi + (ck,), c * b % p, room - ck * step))
        frontier = nxt
        k += 1
    for rest, xe, xi, c, _ in frontier:
        while xi and not xi[-1]:
            xi = xi[:-1]
        yield xe + rest, xi, c


def milnor_coaction(f: Polynomial, degree_cap: int) -> dict[XiMonomial, Polynomial]:
    """Coaction on a one-variable polynomial: x^(p^s) maps to the sum of
    x^(p^(k+s)) tensor xi_k^(p^s), extended multiplicatively.

    Returns a map from xi-monomials (exponent tuples, xi_1 first) to their
    one-variable polynomial coefficients, truncated to xi-degree <= cap; a
    negative cap raises DomainError.  The xi-monomial of a term fixes
    c_1, c_2, ..., and then its x-exponent fixes m, so no two terms of any
    x^m in f meet and each is written once.
    """
    if f.n != 1:
        raise DomainError("the coaction is implemented on one variable only")
    if degree_cap < 0:
        raise DomainError(f"degree cap {degree_cap} must be nonnegative")
    p = f.p
    out: dict[XiMonomial, dict[Monomial, int]] = {}
    for (m,), c in f.terms.items():
        for xe, xi, c2 in _coaction_of_power(p, m, degree_cap):
            out.setdefault(xi, {})[(xe,)] = c * c2 % p
    return {xi: Polynomial._raw(p, 1, terms) for xi, terms in out.items()}


def margolis_pst(s: int, t: int, f: Polynomial) -> Polynomial:
    """The operator dual to xi_t^(p^s) on a one-variable polynomial,
    extracted from the coaction.

    On x^(p^i) it returns x^(p^(t+s)) when i = s and zero otherwise.
    """
    if s < 0 or t < 1:
        raise DomainError("need s >= 0 and t >= 1")
    if f.n != 1:
        raise DomainError("the coaction is implemented on one variable only")
    p = f.p
    target: XiMonomial = (0,) * (t - 1) + (p**s,)
    cap = xi_monomial_degree(p, target)
    return milnor_coaction(f, cap).get(target, Polynomial.zero(p, 1))

"""Invariant suite behind the verify-all subcommand.

Each check returns a Check record and sweeps exactly the bounds it is
given; the table in _table is the one place that states them, as a
function of (p, n, degree bound, seed, words).  A randomized check draws
from its own random.Random(seed), with the seed its row names, so each
row is a function of its arguments alone and a failure reproduces
exactly.

run_matrix validates every configuration of primes and variable counts,
then runs each distinct (name, arguments) row once, as one task of
pool.fork_map: a row that repeats an earlier one reports the kept result
(the n = 4 lines of pdg-verify and steenrod-sign report the n = 3
result, and binomials, hopf-antipode and groth run once per prime).
The results come back in table order, the same as a run in one process.

Every exhaustive sweep runs on nilhecke.least_failure; inside a row,
itself a pool task, it stays in the row's process.  nilhecke-relations,
sym-equivariance and commutator pack each run of monomials into ints, a
field per exponent that holds the largest exponent plus the most the
letters raise one (the most x letters of a relation word, d(p - 1) for
P^d and s_i P^(d-1)), so a letter moves the whole run by int additions
through the two kernels of nilhecke: _add_product for x_i and s_i,
_add_field_map for D_i and P^d.  nilhecke-relations, and each D_j of
sym-equivariance (D_j e_i = e_i D_j), is one
nilhecke.first_word_sum_mismatch, which applies each rightmost letter of
its words to a run once and the rest of each word to that image.  The
p-nilpotence sweep of pdg-verify walks packed labels one at a time
(pdg._first_non_nilpotent), each from its kept row d(label).  The top
power and instability of steenrod-axioms are read off the Cartan rows
of steenrod._act_power_monomial.  Each reports the first failure, and its
detail, of a loop over the monomials one at a time.  bar-closed-form
peels only the nonzero D_w coefficients off the Schubert values
(nilhecke.reconstruct_operator), and its certifying sweep stays on
exponent tuples: packed P^k tables raised the peak memory of the
benchmark's identities workload, and the smaller ones, kept per run,
gave no speed gain.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from . import groth, pdg, steenrod
from .arith import Record, binomial_mod_p, require_ring
from .errors import DomainError, PademError
from .nilhecke import (
    NilHeckeElement,
    Permutation,
    _add_field_map,
    _add_packed_letter,
    _add_product,
    _pack,
    apply_word,
    divided_difference,
    first_key_check,
    first_word_sum_mismatch,
    least_failure,
    packed_check,
    require_reconstruction_budget,
    require_sweep_budget,
    schubert,
    sym_linearity_check,
)
from .poly import Polynomial, elementary_symmetric, monomials_up_to_degree
from .pool import fork_map
from .steenrod import (
    ACTION_NONSTANDARD,
    ACTION_STANDARD,
    SteenrodElement,
    act,
    adem_normalize,
    antipode_power,
    bar_act,
    margolis_d,
)


class Check(Record):
    """One check's outcome: its name, whether it passed, and a detail
    that says what failed."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        super().__init__(name, ok, detail)


def _random_monomial(rng, n, max_exp_sum):
    total = rng.randint(0, max_exp_sum)
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _random_poly(rng, p, n, max_exp_sum=5, terms=3):
    t = {}
    for _ in range(rng.randint(1, terms)):
        t[_random_monomial(rng, n, max_exp_sum)] = rng.randrange(1, p)
    return Polynomial(p, n, t)


def _random_steenrod_word(rng, p, max_len=3, max_exp=9):
    word = tuple(rng.randint(1, max_exp) for _ in range(rng.randint(1, max_len)))
    return SteenrodElement(p, {word: rng.randrange(1, p)})


def check_nilhecke_relations(p, n, degree_bound) -> Check:
    monos = monomials_up_to_degree(n, degree_bound)
    relations = pdg.nilhecke_relations(p, n)
    found = first_word_sum_mismatch([(lhs, rhs) for _, lhs, rhs in relations], monos, p, n)
    if found is None:
        return Check("nilhecke-relations", True)
    r, i = found
    f = Polynomial.monomial(p, n, monos[i])
    return Check("nilhecke-relations", False, f"{relations[r][0]} fails on {f}")


def check_normalize_action(p, n, seed, words) -> Check:
    rng = random.Random(seed)
    for _ in range(words):
        letters, c = pdg.random_nh_word(rng, p, n)
        e = NilHeckeElement.from_word(p, n, letters, c)
        for _ in range(3):
            f = _random_poly(rng, p, n)
            if e.apply(f) != apply_word(letters, f) * c:
                word = "*".join(f"{kind.upper()}{i}" for kind, i in letters)
                return Check("normalize-preserves-action", False, f"{c}*{word} on {f}")
    return Check("normalize-preserves-action", True)


def check_leibniz(p, n, seed, samples) -> Check:
    rng = random.Random(seed)
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        g = _random_poly(rng, p, n)
        j = rng.randint(1, n - 1)
        lhs = divided_difference(f * g, j)
        rhs = divided_difference(f, j) * g + f.transpose(j) * divided_difference(g, j)
        if lhs != rhs:
            return Check("twisted-leibniz", False, f"j={j}, f={f}, g={g}")
    return Check("twisted-leibniz", True)


def check_sym_equivariance(p, n, degree_bound) -> Check:
    # each D_j commutes with every e_i on every monomial within the bound
    for j in range(1, n):
        if not sym_linearity_check(NilHeckeElement.d_gen(p, n, j), degree_bound):
            return Check("sym-equivariance", False, f"j={j}")
    return Check("sym-equivariance", True)


def _top_power_failure(p, n, degree_bound) -> str | None:
    """What fails on the first monomial x^a, of degree h, on which the
    standard P^h x^a = x^(pa) (h > 0) or P^(h+1) x^a = 0 fails, the top
    power first, or None: read off the Cartan rows of
    steenrod._act_power_monomial, swept by nilhecke.least_failure."""

    def fails(a) -> str | None:
        h, row = sum(a), steenrod._act_power_monomial
        if h and row(p, ACTION_STANDARD, h, a) != ((tuple(p * e for e in a), 1),):
            return "top power"
        return "instability" if row(p, ACTION_STANDARD, h + 1, a) else None

    monos = monomials_up_to_degree(n, degree_bound)
    found = least_failure(monos, first_key_check(fails))
    if found is None:
        return None
    a = monos[found[1]]
    return f"{fails(a)} fails on {Polynomial.monomial(p, n, a)}"


def check_steenrod_axioms(p, n, degree_bound, seed, samples) -> Check:
    rng = random.Random(seed)
    # P^0 identity
    for _ in range(5):
        f = _random_poly(rng, p, n)
        if act(SteenrodElement.p_power(p, 0), f) != f:
            return Check("steenrod-axioms", False, "P(0) is not the identity")
    # Cartan formula on random products
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        g = _random_poly(rng, p, n)
        k = rng.randint(0, 6)
        for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
            lhs = act(SteenrodElement.p_power(p, k), f * g, action)
            rhs = Polynomial.zero(p, n)
            for i in range(k + 1):
                rhs = rhs + act(SteenrodElement.p_power(p, i), f, action) * act(
                    SteenrodElement.p_power(p, k - i), g, action
                )
            if lhs != rhs:
                return Check("steenrod-axioms", False, f"Cartan fails ({action})")
    # top power rule and instability, standard action
    detail = _top_power_failure(p, n, degree_bound)
    if detail is not None:
        return Check("steenrod-axioms", False, detail)
    # the nonstandard structure is not unstable at odd primes
    if p > 2:
        x = Polynomial.variable(p, 1, 1)
        witness = act(SteenrodElement.p_power(p, 2), x, ACTION_NONSTANDARD)
        if witness.is_zero():
            return Check("steenrod-axioms", False, "expected unstable violation")
    return Check("steenrod-axioms", True)


def check_adem(p, n, seed, words) -> Check:
    rng = random.Random(seed)
    for _ in range(words):
        e = _random_steenrod_word(rng, p)
        left = adem_normalize(e, "leftmost")
        right = adem_normalize(e, "rightmost")
        if left != right:
            return Check("adem", False, f"strategy mismatch on {e}")
        if not left.is_admissible():
            return Check("adem", False, f"inadmissible output on {e}")
        for _ in range(2):
            f = _random_poly(rng, p, n, max_exp_sum=4, terms=2)
            for action in (ACTION_STANDARD, ACTION_NONSTANDARD):
                if act(e, f, action) != act(left, f, action):
                    return Check("adem", False, f"action changes on {e}")
    return Check("adem", True)


def _s(p, n, i) -> Polynomial:
    """s_i = D_i(x_i^p) = h_(p-1)(x_i, x_(i+1)), the twist in the
    commutator of the total power with D_i."""
    return divided_difference(Polynomial.variable(p, n, i) ** p, i)


def check_commutator(p, n, degree_bound, max_d) -> Check:
    # [P^d, D_i] = sum_{j>=1} (-1)^j s_i^j D_i P^(d-j) for d <= max_d, with
    # s_i = D_i(x_i^p), is (1 + t s_i) P_t D_i = D_i P_t for the total
    # power P_t; read at t^d it is P^d D_i f + s_i P^(d-1) D_i f = D_i P^d f.
    # Where the identity holds below d the two forms agree at d, so the
    # first failure in (d, i, f) order is the same.  The monomials are
    # swept in packed runs (nilhecke.packed_check), ranked by (d, i): per
    # run P^d is applied once per d and D_i once per i, each a field map
    # whose offsets are kept for the sweep, and s_i is a packed product.
    # P^d raises an exponent by at most d(p - 1), and so does s_i P^(d-1).
    s = [None] + [_s(p, n, i).terms.items() for i in range(1, n)]
    dd: dict[int, dict] = {j: {} for j in range(1, n)}
    tables: dict[int, dict] = {d: {} for d in range(1, max_d + 1)}

    def diffs(batch, width):
        s_rows = [None] + [tuple((_pack(m, width), c) for m, c in s[i]) for i in range(1, n)]

        def power(d, terms):
            out: dict[int, int] = {}
            fn = functools.partial(steenrod._act_power_monomial, p, ACTION_STANDARD, d)
            _add_field_map(fn, 0, n, terms, 1, out, width, tables[d])
            return out

        moved = [None] + [{} for _ in range(1, n)]
        for i in range(1, n):
            _add_packed_letter(("d", i), batch, 1, moved[i], width, dd)
        prev = list(moved)
        for d in range(1, max_d + 1):
            image = power(d, batch)
            for i in range(1, n):
                got = power(d, moved[i])
                diff = dict(got)
                _add_product(prev[i], s_rows[i], 1, diff)
                _add_packed_letter(("d", i), image, -1, diff, width, dd)
                yield (d, i), diff
                prev[i] = got

    monos = monomials_up_to_degree(n, degree_bound)
    found = least_failure(monos, packed_check(monos, p, n, max_d * (p - 1), diffs))
    if found is not None:
        (d, i), index = found
        f = Polynomial.monomial(p, n, monos[index])
        return Check("commutator", False, f"d={d}, i={i}, f={f}")
    return Check("commutator", True)


def check_s_powers(p, n, max_d) -> Check:
    # P^d s_1 = (-1)^d s_1^(d+1) below p and 0 from p on: each value below
    # p is -s_1 times the one before.  As s_1 (x_1 - x_2) = x_1^p - x_2^p,
    # for 0 < d < p that reads (x_1 - x_2) P^d s_1 = -(x_1^p - x_2^p)
    # P^(d-1) s_1, two-term products in place of products by s_1; the
    # factor x_1 - x_2 is injective, so the first failing d is the same.
    x1, x2 = Polynomial.variable(p, n, 1), Polynomial.variable(p, n, 2)
    s1 = _s(p, n, 1)
    step, shifted_step = x1 - x2, x2**p - x1**p
    prev = None
    for d in range(0, max_d + 1):
        got = act(SteenrodElement.p_power(p, d), s1)
        if d == 0:
            ok = got == s1
        elif d < p:
            ok = step * got == shifted_step * prev
        else:
            ok = got.is_zero()
        if not ok:
            return Check("s-powers", False, f"d={d}")
        prev = got
    return Check("s-powers", True)


def check_bar_closed_form(p, n, degree_bound, max_power) -> Check:
    s1 = _s(p, n, 1)
    dgen = NilHeckeElement.d_gen(p, n, 1)
    for k in range(1, max_power + 1):
        got = bar_act(k, dgen, ACTION_STANDARD, degree_bound)
        want = NilHeckeElement.from_polynomial(s1**k) * dgen * (-1 if k % 2 else 1)
        if got != want:
            return Check("bar-closed-form", False, f"power {k} on D1")
        got_x = bar_act(k, NilHeckeElement.x_gen(p, n, 1), ACTION_STANDARD, degree_bound)
        want_x = NilHeckeElement.from_polynomial(
            act(SteenrodElement.p_power(p, k), Polynomial.variable(p, n, 1))
        )
        if got_x != want_x:
            return Check("bar-closed-form", False, f"power {k} on x1")
    return Check("bar-closed-form", True)


def check_margolis_generators(p, n, max_t) -> Check:
    # The recursion fixes the sign (-1)^(t-1) on x_i^(p^t).
    for t in range(1, max_t + 1):
        dt = margolis_d(t, p)
        for i in range(1, n + 1):
            x = Polynomial.variable(p, n, i)
            if act(dt, x) != x ** (p**t) * ((-1) ** (t - 1)):
                return Check("margolis-generators", False, f"d_{t} on x{i}")
    return Check("margolis-generators", True)


def check_pdg(p, n, degree_bound, seed) -> Check:
    # the Khovanov-Qi derivation is the twist a = 0
    derivations = [("khovanov-qi", pdg.khovanov_qi_derivation(p, n))]
    derivations += [(f"twist a={a}", pdg.twisted_derivation(p, n, a)) for a in (1, 2)]
    for label, d in derivations:
        report = pdg.verify_pdg(d, degree_bound=degree_bound, seed=seed)
        if not report["all_ok"]:
            return Check("pdg-verify", False, f"{label}: {report['failures'][:1]}")
    return Check("pdg-verify", True)


def check_symmetric_derivative_rule(p, n) -> Check:
    d = pdg.khovanov_qi_derivation(p, n)
    e = [elementary_symmetric(i, n, p) for i in range(n + 1)]
    for i in range(1, n + 1):
        got = d.apply_poly(e[i])
        want = e[1] * e[i]
        if i < n:
            want = want - e[i + 1] * (i + 1)
        if got != want:
            return Check("symmetric-derivative", False, f"e_{i}")
    return Check("symmetric-derivative", True)


# Random operators check_steenrod_sign checks bar P^1 = sign * d on.
SIGN_SAMPLES = 8


def check_steenrod_sign(p, n, degree_bound, seed) -> Check:
    # bar P^1 under the nonstandard action is sign * d for the Khovanov-Qi
    # derivation d, with sign +1 at p = 2 and -1 otherwise: on each x_i
    # and D_i, then on SIGN_SAMPLES random operator words
    d = pdg.khovanov_qi_derivation(p, n)
    sign = 1 if p == 2 else -1
    rng = random.Random(seed)
    generators = [NilHeckeElement.x_gen(p, n, i) for i in range(1, n + 1)]
    generators += [NilHeckeElement.d_gen(p, n, i) for i in range(1, n)]
    samples = (
        NilHeckeElement.from_word(p, n, *pdg.random_nh_word(rng, p, n))
        for _ in range(SIGN_SAMPLES)
    )
    for e in itertools.chain(generators, samples):
        if bar_act(1, e, ACTION_NONSTANDARD, degree_bound) != d.apply_nh(e) * sign:
            return Check("steenrod-sign", False, f"bar P(1) != {sign} * d on {e}")
    return Check("steenrod-sign", True)


def check_groth(p, degree_cap) -> Check:
    profile = groth.SubHopfProfile.filtration(1, p)
    dim_q = groth.graded_dimension(profile)
    dims, certified = groth.enumerate_an_basis(1, p, degree_cap=degree_cap)
    if not certified:
        return Check("groth", False, "closure not certified")
    series = {d: c for d, c in enumerate(dim_q.coefficient_list()) if c}
    if series != dims:
        return Check("groth", False, f"dimension mismatch {series} vs {dims}")
    groth.k0_presentation(profile)  # raises DomainError if the factors miss the relation
    return Check("groth", True)


def check_hopf_antipode(p, max_d) -> Check:
    for d in range(1, max_d + 1):
        total = SteenrodElement.zero(p)
        for i in range(d + 1):
            total = total + antipode_power(p, i) * SteenrodElement.p_power(p, d - i)
        if not adem_normalize(total).is_zero():
            return Check("hopf-antipode", False, f"degree {d}")
    return Check("hopf-antipode", True)


def check_schubert_unit(p, n) -> Check:
    if schubert(Permutation.identity(n), n, p) != Polynomial.one(p, n):
        return Check("schubert-unit", False, "identity class is not 1")
    return Check("schubert-unit", True)


def check_binomials(p, limit) -> Check:
    for nn in range(limit):
        for kk in range(limit):
            if binomial_mod_p(nn, kk, p) != math.comb(nn, kk) % p:
                return Check("binomials", False, f"C({nn},{kk})")
    return Check("binomials", True)


def _table(p, n, degree_bound, seed, words) -> list:
    """(name, check function, the exact arguments it runs with) for each
    row of one configuration, in order, after validating the
    configuration (see run_matrix).  Every bound verify-all uses is stated
    here and only here, and so is the seed of each randomized row's own
    stream, f"{seed}/{p}/{n}/{name}": n is the configuration's, so the
    adem rows of n = 2, 3, 4 stay three rows though each runs at
    min(n, 2) variables.  The table is built on every call, so a replaced
    module attribute runs."""
    require_ring(p, n)
    if n < 2:
        raise DomainError(f"the invariant suite needs at least two variables, got n={n}")
    if degree_bound < 0:
        raise DomainError(f"degree bound {degree_bound} must be nonnegative")
    if words < 1:
        raise DomainError(f"need at least one random word per check, got words={words}")
    bar_bound = min(degree_bound, 12)
    require_sweep_budget("the relation sweep", n, degree_bound)
    require_reconstruction_budget(n, bar_bound)

    def stream(name):
        return f"{seed}/{p}/{n}/{name}"

    return [
        ("binomials", check_binomials, (p, 25)),
        ("nilhecke-relations", check_nilhecke_relations, (p, n, degree_bound)),
        (
            "normalize-preserves-action",
            check_normalize_action,
            (p, n, stream("normalize-preserves-action"), words),
        ),
        ("twisted-leibniz", check_leibniz, (p, n, stream("twisted-leibniz"), 30)),
        ("sym-equivariance", check_sym_equivariance, (p, n, 10)),
        ("schubert-unit", check_schubert_unit, (p, n)),
        (
            "steenrod-axioms",
            check_steenrod_axioms,
            (p, n, min(degree_bound, 16), stream("steenrod-axioms"), max(10, words // 4)),
        ),
        ("adem", check_adem, (p, min(n, 2), stream("adem"), words)),
        ("commutator", check_commutator, (p, n, min(degree_bound, 12), 3)),
        ("s-powers", check_s_powers, (p, n, 2 * p)),
        ("hopf-antipode", check_hopf_antipode, (p, 6)),
        ("bar-closed-form", check_bar_closed_form, (p, n, bar_bound, 2)),
        ("margolis-generators", check_margolis_generators, (p, n, 2)),
        ("pdg-verify", check_pdg, (p, min(n, 3), min(degree_bound, 14), seed)),
        ("symmetric-derivative", check_symmetric_derivative_rule, (p, n)),
        ("steenrod-sign", check_steenrod_sign, (p, min(n, 3), min(degree_bound, 12), seed)),
        ("groth", check_groth, (p, 4 * p * (p - 1) + 8)),
    ]


def _run_row(name, fn, args) -> Check:
    """The Check of one row; a PademError it raises fails the row with
    the error as its detail."""
    try:
        return fn(*args)
    except PademError as exc:
        return Check(name, False, str(exc))


def run_matrix(
    primes=(2, 3, 5),
    var_counts=(2, 3, 4),
    degree_bound: int = 24,
    seed: int = 0,
    words: int = 100,
) -> list[tuple[str, list[Check]]]:
    """Run the table of checks for every prime and variable count; a check
    that raises a PademError is reported as failed with the error as its
    detail, and the rest still run.

    Every configuration is validated before any check runs, and a bad one
    raises DomainError: the checks use D_1..D_{n-1}, so n >= 2, the degree
    bound is nonnegative, the random-word checks need at least one word,
    and the relation sweep and the bar-closed-form reconstruction fit
    their work budget.

    Each distinct (name, arguments) row is then one task of
    pool.fork_map, in table order, so a row that repeats an earlier one
    reports the kept result, and the results come back in table order,
    the same as a run in one process.  The reconstructions of the
    bar-closed-form and steenrod-sign rows run inside a task, so they fork
    nothing more (see pool.fork_map).  An exception other than a
    PademError is raised here as the first failing task in task order
    raised it."""
    tasks = {}  # (name, arguments) -> (task index, row), in table order
    layout = []  # (config, the task index of each of its rows)
    for p in primes:
        for n in var_counts:
            table = _table(p, n, degree_bound, seed, words)
            slots = [tasks.setdefault((row[0], row[2]), (len(tasks), row))[0] for row in table]
            layout.append((f"p={p}, n={n}", slots))
    rows = [row for _t, row in tasks.values()]
    results = fork_map(lambda t: _run_row(*rows[t]), len(rows), [fn for _name, fn, _args in rows])
    return [(config, [results[t] for t in slots]) for config, slots in layout]

"""Invariant suite behind the verify-all subcommand.

Each check returns a Check record and sweeps exactly the bounds it is
given; the table in _table is the one place that states them, as a
function of (p, n, degree bound, seed, words).  Randomized checks draw
from the configuration's seeded rng so failures reproduce exactly.

run_matrix validates every configuration of primes and variable counts,
then turns the rows into tasks: one for each distinct row without the
rng, so a row whose name and arguments repeat an earlier one reports
the kept result (the n = 4 lines of pdg-verify and steenrod-sign report
the reused n = 3 result, and binomials, hopf-antipode and groth run once
per prime), and one for each configuration's chain of rows that draw
from its rng, in table order, so every draw is the same.  The tasks run
on forked worker processes, one per usable CPU, and the results come
back in table order: the output is the same as a run in one process,
which is what a profiled, traced or wrapped run gets (see _run_tasks).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys

from . import groth, pdg
from .arith import Record, binomial_mod_p, require_ring
from .errors import DomainError, PademError
from .nilhecke import (
    NilHeckeElement,
    Permutation,
    apply_word,
    divided_difference,
    first_word_sum_mismatch,
    require_reconstruction_budget,
    require_sweep_budget,
    schubert,
)
from .poly import Polynomial, elementary_symmetric, monomials_up_to_degree
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
    for name, lhs, rhs in pdg.nilhecke_relations(p, n):
        i = first_word_sum_mismatch(lhs, rhs, monos, p, n)
        if i is not None:
            f = Polynomial.monomial(p, n, monos[i])
            return Check("nilhecke-relations", False, f"{name} fails on {f}")
    return Check("nilhecke-relations", True)


def check_normalize_action(p, n, rng, words) -> Check:
    for _ in range(words):
        letters, c = pdg.random_nh_word(rng, p, n)
        e = NilHeckeElement.from_word(p, n, letters, c)
        for _ in range(3):
            f = _random_poly(rng, p, n)
            if e.apply(f) != apply_word(letters, f) * c:
                word = "*".join(f"{kind.upper()}{i}" for kind, i in letters)
                return Check("normalize-preserves-action", False, f"{c}*{word} on {f}")
    return Check("normalize-preserves-action", True)


def check_leibniz(p, n, rng, samples) -> Check:
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        g = _random_poly(rng, p, n)
        j = rng.randint(1, n - 1)
        lhs = divided_difference(f * g, j)
        rhs = divided_difference(f, j) * g + f.transpose(j) * divided_difference(g, j)
        if lhs != rhs:
            return Check("twisted-leibniz", False, f"j={j}, f={f}, g={g}")
    return Check("twisted-leibniz", True)


def check_sym_equivariance(p, n, rng, samples) -> Check:
    for _ in range(samples):
        f = _random_poly(rng, p, n)
        i = rng.randint(1, n)
        e = elementary_symmetric(i, n, p)
        j = rng.randint(1, n - 1)
        if divided_difference(e * f, j) != e * divided_difference(f, j):
            return Check("sym-equivariance", False, f"e_{i}, j={j}")
    return Check("sym-equivariance", True)


def check_steenrod_axioms(p, n, degree_bound, rng, samples) -> Check:
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
    for exps in monomials_up_to_degree(n, degree_bound):
        f = Polynomial.monomial(p, n, exps)
        half = sum(exps)
        if half and act(SteenrodElement.p_power(p, half), f) != f**p:
            return Check("steenrod-axioms", False, f"top power fails on {f}")
        if not act(SteenrodElement.p_power(p, half + 1), f).is_zero():
            return Check("steenrod-axioms", False, f"instability fails on {f}")
    # the nonstandard structure is not unstable at odd primes
    if p > 2:
        x = Polynomial.variable(p, 1, 1)
        witness = act(SteenrodElement.p_power(p, 2), x, ACTION_NONSTANDARD)
        if witness.is_zero():
            return Check("steenrod-axioms", False, "expected unstable violation")
    return Check("steenrod-axioms", True)


def check_adem(p, n, rng, words) -> Check:
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


def check_commutator(p, n, degree_bound, max_d) -> Check:
    # [P^d, D_i] = sum_{j>=1} (-1)^j s_i^j D_i P^(d-j) for d <= max_d, with
    # s_i = D_i(x_i^p), is (1 + t s_i) P_t D_i = D_i P_t for the total
    # power P_t; read at t^d it is P^d D_i f + s_i P^(d-1) D_i f = D_i P^d f.
    # Where the identity holds below d the two forms agree at d, so the
    # first failure in (d, i, f) order is the same.  Each monomial is
    # checked on its own (P^0 is the identity), keeping the least failure.
    s = [None] + [divided_difference(Polynomial.variable(p, n, i) ** p, i) for i in range(1, n)]
    powers = [SteenrodElement.p_power(p, d) for d in range(max_d + 1)]
    first = None
    for exps in monomials_up_to_degree(n, degree_bound):
        f = Polynomial.monomial(p, n, exps)
        images = [f] + [act(powers[d], f) for d in range(1, max_d + 1)]
        for i in range(1, n):
            moved = prev = divided_difference(f, i)
            for d in range(1, max_d + 1):
                got = act(powers[d], moved)
                if got + s[i] * prev != divided_difference(images[d], i):
                    if first is None or (d, i) < first[:2]:
                        first = (d, i, f)
                    break
                prev = got
    if first is not None:
        return Check("commutator", False, "d={}, i={}, f={}".format(*first))
    return Check("commutator", True)


def check_s_powers(p, n, max_d) -> Check:
    # P^d s_1 = (-1)^d s_1^(d+1) below p and 0 from p on: each value below
    # p is -s_1 times the one before.  As s_1 (x_1 - x_2) = x_1^p - x_2^p,
    # for 0 < d < p that reads (x_1 - x_2) P^d s_1 = -(x_1^p - x_2^p)
    # P^(d-1) s_1, two-term products in place of products by s_1; the
    # factor x_1 - x_2 is injective, so the first failing d is the same.
    x1, x2 = Polynomial.variable(p, n, 1), Polynomial.variable(p, n, 2)
    s1 = divided_difference(x1**p, 1)
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
    s1 = divided_difference(Polynomial.variable(p, n, 1) ** p, 1)
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
    presentation = groth.k0_presentation(profile)
    product = groth.IntPolynomial.one()
    for d in presentation["cyclotomic_factors"]:
        product = product * groth.cyclotomic(d)
    if product != presentation["relation"]:
        return Check("groth", False, "factor product mismatch")
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


def _table(p, n, degree_bound, seed, words, rng) -> list:
    """(name, check function, the exact arguments it runs with) for each
    row of one configuration, in order, after validating the
    configuration (see run_matrix).  Every bound verify-all uses is stated
    here and only here.  The table is built on every call, so a replaced
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
    return [
        ("binomials", check_binomials, (p, 25)),
        ("nilhecke-relations", check_nilhecke_relations, (p, n, degree_bound)),
        ("normalize-preserves-action", check_normalize_action, (p, n, rng, words)),
        ("twisted-leibniz", check_leibniz, (p, n, rng, 30)),
        ("sym-equivariance", check_sym_equivariance, (p, n, rng, 30)),
        ("schubert-unit", check_schubert_unit, (p, n)),
        (
            "steenrod-axioms",
            check_steenrod_axioms,
            (p, n, min(degree_bound, 16), rng, max(10, words // 4)),
        ),
        ("adem", check_adem, (p, min(n, 2), rng, words)),
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


def _run_rows(rows) -> list[Check]:
    """The Check of each (name, function, arguments) row, in order; a row
    that raises a PademError fails with the error as its detail."""
    out = []
    for name, fn, args in rows:
        try:
            out.append(fn(*args))
        except PademError as exc:
            out.append(Check(name, False, str(exc)))
    return out


def _run_tasks(tasks) -> list[list[Check]]:
    """_run_rows of each task: on forked workers, one per usable CPU, or in
    this process when one worker would do, when there is no fork, when
    this process runs other threads (a fork copies only the calling
    thread, so a lock another thread holds would stay held), or when the
    calls are observed here: under a profiler or a tracer, or with a
    check replaced by a functools.wraps wrapper, as instrumentation does,
    whose records live in this process and would miss a worker's calls."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(tasks))
    threading = sys.modules.get("threading")
    observed = sys.getprofile() or sys.gettrace()
    observed = observed or any(hasattr(fn, "__wrapped__") for rows in tasks for _n, fn, _a in rows)
    if workers < 2 or not hasattr(os, "fork") or (threading and threading.active_count() > 1) or observed:
        return [_run_rows(rows) for rows in tasks]
    return _run_pool(tasks, workers)


def _send(fd, value) -> None:
    import pickle

    data = pickle.dumps(value)
    data = len(data).to_bytes(4, "little") + data
    while data:
        data = data[os.write(fd, data) :]


def _read(fd, size) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd):
    """The next value _send wrote to fd; EOFError if the writer closed it
    first."""
    import pickle

    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 4), "little")))


def _serve(tasks, task_r, result_w) -> None:
    """A worker's loop: for each task index read from task_r, send
    (True, its Checks) or (False, the exception it raised) on result_w,
    until the parent closes task_r."""
    while True:
        try:
            i = _receive(task_r)
        except EOFError:
            return
        try:
            message = (True, _run_rows(tasks[i]))
        except Exception as exc:
            message = (False, exc)
        _send(result_w, message)


def _run_pool(tasks, workers) -> list[list[Check]]:
    """_run_rows of each task on `workers` forked processes.

    The workers are forked once and inherit the task list, so only task
    indices and results cross their two pipes, and each keeps its caches
    from task to task.  Indices go out in task order as workers come
    free.  A task that raises is re-raised here as the serial order
    would raise it: the lowest failing index, once every lower task has
    finished.  A worker that dies raises RuntimeError at once.  Every
    worker is reaped before this returns or raises.  A worker keeps only
    its own two pipe ends and leaves only through os._exit, so no exit
    handler or inherited buffer runs twice.  When a pipe or a fork fails
    (no process ids or memory left), the workers already forked do the
    work, or this process does when there are none."""
    import select
    import signal

    fds = []  # every pipe end open in this process
    pids = []
    channels = {}  # result read end -> (worker pid, task write end)
    clean = False
    try:
        for _ in range(workers):
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError:
                break
            task_r, task_w, result_r, result_w = fds[-4:]
            if pid == 0:
                code = 1
                try:
                    for fd in fds:
                        if fd not in (task_r, result_w):
                            os.close(fd)
                    _serve(tasks, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            for fd in (task_r, result_w):
                os.close(fd)
                fds.remove(fd)
            channels[result_r] = (pid, task_w)
        if not channels:
            return [_run_rows(rows) for rows in tasks]

        results: list = [None] * len(tasks)
        failure = None  # (index, exception) of the lowest failing task
        running = {}  # result read end -> the index of its worker's task
        idle = list(channels)
        next_task = 0
        while True:
            while idle and failure is None and next_task < len(tasks):
                result_r = idle.pop()
                _send(channels[result_r][1], next_task)
                running[result_r] = next_task
                next_task += 1
            if failure is not None:
                # the tasks after the failing one are not waited for
                running = {fd: i for fd, i in running.items() if i < failure[0]}
            if not running:
                break
            for result_r in select.select(list(running), [], [])[0]:
                i = running.pop(result_r)
                try:
                    ok, value = _receive(result_r)
                except EOFError:
                    pid = channels[result_r][0]
                    pids.remove(pid)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    names = ", ".join(name for name, _fn, _args in tasks[i])
                    raise RuntimeError(
                        f"a verify-all worker ended with exit code {code} while running {names}"
                    ) from None
                if ok:
                    results[i] = value
                elif failure is None or i < failure[0]:
                    failure = (i, value)
                idle.append(result_r)
        if failure is not None:
            raise failure[1]
        clean = True
        return results
    finally:
        for fd in fds:
            os.close(fd)  # an idle worker reads the end of its tasks and leaves
        for pid in pids:
            if not clean:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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

    The rows then become tasks, in table order.  Each distinct row
    without the rng, keyed by its name and arguments, is one task, so a
    row that repeats an earlier one reports the kept result.  The rows of
    a configuration that draw from its rng are one task, run in table
    order on one random.Random(seed), so every draw is the same.  The
    tasks run on forked workers, one per usable CPU (see _run_tasks and
    _run_pool), and the results come back in table order, the same as a
    run in one process.  An exception other than a PademError is raised
    here as the first failing task in task order raised it."""
    tables = []
    for p in primes:
        for n in var_counts:
            rng = random.Random(seed)
            tables.append((f"p={p}, n={n}", rng, _table(p, n, degree_bound, seed, words, rng)))
    tasks = []  # lists of rows
    kept = {}  # (name, arguments) -> index of the task that runs the row
    layout = []  # (config, [(task index, position in the task) per row])
    for config, rng, table in tables:
        chain = None
        slots = []
        for row in table:
            name, _fn, args = row
            if rng in args:
                if chain is None:
                    chain = len(tasks)
                    tasks.append([])
                slots.append((chain, len(tasks[chain])))
                tasks[chain].append(row)
                continue
            if (name, args) not in kept:
                kept[name, args] = len(tasks)
                tasks.append([row])
            slots.append((kept[name, args], 0))
        layout.append((config, slots))
    results = _run_tasks(tasks)
    return [(config, [results[t][i] for t, i in slots]) for config, slots in layout]

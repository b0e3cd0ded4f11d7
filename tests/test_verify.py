"""The verify-all check table: each distinct check runs once across the
matrix, and each randomized row draws from its own stream; the fork pool
that run_matrix and the sweep driver share gives the serial results,
keeps calls made inside a task in-process and leaves no process; and the
checks the acceptance suite shares catch planted faults."""

import collections
import functools
import os
import signal
import sys
import threading
import time

import pytest

from padem import arith, groth, nilhecke, pdg, steenrod, verify
from padem.cli import main
from padem.errors import ReconstructionError
from padem.nilhecke import NilHeckeElement, reconstruct_operator
from padem.poly import Polynomial, monomials_up_to_degree
from padem.steenrod import act

import oracles


def test_check_records_compare_by_fields():
    assert verify.Check("groth", True) == verify.Check("groth", True, "")
    assert verify.Check("groth", True) != verify.Check("groth", False)
    assert verify.Check("groth", False, "a") != verify.Check("groth", False, "b")
    assert verify.Check("groth", True) != ("groth", True, "")
    assert repr(verify.Check("adem", False, "x")) == "Check(name='adem', ok=False, detail='x')"


def _use_two_workers(monkeypatch):
    """The pool sees two usable CPUs, so it forks one helper, whatever
    CPUs this machine has and whether or not a coverage tool traces the
    tests."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)


# The checks that draw from a random.Random of the seed their row names.
RANDOMIZED = {
    "check_normalize_action": "normalize-preserves-action",
    "check_leibniz": "twisted-leibniz",
    "check_sym_equivariance": "sym-equivariance",
    "check_steenrod_axioms": "steenrod-axioms",
    "check_adem": "adem",
}


def test_run_matrix_runs_each_distinct_check_once(monkeypatch, tmp_path):
    # the checks run in worker processes, so each call appends a line to a
    # file instead of counting in this process
    log = tmp_path / "calls"
    names = (
        "check_pdg",
        "check_steenrod_sign",
        "check_binomials",
        "check_hopf_antipode",
        "check_groth",
        "check_commutator",
        *RANDOMIZED,
    )
    for name in names:

        def counted(*args, name=name, real=getattr(verify, name)):
            with open(log, "a") as f:
                f.write(name + "\n")
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    _use_two_workers(monkeypatch)
    results = verify.run_matrix((3,), (2, 3, 4), 12, 0, 5)
    # pdg-verify and steenrod-sign at n = 4 reuse the n = 3 result; the
    # checks of p alone run once per prime; every randomized row runs,
    # adem too, though it runs at min(n, 2) variables
    assert collections.Counter(log.read_text().split()) == {
        "check_pdg": 2,
        "check_steenrod_sign": 2,
        "check_binomials": 1,
        "check_hopf_antipode": 1,
        "check_groth": 1,
        "check_commutator": 3,
        **{name: 3 for name in RANDOMIZED},
    }
    monkeypatch.undo()
    separate = [row for n in (2, 3, 4) for row in verify.run_matrix((3,), (n,), 12, 0, 5)]
    assert results == separate
    assert all(check.ok for _, checks in results for check in checks)
    _assert_no_child_left()


def _fail_two_randomized_rows(monkeypatch):
    """Plant faults that fail normalize-preserves-action and adem with a
    detail naming the drawn sample, so a row's Check shows its draws."""
    monkeypatch.setattr(nilhecke, "_raise_length", lambda images, i: None)
    monkeypatch.setattr(steenrod, "_adem_pair", _flipped_adem_coefficient)


def test_a_randomized_row_is_its_check_on_the_seed_its_row_names(planted_fault):
    _fail_two_randomized_rows(planted_fault)
    results = verify.run_matrix((3,), (2, 3), 8, 7, 30)
    for n, (_config, checks) in zip((2, 3), results):
        for (name, fn, args), check in zip(verify._table(3, n, 8, 7, 30), checks):
            if fn.__name__ in RANDOMIZED:
                assert args[-2] == f"7/3/{n}/{name}"
                assert check == fn(*args)
                assert check.ok == (name not in ("normalize-preserves-action", "adem"))


@pytest.mark.parametrize("replaced", RANDOMIZED)
def test_a_changed_randomized_row_moves_no_other_row(planted_fault, replaced):
    # the replacement draws more samples than the table asks for
    _fail_two_randomized_rows(planted_fault)
    before = verify.run_matrix((3,), (2, 3), 8, 0, 30)
    real = getattr(verify, replaced)

    def drawing_more(*args):
        return real(*args[:-1], args[-1] + 7)

    planted_fault.setattr(verify, replaced, drawing_more)
    after = verify.run_matrix((3,), (2, 3), 8, 0, 30)
    for (config, old), (_config, new) in zip(before, after):
        for a, b in zip(old, new):
            assert b == a or b.name == RANDOMIZED[replaced], (config, a, b)


def test_run_matrix_in_one_process_equals_the_pool(monkeypatch):
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    _use_two_workers(monkeypatch)
    pooled = verify.run_matrix((2, 3, 5), (2, 3, 4), 12, 0, 5)
    assert len(forks) == 1  # this process works too, beside one helper
    _assert_no_child_left()

    _forbid_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify.run_matrix((2, 3, 5), (2, 3, 4), 12, 0, 5) == pooled


def test_run_matrix_does_not_fork_beside_another_thread(monkeypatch):
    _use_two_workers(monkeypatch)
    _forbid_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        results = verify.run_matrix((3,), (2,), 8, 0, 5)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(check.ok for _, checks in results for check in checks)


def test_observed_checks_run_in_this_process(monkeypatch):
    # a wrapper's records, like the benchmark tracer's, see every call
    calls = []
    real = verify.check_groth

    @functools.wraps(real)
    def wrapped(*args):
        calls.append(args)
        return real(*args)

    expected = verify.run_matrix((3,), (2, 3), 8, 0, 5)
    _use_two_workers(monkeypatch)
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(verify, "check_groth", wrapped)
    assert verify.run_matrix((3,), (2, 3), 8, 0, 5) == expected
    assert len(calls) == 1


def test_an_observed_sweep_runs_in_this_process(monkeypatch):
    # the benchmark tracer wraps NilHeckeElement.apply, which the sweep calls
    calls = []
    real = NilHeckeElement.apply

    @functools.wraps(real)
    def wrapped(self, f):
        calls.append(f)
        return real(self, f)

    d1 = NilHeckeElement.d_gen(3, 3, 1)
    expected = steenrod.bar_act(1, d1, steenrod.ACTION_STANDARD, 12)
    _use_two_workers(monkeypatch)
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(NilHeckeElement, "apply", wrapped)
    assert steenrod.bar_act(1, d1, steenrod.ACTION_STANDARD, 12) == expected
    assert len(calls) == len(monomials_up_to_degree(3, 12)) == 84


def test_a_profiled_run_stays_in_this_process(monkeypatch):
    expected = verify.run_matrix((3,), (2,), 8, 0, 5)
    _use_two_workers(monkeypatch)
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(sys, "getprofile", lambda: print)
    assert verify.run_matrix((3,), (2,), 8, 0, 5) == expected


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_a_failed_fork_leaves_the_work_to_fewer_processes(monkeypatch, forks_before_failing):
    real_fork = os.fork
    forks = []

    def failing_fork():
        if len(forks) == forks_before_failing:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    _use_two_workers(monkeypatch)
    monkeypatch.setattr(os, "fork", failing_fork)
    results = verify.run_matrix((2, 3), (2, 3), 10, 0, 5)
    assert len(forks) == forks_before_failing
    _assert_no_child_left()
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert results == verify.run_matrix((2, 3), (2, 3), 10, 0, 5)


def test_a_worker_exception_is_raised_with_its_type_and_message(monkeypatch, capsys):
    def raising(*args):
        raise KeyError("x")

    monkeypatch.setattr(verify, "check_groth", raising)
    _use_two_workers(monkeypatch)
    with pytest.raises(KeyError) as info:
        verify.run_matrix((3,), (2, 3), 8, 0, 5)
    assert info.value.args == ("x",)
    _assert_no_child_left()
    code = main(["verify-all", "-p", "3", "-n", "2", "-D", "8", "--words", "5"])
    assert (code, *capsys.readouterr()) == (5, "", "internal error: KeyError: 'x'\n")
    _assert_no_child_left()


def test_the_first_failing_task_in_table_order_is_raised(monkeypatch):
    # binomials is the first task; groth, the last, fails while it sleeps
    def slow_first(*args):
        time.sleep(0.3)
        raise KeyError("first")

    def last(*args):
        raise ValueError("last")

    monkeypatch.setattr(verify, "check_binomials", slow_first)
    monkeypatch.setattr(verify, "check_groth", last)
    _use_two_workers(monkeypatch)
    with pytest.raises(KeyError, match="first"):
        verify.run_matrix((3,), (2,), 8, 0, 5)
    _assert_no_child_left()


def _timeout(signum, frame):
    raise TimeoutError("run_matrix did not return")


def test_a_worker_that_dies_raises_at_once(monkeypatch):
    # this process pauses in its first task, so the helper takes the rest,
    # groth (task 16) the last of them
    parent = os.getpid()
    real_run_row = verify._run_row
    paused = []

    def run_row(*row):
        if os.getpid() == parent and not paused:
            paused.append(True)
            time.sleep(0.5)
        return real_run_row(*row)

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("ran in the calling process")

    monkeypatch.setattr(verify, "_run_row", run_row)
    monkeypatch.setattr(verify, "check_groth", dying)
    _use_two_workers(monkeypatch)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 10)
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exit code 1 while running task 16$"):
            verify.run_matrix((3,), (2,), 8, 0, 5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5
    _assert_no_child_left()


def test_an_interrupt_reaps_every_worker(monkeypatch):
    def hanging(*args):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "check_groth", hanging)
    _use_two_workers(monkeypatch)
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            verify.run_matrix((3,), (2,), 8, 0, 5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5
    _assert_no_child_left()


def _log_forks(monkeypatch, log):
    """Append a line to log for every fork, in any process."""
    real_fork = os.fork

    def logged_fork():
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", logged_fork)


def test_calls_inside_a_task_stay_in_this_process(monkeypatch, tmp_path):
    # called on their own, the bar-closed-form reconstructions at n = 3
    # sweep 84 monomials in two tasks and fork a helper each; inside
    # run_matrix's tasks they fork none, in the caller or in the helper
    log = tmp_path / "forks"
    _log_forks(monkeypatch, log)
    _use_two_workers(monkeypatch)
    assert verify.check_bar_closed_form(3, 3, 12, 2).ok
    assert len(log.read_text().split()) == 4
    _assert_no_child_left()
    log.unlink()
    results = verify.run_matrix((3,), (2, 3), 24, 0, 5)
    assert len(log.read_text().split()) == 1
    assert all(check.ok for _, checks in results for check in checks)
    _assert_no_child_left()


def _d1_except_on(p, n, bad, effect, parent):
    """D_1's action, except on the monomial bad, where it calls effect.
    In the calling process, the first monomial of degree 8 or more in the
    sweep (no Schubert polynomial at n = 3 has one) pauses 0.3 s, so the
    helper takes the sweep's other tasks."""
    d1 = NilHeckeElement.d_gen(p, n, 1)
    paused = []

    def fn(y):
        if y.terms.keys() == {bad}:
            return effect(y)
        if os.getpid() == parent and not paused and y.degree() >= 8:
            paused.append(True)
            time.sleep(0.3)
        return d1.apply(y)

    return fn


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("cpus", [{0, 1}, {0}])
def test_the_sweep_finds_a_fault_in_any_share(monkeypatch, tmp_path, where, cpus):
    # 455 monomials of degree <= 24 at n = 3, in 8 tasks of 64; the last
    # one falls in task 7, which the helper takes while this process pauses
    p, n, bound = 3, 3, 24
    bad = monomials_up_to_degree(n, bound)[where]
    seen = tmp_path / "seen"
    d1 = NilHeckeElement.d_gen(p, n, 1)

    def wrong(y):
        seen.write_text(str(os.getpid()))
        return d1.apply(y) + y

    _use_two_workers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    fn = _d1_except_on(p, n, bad, wrong, os.getpid())
    with pytest.raises(ReconstructionError, match="^test operator is not realized by a nilHecke element$"):
        reconstruct_operator(p, n, fn, bound, note="test operator")
    if where == -1 and len(cpus) == 2:
        assert int(seen.read_text()) != os.getpid()
    _assert_no_child_left()


def test_an_exception_in_a_helpers_share_keeps_its_type_and_args(monkeypatch, tmp_path):
    p, n, bound = 3, 3, 24
    bad = monomials_up_to_degree(n, bound)[-1]
    seen = tmp_path / "seen"

    def raising(y):
        seen.write_text(str(os.getpid()))
        raise KeyError(bad, "wrong")

    _use_two_workers(monkeypatch)
    fn = _d1_except_on(p, n, bad, raising, os.getpid())
    with pytest.raises(KeyError) as info:
        reconstruct_operator(p, n, fn, bound)
    assert info.value.args == (bad, "wrong")
    assert int(seen.read_text()) != os.getpid()
    _assert_no_child_left()


# Four runs of nilhecke.least_failure, the last one partial.
DRIVER_KEYS = list(range(4 * nilhecke.SWEEP_CHUNK - 7))


def _planted_check(failures, raises=None, log=None):
    """A check of least_failure that fails on each key in failures at its
    rank, and raises ValueError("planted", raises) on the run that holds
    the key raises; log gets the first key of each run checked."""

    def check(run):
        if log is not None:
            with open(log, "a") as f:
                f.write(f"{run[0]}\n")
        if raises in run:
            raise ValueError("planted", raises)
        return min(((failures[k], i) for i, k in enumerate(run) if k in failures), default=None)

    return check


# case -> (failures planted in two runs, key whose run raises, answer)
DRIVER_CASES = {
    "least rank, then least index": ({10: (2,), 140: (1, 0), 150: (1, 0)}, None, ((1, 0), 140)),
    "the empty rank ends the sweep": ({30: (1,), 100: ()}, 200, ((), 100)),
    "an exception after a ranked failure": ({30: (1,), 150: (2,)}, 200, ValueError),
    "no failure": ({}, None, None),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", DRIVER_CASES)
def test_the_sweep_driver_keeps_its_contract(monkeypatch, tmp_path, case, workers):
    failures, raises, want = DRIVER_CASES[case]
    log = tmp_path / "forks"
    _log_forks(monkeypatch, log)
    _use_two_workers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    check = _planted_check(failures, raises)
    if want is ValueError:
        with pytest.raises(ValueError) as info:
            nilhecke.least_failure(DRIVER_KEYS, check)
        assert info.value.args == ("planted", raises)
    else:
        assert nilhecke.least_failure(DRIVER_KEYS, check) == want
    assert len(log.read_text().split() if log.exists() else ()) == workers - 1
    _assert_no_child_left()


def test_the_sweep_driver_stops_at_a_failure_of_the_empty_rank(monkeypatch, tmp_path):
    # in one process the runs are checked in order, up to the run that
    # holds the failure
    log = tmp_path / "runs"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    check = _planted_check({30: (1,), 100: ()}, 200, log)
    assert nilhecke.least_failure(DRIVER_KEYS, check) == ((), 100)
    assert log.read_text().split() == ["0", str(nilhecke.SWEEP_CHUNK)]


_ACT_POWER_MONOMIAL = steenrod._act_power_monomial


def _negated_power(p, action, k, exps):
    return tuple((m, -c % p) for m, c in _ACT_POWER_MONOMIAL(p, action, k, exps))


# (module, name, flipped, run): at p = 3 a flipped sign is a real change,
# -1 != 1.  The commutator row reads P^k on monomials through the packed
# letter, not act, so its flip is planted in the kernel both read.
FLIPPED_ACT = {
    "commutator": (
        steenrod, "_act_power_monomial", _negated_power,
        lambda: verify.check_commutator(3, 3, 8, 3),
    ),
    "s-powers": (
        verify, "act", lambda e, f, *rest: -act(e, f, *rest),
        lambda: verify.check_s_powers(3, 2, 6),
    ),
    "margolis-generators": (
        verify, "act", lambda e, f, *rest: -act(e, f, *rest),
        lambda: verify.check_margolis_generators(3, 2, 2),
    ),
}


@pytest.mark.parametrize("name", FLIPPED_ACT)
def test_shared_check_catches_a_flipped_action(monkeypatch, name):
    module, kernel, flipped, run = FLIPPED_ACT[name]
    assert run().ok
    monkeypatch.setattr(module, kernel, flipped)
    got = run()
    assert got.name == name and not got.ok


_FIELD_OFFSETS = nilhecke._field_offsets
_DD_PAIR = nilhecke._dd_pair
_S = verify._s


def _power_dropping_a_term(p, action, k, exps):
    # the last term of P^k, k >= 2, on a monomial with x1^3 or more
    rows = _ACT_POWER_MONOMIAL(p, action, k, exps)
    return rows[:-1] if k >= 2 and exps[0] >= 3 else rows


def _offsets_dropping_a_term(fn, first, fields, bits, width):
    # the same fault, planted in the offsets of the packed P^k letter only
    offsets = _FIELD_OFFSETS(fn, first, fields, bits, width)
    power = isinstance(fn, functools.partial) and fn.func is _ACT_POWER_MONOMIAL
    return offsets[:-1] if power and fn.args[2] >= 2 and bits & ((1 << width) - 1) >= 3 else offsets


def _sign_flipped_from_degree_five(ab):
    rows = _DD_PAIR(ab)
    return tuple((xy, -sign) for xy, sign in rows) if sum(ab) >= 5 else rows


def _s_dropping_a_term(p, n, i):
    # the least term of s_(n-1)
    s = _S(p, n, i)
    if i < n - 1:
        return s
    least = min(s.terms)
    return s - Polynomial.monomial(p, n, least, s.terms[least])


# fault -> (module, name, replacement) planted for the packed rows, and
# the same for their oracles
PLANTED_SWEEP_FAULTS = {
    "_act_power_monomial": ((steenrod, "_act_power_monomial", _power_dropping_a_term),) * 2,
    "_dd_pair": ((nilhecke, "_dd_pair", _sign_flipped_from_degree_five),) * 2,
    "s_i": ((verify, "_s", _s_dropping_a_term),) * 2,
    "packed P^k offsets": (
        (nilhecke, "_field_offsets", _offsets_dropping_a_term),
        (steenrod, "_act_power_monomial", _power_dropping_a_term),
    ),
}


@pytest.mark.parametrize("p, n", [(3, 2), (3, 4), (5, 3)])
@pytest.mark.parametrize("fault", PLANTED_SWEEP_FAULTS)
def test_packed_sweeps_report_a_planted_fault_like_their_oracles(monkeypatch, fault, p, n):
    # the commutator row and the top-power sweep of steenrod-axioms at
    # their verify-all bounds, against the same sweeps one monomial at a
    # time on tuple-keyed polynomials
    def rows():
        return (
            verify.check_commutator(p, n, 12, 3),
            verify._top_power_failure(p, n, 16),
        )

    def reference():
        return (
            oracles.commutator_by_monomial(p, n, 12, 3),
            oracles.top_power_by_monomial(p, n, 16),
        )

    assert rows() == reference() == (verify.Check("commutator", True), None)
    in_rows, in_oracles = PLANTED_SWEEP_FAULTS[fault]
    monkeypatch.setattr(*in_rows)
    got = rows()
    monkeypatch.undo()
    monkeypatch.setattr(*in_oracles)
    want = reference()
    if fault == "packed P^k offsets":
        # only the commutator reads the packed offsets; the top power reads
        # the Cartan rows and holds, as the un-faulted oracle does
        want = (want[0], None)
    assert got == want
    assert not got[0].ok
    if in_rows[1] == "_act_power_monomial":  # a wrong P^k fails the top power too
        assert got[1].startswith("top power fails on ")


def _top_power_and_instability_faults(p, action, k, exps):
    # P^h x^a loses its one term when a_1 >= 2, and P^(h+1) x^a is x^a
    # when a_n >= 2, for h = |a|
    if k == sum(exps) and exps[0] >= 2:
        return ()
    if k == sum(exps) + 1 and exps[-1] >= 2:
        return ((exps, 1),)
    return _ACT_POWER_MONOMIAL(p, action, k, exps)


@pytest.mark.parametrize(
    "n, detail",
    [
        (1, "top power fails on x1^2"),  # both fail on x1^2: the top power first
        (3, "instability fails on x3^2"),  # before x1^2 in degree 2
    ],
)
def test_top_power_sweep_reports_the_first_failure_like_its_oracle(monkeypatch, n, detail):
    monkeypatch.setattr(steenrod, "_act_power_monomial", _top_power_and_instability_faults)
    assert verify._top_power_failure(3, n, 16) == oracles.top_power_by_monomial(3, n, 16) == detail


WRONG_DERIVATION = {
    "pdg-verify": lambda: verify.check_pdg(3, 2, 8, 0),
    "symmetric-derivative": lambda: verify.check_symmetric_derivative_rule(3, 3),
    "steenrod-sign": lambda: verify.check_steenrod_sign(3, 2, 8, 0),
}


@pytest.mark.parametrize("name", WRONG_DERIVATION)
def test_shared_check_catches_a_wrong_derivation(monkeypatch, name):
    # x_i -> -x_i^2 with the D_i images kept: no longer compatible with
    # D_i x_i - x_(i+1) D_i = 1, off the closed form on e_i, and of the
    # opposite sign to bar P^1 on x_i but not on D_i
    run = WRONG_DERIVATION[name]
    assert run().ok
    real = pdg.khovanov_qi_derivation

    def wrong(p, n):
        d = real(p, n)
        return pdg.Derivation(p, n, [-f for f in d.x_images], list(d.d_images))

    monkeypatch.setattr(pdg, "khovanov_qi_derivation", wrong)
    got = run()
    assert got.name == name and not got.ok


_ADEM_PAIR = steenrod._adem_pair


def _flipped_adem_coefficient(p, a, b):
    return tuple((w, -c % p if k == 0 else c) for k, (w, c) in enumerate(_ADEM_PAIR(p, a, b)))


# (module, kernel, planted fault, run): at p = 3 the first coefficient of
# each Adem relation changes sign, and D_i never raises the length of w
WRONG_KERNEL = {
    "adem": (
        steenrod, "_adem_pair", _flipped_adem_coefficient,
        lambda: verify.check_adem(3, 2, 0, 100),
    ),
    "normalize-preserves-action": (
        nilhecke, "_raise_length", lambda images, i: None,
        lambda: verify.check_normalize_action(3, 3, 0, 20),
    ),
}


@pytest.mark.parametrize("name", WRONG_KERNEL)
def test_shared_check_catches_a_wrong_kernel(planted_fault, name):
    module, kernel, fault, run = WRONG_KERNEL[name]
    assert run().ok
    planted_fault.setattr(module, kernel, fault)
    got = run()
    assert got.name == name and not got.ok
    if name == "normalize-preserves-action":
        # the detail names the drawn word, its coefficient and the polynomial
        assert got.detail == "1*X2*X2*X3*D1 on x1^2*x3^3 + 2*x1^2"


def test_groth_row_catches_a_wrong_cyclotomic_polynomial(monkeypatch):
    # k0_presentation multiplies the cyclotomic factors back against the
    # relation and raises, which fails the row
    assert verify.check_groth(3, 32).ok
    monkeypatch.setattr(groth, "cyclotomic", lambda d: arith.cyclotomic(d + 1))
    results = verify.run_matrix((3,), (2,), 8, 0, 5)
    failed = [check for _, checks in results for check in checks if not check.ok]
    assert failed == [verify.Check("groth", False, "cyclotomic factorization failed verification")]

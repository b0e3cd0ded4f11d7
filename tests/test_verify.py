"""The verify-all check table: each distinct check runs once across the
matrix, the worker pool gives the serial results and leaves no process,
and the checks the acceptance suite shares catch planted faults."""

import collections
import functools
import os
import random
import signal
import sys
import threading
import time

import pytest

from padem import nilhecke, pdg, steenrod, verify
from padem.cli import main
from padem.steenrod import act


def test_check_records_compare_by_fields():
    assert verify.Check("groth", True) == verify.Check("groth", True, "")
    assert verify.Check("groth", True) != verify.Check("groth", False)
    assert verify.Check("groth", False, "a") != verify.Check("groth", False, "b")
    assert verify.Check("groth", True) != ("groth", True, "")
    assert repr(verify.Check("adem", False, "x")) == "Check(name='adem', ok=False, detail='x')"


def _use_two_workers(monkeypatch):
    """run_matrix forks two workers, whatever CPUs this machine has and
    whether or not a coverage tool traces the tests."""
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
    # checks of p alone run once per prime
    assert collections.Counter(log.read_text().split()) == {
        "check_pdg": 2,
        "check_steenrod_sign": 2,
        "check_binomials": 1,
        "check_hopf_antipode": 1,
        "check_groth": 1,
        "check_commutator": 3,
    }
    monkeypatch.undo()
    separate = [row for n in (2, 3, 4) for row in verify.run_matrix((3,), (n,), 12, 0, 5)]
    assert results == separate
    assert all(check.ok for _, checks in results for check in checks)
    _assert_no_child_left()


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
    assert len(forks) == 2
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
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("ran in the parent")

    monkeypatch.setattr(verify, "check_groth", dying)
    _use_two_workers(monkeypatch)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 10)
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="exit code 1 while running groth"):
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


# At p = 3 a flipped sign is a real change: -1 != 1.
FLIPPED_ACT = {
    "commutator": lambda: verify.check_commutator(3, 3, 8, 3),
    "s-powers": lambda: verify.check_s_powers(3, 2, 6),
    "margolis-generators": lambda: verify.check_margolis_generators(3, 2, 2),
}


@pytest.mark.parametrize("name", FLIPPED_ACT)
def test_shared_check_catches_a_flipped_action(monkeypatch, name):
    run = FLIPPED_ACT[name]
    assert run().ok
    monkeypatch.setattr(verify, "act", lambda e, f, *rest: -act(e, f, *rest))
    got = run()
    assert got.name == name and not got.ok


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
        lambda: verify.check_adem(3, 2, random.Random(0), 100),
    ),
    "normalize-preserves-action": (
        nilhecke, "_raise_length", lambda images, i: None,
        lambda: verify.check_normalize_action(3, 3, random.Random(0), 20),
    ),
}


@pytest.mark.parametrize("name", WRONG_KERNEL)
def test_shared_check_catches_a_wrong_kernel(monkeypatch, name):
    module, kernel, fault, run = WRONG_KERNEL[name]
    assert run().ok
    monkeypatch.setattr(module, kernel, fault)
    got = run()
    assert got.name == name and not got.ok
    if name == "normalize-preserves-action":
        # the detail names the drawn word, its coefficient and the polynomial
        assert got.detail == "1*X2*X2*X3*D1 on x1^2*x3^3 + 2*x1^2"

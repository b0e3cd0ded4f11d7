"""fork_map: run a list of independent tasks on this process and on
forked helpers, one for each further usable CPU.

The helpers are forked, not spawned: a task may close over local
functions, which do not pickle, and the helpers inherit this process's
warm caches, where a fresh interpreter would cost about 30 ms, more than
many a whole call.  Only task indices and pickled outcomes cross pipes.
"""

from __future__ import annotations

import os
import sys

# True while this process runs a task: a call made inside one, in this
# process or in a helper, stays in-process.
_inside = False


def fork_map(run, count: int, calls=()) -> list:
    """[run(i) for i in range(count)], the work shared by this process and
    one forked helper for each further usable CPU (the CPUs this process
    may run on).

    Everything runs here, in order, with one usable CPU or one task,
    without os.fork, beside other threads (a fork copies only the calling
    thread, so a lock another thread holds would stay held), inside a task
    of another fork_map, and when calls are observed: under a profiler or
    a tracer, or when one of `calls`, the functions the tasks call, is a
    functools.wraps wrapper, as instrumentation installs; their records
    live in this process and would miss a helper's calls.

    A task that raises is re-raised as the serial order would raise it:
    the exception of the lowest failing index.  A helper that dies raises
    RuntimeError naming its task.  Every helper is reaped before this
    returns or raises.  When a pipe or a fork fails (no process ids or
    memory left), fewer processes do the work."""
    threading = sys.modules.get("threading")
    if threading and threading.active_count() > 1:
        return [run(i) for i in range(count)]
    global _inside
    outer, _inside = _inside, True
    try:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        observed = sys.getprofile() or sys.gettrace() or any(hasattr(f, "__wrapped__") for f in calls)
        if min(cpus, count) < 2 or outer or observed or not hasattr(os, "fork"):
            return [run(i) for i in range(count)]
        return _pool(run, count, min(cpus, count) - 1)
    finally:
        _inside = outer


def _work(run, task_r, report) -> None:
    """Run each task whose index is read from task_r, until the pipe ends,
    and report(index, (True, result) or (False, exception)).  After a
    failure, read the rest and run none: the indices come in order, so
    each is past the failure."""
    failed = False
    while record := os.read(task_r, 4):
        if failed:
            continue
        i = int.from_bytes(record, "little")
        try:
            outcome = (True, run(i))
        except Exception as exc:
            outcome, failed = (False, exc), True
        report(i, outcome)


def _pool(run, count: int, helpers: int) -> list:
    """fork_map's work on this process and up to `helpers` forked ones.

    Every index is written into one pipe as a 4-byte record before any
    fork, and its write end closed, so each process reads indices until
    the pipe ends.  A helper pickles each outcome into its own pipe, which
    this process reads once its own share is done; a helper leaves only
    through os._exit, so no exit handler or inherited buffer runs twice."""
    import pickle
    import signal

    records = b"".join(i.to_bytes(4, "little") for i in range(count))
    try:
        task_r, task_w = os.pipe()
    except OSError:
        return [run(i) for i in range(count)]
    try:
        os.set_blocking(task_w, False)  # a pipe too small for them fails, not blocks
        full = os.write(task_w, records) == len(records)
    except BlockingIOError:
        full = False
    finally:
        os.close(task_w)
    if not full:
        os.close(task_r)
        return [run(i) for i in range(count)]

    streams = {}  # helper pid -> the read end of its outcome pipe
    codes = {}  # helper pid -> exit code
    done = {}  # index -> (True, result) or (False, exception)
    clean = False
    try:
        for _ in range(helpers):
            try:
                result_r, result_w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                code = 1
                try:
                    out = os.fdopen(result_w, "wb")

                    def send(i, outcome):
                        pickle.dump((i, outcome), out)
                        out.flush()

                    _work(run, task_r, send)
                    code = 0
                finally:
                    os._exit(code)
            os.close(result_w)
            streams[pid] = os.fdopen(result_r, "rb")
        _work(run, task_r, done.__setitem__)
        for stream in streams.values():
            while True:
                try:
                    i, outcome = pickle.load(stream)
                except (EOFError, pickle.UnpicklingError):
                    break  # the helper has ended
                done[i] = outcome
        clean = True
    finally:
        os.close(task_r)
        for pid, stream in streams.items():
            stream.close()
            if not clean:
                os.kill(pid, signal.SIGKILL)
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    failed = min((i for i, (ok, _value) in done.items() if not ok), default=count)
    lost = next((i for i in range(failed) if i not in done), None)
    if lost is not None:
        code = next((code for code in codes.values() if code), 0)
        raise RuntimeError(f"a forked helper ended with exit code {code} while running task {lost}")
    if failed < count:
        raise done[failed][1]
    return [done[i][1] for i in range(count)]

"""Host-speed probe for the process that runs the program.

On a 2-vCPU virtual machine on a shared host, the speed of one virtual CPU
moves by +-20 % and more, over fractions of a second and over minutes, and the two
virtual CPUs move independently.  So the process that does the work
samples its own speed: every INTERVAL_S a SIGALRM handler times a fixed
batch of dictionary lookups over a table small enough for the L1 cache.
An untimed pass over every key comes first, so the timed batch finds its
table and the interpreter's paths warm whatever the work did before, and
the batch allocates nothing, so it never pays for a garbage collection of
the work's objects.  Measured against the same process in a loop that
touches no memory, the factor read 0.975 (quartiles 0.95-1.01) while the
process streamed through 32 MB, and 0.98 during ``verify`` work; the same
batch with allocations read 0.87 there, as it paid for collections of the
work's objects.  So the program's memory use and allocation rate do not
move the probe.

A section's time, less the probe's own time, is reported as measured and
rescaled to a nominal host on which one lookup takes NOMINAL_S_PER_LOOKUP.
The handler runs in the main thread between bytecodes, so it starts no
thread and sees the CPU the work runs on.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.01
TABLE_SIZE = 64
LOOKUPS = 512
NOMINAL_S_PER_LOOKUP = 1.5e-7


class Probe:
    """Samples from start() on; take() returns the samples so far and
    begins a new section."""

    def __init__(self):
        rng = random.Random(0)
        self._table = {(i, i % 7): (3 * i % 128, i % 11) for i in range(TABLE_SIZE)}
        self._acc = [0] * 11
        self._warm = list(self._table)
        self._keys = [(k, k % 7) for k in (rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS))]
        self.count = 0
        self.timed_s = 0.0  # the timed batches
        self.cost_s = 0.0  # everything the handler did

    def _lookups(self, keys) -> None:
        # Allocates nothing (ints up to 256 are shared), so a sample never
        # triggers a garbage collection of the work's objects.
        table = self._table
        acc = self._acc
        for key in keys:
            a, b = table[key]
            acc[b] = (acc[b] + a) & 127

    def _batch(self) -> tuple[float, float]:
        """(timed, total) seconds of one sample."""
        entered = time.perf_counter()
        self._lookups(self._warm)
        start = time.perf_counter()
        self._lookups(self._keys)
        end = time.perf_counter()
        return end - start, end - entered

    def _sample(self, _signum, _frame) -> None:
        timed, total = self._batch()
        self.count += 1
        self.timed_s += timed
        self.cost_s += total

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self, at_least: int = 0) -> dict:
        """count, cost_s and factor of the section since the last take():
        nominal over measured lookup time.  A section of fewer than at_least
        samples is topped up now, and the top-up is not in cost_s."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            count, timed_s, cost_s = self.count, self.timed_s, self.cost_s
            self.count, self.timed_s, self.cost_s = 0, 0.0, 0.0
            for _ in range(count, max(at_least, 1)):
                timed_s += self._batch()[0]
                count += 1
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return {"count": count, "cost_s": cost_s, "factor": NOMINAL_S_PER_LOOKUP * LOOKUPS * count / timed_s}

"""Host-speed index for a shared host.

On a host whose other tenants come and go, the same pure-Python code runs
up to 50 % slower for seconds to minutes at a time.  A run's median over
its own passes cannot remove a slow period that covers the whole run.  So
the timed passes interleave a fixed reference kernel with the library's
ops: after each op, the kernel runs until it has taken ``SHARE`` of the
time the op took.  The kernel is frozen benchmark code, not library code,
so a change to the library does not move it.  Its mean time per call in a
pass, against ``KERNEL_NOMINAL_S``, says how fast the host was during that
pass, and the benchmark reports the pass's times scaled to the nominal
speed: seconds at reference host speed.  The kernel's own time is left out
of every figure.  Raw times are printed next to the scaled ones; see
README.md.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import time

#: share of the op time the kernel runs for, after each op
SHARE = 0.15
#: an op's latency is scaled by the kernel samples taken this many seconds
#: before or after it started
WINDOW_S = 0.5
#: mean seconds per kernel call, between ops, on the reference host (a
#: 2-vCPU x86_64 guest at 2.1 GHz, Python 3.11) while it was quiet
KERNEL_NOMINAL_S = 0.00045

_rng = random.Random(20150309)
_LEFT = [round(_rng.uniform(0.0, 3.0), 3) for _ in range(40)]
_RIGHT = [(round(_rng.uniform(0.0, 1.0), 2), _rng.random()) for _ in range(12)]


def kernel() -> float:
    """A fixed slice of the work the library does most: build the pairwise
    sums of two float supports, sort them, merge points that agree within
    a tolerance, and sum the masses with ``math.fsum``.

    The cyclic garbage collector is off while it runs, so the size of the
    heap the library has built cannot change the kernel's time; everything
    the kernel allocates is freed by reference counting before it returns.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        pairs = sorted((s0 + s1, q1) for s0 in _LEFT for s1, q1 in _RIGHT)
        support: list[float] = []
        probs: list[float] = []
        for s, q in pairs:
            if support and s - support[-1] <= 1e-12 * max(1.0, abs(s)):
                probs[-1] += q
            else:
                support.append(s)
                probs.append(q)
        acc = 0.0
        for i in range(400):
            acc += math.exp(-i * 1e-3) * (i % 7)
        return math.fsum(probs) + acc
    finally:
        if collecting:
            gc.enable()


class Pace:
    """Runs the kernel between ops and keeps its times.

    ``mark`` has the signature of a workload pass's ``mark`` callback,
    which the pass calls with the op's index before each op and with -1 at
    the end of each instance; the time since the previous call is the op
    just done.  Each mark that runs the kernel records one sample: when it
    ran, the kernel seconds and the number of calls.
    """

    def __init__(self) -> None:
        self.start_pass()
        self._due = 0.0

    def start_pass(self) -> None:
        self.kernel_s = 0.0
        self.calls = 0
        self.op_start: dict[int, float] = {}
        self._times: list[float] = []
        self._cum_s = [0.0]
        self._cum_calls = [0]
        self._last: float | None = None

    def _run(self, t0: float, spent: float, calls: int) -> None:
        self.kernel_s += spent
        self.calls += calls
        self._times.append(t0)
        self._cum_s.append(self.kernel_s)
        self._cum_calls.append(self.calls)

    def mark(self, op_index: int) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self._due += (now - self._last) * SHARE
        spent, calls = 0.0, 0
        while self._due > 0.0:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
            self._due -= took
            spent += took
            calls += 1
        if calls:
            self._run(now, spent, calls)
        self._last = time.perf_counter()
        if op_index >= 0:
            self.op_start[op_index] = self._last

    def block(self, calls: int) -> None:
        """Run the kernel ``calls`` times in a row, outside any op."""
        start = time.perf_counter()
        for _ in range(calls):
            kernel()
        self._run(start, time.perf_counter() - start, calls)

    def factor(self) -> float:
        """Nominal over measured kernel time since ``start_pass``: below 1
        when the host was slow.  The mean, not the median, of the calls,
        because the ops pay for every preemption too, not for the typical
        call."""
        return KERNEL_NOMINAL_S * self.calls / self.kernel_s

    def factor_near(self, moment: float) -> float:
        """``factor`` over the kernel samples taken within WINDOW_S of
        ``moment``: the host speed while one op ran, since the host changes
        speed within a pass."""
        lo = bisect.bisect_left(self._times, moment - WINDOW_S)
        hi = bisect.bisect_right(self._times, moment + WINDOW_S)
        calls = self._cum_calls[hi] - self._cum_calls[lo]
        if not calls:
            return self.factor()
        return KERNEL_NOMINAL_S * calls / (self._cum_s[hi] - self._cum_s[lo])

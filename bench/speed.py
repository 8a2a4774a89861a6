"""Machine-speed reference for the benchmark's timings.

On a 2-vCPU Xeon VM that shares its cores with other tenants, the median K6
pass of a 30 s run ranged from 1.8 s to 2.5 s over six runs, while a fixed
pure-Python loop slowed by up to 1.7x from one run to the next.  So every
timing the benchmark gates on is scaled by the machine's speed during the
run.  Between operations the harness times two reference loops that do not
touch pirlab: a compute loop, and a memory loop that sorts and groups tens
of thousands of small tuples.  Neither alone tracks pirlab: the compute
loop over-corrects the memory-heavy K6 pass, the memory loop the small CLI
calls.  Over six runs of each workload their geometric mean came out best,
or close to it (spread of the K6 median 0.07 instead of 0.23 raw, of the
CLI median 0.06 instead of 0.09).

Each operation time is multiplied by the factor of the samples taken
within WINDOW_S of the operation: the geometric mean of COMPUTE_S / median
compute-loop time and MEMORY_S / median memory-loop time, raised to the
power SENSITIVITY.  pirlab slows down less than the loops do: over twenty
30 s runs each of kn_pipeline and audit_sampling, whose speed ratios
ranged from 0.58 to 0.92, full scaling left the quartile spread of the
audit round's median at 0.09 and of its tail at 0.13, against 0.06 and
0.04 with the power 0.75 (raw: 0.22 and 0.12).  The K6 median spread 0.16
raw, 0.07 fully scaled and 0.08 with 0.75.  A change to pirlab moves the
scaled times just as it moves the raw ones.  The raw times are kept in
the run record too.

Set-up time is scaled by a factor of its own, from samples taken around
each set-up: the speed of the machine often changes between set-up and the
measured loop, and the set-up time follows the speed at set-up.

The machine switches between faster and slower spells within a run, so
one factor per run left the runs with a mix of spells wider in the tail.
Over 14 runs of audit_sampling, a window of 1 s around each operation
brought the quartile spread of the median, tail and throughput from
0.084, 0.054 and 0.072 (one factor per run) to 0.071, 0.031 and 0.033;
over 7 runs each, the K6 median went from 0.082 to 0.059 and the CLI
median and tail from 0.070 and 0.071 to 0.061 and 0.047.  Windows of
0.3 s and 3 s gave the audit median 0.076 and 0.094.  Long operations
take samples between their steps too; the time spent sampling is taken
out of the operation's time.
"""

import bisect
import gc
import math
import statistics
import time

COMPUTE_S = 0.002   # nominal time of one compute loop
MEMORY_S = 0.01     # nominal time of one memory loop
SENSITIVITY = 0.75  # share of the loops' slow-down that pirlab shows
INTERVAL_S = 0.25   # minimum time between two samples
WINDOW_S = 1.0      # samples this close to an operation set its factor


def _compute_loop():
    table = {}
    acc = 0
    for i in range(3000):
        key = (i % 97, i * 7 % 13, -1 if i & 1 else 1)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    rows = sorted(table.items(), key=lambda kv: (kv[0][1], kv[1]))
    return acc + len(rows)


def _memory_loop():
    rows = [((i * 7919) % 100003, i % 251, -1 if i & 1 else 1)
            for i in range(20000)]
    rows.sort()
    groups = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    return sum(len(g) for g in groups.values())


def _time(loop):
    # With the collector off, the loops do the same work whatever objects
    # pirlab holds at the time.
    gc.disable()
    try:
        t0 = time.perf_counter()
        loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speedometer:
    """Samples the reference loops between operations."""

    def __init__(self):
        self.last = None
        self.spent = 0.0    # seconds spent sampling, to take out of op times
        self.times = []     # perf_counter() at the start of each sample
        self.compute = []   # median of three compute loops, per sample
        self.memory = []    # one memory loop, per sample

    def tick(self, force=False):
        """Take a sample, unless one was taken less than INTERVAL_S ago."""
        start = time.perf_counter()
        if (not force and self.last is not None
                and start - self.last < INTERVAL_S):
            return
        self.times.append(start)
        self.compute.append(statistics.median(
            _time(_compute_loop) for _ in range(3)))
        self.memory.append(_time(_memory_loop))
        self.last = time.perf_counter()
        self.spent += self.last - start

    def reset(self):
        """Forget the samples so far; the next factor() covers later ones."""
        self.times.clear()
        self.compute.clear()
        self.memory.clear()

    def factor(self, lo=0, hi=None):
        """The scale factor over samples lo to hi, by default all so far."""
        return math.sqrt(COMPUTE_S / statistics.median(self.compute[lo:hi])
                         * MEMORY_S / statistics.median(self.memory[lo:hi])
                         ) ** SENSITIVITY

    def factor_around(self, start, end):
        """The scale factor of an operation that ran from start to end."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return self.factor(lo, hi)

"""Machine speed, sampled next to every timed operation.

The shared 2-core machine this benchmark was built on changes speed by up
to 2.4x within minutes: a fixed pure-Python search that took 13.6 ms in
one 25-second window took 25.3 ms in a later one, in CPU time as well as
wall time, so the slowdown is the hardware's and not the scheduler's.
Wall times of the same operation then spread 40-45% between windows, far
past any useful bound.

So every timed operation is scaled by the speed measured around it. A
fixed calibration kernel runs before and after each operation and, from a
timer signal, every SAMPLE_PERIOD seconds inside it; the operation's time
minus the time spent in the kernel, divided by the mean time of the kernel
runs within WINDOW seconds of it, and multiplied by CAL_REF_S, is what the
machine would have taken at reference speed. On 150 s of interleaved
solver calls the scaled times spread 9% where the wall times spread
41-45%; the medians of 25-second windows moved by 6% scaled against 74%
raw.

The kernel is a best-first search over (vertex, visited-set) states with
heapq, dict lookups, bit operations and one small numpy row per expansion,
the same mix of interpreter work as the package's solver. It is fixed
here, does not import hpppt, and must never change, or scaled times stop
comparing across commits.

Set-up time is mostly interpreter start and imports, whose speed moves
apart from the kernel's: over twelve alternating samples the kernel took
0.0067 s to 0.0113 s while a fresh `import numpy` took 0.15 s to 0.24 s,
and one got slower as the other got faster. So set-up is scaled by a fixed
reference process instead, a fresh interpreter that imports numpy, timed
just before and just after each set-up process.
"""

import heapq
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

CAL_N = 10             # vertices of the calibration instance
CAL_SEED = 7
CAL_REF_S = 0.005      # kernel seconds at the reference speed
SAMPLE_PERIOD = 0.2    # seconds between samples inside an operation
REF_START = "import numpy"  # the reference process's whole work
# seconds of the reference process at reference speed: the median of
# twelve samples taken next to kernel runs, scaled by CAL_REF_S, was 0.108
REF_START_S = 0.1
# seconds around an operation whose samples count: over eight seeds each,
# 0.25 gave op_p50_s quartile spreads of 4.3% (lifelong-replan) and 3.3%
# (solve-lowp); the two samples next to it alone 7.9% and 5.8%, and 1 s or
# more, which lets the speed drift within the window, 12% and 3.9%
WINDOW = 0.25


def _instance():
    rng = np.random.default_rng(CAL_SEED)
    xy = rng.uniform(0.0, 100.0, (CAL_N, 2))
    cost = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(axis=2))
    omp = (1.0 - rng.uniform(0.0, 0.3, CAL_N)).tolist()
    return cost, omp


_COST, _OMP = _instance()


def kernel():
    """Cheapest expected-cost order of the calibration instance by
    best-first search; returns (cost, expansions), always the same."""
    full = (1 << CAL_N) - 1
    heap = [(0.0, 0, 1, 1.0, 0)]
    best = {}
    pops = 0
    while heap:
        g, v, mask, q, _ = heapq.heappop(heap)
        if best.get((v, mask), float("inf")) < g:
            continue
        pops += 1
        if mask == full:
            return g, pops
        row = (g + q * _COST[v]).tolist()
        rem = full & ~mask
        while rem:
            lsb = rem & -rem
            rem ^= lsb
            u = lsb.bit_length() - 1
            m2 = mask | lsb
            g2 = row[u]
            if g2 < best.get((u, m2), float("inf")):
                best[(u, m2)] = g2
                heapq.heappush(heap, (g2, u, m2, q * _OMP[u], pops))
    raise AssertionError("calibration search ended without a full order")


EXPECTED = kernel()


def kernel_s():
    """Seconds one kernel run takes now."""
    t = time.perf_counter()
    out = kernel()
    dt = time.perf_counter() - t
    if out != EXPECTED:
        raise AssertionError(f"calibration kernel returned {out}")
    return dt


def start_s():
    """Seconds a fresh interpreter takes now to run REF_START and exit."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_START], check=True, timeout=60)
    return time.perf_counter() - t


def scaled_start(seconds, start_times):
    """Set-up seconds at reference speed, given reference process times
    around them."""
    return seconds * REF_START_S / statistics.fmean(start_times)


class Timeout(Exception):
    pass


class Sampler:
    """Times operations at reference speed and enforces a wall deadline.

    While an operation runs, SIGALRM fires every SAMPLE_PERIOD seconds; the
    handler raises Timeout past the deadline and otherwise, if sampling
    inside operations is on, runs the kernel and books its time as stolen
    from the operation.
    """

    def __init__(self, deadline):
        self.deadline = deadline  # time.monotonic() value
        self.samples = []         # (perf_counter at mid-run, kernel seconds)
        self.stolen = 0.0
        self.inside = True
        signal.signal(signal.SIGALRM, self._alarm)

    def sample(self):
        t = time.perf_counter()
        d = kernel_s()
        self.samples.append((t + d / 2, d))

    def _alarm(self, signum, frame):
        entered = time.perf_counter()
        if time.monotonic() >= self.deadline:
            raise Timeout("run wall limit reached")
        if self.inside:
            self.sample()
        self.stolen += time.perf_counter() - entered

    def time(self, fn, *args):
        """Run fn(*args); returns (result, (own seconds, start, end)), the
        own seconds leaving out kernel runs. Exceptions from fn, Timeout
        included, propagate."""
        if not self.samples:
            self.sample()
        stolen = self.stolen
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.sample()
        return out, (t1 - t0 - (self.stolen - stolen), t0, t1)

    def scaled(self, timed):
        """Seconds at reference speed of a time() record, by the kernel runs
        within WINDOW seconds of it; call once the samples after it exist."""
        own, t0, t1 = timed
        near = [d for t, d in self.samples
                if t0 - WINDOW <= t <= t1 + WINDOW]
        return own * CAL_REF_S / statistics.fmean(near)

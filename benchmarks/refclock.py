"""Wall time expressed at a fixed reference speed.

The machines this benchmark was built on share their cores with other
tenants. On a 2-vCPU VM the same operation took anywhere from 1.6 s to 2.8 s,
and five 30-second runs of one workload spread by 9-24 % in wall time
(quartile distance over median). Two things slow the process down, and the
process CPU time counts both, so neither clock repeats:

- the host deschedules the vCPU for whole 4 ms time slices (a tight loop
  reading the clock saw up to 17 % of its time go to such gaps, and the
  guest reports no steal time);
- between those gaps the vCPU runs slower for seconds at a time, up to about
  twice as slow.

The benchmark times a small fixed kernel of its own (numpy contractions, a
BLAS product and a Python loop; no package code) twenty times a second and
expresses wall time in *reference seconds*: each stretch of wall time is
scaled by ``REFERENCE_KERNEL_S`` over the running median of the kernel's
time, which follows the slow phases but not single descheduled slices. The
slices stay in the measured times; ``run.py`` reports the median over rounds,
so a round that caught many of them does not set the figure. The kernel's
own time is left out of every measurement.

``REFERENCE_KERNEL_S`` is the kernel's uncontended time on the machine of the
README's reference figures, so there a reference second is close to a wall
second. A change that makes the package slower or faster moves reference
times by the same factor; a slow phase of the host moves the kernel and the
package together and cancels out.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 1.15e-3
EVERY_S = 0.05
SMOOTH = 41  # samples, about two seconds

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((20, 110, 100))
_X = _rng.standard_normal((20, 100))
_W = _rng.standard_normal((600, 600))
_V = _rng.standard_normal((600, 4))
_v = _rng.standard_normal(600).tolist()
_NEIGHBORS = tuple(tuple(int(j) for j in _rng.choice(600, 6, replace=False)) for _ in range(150))


def kernel() -> float:
    """A fixed mix of the work the package does: a per-agent contraction, a
    dense gossip-sized product, and a Python loop over neighbourhoods."""
    s = 0.0
    for _ in range(2):
        s += float(np.einsum("ahn,an->ah", _A, _X)[0, 0])
        s += float((_W @ _V)[0, 0])
        s += sum(min(_v[j] for j in nbrs) for nbrs in _NEIGHBORS)
    return s


class ReferenceClock:
    """Calibration samples, and reference seconds between any two instants.

    Inside ``with clock:`` an interval timer interrupts the process every
    ``EVERY_S`` seconds and times the kernel. The handler runs between two
    bytecodes of whatever Python code is running, so long pure-Python stretches
    (a BFS, a libsvm parse) are sampled too; a long native call delays the
    sample until it returns.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous_handler = None
        kernel()  # first call pays for imports and allocation

    def sample(self, *_signal_args) -> None:
        """Time the kernel once (the interval timer's handler)."""
        if self._busy:
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            self.durations.append(perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def __enter__(self) -> "ReferenceClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def reference_times(self, instants) -> np.ndarray:
        """R(t): reference seconds from the first sample to each instant.

        A kernel sample that a descheduled time slice hits runs 4 ms long, so
        each sample's duration is first replaced by the median of the
        ``SMOOTH`` samples around it: the rate follows the slow phases, not
        the gaps. Between the end of sample i and the
        start of sample i+1 wall time then runs at ``REFERENCE_KERNEL_S`` over
        the mean of the two smoothed durations; during a sample R stands
        still. Before the first sample and after the last, that sample's rate
        holds.
        """
        starts = np.asarray(self.starts)
        raw = np.asarray(self.durations)
        ends = starts + raw
        window = min(SMOOTH, len(raw))
        padded = np.pad(raw, (window // 2, (window - 1) // 2), mode="edge")
        durations = np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)
        rates = REFERENCE_KERNEL_S / durations
        gap_rates = 2.0 * REFERENCE_KERNEL_S / (durations[:-1] + durations[1:])
        # knots: (start_0, 0), (end_0, 0), (start_1, r_01 * gap_0), (end_1, same), ...
        gained = np.concatenate(([0.0], np.cumsum(gap_rates * (starts[1:] - ends[:-1]))))
        knots_t = np.column_stack((starts, ends)).ravel()
        knots_r = np.repeat(gained, 2)
        t = np.asarray(instants, dtype=float)
        r = np.interp(t, knots_t, knots_r)
        r = np.where(t < starts[0], (t - starts[0]) * rates[0], r)
        return np.where(t > ends[-1], gained[-1] + (t - ends[-1]) * rates[-1], r)

    def slowdown(self) -> float:
        """Median kernel time over the reference time: 1.0 on an idle reference machine."""
        return float(np.median(self.durations)) / REFERENCE_KERNEL_S

"""Machine-speed probe that turns wall time into reference seconds.

The benchmark was built on a shared 2-vCPU virtual machine whose speed
drops by 1.5-1.8x (at moments more) for tens of seconds at a time.  CPU
time and wall time rise together, so the loss is on the core itself, not in
scheduling.  Raw wall times of identical runs differed by 18-37 %
(quartile spread over median).  A short probe taken next to every timed
unit measures the current speed.  A unit's time in reference seconds is its
wall time times REFERENCE_PROBE_S over the probe's time: its wall time on
this machine at full speed.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds per probe kernel call on the reference machine at full speed
# (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11).
REFERENCE_PROBE_S = 560e-6
PROBE_S = 0.02          # length of one probe
PROBE_EVERY_S = 0.25    # at most one probe per this much work


_rng = np.random.default_rng(0)
_X, _W1, _W2, _W3 = (_rng.normal(size=shape) for shape in ((32, 16), (32, 16), (32, 32), (10, 32)))


def _kernel() -> None:
    """Interpreter work and small numpy steps, in about the mix of the
    program's training loops: a two-layer forward and one backward product."""
    acc = {}
    s = 0
    for j in range(1000):
        s += j * j
        acc[j & 63] = s
    for _ in range(20):
        h = np.maximum(_X @ _W1.T, 0.0)
        h2 = np.maximum(h @ _W2.T, 0.0)
        z = h2 @ _W3.T
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        _W3 - 0.01 * (p.T @ h2)


def probe(duration: float = PROBE_S) -> float:
    """Mean seconds per kernel call over at least ``duration`` seconds."""
    n = 0
    t0 = time.perf_counter()
    while True:
        _kernel()
        n += 1
        t = time.perf_counter()
        if t - t0 >= duration:
            return (t - t0) / n


class Clock:
    """Probes taken between timed units, and the scale they give each unit.

    ``probe()`` is cheap to call often: it probes only when PROBE_EVERY_S
    has passed since the last probe, unless forced.  A unit that ran from
    t0 to t1 is scaled by the mean of the last probe before t0 and the
    first probe after t1.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (end time, seconds per call)
        self.spent = 0.0

    def probe(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if not force and self.marks and t0 - self.marks[-1][0] < PROBE_EVERY_S:
            return
        v = probe()
        t1 = time.perf_counter()
        self.marks.append((t1, v))
        self.spent += t1 - t0

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second for a unit run from t0 to t1."""
        before = [v for t, v in self.marks if t <= t0]
        after = [v for t, v in self.marks if t >= t1]
        near = before[-1:] + after[:1]
        return REFERENCE_PROBE_S / (sum(near) / len(near))

    def mean_factor(self, t0: float, t1: float) -> float:
        """Scale from every probe taken from t0 to t1 and the two around them."""
        vals = [v for t, v in self.marks if t0 <= t <= t1]
        vals += [v for t, v in self.marks if t < t0][-1:] + [v for t, v in self.marks if t > t1][:1]
        return REFERENCE_PROBE_S / (sum(vals) / len(vals))

"""A fixed block of reference work, timed beside the measured calls.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute, in phases that can outlast a whole run, so neither the
fastest nor the median repetition of a call is steady from run to run.
Other load slows the reference block about as much as it slows sjkit, whose
cost is Python overhead around small numpy operations, so every time the
benchmark reports is scaled to a reference speed:

    reported = measured * REF_NS / (time of the reference block next to it)

The block is the benchmark's own code and never calls sjkit, so a change to
sjkit moves the reported times exactly as it moves the measured ones.
REF_NS is the block's time in the fast phase of a 2-vCPU Xeon (Sapphire
Rapids) KVM guest with Python 3.11 and numpy 2.4; on that host reported
times read as measured ones when the host is quiet.
"""

from __future__ import annotations

import time

import numpy as np

REF_NS = 250_000
# a reference block is run after at least this much measured call time
REF_EVERY_NS = 5_000_000


class _Box:
    __slots__ = ("m", "v")

    def __init__(self, m, v):
        self.m = m
        self.v = v


class Reference:
    """Callable: runs the reference block once and returns its time in ns."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4 * np.eye(4)
        self.b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.sink = 0j

    def _work(self) -> None:
        a, b, acc = self.a, self.b, 0j
        for k in range(10):
            box = _Box(a @ b, {"k": k, "s": [k, k + 1]})
            d = np.linalg.solve(a, box.m)
            e = np.array([[d[0, 0], d[0, 1]], [d[1, 0], d[1, 1]]])
            acc += np.trace(d) + np.linalg.det(b) + complex(np.linalg.norm(e - e.T)) + sum(box.v["s"])
        self.sink = acc

    def __call__(self) -> int:
        t0 = time.perf_counter_ns()
        self._work()
        return time.perf_counter_ns() - t0

    def window(self, seconds: float) -> float:
        """Median time of the block in ns, run repeatedly for `seconds`
        after two unmeasured runs."""
        self._work()
        self._work()
        times, end = [], time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            times.append(self())
        return float(np.median(times))


def scale(lat_ns, block, refs) -> list[float]:
    """Scale each call's time by the reference blocks run before and after it.

    `block[i]` is the index in `refs` of the last block run before call i;
    the next one in `refs` was run after it.
    """
    return [t * REF_NS / (0.5 * (refs[b] + refs[b + 1])) for t, b in zip(lat_ns, block)]

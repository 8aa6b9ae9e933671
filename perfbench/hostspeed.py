"""Host-speed probe: puts op times on one clock however busy the host is.

The benchmark runs on a few cores of a shared host.  Their speed for this
process swings by up to 2x, and a slow spell can last tens of seconds, so
no statistic over the ops of one run removes it: raw op times of the same
requests spread by 15-30% (IQR/median) from run to run.

A fixed piece of work of the same kind as the program's hot path -- a
pure-Python RK4 loop that stores into numpy arrays, then one vectorised
numpy pass -- is timed before the first op, after every op, and every
SAMPLE_S inside an op, from a SIGALRM handler whose own time is taken off
the op's wall time.  An op's *reference time* is its wall time scaled by
PROBE_REF_S over the mean of the probe times around and inside it: the
time the op would take at the probe's reference speed.  On the host this
was built on that cut the spread of the same runs from 15-30% to 3-10%.
The probe is the benchmark's own code and calls nothing in the library, so
a change to the library moves op times and leaves the probe alone.  Raw
wall times are kept beside the reference times.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PROBE_STEPS = 600
SAMPLE_S = 0.1  # host-speed sample interval inside a long op
# Probe time on a quiet host: about the 5th percentile of a few thousand
# consecutive probes on a 2-vCPU Intel Xeon at 2.1 GHz.  A constant, so that
# a reference time is comparable between runs and between commits.
PROBE_REF_S = 0.62e-3

_X = np.linspace(0.1, 4.0, 8000)


def probe() -> float:
    """Wall seconds of the fixed work: the median of three timings, so that
    one interrupted timing does not pass for a slow host."""
    return sorted(_timed_work() for _ in range(3))[1]


def _timed_work() -> float:
    t0 = time.perf_counter()
    n = PROBE_STEPS
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    uu, vv, h, r = 1.0, 0.0, 1e-3, 0.5
    for i in range(n):
        a = 1.5 - 0.3 * r
        b = 0.5 - 0.2 * r
        h2 = 0.5 * h
        k1u = -(1.0 / r) * uu + a * vv
        k1v = (1.0 / r) * vv - b * uu
        rm = r + h2
        um, vm = uu + h2 * k1u, vv + h2 * k1v
        k2u = -(1.0 / rm) * um + a * vm
        k2v = (1.0 / rm) * vm - b * um
        um, vm = uu + h2 * k2u, vv + h2 * k2v
        k3u = -(1.0 / rm) * um + a * vm
        k3v = (1.0 / rm) * vm - b * um
        re = r + h
        um, vm = uu + h * k3u, vv + h * k3v
        k4u = -(1.0 / re) * um + a * vm
        k4v = (1.0 / re) * vm - b * um
        uu += (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        vv += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u[i + 1] = uu
        v[i + 1] = vv
        r = re
    float(np.sum(np.exp(-_X) * np.cos(_X)))
    return time.perf_counter() - t0


class HostClock:
    """Times ops in wall and reference seconds.  After ``with clock.op():``
    ``clock.wall`` and ``clock.ref`` hold the block's times; the block
    should not raise."""

    def __init__(self):
        self.last = probe()
        self.wall = self.ref = 0.0

    @contextmanager
    def op(self):
        probes = [self.last]
        stolen = 0.0

        def sample(signum, frame):
            nonlocal stolen
            t = time.perf_counter()
            probes.append(_timed_work())
            stolen += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.last = probe()
        probes.append(self.last)
        self.wall = wall - stolen
        self.ref = self.wall * PROBE_REF_S * len(probes) / sum(probes)

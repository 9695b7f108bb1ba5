"""Host speed, read off a fixed piece of work timed next to every operation.

The benchmark runs on a few vCPUs of a shared host whose speed swings: the
same operation on the same inputs takes anywhere from one to two times as
long from one stretch of seconds to the next, and CPU time swings with wall
time, so raw times of two runs cannot be compared.  The probe here is fixed
work of the kind the library does (a per-frame loop of small scipy.sparse
products, as in a forward pass); it slows down with the host nearly in step
with every workload.  The benchmark times the probe before every operation
and around every set-up, and reports times at the reference speed:

    reported = measured * REFERENCE_PROBE_MS / (median probe time around it)

The probe never calls the library, so a change to the library moves the
reported times and not the yardstick.  Changing this file rescales every
reported time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# Median probe time on an unloaded host: Intel Xeon (Sapphire Rapids) KVM
# guest with 2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17.
REFERENCE_PROBE_MS = 6.0

# probes on each side of an operation (or a set-up) that set its scale
WINDOW = 3

_STATES = 40
_FRAMES = 250


def _probe_inputs() -> tuple[sp.csr_matrix, np.ndarray]:
    """A banded transition matrix (self, next, skip) and per-frame emissions."""
    rng = np.random.default_rng(0x5EED)
    rows, cols = [], []
    for s in range(_STATES):
        for step in (0, 1, 2):
            if s + step < _STATES:
                rows.append(s)
                cols.append(s + step)
    values = rng.uniform(0.1, 1.0, len(rows))
    transition = sp.csr_matrix((values, (rows, cols)), shape=(_STATES, _STATES))
    emissions = rng.uniform(0.01, 1.0, (_FRAMES, _STATES))
    return transition, emissions


_TRANSITION, _EMISSIONS = _probe_inputs()


def probe() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    start = time.perf_counter()
    vec = np.ones(_STATES)
    for t in range(_FRAMES):
        vec = (vec @ _TRANSITION) * _EMISSIONS[t]
        vec = vec / vec.sum()
    return time.perf_counter() - start


class HostSpeed:
    """Probe times of one run, in the order they were taken, and their sum."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.probes.append(probe())
            self.spent += self.probes[-1]
        self.last = time.perf_counter()

    def sample_every(self, interval: float) -> None:
        """Probe once if ``interval`` seconds have passed since the last probe."""
        if time.perf_counter() - self.last >= interval:
            self.sample()

    def scale(self, first: int, last: int) -> float:
        """Factor that puts a time measured between probes ``first`` and
        ``last`` at the reference speed, from those probes and ``WINDOW - 1``
        more on each side."""
        window = self.probes[max(0, first - WINDOW + 1): last + WINDOW]
        return REFERENCE_PROBE_MS * 1e-3 / statistics.median(window)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.probes)

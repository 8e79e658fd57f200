"""Machine-speed probe: fixed reference kernels timed between the runs.

The shared VM the benchmark runs on slows by up to 2x in spells that can last
a whole run. A spell slows the program and a reference kernel alike, so the
gated times are scaled by how fast the reference ran in the same run:

    scaled = measured * nominal_s / least CPU time of the reference kernel

``nominal_s`` is a constant per kernel (``KERNELS``), close to the kernel's
least CPU time on a quiet machine, so the scaled figure reads in about the
seconds of a quiet machine. The kernels use nothing from ``ergofilt`` and inputs fixed here, so a
change to the program cannot move them. Each workload names the kernel whose
bottleneck matches its own (``workloads.REFERENCE``):

- ``interp``: short Python loops and 101x101 matvecs, like the per-call
  overhead that dominates ``paper`` and ``cycle-deep``;
- ``dense``: an 8 MiB n-by-n array rebuilt elementwise, and matvecs with it
  and with a fixed one, like the mapped operators and matvecs of
  ``glauber-wide``.
"""

from __future__ import annotations

import math
import time

import numpy as np

PROBE_INTERVAL_S = 0.2  # least wall time between two samples


def _interp_inputs():
    return np.random.default_rng(0).random((101, 101)), np.ones(101)


def _interp(a, x):
    # About 20 ms: a 2 ms kernel caught short fast moments that a 0.3 s run
    # cannot, and tracked cycle-deep less well.
    v = x
    for _ in range(3000):
        v = a @ v
        v = v / v.sum()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return v, s


def _dense_inputs():
    b = np.random.default_rng(0).random((1024, 1024))
    return b, np.empty_like(b), np.ones(1024)


def _dense(b, c, y):
    # c is allocated once: a fresh 8 MiB array per sample would be page-faulted
    # in or reused from the heap depending on the process's malloc history.
    for _ in range(4):
        np.multiply(b, 0.5, out=c)
        c += b
        y = c @ y
        y = b @ (y / y.sum())
    return y


# name -> (make inputs, kernel, nominal_s: about the least CPU seconds of one
# sample on a quiet 2-vCPU Intel Xeon VM, 2 MiB L2 per core, numpy 2.4,
# OpenBLAS 0.3.31 on one thread)
KERNELS = {
    "interp": (_interp_inputs, _interp, 1.9e-2),
    "dense": (_dense_inputs, _dense, 9.0e-3),
}


class SpeedProbe:
    """Samples one reference kernel at most every PROBE_INTERVAL_S and keeps
    its least CPU time."""

    def __init__(self, kernel: str):
        make_inputs, self.kernel, self.nominal_s = KERNELS[kernel]
        self.name = kernel
        self.inputs = make_inputs()
        self.kernel(*self.inputs)  # warm-up, not recorded
        self.fastest_s = math.inf
        self.samples = 0
        self.due = 0.0

    def sample(self):
        t0 = time.process_time()
        self.kernel(*self.inputs)
        self.fastest_s = min(self.fastest_s, time.process_time() - t0)
        self.samples += 1
        self.due = time.perf_counter() + PROBE_INTERVAL_S

    def when_due(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this run into quiet-machine seconds."""
        return self.nominal_s / self.fastest_s

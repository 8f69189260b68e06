"""Host-speed calibration.

The benchmark's machine shares its CPUs with other guests, and the speed
it gets drifts by up to a factor of two over tens of seconds, in CPU time
as much as in wall time.  So a run times a fixed kernel of its own before
every op and scales each op's time to the speed at which the kernel takes
REF_S.  The kernel does not touch the program under test: a change to the
program moves the ops, never the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the machine of the README's figures, so
# scaled times read close to raw ones there
REF_S = 0.003
# share of the previous op's time spent calibrating before the next op
SHARE = 0.02
# an op's host speed comes from the kernels timed within this many ops
# either side of it
WINDOW = 5
SETUP_KERNELS = 20

_X = np.linspace(0.0, 1.0, 20001)
_K = np.arange(1.0, 11.0)
# the kernel writes into this buffer and allocates nothing large, so the
# program's use of the heap cannot change its cost
_BUF = np.empty((len(_K), len(_X)))


def kernel() -> float:
    """Seconds for a fixed mix of vectorised libm work and interpreted
    arithmetic, the two kinds of work the program's ops are made of."""
    t0 = time.perf_counter()
    np.multiply.outer(_K, _X, out=_BUF)
    np.sin(_BUF, out=_BUF)
    _BUF.sum()
    acc = 0.0
    for i in range(5000):
        acc += i * 0.5
    return time.perf_counter() - t0


def calibrate(seconds: float = 0.0, at_least: int = 1) -> list[float]:
    """Kernel times, at least ``at_least`` of them and ``seconds`` long."""
    times: list[float] = []
    while len(times) < at_least or sum(times) < seconds:
        times.append(kernel())
    return times


def slowdown(times: list[float]) -> float:
    """How much slower than the reference the host ran."""
    return statistics.median(times) / REF_S


def op_slowdowns(kernels: list[list[float]]) -> list[float]:
    """Slowdown around each op.  ``kernels[i]`` are the kernel times taken
    just before op i, and the last entry those taken after the last op.
    An op's slowdown is the median, over the entries within WINDOW of it
    on either side, of each entry's median."""
    medians = [statistics.median(k) for k in kernels]
    n = len(kernels) - 1
    return [statistics.median(medians[max(0, i - WINDOW):i + WINDOW + 2])
            / REF_S for i in range(n)]

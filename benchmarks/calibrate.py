"""Machine-speed calibration: a fixed kernel timed all through every measured pass.

On a shared host the same job runs up to 1.5x slower for seconds to minutes
at a time, and everything in the process slows together.  ``SpeedSampler``
times a kernel of about 0.5 ms every 50 ms of wall time (from a SIGALRM
handler, so the samples land inside long jobs too) and converts the measured
time to reference seconds: what it would have taken at the kernel's
reference speed,

    reference = measured * kernel.reference_s * mean(1 / kernel sample).

No kernel calls liemorph code, so a change to the package cannot move it.
Sampling costs about 1% of the measured time.  Each workload names the kernel
whose operation mix tracks its jobs (see README.md for the measurements):

- ``objects``: small numpy products and complex arithmetic on small Python
  objects, like the jets' Taylor arithmetic;
- ``mixed``: a third of that, a third small-array einsum, cross and norm
  calls like the foliation scan, and a third plain interpreter arithmetic.

numpy must be imported after the BLAS thread count is pinned, so import this
module late.
"""

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

INTERVAL_S = 0.05


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)


_A = np.eye(6)
_B = np.full((6, 6), 1e-3)
_V = np.array([0.3, 0.5, 0.8])
_G = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)


def _objects(iterations=100):
    z = _Dual(1 + 1j, 0.5j)
    for _ in range(iterations):
        c = _A @ _B + _A
        z = z * _Dual(complex(float(c[0, 1]), 0.1), 0.2)
    return z


def _mixed():
    _objects(50)
    for _ in range(6):
        w = np.einsum("a,b,abc->c", _V, _V, _G)
        float(np.linalg.norm(np.cross(_V, w)))
    total = 0.0
    for i in range(800):
        total += (i * 0.5) ** 2 / (i + 1.0)
    return total


@dataclass(frozen=True)
class Kernel:
    run: Callable
    reference_s: float      # median time on the machine where the benchmark was defined

    def time(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start

    def burst(self, repeats: int = 21) -> list:
        """Times back to back, for calibrating a step that runs in another process."""
        return [self.time() for _ in range(repeats)]

    def scale(self, times) -> float:
        """Reference seconds per measured second, given kernel times spread over the interval."""
        return self.reference_s * statistics.fmean(1.0 / t for t in times)


# Reference times: medians on the 2-core x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread) where the benchmark was defined.
KERNELS = {"objects": Kernel(_objects, 0.0004), "mixed": Kernel(_mixed, 0.0006)}


class SpeedSampler:
    """Collects kernel times every ``INTERVAL_S`` of wall time while the block runs."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples = []

    def _sample(self, signum=None, frame=None):
        self.samples.append(self.kernel.time())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()      # so that even a very short block has a sample
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

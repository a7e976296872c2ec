"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the host changes the speed of the CPU itself,
in phases from seconds to minutes: the median of one srlaser cell, timed
over and over in 5 s windows, read 5.4 to 10.6 ms within a few minutes.
A fixed
calibration kernel, independent of srlaser, is therefore timed between
the workload's operations, and every end-to-end time is rescaled to the
kernel's reference speed::

    time at reference speed = measured time * REFERENCE_S / kernel time

where the kernel time is the mean of the samples taken around the
measured interval.  The mean, not the median: kernel times fall into a
fast and a slow mode, about 2x apart, and the median of a window that
holds both flips from one to the other.  Over 51 such windows, the time of four cells spread
by 16 % (IQR over median) and its ratio to the ODE kernel's time by 4 %.
The kernels use only numpy and scipy, so a change to srlaser cannot move
them, and each resembles the work it calibrates: small-array ``solve_ivp``
and Newton steps for the grids, dense and sparse linear algebra for the
oracle.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Nominal kernel seconds, near the kernels' medians on the machine the
# benchmark was written on (2-CPU Intel Xeon VM at 2.0 GHz, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread).  They only fix the unit of the
# rescaled times; changing them rescales every later result.
REFERENCE_S = {"ode": 0.0100, "oracle": 0.0160}
# A local speed estimate uses the samples within PAD_S of the interval, or
# within its own length if that is longer, and at least NEAREST of them.
PAD_S = 1.0
NEAREST = 5
INTERVAL_S = 0.25  # least time between two samples taken before cells


def _ode_kernel():
    """The Lorenz equations, in the scalar style of srlaser's moment equations."""
    from scipy.integrate import solve_ivp

    sigma, b, r = 10.0, 8.0 / 3.0, 15.0  # r below 24.74: a stable fixed point
    x0 = np.array([1.0, 1.0, 1.0])

    def rhs(t, x):
        u, v, w = x
        return np.array([sigma * (v - u), r * u - v - u * w, u * v - b * w])

    def jac(x):
        u, v, w = x
        j = np.zeros((3, 3))
        j[0, 0], j[0, 1] = -sigma, sigma
        j[1, 0], j[1, 1], j[1, 2] = r - w, -1.0, -u
        j[2, 0], j[2, 1], j[2, 2] = v, u, -b
        return j

    def run():
        x = solve_ivp(rhs, (0.0, 2.0), x0, method="DOP853",
                      rtol=1e-10, atol=1e-12).y[:, -1]
        for _ in range(10):  # Newton steps, as the steady-state solver takes
            x = x - np.linalg.solve(jac(x), rhs(0.0, x))
        return x
    return run


def _oracle_kernel():
    """A dense LU solve and sparse matrix-vector products.

    The oracle's stationary solve is a dense or sparse LU and its spectra
    are sparse propagation.  Timed between the oracle's calls for 5
    minutes, the calls' ratio to a dense LU spread by 5 % (IQR over
    median), to sparse products by 4 %, and to the ODE kernel by 11 %.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(12345)
    dense = rng.standard_normal((600, 600)) + 600.0 * np.eye(600)
    rhs = rng.standard_normal(600)
    side = 120
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    lap = (sp.kron(sp.identity(side), lap1) + sp.kron(lap1, sp.identity(side))).tocsr()
    vec = rng.standard_normal(side * side)

    def run():
        x = np.linalg.solve(dense, rhs)
        y = vec
        for _ in range(30):
            y = 0.1 * (lap @ y)
        return float(x[0] + y[0])
    return run


KERNELS = {"ode": _ode_kernel, "oracle": _oracle_kernel}


class Calibrator:
    """Times the kernel between operations and turns times into factors.

    ``spent_wall``/``spent_cpu`` add up the time spent in the kernel, so
    callers can take it out of any interval that contains samples.
    """

    def __init__(self, kind: str) -> None:
        self.reference_s = REFERENCE_S[kind]
        self._kernel = KERNELS[kind]()
        self._kernel()  # first call pays for imports and caches
        self.times: list[float] = []  # sample midpoints, increasing
        self.samples: list[float] = []  # kernel wall seconds
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = -float("inf")

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0, c0 = time.perf_counter(), time.process_time()
            self._kernel()
            t1, c1 = time.perf_counter(), time.process_time()
            self.times.append(0.5 * (t0 + t1))
            self.samples.append(t1 - t0)
            self.spent_wall += t1 - t0
            self.spent_cpu += c1 - c0
            self._last = t1

    def maybe_sample(self) -> None:
        """One sample if the last one is at least ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def spent(self) -> tuple[float, float]:
        return self.spent_wall, self.spent_cpu

    def factor(self, start: float, end: float | None = None) -> float:
        """Reference over mean kernel time around ``[start, end]``.

        Uses the samples within ``PAD_S`` of the interval (or within its
        length, if longer), or the ``NEAREST`` samples closest to its
        middle when fewer lie there.
        """
        if not self.samples:
            raise RuntimeError("no calibration samples were taken")
        end = start if end is None else end
        pad = max(PAD_S, end - start)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if hi - lo < NEAREST:
            middle = 0.5 * (start + end)
            at = bisect.bisect_left(self.times, middle)
            lo = max(0, min(at - NEAREST // 2, len(self.times) - NEAREST))
            hi = min(len(self.times), lo + NEAREST)
        return self.reference_s / statistics.fmean(self.samples[lo:hi])

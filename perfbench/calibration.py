"""Machine-speed calibration for the end-to-end times.

On a shared 2-vCPU VM the speed of the whole machine was seen to drift by
15-30% over seconds to minutes, with a fixed computation's wall time and CPU
time drifting together.  So while an interval is timed (a set-up
repetition, an op), a SIGALRM handler runs a short fixed kernel every
``INTERVAL_S`` seconds of wall time.  The kernel does not touch fastdiff: 40
banded solves of a 640-node system through scipy, the call the stepper makes
once per Newton iteration, and one RK45 ``solve_ivp`` of a small oscillator,
the kind of Python-callback ODE solve that dominates the profile build.  Of
the kernels tried (pure interpreter loops, small numpy expressions, scalar
spline calls, banded solves, small ODE solves), banded solves tracked the
``pde`` op times best, and adding the ODE solve cut the spread of scaled
``expansion`` op times by ~15% over 113 ops.

The time spent in the handler is taken out of the interval, and the rest is
multiplied by ``REF_S / c``, where ``c`` is the median kernel time sampled
during the interval.  ``REF_S`` is a constant, so reported times are seconds
on a machine on which the kernel takes ``REF_S``, and a change to fastdiff
moves them as it moves wall time.
"""

import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

REF_S = 0.0032       # kernel time that reported times are scaled to
INTERVAL_S = 0.05    # wall time between two samples


_BANDS = np.ones((3, 640))
_BANDS[1] = 4.0
_RHS = np.ones(640)


def _rhs(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[1] * (1.0 - y[0] ** 2)])


def _kernel():
    for _ in range(40):
        solve_banded((1, 1), _BANDS, _RHS)
    solve_ivp(_rhs, (0.0, 3.0), [1.0, 0.0], method="RK45", rtol=1e-8, atol=1e-10)


class Sampled:
    """Context manager timing one interval at the reference machine speed.

    After the block: ``wall_s`` is the interval's wall time without the
    handler, ``samples`` the kernel times, ``ref_s`` the scaled time.
    """

    def __enter__(self):
        self.samples = []
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)
        self._stolen += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._t0 - self._stolen
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:          # a block shorter than INTERVAL_S
            self._tick(None, None)
        self.ref_s = self.wall_s * REF_S / statistics.median(self.samples)
        return False

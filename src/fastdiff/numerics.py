"""Shared numerical kernels.

Adaptive ODE integration runs scipy's DOP853 on Python floats (on two-state
systems numpy's per-call cost dominates), or, for stiff problems wanted at
given points, ODEPACK's LSODA in one odeint call; adaptive quadrature is a
thin contract over scipy's quad.  The uniform-grid composite rules and
finite difference stencils used throughout the package live here as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import mul, sub
from typing import Callable

import numpy as np
from scipy import integrate as _sint
from scipy.optimize import brentq

from .errors import BlowUpError, QuadratureError, RangeError, StiffnessError

__all__ = [
    "Tolerances",
    "OdeTrajectory",
    "integrate_ode",
    "lsoda_at",
    "quad_adaptive",
    "cumulative_integral",
    "integrate_table",
    "fd_weights",
    "deriv_uniform",
]

# every state the package integrates is bounded, so a component past the
# guard is a bug signal; and no solve it makes comes near the rhs-call budget
_OVERFLOW_GUARD = 1e12
_NFEV_BUDGET = 50_000_000
_QUAD_LIMIT = 200          # subintervals of one adaptive quadrature


@dataclass(frozen=True)
class Tolerances:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise RangeError(f"tolerances must be positive and finite, got {self}")


@dataclass
class OdeTrajectory:
    """States at the accepted steps plus a dense-output interpolant."""

    y: np.ndarray          # shape (n_states, naccepted + 1), the start included
    sol: Callable          # vectorized dense evaluation, sol(s) -> (n_states, ...)
    nfev: int
    naccepted: int


_EVENT_TOL = 4.0 * np.finfo(float).eps    # brentq tolerance of solve_ivp's event search

# scipy's DOP853 tableau on Python floats: stage j = 1..11 combines the stages
# before it with A[j][:j] at s + C[j] h; the dense output adds stages 13..15
_DOP = _sint.DOP853
_STAGES = [(a[:j], c) for j, (a, c) in enumerate(zip(_DOP.A.tolist(), _DOP.C.tolist())) if j]
_EXTRA = [(a[:j], c) for j, (a, c) in enumerate(zip(_DOP.A_EXTRA.tolist(), _DOP.C_EXTRA.tolist()), 13)]
_B, _E3, _E5, _D = _DOP.B.tolist(), _DOP.E3.tolist(), _DOP.E5.tolist(), _DOP.D.tolist()


def _add_stages(fun, t, y, K, h, table) -> None:
    for a, c in table:
        for Ki, v in zip(K, fun(t + c * h, [yi + sum(map(mul, a, Ki)) * h for yi, Ki in zip(y, K)])):
            Ki.append(v)


def _blow_up(sol, a: float, b: float) -> BlowUpError:
    s_hit = brentq(lambda sv: _OVERFLOW_GUARD - float(np.abs(sol(sv)).max()), a, b,
                   xtol=_EVENT_TOL, rtol=_EVENT_TOL)
    return BlowUpError(f"state exceeded overflow guard {_OVERFLOW_GUARD:g} at s={s_hit:.6g}")


class _Dop853:
    """scipy's DOP853 on Python floats: its initial-step rule, stages and step
    control (safety 0.9, factors 0.2 to 10, exponent -1/8).  K[i][j] is stage j
    of component i.  The run is its own dense output: a point takes the piece
    of the step ending there, as in scipy's OdeSolution; a piece (F[i][0..6]
    for component i) is formed on first use with three calls of rhs (fun, rhs
    counted against the budget, serves the stepping only)."""

    def __init__(self, fun, rhs, y: list, s0: float, s1: float, tol: Tolerances, span):
        rtol, atol, d, length = tol.rel_tol, tol.abs_tol, math.copysign(1.0, s1 - s0), abs(s1 - s0)
        f, scale = fun(s0, y), [atol + abs(v) * rtol for v in y]
        def rms(v):
            return math.sqrt(sum((a / b) ** 2 for a, b in zip(v, scale))) / len(y) ** 0.5
        d0, d1 = rms(y), rms(f)
        if not math.isfinite(d1):
            raise StiffnessError(f"integrator failed on span {span}: rhs not finite at the start")
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        d2 = rms(map(sub, fun(s0 + h0 * d, [v + h0 * d * fv for v, fv in zip(y, f)]), f)) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        h_abs, t, g = min(100 * h0, h1, length), s0, _OVERFLOW_GUARD - max(map(abs, y))
        self._rhs, self._t, self._y, self._k, self._F = rhs, [s0], [y], [], {}
        while d * (t - s1) < 0:
            min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:
                if h_abs < min_step:
                    raise StiffnessError(f"integrator failed on span {span}: step size underflow at s={t:.6g}")
                t_new = s1 if d * (t + h_abs * d - s1) > 0 else t + h_abs * d
                h, h_abs, K = t_new - t, abs(t_new - t), [[v] for v in f]
                _add_stages(fun, t, y, K, h, _STAGES)
                y_new = [yi + h * sum(map(mul, _B, Ki)) for yi, Ki in zip(y, K)]
                for Ki, v in zip(K, f_new := fun(t + h, y_new)):
                    Ki.append(v)
                sc = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
                e5, e3 = (sum((sum(map(mul, E, Ki)) / c) ** 2 for Ki, c in zip(K, sc)) for E in (_E5, _E3))
                err = 0.0 if e5 == 0 and e3 == 0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
                if err < 1:
                    factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs, rejected = h_abs * max(0.2, 0.9 * err ** -0.125), True
            self._t.append(t_new)
            self._y.append(y_new)
            self._k.append(K)
            g_new = _OVERFLOW_GUARD - max(map(abs, y_new))
            if g >= 0.0 >= g_new:
                raise _blow_up(self, t, t_new)
            t, y, f, g = t_new, y_new, f_new, g_new
        self.ts = np.array(self._t)

    def _piece(self, k: int) -> list:
        if k not in self._F:
            t, h, y, K = self._t[k], self._t[k + 1] - self._t[k], self._y[k], self._k[k]
            _add_stages(self._rhs, t, y, K, h, _EXTRA)
            self._F[k] = [[dy, h * Ki[0] - dy, 2 * dy - h * (Ki[12] + Ki[0]),
                           *(h * sum(map(mul, row, Ki)) for row in _D)]
                          for Ki, dy in zip(K, map(sub, self._y[k + 1], y))]
        return self._F[k]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        sv, ts, d = s.reshape(-1), np.array(self._t), math.copysign(1.0, self._t[-1] - self._t[0])
        seg = np.clip(np.searchsorted(d * ts, d * sv) - 1, 0, ts.size - 2)
        F = np.array([self._piece(k) for k in seg.tolist()])
        x = ((sv - ts[seg]) / (ts[seg + 1] - ts[seg]))[:, None]
        y = F[:, :, 6] * x
        for j in range(5, -1, -1):    # scipy's nested form
            y = (y + F[:, :, j]) * (x if j % 2 == 0 else 1.0 - x)
        y += np.array(self._y)[seg]
        return y.T if s.ndim else y[0]


def _start(rhs: Callable, y0, span: tuple[float, float]):
    """The start as a float array and rhs counted against the evaluation
    budget (StiffnessError once it runs out), with a reader of the count;
    RangeError on a non-finite start or an empty span."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise RangeError("initial state must be finite")
    if span[0] == span[1]:
        raise RangeError(f"empty span {span}")
    nfev = 0

    def wrapped(s, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise StiffnessError(f"evaluation budget exhausted ({_NFEV_BUDGET} rhs calls) on span {span}")
        return rhs(s, y)

    return y0, wrapped, lambda: nfev


def integrate_ode(
    rhs: Callable,
    y0,
    s_span: tuple[float, float],
    tol: Tolerances = Tolerances(),
) -> OdeTrajectory:
    """Adaptively integrate y' = rhs(s, y) over s_span with dense output by
    the explicit Dormand-Prince 8(5,3) pair, for smooth non-stiff problems at
    tight tolerances: scipy's tableau and step control on Python floats (rhs
    gets y as a list and returns floats), with a step's dense output formed
    when sol first needs it.  nfev counts the rhs calls made before the
    return.  Raises BlowUpError when max|y| goes from at or below the
    overflow guard 1e12 to at or above it over an accepted step
    (bounded-state problems make that a bug signal), at the crossing on that
    step's dense output; StiffnessError when the step size underflows or the
    evaluation budget runs out; RangeError on a non-finite start or an empty
    span.
    """
    span = tuple(map(float, s_span))
    y0, wrapped, nfev = _start(rhs, y0, span)
    sol = _Dop853(wrapped, rhs, y0.tolist(), *span, tol, span)
    return OdeTrajectory(y=np.array(sol._y).T, sol=sol, nfev=nfev(), naccepted=len(sol.ts) - 1)


def lsoda_at(rhs: Callable, jac: Callable, y0, s_out, tol: Tolerances = Tolerances()):
    """States of y' = rhs(s, y) at the monotone points s_out from y(s_out[0])
    = y0, by one LSODA run through scipy's odeint: Adams or BDF steps as
    stiffness comes and goes, the analytic Jacobian jac(s, y)[i][j] =
    df_i/dy_j, no step past s_out[-1], and LSODA's own interpolation at each
    point.  Returns (y, steps) with y[:, k] the state at s_out[k].  Raises
    StiffnessError when LSODA fails, a state is not finite or the budget
    runs out; BlowUpError when max|y| goes from at or below the overflow
    guard to at or above it between two points; RangeError as integrate_ode.
    """
    s_out = np.asarray(s_out, dtype=float)
    span = (float(s_out[0]), float(s_out[-1]))
    y0, wrapped, _ = _start(rhs, y0, span)
    with warnings.catch_warnings():
        # a failed run is read from the message below, not from odeint's warning
        warnings.simplefilter("ignore", _sint.ODEintWarning)
        y, info = _sint.odeint(wrapped, y0, s_out, Dfun=jac, tfirst=True, full_output=True,
                               rtol=tol.rel_tol, atol=tol.abs_tol, tcrit=[span[1]],
                               mxstep=_NFEV_BUDGET)
    if info["message"] != "Integration successful.":
        raise StiffnessError(f"integrator failed on span {span}: {info['message']}")
    g = _OVERFLOW_GUARD - np.abs(y).max(axis=1)
    if not np.isfinite(g).all():
        raise StiffnessError(f"integrator failed on span {span}: state not finite")
    crossed = np.flatnonzero((g[:-1] >= 0.0) & (g[1:] <= 0.0))
    if crossed.size:
        raise BlowUpError(f"state exceeded overflow guard {_OVERFLOW_GUARD:g} "
                          f"by s={s_out[crossed[0] + 1]:.6g}")
    return y.T, int(info["nst"][-1])


def quad_adaptive(f: Callable, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b]; b may be math.inf.

    Callers with semi-infinite ranges and known analytic tails are expected to
    split at a finite point and add the closed-form tail; the infinite-range
    path here is for integrands that decay fast enough on their own.
    """
    if not tol > 0:
        raise RangeError("tol must be positive")
    value, abserr, info, *rest = _sint.quad(
        f, a, b, epsabs=tol, epsrel=tol, limit=_QUAD_LIMIT, full_output=True
    )
    if rest:
        raise QuadratureError(f"quadrature did not converge on [{a}, {b}]: {rest[0]}")
    if abserr > 10.0 * tol * (1.0 + abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:g} exceeds tolerance {tol:g} on [{a}, {b}]"
        )
    return value


def _richardson(levels: np.ndarray, order: int) -> np.ndarray:
    """One Richardson stage over levels at successively halved steps whose
    error is O(step^order): (2^order x[1:] - x[:-1]) / (2^order - 1)."""
    return (2.0 ** order * levels[1:] - levels[:-1]) / (2.0 ** order - 1.0)


# --- uniform-grid composite rules -------------------------------------------

# Interval weights exact for cubics: interior interval [x_i, x_{i+1}] uses the
# cubic through nodes i-1..i+2; end intervals use one-sided cubics.
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_W_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_W_LAST = _W_FIRST[::-1]


def _interval_increments(y: np.ndarray, dx: float) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 4:
        raise RangeError("composite rule needs at least 4 nodes")
    inc = np.empty(n - 1)
    inc[0] = _W_FIRST @ y[:4]
    inc[-1] = _W_LAST @ y[-4:]
    inc[1:-1] = _W_MID[0] * y[:-3] + _W_MID[1] * y[1:-2] + _W_MID[2] * y[2:-1] + _W_MID[3] * y[3:]
    return inc * dx


def cumulative_integral(y, dx: float, direction: str = "forward") -> np.ndarray:
    """Fourth-order cumulative integral of uniformly sampled values.

    forward:  out[i] = integral from x_0 to x_i   (out[0] = 0)
    backward: out[i] = integral from x_i to x_end (out[-1] = 0)
    """
    inc = _interval_increments(y, dx)
    out = np.empty(len(inc) + 1)
    if direction == "forward":
        out[0] = 0.0
        np.cumsum(inc, out=out[1:])
    elif direction == "backward":
        out[-1] = 0.0
        out[:-1] = np.cumsum(inc[::-1])[::-1]
    else:
        raise RangeError(f"unknown direction {direction!r}")
    return out


def integrate_table(y, dx: float) -> float:
    """Integral over the whole uniform table (fourth order)."""
    return float(np.sum(_interval_increments(y, dx)))


# --- finite-difference stencils ----------------------------------------------


def fd_weights(offsets, deriv: int) -> np.ndarray:
    """Stencil weights for d^deriv/dx^deriv at 0 from nodes at the given offsets.

    Solves the Vandermonde moment system; exact for polynomials up to
    degree len(offsets)-1.  Weights are in units of dx^-deriv.
    """
    offsets = np.asarray(offsets, dtype=float)
    k = offsets.size
    if deriv >= k:
        raise RangeError("need more stencil points than the derivative order")
    A = np.vander(offsets, k, increasing=True).T
    b = np.zeros(k)
    b[deriv] = math.factorial(deriv)
    return np.linalg.solve(A, b)


def deriv_uniform(y, dx: float, deriv: int = 1) -> np.ndarray:
    """Derivative of uniformly sampled values by five-point stencils,
    one-sided at the edges: 4th-order first derivatives and 3rd/4th-order
    second derivatives."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 5:
        raise RangeError("need at least 5 nodes")
    out = np.empty(n)
    center = fd_weights(np.arange(5) - 2, deriv)
    # correlate applies the stencil in natural order: out[i] = sum_j y[i+j] w[j]
    out[2:n - 2] = np.correlate(y, center, mode="valid")
    for i in range(2):
        out[i] = fd_weights(np.arange(5) - i, deriv) @ y[:5]
        out[n - 1 - i] = fd_weights(np.arange(5) - (4 - i), deriv) @ y[-5:]
    return out / dx ** deriv

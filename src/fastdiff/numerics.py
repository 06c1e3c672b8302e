"""Shared numerical kernels.

Every ODE the package integrates runs through one routine, lsoda_at:
ODEPACK's LSODA in one odeint call, with the states wanted at given points
and LSODA's own difference-quotient Jacobian unless the caller passes one.
The uniform-grid composite rules live here too, the two centred five-point
stencils [1, -8, 0, 8, -1]/12 and [-1, 16, -30, 16, -1]/12, and hermite,
the interpolant of every table whose slopes are known.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sint

from .errors import BlowUpError, RangeError, StiffnessError

__all__ = [
    "lsoda_at",
    "cumulative_integral",
    "integrate_table",
    "deriv_uniform",
]

# every state the package integrates is bounded, so a component past the
# guard is a bug signal; and no solve it makes comes near the rhs-call budget
_OVERFLOW_GUARD = 1e12
_NFEV_BUDGET = 50_000_000


def lsoda_at(rhs: Callable, y0, s_out, *, rel_tol: float, abs_tol: float,
             jac: Optional[Callable] = None):
    """States of y' = rhs(s, y) at the monotone points s_out from y(s_out[0])
    = y0, by one LSODA run through scipy's odeint at local error tolerances
    rel_tol and abs_tol: Adams or BDF steps as stiffness comes and goes, no
    step or rhs call past s_out[-1] whether s_out increases or decreases,
    and LSODA's own interpolation at each point (a repeated point takes the
    same state).  rhs gets s and y as Python floats (y a list), so it
    computes without numpy scalars and with the same IEEE bits.  Returns
    (y, steps) with y[:, k] the state at s_out[k].  Raises StiffnessError
    when LSODA fails, a state is not finite or the evaluation budget runs
    out; BlowUpError when max|y| goes from at or below the overflow guard to
    at or above it between two points; RangeError on a tolerance that is not
    positive and finite, a non-finite start, non-finite or non-monotone
    points, or an empty span.

    Without jac, LSODA forms the Jacobian by difference quotients of rhs
    (Hindmarsh, ODEPACK, 1983); jac(s, y)[i][j] = df_i/dy_j, called like
    rhs, replaces them.  Only continue_left's rho-leg passes one: it takes
    155 steps at the reference point with it and 182 without.

    Each rhs call goes through one callback, built once per run for the
    span's direction and the state's size: it counts the call against the
    budget and hands rhs the state as a list, and on a decreasing span it
    negates s and the derivative, 1 or 2 components by a fixed-size
    expression and more by a comprehension.  On one core of a shared Xeon
    VM under CPython 3.11 it adds 70-100 ns to an increasing call, 130-200
    ns to a decreasing one of 1 or 2 components and 350-450 ns past that,
    where a trivial rhs itself takes 150-250 ns.

    rhs must return a finite derivative for every state, Newton trial states
    far off the solution included: odepack's weighted max-norm drops nan, so
    a nan derivative passes the corrector's test and the run ends in
    StiffnessError instead of retrying the step.  continue_left's two legs
    return profile._TRIAL_DERIV in its place.
    """
    if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
        raise RangeError(f"rel_tol {rel_tol} and abs_tol {abs_tol} must be positive and finite")
    s_out = np.asarray(s_out, dtype=float)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    span = (float(s_out[0]), float(s_out[-1]))
    if not np.isfinite(y0).all():
        raise RangeError("initial state must be finite")
    gaps = np.diff(s_out)
    if not (np.isfinite(s_out).all() and ((gaps >= 0.0).all() or (gaps <= 0.0).all())):
        raise RangeError(f"output points must be finite and monotone on span {span}")
    if span[0] == span[1]:
        raise RangeError(f"empty span {span}")
    # odeint honours tcrit only on increasing times, so a decreasing span
    # runs as the increasing one in t = -s: negated rhs, jac and times give
    # the same steps and bits, and the last step stops on s_out[-1]
    sign = 1.0 if span[1] > span[0] else -1.0
    nfev = 0

    def exhausted():
        return StiffnessError(f"evaluation budget exhausted ({_NFEV_BUDGET} rhs calls) on span {span}")

    def increasing(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise exhausted()
        return rhs(t, y.tolist())

    def decreasing_1(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise exhausted()
        (a,) = rhs(-t, y.tolist())
        return [-a]

    def decreasing_2(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise exhausted()
        a, b = rhs(-t, y.tolist())
        return [-a, -b]

    def decreasing(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise exhausted()
        return [-v for v in rhs(-t, y.tolist())]

    wrapped = increasing if sign > 0.0 else {1: decreasing_1, 2: decreasing_2}.get(y0.size, decreasing)

    def dfun(t, y):
        return [[sign * v for v in row] for row in jac(sign * t, y.tolist())]

    with warnings.catch_warnings():
        # a failed run is read from the message below, not from odeint's warning
        warnings.simplefilter("ignore", _sint.ODEintWarning)
        y, info = _sint.odeint(wrapped, y0, sign * s_out, Dfun=None if jac is None else dfun,
                               tfirst=True, full_output=True, rtol=rel_tol, atol=abs_tol,
                               tcrit=[sign * span[1]], mxstep=_NFEV_BUDGET)
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


# --- uniform-grid composite rules -------------------------------------------

# Interval weights exact for cubics: interior interval [x_i, x_{i+1}] uses the
# cubic through nodes i-1..i+2; end intervals use one-sided cubics.
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_W_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_W_LAST = _W_FIRST[::-1]


def _uniform_table(y, dx: float) -> np.ndarray:
    """y as a float array; RangeError unless it is 1-d and dx > 0 is finite."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise RangeError(f"need a 1-d table of values, got shape {y.shape}")
    if not 0.0 < dx < math.inf:
        raise RangeError(f"spacing dx must be positive and finite, got {dx}")
    return y


def _interval_increments(y: np.ndarray, dx: float) -> np.ndarray:
    y = _uniform_table(y, dx)
    n = y.shape[0]
    if n < 4:
        raise RangeError("composite rule needs at least 4 nodes")
    inc = np.empty(n - 1)
    inc[0] = _W_FIRST @ y[:4]
    inc[-1] = _W_LAST @ y[-4:]
    # w0 y[:-3] + w1 y[1:-2] + w2 y[2:-1] + w3 y[3:], summed left to right
    # in place: the same float operations in the same order
    mid, term = inc[1:-1], np.empty(n - 3)
    np.multiply(y[:-3], _W_MID[0], out=mid)
    for j in (1, 2, 3):
        mid += np.multiply(y[j:n - 3 + j], _W_MID[j], out=term)
    inc *= dx
    return inc


def cumulative_integral(y, dx: float, direction: str = "forward") -> np.ndarray:
    """Fourth-order cumulative integral of uniformly sampled values; RangeError
    unless y is 1-d and dx is positive and finite.

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
        np.cumsum(inc[::-1], out=out[-2::-1])
    else:
        raise RangeError(f"unknown direction {direction!r}")
    return out


def integrate_table(y, dx: float) -> float:
    """Integral over the whole uniform table (fourth order)."""
    return float(np.sum(_interval_increments(y, dx)))


# --- finite-difference stencils ----------------------------------------------

# centred five-point weights at offsets -2..2 in units of dx^-deriv, exact for quartics
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D1.flags.writeable = _D2.flags.writeable = False


def deriv_uniform(y, dx: float, deriv: int = 1) -> np.ndarray:
    """First or second derivative of uniformly sampled values at the n - 4
    interior nodes y[2:-2], by the centred five-point stencil (4th order).
    RangeError unless deriv is the int 1 or 2, y is 1-d with at least 5
    nodes and dx is positive and finite."""
    y = _uniform_table(y, dx)
    if y.size < 5:
        raise RangeError("need at least 5 nodes")
    if isinstance(deriv, bool) or not isinstance(deriv, (int, np.integer)) or deriv not in (1, 2):
        raise RangeError(f"derivative order must be the int 1 or 2, got {deriv!r}")
    # correlate applies the stencil in natural order: out[i] = sum_j y[i+j] w[j]
    return np.correlate(y, _D1 if deriv == 1 else _D2, mode="valid") / dx ** deriv


# --- cubic Hermite interpolation ---------------------------------------------

def _hermite_piece(s, x_i, x_j, y_i, y_j, dy_i, dy_j):
    ds = x_j - x_i
    u = (s - x_i) / ds
    v = 1.0 - u
    return y_i + u * u * (3.0 - 2.0 * u) * (y_j - y_i) + ds * u * v * (v * dy_i - u * dy_j)


def hermite(x, y, dy):
    """at(s): the cubic Hermite interpolant of values y and slopes dy at the
    increasing nodes x, at an array or a float s, on the piece [x_i, x_j] of
    the last node at or below s (the end pieces extended), in the difference
    form y_i + u^2 (3-2u) (y_j-y_i) + ds u v (v dy_i - u dy_j), ds = x_j-x_i,
    u = (s-x_i)/ds, v = 1-u: a node and constant data keep their bits.  A
    float s makes the array path's operations, so gets its bits, on a piece
    guessed from the mean spacing and corrected.  at.integral(s), s an array,
    is the exact integral from s to the last node.  With exact slopes it errs
    by at most ds^4/384 max|y''''|, a fifth of a cubic spline's bound, with
    no linear solve (de Boor, A Practical Guide to Splines, 2001)."""
    x, y, dy = (np.ascontiguousarray(a, dtype=float) for a in (x, y, dy))
    xs, ys, dys, last = memoryview(x), memoryview(y), memoryview(dy), x.size - 2
    x0, per_ds = xs[0], (last + 1) / (xs[last + 1] - xs[0])

    def piece(s):
        i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, last)
        return i, i + 1

    def at(s):
        if isinstance(s, float):
            i = min(int((s - x0) * per_ds), last) if s > x0 else 0
            while s < xs[i] and i > 0:
                i -= 1
            while i < last and s >= xs[i + 1]:
                i += 1
            return _hermite_piece(s, xs[i], xs[i + 1], ys[i], ys[i + 1], dys[i], dys[i + 1])
        i, j = piece(s)
        return _hermite_piece(s, x[i], x[j], y[i], y[j], dy[i], dy[j])

    def integral(s):
        # whole pieces ds/2 (y_i + y_j) + ds^2/12 (dy_i - dy_j) summed from the
        # right, plus the part of s's piece right of s, b = 1 - u wide
        ds = np.diff(x)
        whole = ds / 2.0 * (y[:-1] + y[1:]) + ds * ds / 12.0 * (dy[:-1] - dy[1:])
        right = np.append(np.cumsum(whole[::-1])[::-1], 0.0)
        i, j = piece(s)
        ds = ds[i]
        b = 1.0 - (s - x[i]) / ds
        return right[j] + ds * b * (y[j] - b * b * (1.0 - 0.5 * b) * (y[j] - y[i]) + ds * b * (
            b * (4.0 - 3.0 * b) * dy[i] - (6.0 - b * (8.0 - 3.0 * b)) * dy[j]) / 12.0)

    at.integral = integral
    return at

"""Shared numerical kernels.

Every ODE the package integrates runs through one routine, lsoda_at:
ODEPACK's LSODA in one odeint call, with the states wanted at given points;
adaptive quadrature is a thin contract over scipy's quad.  The uniform-grid
composite rules and finite difference stencils used throughout the package
live here as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sint

from .errors import BlowUpError, QuadratureError, RangeError, StiffnessError

__all__ = [
    "Tolerances",
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


def lsoda_at(rhs: Callable, jac: Callable, y0, s_out, tol: Tolerances = Tolerances()):
    """States of y' = rhs(s, y) at the monotone points s_out from y(s_out[0])
    = y0, by one LSODA run through scipy's odeint: Adams or BDF steps as
    stiffness comes and goes, the analytic Jacobian jac(s, y)[i][j] =
    df_i/dy_j, no step past s_out[-1], and LSODA's own interpolation at each
    point (a repeated point takes the same state).  rhs and jac get s and y
    as Python floats (y a list), so a callback computes without numpy
    scalars and with the same IEEE bits.  Returns (y, steps) with
    y[:, k] the state at s_out[k].  Raises StiffnessError when LSODA fails, a
    state is not finite or the evaluation budget runs out; BlowUpError when
    max|y| goes from at or below the overflow guard to at or above it between
    two points; RangeError on a non-finite start, non-finite or non-monotone
    points, or an empty span.
    """
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
    nfev = 0

    def wrapped(s, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise StiffnessError(f"evaluation budget exhausted ({_NFEV_BUDGET} rhs calls) on span {span}")
        return rhs(s, y.tolist())

    with warnings.catch_warnings():
        # a failed run is read from the message below, not from odeint's warning
        warnings.simplefilter("ignore", _sint.ODEintWarning)
        y, info = _sint.odeint(wrapped, y0, s_out, Dfun=lambda s, y: jac(s, y.tolist()),
                               tfirst=True, full_output=True, rtol=tol.rel_tol,
                               atol=tol.abs_tol, tcrit=[span[1]], mxstep=_NFEV_BUDGET)
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

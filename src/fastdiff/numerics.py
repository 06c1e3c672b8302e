"""Shared numerical kernels.

Adaptive ODE integration drives scipy's DOP853/LSODA solver classes step by
step; adaptive quadrature is a thin contract over scipy's quad.  The
uniform-grid composite rules and finite difference stencils used throughout
the package live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sint
from scipy.optimize import brentq

from .errors import BlowUpError, QuadratureError, RangeError, StiffnessError

__all__ = [
    "Tolerances",
    "OdeTrajectory",
    "integrate_ode",
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
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise RangeError("tolerances must be positive")


@dataclass
class OdeTrajectory:
    """States at the accepted steps plus a dense-output interpolant."""

    y: np.ndarray          # shape (n_states, naccepted + 1), the start included
    sol: Callable          # vectorized dense evaluation, sol(s) -> (n_states, ...)
    nfev: int
    naccepted: int


class _BudgetExhausted(Exception):
    pass


_SOLVERS = {"dop853": _sint.DOP853, "lsoda": _sint.LSODA}
_EVENT_TOL = 4.0 * np.finfo(float).eps    # brentq tolerance of solve_ivp's event search


def integrate_ode(
    rhs: Callable,
    y0,
    s_span: tuple[float, float],
    tol: Tolerances = Tolerances(),
    method: str = "dop853",
    jac: Optional[Callable] = None,
) -> OdeTrajectory:
    """Adaptively integrate y' = rhs(s, y) over s_span with dense output.

    method "dop853" is the explicit Dormand-Prince 8(5,3) pair, for smooth
    non-stiff problems at tight tolerances; "lsoda" switches between Adams
    and BDF steps as stiffness comes and goes, and uses the analytic
    Jacobian jac (lsoda only) when one is given.  Each accepted step adds
    its dense output (a zero-length step adds none), as solve_ivp with
    dense_output=True does.  Raises BlowUpError when max|y| goes from at or
    below the overflow guard 1e12 to at or above it over an accepted step
    (bounded-state problems make that a bug signal, not a numerical event),
    at the crossing located on that step's dense output; StiffnessError
    when the step size underflows or the evaluation budget runs out.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise RangeError("initial state must be finite")
    solver_cls = _SOLVERS.get(method)
    if solver_cls is None:
        raise RangeError(f"unknown method {method!r}")
    if jac is not None and solver_cls is not _sint.LSODA:
        raise RangeError(f"method {method!r} takes no Jacobian")

    nfev = 0

    def wrapped(s, y):
        nonlocal nfev
        nfev += 1
        if nfev > _NFEV_BUDGET:
            raise _BudgetExhausted
        return rhs(s, y)

    def guard(y):
        return _OVERFLOW_GUARD - float(np.abs(y).max())

    s0, s1 = map(float, s_span)
    options = {} if jac is None else {"jac": jac}
    try:
        solver = solver_cls(wrapped, s0, y0, s1, rtol=tol.rel_tol, atol=tol.abs_tol, **options)
        ts, ys, pieces = [s0], [y0], []
        g = guard(y0)
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise StiffnessError(f"integrator failed on span {s_span}: {message}")
            piece = solver.dense_output()
            g_new = guard(solver.y)
            if g >= 0.0 >= g_new:
                s_hit = brentq(lambda sv: guard(piece(sv)), solver.t_old, solver.t,
                               xtol=_EVENT_TOL, rtol=_EVENT_TOL)
                raise BlowUpError(f"state exceeded overflow guard {_OVERFLOW_GUARD:g} at s={s_hit:.6g}")
            g = g_new
            if len(ts) == 1 or ts[-1] != solver.t:
                ts.append(solver.t)
                ys.append(solver.y)
                pieces.append(piece)
    except _BudgetExhausted:
        raise StiffnessError(
            f"evaluation budget exhausted ({_NFEV_BUDGET} rhs calls) on span {s_span}"
        )
    sol = _sint.OdeSolution(np.array(ts), pieces, alt_segment=solver_cls is _sint.LSODA)
    # ts holds the start point and then one entry per accepted step
    return OdeTrajectory(y=np.vstack(ys).T, sol=sol, nfev=nfev, naccepted=len(ts) - 1)


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
    if n > 2:
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

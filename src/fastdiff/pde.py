"""Radial finite-difference solver for u_t = Delta(u^m/m) on a truncated
annulus, plus the self-similar rescaling operator and the weighted-contraction
and large-time-convergence experiments.

The domain is [r_in, r_out] with Dirichlet traces at both ends, discretized on
a log-uniform grid.  In x = log r the radial operator reads

    Delta(u^m/m) = e^(-2x) [ (u^m/m)_xx + (n-2) (u^m/m)_x ],

which resolves power-law fields uniformly per decade.  Time stepping is fully
implicit (backward Euler, theta = 1) with a damped Newton inner solve; the
Jacobian is tridiagonal and the centered stencil is an M-matrix whenever
dx < 2/(n-2), which is what makes the discrete comparison and weighted-L1
contraction properties of the continuous flow carry over to the scheme.  A
tridiagonal M-matrix is diagonally similar to a symmetric one, which is then
positive definite (Varga, Matrix Iterative Analysis), so each Newton system
is solved in that form, without pivoting, by LAPACK's dptsv.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.blas import idamax
from scipy.linalg.lapack import dptsv

from .errors import (
    ConfigError,
    GridMismatchError,
    NewtonDivergence,
    PositivityError,
    RangeError,
    SandwichViolationError,
    ToleranceError,
)
from .params import ParamSet
from .profile import _LOG_FLOAT_MAX, Profile, lambda_for_amplitude, profile_interpolator, rescale_profile
from .weight import WeightFunction, weighted_grid

__all__ = [
    "RadialField",
    "EvolveConfig",
    "EvolveStats",
    "ContractionResult",
    "ConvergenceResult",
    "log_grid",
    "barenblatt",
    "self_similar_solution",
    "sample_solution",
    "evolve",
    "rescale_field",
    "power_bump_initial",
    "random_sandwiched_pair",
    "sup_compact",
    "contraction_experiment",
    "convergence_experiment",
]

# Relative slack used when validating sandwich envelopes; field values span
# many decades, so all envelope comparisons are relative.
_SANDWICH_RTOL = 1e-8

# Step-size control of the lockstep marcher: halve dt on a rejected step, grow
# it by _DT_GROW after a predicted step (one a cap sized), and after any other
# step whose Newton iterations to convergence number <= _GROW_THRESHOLD (its
# linear solves, plus one on a step that stopped on the predicted next
# increment).
_MAX_BACKTRACK = 10
_DT_SHRINK = 0.5
_DT_GROW = 1.3
_GROW_THRESHOLD = 3
_MAX_STEPS = 2_000_000

# |log s| of the Newton solve's symmetrizer s stays below this, so that s and
# 1/s are normal floats
_LOG_S_LIMIT = -math.log(sys.float_info.min)

# Degree of the polynomial in u, through the last accepted states, from
# which Newton starts on a cap-sized step.
_PREDICT_DEGREE = 3

# log-radius window of the random interpolation field of a sandwiched pair,
# and the number of its Fourier modes
_THETA_SUPPORT = (-3.0, -0.5)
_THETA_MODES = 3

# annulus on which sup_compact compares fields
_SUP_WINDOW = (0.1, 10.0)


def log_grid(r_in: float, r_out: float, n_nodes: int) -> np.ndarray:
    """Log-uniform grid on [r_in, r_out], the node layout the solver requires."""
    if not 0.0 < r_in < r_out < math.inf:
        raise RangeError(f"need 0 < inner radius < outer radius < inf, got [{r_in}, {r_out}]")
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 4:
        raise ConfigError(f"need an integer count of at least 4 nodes, got {n_nodes}")
    return np.exp(np.linspace(math.log(r_in), math.log(r_out), n_nodes))


@dataclass(frozen=True)
class EvolveStats:
    """Per-run counters recorded by the time stepper.

    ab_max is the largest relative margin of the discrete decay bound
    (u_new - u_old)/dt <= u_new / ((1-m) t_new): the recorded quantity is
    ((u_new - u_old)/dt - bound)/bound maximized over interior nodes and
    accepted steps, so any value <= 0 means the bound held strictly.  Each
    step evaluates it as (1-m) t_new/dt * max((u_new - u_old)/u_new) - 1,
    the same quantity in three array passes.

    n_rejected counts every rejected step; n_rejected_positivity the part of
    them whose Newton update could not be backtracked above the positivity
    floor.  The rest are Newton failures: a stall, a failed or non-finite
    solve, or an unusable start.  newton_total counts the linear solves of
    the accepted steps.
    """

    t_start: float
    t_end: float
    n_steps: int
    n_rejected: int
    n_rejected_positivity: int
    newton_total: int
    dt_final: float
    min_u: float
    ab_max: float


@dataclass(frozen=True)
class EvolveConfig:
    """Controls for the implicit one-step scheme (theta = 1, backward Euler).

    newton_tol is relative: the inner iteration stops once the scaled
    residual of an updated iterate, the scaled increment, or the next
    increment that the contraction rate predicts drops below it.  After two
    consecutive full (lam = 1) updates with scaled increments inc_prev and
    inc, theta = inc/inc_prev, and theta < 1 with theta/(1 - theta) inc <=
    newton_tol ends the step (Deuflhard, Newton Methods for Nonlinear
    Problems, 2004; Hairer & Wanner, Solving ODEs II, IV.8).  All three are
    maxima over every node of every field marched together, so the fields
    of one step share one iteration count.  The start's residual is not
    tested, so every step takes at least one linear solve.  The scaled
    residual has a roundoff floor above the default tolerance (5.2e-10 to
    8.2e-7 at the states that the steps of fdx converge's orbit run return,
    640 nodes on [1e-3, 1e3]), so there an increment test ends each step,
    and the predicted one ends it at the solve that converged the iterate.
    From u_old that takes two or three solves: on fdx contract's 20 pair
    seeds (512 nodes) 4,073 of the 4,264 steps take three and 191 take two,
    and 3,897 of them stop on the prediction.  A settled start that
    _Lockstep predicts in u is already within newton_tol and takes one:
    11,850 of the orbit run's 12,012 predicted steps.  No residual follows
    a converged full increment or a predicted stop: the step returns u +
    delta once it clears the positivity floor, without the damping veto.
    Each Newton iteration takes one power, u^m: the residual's u^m/m and
    the solve's u^(1-m) = u/u^m both come from it.
    dt_rel_max, when set, caps the step at dt_rel_max * t, which is the
    natural accuracy knob for runs spanning decades of time.  The five float
    fields take a real number and refuse a bool; dt_rel_max may be None.
    """

    dt_init: float = 1e-4
    dt_max: float = 0.05
    dt_min: float = 1e-12
    dt_rel_max: Optional[float] = None
    newton_tol: float = 1e-11
    newton_max: int = 12

    def __post_init__(self):
        for name in ("dt_init", "dt_max", "dt_min", "dt_rel_max", "newton_tol"):
            value = getattr(self, name)
            if name == "dt_rel_max" and value is None:
                continue
            # a bool is an int to isinstance, so True would pass as 1.0
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not self.dt_min <= self.dt_init <= self.dt_max:
            raise ConfigError("need dt_min <= dt_init <= dt_max")
        if (isinstance(self.newton_max, bool) or not isinstance(self.newton_max, (int, np.integer))
                or self.newton_max < 1):
            raise ConfigError(f"newton_max must be an integer >= 1, got {self.newton_max}")


@dataclass(frozen=True)
class RadialField:
    """Radial field sampled on a log-uniform grid with Dirichlet traces.

    bc holds the (left, right) boundary values as functions of time; they are
    evaluated at the *new* time of each implicit step.  params carries the
    self-similar exponents so the field knows how to rescale itself.
    """

    r_grid: np.ndarray
    u: np.ndarray
    t: float
    bc: tuple[Callable[[float], float], Callable[[float], float]]
    params: ParamSet
    stats: Optional[EvolveStats] = None

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "u", u)
        if r.ndim != 1 or u.shape != r.shape:
            raise ConfigError("r_grid and u must be 1-d arrays of equal length")
        if not np.all(np.diff(r) > 0) or not r[0] > 0:
            raise ConfigError("grid must be positive and strictly increasing")
        if not np.all((u > 0) & np.isfinite(u)):
            raise ConfigError("field values must be finite and strictly positive")
        if not self.t > 0:
            raise RangeError(f"time must be positive, got {self.t}")


@dataclass(frozen=True)
class ContractionResult:
    """Weighted distances between an evolved pair at the sampled times."""

    times: np.ndarray
    tau: np.ndarray
    dist_abs: np.ndarray
    dist_pos: np.ndarray
    dist_sup_compact: np.ndarray
    u_final: RadialField
    v_final: RadialField


@dataclass(frozen=True)
class ConvergenceResult:
    """Distance of the rescaled evolution to the limit profile along tau_grid."""

    tau_grid: np.ndarray
    t_grid: np.ndarray
    dist_l1w: np.ndarray
    dist_sup_compact: np.ndarray
    norm_ref: float
    lam0: float
    lam1: float
    lam2: float
    y_grid: np.ndarray
    f_ref: np.ndarray
    u0_l1_gap: float
    field_final: RadialField


def barenblatt(n: int, m: float, k: float, T: float) -> Callable:
    """Closed-form extinction solution of u_t = Delta(u^m/m) for m < (n-2)/n.

    Returns B(r, t) valid for 0 < t < T; it is smooth, positive, radially
    decreasing, and vanishes identically at t = T.
    """
    if n < 3:
        raise RangeError(f"dimension must be >= 3, got {n}")
    if not 0.0 < m < (n - 2) / n:
        raise RangeError(f"extinction regime requires 0 < m < (n-2)/n, got m={m}")
    if not (0 < k < math.inf and 0 < T < math.inf):
        raise RangeError(f"k and T must be positive and finite, got k={k}, T={T}")
    c_star = 2.0 * (n - 2.0 - n * m) / (1.0 - m)
    beta1 = 1.0 / (n - 2.0 - n * m)
    alpha1 = (2.0 * beta1 + 1.0) / (1.0 - m)

    def B(r, t):
        if not 0.0 < t < T:
            raise RangeError(f"Barenblatt field is defined for 0 < t < {T}, got t={t}")
        r_arr = np.asarray(r, dtype=float)
        s = T - t
        try:
            return s**alpha1 * (c_star / (k**2 + (s**beta1 * r_arr) ** 2)) ** (1.0 / (1.0 - m))
        except OverflowError:
            raise RangeError(f"k = {k:.3g} or T - t = {s:.3g} takes the field past the float range") from None

    return B


def self_similar_solution(profile: Profile, lam: float) -> Callable:
    """The self-similar solution V_lam(r, t) = t^(-alpha) f_lam(t^(-beta) r),
    r a float or a numpy array."""
    alpha, beta = profile.params.alpha, profile.params.beta
    f_lam = profile_interpolator(rescale_profile(profile, lam))

    def V(r, t):
        # a float r (a boundary trace) takes the interpolator's scalar path
        try:
            return t ** (-alpha) * f_lam(t ** (-beta) * r)
        except OverflowError:
            raise RangeError(f"t = {t:.3g} takes t^(-alpha) or t^(-beta) past the float range") from None

    return V


def sample_solution(V: Callable, t: float, grid: np.ndarray, params: ParamSet) -> RadialField:
    """The field V(., t) on the grid, with V's own traces at both ends."""
    if not t > 0:
        raise RangeError(f"time must be positive, got {t}")
    grid = np.asarray(grid, dtype=float)
    r_in, r_out = float(grid[0]), float(grid[-1])
    return RadialField(r_grid=grid, u=V(grid, t), t=float(t),
                       bc=(lambda tt: V(r_in, tt), lambda tt: V(r_out, tt)), params=params)


class _StepReject(Exception):
    """Internal: the inner solve failed at the current dt."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason  # "newton" or "positivity"


class _Stepper:
    """Backward-Euler step of k fields on one log-uniform grid, solved as one
    flat system.

    The fields lie end to end in one flat array of k N nodes, field b on
    [b N, (b + 1) N).  Newton solves for the k N - 2 nodes between the outer
    two: each field's interior rows are its own tridiagonal rows, and the
    2 (k - 1) trace nodes between the fields are diagonal rows (no
    couplings, zero residual, so zero increment).  The matrix is block
    diagonal with zero seams.  It is solved in its symmetric positive
    definite form (see _solve) by one dptsv call, whose factorization and
    substitutions carry no pivoting: across a zero coupling the multiplier
    is 0/d = 0, so the next pivot d - 0 * 0 and the next right-hand side
    entry b - 0 * b keep their bits, and every block gets the bits of a
    solve of its own.  The residual, the diagonal and the norms each run
    once over contiguous memory.  One Newton iteration solves the whole
    system: its convergence tests, its positivity backtracking and its
    damping veto read maxima over all rows, so the fields share one lam and
    one iteration count, and k = 1 is the single-field step.  So a field
    whose own step takes the flat step's count keeps its own step's bits,
    and a field whose own step would have stopped sooner takes
    roundoff-sized increments until the slowest field converges, which
    moves it by far less than newton_tol (at most 2.9e-14 relative for a
    constant state stepped next to a sandwiched field, against the default
    1e-11).  Which of the two a sandwiched field takes can turn on the
    rounding of its last increment.  Newton converges on the
    backward-Euler solution of every field, and the weighted-L1 contraction
    of sandwiched pairs is a property of that solution (the discrete
    comparison principle of the M-matrix step), not of the path Newton
    takes to it.
    """

    def __init__(self, r_grid: np.ndarray, params: ParamSet, cfg: EvolveConfig,
                 bcs: Sequence[tuple[Callable, Callable]]):
        r = np.asarray(r_grid, dtype=float)
        x = np.log(r)
        dxs = np.diff(x)
        dx = float(np.mean(dxs))
        if not np.allclose(dxs, dx, rtol=1e-8, atol=1e-12):
            raise GridMismatchError("solver requires a log-uniform grid")
        kdrift = params.n - 2
        if not dx < 2.0 / kdrift:
            raise ConfigError(
                f"log spacing {dx:.4g} too coarse for a monotone stencil: need dx < 2/(n-2) = {2.0 / kdrift:.4g}"
            )
        # e^(-2x) and the coefficients peak at x[1], at e^(-2 x[1]) times
        # max(1, 2/dx^2) (that is |ce| there); tested on the log, so no exp
        # overflows
        self.log_ce_max = -2.0 * x[1] + math.log(2.0 / dx**2)
        if max(-2.0 * x[1], self.log_ce_max) >= _LOG_FLOAT_MAX:
            raise RangeError(
                f"inner radius {r[0]:.4g} too small: the stencil's e^(-2 log r) 2/dx^2 overflows a float"
            )
        self.m = params.m
        self.cfg = cfg
        self.k = k = len(bcs)
        n = r.size
        # the traces: one field's two callables are called directly; with
        # several fields each distinct callable runs once per step (a
        # sandwiched pair shares its upper envelope's), and trace_of names
        # the one each trace node takes, in the order left 0, right 0, ...
        self.bcs = bcs
        self.trace_fns = list(dict.fromkeys(fn for bc in bcs for fn in bc))
        self.trace_of = [self.trace_fns.index(fn) for bc in bcs for fn in bc]
        self.trace_nodes = np.arange(k).repeat(2) * n + np.tile([0, n - 1], k)

        def flat(per_node):
            # a per-node coefficient of one field, zero on the trace nodes,
            # laid end to end for k fields; entry i belongs to flat node i + 1
            return np.tile(per_node, k)[1:-1]

        e2 = np.exp(-2.0 * x[1:-1])
        zero = np.zeros(1)
        c_lo, c_hi = 1.0 / dx**2 - kdrift / (2.0 * dx), 1.0 / dx**2 + kdrift / (2.0 * dx)
        lo, ce, hi = (np.concatenate([zero, e2 * c, zero]) for c in (c_lo, -2.0 / dx**2, c_hi))
        self.lo, self.ce, self.hi = flat(lo), flat(ce), flat(hi)
        self.nce = -self.ce
        # In y = u^(m-1) delta, Newton's system is M y = -G/dt with M =
        # tridiag(-lo, -ce + u^(1-m)/dt, -hi), whose couplings are the grid's
        # alone.  With s_(j+1)/s_j = sqrt(lo_(j+1)/hi_j), S^-1 M S is
        # symmetric, with couplings e_j = -sqrt(lo_(j+1)) sqrt(hi_j).  log s
        # is summed on the log and centred, so no product or ratio of lo and
        # hi is formed, and s and 1/s must be normal floats
        log_s = np.concatenate([zero, np.cumsum(0.5 * math.log(c_lo / c_hi) - dxs[1:-1])])
        log_s -= 0.5 * (log_s[0] + log_s[-1])
        self.log_s_max = float(np.abs(log_s).max())
        if self.log_s_max >= _LOG_S_LIMIT:
            raise RangeError(
                f"grid [{r[0]:.4g}, {r[-1]:.4g}] too wide for its spacing: the Newton solve's "
                f"symmetrizer passes the float range"
            )
        # log |ce| / s, whose largest value bounds the stencil term of the
        # right-hand side -G/s; tested with the data by _Lockstep
        self.log_ce_s_max = float(np.max(math.log(2.0 / dx**2) - 2.0 * x[1:-1] - log_s))
        s = np.concatenate([[1.0], np.exp(log_s), [1.0]])
        self.s = flat(s)
        self.minus_inv_s = flat(-1.0 / s)
        # the trace nodes take s = 1, and e_j couples node j to j + 1: zero at
        # a trace node, so across the seams
        self.e = -np.tile(np.concatenate([np.sqrt(lo[1:]) * np.sqrt(hi[:-1]), zero]), k)[1:-2]
        # per-step buffers, rewritten by every step: the positivity floor, -ce
        # and the couplings scaled by dt (dptsv copies e, so e_dt lasts the
        # step), the scaled norms' |v|/scale and the trial's rows below the
        # floor
        rows = self.ce.size
        self.floor, self.nce_dt, self.norm = np.empty(rows), np.empty(rows), np.empty(rows)
        self.e_dt = np.empty(rows - 1)
        self.below = np.empty(rows, dtype=bool)

    def _residual(self, u: np.ndarray, uo_int: np.ndarray,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
        # G = u[1:-1] - uo_int - dt * (lo F[:-2] + ce F[1:-1] + hi F[2:]) with
        # F = u^m / m, in that operation order, on as few temporaries; returns
        # (G, P) with P = u^m, from which the solve takes u^(1-m) = u/P
        P = u**self.m
        F = P / self.m
        LF = self.lo * F[:-2]
        LF += self.ce * F[1:-1]
        LF += self.hi * F[2:]
        LF *= dt
        G = u[1:-1] - uo_int
        G -= LF
        return G, P

    def _solve(self, G: np.ndarray, w: np.ndarray, nce_dt: np.ndarray,
               e_dt: np.ndarray) -> np.ndarray:
        """Newton's increment delta from the residual G and w = u^(1-m), with
        -ce and the couplings e of S^-1 M S scaled by dt: one dptsv call
        solves dt S^-1 M S z = -G/s, whose diagonal is dt (-ce) + w, and
        delta = s z w.  A matrix that LAPACK finds not positive definite
        raises _StepReject."""
        _, _, z, info = dptsv(nce_dt + w, e_dt, G * self.minus_inv_s, True, False, True)
        if info != 0:
            raise _StepReject("newton")
        z *= self.s
        z *= w
        return z

    def _scaled_max(self, v: np.ndarray, scale: np.ndarray) -> float:
        """max |v|/scale, formed in self.norm"""
        norm = np.abs(v, out=self.norm)
        norm /= scale
        return float(norm.max())

    def step(self, u_old: np.ndarray, t: float, dt: float,
             start: Optional[np.ndarray] = None) -> tuple[np.ndarray, int, int]:
        """One implicit step of every field to t + dt; returns the flat state,
        the linear solves and the Newton iterations to convergence, which
        all fields share.  The iterations are the solves, plus one on a step
        that stopped on its predicted next increment: the solve an
        increment test would spend to see that increment.

        Newton starts from u_old, or from start when given: a flat array the
        step may overwrite, whose interior is the first iterate (its traces
        are set here).  Each iteration solves the flat system in _solve,
        whose couplings and -ce are scaled by dt once per step and whose
        u^(1-m) comes from the residual's u^m.  Every rule reads one
        maximum over all rows of the flat system.  A full increment within
        newton_tol in the scaled norm ends the step once u + delta clears the
        positivity floor, with no residual after it, so a start that close to
        the solution costs one residual and one solve.  So does a full
        increment after a full one whose rate theta = inc/inc_prev < 1
        predicts a next increment theta/(1 - theta) inc within newton_tol.
        Otherwise the damping veto decides on the trial's scaled residual
        norm, and a trial it accepts ends the step when its increment lam
        delta or that residual norm is within newton_tol.  The start's scaled
        residual norm is formed only when a damping veto reads it.
        Backtracking halves one lam for all fields.

        The first failure raises _StepReject: "newton" for an update that is
        not finite, a matrix that dptsv finds not positive definite, a start
        that is not positive and finite, or newton_max solves without
        convergence; on exhausted backtracking, "positivity" if the last
        trial is below the floor, "newton" if the damping veto refused it.
        The caller decides whether to shrink dt.
        """
        cfg = self.cfg
        tol = cfg.newton_tol
        t_new = t + dt
        u = u_old.copy() if start is None else start
        if self.k == 1:
            bc_left, bc_right = self.bcs[0]
            traces = [float(bc_left(t_new)), float(bc_right(t_new))]
            u[0], u[-1] = traces
            uo = u_old
        else:
            values = [float(fn(t_new)) for fn in self.trace_fns]
            traces = [values[i] for i in self.trace_of]
            u[self.trace_nodes] = traces
            # u_old with the new traces, so the trace rows' u - u_old is 0
            uo = u_old.copy()
            uo[self.trace_nodes] = traces
        # a nan or an inf makes the sum non-finite
        if not (min(traces) > 0.0 and math.isfinite(sum(traces))):
            raise PositivityError(f"boundary trace not positive at t={t_new}")
        if start is not None and not 0.0 < float(u.min()) <= float(u.max()) < math.inf:
            raise _StepReject("newton")
        uo_int = uo[1:-1]
        scale = uo_int  # positive by invariant; fixed per step
        floor = np.multiply(scale, 1e-8, out=self.floor)
        nce_dt = np.multiply(self.nce, dt, out=self.nce_dt)
        e_dt = np.multiply(self.e, dt, out=self.e_dt)
        G, P = self._residual(u, uo_int, dt)
        # scaled residual norm of the current iterate: the start's is formed
        # only when a damping veto reads it, later ones come from the trial
        err0 = None
        # scaled norm of the last update when it was a full one, else None
        inc_prev = None
        for it in range(cfg.newton_max):
            delta = self._solve(G, u[1:-1] / P[1:-1], nce_dt, e_dt)
            # scaled increment norm; nan or inf here is a non-finite update
            inc = self._scaled_max(delta, scale)
            if not math.isfinite(inc):
                raise _StepReject("newton")
            # the contraction rate over two full updates
            theta = math.inf if inc_prev is None else inc / inc_prev
            u_int = u[1:-1]
            lam = 1.0
            u_try = np.empty_like(u)
            u_try[0], u_try[-1] = u[0], u[-1]
            trial = u_try[1:-1]
            for _ in range(_MAX_BACKTRACK + 1):
                np.add(u_int, delta if lam == 1.0 else lam * delta, out=trial)
                if np.count_nonzero(np.less_equal(trial, floor, out=self.below)):
                    reason = "positivity"
                    lam *= 0.5
                    continue
                if lam == 1.0 and inc <= tol:
                    # a converged full increment ends the step: no trial
                    # residual, so no damping veto on a roundoff-sized update
                    return u_try, it + 1, it + 1
                if lam == 1.0 and theta < 1.0 and theta / (1.0 - theta) * inc <= tol:
                    # so does one whose predicted next increment would be
                    # converged; it counts the solve that would have shown it
                    return u_try, it + 1, it + 2
                if err0 is None:
                    err0 = self._scaled_max(G, scale)
                G, P = self._residual(u_try, uo_int, dt)
                err_try = self._scaled_max(G, scale)
                # damped Newton: allow mild non-monotonicity, veto blow-up
                if err_try <= 2.0 * err0 or err_try <= tol:
                    # lam is a power of two, so lam * inc is the scaled norm
                    # of lam * delta
                    if lam * inc <= tol or err_try <= tol:
                        return u_try, it + 1, it + 1
                    break
                reason = "newton"
                lam *= 0.5
            else:
                raise _StepReject(reason)
            u, err0 = u_try, err_try
            inc_prev = inc if lam == 1.0 else None
        raise _StepReject("newton")


def _predict(states: Sequence[np.ndarray], hs: Sequence[float], dt: float,
             n_fields: int) -> np.ndarray:
    """Newton's start for a step of size dt: the polynomial in u through the
    accepted flat states of n_fields fields (newest first; hs[j] is the step
    from states[j + 1] to states[j]), dt past the newest, as a Lagrange-weighted
    sum with weights summing to 1, formed in one np.dot of the weights with
    each field's states.  states is a list of arrays or the rows of one 2-d
    block, which give the same bits.  Only each field's interior is
    meaningful, the step sets the traces.  A start that would overflow
    raises _StepReject; one that is not positive is the step's to refuse."""
    nodes = [0.0]
    for h in hs:
        nodes.append(nodes[-1] - h)
    # each weight past the newest is the product of its ratios, taken left to
    # right; the newest's is 1 minus their sum, so that the weights sum to 1
    rest = []
    for xj in nodes[1:]:
        wj = 1.0
        for xk in nodes:
            if xk != xj:
                wj *= (dt - xk) / (xj - xk)
        rest.append(wj)
    w = [1.0 - sum(rest)] + rest
    # the weights are divided by their absolute sum, so no partial sum can
    # overflow, and whether the start would is a float comparison
    total = sum(map(abs, w))
    w = [wj / total for wj in w]
    if n_fields == 1:
        start = np.dot(w, states)
        inners = [start[1:-1]]
    else:
        # np.dot's bits at a node can depend on its place in BLAS's vector
        # blocks, so each field takes its own product, as it would alone
        rows = np.asarray(states).reshape(len(w), n_fields, -1)
        start = np.concatenate([np.dot(w, rows[:, b]) for b in range(n_fields)])
        inners = start.reshape(n_fields, -1)[:, 1:-1]
    for inner in inners:
        # the largest |value|, by BLAS's idamax in one pass, so that a start
        # of either sign that would overflow is refused before the in-place
        # product; idamax may pass over a nan, which the step refuses
        if not abs(float(inner[idamax(inner)])) * total < math.inf:
            raise _StepReject("newton")
        inner *= total
    return start


class _Lockstep:
    """Fields marched with one shared adaptive dt.

    Sharing the step sequence is what makes the discrete weighted-L1
    contraction argument apply to evolved pairs; a single field marches alone.
    The fields are held end to end in one flat state, u, which one _Stepper
    advances as one system; each accepted step makes a new array, so a state
    is never written after it is accepted.  Step and linear-solve counts
    are shared, so every field's newton_total is the same; min_u and ab_max
    are per field.  A rejection anywhere rejects the step for all fields.

    On a step whose size a cap sets (dt_max or dt_rel_max * t, not the
    Newton-count growth rule), Newton starts from the polynomial in u of
    degree _PREDICT_DEGREE through each field's last accepted states, at
    their own step sizes (fewer states, lower degree; Hairer & Wanner,
    Solving ODEs II, IV.8).  Once it has settled, that start is within
    newton_tol of the step's solution, so the step takes one linear solve.
    A step the growth rule sizes starts from u_old: there the step's Newton
    iterations to convergence pick the next dt, and a cheaper start would
    let dt grow further.  After a capped step dt grows whatever its count,
    so it stays at the cap: a count of 4 (a predicted stop counts the solve
    it skips) would otherwise leave dt just below the next cap and hand the
    following steps to the growth rule, from u_old.
    The predictor reads copies of the accepted states from a ring block;
    the accepted array itself is still never written.
    """

    def __init__(self, fields: Sequence[RadialField], params: ParamSet, cfg: EvolveConfig):
        self.stepper = _Stepper(fields[0].r_grid, params, cfg, [f.bc for f in fields])
        self.k = len(fields)
        self.u = np.concatenate([f.u for f in fields])
        # each product of the residual's stencil term and its partial sums is
        # at most max|ce| u^m/m over the data, and the Newton solve's
        # right-hand side -G/s at most max(|ce|/s) u^m/m or max(1/s) u;
        # tested on the log
        stepper, r = self.stepper, fields[0].r_grid
        log_u_max = math.log(float(self.u.max()))
        log_F = params.m * log_u_max - math.log(params.m)
        if stepper.log_ce_max + log_F >= _LOG_FLOAT_MAX:
            raise RangeError(
                f"inner radius {r[0]:.4g} too small: the stencil applied to the data "
                f"overflows a float"
            )
        if max(stepper.log_ce_s_max + log_F, stepper.log_s_max + log_u_max) >= _LOG_FLOAT_MAX:
            raise RangeError(
                f"grid [{r[0]:.4g}, {r[-1]:.4g}] too wide for the data: the Newton solve's "
                f"right-hand side G/s overflows a float"
            )
        self.cfg = cfg
        self.one_m = 1.0 - params.m
        self.t_start = self.t = fields[0].t
        self.dt = cfg.dt_init
        # the last _PREDICT_DEGREE + 1 accepted states, each copied to rows
        # head and head + _PREDICT_DEGREE + 1 of one block, so that
        # ring[head:head + q] holds the newest q, newest first, and no row
        # moves; and the step sizes between them, newest first
        self.ring = np.empty((2 * (_PREDICT_DEGREE + 1), self.u.size))
        self.head = 0
        self.ring[0] = self.ring[_PREDICT_DEGREE + 1] = self.u
        self.hs: list[float] = []
        # buffer for the decay bound's (u_new - u_old)/u_new
        self.rel = np.empty_like(self.u)
        self.n_steps = self.n_rejected = self.n_rejected_positivity = 0
        self.newton_total = 0
        self.min_u = [float(np.min(f.u)) for f in fields]
        self.ab_max = [-math.inf] * self.k

    def fields(self) -> np.ndarray:
        """The current state, one row per field (a view)."""
        return self.u.reshape(self.k, -1)

    def advance(self, t_target: float) -> None:
        """March every field to t_target; a target not past the current time is a no-op."""
        if not t_target > self.t:
            return
        cfg, t, k = self.cfg, self.t, self.k
        eps_t = 1e-13 * max(1.0, abs(t_target))
        while t < t_target - eps_t:
            cap = cfg.dt_max if cfg.dt_rel_max is None else min(cfg.dt_max, cfg.dt_rel_max * t)
            dt_prop = min(self.dt, cap)
            clamped = t + dt_prop >= t_target - eps_t
            dt = t_target - t if clamped else dt_prop
            predicted = cap <= self.dt and bool(self.hs)
            try:
                q = len(self.hs) + 1
                start = _predict(self.ring[self.head:self.head + q], self.hs, dt, k) if predicted else None
                u_new, solves, iters = self.stepper.step(self.u, t, dt, start)
            except _StepReject as rej:
                self.n_rejected += 1
                self.n_rejected_positivity += rej.reason == "positivity"
                dt_new = dt * _DT_SHRINK
                if dt_new < cfg.dt_min:
                    if rej.reason == "positivity":
                        raise PositivityError(
                            f"positivity backtracking exhausted at t={t:.6g} even at dt={dt:.3g}"
                        ) from None
                    raise NewtonDivergence(
                        f"Newton failed to converge at t={t:.6g} even at dt={dt:.3g}"
                    ) from None
                self.dt = dt_new
                continue
            t_new = t_target if clamped else t + dt
            gain = self.one_m * t_new / dt
            # ((u_new - u_old)/dt - bound)/bound with bound = u_new/((1-m) t_new),
            # as gain max((u_new - u_old)/u_new) - 1 over each field's interior:
            # gain > 0 commutes with max
            rel = np.subtract(u_new, self.u, out=self.rel)
            rel /= u_new
            if k == 1:
                rel_max, u_min = [float(rel[1:-1].max())], [float(u_new.min())]
            else:
                rel_max = rel.reshape(k, -1)[:, 1:-1].max(axis=1).tolist()
                u_min = u_new.reshape(k, -1).min(axis=1).tolist()
            for i in range(k):
                self.ab_max[i] = max(self.ab_max[i], gain * rel_max[i] - 1.0)
                self.min_u[i] = min(self.min_u[i], u_min[i])
            self.newton_total += solves
            self.u = u_new
            self.head = head = (self.head - 1) % (_PREDICT_DEGREE + 1)
            self.ring[head] = self.ring[head + _PREDICT_DEGREE + 1] = u_new
            self.hs = [dt] + self.hs[:_PREDICT_DEGREE - 1]
            self.n_steps += 1
            # a remainder clamped onto t_target says nothing about the step
            # size: dt stays, so a cap that sized the steps before still does
            if not clamped:
                grow = predicted or iters <= _GROW_THRESHOLD
                self.dt = min(dt * _DT_GROW, cfg.dt_max) if grow else dt
            t = t_new
            if self.n_steps > _MAX_STEPS:
                raise ToleranceError(
                    f"step budget {_MAX_STEPS} exhausted at t={t:.6g} (target {t_target:.6g})"
                )
        self.t = t_target

    def stats(self, i: int) -> EvolveStats:
        """Counters of field i from the start to the current time."""
        return EvolveStats(
            t_start=self.t_start,
            t_end=self.t,
            n_steps=self.n_steps,
            n_rejected=self.n_rejected,
            n_rejected_positivity=self.n_rejected_positivity,
            newton_total=self.newton_total,
            dt_final=self.dt,
            min_u=self.min_u[i],
            ab_max=self.ab_max[i],
        )


def _sample_times(times: Sequence[float], t0: float, at_least: int = 1) -> np.ndarray:
    """Finite, strictly increasing sample times, the first not before t0."""
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size < at_least or not np.all(np.isfinite(arr)):
        raise ConfigError(f"need a sequence of at least {at_least} finite sample time(s)")
    if not np.all(np.diff(arr) > 0):
        raise ConfigError("sample times must be strictly increasing")
    if arr[0] < t0 * (1.0 - 1e-12):
        raise RangeError(f"first sample time {arr[0]} precedes the field time {t0}")
    return arr


def evolve(field: RadialField, cfg: EvolveConfig, times: Sequence[float]) -> list[RadialField]:
    """March the field through the sample times with backward-Euler steps and
    return it at each time, with the counters from field.t up to that time.

    One adaptive dt runs through all the times; a first time equal to field.t
    takes no step.  Positivity is preserved without clipping: the Newton
    update backtracks on any sign loss, and if backtracking at the smallest
    allowed dt still fails the run aborts with PositivityError.
    """
    p = field.params
    march = _Lockstep([field], p, cfg)
    out = []
    for t_target in _sample_times(times, field.t):
        march.advance(float(t_target))
        out.append(RadialField(field.r_grid, march.u.copy(), march.t, field.bc, params=p,
                               stats=march.stats(0)))
    return out


def rescale_field(field: RadialField, y_grid: np.ndarray) -> np.ndarray:
    """Similarity rescaling: the values t^alpha u(t^beta y, t) on y_grid.

    Resamples log u cubically in log r; RangeError unless every y is finite
    and positive and every t^beta y lies in the field's radial range.
    """
    t = field.t
    alpha, beta = field.params.alpha, field.params.beta
    y = np.asarray(y_grid, dtype=float)
    if not np.all((y > 0) & np.isfinite(y)):
        raise RangeError("y_grid must hold finite positive values")
    r_query = t**beta * y
    r_lo, r_hi = field.r_grid[0], field.r_grid[-1]
    if r_query.min() < r_lo * (1.0 - 1e-12) or r_query.max() > r_hi * (1.0 + 1e-12):
        raise RangeError(
            f"rescaled query radii [{r_query.min():.4g}, {r_query.max():.4g}] leave the grid "
            f"[{r_lo:.4g}, {r_hi:.4g}]"
        )
    spline = CubicSpline(np.log(field.r_grid), np.log(field.u))
    xq = np.clip(np.log(r_query), np.log(r_lo), np.log(r_hi))
    return t**alpha * np.exp(spline(xq))


def _bump(xi: np.ndarray) -> np.ndarray:
    """The C-infinity bump exp(1 - 1/(1 - xi^2)) on |xi| < 1, 0 elsewhere."""
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out


def power_bump_initial(params: ParamSet, a0: float, amp: float = 0.10,
                       center: float = -1.2, width: float = 2.0) -> Callable:
    """Initial datum A0 r^(-gamma) (1 + amp * bump((log r - center)/width)).

    The bump is the standard smooth compactly supported one, so the datum
    agrees with the pure power law outside e^(center +/- width).  The default
    amplitude and width keep (1-m) Delta(u^m/m)/u below 1 everywhere at t=1,
    so the evolved field obeys the decay bound u_t <= u/((1-m)t) from the
    start; steeper bumps can push the outer inflection of u^m above that
    threshold.
    """
    if not 0 < a0 < math.inf:
        raise RangeError(f"a0 must be positive and finite, got {a0}")
    if not -1.0 < amp < math.inf:
        raise RangeError(f"amp must be finite and exceed -1 for positivity, got {amp}")
    if not math.isfinite(center):
        raise RangeError(f"center must be finite, got {center}")
    if not 0 < width < math.inf:
        raise RangeError(f"width must be positive and finite, got {width}")
    gamma = params.gamma

    def u0(r):
        r_arr = np.asarray(r, dtype=float)
        return a0 * r_arr ** (-gamma) * (1.0 + amp * _bump((np.log(r_arr) - center) / width))

    return u0


def random_sandwiched_pair(profile: Profile, grid: np.ndarray, t0: float,
                           rng: np.random.Generator,
                           lam_pair: tuple[float, float] = (1.2, 0.8),
                           theta_amp: float = 0.12):
    """Random pair of fields sandwiched between two self-similar envelopes.

    Each field is a pointwise geometric interpolation between the envelopes,
    u = hi * (lo/hi)^theta with a smooth random theta in [0, theta_amp] that
    vanishes outside the log-radius window _THETA_SUPPORT.  Both fields
    therefore share the upper envelope's boundary traces, which is exactly the
    setting in which the implicit scheme contracts weighted-L1 distances step
    by step.

    Returns (u0, v0, (lo_fn, hi_fn)) where the envelopes are the self-similar
    solutions V(r, t) of the two scalings.
    """
    if not 0.0 < theta_amp <= 1.0:
        raise RangeError(f"theta_amp must lie in (0, 1], got {theta_amp}")
    Va, Vb = (self_similar_solution(profile, lam) for lam in lam_pair)
    fa, fb = (sample_solution(V, t0, grid, profile.params) for V in (Va, Vb))
    # the family is pointwise monotone in lambda, so one field dominates
    if np.all(fa.u <= fb.u):
        low, high, lo_fn, hi_fn = fa, fb, Va, Vb
    elif np.all(fb.u <= fa.u):
        low, high, lo_fn, hi_fn = fb, fa, Vb, Va
    else:
        raise SandwichViolationError("envelope fields are not ordered; check lam_pair")

    x = np.log(np.asarray(grid, dtype=float))
    x_lo, x_hi = _THETA_SUPPORT
    mid, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    window = _bump((x - mid) / half)

    def random_theta() -> np.ndarray:
        phase = 2.0 * math.pi * (x - x_lo) / (x_hi - x_lo)
        raw = np.zeros_like(x)
        for k in range(1, _THETA_MODES + 1):
            c, s = rng.normal(), rng.normal()
            raw += (c * np.cos(k * phase) + s * np.sin(k * phase)) / k
        lo_r, hi_r = float(raw.min()), float(raw.max())
        if hi_r - lo_r < 1e-12:
            return np.zeros_like(x)
        return theta_amp * window * (raw - lo_r) / (hi_r - lo_r)

    log_ratio = np.log(low.u / high.u)

    def build(theta: np.ndarray) -> RadialField:
        u = high.u * np.exp(theta * log_ratio)
        return RadialField(r_grid=grid, u=u, t=t0, bc=high.bc, params=profile.params)

    u0 = build(random_theta())
    v0 = build(random_theta())
    return u0, v0, (lo_fn, hi_fn)


def _first_outside(vals, lo, hi, rtol):
    """Index of the first node where vals leaves [lo (1 - rtol), hi (1 + rtol)], else None."""
    bad = (vals < lo * (1.0 - rtol)) | (vals > hi * (1.0 + rtol))
    return int(np.argmax(bad)) if bad.any() else None


def _check_sandwich(field_u: np.ndarray, field_v: np.ndarray, grid: np.ndarray,
                    t: float, sandwich) -> None:
    lo = np.asarray(sandwich[0](grid, t), dtype=float)
    hi = np.asarray(sandwich[1](grid, t), dtype=float)
    for name, vals in (("u", field_u), ("v", field_v)):
        idx = _first_outside(vals, lo, hi, _SANDWICH_RTOL)
        if idx is not None:
            raise SandwichViolationError(
                f"field {name} leaves the envelope at t={t:.6g}, r={grid[idx]:.6g}: "
                f"value {vals[idx]:.6g} not in [{lo[idx]:.6g}, {hi[idx]:.6g}]"
            )


def sup_compact(grid: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Relative sup distance on the annulus _SUP_WINDOW (fields span many
    decades, so the absolute sup would only ever see the innermost nodes);
    nan when no node lies in it."""
    mask = (grid >= _SUP_WINDOW[0]) & (grid <= _SUP_WINDOW[1])
    if not mask.any():
        return math.nan
    denom = np.maximum(np.maximum(a[mask], b[mask]), 1e-300)
    return float(np.max(np.abs(a[mask] - b[mask]) / denom))


def contraction_experiment(u0: RadialField, v0: RadialField, weight: WeightFunction,
                           times: Sequence[float], cfg: EvolveConfig,
                           sandwich) -> ContractionResult:
    """Evolve a pair in lockstep and record both weighted distances over time.

    Returns the full |u-v| and positive-part (u-v)+ weighted-L1 sequences; for
    sandwiched data with shared traces both are non-increasing up to roundoff
    because the shared-step implicit scheme inherits the contraction of the
    continuous flow.  sandwich is a (lo_fn, hi_fn) pair of (r, t) callables
    checked at setup and at every sampled time.
    """
    if u0.t != v0.t:
        raise ConfigError(f"fields start at different times: {u0.t} vs {v0.t}")
    if u0.r_grid.shape != v0.r_grid.shape or not np.allclose(
        u0.r_grid, v0.r_grid, rtol=1e-12, atol=0.0
    ):
        raise GridMismatchError("pair must share a grid")
    p = u0.params
    times_arr = _sample_times(times, u0.t, at_least=2)

    grid = u0.r_grid
    _check_sandwich(u0.u, v0.u, grid, u0.t, sandwich)

    march = _Lockstep([u0, v0], p, cfg)
    wgrid = weighted_grid(weight, grid)
    dist_abs, dist_pos, dist_sup = [], [], []
    for t_target in times_arr:
        march.advance(float(t_target))
        u, v = march.fields()
        dist_abs.append(wgrid.distance(u, v))
        dist_pos.append(wgrid.distance(u, v, mode="positive-part"))
        dist_sup.append(sup_compact(grid, u, v))
        _check_sandwich(u, v, grid, march.t, sandwich)

    u_fin, v_fin = (RadialField(grid, u.copy(), march.t, f.bc, params=p, stats=march.stats(i))
                    for i, (u, f) in enumerate(zip(march.fields(), (u0, v0))))
    return ContractionResult(
        times=times_arr,
        tau=np.log(times_arr),
        dist_abs=np.asarray(dist_abs),
        dist_pos=np.asarray(dist_pos),
        dist_sup_compact=np.asarray(dist_sup),
        u_final=u_fin,
        v_final=v_fin,
    )


def convergence_experiment(profile: Profile, a0: float, a1: float, a2: float,
                           u0_spec: Optional[Callable], tau_grid: Sequence[float],
                           cfg: EvolveConfig, weight: WeightFunction, r_grid: np.ndarray,
                           t0: float = 1.0) -> ConvergenceResult:
    """Evolve singular power-law-type data and track the rescaled field's
    weighted-L1 and compact-sup distances to the limit profile f_lam0.

    u0_spec = None starts on the attracting orbit itself (data f_lam0 at t0,
    whose t -> 0 trace is exactly a0 |x|^(-gamma)).  The datum checks are the
    hypothesis: n <= gamma < (n-2)/m, 0 < a1 <= a0 <= a2 and, for a callable
    u0_spec, a1 r^(-gamma) <= u0 <= a2 r^(-gamma) on the grid.  u0_l1_gap is
    the weighted gap of u0 to a0 r^(-gamma) in the physical frame on the
    truncated grid, finite at r_out for every accepted datum (past R0 its
    integrand is below 2 a4 max(a2 - a0, a0 - a1) r^(n-1-gamma-mu)) but
    growing as r_in -> 0 when u0's amplitude at the origin differs from a0.
    Boundary traces: the inner trace follows the orbit V_lam0 (the inner
    region locks onto the power law).  For perturbed data the outer trace is
    frozen at the initial datum, which is not the far-field solution: outside
    the bump the datum is a0 |x|^(-gamma), whose solution V_lam0(x, t - t0)
    falls below it at once, so the frozen trace lies above even the upper
    envelope V_lam2(r_out, t - t0): 6.3x at t = 1.001 and 291x at t = 1.1
    for r_out = 1e3 at the reference point.  ROADMAP direction 10 traces
    V_lam0(r_out, t - t0) instead.
    """
    p = profile.params
    if not p.gamma_in_convergence_range:
        raise RangeError(
            f"convergence regime requires n <= gamma < (n-2)/m, got gamma={p.gamma} at n={p.n}"
        )
    if not (0.0 < a1 <= a0 <= a2):
        raise RangeError(f"need 0 < a1 <= a0 <= a2, got ({a1}, {a0}, {a2})")
    tau_arr = np.asarray(tau_grid, dtype=float)
    if np.any(tau_arr > _LOG_FLOAT_MAX):
        raise RangeError(f"tau_grid passes log(float max) = {_LOG_FLOAT_MAX:.6g}: "
                         f"t = e^tau overflows a float")
    # math.exp per tau: np.exp may round a target differently, and the steps follow the targets
    t_arr = _sample_times(np.vectorize(math.exp, otypes=[float])(tau_arr), t0, at_least=2)

    r_grid = np.asarray(r_grid, dtype=float)

    lam0 = lambda_for_amplitude(profile, a0)
    lam1 = lambda_for_amplitude(profile, a1)
    lam2 = lambda_for_amplitude(profile, a2)
    V0 = self_similar_solution(profile, lam0)
    orbit = sample_solution(V0, t0, r_grid, p)

    gamma = p.gamma
    power = a0 * r_grid ** (-gamma)
    if u0_spec is None:
        field0 = orbit
    else:
        u0_vals = np.asarray(u0_spec(r_grid), dtype=float)
        lo_env = a1 * r_grid ** (-gamma)
        hi_env = a2 * r_grid ** (-gamma)
        idx = _first_outside(u0_vals, lo_env, hi_env, 1e-12)
        if idx is not None:
            raise SandwichViolationError(
                f"initial datum leaves the power-law envelope at r={r_grid[idx]:.6g}: "
                f"{u0_vals[idx]:.6g} not in [{lo_env[idx]:.6g}, {hi_env[idx]:.6g}]"
            )
        right_frozen = float(u0_vals[-1])
        field0 = RadialField(
            r_grid=r_grid,
            u=u0_vals,
            t=t0,
            bc=(orbit.bc[0], lambda tt: right_frozen),
            params=p,
        )

    u0_l1_gap = weighted_grid(weight, r_grid).distance(field0.u, power)

    # reference rescaled grid: inside the image t^-beta [r_in, r_out] at every
    # sampled time (beta < 0), with a 5 percent safety margin at both ends
    y_lo = r_grid[0] * float(t_arr[-1]) ** (-p.beta) * 1.05
    y_hi = r_grid[-1] * float(t_arr[0]) ** (-p.beta) / 1.05
    if not y_lo < y_hi:
        raise RangeError("tau horizon too long for this grid: rescaled window is empty")
    n_ref = max(int(round(r_grid.size * math.log(y_hi / y_lo) / math.log(r_grid[-1] / r_grid[0]))), 16)
    y_grid = log_grid(y_lo, y_hi, n_ref)
    f_ref = V0(y_grid, 1.0)                          # f_lam0 itself: V0 at t = 1
    y_wgrid = weighted_grid(weight, y_grid)
    norm_ref = y_wgrid.distance(f_ref, np.zeros_like(f_ref))

    snapshots = evolve(field0, cfg, t_arr)
    resc = [rescale_field(snap, y_grid) for snap in snapshots]
    return ConvergenceResult(
        tau_grid=tau_arr,
        t_grid=np.asarray([snap.t for snap in snapshots]),
        dist_l1w=np.asarray([y_wgrid.distance(u, f_ref) for u in resc]),
        dist_sup_compact=np.asarray([sup_compact(y_grid, u, f_ref) for u in resc]),
        norm_ref=norm_ref,
        lam0=lam0,
        lam1=lam1,
        lam2=lam2,
        y_grid=y_grid,
        f_ref=f_ref,
        u0_l1_gap=u0_l1_gap,
        field_final=snapshots[-1],
    )


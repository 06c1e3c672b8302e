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
contraction properties of the continuous flow carry over to the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import get_lapack_funcs

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
from .profile import Profile, _lambda_for_eta, profile_interpolator, rescale_profile
from .weight import WeightFunction, eval_weight, weighted_l1_distance

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
    "make_self_similar_field",
    "evolve",
    "rescale_field",
    "power_bump_initial",
    "lambda_for_amplitude",
    "random_sandwiched_pair",
    "sup_compact",
    "contraction_experiment",
    "convergence_experiment",
]

# Relative slack used when validating sandwich envelopes; field values span
# many decades, so all envelope comparisons are relative.
_SANDWICH_RTOL = 1e-8

# Step-size control of the lockstep marcher: halve dt on a rejected step, grow
# it by _DT_GROW after a step whose worst Newton count is <= _GROW_THRESHOLD.
_MAX_BACKTRACK = 10
_DT_SHRINK = 0.5
_DT_GROW = 1.3
_GROW_THRESHOLD = 3
_MAX_STEPS = 2_000_000

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
    accepted steps, so any value <= 0 means the bound held strictly.
    """

    t_start: float
    t_end: float
    n_steps: int
    n_rejected: int
    newton_total: int
    dt_final: float
    min_u: float
    ab_max: float


@dataclass(frozen=True)
class EvolveConfig:
    """Controls for the implicit one-step scheme (theta = 1, backward Euler).

    newton_tol is relative: the inner iteration stops once both the scaled
    residual and the scaled increment drop below it.  dt_rel_max, when set,
    caps the step at dt_rel_max * t, which is the natural accuracy knob for
    runs spanning decades of time.
    """

    dt_init: float = 1e-4
    dt_max: float = 0.05
    dt_min: float = 1e-12
    dt_rel_max: Optional[float] = None
    newton_tol: float = 1e-11
    newton_max: int = 12

    def __post_init__(self):
        for name in ("dt_init", "dt_max", "dt_min", "newton_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.dt_rel_max is not None and not self.dt_rel_max > 0:
            raise ConfigError("dt_rel_max must be positive when set")
        if not self.dt_min <= self.dt_init <= self.dt_max:
            raise ConfigError("need dt_min <= dt_init <= dt_max")
        if not isinstance(self.newton_max, (int, np.integer)) or self.newton_max < 1:
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
    if not (k > 0 and T > 0):
        raise RangeError("need k > 0 and T > 0")
    c_star = 2.0 * (n - 2.0 - n * m) / (1.0 - m)
    beta1 = 1.0 / (n - 2.0 - n * m)
    alpha1 = (2.0 * beta1 + 1.0) / (1.0 - m)

    def B(r, t):
        if not 0.0 < t < T:
            raise RangeError(f"Barenblatt field is defined for 0 < t < {T}, got t={t}")
        r_arr = np.asarray(r, dtype=float)
        s = T - t
        val = s**alpha1 * (c_star / (k**2 + (s**beta1 * r_arr) ** 2)) ** (1.0 / (1.0 - m))
        return float(val) if np.ndim(r) == 0 else val

    return B


def self_similar_solution(profile: Profile, lam: float) -> Callable:
    """The self-similar solution V_lam(r, t) = t^(-alpha) f_lam(t^(-beta) r)."""
    alpha, beta = profile.params.alpha, profile.params.beta
    f_lam = profile_interpolator(rescale_profile(profile, lam))

    def V(r, t):
        return t ** (-alpha) * f_lam(t ** (-beta) * np.asarray(r, dtype=float))

    return V


def sample_solution(V: Callable, t: float, grid: np.ndarray, params: ParamSet) -> RadialField:
    """The field V(., t) on the grid, with V's own traces at both ends."""
    if not t > 0:
        raise RangeError(f"time must be positive, got {t}")
    grid = np.asarray(grid, dtype=float)
    r_in, r_out = float(grid[0]), float(grid[-1])
    return RadialField(r_grid=grid, u=V(grid, t), t=float(t),
                       bc=(lambda tt: V(r_in, tt), lambda tt: V(r_out, tt)), params=params)


def make_self_similar_field(profile: Profile, lam: float, t: float,
                            grid: np.ndarray) -> RadialField:
    """Sample V_lam(r, t) on the grid.

    The boundary traces are generated from the same solution, so evolving the
    result reproduces an exact solution up to discretization error.
    """
    return sample_solution(self_similar_solution(profile, lam), t, grid, profile.params)


class _StepReject(Exception):
    """Internal: the inner solve failed at the current dt."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason  # "newton" or "positivity"


class _Stepper:
    """Backward-Euler step on one log-uniform grid; shared by lockstep runs."""

    def __init__(self, r_grid: np.ndarray, params: ParamSet, cfg: EvolveConfig):
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
        self.m = params.m
        self.cfg = cfg
        e2 = np.exp(-2.0 * x[1:-1])
        self.lo = e2 * (1.0 / dx**2 - kdrift / (2.0 * dx))
        self.ce = e2 * (-2.0 / dx**2)
        self.hi = e2 * (1.0 / dx**2 + kdrift / (2.0 * dx))
        # LAPACK's tridiagonal solver, the routine solve_banded((1, 1), ...)
        # calls, without that wrapper's validation on every Newton iteration
        (self.gtsv,) = get_lapack_funcs(("gtsv",), (self.ce,))

    def _residual(self, u: np.ndarray, uo_int: np.ndarray, dt: float) -> np.ndarray:
        # u[1:-1] - uo_int - dt * (lo F[:-2] + ce F[1:-1] + hi F[2:]) with
        # F = u^m / m, in that operation order, on as few temporaries
        F = u**self.m
        F /= self.m
        LF = self.lo * F[:-2]
        LF += self.ce * F[1:-1]
        LF += self.hi * F[2:]
        LF *= dt
        G = u[1:-1] - uo_int
        G -= LF
        return G

    def step(self, u_old: np.ndarray, t: float, dt: float,
             bc_left: Callable, bc_right: Callable) -> tuple[np.ndarray, int]:
        """One implicit step to t + dt; returns (u_new, newton_iterations).

        Raises _StepReject when Newton stalls, the linear solve fails or
        positivity backtracking is exhausted; the caller decides whether to
        shrink dt.
        """
        m, cfg = self.m, self.cfg
        t_new = t + dt
        left, right = float(bc_left(t_new)), float(bc_right(t_new))
        if not (left > 0.0 and right > 0.0 and math.isfinite(left) and math.isfinite(right)):
            raise PositivityError(f"boundary trace not positive at t={t_new}")
        u = u_old.copy()
        u[0], u[-1] = left, right
        uo_int = u_old[1:-1]
        scale = uo_int  # positive by invariant; fixed per step
        floor = 1e-8 * scale
        # Jacobian diagonals up to the factor dF = u^(m-1), fixed per step
        dt_ce, mdt_hi, mdt_lo = dt * self.ce, -dt * self.hi[:-1], -dt * self.lo[1:]
        G = self._residual(u, uo_int, dt)
        # scaled residual norm of the current iterate, carried from the
        # accepted trial into the next iteration
        err0 = float((np.abs(G) / scale).max())
        for it in range(cfg.newton_max):
            if err0 <= cfg.newton_tol:
                return u, it
            dF = u[1:-1] ** (m - 1.0)
            # the four inputs are temporaries (G is not read again), so LAPACK
            # may overwrite them
            _, _, _, delta, info = self.gtsv(mdt_lo * dF[:-1], 1.0 - dt_ce * dF,
                                             mdt_hi * dF[1:], np.negative(G, out=G),
                                             True, True, True, True)
            if info != 0:
                raise _StepReject("newton")
            # scaled increment norm; nan or inf here is a non-finite update
            inc = float((np.abs(delta) / scale).max())
            if not math.isfinite(inc):
                raise _StepReject("newton")
            lam = 1.0
            reason = "newton"
            u_try = np.empty_like(u)
            u_try[0], u_try[-1] = left, right
            trial = u_try[1:-1]
            for _ in range(_MAX_BACKTRACK + 1):
                np.add(u[1:-1], delta if lam == 1.0 else lam * delta, out=trial)
                if np.count_nonzero(trial <= floor):
                    reason = "positivity"
                    lam *= 0.5
                    continue
                G_try = self._residual(u_try, uo_int, dt)
                err_try = float((np.abs(G_try) / scale).max())
                # damped Newton: allow mild non-monotonicity, veto blow-up
                if err_try <= 2.0 * err0 or err_try <= cfg.newton_tol:
                    break
                reason = "newton"
                lam *= 0.5
            else:
                raise _StepReject(reason)
            u, G, err0 = u_try, G_try, err_try
            # lam is a power of two, so lam * inc is the scaled norm of lam * delta
            if lam * inc <= cfg.newton_tol:
                return u, it + 1
        raise _StepReject("newton")


class _Lockstep:
    """Fields marched with one shared adaptive dt.

    Sharing the step sequence is what makes the discrete weighted-L1
    contraction argument apply to evolved pairs; a single field marches alone.
    Step counts are shared; Newton totals, min_u and ab_max are per field.
    """

    def __init__(self, fields: Sequence[RadialField], params: ParamSet, cfg: EvolveConfig):
        self.stepper = _Stepper(fields[0].r_grid, params, cfg)
        self.cfg = cfg
        self.one_m = 1.0 - params.m
        self.t_start = self.t = fields[0].t
        self.dt = cfg.dt_init
        self.us = [f.u.copy() for f in fields]
        self.bcs = [f.bc for f in fields]
        self.n_steps = self.n_rejected = 0
        self.newton = [0] * len(fields)
        self.min_u = [float(np.min(f.u)) for f in fields]
        self.ab_max = [-math.inf] * len(fields)

    def advance(self, t_target: float) -> None:
        """March every field to t_target; a target not past the current time is a no-op."""
        if not t_target > self.t:
            return
        cfg, t = self.cfg, self.t
        eps_t = 1e-13 * max(1.0, abs(t_target))
        while t < t_target - eps_t:
            dt_prop = min(self.dt, cfg.dt_max)
            if cfg.dt_rel_max is not None:
                dt_prop = min(dt_prop, cfg.dt_rel_max * t)
            clamped = t + dt_prop >= t_target - eps_t
            dt = t_target - t if clamped else dt_prop
            try:
                stepped = [self.stepper.step(u, t, dt, bc[0], bc[1])
                           for u, bc in zip(self.us, self.bcs)]
            except _StepReject as rej:
                self.n_rejected += 1
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
            for idx, (u_new, iters) in enumerate(stepped):
                bound = u_new[1:-1] / (self.one_m * t_new)
                # ((u_new - u_old)/dt - bound)/bound, in place
                margin = u_new[1:-1] - self.us[idx][1:-1]
                margin /= dt
                margin -= bound
                margin /= bound
                self.ab_max[idx] = max(self.ab_max[idx], float(margin.max()))
                self.min_u[idx] = min(self.min_u[idx], float(u_new.min()))
                self.newton[idx] += iters
                self.us[idx] = u_new
            self.n_steps += 1
            worst_iters = max(iters for _, iters in stepped)
            if clamped:
                # a remainder clamped onto t_target says nothing about the
                # step size: the next step starts from the proposal
                self.dt = dt_prop
            else:
                self.dt = min(dt * _DT_GROW, cfg.dt_max) if worst_iters <= _GROW_THRESHOLD else dt
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
            newton_total=self.newton[i],
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
        out.append(RadialField(field.r_grid, march.us[0], march.t, field.bc, params=p,
                               stats=march.stats(0)))
    return out


def rescale_field(field: RadialField, y_grid: np.ndarray) -> np.ndarray:
    """Similarity rescaling: the values t^alpha u(t^beta y, t) on y_grid.

    Resamples log u cubically in log r; RangeError if any t^beta y falls
    outside the field's radial range.
    """
    t = field.t
    alpha, beta = field.params.alpha, field.params.beta
    y = np.asarray(y_grid, dtype=float)
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
    if not a0 > 0:
        raise RangeError(f"a0 must be positive, got {a0}")
    if not amp > -1.0:
        raise RangeError(f"amp must exceed -1 for positivity, got {amp}")
    if not width > 0:
        raise RangeError(f"width must be positive, got {width}")
    gamma = params.gamma

    def u0(r):
        r_arr = np.asarray(r, dtype=float)
        val = a0 * r_arr ** (-gamma) * (1.0 + amp * _bump((np.log(r_arr) - center) / width))
        return float(val) if np.ndim(r) == 0 else val

    return u0


def lambda_for_amplitude(profile: Profile, a: float) -> float:
    """Scaling factor lam with origin coefficient eta(f_lam) = a, by the
    scaling law eta ~ lam^(2/(1-m) - gamma) that solve_for_eta uses."""
    if not a > 0:
        raise RangeError(f"amplitude must be positive, got {a}")
    if profile.eta_origin is None:
        raise ConfigError("profile must carry eta_origin (run recover_profile first)")
    return float(_lambda_for_eta(profile.params, profile.eta_origin, a))


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
    dist_abs, dist_pos, dist_sup = [], [], []
    for t_target in times_arr:
        march.advance(float(t_target))
        u, v = march.us
        dist_abs.append(weighted_l1_distance(weight, grid, u, v))
        dist_pos.append(weighted_l1_distance(weight, grid, u, v, mode="positive-part"))
        dist_sup.append(sup_compact(grid, u, v))
        _check_sandwich(u, v, grid, march.t, sandwich)

    u_fin, v_fin = (RadialField(grid, march.us[i], march.t, f.bc, params=p, stats=march.stats(i))
                    for i, f in enumerate((u0, v0)))
    return ContractionResult(
        times=times_arr,
        tau=np.log(times_arr),
        dist_abs=np.asarray(dist_abs),
        dist_pos=np.asarray(dist_pos),
        dist_sup_compact=np.asarray(dist_sup),
        u_final=u_fin,
        v_final=v_fin,
    )


def _tail_slope(grid: np.ndarray, integrand: np.ndarray) -> float:
    """Log-log slope of the weighted integrand near the outer edge; negative
    values mean the truncated integral approximates a convergent one."""
    k = max(4, grid.size // 16)
    seg_r = grid[-k:]
    seg_v = np.maximum(integrand[-k:], 1e-300)
    coef = np.polyfit(np.log(seg_r), np.log(seg_v), 1)
    return float(coef[0])


def convergence_experiment(profile: Profile, a0: float, a1: float, a2: float,
                           u0_spec: Optional[Callable], tau_grid: Sequence[float],
                           cfg: EvolveConfig, weight: WeightFunction, r_grid: np.ndarray,
                           t0: float = 1.0) -> ConvergenceResult:
    """Evolve singular power-law-type data and track the rescaled field's
    weighted-L1 and compact-sup distances to the limit profile f_lam0.

    u0_spec = None starts on the attracting orbit itself (data f_lam0 at t0,
    whose t -> 0 trace is exactly a0 |x|^(-gamma)); a callable u0_spec(r) is
    checked against the power-law envelopes a1 r^(-gamma) <= u0 <= a2 r^(-gamma).
    Boundary traces: the inner trace follows the orbit V_lam0 (the inner
    region locks onto the power law), the outer trace is frozen at the initial
    datum for perturbed data, matching the persistence of the far-field power
    law over finite horizons.
    """
    p = profile.params
    if not p.gamma_in_convergence_range:
        raise RangeError(
            f"convergence regime requires n <= gamma < (n-2)/m, got gamma={p.gamma} at n={p.n}"
        )
    if not (0.0 < a1 <= a0 <= a2):
        raise RangeError(f"need 0 < a1 <= a0 <= a2, got ({a1}, {a0}, {a2})")
    if not t0 > 0:
        raise RangeError(f"t0 must be positive, got {t0}")
    tau_arr = np.asarray(tau_grid, dtype=float)
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

    # the defining integrability condition on u0 - a0 |x|^(-gamma): the
    # weighted integrand must decay at the outer edge, else truncation lies
    diff0 = np.abs(field0.u - power)
    integrand = r_grid ** (p.n - 1) * diff0 * eval_weight(weight, r_grid)[0]
    u0_l1_gap = weighted_l1_distance(weight, r_grid, field0.u, power)
    if np.max(integrand) > 0 and np.max(integrand[-r_grid.size // 8:]) > 1e-14 * np.max(integrand):
        slope = _tail_slope(r_grid, integrand)
        if slope > -0.1:
            raise RangeError(
                f"u0 - a0 r^(-gamma) is not integrable against the weight: outer integrand "
                f"slope {slope:.3f} >= -0.1"
            )

    # reference rescaled grid: stays inside the image of [r_in, r_out] for
    # every sampled time, with a 5 percent safety margin at both ends
    t_max = float(t_arr[-1])
    y_lo = r_grid[0] * t_max ** (-p.beta) * 1.05
    y_hi = r_grid[-1] / 1.05
    if not y_lo < y_hi:
        raise RangeError("tau horizon too long for this grid: rescaled window is empty")
    n_ref = max(int(round(r_grid.size * math.log(y_hi / y_lo) / math.log(r_grid[-1] / r_grid[0]))), 16)
    y_grid = log_grid(y_lo, y_hi, n_ref)
    f_ref = V0(y_grid, 1.0)                          # f_lam0 itself: V0 at t = 1
    norm_ref = weighted_l1_distance(weight, y_grid, f_ref, np.zeros_like(f_ref))

    snapshots = evolve(field0, cfg, t_arr)
    resc = [rescale_field(snap, y_grid) for snap in snapshots]
    return ConvergenceResult(
        tau_grid=tau_arr,
        t_grid=np.asarray([snap.t for snap in snapshots]),
        dist_l1w=np.asarray([weighted_l1_distance(weight, y_grid, u, f_ref) for u in resc]),
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


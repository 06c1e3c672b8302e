"""Construction of the singular self-similar profile.

The far-field tail of the profile is the unique fixed point of the map

    Phi_1(wt, h)(s) = exp(-int_s^inf h) * exp(-C1 s)
    Phi_2(wt, h)(s) = int_s^inf exp(-b' int_s^rho X - (n-2)(rho-s))
                      * (b' C1 X(rho) + m h(rho)^2) drho,
    X(rho) = exp(-rho / b') * wt(rho)^(1-m),

a 1/5-contraction on the set D_b1 for s >= b1.  Phi_1 is written at the
far-field coefficient eta_inf = lim r^((n-2)/m) f(r) = 1, the one the profile
is built at before rescaling.  Picard iteration on a uniform
s-grid gives (wt, h) on [b1, s_max]; the profile is then continued to the left
through the equivalent ODE system and recovered as f(r) = r^(-gamma) wt(log r).

Numerical notes kept out of the API: the continuation integrates
z = h - C1 and W = log(wt) instead of (h, wt) because the term
b'X(h - C1) loses every significant digit once h hugs C1 (X grows like
exp(|s|/b') there), and the system turns stiff on the left, so it runs
as one LSODA call (numerics.lsoda_at) that switches to BDF steps where it
must and interpolates each grid node from its own steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    BoundViolationError,
    ExtrapolationError,
    InternalError,
    NonContractionError,
    RangeError,
    ResolutionError,
    ToleranceError,
)
from .numerics import (_W_FIRST, _W_LAST, _W_MID, Tolerances, _richardson,
                       cumulative_integral, lsoda_at)
from .params import FPConstants, ParamSet, derive_fp_constants

__all__ = [
    "TailSolution",
    "Profile",
    "picard_solve",
    "tail_residual",
    "continue_left",
    "recover_profile",
    "rescale_profile",
    "solve_for_eta",
    "profile_interpolator",
]

PROFILE_DS = 0.01          # uniform spacing of the assembled profile grid
_NOISE_FLOOR = 2e-14       # update norms below this are roundoff, not contraction data
_PICARD_MAX_ITER = 200     # far above the ~8 iterations the 1/5-contraction needs
_TAIL_SAMPLES = 400        # points on which tail_residual compares the two routes
_RICHARDSON_TOL = 1e-8     # relative agreement of the last two origin Richardson levels
LEFT_ABS_TOL = 1e-14       # continue_left's absolute tolerance on z and W


@dataclass(frozen=True)
class TailSolution:
    grid: np.ndarray
    h: np.ndarray
    wt: np.ndarray
    fp_residual: float
    iterations: int
    fp: FPConstants
    update_norms: np.ndarray
    update_ratios: np.ndarray


@dataclass(frozen=True)
class Profile:
    params: ParamSet
    eta_inf: float
    s_grid: np.ndarray
    z: np.ndarray              # z = h - C1 = r w_r / w
    h: np.ndarray
    wt: np.ndarray             # wt(s) = r^gamma f(r), r = e^s
    r_grid: np.ndarray
    f: np.ndarray
    eta_origin: Optional[float] = None
    # |r^((n-2)/m) f - eta_inf| at the last node, where the first correction
    # is below e^(-40): it reads roundoff, not the far-field expansion
    far_field_gap: Optional[float] = None
    origin_levels: Optional[np.ndarray] = None
    origin_fit_K: Optional[float] = None
    fp_residual: Optional[float] = None
    picard_iterations: Optional[int] = None

    @property
    def rfr_over_f(self) -> np.ndarray:
        """r f_r / f = (r w_r / w) - gamma at every node."""
        return self.z - self.params.gamma


def _weighted_norm(dwt, dh, weights):
    e1, _, e2_half = weights
    return max(float(np.max(np.abs(dwt) * e1)), float(np.max(np.abs(dh) * e2_half)))


def _check_membership(wt, h, s, fp, slack, weights):
    """All D_b1 constraints: distance to the anchor <= eps1 in the weighted
    norm, wt e^{C1 s} <= eta_inf = 1, and 0 <= h e^{C2 s} <= C3."""
    e1, e2, _ = weights
    anchor_gap = _weighted_norm(wt - np.exp(-fp.params.C1 * s), h, weights)
    if anchor_gap > fp.eps1 + slack:
        raise InternalError(f"iterate left D_b1: anchor distance {anchor_gap} > eps1 = {fp.eps1}")
    top = float(np.max(wt * e1))
    if top > 1.0 + slack:
        raise InternalError(f"iterate left D_b1: wt e^(C1 s) reached {top} > eta_inf = 1")
    hw = h * e2
    if float(np.min(hw)) < -slack or float(np.max(hw)) > fp.C3 + slack:
        raise InternalError(
            f"iterate left D_b1: h e^(C2 s) range [{hw.min()}, {hw.max()}] outside [0, C3]"
        )


def _phi_map(wt, h, s, ds, fp):
    """One simultaneous application of (Phi_1, Phi_2) on the uniform grid.

    The outer integral of Phi_2 is accumulated right to left through
    R_i = a_i R_{i+1} + b_i with every exponential argument <= O(ds), so
    nothing ever overflows or cancels regardless of the span.
    """
    p = fp.params
    n, m, bp, C1, C2 = p.n, p.m, p.beta_p, p.C1, fp.C2

    # Phi_1
    int_h = cumulative_integral(h, ds, "backward")
    int_h = int_h + h[-1] / C2                      # analytic tail bound as correction
    wt_new = np.exp(-int_h - C1 * s)

    # Phi_2
    X = np.exp(-s / bp) * wt ** (1.0 - m)
    G = cumulative_integral(X, ds, "forward")
    q = bp * C1 * X + m * h * h

    k = n - 2
    npts = s.size
    # E[j] relative to interval start i: exp(-bp*(G[j]-G[i]) - k*(s[j]-s[i]))
    def rel(j_idx, i_idx):
        return np.exp(-bp * (G[j_idx] - G[i_idx]) - k * ds * (j_idx - i_idx))

    a = np.exp(-bp * np.diff(G) - k * ds)           # carry factor across one interval
    b = np.empty(npts - 1)
    w0, w1, w2, w3 = _W_MID
    i = np.arange(1, npts - 2)
    b[1:-1] = ds * (
        w0 * rel(i - 1, i) * q[i - 1]
        + w1 * q[i]
        + w2 * rel(i + 1, i) * q[i + 1]
        + w3 * rel(i + 2, i) * q[i + 2]
    )
    b[0] = ds * sum(_W_FIRST[j] * rel(j, 0) * q[j] for j in range(4))
    last = npts - 2
    b[-1] = ds * sum(_W_LAST[j] * rel(npts - 4 + j, last) * q[npts - 4 + j] for j in range(4))

    # the last node takes the analytic tail of the outer integral
    return wt_new, _backward_recurrence(a, b, q[-1] / (k + C2))


def _backward_recurrence(a, b, last):
    """R_i = a_i R_{i+1} + b_i from R_n = last, right to left, on Python floats
    through memoryviews: numpy-scalar arithmetic without a numpy call per node."""
    out = np.empty(len(a) + 1)
    out[-1] = acc = float(last)
    r, a, b = memoryview(out), memoryview(a), memoryview(b)
    for idx in range(len(a) - 1, -1, -1):
        acc = a[idx] * acc + b[idx]
        r[idx] = acc
    return out


def picard_solve(fp: FPConstants, s_max: Optional[float] = None, tol: float = 1e-12) -> TailSolution:
    """Iterate (Phi_1, Phi_2) from the seed (e^{-C1 s}, min(C3,eps1) e^{-C2 s})
    until the weighted update norm drops below tol.

    Membership in D_b1 is asserted for every iterate; the returned
    fp_residual substitutes the fixed point back into the integral equation
    along a route independent of the Picard quadrature (see tail_residual).
    """
    if not 0.0 < tol < math.inf:
        raise RangeError(f"tol must be positive and finite, got {tol}")
    C1, C2, b1 = fp.params.C1, fp.C2, fp.b1
    if s_max is None:
        s_max = b1 + max(40.0, 40.0 / C2, -math.log(tol) / C2)
    if not b1 + 40.0 / C2 <= s_max < math.inf:
        raise RangeError(f"s_max must be finite and at least b1 + 40/C2 = {b1 + 40.0 / C2}, "
                         f"got {s_max}")
    ds_target = 0.01 / C2
    nseg = int(math.ceil((s_max - b1) / ds_target))
    ds = (s_max - b1) / nseg
    s = b1 + ds * np.arange(nseg + 1)

    slack = 2e-12
    # D_b1's weights e^{C1 s}, e^{C2 s}, e^{C2 s / 2}; one past the double
    # range would make h e^{C2 s} = 0 * inf = nan, which passes every bound test
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (np.exp(C1 * s), np.exp(C2 * s), np.exp(0.5 * C2 * s))
    if not all(np.isfinite(w).all() for w in weights):
        raise ResolutionError(f"D_b1 weights e^(C1 s), e^(C2 s) overflow on the tail grid "
                              f"[{b1:.6g}, {s[-1]:.6g}] (C1 = {C1:.6g}, C2 = {C2:.6g})")
    wt = np.exp(-C1 * s)
    h = min(fp.C3, fp.eps1) * np.exp(-C2 * s)
    _check_membership(wt, h, s, fp, slack, weights)

    norms, ratios = [], []
    stall = 0
    for it in range(1, _PICARD_MAX_ITER + 1):
        wt_new, h_new = _phi_map(wt, h, s, ds, fp)
        _check_membership(wt_new, h_new, s, fp, slack, weights)
        upd = _weighted_norm(wt_new - wt, h_new - h, weights)
        if norms and norms[-1] > _NOISE_FLOOR and upd > _NOISE_FLOOR:
            ratio = upd / norms[-1]
            ratios.append(ratio)
            stall = stall + 1 if ratio > 0.99 else 0
            if stall >= 3:
                raise NonContractionError(
                    f"update ratio above 0.99 for 3 consecutive iterations (last {ratio:.3g})"
                )
        norms.append(upd)
        wt, h = wt_new, h_new
        if upd <= tol:
            break
    else:
        raise ToleranceError(f"Picard iteration did not reach {tol} in {_PICARD_MAX_ITER} iterations")

    tail = TailSolution(
        grid=s, h=h, wt=wt, fp_residual=math.nan, iterations=it, fp=fp,
        update_norms=np.asarray(norms), update_ratios=np.asarray(ratios),
    )
    return replace(tail, fp_residual=tail_residual(tail))


def _spline_at(spline: CubicSpline):
    """Float evaluator with the bits of spline(s): PPoly's interval (the
    rightmost knot <= s, clamped to the end pieces), guessed from the mean
    spacing and corrected, and PPoly's power-sum order on the spline's own
    arrays; c[j * nseg + i] multiplies (s - x_i)^(3 - j)."""
    x = memoryview(spline.x)
    c = memoryview(spline.c.ravel())
    nseg = len(x) - 1
    last, c1, c2, c3 = nseg - 1, nseg, 2 * nseg, 3 * nseg
    x0, per_ds = x[0], nseg / (x[nseg] - x[0])

    def at(sv):
        i = min(int((sv - x0) * per_ds), last) if sv > x0 else 0
        while sv < x[i] and i > 0:
            i -= 1
        while i < last and sv >= x[i + 1]:
            i += 1
        t = sv - x[i]
        t2 = t * t
        return c[c3 + i] + c[c2 + i] * t + c[c1 + i] * t2 + c[i] * (t2 * t)

    return at


def _integral_to_end(spline: CubicSpline, s_eval: np.ndarray) -> np.ndarray:
    """int_{s_eval}^{x[-1]} spline for points s_eval in [x[0], x[-1]], exact
    from the pieces: each piece's polynomial integral over its interval,
    summed right to left, less the part of the piece below each point."""
    x, (c0, c1, c2, c3) = spline.x, spline.c
    d = np.diff(x)
    right = np.cumsum(((((c0 * d / 4 + c1 / 3) * d + c2 / 2) * d + c3) * d)[::-1])[::-1]
    i = np.minimum(np.searchsorted(x, s_eval, side="right") - 1, d.size - 1)
    t = s_eval - x[i]
    return right[i] - (((c0[i] * t / 4 + c1[i] / 3) * t + c2[i] / 2) * t + c3[i]) * t


def tail_residual(tail: TailSolution) -> float:
    """Weighted sup defect of the fixed point in the integral equation.

    Independent route: for frozen (wt, h) the map value y = Phi_2(wt,h)
    satisfies the linear ODE y' = (n-2 + b'X) y - q, integrated backward from
    s_max in one LSODA run (numerics.lsoda_at) that outputs the
    _TAIL_SAMPLES comparison points; J = int_s^inf h in Phi_1 is the exact
    integral of h's cubic spline plus the analytic tail h(s_max)/C2.
    Comparing against (h, wt) there avoids every piece of the Picard
    quadrature path.
    """
    fp = tail.fp
    p = fp.params
    n, m, bp, C1, C2 = p.n, p.m, p.beta_p, p.C1, fp.C2
    s, h, wt = tail.grid, tail.h, tail.wt
    h_sp = CubicSpline(s, h)
    wt_sp = CubicSpline(s, wt)
    h_at, wt_at = _spline_at(h_sp), _spline_at(wt_sp)

    def X_of(sv):
        return math.exp(-sv / bp) * max(wt_at(sv), 0.0) ** (1.0 - m)

    def rhs(sv, y):
        X = X_of(sv)
        hv = h_at(sv)
        q = bp * C1 * X + m * hv * hv
        return [(n - 2 + bp * X) * y[0] - q]

    def jac(sv, y):
        return [[n - 2 + bp * X_of(sv)]]

    y_end = (bp * C1 * math.exp(-s[-1] / bp) * wt[-1] ** (1.0 - m) + m * h[-1] ** 2) / (n - 2 + C2)
    sc = np.linspace(s[0], s[0] + min(20.0, s[-1] - s[0]), _TAIL_SAMPLES)
    # when the window is the whole grid its last sample repeats s_max
    y, _ = lsoda_at(rhs, jac, [y_end], np.concatenate([[s[-1]], sc[::-1]]),
                    tol=Tolerances(abs_tol=1e-300, rel_tol=1e-12))
    res_h = np.abs(h_sp(sc) - y[0, :0:-1]) * np.exp(0.5 * C2 * sc)
    phi1 = np.exp(-(_integral_to_end(h_sp, sc) + h[-1] / C2) - C1 * sc)
    res_wt = np.abs(wt_sp(sc) - phi1) * np.exp(C1 * sc)
    return float(max(res_h.max(), res_wt.max()))


def continue_left(tail: TailSolution, s_min: Optional[float] = None, tol: float = 1e-12) -> Profile:
    """Continue (h, wt) from b1 down to s_min and assemble f(r) = r^(-gamma) wt.

    Integrates z' = (n-2)(z+C1) + b' X z - m (z+C1)^2, W' = z with
    X = exp(-s/b' + (1-m) W) by one LSODA run that outputs the grid nodes
    below b1; the solution keeps -C1 < z < 0, which is asserted at every
    node within integrator slack (BoundViolationError otherwise).
    """
    if not 0.0 < tol < math.inf:
        raise RangeError(f"tol must be positive and finite, got {tol}")
    p = tail.fp.params
    n, m, bp, gamma, C1 = p.n, p.m, p.beta_p, p.gamma, p.C1
    if s_min is None:
        # 40 b', but no deeper than where f = e^(-gamma s) wt nears overflow
        s_min = -min(40.0 * bp, 600.0 / gamma)
    b1 = float(tail.grid[0])
    if not -math.inf < s_min < b1:
        raise RangeError(f"s_min = {s_min} must be finite and below b1 = {b1}")

    def X_of(sv, W):
        return float(np.exp(-sv / bp + (1.0 - m) * W))

    def rhs(sv, y):
        z, W = y
        X = X_of(sv, W)
        hh = z + C1
        return [(n - 2) * hh + bp * X * z - m * hh * hh, z]

    def jac(sv, y):
        z, W = y
        X = X_of(sv, W)
        return [[(n - 2) + bp * X - 2.0 * m * (z + C1), bp * X * (1.0 - m) * z], [1.0, 0.0]]

    # one uniform grid across continuation + tail; node n_left is b1 up to
    # roundoff and takes b1's state (LSODA refuses an output a few ulp away)
    n_left = int(math.ceil((b1 - s_min) / PROFILE_DS))
    s_min_adj = b1 - n_left * PROFILE_DS
    n_right = int(math.floor((tail.grid[-1] - b1) / PROFILE_DS))
    s_grid = s_min_adj + PROFILE_DS * np.arange(n_left + n_right + 1)

    # LSODA controls each step's local error only, so the run is held 20x
    # inside tol; the floor keeps rel_tol 135 ulp clear of roundoff
    y, _ = lsoda_at(rhs, jac, [float(tail.h[0]) - C1, math.log(float(tail.wt[0]))],
                    np.concatenate([[b1], s_grid[n_left - 1::-1]]),
                    tol=Tolerances(abs_tol=LEFT_ABS_TOL, rel_tol=max(tol / 20.0, 3e-14)))
    zl, Wl = y[:, ::-1]
    h_tail_sp = CubicSpline(tail.grid, tail.h)
    logwt_tail_sp = CubicSpline(tail.grid, np.log(tail.wt))
    sr = s_grid[n_left + 1:]
    h_tail = h_tail_sp(sr)
    z = np.concatenate([zl, h_tail - C1])
    W = np.concatenate([Wl, logwt_tail_sp(sr)])

    slack = max(1e3 * max(tol, 1e-13), 1e-9) * max(1.0, C1)
    if float(np.max(z)) > slack or float(np.min(z)) < -C1 - slack:
        raise BoundViolationError(f"h left (0, C1) beyond integrator slack: z range [{z.min()}, {z.max()}]")
    # z and h each decay below double resolution of C1 at opposite ends, so
    # the open-interval facts z < 0 and h > 0 live in different arrays: z is
    # floored strictly negative (the integrator cannot resolve signs below its
    # tolerance anyway, and an exact 0 would break downstream strictness
    # checks), while h keeps the tail's own positive values instead of the
    # cancellation-prone C1 + z.
    z = np.minimum(z, -1e-250)
    h = np.concatenate([C1 + zl, h_tail])
    wt = np.exp(W)
    f = np.exp(-gamma * s_grid + W)
    return Profile(
        params=p, eta_inf=1.0, s_grid=s_grid, z=z, h=h, wt=wt,
        r_grid=np.exp(s_grid), f=f,
        fp_residual=tail.fp_residual, picard_iterations=tail.iterations,
    )


def recover_profile(profile: Profile) -> Profile:
    """Fill in eta_origin (Richardson extrapolation of r^gamma f as r -> 0)
    and the far-field gap |r^((n-2)/m) f - eta_inf| at the last node.  The
    gap checks nothing: the first correction there is below e^(-40), so it
    reads roundoff (ROADMAP direction 11 replaces it)."""
    p = profile.params
    bp, C1 = p.beta_p, p.C1
    s, wt = profile.s_grid, profile.wt
    wt_sp = CubicSpline(s, wt)

    rho0 = 1e-3
    n_levels = 9
    s_of_rho = lambda rho: bp * math.log(rho)
    if s_of_rho(rho0 / 2 ** (n_levels - 1)) < s[0]:
        raise ExtrapolationError(
            f"profile does not reach rho = {rho0 / 2 ** (n_levels - 1):g}; extend s_min"
        )
    rho_levels = rho0 / 2.0 ** np.arange(n_levels)
    w_levels = wt_sp([s_of_rho(r) for r in rho_levels])
    # first-order Richardson in rho (wbar = eta + c1 rho + O(rho^2))
    A = _richardson(w_levels, 1)
    gaps = np.abs(np.diff(A))
    eta = float(A[-1])
    if gaps[-1] > 10.0 * _RICHARDSON_TOL * abs(eta):
        raise ExtrapolationError(f"Richardson levels disagree: last gap {gaps[-1]:g}")
    deep = float(wt[0])
    if abs(deep - eta) > 1e-6 * abs(eta):
        raise ExtrapolationError(
            f"extrapolated eta {eta} inconsistent with deep value {deep} at s_min"
        )

    far_gap = abs(float(wt[-1]) * math.exp(C1 * float(s[-1])) - profile.eta_inf)
    # leading-correction fit |wbar - eta| <= K rho on a mid window
    rho_fit = np.geomspace(1e-4, 1e-2, 25)
    w_fit = wt_sp([s_of_rho(r) for r in rho_fit])
    K = float(np.max(np.abs(w_fit - eta) / rho_fit))
    return replace(profile, eta_origin=eta, far_field_gap=far_gap,
                   origin_levels=A, origin_fit_K=K)


def rescale_profile(profile: Profile, lam: float) -> Profile:
    """The scaling family f_lam(r) = lam^(2/(1-m)) f(lam r) applied to the table."""
    if not 0.0 < lam < math.inf:
        raise RangeError(f"lambda must be positive and finite, got {lam}")
    p = profile.params
    two1m = 2.0 / (1.0 - p.m)
    kappa = lam ** (two1m - p.gamma)                 # wt and eta_origin scale
    kappa_inf = lam ** (two1m - (p.n - 2) / p.m)     # eta_inf scale
    s_new = profile.s_grid - math.log(lam)
    wt_new = kappa * profile.wt
    return replace(
        profile,
        eta_inf=profile.eta_inf * kappa_inf,
        s_grid=s_new,
        wt=wt_new,
        r_grid=np.exp(s_new),
        f=np.exp(-p.gamma * s_new + np.log(wt_new)),
        eta_origin=None if profile.eta_origin is None else profile.eta_origin * kappa,
        far_field_gap=None if profile.far_field_gap is None else profile.far_field_gap * abs(kappa_inf),
        origin_levels=None if profile.origin_levels is None else profile.origin_levels * kappa,
        origin_fit_K=None,
    )


def solve_for_eta(params: ParamSet, target_eta: float, tol: float = 1e-12,
                  b1_margin: float = 0.05, s_min: Optional[float] = None,
                  s_max: Optional[float] = None) -> Profile:
    """Profile with prescribed origin coefficient lim r^gamma f = target_eta.

    Builds the base profile at eta_inf = 1, reads off its origin coefficient,
    and rescales: the scaling law eta_origin ~ lam^(2/(1-m) - gamma) pins
    lambda uniquely."""
    if not 0.0 < target_eta < math.inf:
        raise RangeError(f"target_eta must be positive and finite, got {target_eta}")
    fp = derive_fp_constants(params, b1_margin=b1_margin)
    tail = picard_solve(fp, s_max=s_max, tol=tol)
    prof = recover_profile(continue_left(tail, s_min=s_min, tol=tol))
    return rescale_profile(prof, _lambda_for_eta(params, prof.eta_origin, target_eta))


def _lambda_for_eta(params: ParamSet, eta_origin: float, target_eta: float) -> float:
    """lam with origin coefficient target_eta, as eta_origin ~ lam^(2/(1-m) - gamma)."""
    expo = 2.0 / (1.0 - params.m) - params.gamma     # negative in the admissible range
    return (target_eta / eta_origin) ** (1.0 / expo)


def profile_interpolator(profile: Profile):
    """Callable f(r) on the profile's radial range; RangeError outside it.

    Interpolates log wt cubically in s = log r, so relative accuracy is
    uniform over the full dynamic range of f.  A float radius (the boundary
    traces of the experiments) takes a scalar path that gives the array
    path's bits: _spline_at and numpy's own log and exp.
    """
    s = profile.s_grid
    spline = CubicSpline(s, np.log(profile.wt))
    log_wt_at = _spline_at(spline)
    gamma = profile.params.gamma
    lo, hi = float(s[0]), float(s[-1])

    def out_of_table(sq_min, sq_max):
        return RangeError(
            f"radius outside profile table: log r in [{sq_min:.3f}, {sq_max:.3f}], "
            f"table spans [{lo:.3f}, {hi:.3f}]"
        )

    def f_of_r(r):
        if isinstance(r, float):
            if not r > 0:
                raise RangeError(f"radius must be positive, got {r}")
            sq = float(np.log(r))
            if sq < lo - 1e-12 or sq > hi + 1e-12:
                raise out_of_table(sq, sq)
            return float(np.exp(-gamma * sq + log_wt_at(min(max(sq, lo), hi))))
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(r_arr > 0):
            raise RangeError("radius must be positive, got a non-positive or nan value")
        sq = np.log(r_arr)
        if float(sq.min()) < lo - 1e-12 or float(sq.max()) > hi + 1e-12:
            raise out_of_table(sq.min(), sq.max())
        out = np.exp(-gamma * sq + spline(np.clip(sq, lo, hi)))
        return float(out[0]) if np.ndim(r) == 0 else out

    return f_of_r

"""Verification of the profile's origin expansion and inversion identities.

Everything here treats a Profile as immutable data and quantifies how well it
satisfies equivalent differential/series representations:

  * expansion_check: the C^2 extension of w-bar(rho) = r^gamma f(r),
    rho = r^(rho1/beta'), has closed-form first and second derivatives at 0;
    we recover them by windowed quadratic fits plus Richardson extrapolation.
  * wbar_ode_residual: defect of the rho-form ODE
    (wb_rho/wb)_rho + m (wb_rho/wb)^2 + a1/rho (wb_rho/wb)
      + a2/rho^2 (wb_rho/wb^m) = a3/rho^2.
  * f_ode_residual: defect of (f^m/m)'' + (n-1)/r (f^m/m)' + alpha f
      + beta r f_r = 0, all derivatives by centered differences.
  * inversion_report: defect of the Kelvin-inverted equation for
    g(y) = y^(-(n-2)/m) f(1/y), plus the involution and limit checks.
  * origin_series_report: the 3-term origin series
    r^gamma f = eta + d1 rho + (d2/2) rho^2 + o(rho^2) and the f_r companion.

All residuals are normalized by the largest term magnitude at each node
(the equations carry 1/rho^2 scalings that make absolute defects meaningless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError, InternalError, ResolutionError
from .numerics import _richardson, deriv_uniform
from .params import ExpansionConstants
from .profile import Profile

__all__ = [
    "ExpansionReport",
    "InversionReport",
    "SeriesReport",
    "expansion_check",
    "wbar_ode_residual",
    "f_ode_residual",
    "inversion_report",
    "origin_series_report",
]

_F_WINDOW = (1e-3, 1e3)        # radii on which f_ode_residual is taken
_SERIES_NOISE_FLOOR = 1e-11    # data noise of r^gamma f, before the rho^-2 amplification
_SIGMA_MARGIN = 0.05           # gap between the inversion grid and the profile's ends


@dataclass(frozen=True)
class ExpansionReport:
    eta: float
    d1: float
    d2: float
    d1_ref: float
    d2_ref: float
    rel_err1: float            # |d1 - d1_ref| / |d1_ref|
    rel_err2: float            # |d2 - d2_ref| / |d2_ref|
    level_gap1: float          # final Richardson-level discrepancy for d1 (relative)
    level_gap2: float
    d1_levels: np.ndarray
    d2_levels: np.ndarray


@dataclass(frozen=True)
class InversionReport:
    residual: float
    double_inversion_err: float
    g_origin_gap: float        # |g - eta_inf| at the smallest sampled argument of g
    rho_g_rho_end: float       # |rho g_rho| there (must tend to 0)
    min_c1g_plus_rho_g_rho: float
    alpha_tilde: float
    beta_tilde: float


@dataclass(frozen=True)
class SeriesReport:
    rho_samples: np.ndarray
    ratios: np.ndarray         # |wbar - series| / rho^2 over the final decade
    max_ratio: float
    monotone: bool
    fr_limit: float            # extrapolated lim r^(gamma+1) f_r
    fr_limit_ref: float        # -gamma * eta
    fr_K: float                # fitted subleading coefficient of r^(gamma+1) f_r
    fr_K_ref: float


def _check_consts(profile: Profile, exp_consts: ExpansionConstants):
    if exp_consts.params != profile.params:
        raise ConfigError("exp_consts derived for different parameters than the profile")


def _wt_spline(profile: Profile) -> CubicSpline:
    return CubicSpline(profile.s_grid, profile.wt)


def _rho_exponent(profile: Profile) -> float:
    p = profile.params
    return p.rho1 / p.beta_p            # rho = r^c = e^(c s)


def _series_reference(exp_consts: ExpansionConstants, eta: float) -> tuple[float, float]:
    """Closed-form (d1, d2) = (wbar_rho, wbar_rhorho) at rho = 0 for origin coefficient eta."""
    a1, a2, a3, m = exp_consts.a1, exp_consts.a2, exp_consts.a3, exp_consts.params.m
    return a3 / a2 * eta ** m, a3 * (m * a3 - a1) / a2 ** 2 * eta ** (2.0 * m - 1.0)


def expansion_check(profile: Profile, exp_consts: ExpansionConstants) -> ExpansionReport:
    """Windowed quadratic fits of w-bar on [rho, 4 rho] with Richardson
    extrapolation toward rho = 0.

    First-derivative windows shrink to rho ~ 3e-6 (bias O(rho^2), one
    Richardson stage with factor 4); second-derivative windows stop at
    rho ~ 3e-4 where the curvature signal still clears data noise (bias
    O(rho), Richardson factor 2).
    """
    _check_consts(profile, exp_consts)
    c = _rho_exponent(profile)
    s, wt = profile.s_grid, profile.wt
    rho_min_grid = math.exp(c * float(s[0]))
    if rho_min_grid > 1e-5:
        raise ResolutionError(
            f"rho range spans only down to {rho_min_grid:g}; need >= 3 decades below 1e-2"
        )

    def window_fit(rho_lo):
        lo_s, hi_s = math.log(rho_lo) / c, math.log(4.0 * rho_lo) / c
        sel = (s >= lo_s) & (s <= hi_s)
        x = np.exp(c * s[sel]) / rho_lo          # in [1, 4]
        y = wt[sel]
        if float(np.max(np.diff(y))) >= 0.0:
            raise InternalError("w-bar not strictly decreasing inside a fit window")
        coef = np.polynomial.polynomial.polyfit(x, y, 2)
        c0, c1x, c2x = coef
        return c0, c1x / rho_lo, 2.0 * c2x / rho_lo ** 2   # eta, wb_rho, wb_rhorho

    rho_tops = 1e-2 / 2.0 ** np.arange(12)       # smallest ~ 4.9e-6
    fits = [window_fit(r) for r in rho_tops]
    eta_w = np.array([f[0] for f in fits])
    d1_w = np.array([f[1] for f in fits])
    d2_w = np.array([f[2] for f in fits])

    d1_levels = _richardson(d1_w, 2)
    eta_levels = _richardson(eta_w, 3)
    n_d2 = int(np.sum(rho_tops >= 3e-4))         # windows where curvature beats noise
    d2_levels = _richardson(d2_w[:n_d2], 1)

    eta = float(eta_levels[-1])
    d1 = float(d1_levels[-1])
    d2 = float(d2_levels[-1])
    if not d1 < 0:
        raise InternalError(f"extrapolated w-bar_rho(0) = {d1} is not negative")

    d1_ref, d2_ref = _series_reference(exp_consts, eta)
    return ExpansionReport(
        eta=eta, d1=d1, d2=d2, d1_ref=d1_ref, d2_ref=d2_ref,
        rel_err1=abs(d1 - d1_ref) / abs(d1_ref),
        rel_err2=abs(d2 - d2_ref) / abs(d2_ref),
        level_gap1=abs(d1_levels[-1] - d1_levels[-2]) / abs(d1),
        level_gap2=abs(d2_levels[-1] - d2_levels[-2]) / abs(d2),
        d1_levels=d1_levels, d2_levels=d2_levels,
    )


def _off_edges(size: int) -> np.ndarray:
    """Mask of the nodes clear of deriv_uniform's one-sided edge stencils."""
    idx = np.arange(size)
    return (idx >= 3) & (idx <= size - 4)


def _residual_over_terms(terms):
    """|sum of terms| / max |term|, elementwise over node arrays."""
    total = np.abs(sum(terms))
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    return total / scale


def wbar_ode_residual(profile: Profile, exp_consts: ExpansionConstants) -> float:
    """Max relative defect of the w-bar equation over rho in [1e-4, 1].

    Stencils run at stride 2 on the s-grid (evaluated on both parities) so
    integrator jitter stays well under the defect scale while single-node
    perturbations remain visible.
    """
    _check_consts(profile, exp_consts)
    p = profile.params
    a1, a2, a3 = exp_consts.a1, exp_consts.a2, exp_consts.a3
    c = _rho_exponent(profile)
    s, wt = profile.s_grid, profile.wt
    lo_s, hi_s = math.log(1e-4) / c, 0.0
    worst = 0.0
    for parity in (0, 1):
        ss, ww = s[parity::2], wt[parity::2]
        ds = float(ss[1] - ss[0])
        d1s = deriv_uniform(ww, ds, deriv=1)
        d2s = deriv_uniform(ww, ds, deriv=2)
        sel = (ss >= lo_s) & (ss <= hi_s)
        sel &= _off_edges(ss.size)
        rho = np.exp(c * ss[sel])
        w, ws, wss = ww[sel], d1s[sel], d2s[sel]
        U = ws / (c * w)                        # rho wb_rho / wb
        t1 = (wss - c * ws) / (c * c * w) - U * U     # rho^2 (wb_rho/wb)_rho
        t2 = p.m * U * U
        t3 = a1 * U
        t4 = a2 * ws / (c * rho * w ** p.m)     # rho^2 * a2/rho^2 * wb_rho/wb^m
        t5 = np.full_like(U, -a3)
        worst = max(worst, float(np.max(_residual_over_terms([t1, t2, t3, t4, t5]))))
    return worst


def f_ode_residual(profile: Profile) -> float:
    """Max relative defect of (f^m/m)_rr + (n-1)/r (f^m/m)_r + alpha f
    + beta r f_r over r in [1e-3, 1e3], all derivatives by centered
    differences in s = log r."""
    p = profile.params
    s, f = profile.s_grid, profile.f
    ds = float(s[1] - s[0])
    F = f ** p.m / p.m
    Fs = deriv_uniform(F, ds, deriv=1)
    Fss = deriv_uniform(F, ds, deriv=2)
    fs = deriv_uniform(f, ds, deriv=1)
    sel = (s >= math.log(_F_WINDOW[0])) & (s <= math.log(_F_WINDOW[1]))
    sel &= _off_edges(s.size)
    e2 = np.exp(-2.0 * s[sel])
    terms = [
        e2 * Fss[sel],
        e2 * (p.n - 2) * Fs[sel],
        p.alpha * f[sel],
        p.beta * fs[sel],
    ]
    return float(np.max(_residual_over_terms(terms)))


def _symmetric_sigma_grid(profile: Profile):
    s = profile.s_grid
    S = min(-float(s[0]), float(s[-1])) - _SIGMA_MARGIN
    if S <= 1.0:
        raise ResolutionError("profile s-range too narrow for a symmetric inversion grid")
    ds = 0.01
    k = int(math.floor(S / ds))
    return ds * np.arange(-k, k + 1)


def inversion_report(profile: Profile) -> InversionReport:
    """Defect of the inverted equation satisfied by g(y) = y^(-(n-2)/m) f(1/y).

    In sigma = log y the equation reads, with Gamma = g^m/m and
    E = e^((( n-2-nm)/m - 2) sigma):
        e^(-2 sigma)(Gamma_ss + (n-2) Gamma_s) + E (at g + bt g_sigma) = 0.
    Gamma_sigma = -g^m h(-sigma) follows from the profile's stored
    logarithmic derivative; the remaining outer derivative is taken
    numerically through Q = e^((n-2) sigma) Gamma_sigma, which keeps the
    exponentially flat end (g -> eta_inf) numerically meaningful.
    """
    p = profile.params
    n, m = p.n, p.m
    C1 = p.C1
    at = p.alpha - (n - 2) / m * p.beta
    bt = -p.beta
    if abs(at / bt - C1) > 1e-12 * max(1.0, abs(C1)):
        raise InternalError("alpha-tilde / beta-tilde != C1; derived constants inconsistent")

    sig = _symmetric_sigma_grid(profile)
    ds = float(sig[1] - sig[0])
    s_grid = profile.s_grid
    logwt_sp = CubicSpline(s_grid, np.log(profile.wt))
    h_sp = CubicSpline(s_grid, profile.h)

    log_g = -C1 * sig + logwt_sp(-sig)
    g = np.exp(log_g)
    h_rev = h_sp(-sig)
    g_sigma = -g * h_rev
    Gamma_sigma = -(g ** m) * h_rev

    Q = np.exp((n - 2) * sig) * Gamma_sigma
    Q_sigma = deriv_uniform(Q, ds, deriv=1)
    diffusion = np.exp(-n * sig) * Q_sigma
    E = np.exp(((n - 2 - n * m) / m - 2.0) * sig)
    sel = (sig >= math.log(1e-2)) & (sig <= math.log(1e2))
    sel &= _off_edges(sig.size)
    res = _residual_over_terms([diffusion[sel], E[sel] * at * g[sel], E[sel] * bt * g_sigma[sel]])
    residual = float(np.max(res))

    # limit checks at the small-argument end of g
    g_origin_gap = abs(float(g[0]) - profile.eta_inf)
    rho_g_rho_end = abs(float(g_sigma[0]))
    if g_origin_gap > 1e-8 * profile.eta_inf:
        raise InternalError(f"g does not approach eta_inf: gap {g_origin_gap:g}")
    if rho_g_rho_end > 1e-8 * profile.eta_inf:
        raise InternalError(f"rho g_rho does not vanish at 0: {rho_g_rho_end:g}")

    # C1 g + rho g_rho > 0; strict where the signal clears integrator noise.
    # C1 g + g_sigma = g (C1 - h(-sigma)) = -g z(-sigma), formed from z
    # itself: C1 - h cancels to roundoff once |z| is below an ulp of C1
    comb = -g * CubicSpline(s_grid, profile.z)(-sig)
    min_comb = float(np.min(comb / g))
    if min_comb < -1e-12:
        raise InternalError(f"C1 g + rho g_rho dips to {min_comb:g} x g")
    strict = np.abs(sig) <= 20.0
    if float(np.min(comb[strict])) <= 0.0:
        raise InternalError("C1 g + rho g_rho not strictly positive on the resolvable range")

    # involution: applying the transform twice returns f
    logg_sp = CubicSpline(sig, log_g)
    inner = sig[(sig >= sig[0] + 0.1) & (sig <= sig[-1] - 0.1)]
    log_f2 = -(n - 2) / m * inner + logg_sp(-inner)
    log_f = -p.gamma * inner + logwt_sp(inner)
    double_err = float(np.max(np.abs(np.expm1(log_f2 - log_f))))

    return InversionReport(
        residual=residual, double_inversion_err=double_err,
        g_origin_gap=g_origin_gap, rho_g_rho_end=rho_g_rho_end,
        min_c1g_plus_rho_g_rho=min_comb, alpha_tilde=at, beta_tilde=bt,
    )


def origin_series_report(profile: Profile, exp_consts: ExpansionConstants,
                         eta: float) -> SeriesReport:
    """Compare r^gamma f against the 3-term origin series over the final
    resolvable decade and extract the f_r leading/subleading behaviour.

    The o(rho^2) remainder makes |wbar - series|/rho^2 decrease toward 0;
    monotonicity is checked with a small multiplicative slack plus the
    rho^-2-amplified data noise floor.
    """
    _check_consts(profile, exp_consts)
    p = profile.params
    c = _rho_exponent(profile)
    s = profile.s_grid
    if math.exp(c * float(s[0])) > 1e-4:
        raise ResolutionError("profile not resolved near the origin (need rho down to 1e-4)")
    d1_ref, d2_ref = _series_reference(exp_consts, eta)

    wt_sp = _wt_spline(profile)
    rho = 1e-2 * 10.0 ** (-np.arange(5) / 4.0)          # final decade, quarter-decade steps
    wb = wt_sp(np.log(rho) / c)
    series = eta + d1_ref * rho + 0.5 * d2_ref * rho ** 2
    ratios = np.abs(wb - series) / rho ** 2
    floors = _SERIES_NOISE_FLOOR / rho ** 2
    mono = bool(
        np.all(ratios[1:] <= ratios[:-1] * 1.001 + 3.0 * floors[1:])
        and ratios[-1] < ratios[0]
    )

    # r^(gamma+1) f_r = wt (z - gamma); extrapolate its rho -> 0 limit and
    # the coefficient of the next term
    z_sp = CubicSpline(s, profile.z)
    def L(rho_v):
        sv = math.log(rho_v) / c
        return float(wt_sp(sv) * (z_sp(sv) - p.gamma))
    rho_lev = 1e-3 / 2.0 ** np.arange(6)
    lev = np.array([L(r) for r in rho_lev])
    fr_limit = float(_richardson(lev, 1)[-1])
    fr_limit_ref = -p.gamma * eta
    fr_K = float(_richardson((lev[:4] - fr_limit) / rho_lev[:4], 1)[-1])
    fr_K_ref = -(2.0 * p.beta - p.m * p.rho1) / ((1.0 - p.m) * p.beta) * d1_ref

    return SeriesReport(
        rho_samples=rho, ratios=ratios, max_ratio=float(np.max(ratios)),
        monotone=mono, fr_limit=fr_limit, fr_limit_ref=fr_limit_ref,
        fr_K=fr_K, fr_K_ref=fr_K_ref,
    )

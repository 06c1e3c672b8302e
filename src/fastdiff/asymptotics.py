"""Verification of the profile's origin expansion and inversion identities.

Everything here treats a Profile as immutable data and quantifies how well it
satisfies equivalent differential/series representations:

  * expansion_check: w-bar(rho) = r^gamma f(r), rho = r^(1/beta'), has the
    origin series q = w-bar_rho / w-bar = sum q_k rho^k, fixed by eta_origin;
    w-bar's first two derivatives at 0 are measured off rho q = beta' z on
    the origin match's window and compared with the series, whose defect
    against the continuation is reported there.
  * wbar_ode_residual: defect of the rho-form ODE
    (wb_rho/wb)_rho + m (wb_rho/wb)^2 + a1/rho (wb_rho/wb)
      + a2/rho^2 (wb_rho/wb^m) = a3/rho^2.
  * f_ode_residual: defect of (f^m/m)'' + (n-1)/r (f^m/m)' + alpha f
      + beta r f_r = 0.
  * inversion_report: defect of the Kelvin-inverted equation for
    g(y) = y^(-(n-2)/m) f(1/y), plus the involution and limit checks, on
    the table's nodes mirrored (sigma = log y = -s).

No check fits a spline: each reads the profile table row by row, and the
residuals take their derivatives by five-point differences at the table's
own step.

All residuals are normalized by the largest term magnitude at each node
(the equations carry 1/rho^2 scalings that make absolute defects meaningless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import InternalError, ResolutionError
from .numerics import deriv_uniform
from .profile import LEFT_ABS_TOL, Profile, _origin_node, _origin_series

__all__ = [
    "ExpansionReport",
    "InversionReport",
    "expansion_check",
    "wbar_ode_residual",
    "f_ode_residual",
    "inversion_report",
]

_F_WINDOW = (1e-3, 1e3)        # radii on which f_ode_residual is taken
_Z_FLOOR = 10.0 * LEFT_ABS_TOL  # |z| at or below this is continuation noise, sign unresolved


@dataclass(frozen=True)
class ExpansionReport:
    eta: float
    d1: float
    d2: float
    d1_ref: float
    d2_ref: float
    rel_err1: float            # |d1 - d1_ref| / |d1_ref|
    rel_err2: float            # |d2 - d2_ref| / |d2_ref|
    # sup over the origin match's window [rho_min, rho*] of |beta' z - rho
    # q_series|, rho q = d log wbar / d log rho, and of |log wt - log wbar_series|
    q_defect: float
    logw_defect: float


@dataclass(frozen=True)
class InversionReport:
    """Which fields see a defect in the table's wt or h: residual (every
    mirrored row), g_origin_gap and rho_g_rho_end (one row, the largest
    mirrored s).  double_inversion_err reads one row's log wt on both sides,
    so it is the roundoff of ((n-2)/m - C1 - gamma) sigma: 2.84e-14 at the
    reference point, with or without a 1e-3 dent in wt.
    min_c1g_plus_rho_g_rho is the least -z, at least 1e-250: continue_left
    caps z at -1e-250."""

    residual: float
    double_inversion_err: float
    g_origin_gap: float        # |g - eta_inf| at the smallest sampled argument of g
    rho_g_rho_end: float       # |rho g_rho| there (must tend to 0)
    min_c1g_plus_rho_g_rho: float
    alpha_tilde: float
    beta_tilde: float


def expansion_check(profile: Profile) -> ExpansionReport:
    """(d1, d2) = (wbar_rho, wbar_rhorho) at rho = 0, measured on the
    continuation and compared with the origin series (d1_ref, d2_ref).

    On the window [rho_min, rho*] of the origin match (profile._origin_node),
    one least-squares fit of rho q = beta' z minus the series' terms of order
    >= 2 to q0 rho + q1 rho^2 gives d1 = eta q0 and d2 = eta (q1 + q0^2),
    eta = profile.eta_origin.  In rho q every node carries z's absolute
    error, so the nodes near rho* decide the fit, not the deep ones where q
    is noise over rho.  ResolutionError if the grid does not reach rho*/2.
    """
    p = profile.params
    eta, bp = profile.eta_origin, p.beta_p
    Q = _origin_series(p)
    i = _origin_node(profile.s_grid, eta, p)
    lam = eta ** (p.m - 1.0)                     # q(rho) = lam Q(lam rho)
    t = lam * np.exp(profile.s_grid[:i + 1] / bp)
    rq = bp * profile.z[:i + 1]
    u = t / t[-1]
    (c1, c2), *_ = np.linalg.lstsq(np.column_stack([u, u * u]),
                                   rq - t ** 3 * polyval(t, Q[2:]), rcond=None)
    q0, q1 = c1 / t[-1], c2 / t[-1] ** 2         # Q_0 and Q_1 as measured
    d1, d2 = eta * lam * q0, eta * lam * lam * (q1 + q0 * q0)
    if not d1 < 0:
        raise InternalError(f"measured w-bar_rho(0) = {d1} is not negative")
    d1_ref, d2_ref = eta * lam * Q[0], eta * lam * lam * (Q[1] + Q[0] ** 2)
    log_wbar = math.log(eta) + t * polyval(t, Q / np.arange(1, Q.size + 1))
    return ExpansionReport(
        eta=eta, d1=d1, d2=d2, d1_ref=d1_ref, d2_ref=d2_ref,
        rel_err1=abs(d1 - d1_ref) / abs(d1_ref),
        rel_err2=abs(d2 - d2_ref) / abs(d2_ref),
        q_defect=float(np.max(np.abs(rq - t * polyval(t, Q)))),
        logw_defect=float(np.max(np.abs(profile.W[:i + 1] - log_wbar))),
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


def wbar_ode_residual(profile: Profile) -> float:
    """Max relative defect of the w-bar equation over rho in [1e-4, 1],
    all derivatives by centered differences in s at the table's own step."""
    p = profile.params
    c = 1.0 / p.beta_p
    s, wt = profile.s_grid, np.exp(profile.W)
    ds = float(s[1] - s[0])
    d1s = deriv_uniform(wt, ds, deriv=1)
    d2s = deriv_uniform(wt, ds, deriv=2)
    sel = (s >= math.log(1e-4) / c) & (s <= 0.0) & _off_edges(s.size)
    rho = np.exp(c * s[sel])
    w, ws, wss = wt[sel], d1s[sel], d2s[sel]
    U = ws / (c * w)                            # rho wb_rho / wb
    terms = [
        (wss - c * ws) / (c * c * w) - U * U,   # rho^2 (wb_rho/wb)_rho
        p.m * U * U,
        p.a1 * U,
        p.a2 * ws / (c * rho * w ** p.m),       # rho^2 * a2/rho^2 * wb_rho/wb^m
        np.full_like(U, -p.a3),
    ]
    return float(np.max(_residual_over_terms(terms)))


def f_ode_residual(profile: Profile) -> float:
    """Max relative defect of (f^m/m)_rr + (n-1)/r (f^m/m)_r + alpha f
    + beta r f_r over r in [1e-3, 1e3], all derivatives by centered
    differences in s = log r.  f = e^(-gamma s + W) is formed on the
    window's rows and the two stencil rows on each side only: past them it
    can leave the double range.  ResolutionError if fewer than 5 rows clear
    of the table's edge stencils lie in the window."""
    p = profile.params
    s = profile.s_grid
    sel = (s >= math.log(_F_WINDOW[0])) & (s <= math.log(_F_WINDOW[1]))
    rows = np.flatnonzero(sel & _off_edges(s.size))
    if rows.size < 5:
        raise ResolutionError(f"{rows.size} table rows lie in the f-equation window r in "
                              f"[{_F_WINDOW[0]:g}, {_F_WINDOW[1]:g}]; the table spans s in "
                              f"[{s[0]:.6g}, {s[-1]:.6g}]")
    lo, hi = rows[0] - 2, rows[-1] + 3
    sw = s[lo:hi]
    f = np.exp(-p.gamma * sw + profile.W[lo:hi])
    ds = float(s[1] - s[0])
    F = f ** p.m / p.m
    Fs = deriv_uniform(F, ds, deriv=1)[2:-2]
    Fss = deriv_uniform(F, ds, deriv=2)[2:-2]
    fs = deriv_uniform(f, ds, deriv=1)[2:-2]
    e2 = np.exp(-2.0 * sw[2:-2])
    terms = [
        e2 * Fss,
        e2 * (p.n - 2) * Fs,
        p.alpha * f[2:-2],
        p.beta * fs,
    ]
    return float(np.max(_residual_over_terms(terms)))


def inversion_report(profile: Profile) -> InversionReport:
    """Defect of the inverted equation satisfied by g(y) = y^(-(n-2)/m) f(1/y).

    In sigma = log y the equation reads, with Gamma = g^m/m and
    E = e^((( n-2-nm)/m - 2) sigma):
        e^(-2 sigma)(Gamma_ss + (n-2) Gamma_s) + E (at g + bt g_sigma) = 0.
    g is read on the table's own nodes mirrored, sigma = -s for every row
    with |s| <= min(-s_0, s_end), so each value of g comes from one row's
    wt, h and z.  Gamma_sigma = -g^m h(-sigma) follows from the stored
    logarithmic derivative; the remaining outer derivative is taken
    numerically through Q = e^((n-2) sigma) Gamma_sigma, which keeps the
    exponentially flat end (g -> eta_inf) numerically meaningful.
    Of its fields only residual, g_origin_gap and rho_g_rho_end can see a
    defect in wt or h (see InversionReport).
    """
    p = profile.params
    n, m = p.n, p.m
    C1 = p.C1
    at = p.alpha - (n - 2) / m * p.beta
    bt = -p.beta

    s = profile.s_grid
    S = min(-float(s[0]), float(s[-1]))
    if S <= 1.0:
        raise ResolutionError("profile s-range too narrow to mirror for the inversion check")
    # the rows with |s| <= S, reversed so that sigma = -s ascends
    rows = np.flatnonzero(np.abs(s) <= S)[::-1]
    sig, h_rev, z_rev = -s[rows], profile.h[rows], profile.z[rows]
    log_wt = profile.W[rows]
    ds = float(sig[1] - sig[0])

    log_g = -C1 * sig + log_wt
    g = np.exp(log_g)
    g_sigma = -g * h_rev
    Gamma_sigma = -(g ** m) * h_rev

    Q = np.exp((n - 2) * sig) * Gamma_sigma
    Q_sigma = deriv_uniform(Q, ds, deriv=1)
    sel = (sig >= math.log(1e-2)) & (sig <= math.log(1e2))
    sel &= _off_edges(sig.size)
    # formed on the window only: e^(-n sigma) overflows at the grid's ends
    diffusion = np.exp(-n * sig[sel]) * Q_sigma[sel]
    E = np.exp(((n - 2 - n * m) / m - 2.0) * sig[sel])
    res = _residual_over_terms([diffusion, E * at * g[sel], E * bt * g_sigma[sel]])
    residual = float(np.max(res))

    # limit checks at the small-argument end of g
    g_origin_gap = abs(float(g[0]) - profile.eta_inf)
    rho_g_rho_end = abs(float(g_sigma[0]))
    if g_origin_gap > 1e-8 * profile.eta_inf:
        raise InternalError(f"g does not approach eta_inf: gap {g_origin_gap:g}")
    if rho_g_rho_end > 1e-8 * profile.eta_inf:
        raise InternalError(f"rho g_rho does not vanish at 0: {rho_g_rho_end:g}")

    # C1 g + rho g_rho > 0; strict on |sigma| <= 20 where |z| clears ten
    # times continue_left's absolute tolerance: below it the sign of z is
    # LSODA's noise, which continue_left floors to -1e-250.
    # C1 g + g_sigma = g (C1 - h(-sigma)) = -g z(-sigma), so its ratio to g
    # is -z itself: C1 - h cancels to roundoff once |z| is below an ulp of C1
    min_comb = float(np.min(-z_rev))
    if min_comb < -1e-12:
        raise InternalError(f"C1 g + rho g_rho dips to {min_comb:g} x g")
    strict = (np.abs(sig) <= 20.0) & (np.abs(z_rev) > _Z_FLOOR)
    if float(np.min(-z_rev[strict], initial=math.inf)) <= 0.0:
        raise InternalError("C1 g + rho g_rho not strictly positive on the resolvable range")

    # involution: applying the transform twice returns f, row by row: the
    # second transform reads g at sigma = -s, which is this row's value
    log_f2 = (n - 2) / m * sig + log_g
    log_f = p.gamma * sig + log_wt
    double_err = float(np.max(np.abs(np.expm1(log_f2 - log_f))))

    return InversionReport(
        residual=residual, double_inversion_err=double_err,
        g_origin_gap=g_origin_gap, rho_g_rho_end=rho_g_rho_end,
        min_c1g_plus_rho_g_rho=min_comb, alpha_tilde=at, beta_tilde=bt,
    )

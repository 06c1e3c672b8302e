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
    g(y) = y^(-(n-2)/m) f(1/y) on the table's rows, sigma = log y = -s.

The profile's invariants are checked where the table is built, not here:
-C1 < z < 0 by the stored xi = log(h/(-z)), which continue_left makes
finite on every row, and the far-field limit r^((n-2)/m) f -> eta_inf in
Profile.far_field_gap.

No check fits a spline: each reads the profile table row by row, and the
residuals read only the rows of their own window, where they take their
derivatives by centred five-point differences at the table's own step.
Each window lies at a fixed offset from the transition row s_t
(Profile.transition), r_t = e^(s_t) and rho_t = e^(s_t/beta'), so a table
and any rescale of it read the same rows.

All residuals are normalized by the largest term magnitude at each node
(the equations carry 1/rho^2 scalings that make absolute defects
meaningless); a node where every term underflows to 0 is a ResolutionError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import InternalError, ResolutionError
from .numerics import deriv_uniform
from .profile import Profile, _origin_node, _origin_series

__all__ = [
    "ExpansionReport",
    "InversionReport",
    "expansion_check",
    "wbar_ode_residual",
    "f_ode_residual",
    "inversion_report",
]

_F_WINDOW = (1e-3, 1e3)        # r/r_t on which f_ode_residual is taken
_LOG_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


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
    """Only residual sees a defect in the table's wt or h.
    double_inversion_err reads one row's log wt on both sides, so it is the
    roundoff of ((n-2)/m - C1 - gamma) sigma, 3.55e-15 at the reference point
    with or without a dent: it cannot fail, and stays as perfbench reads it."""

    residual: float
    double_inversion_err: float


def expansion_check(profile: Profile) -> ExpansionReport:
    """(d1, d2) = (wbar_rho, wbar_rhorho) at rho = 0, measured on the
    continuation and compared with the origin series (d1_ref, d2_ref).

    On the window [rho_min, rho*] of the origin match (profile._origin_node),
    one least-squares fit of rho q = beta' z minus the series' terms of order
    >= 2 to q0 rho + q1 rho^2 gives d1 = eta q0 and d2 = eta (q1 + q0^2),
    eta = profile.eta_origin.  In rho q every node carries z's absolute
    error, so the nodes near rho* decide the fit, not the deep ones where q
    is noise over rho.  ResolutionError if the grid does not reach rho*/2,
    or if xi <= 0 at rho*, which is z <= -C1/2: the window then reaches
    past the profile's transition into the far field, whose rows no origin
    series fits.
    """
    p = profile.params
    eta, bp = profile.eta_origin, p.beta_p
    Q = _origin_series(p)
    i = _origin_node(profile, eta)
    if not profile.xi[i] > 0.0:
        raise ResolutionError(f"origin fit window reaches past the transition: xi = "
                              f"{profile.xi[i]:.3g} <= 0 (z <= -C1/2) at rho* = "
                              f"{math.exp(profile.s_grid[i] / bp):.3g}")
    lam = eta ** (p.m - 1.0)                     # q(rho) = lam Q(lam rho)
    t = lam * np.exp(profile.s_grid[:i + 1] / bp)
    rq = bp * profile.z[:i + 1]
    u = t / t[-1]
    P2 = polyval(t, Q[2:])
    Qt = Q[0] + (Q[1] + P2 * t) * t               # polyval(t, Q), the same float operations
    (c1, c2), *_ = np.linalg.lstsq(np.column_stack([u, u * u]), rq - t ** 3 * P2, rcond=None)
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
        q_defect=float(np.max(np.abs(rq - t * Qt))),
        logw_defect=float(np.max(np.abs(profile.W[:i + 1] - log_wbar))),
    )


def _window(profile: Profile, lo: float, hi: float, window: str) -> slice:
    """The table rows with lo <= s - s_t <= hi and the two stencil rows on
    each side, where a check forms its exponentials: past them they can
    leave the double range.  ResolutionError if fewer than 5 such window
    rows clear the table's two edge rows."""
    s, s_t = profile.s_grid, float(profile.s_grid[profile.transition])
    i = max(int(np.searchsorted(s, s_t + lo)), 2)
    j = min(int(np.searchsorted(s, s_t + hi, side="right")), s.size - 2)
    if j - i < 5:
        raise ResolutionError(f"{max(j - i, 0)} table rows lie in the {window}, s_t = {s_t:.6g}")
    return slice(i - 2, j + 2)


def _exp_normal(log_x: np.ndarray, name: str) -> np.ndarray:
    """e^log_x; ResolutionError before the exp unless every value is a
    normal float, which a deep or rescaled table's f or wt need not be."""
    lo, hi = float(np.min(log_x)), float(np.max(log_x))
    if not (_LOG_NORMAL[0] <= lo and hi <= _LOG_NORMAL[1]):
        raise ResolutionError(f"{name} leaves the normal floats: log {name} in [{lo:.6g}, {hi:.6g}]")
    return np.exp(log_x)


def _residual_over_terms(terms):
    """|sum of terms| / max |term|, elementwise over node arrays;
    ResolutionError where every term of a node is 0, which is 0/0."""
    total = np.abs(sum(terms))
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    if np.any(scale == 0.0):
        raise ResolutionError(f"every term of the equation underflows to 0 on "
                              f"{int(np.sum(scale == 0.0))} rows of the window")
    return total / scale


def wbar_ode_residual(profile: Profile) -> float:
    """Max relative defect of the w-bar equation over rho/rho_t in [1e-4, 1],
    all derivatives by centered differences in s at the table's own step.
    Below about 1e-8 the value is the check's roundoff floor: the second
    differences of wt amplify its rounding.  ResolutionError if fewer than
    5 rows lie in the window, or wt is not a normal float there."""
    p = profile.params
    c = 1.0 / p.beta_p
    s = profile.s_grid
    rows = _window(profile, math.log(1e-4) / c, 0.0, "w-bar-equation window rho/rho_t in [0.0001, 1]")
    ds = float(s[1] - s[0])
    wt = _exp_normal(profile.W[rows], "wt")
    ws = deriv_uniform(wt, ds, deriv=1)
    wss = deriv_uniform(wt, ds, deriv=2)
    rho = np.exp(c * s[rows][2:-2])
    w = wt[2:-2]
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
    + beta r f_r over r/r_t in [1e-3, 1e3], all derivatives by centered
    differences in s = log r.  f = e^(-gamma s + W) is formed on the
    window's rows and the two stencil rows on each side only.
    ResolutionError if fewer than 5 rows lie in the window, or f is not a
    normal float there."""
    p = profile.params
    s = profile.s_grid
    rows = _window(profile, math.log(_F_WINDOW[0]), math.log(_F_WINDOW[1]),
                   f"f-equation window r/r_t in [{_F_WINDOW[0]:g}, {_F_WINDOW[1]:g}]")
    sw = s[rows]
    f = _exp_normal(-p.gamma * sw + profile.W[rows], "f")
    ds = float(s[1] - s[0])
    F = f ** p.m / p.m
    e2 = np.exp(-2.0 * sw[2:-2])
    terms = [
        e2 * deriv_uniform(F, ds, deriv=2),
        e2 * (p.n - 2) * deriv_uniform(F, ds, deriv=1),
        p.alpha * f[2:-2],
        p.beta * deriv_uniform(f, ds, deriv=1),
    ]
    return float(np.max(_residual_over_terms(terms)))


def inversion_report(profile: Profile) -> InversionReport:
    """Defect of the inverted equation satisfied by g(y) = y^(-(n-2)/m) f(1/y).

    In sigma = log y the equation reads, with Gamma = g^m/m and
    E = e^((( n-2-nm)/m - 2) sigma):
        e^(-2 sigma)(Gamma_ss + (n-2) Gamma_s) + E (at g + bt g_sigma) = 0.
    g is read on the table's rows with sigma = -s in the window
    y r_t in [1e-2, 1e2], reversed so that sigma ascends, so each value of g
    comes from one row's W and xi.  Gamma_sigma = -g^m h(-sigma) follows
    from the stored logarithmic derivative; the remaining outer derivative
    is taken numerically through Q = e^((n-2) sigma) Gamma_sigma, which
    keeps the exponentially flat end (g -> eta_inf) numerically meaningful.
    Q, E g and E g_sigma = -E g h are each one exp of a sum of logs: E
    alone overflows where its rate (243 at (5, 0.012, 3.264)) meets the
    window's edge, and g underflows where C1 does.  ResolutionError if
    fewer than 5 rows lie in the window, or where every term of a row
    underflows.
    """
    p = profile.params
    n, m, C1 = p.n, p.m, p.C1
    at = p.alpha - (n - 2) / m * p.beta
    bt = -p.beta

    s = profile.s_grid
    rows = _window(profile, -math.log(1e2), -math.log(1e-2),
                   "inverted-equation window y r_t in [0.01, 100]")
    sig, h_rev, log_wt = -s[rows][::-1], profile.h[rows][::-1], profile.W[rows][::-1]
    ds = float(sig[1] - sig[0])

    log_g = -C1 * sig + log_wt
    Q = -h_rev * np.exp((n - 2) * sig + m * log_g)
    sw = sig[2:-2]
    diffusion = np.exp(-n * sw) * deriv_uniform(Q, ds, deriv=1)
    Eg = np.exp(((n - 2 - n * m) / m - 2.0) * sw + log_g[2:-2])
    res = _residual_over_terms([diffusion, at * Eg, -bt * Eg * h_rev[2:-2]])
    residual = float(np.max(res))

    # involution: applying the transform twice returns f, row by row: the
    # second transform reads g at sigma = -s, which is this row's value
    log_f2 = (n - 2) / m * sig + log_g
    log_f = p.gamma * sig + log_wt
    double_err = float(np.max(np.abs(np.expm1(log_f2 - log_f))))

    return InversionReport(residual=residual, double_inversion_err=double_err)

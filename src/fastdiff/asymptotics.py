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
finite on every row, and the far-field limit r^((n-2)/m) f -> eta_inf by the
tail's fixed point, whose defect profile.tail_residual reads over the whole
tail.

No check fits a spline: each reads the profile table row by row, and the
residuals read only the rows of their own window, where they take their
derivatives by centred five-point differences at the table's own step.
Each window lies at a fixed offset from the transition row s_t
(Profile.transition), r_t = e^(s_t) and rho_t = e^(s_t/beta'), so a table
and any rescale of it read the same rows.

Each residual divides its equation through by its solution, so every term
is a ratio that a rescale leaves as it is, formed from the stored logs with
no exp of f, wt or g at the table's scale.  Its value at a node is
|sum of terms| / max |term|; each divided equation keeps one nonzero
constant term (alpha, -a3 or at), so that max is never 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ResolutionError
from .numerics import deriv_uniform
from .profile import Profile, _horner, _origin_node, _origin_series

__all__ = [
    "ExpansionReport",
    "InversionReport",
    "expansion_check",
    "wbar_ode_residual",
    "f_ode_residual",
    "inversion_report",
]

_F_WINDOW = (1e-3, 1e3)        # r/r_t on which f_ode_residual is taken


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
    coeffs = Q.tolist()
    P2 = _horner(t, coeffs[2:])
    Qt = Q[0] + (Q[1] + P2 * t) * t               # polyval(t, Q), the same float operations
    (c1, c2), *_ = np.linalg.lstsq(np.column_stack([u, u * u]), rq - t ** 3 * P2, rcond=None)
    q0, q1 = c1 / t[-1], c2 / t[-1] ** 2         # Q_0 and Q_1 as measured
    d1, d2 = eta * lam * q0, eta * lam * lam * (q1 + q0 * q0)
    if not d1 < 0:
        raise InternalError(f"measured w-bar_rho(0) = {d1} is not negative")
    d1_ref, d2_ref = eta * lam * Q[0], eta * lam * lam * (Q[1] + Q[0] ** 2)
    log_wbar = math.log(eta) + t * _horner(t, (Q / np.arange(1, Q.size + 1)).tolist())
    return ExpansionReport(
        eta=eta, d1=d1, d2=d2, d1_ref=d1_ref, d2_ref=d2_ref,
        rel_err1=abs(d1 - d1_ref) / abs(d1_ref),
        rel_err2=abs(d2 - d2_ref) / abs(d2_ref),
        q_defect=float(np.max(np.abs(rq - t * Qt))),
        logw_defect=float(np.max(np.abs(profile.W[:i + 1] - log_wbar))),
    )


def _window(profile: Profile, lo: float, hi: float, window: str) -> slice:
    """The table rows with lo <= s - s_t <= hi and the two stencil rows on
    each side, which a residual's centred differences read.  ResolutionError
    if fewer than 5 such window rows clear the table's two edge rows."""
    s, s_t = profile.s_grid, float(profile.s_grid[profile.transition])
    i = max(int(np.searchsorted(s, s_t + lo)), 2)
    j = min(int(np.searchsorted(s, s_t + hi, side="right")), s.size - 2)
    if j - i < 5:
        raise ResolutionError(f"{max(j - i, 0)} table rows lie in the {window}, s_t = {s_t:.6g}")
    return slice(i - 2, j + 2)


def _residual_over_terms(terms):
    """|sum of terms| / max |term|, elementwise over node arrays."""
    return np.abs(sum(terms)) / np.maximum.reduce([np.abs(t) for t in terms])


def wbar_ode_residual(profile: Profile) -> float:
    """Max relative defect of the w-bar equation over rho/rho_t in [1e-4, 1],
    all derivatives by centered differences in s at the table's own step.
    Times rho^2 its a2 term is a2 U X, U = rho wb_rho/wb and X = wb^(1-m)/rho
    = e^((1-m) W - s/beta'); the stencils read wt over its window's largest
    value, since on W the chain rule doubles their roundoff on a shifted
    table.  Below about 1e-8 the value is the check's roundoff floor: the
    second differences of wt amplify its rounding.  ResolutionError if fewer
    than 5 rows lie in the window."""
    p = profile.params
    c = 1.0 / p.beta_p
    s = profile.s_grid
    rows = _window(profile, math.log(1e-4) / c, 0.0, "w-bar-equation window rho/rho_t in [0.0001, 1]")
    ds = float(s[1] - s[0])
    W = profile.W[rows]
    wt = np.exp(W - np.max(W))
    ws = deriv_uniform(wt, ds, deriv=1)
    wss = deriv_uniform(wt, ds, deriv=2)
    w = wt[2:-2]
    U = ws / (c * w)                            # rho wb_rho / wb
    X = np.exp((1.0 - p.m) * W[2:-2] - c * s[rows][2:-2])
    terms = [
        (wss - c * ws) / (c * c * w) - U * U,   # rho^2 (wb_rho/wb)_rho
        p.m * U * U,
        p.a1 * U,
        p.a2 * U * X,                           # rho^2 * a2/rho^2 * wb_rho/wb^m
        np.full_like(U, -p.a3),
    ]
    return float(np.max(_residual_over_terms(terms)))


def f_ode_residual(profile: Profile) -> float:
    """Max relative defect of (f^m/m)_rr + (n-1)/r (f^m/m)_r + alpha f
    + beta r f_r over r/r_t in [1e-3, 1e3], divided through by f.  With
    L = log f = -gamma s + W and E = r^(-2) f^(m-1) = e^((m-1) L - 2s) the
    terms are E (L'' + m L'^2), (n-2) E L', alpha and beta L', all
    derivatives by centered differences in s = log r.  ResolutionError if
    fewer than 5 rows lie in the window."""
    p = profile.params
    s = profile.s_grid
    rows = _window(profile, math.log(_F_WINDOW[0]), math.log(_F_WINDOW[1]),
                   f"f-equation window r/r_t in [{_F_WINDOW[0]:g}, {_F_WINDOW[1]:g}]")
    ds = float(s[1] - s[0])
    L = -p.gamma * s[rows] + profile.W[rows]
    L1, L2 = deriv_uniform(L, ds, deriv=1), deriv_uniform(L, ds, deriv=2)
    E = np.exp((p.m - 1.0) * L[2:-2] - 2.0 * s[rows][2:-2])
    terms = [
        E * (L2 + p.m * L1 * L1),
        (p.n - 2) * E * L1,
        np.full_like(L1, p.alpha),
        p.beta * L1,
    ]
    return float(np.max(_residual_over_terms(terms)))


def inversion_report(profile: Profile) -> InversionReport:
    """Defect of the inverted equation satisfied by g(y) = y^(-(n-2)/m) f(1/y).

    In sigma = log y the equation reads, with Gamma = g^m/m and
    E = e^((( n-2-nm)/m - 2) sigma):
        e^(-2 sigma)(Gamma_ss + (n-2) Gamma_s) + E (at g + bt g_sigma) = 0.
    g is read on the table's rows with sigma = -s in the window
    y r_t in [1e-2, 1e2], reversed so that sigma ascends, so each value of g
    comes from one row's W and xi.  Gamma_sigma = -g^m h follows from the
    stored logarithmic derivative, and the outer derivative is taken through
    Q = e^((n-2) sigma) Gamma_sigma, which keeps the exponentially flat end
    (g -> eta_inf) numerically meaningful.  Divided through by E g the
    terms are -e^(Y + log h) (log|Q|)_sigma, at and -bt h, with
    Y = (m-1) log g - ((n-2)/m - n) sigma and log h = log C1 -
    log(1 + e^(-xi)) read off xi, so h never underflows to a log of 0.
    ResolutionError if fewer than 5 rows lie in the window.
    """
    p = profile.params
    n, m, C1 = p.n, p.m, p.C1
    at = p.alpha - (n - 2) / m * p.beta
    bt = -p.beta

    s = profile.s_grid
    rows = _window(profile, -math.log(1e2), -math.log(1e-2),
                   "inverted-equation window y r_t in [0.01, 100]")
    sig, xi, log_wt = -s[rows][::-1], profile.xi[rows][::-1], profile.W[rows][::-1]
    ds = float(sig[1] - sig[0])

    log_g = -C1 * sig + log_wt
    with np.errstate(invalid="ignore"):         # a nan xi reads a nan residual
        log_h = math.log(C1) - np.logaddexp(0.0, -xi)
    dlogQ = deriv_uniform(log_h + (n - 2) * sig + m * log_g, ds, deriv=1)
    Y = (m - 1.0) * log_g[2:-2] - ((n - 2) / m - n) * sig[2:-2]
    lh = log_h[2:-2]
    res = _residual_over_terms([-np.exp(Y + lh) * dlogQ, np.full_like(Y, at), -bt * np.exp(lh)])
    residual = float(np.max(res))

    # involution: applying the transform twice returns f, row by row: the
    # second transform reads g at sigma = -s, which is this row's value
    log_f2 = (n - 2) / m * sig + log_g
    log_f = p.gamma * sig + log_wt
    double_err = float(np.max(np.abs(np.expm1(log_f2 - log_f))))

    return InversionReport(residual=residual, double_inversion_err=double_err)

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
-C1 < z < 0 in continue_left, and the far-field limit r^((n-2)/m) f ->
eta_inf in Profile.far_field_gap.

No check fits a spline: each reads the profile table row by row, and the
residuals read only the rows of their own window, where they take their
derivatives by centred five-point differences at the table's own step.

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
from .profile import Profile, _origin_node, _origin_series

__all__ = [
    "ExpansionReport",
    "InversionReport",
    "expansion_check",
    "wbar_ode_residual",
    "f_ode_residual",
    "inversion_report",
]

_F_WINDOW = (1e-3, 1e3)        # radii on which f_ode_residual is taken


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
    """residual sees a defect in the table's wt or h on every row of its
    window.  double_inversion_err reads one row's log wt on both sides, so
    it is the roundoff of ((n-2)/m - C1 - gamma) sigma on those rows:
    3.55e-15 at the reference point, with or without a 1e-3 dent in wt.  It
    cannot fail, and stays only because perfbench's expansion workload
    reads it."""

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


def _window(s: np.ndarray, lo: float, hi: float, window: str) -> slice:
    """The table rows with lo <= s <= hi that a centred five-point stencil
    reaches, and the two stencil rows on each side of them: a check forms
    its exponentials on these rows only, since past them they can leave the
    double range.  ResolutionError if fewer than 5 such window rows clear
    the table's two edge rows."""
    i = max(int(np.searchsorted(s, lo)), 2)
    j = min(int(np.searchsorted(s, hi, side="right")), s.size - 2)
    if j - i < 5:
        raise ResolutionError(f"{max(j - i, 0)} table rows lie in the {window}; the table "
                              f"spans s in [{s[0]:.6g}, {s[-1]:.6g}]")
    return slice(i - 2, j + 2)


def _residual_over_terms(terms):
    """|sum of terms| / max |term|, elementwise over node arrays."""
    total = np.abs(sum(terms))
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    return total / scale


def wbar_ode_residual(profile: Profile) -> float:
    """Max relative defect of the w-bar equation over rho in [1e-4, 1],
    all derivatives by centered differences in s at the table's own step.
    ResolutionError if fewer than 5 rows lie in the window."""
    p = profile.params
    c = 1.0 / p.beta_p
    s = profile.s_grid
    rows = _window(s, math.log(1e-4) / c, 0.0, "w-bar-equation window rho in [0.0001, 1]")
    ds = float(s[1] - s[0])
    wt = np.exp(profile.W[rows])
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
    + beta r f_r over r in [1e-3, 1e3], all derivatives by centered
    differences in s = log r.  f = e^(-gamma s + W) is formed on the
    window's rows and the two stencil rows on each side only: past them it
    can leave the double range.  ResolutionError if fewer than 5 rows lie
    in the window."""
    p = profile.params
    s = profile.s_grid
    rows = _window(s, math.log(_F_WINDOW[0]), math.log(_F_WINDOW[1]),
                   f"f-equation window r in [{_F_WINDOW[0]:g}, {_F_WINDOW[1]:g}]")
    sw = s[rows]
    f = np.exp(-p.gamma * sw + profile.W[rows])
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
    y in [1e-2, 1e2], reversed so that sigma ascends, so each value of g
    comes from one row's W and h.  Gamma_sigma = -g^m h(-sigma) follows
    from the stored logarithmic derivative; the remaining outer derivative
    is taken numerically through Q = e^((n-2) sigma) Gamma_sigma, which
    keeps the exponentially flat end (g -> eta_inf) numerically meaningful.
    Of its fields only residual can see a defect in wt or h (see
    InversionReport).  ResolutionError if fewer than 5 rows lie in the
    window.
    """
    p = profile.params
    n, m = p.n, p.m
    C1 = p.C1
    at = p.alpha - (n - 2) / m * p.beta
    bt = -p.beta

    s = profile.s_grid
    rows = _window(s, -math.log(1e2), -math.log(1e-2), "inverted-equation window y in [0.01, 100]")
    sig, h_rev, log_wt = -s[rows][::-1], profile.h[rows][::-1], profile.W[rows][::-1]
    ds = float(sig[1] - sig[0])

    log_g = -C1 * sig + log_wt
    g = np.exp(log_g)
    Gamma_sigma = -(g ** m) * h_rev
    Q = np.exp((n - 2) * sig) * Gamma_sigma
    sw = sig[2:-2]
    diffusion = np.exp(-n * sw) * deriv_uniform(Q, ds, deriv=1)
    E = np.exp(((n - 2 - n * m) / m - 2.0) * sw)
    g_sigma = -g[2:-2] * h_rev[2:-2]
    res = _residual_over_terms([diffusion, E * at * g[2:-2], E * bt * g_sigma])
    residual = float(np.max(res))

    # involution: applying the transform twice returns f, row by row: the
    # second transform reads g at sigma = -s, which is this row's value
    log_f2 = (n - 2) / m * sig + log_g
    log_f = p.gamma * sig + log_wt
    double_err = float(np.max(np.abs(np.expm1(log_f2 - log_f))))

    return InversionReport(residual=residual, double_inversion_err=double_err)

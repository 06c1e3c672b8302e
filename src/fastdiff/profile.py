"""Construction of the singular self-similar profile.

The far-field tail of the profile is the unique fixed point of the map

    Phi_1(wt, h)(s) = exp(-int_s^inf h) * exp(-C1 s)
    Phi_2(wt, h)(s) = int_s^inf exp(-b' int_s^rho X - (n-2)(rho-s))
                      * (b' C1 X(rho) + m h(rho)^2) drho,
    X(rho) = exp(-rho / b') * wt(rho)^(1-m),

a 1/5-contraction on the set D_b1 for s >= b1.  Phi_1 is written at the
far-field coefficient eta_inf = lim r^((n-2)/m) f(r) = 1, the one the profile
is built at before rescaling.  Picard iteration on a uniform
s-grid gives (wt, h) on [b1, s_max], by default s_max = b1 + max(40/C2,
-log(tol)/C2): past the grid the map itself takes h = h_T e^(-C2 (s - s_T)),
whose first neglected term is below e^(-40) there.  continue_left builds
the whole Profile from it in one call: the tail continued to the left
through the equivalent ODE system, the rows past the tail's end s_T read
off that analytic tail, and eta_origin = lim r^gamma f from the origin
series matched to the continuation (_origin_match).  The table keeps
W = log wt, f(r) = e^(-gamma s + W) at s = log r, so the scaling family
f_lam(r) = lam^(2/(1-m)) f(lam r) is two exact shifts (rescale_profile).

Numerical notes kept out of the API: the continuation integrates
z = h - C1 and W = log(wt) instead of (h, wt) because the term
b'X(h - C1) loses every significant digit once h hugs C1 (X grows like
exp(|s|/b') there), and the system turns stiff on the left, so it runs
on LSODA (numerics.lsoda_at), which switches to BDF steps where it must
and interpolates each grid node from its own steps.  Below rho =
e^(s/b') = 0.1 it follows q = b'z/rho = wbar_rho/wbar in rho instead:
rho = 0 is an irregular singular point whose solution is smooth in rho,
while z decays like rho against the absolute tolerance, so in s the run
spent about 700 of its 1,125 steps there at the reference point; the two
legs take 216 + 165.  tail_residual
integrates Y = e^(C2 s) Phi_2 instead of Phi_2, which decays like
e^(-C2 s): LSODA's error control then follows an O(1) state, not the
exponential.  Its forcing e^(C2 s) q stays O(1) because C2 = 1/b' +
(1-m) C1 gives e^(C2 s) X = (wt e^(C1 s))^(1-m) <= 1 on D_b1.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import CubicSpline
from scipy.linalg import get_blas_funcs

from .errors import (
    BoundViolationError,
    ExtrapolationError,
    InternalError,
    NonContractionError,
    RangeError,
    ResolutionError,
    ToleranceError,
)
from .numerics import _W_FIRST, _W_LAST, _W_MID, Tolerances, cumulative_integral, lsoda_at
from .params import FPConstants, ParamSet, derive_fp_constants

__all__ = [
    "TailSolution",
    "Profile",
    "picard_solve",
    "tail_residual",
    "continue_left",
    "rescale_profile",
    "solve_for_eta",
    "lambda_for_amplitude",
    "profile_interpolator",
]

PROFILE_DS = 0.01          # uniform spacing of the assembled profile grid
_NOISE_FLOOR = 2e-14       # update norms below this are roundoff, not contraction data
_PICARD_MAX_ITER = 200     # far above the ~8 iterations the 1/5-contraction needs
_TAIL_SAMPLES = 400        # points on which tail_residual compares the two routes
LEFT_ABS_TOL = 1e-14       # continue_left's absolute tolerance on z and W
_ORIGIN_TERMS = 40         # origin series terms: rho* <= c/40 cuts it before its smallest
_ORIGIN_Q_TOL = 1e-10      # relative q defect of the origin match (sweep's worst 2.9e-12)
_RHO_LEG = 0.1             # continue_left integrates in rho = e^(s/b') below this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)   # log of the largest float
# the rho-leg's derivative for a trial state whose own one is not finite:
# far past any true one, yet LSODA's weighted norms of it stay finite
_TRIAL_DERIV = math.sqrt(sys.float_info.max)
# BLAS's banded triangular solve, which _backward_recurrence runs on the tail
(_TBSV,) = get_blas_funcs(("tbsv",), dtype=np.float64)


@dataclass(frozen=True)
class TailSolution:
    """The Picard fixed point (wt, h) on the uniform tail grid [b1, s_max].

    h_spline, the cubic spline of h on the grid, is built on first use and
    kept by the instance: tail_residual and continue_left both read it.
    """
    grid: np.ndarray
    h: np.ndarray
    wt: np.ndarray
    fp_residual: float
    iterations: int
    fp: FPConstants
    update_norms: np.ndarray
    update_ratios: np.ndarray

    @cached_property
    def h_spline(self) -> CubicSpline:
        return CubicSpline(self.grid, self.h)


@dataclass(frozen=True)
class Profile:
    """The profile table on the uniform s-grid, s = log r, with its origin
    coefficient and the tail's Picard data, all built by continue_left.

    Each row stores (s, z, h, W); r = e^s, wt = e^W and f = e^(-gamma s + W)
    are formed by whoever reads them, since f and wt can leave the double
    range at the ends of a deep or rescaled table."""
    params: ParamSet
    eta_inf: float
    s_grid: np.ndarray
    z: np.ndarray              # z = h - C1 = r w_r / w
    h: np.ndarray
    W: np.ndarray              # W(s) = log wt = log(r^gamma f(r)), r = e^s
    eta_origin: float
    # |r^((n-2)/m) f - eta_inf| at the last node, the one check of the
    # far-field limit.  Unless an explicit s_max runs the tail past the
    # table's usual end, that row is the analytic tail, W = -C1 s up to a
    # term below e^(-40), so the gap reads roundoff (0 to 2.2e-16) and
    # cannot see a defect of the table
    far_field_gap: float
    origin_q_defect: float     # relative, so rescaling leaves it as it is; see _origin_match
    fp_residual: float
    picard_iterations: int

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
    # rel(i + 1, i) is a[i] to the bit
    b[1:-1] = ds * (
        w0 * rel(i - 1, i) * q[i - 1]
        + w1 * q[i]
        + w2 * a[1:-1] * q[i + 1]
        + w3 * rel(i + 2, i) * q[i + 2]
    )
    b[0] = ds * sum(_W_FIRST[j] * rel(j, 0) * q[j] for j in range(4))
    last = npts - 2
    b[-1] = ds * sum(_W_LAST[j] * rel(npts - 4 + j, last) * q[npts - 4 + j] for j in range(4))

    # the last node takes the analytic tail of the outer integral
    return wt_new, _backward_recurrence(a, b, q[-1] / (k + C2))


def _backward_recurrence(a, b, last):
    """R_i = a_i R_{i+1} + b_i from R_n = last, right to left: the unit upper
    bidiagonal system R_i - a_i R_{i+1} = b_i, R_n = last, solved by one BLAS
    tbsv call.  Its band storage holds -a on the superdiagonal (row 0, from
    column 1) over the unit diagonal, which diag=1 leaves unread; the
    kernel may fuse each multiply-add, so a node can differ from the same
    loop on floats by a rounding or two."""
    band = np.ones((2, len(a) + 1), order="F")
    band[0, 1:] = -a
    return _TBSV(1, band, np.append(b, last), diag=1, overwrite_x=1)


def picard_solve(fp: FPConstants, s_max: Optional[float] = None, tol: float = 1e-12) -> TailSolution:
    """Iterate (Phi_1, Phi_2) from the seed (e^{-C1 s}, min(C3,eps1) e^{-C2 s})
    until the weighted update norm drops below tol.

    The tail runs from b1 to s_max, by default b1 + max(40/C2, -log(tol)/C2),
    where the term Phi_1 and Phi_2 neglect past the grid is below e^(-40) and
    tol: 4,001 nodes at the reference point.  An explicit s_max below
    b1 + 40/C2 is refused with RangeError, and a tail grid whose D_b1
    weights leave the double range with ResolutionError.

    Membership in D_b1 is asserted for every iterate; the returned
    fp_residual substitutes the fixed point back into the integral equation
    along a route independent of the Picard quadrature (see tail_residual).
    """
    if not 0.0 < tol < math.inf:
        raise RangeError(f"tol must be positive and finite, got {tol}")
    C1, C2, b1 = fp.params.C1, fp.C2, fp.b1
    if s_max is None:
        s_max = b1 + max(40.0 / C2, -math.log(tol) / C2)
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
    # set in place, so the tail keeps the h spline tail_residual built
    object.__setattr__(tail, "fp_residual", tail_residual(tail))
    return tail


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


def tail_residual(tail: TailSolution) -> float:
    """Weighted sup defect of the fixed point in the integral equation.

    Independent route: for frozen (wt, h) the map value y = Phi_2(wt,h)
    satisfies the linear ODE y' = (n-2 + b'X) y - q.  Its scaled state
    Y = e^(C2 s) y solves Y' = (n-2 + C2 + b'X) Y - e^(C2 s) q, whose forcing
    is O(1) since e^(C2 s) X = (wt e^(C1 s))^(1-m) <= 1 on D_b1; Y is
    integrated backward from Y(s_max) = e^(C2 s_max) y(s_max) in one LSODA
    run (numerics.lsoda_at) that outputs the _TAIL_SAMPLES comparison
    points, where h is compared with Y e^(-C2 s).  On y the error control
    would follow its e^(-C2 s) decay step by step: 760 steps where Y takes
    137 at the reference point.  J = int_s^inf h in Phi_1 is the exact
    integral F(s_max) - F(s) of h's cubic spline, F its antiderivative, plus
    the analytic tail h(s_max)/C2.  Comparing against (h, wt) there avoids
    every piece of the Picard quadrature path.
    """
    fp = tail.fp
    p = fp.params
    n, m, bp, C1, C2 = p.n, p.m, p.beta_p, p.C1, fp.C2
    s, h, wt = tail.grid, tail.h, tail.wt
    h_sp = tail.h_spline
    wt_sp = CubicSpline(s, wt)
    h_at, wt_at = _spline_at(h_sp), _spline_at(wt_sp)

    def X_of(sv):
        return math.exp(-sv / bp) * max(wt_at(sv), 0.0) ** (1.0 - m)

    def rhs(sv, Y):
        X = X_of(sv)
        hv = h_at(sv)
        q = bp * C1 * X + m * hv * hv
        return [(n - 2 + C2 + bp * X) * Y[0] - math.exp(C2 * sv) * q]

    def jac(sv, Y):
        return [[n - 2 + C2 + bp * X_of(sv)]]

    y_end = (bp * C1 * math.exp(-s[-1] / bp) * wt[-1] ** (1.0 - m) + m * h[-1] ** 2) / (n - 2 + C2)
    sc = np.linspace(s[0], s[0] + min(20.0, s[-1] - s[0]), _TAIL_SAMPLES)
    # when the window is the whole grid its last sample repeats s_max
    Y, _ = lsoda_at(rhs, jac, [math.exp(C2 * s[-1]) * y_end], np.concatenate([[s[-1]], sc[::-1]]),
                    tol=Tolerances(abs_tol=1e-300, rel_tol=1e-12))
    res_h = np.abs(h_sp(sc) - Y[0, :0:-1] * np.exp(-C2 * sc)) * np.exp(0.5 * C2 * sc)
    F = h_sp.antiderivative()
    phi1 = np.exp(-(F(s[-1]) - F(sc) + h[-1] / C2) - C1 * sc)
    res_wt = np.abs(wt_sp(sc) - phi1) * np.exp(C1 * sc)
    return float(max(res_h.max(), res_wt.max()))


def continue_left(tail: TailSolution, s_min: Optional[float] = None, tol: float = 1e-12) -> Profile:
    """The whole Profile at eta_inf = 1: (h, W = log wt) continued from b1
    down to s_min, and the origin coefficient eta_origin.

    The table ends at max(s_T, min(b1 + max(40, 40/C2, -log(tol)/C2),
    -log(float_min)/C1)), s_T the tail's last node: out to b1 + 40, where the
    checks' fixed windows read it, unless wt = e^W would leave the normal
    floats first.  Rows up to s_T read the tail's splines; rows past it take
    the analytic tail Phi_1 and Phi_2 already assume, h = h_T e^(-C2 (s -
    s_T)), W = -C1 s - h/C2 and z = h - C1.

    Two LSODA runs output the grid nodes below b1.  The s-leg integrates
    z' = (n-2)(z+C1) + b' X z - m (z+C1)^2, W' = z with
    X = exp(-s/b' + (1-m) W) from b1 down to the last node at or below
    rho = e^(s/b') = _RHO_LEG.  The rho-leg continues from there to the
    first node in rho, on q = b' z / rho and P = e^((1-m) W):

        rho^2 q' = a3 - a2 q P - a1 rho q - m rho^2 q^2,   W' = q,

    the w-bar equation of _origin_series, and stores z = rho q / b'.  The
    series never feeds the table, so expansion_check measures it against
    a continuation that does not read it.  The solution keeps
    -C1 < z < 0: z < 0 is asserted strictly at every node and z > -C1
    within integrator slack (BoundViolationError otherwise), on z as
    computed, with no floor.  A first node where rho^2 underflows
    is refused (ResolutionError).  eta_origin and
    origin_q_defect come from _origin_match, which refuses a grid too
    shallow for the origin series (ResolutionError) or a series that
    misses z (ExtrapolationError).
    """
    if not 0.0 < tol < math.inf:
        raise RangeError(f"tol must be positive and finite, got {tol}")
    p = tail.fp.params
    n, m, bp, gamma, C1 = p.n, p.m, p.beta_p, p.gamma, p.C1
    if s_min is None:
        # 40 b', but no deeper than 600/gamma, which caps the table's length:
        # 40 b' alone is s = -2,400, 240,000 rows, at (3, 0.3, 2.881)
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

    a1, a2, a3 = p.a1, p.a2, p.a3

    def P_of(W):
        # capped so that a wild trial state's P is inf-free and exp cannot raise
        return math.exp(min((1.0 - m) * W, _LOG_FLOAT_MAX))

    def rho_rhs(rho, y):
        q, W = y
        dq = (a3 - a2 * q * P_of(W) - a1 * rho * q) / (rho * rho) - m * q * q
        # a Newton trial state far off the solution (the stale Jacobian of a
        # long step toward rho = 0) must fail LSODA's convergence test, which
        # a nan or inf derivative passes: odepack's max-norm drops nan
        return [dq if abs(dq) < _TRIAL_DERIV else _TRIAL_DERIV, q]

    def rho_jac(rho, y):
        q, W = y
        aP, r2 = a2 * P_of(W), rho * rho
        return [[-(aP + a1 * rho) / r2 - 2.0 * m * q, -(1.0 - m) * aP * q / r2], [1.0, 0.0]]

    # one uniform grid across continuation + tail; node n_left is b1 up to
    # roundoff and takes b1's state (LSODA refuses an output a few ulp away)
    n_left = int(math.ceil((b1 - s_min) / PROFILE_DS))
    s_min_adj = b1 - n_left * PROFILE_DS
    # the table's right end (see above): the cap keeps wt = e^W and
    # far_field_gap's e^(C1 s) normal floats
    s_T, h_T, C2 = float(tail.grid[-1]), float(tail.h[-1]), tail.fp.C2
    s_end = max(s_T, min(b1 + max(40.0, 40.0 / C2, -math.log(tol) / C2),
                         -math.log(sys.float_info.min) / C1))
    n_right = int(math.floor((s_end - b1) / PROFILE_DS))
    s_grid = s_min_adj + PROFILE_DS * np.arange(n_left + n_right + 1)
    # the s-leg ends on node k, the last at or below rho = _RHO_LEG, and the
    # rho-leg takes nodes k-1 .. 0 from there
    k = max(int(np.searchsorted(s_grid[:n_left], bp * math.log(_RHO_LEG), side="right")) - 1, 0)
    rho = np.exp(s_grid[:k + 1] / bp)
    if rho[0] * rho[0] < sys.float_info.min:
        raise ResolutionError(f"rho^2 = e^(2 s/b') underflows at the first node s = {s_grid[0]:.6g}; "
                              f"choose a shallower s_min")

    # LSODA controls each step's local error only, so the runs are held 20x
    # inside tol; the floor keeps rel_tol 135 ulp clear of roundoff
    left_tol = Tolerances(abs_tol=LEFT_ABS_TOL, rel_tol=max(tol / 20.0, 3e-14))
    y, _ = lsoda_at(rhs, jac, [float(tail.h[0]) - C1, math.log(float(tail.wt[0]))],
                    np.concatenate([[b1], s_grid[k:n_left][::-1]]), tol=left_tol)
    zl, Wl = y[:, ::-1]
    if k:
        y, _ = lsoda_at(rho_rhs, rho_jac, [bp * float(zl[0]) / float(rho[k]), float(Wl[0])],
                        rho[::-1], tol=left_tol)
        ql, Wr = y[:, :0:-1]
        zl, Wl = np.concatenate([rho[:k] * ql / bp, zl]), np.concatenate([Wr, Wl])
    # rows past s_T take the analytic tail; log wt's tail spline is not kept
    sr = s_grid[n_left + 1:]
    j = int(np.searchsorted(sr, s_T, side="right"))
    h_far = h_T * np.exp(-C2 * (sr[j:] - s_T))
    h_tail = np.concatenate([tail.h_spline(sr[:j]), h_far])
    z = np.concatenate([zl, h_tail - C1])
    W = np.concatenate([Wl, CubicSpline(tail.grid, np.log(tail.wt))(sr[:j]),
                        -C1 * sr[j:] - h_far / C2])

    slack = max(1e3 * max(tol, 1e-13), 1e-9) * max(1.0, C1)
    if not float(np.max(z)) < 0.0 or float(np.min(z)) < -C1 - slack:
        raise BoundViolationError(f"h left (0, C1): z range [{z.min()}, {z.max()}] must lie "
                                  f"below 0 and above -C1 - {slack:.3g}")
    # past b1, h keeps the tail's own values, not C1 + z, which cancels where h << C1
    h = np.concatenate([C1 + zl, h_tail])
    eta, q_defect = _origin_match(s_grid, z, W, p)
    return Profile(
        params=p, eta_inf=1.0, s_grid=s_grid, z=z, h=h, W=W, eta_origin=eta,
        far_field_gap=abs(float(np.exp(W[-1])) * math.exp(C1 * float(s_grid[-1])) - 1.0),
        origin_q_defect=q_defect,
        fp_residual=tail.fp_residual, picard_iterations=tail.iterations,
    )


@functools.cache
def _origin_series(params: ParamSet) -> np.ndarray:
    """Q_k, k < _ORIGIN_TERMS, read-only: q = wbar_rho / wbar = sum Q_k rho^k
    at eta_origin = 1, and q(rho) = lam Q(lam rho), lam = eta^(m-1), at eta.
    With P = wbar^(1-m), the w-bar equation times rho^2 is rho^2 q' + m rho^2
    q^2 + a1 rho q + a2 q P = a3, and P' = (1-m) q P; from P_0 = 1 its powers
    of rho give the recursion below.  rho = 0 is an irregular singular point
    (other solutions differ by exp(-c/rho), c = |a2| eta^(1-m)), so the
    series is asymptotic: cut before its smallest term it errs by about
    exp(-c/rho) (Bender & Orszag, Advanced Mathematical Methods..., ch. 3)."""
    m, a1, a2 = params.m, params.a1, params.a2
    Q, P = np.empty(_ORIGIN_TERMS), np.empty(_ORIGIN_TERMS)
    Q[0], P[0] = params.a3 / a2, 1.0
    for k in range(1, _ORIGIN_TERMS):
        # P_k = ((1-m)/k) sum_{j<k} Q_j P_{k-1-j}; a2 Q_k = -[a2 sum_{0<i<=k}
        # Q_{k-i} P_i + (k-1+a1) Q_{k-1} + m sum_{i<=k-2} Q_i Q_{k-2-i}]
        P[k] = (1.0 - m) / k * (Q[:k] @ P[k - 1::-1])
        Q[k] = -(Q[:k] @ P[k:0:-1]) - ((k - 1 + a1) * Q[k - 1]
                                        + m * (Q[:k - 1] @ Q[:k - 1][::-1])) / a2
    Q.flags.writeable = False
    return Q


def _origin_node(s_grid: np.ndarray, eta: float, params: ParamSet) -> int:
    """Index of the match node rho*, the last at or below min(c/40, max(1e-2,
    2 rho_min)), rho = e^(s/b'): at rho <= c/40 the series' smallest term
    lies past its _ORIGIN_TERMS.  A grid whose first node rho_min lies above
    rho*/2 leaves no window [rho_min, rho*] to fit: ResolutionError."""
    bp = params.beta_p
    rho_min = math.exp(float(s_grid[0]) / bp)
    rho_star = min(-params.a2 * eta ** (1.0 - params.m) / 40.0, max(1e-2, 2.0 * rho_min))
    if 2.0 * rho_min > rho_star:
        raise ResolutionError(f"profile reaches only rho = {rho_min:.3g} > rho*/2 = "
                              f"{rho_star / 2:.3g} of the origin series; extend s_min")
    return int(np.searchsorted(s_grid, bp * math.log(rho_star), side="right")) - 1


def _origin_match(s_grid: np.ndarray, z: np.ndarray, W: np.ndarray,
                  params: ParamSet) -> tuple[float, float]:
    """(eta_origin, q defect): the origin series matched to the continuation
    (z, W = log wt) at the node rho* of _origin_node, c taken at W[0].
    log eta solves log eta = W(rho*) - int_0^rho* q_series(eta), no spline,
    by Newton: its derivative 1 + (1-m)|rho q| > 1 keeps it safe where the
    plain iteration would not contract.  The q defect |rho q_series - b' z| /
    |rho q_series| at rho* checks the series against the state the match
    does not read: the series errs there by about exp(-40), z by
    LEFT_ABS_TOL; the sweep's worst is 2.9e-12, and a defect above
    _ORIGIN_Q_TOL = 1e-10 raises ExtrapolationError."""
    Q = _origin_series(params)
    i = _origin_node(s_grid, math.exp(float(W[0])), params)
    rho, log_eta = math.exp(float(s_grid[i]) / params.beta_p), float(W[0])
    for _ in range(50):
        t = math.exp((params.m - 1.0) * log_eta) * rho          # lam rho
        rq = t * polyval(t, Q)                                  # rho q_series(rho)
        step = (float(W[i]) - log_eta - t * polyval(t, Q / np.arange(1, Q.size + 1))) \
            / (1.0 + (params.m - 1.0) * rq)
        log_eta += step
        if abs(step) <= 1e-15:
            break
    else:
        raise ExtrapolationError(f"origin match did not settle: last step {step:g} in log eta")
    defect = abs(rq - params.beta_p * float(z[i])) / abs(rq)
    if not defect <= _ORIGIN_Q_TOL:
        raise ExtrapolationError(f"origin series misses z at rho* = {rho:.3g}: q defect {defect:.3g}")
    return math.exp(log_eta), defect


def rescale_profile(profile: Profile, lam: float) -> Profile:
    """The scaling family f_lam(r) = lam^(2/(1-m)) f(lam r) applied to the
    table: s shifts by -log lam and W = log wt by (2/(1-m) - gamma) log lam."""
    if not 0.0 < lam < math.inf:
        raise RangeError(f"lambda must be positive and finite, got {lam}")
    p = profile.params
    two1m = 2.0 / (1.0 - p.m)
    try:
        kappa = lam ** (two1m - p.gamma)                 # wt and eta_origin scale
        kappa_inf = lam ** (two1m - (p.n - 2) / p.m)     # eta_inf scale
    except OverflowError:
        raise RangeError(f"lambda = {lam:.3g} takes the scale factors past the float range") from None
    log_lam = math.log(lam)
    return replace(
        profile,
        eta_inf=profile.eta_inf * kappa_inf,
        s_grid=profile.s_grid - log_lam,
        W=profile.W + (two1m - p.gamma) * log_lam,
        eta_origin=profile.eta_origin * kappa,
        far_field_gap=profile.far_field_gap * abs(kappa_inf),
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
    # no name holds the tail, so it and its h spline die after continue_left
    prof = continue_left(picard_solve(fp, s_max=s_max, tol=tol), s_min=s_min, tol=tol)
    return rescale_profile(prof, lambda_for_amplitude(prof, target_eta))


def lambda_for_amplitude(profile: Profile, a: float) -> float:
    """Scaling factor lam with origin coefficient eta(f_lam) = a, by the
    scaling law eta_origin ~ lam^(2/(1-m) - gamma)."""
    if not 0.0 < a < math.inf:
        raise RangeError(f"amplitude must be positive and finite, got {a}")
    p = profile.params
    try:
        return float((a / profile.eta_origin) ** (1.0 / (2.0 / (1.0 - p.m) - p.gamma)))
    except OverflowError:
        raise RangeError(f"amplitude {a:.3g} needs a lambda past the float range") from None


def profile_interpolator(profile: Profile):
    """Callable f(r) on the profile's radial range; RangeError outside it.

    Interpolates log wt cubically in s = log r, so relative accuracy is
    uniform over the full dynamic range of f.  A float radius (the boundary
    traces of the experiments) takes a scalar path that gives the array
    path's bits: _spline_at and numpy's own log and exp.
    """
    s = profile.s_grid
    spline = CubicSpline(s, profile.W)
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
        r_arr = np.asarray(r, dtype=float)
        if not np.all(r_arr > 0):
            raise RangeError("radius must be positive, got a non-positive or nan value")
        sq = np.log(r_arr)
        if float(sq.min()) < lo - 1e-12 or float(sq.max()) > hi + 1e-12:
            raise out_of_table(sq.min(), sq.max())
        return np.exp(-gamma * sq + spline(np.clip(sq, lo, hi)))

    return f_of_r

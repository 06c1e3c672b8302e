"""Construction of the singular self-similar profile.

The far-field tail of the profile is the unique fixed point of the map

    Phi_1(W, h)(s) = -int_s^inf h - C1 s
    Phi_2(W, h)(s) = int_s^inf exp(-b' int_s^rho X - (n-2)(rho-s))
                     * (b' C1 X(rho) + m h(rho)^2) drho,
    X(rho) = exp((1-m) W(rho) - rho / b'),

a 1/5-contraction on the set D_b1 for s >= b1, whose bounds read the scaled
state v = wt e^(C1 s) = e^(W + C1 s), W = log wt.  Phi_1 is written at the
far-field coefficient eta_inf = lim r^((n-2)/m) f(r) = 1, the one the profile
is built at before rescaling.  Picard iteration on a uniform s-grid gives
(W, h) on [b1, s_T], s_T = b1 + max(40/C2, -log(tol)/C2): past the grid the
map itself takes h = h_T e^(-C2 (s - s_T)), whose first neglected term is
below e^(-40) there.  It starts on the first term of the far-field
expansion r^((n-2)/m) f = 1 + d_inf r^(-C2) + ..., h = -C2 d_inf e^(-C2 s)
with d_inf = -b' C1 / (C2 (n-2+C2)), which lies in D_b1 (_tail_seed).
continue_left builds the whole Profile from it in one call: the tail continued
to the left through the equivalent ODE system, up to the tail's last node,
and eta_origin = lim r^gamma f from the origin series matched to the
continuation (_origin_match).  The table keeps W too, f(r) = e^(-gamma s + W)
at s = log r, so the scaling family f_lam(r) = lam^(2/(1-m)) f(lam r) is two
exact shifts (rescale_profile).

Numerical notes kept out of the API: each row stores the logit
xi = log(h/(-z)) of the log-slope, z = h - C1 = r w_r/w, which lies in
(-C1, 0), and h = C1/(1 + e^(-xi)) and z = -C1/(1 + e^xi) are formed from
it.  Neither ever cancels: C1 + z loses every digit of h once h falls
below C1's rounding (b1 reaches 227 at (3, 0.3, 2.881)), and h - C1 every
digit of z once z falls below it on the left.  The continuation integrates
(xi, W = log wt) in s, and the system turns stiff on the left, so it runs
on LSODA (numerics.lsoda_at), which switches to BDF steps where it must
and interpolates each grid node from its own steps.  Below rho =
e^(s/b') = 0.1 it follows q = b'z/rho = wbar_rho/wbar in rho instead:
rho = 0 is an irregular singular point whose solution is smooth in rho,
while z decays like rho, which took most of the steps of a run in s.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
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
from .numerics import _W_FIRST, _W_LAST, _W_MID, cumulative_integral, hermite, lsoda_at
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

PROFILE_DS = 0.01          # cap on the profile grid's uniform step min(PROFILE_DS, 0.02/C2)
_NOISE_FLOOR = 2e-14       # update norms below this are roundoff, not contraction data
_PICARD_MAX_ITER = 200     # far above the ~8 iterations the 1/5-contraction needs
_TAIL_SAMPLES = 400        # points on which tail_residual compares the two routes
LEFT_ABS_TOL = 1e-14       # continue_left's absolute tolerance on its states
_ORIGIN_TERMS = 40         # origin series terms: rho* <= c/40 cuts it before its smallest
_ORIGIN_Q_TOL = 1e-10      # relative q defect of the origin match (sweep's worst 2.9e-12)
_RHO_LEG = 0.1             # continue_left integrates in rho = e^(s/b') below this
_CONTRACTION = 0.2         # the paper's contraction factor of Phi on D_b1
_ORIGIN_FRACTION = 0.02    # rho* of the origin match is at most this times rho_t's
# most rows of a profile table; the largest default one holds 402,636, at
# (3, 0.00667, 2.753), and no tail grid reaches it (see picard_solve)
_MAX_NODES = 10**7
_LOG_FLOAT_MAX = math.log(sys.float_info.max)   # log of the largest float
# continue_left's derivative for a trial state whose own one is not finite:
# far past any true one, yet LSODA's norms of it and the difference
# quotients of its Jacobian stay finite
_TRIAL_DERIV = math.sqrt(sys.float_info.max)
# BLAS's banded triangular solve, which _backward_recurrence runs on the tail
(_TBSV,) = get_blas_funcs(("tbsv",), dtype=np.float64)


@dataclass(frozen=True)
class TailSolution:
    """The Picard fixed point (W = log wt, h) on the tail grid [b1, s_T].
    fp_residual, its defect along tail_residual's independent route, is one
    LSODA run, made on first read and kept; between the nodes the tail is
    read through _tail_hermite, which keeps nothing on the instance."""
    grid: np.ndarray
    h: np.ndarray
    W: np.ndarray
    iterations: int
    fp: FPConstants
    update_norms: np.ndarray
    update_ratios: np.ndarray

    @cached_property
    def fp_residual(self) -> float:
        return tail_residual(self)


@dataclass(frozen=True)
class Profile:
    """The profile table on the uniform s-grid, s = log r, with its origin
    coefficient and the tail it was continued from, all built by
    continue_left.

    Each row stores (s, xi, W); r = e^s, wt = e^W and f = e^(-gamma s + W)
    are formed by whoever reads them, since f and wt can leave the double
    range at the ends of a deep or rescaled table, and so are h, z and
    r f_r/f from xi.  xi is finite on every row, so 0 < h < C1 holds by
    construction, though the float h reads 0 where C1 e^xi underflows.
    fp_residual and picard_iterations are the tail's, read through it, so
    every profile that shares the tail reads the same residual float."""
    params: ParamSet
    eta_inf: float
    s_grid: np.ndarray
    xi: np.ndarray             # xi = log(h / (-z)), the logit of the log-slope
    W: np.ndarray              # W(s) = log wt = log(r^gamma f(r)), r = e^s
    eta_origin: float
    origin_q_defect: float     # relative, so rescaling leaves it as it is; see _origin_match
    tail: TailSolution

    @property
    def fp_residual(self) -> float:
        """The tail's fixed-point residual, tail_residual(tail)."""
        return self.tail.fp_residual

    @property
    def picard_iterations(self) -> int:
        """The tail's Picard iteration count."""
        return self.tail.iterations

    @property
    def h(self) -> np.ndarray:
        """h = C1 / (1 + e^(-xi)) at every node, 0 where e^(-xi) overflows."""
        with np.errstate(over="ignore"):
            return self.params.C1 / (1.0 + np.exp(-self.xi))

    @property
    def z(self) -> np.ndarray:
        """z = h - C1 = r w_r / w = -C1 / (1 + e^xi) at every node."""
        return -self.params.C1 / (1.0 + np.exp(self.xi))

    @property
    def rfr_over_f(self) -> np.ndarray:
        """r f_r / f = (r w_r / w) - gamma at every node."""
        return self.z - self.params.gamma

    @property
    def transition(self) -> int:
        """Index of the first row with xi <= 0, z <= -C1/2, where the far
        field takes over from the origin regime; ResolutionError if none."""
        t = int(np.argmax(self.xi <= 0.0))
        if not self.xi[t] <= 0.0:
            raise ResolutionError("no row has xi <= 0 (z <= -C1/2): the table ends before the transition")
        return t


def _weighted_norm(dv, dh, weights):
    return max(float(np.max(np.abs(dv))), float(np.max(np.abs(dh) * weights[1])))


def _check_membership(v, h, fp, slack, weights):
    """All D_b1 constraints on (v = e^(W + C1 s), h): distance to the anchor
    (1, 0) <= eps1 in the weighted norm, v <= eta_inf = 1, 0 <= h e^(C2 s) <= C3."""
    anchor_gap = _weighted_norm(v - 1.0, h, weights)
    if anchor_gap > fp.eps1 + slack:
        raise InternalError(f"iterate left D_b1: anchor distance {anchor_gap} > eps1 = {fp.eps1}")
    top = float(np.max(v))
    if top > 1.0 + slack:
        raise InternalError(f"iterate left D_b1: v = e^(W + C1 s) reached {top} > eta_inf = 1")
    hw = h * weights[0]
    if float(np.min(hw)) < -slack or float(np.max(hw)) > fp.C3 + slack:
        raise InternalError(f"iterate left D_b1: h e^(C2 s) range [{hw.min()}, {hw.max()}] outside [0, C3]")


def _phi_map(W, h, s, ds, fp):
    """One simultaneous application of (Phi_1, Phi_2) to (W, h) on the
    uniform grid, with X = exp((1-m) W - s/b') formed as one exp.

    The outer integral of Phi_2 is accumulated right to left through
    R_i = a_i R_{i+1} + b_i with every exponential argument <= O(ds), so
    nothing ever overflows or cancels regardless of the span.
    """
    p = fp.params
    n, m, bp, C1, C2 = p.n, p.m, p.beta_p, p.C1, fp.C2

    # Phi_1, with the analytic tail h_T/C2 of int h past the grid:
    # -(J + h_T/C2) - C1 s, formed in place
    W_new = cumulative_integral(h, ds, "backward")
    W_new += h[-1] / C2
    np.negative(W_new, out=W_new)
    W_new -= C1 * s

    # Phi_2; X = exp((1-m) W - s/b') and q = b'C1 X + m h h
    X = np.multiply(W, 1.0 - m)
    X -= s / bp
    np.exp(X, out=X)
    G = cumulative_integral(X, ds, "forward")
    q, term = np.multiply(X, bp * C1), np.multiply(h, m)
    term *= h
    q += term

    k = n - 2
    npts = s.size
    # E[j] relative to interval start i: exp(-bp*(G[j]-G[i]) - k*(s[j]-s[i]))
    def rel(j_idx, i_idx):
        return np.exp(-bp * (G[j_idx] - G[i_idx]) - k * ds * (j_idx - i_idx))

    def rel_into(out, Gj, Gi, shift):
        # rel on slices, into out: exp(-bp (Gj - Gi) + shift), shift = -k ds (j - i)
        np.subtract(Gj, Gi, out=out)
        out *= -bp
        out += shift
        return np.exp(out, out=out)

    a = rel_into(np.empty(npts - 1), G[1:], G[:-1], -k * ds)    # carry factor across one interval
    b = np.empty(npts - 1)
    w0, w1, w2, w3 = _W_MID
    # b_i / ds = w0 rel(i - 1, i) q[i-1] + w1 q[i] + w2 rel(i + 1, i) q[i+1]
    # + w3 rel(i + 2, i) q[i+2] on i = 1 .. npts - 3, summed left to right
    # in place from slices: j - i is constant, so k ds (j - i) is the same
    # float, and rel(i + 1, i) is a[i] to the bit; term's first npts - 3
    # entries are the scratch row
    Gi, mid, term = G[1:-2], b[1:-1], term[:npts - 3]
    rel_into(mid, G[:-3], Gi, k * ds)
    mid *= w0
    mid *= q[:-3]
    mid += np.multiply(q[1:-2], w1, out=term)
    np.multiply(a[1:-1], w2, out=term)
    term *= q[2:-1]
    mid += term
    rel_into(term, G[3:], Gi, -2 * k * ds)
    term *= w3
    term *= q[3:]
    mid += term
    mid *= ds
    b[0] = ds * sum(_W_FIRST[j] * rel(j, 0) * q[j] for j in range(4))
    last = npts - 2
    b[-1] = ds * sum(_W_LAST[j] * rel(npts - 4 + j, last) * q[npts - 4 + j] for j in range(4))

    # the last node takes the analytic tail of the outer integral
    return W_new, _backward_recurrence(a, b, q[-1] / (k + C2))


def _backward_recurrence(a, b, last):
    """R_i = a_i R_{i+1} + b_i from R_n = last, right to left: the unit upper
    bidiagonal system R_i - a_i R_{i+1} = b_i, R_n = last, solved by one BLAS
    tbsv call.  Its band storage holds -a on the superdiagonal (row 0, from
    column 1) over the unit diagonal, which diag=1 leaves unread, as it
    does band[0, 0]: both stay unset.  The kernel may fuse each
    multiply-add, so a node can differ from the same loop on floats by a
    rounding or two."""
    band = np.empty((2, len(a) + 1), order="F")
    np.negative(a, out=band[0, 1:])
    x = np.empty(len(b) + 1)
    x[:-1] = b
    x[-1] = last
    return _TBSV(1, band, x, diag=1, overwrite_x=1)


def _tail_seed(fp: FPConstants, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Picard's start (W0, h0) on the tail grid s: the first term of the
    far-field expansion, h0 = c e^(-C2 s) with c = min(b' C1/(n-2+C2), C3,
    eps1), and W0 = Phi_1(h0) = -C1 s - h0/C2.

    b' C1/(n-2+C2) = -C2 d_inf is h's leading coefficient, from
    r^((n-2)/m) f = 1 + d_inf r^(-C2) + ...: Phi_2 of the anchor
    (W, h) = (-C1 s, 0) to first order in its X = e^(-C2 s).  The seed lies
    in D_b1: h0 e^(C2 s) = c lies in [0, C3], v0 = e^(W0 + C1 s) <= 1, and
    its weighted distance to the anchor (1, 0) is at most eps1: c e^(-C2 s/2)
    <= c <= eps1 in h, and in v 1 - e^(-h0/C2) <= (c/C2) e^(-C2 b1) <=
    C5 e^(-C2 b0) <= eps1, since C5 = C3/C2 and b0 takes
    log((C3+C5)/eps1) into account."""
    p = fp.params
    c = min(p.beta_p * p.C1 / (p.n - 2 + fp.C2), fp.C3, fp.eps1)
    h = c * np.exp(-fp.C2 * s)
    return -p.C1 * s - h / fp.C2, h


def picard_solve(fp: FPConstants, tol: float = 1e-12) -> TailSolution:
    """Iterate (Phi_1, Phi_2) from the first term of the far-field expansion
    (_tail_seed) until the weighted update norm drops below tol.

    The tail runs from b1 to s_T = b1 + max(40/C2, -log(tol)/C2), where the
    term Phi_1 and Phi_2 neglect past the grid is below e^(-40) and tol, at
    a step of at most 0.01/C2, the scale of h: max(40, -log tol)/0.01 + 1
    nodes, 4,001 at tol = 1e-12 and about 74,400 at the smallest positive
    tol.  A tail whose D_b1 weight e^(C2 s) leaves the double range is
    refused with ResolutionError before any array is made.

    Membership in D_b1 is asserted for every iterate, on v = e^(W + C1 s),
    and the 1/5-contraction for each update ratio whose norms lie above
    _NOISE_FLOOR (NonContractionError).  The tail's fp_residual, computed on
    first read, puts the fixed point back into the integral equation along
    a route independent of the Picard quadrature (see tail_residual).
    """
    if not 0.0 < tol < math.inf:
        raise RangeError(f"tol must be positive and finite, got {tol}")
    C1, C2, b1 = fp.params.C1, fp.C2, fp.b1
    s_T = b1 + max(40.0 / C2, -math.log(tol) / C2)
    # D_b1's weights e^(C2 s), e^(C2 s/2); one past the double range would
    # make h e^(C2 s) = 0 * inf = nan, which passes every bound test.  Below
    # it b1 < 710/C2 cannot absorb 40/C2, so the grid has at least 4,000 steps
    if not C2 * s_T <= _LOG_FLOAT_MAX:
        raise ResolutionError(f"D_b1 weight e^(C2 s) overflows on the tail grid "
                              f"[{b1:.6g}, {s_T:.6g}] (C2 = {C2:.6g})")
    nseg = int(math.ceil((s_T - b1) / (0.01 / C2)))
    ds = (s_T - b1) / nseg
    s = b1 + ds * np.arange(nseg + 1)
    weights = (np.exp(C2 * s), np.exp(0.5 * C2 * s))

    slack = 2e-12
    C1s = C1 * s
    W, h = _tail_seed(fp, s)
    v = np.exp(W + C1s)
    _check_membership(v, h, fp, slack, weights)

    norms, ratios = [], []
    for it in range(1, _PICARD_MAX_ITER + 1):
        W_new, h_new = _phi_map(W, h, s, ds, fp)
        v_new = np.add(W_new, C1s)
        np.exp(v_new, out=v_new)
        _check_membership(v_new, h_new, fp, slack, weights)
        upd = _weighted_norm(v_new - v, h_new - h, weights)
        if norms and norms[-1] > _NOISE_FLOOR and upd > _NOISE_FLOOR:
            ratio = upd / norms[-1]
            ratios.append(ratio)
            if ratio > _CONTRACTION:
                raise NonContractionError(f"update ratio {ratio:.3g} at iteration {it} is above "
                                          f"the contraction factor {_CONTRACTION:g} of Phi on D_b1")
        norms.append(upd)
        W, h, v = W_new, h_new, v_new
        if upd <= tol:
            break
    else:
        raise ToleranceError(f"Picard iteration did not reach {tol} in {_PICARD_MAX_ITER} iterations")

    return TailSolution(
        grid=s, h=h, W=W, iterations=it, fp=fp,
        update_norms=np.asarray(norms), update_ratios=np.asarray(ratios),
    )


def _tail_hermite(tail: TailSolution):
    """(h_at, W_at): the tail's h and W interpolated by numerics.hermite on
    its nodes, with the slopes its equations give there: W' = z = h - C1
    (Phi_1) and h' = (n-2 + b'X) h - b'C1 X - m h^2 (Phi_2's ODE, the one
    tail_residual integrates)."""
    p, g, h, W = tail.fp.params, tail.grid, tail.h, tail.W
    m, bp, C1 = p.m, p.beta_p, p.C1
    X = np.exp((1.0 - m) * W - g / bp)
    dh = (p.n - 2 + bp * X) * h - bp * C1 * X - m * h * h
    return hermite(g, h, dh), hermite(g, W, h - C1)


def tail_residual(tail: TailSolution) -> float:
    """Weighted sup defect of the fixed point in the integral equation.

    Independent route: for frozen (W, h) the map value y = Phi_2(W, h)
    satisfies the linear ODE y' = (n-2 + b'X) y - q.  Its scaled state
    Y = e^(C2 s) y solves Y' = (n-2 + C2 + b'X) Y - e^(C2 s) q, whose forcing
    is O(1) since e^(C2 s) X = e^((1-m)(W + C1 s)) <= 1 on D_b1; Y is
    integrated backward from Y(s_T) = e^(C2 s_T) y(s_T) in one LSODA run
    (numerics.lsoda_at) that outputs the _TAIL_SAMPLES comparison points,
    spaced evenly over the whole tail [b1, s_T], where h is compared with
    Y e^(-C2 s); on y the error control would follow its decay step by step.
    Between the nodes h and W = log wt are the tail's Hermite interpolants
    (_tail_hermite), which read only the node values and the equations;
    J = int_s^inf h in Phi_1 is h's exact integral to s_T plus the analytic
    tail h(s_T)/C2.  W enters as X = exp((1-m) W - s/b') and as the scaled
    state e^(W + C1 s) compared with e^(-J), Phi_1's: up to s_T, where
    W + C1 s fixes eta_inf = 1, so this is also the far-field check.  Comparing against (h, W) there avoids every piece of the Picard
    quadrature path.
    """
    p = tail.fp.params
    n, m, bp, C1, C2 = p.n, p.m, p.beta_p, p.C1, tail.fp.C2
    s, h, W = tail.grid, tail.h, tail.W
    h_at, W_at = _tail_hermite(tail)

    def rhs(sv, Y):
        X = math.exp((1.0 - m) * W_at(sv) - sv / bp)
        hv = h_at(sv)
        q = bp * C1 * X + m * hv * hv
        return [(n - 2 + C2 + bp * X) * Y[0] - math.exp(C2 * sv) * q]

    y_end = (bp * C1 * math.exp((1.0 - m) * W[-1] - s[-1] / bp) + m * h[-1] ** 2) / (n - 2 + C2)
    sc = np.linspace(s[0], s[-1], _TAIL_SAMPLES)
    # the last sample repeats the run's start s_T
    Y, _ = lsoda_at(rhs, [math.exp(C2 * s[-1]) * y_end], np.concatenate([[s[-1]], sc[::-1]]),
                    rel_tol=1e-12, abs_tol=1e-300)
    res_h = np.abs(h_at(sc) - Y[0, :0:-1] * np.exp(-C2 * sc)) * np.exp(0.5 * C2 * sc)
    res_W = np.abs(np.exp(W_at(sc) + C1 * sc) - np.exp(-(h_at.integral(sc) + h[-1] / C2)))
    return float(max(res_h.max(), res_W.max()))


def _logit(h, mz) -> np.ndarray:
    """xi = log(h / (-z)) from finite h and -z = C1 - h; BoundViolationError,
    before the log, unless both are positive (nan is not), which is
    0 < h < C1."""
    if not (np.all(h > 0.0) and np.all(mz > 0.0)):
        bad = ~(np.greater(h, 0.0) & np.greater(mz, 0.0))
        raise BoundViolationError(f"h left (0, C1) on {int(np.sum(bad))} rows: h in "
                                  f"[{np.min(h):.6g}, {np.max(h):.6g}], -z = C1 - h in "
                                  f"[{np.min(mz):.6g}, {np.max(mz):.6g}]")
    return np.log(h / mz)


def continue_left(tail: TailSolution, s_min: Optional[float] = None, tol: float = 1e-12) -> Profile:
    """The whole Profile at eta_inf = 1: (xi, W = log wt) continued from b1
    down to s_min, and the origin coefficient eta_origin.

    The table's uniform step is min(PROFILE_DS, 0.02/C2), so the far
    field's e^(-C2 s) takes at least 50 rows per e-fold.  Its rows past b1
    are the tail's Hermite interpolants (_tail_hermite), up to the last
    node at or below the tail's last one s_T; past s_T,
    profile_interpolator reads the analytic tail.

    Two LSODA runs output the grid nodes below b1.  The s-leg integrates

        xi' = ((n-2) - m h)(1 + e^xi) - b'(X + X e^(-xi)),   W' = z,

    h = C1/(1 + e^(-xi)), z = -C1/(1 + e^xi), X = exp(-s/b' + (1-m) W),
    from xi = log h(b1) - log(C1 - h(b1)) down to the last node at or below
    rho = e^(s/b') = _RHO_LEG.  The rho-leg continues from there to the
    first node in rho, on q = b' z / rho and P = e^((1-m) W):

        rho^2 q' = a3 - a2 q P - a1 rho q - m rho^2 q^2,   W' = q,

    the w-bar equation of _origin_series, and stores xi = log(C1 + z) -
    log(-z), z = rho q / b': the series never feeds the table.  Refused: a
    row, or the start h(b1), whose h or -z is not positive, before its log
    (BoundViolationError); a first node where rho^2 underflows, or a grid
    too shallow for the origin series (ResolutionError); a series that
    misses z (ExtrapolationError, _origin_match); a table of more than
    _MAX_NODES rows, before any array is made (RangeError).
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

    # a Newton trial state far off the solution must fail LSODA's
    # convergence test, which a nan or inf derivative passes (odepack's
    # max-norm drops nan): each exp argument is capped at the log of the
    # largest float, and a derivative past _TRIAL_DERIV reads _TRIAL_DERIV,
    # so LSODA's difference-quotient Jacobian of it stays finite too.
    # E = e^xi, Y = X e^(-xi), so X = Y E, and h = C1 E/(1 + E): two exp
    # calls, and no 1/E
    n2, mC1, L = n - 2, m * C1, _LOG_FLOAT_MAX

    def rhs(sv, y):
        xi, W = y
        a = (1.0 - m) * W - sv / bp - xi
        E, Y = math.exp(xi if xi < L else L), math.exp(a if a < L else L)
        E1 = 1.0 + E
        dxi = (n2 - mC1 * (E / E1)) * E1 - bp * (Y * E + Y)
        return [dxi if abs(dxi) < _TRIAL_DERIV else _TRIAL_DERIV, -C1 / E1]

    a1, a2, a3, m1 = p.a1, p.a2, p.a3, 1.0 - m

    # P = e^((1-m) W), its argument capped as min(arg, L) would, nan
    # included, so that a wild trial state's P is inf-free and exp cannot
    # raise; a trial state far off the solution (the stale Jacobian of a
    # long step toward rho = 0) is guarded as the s-leg's is
    def rho_rhs(rho, y):
        q, W = y
        a = m1 * W
        dq = (a3 - a2 * q * math.exp(L if a > L else a) - a1 * rho * q) / (rho * rho) - m * q * q
        return [dq if abs(dq) < _TRIAL_DERIV else _TRIAL_DERIV, q]

    def rho_jac(rho, y):
        q, W = y
        a = m1 * W
        aP, r2 = a2 * math.exp(L if a > L else a), rho * rho
        return [[-(aP + a1 * rho) / r2 - 2.0 * m * q, -m1 * aP * q / r2], [1.0, 0.0]]

    # one uniform grid across continuation + tail, at a step that resolves
    # the tail's decay rate C2; node n_left is b1 up to roundoff and takes
    # b1's state (LSODA refuses an output a few ulp away)
    s_T, ds = float(tail.grid[-1]), min(PROFILE_DS, 0.02 / tail.fp.C2)
    rows = (s_T - s_min) / ds + 2.0      # n_left + n_right + 1 rows, fewer than this
    if not rows <= _MAX_NODES:
        raise RangeError(f"the profile table would hold {rows:.3g} nodes, over the budget of "
                         f"{_MAX_NODES:,}; choose a shorter range")
    n_left = int(math.ceil((b1 - s_min) / ds))
    s_min_adj = b1 - n_left * ds
    n_right = int(math.floor((s_T - b1) / ds))
    s_grid = s_min_adj + ds * np.arange(n_left + n_right + 1)
    # the s-leg ends on node k, the last at or below rho = _RHO_LEG, and the
    # rho-leg takes nodes k-1 .. 0 from there
    k = max(int(np.searchsorted(s_grid[:n_left], bp * math.log(_RHO_LEG), side="right")) - 1, 0)
    rho = np.exp(s_grid[:k + 1] / bp)
    if rho[0] * rho[0] < sys.float_info.min:
        raise ResolutionError(f"rho^2 = e^(2 s/b') underflows at the first node s = {s_grid[0]:.6g}; "
                              f"choose a shallower s_min")

    # LSODA controls each step's local error only, so the runs are held 20x
    # inside tol; the floor keeps rel_tol 135 ulp clear of roundoff
    left_tol = {"rel_tol": max(tol / 20.0, 3e-14), "abs_tol": LEFT_ABS_TOL}
    h_b1 = float(tail.h[0])
    y, _ = lsoda_at(rhs, [float(_logit(h_b1, C1 - h_b1)), float(tail.W[0])],
                    np.concatenate([[b1], s_grid[k:n_left][::-1]]), **left_tol)
    xil, Wl = y[:, ::-1]
    zr = np.empty(0)
    if k:
        zk = rhs(float(s_grid[k]), [float(xil[0]), float(Wl[0])])[1]     # the s-leg's W' = z
        y, _ = lsoda_at(rho_rhs, [bp * zk / float(rho[k]), float(Wl[0])], rho[::-1],
                        jac=rho_jac, **left_tol)
        ql, Wr = y[:, :0:-1]
        zr, Wl = rho[:k] * ql / bp, np.concatenate([Wr, Wl])
    h_tail, W_tail = (at(s_grid[n_left + 1:]) for at in _tail_hermite(tail))
    xi = np.concatenate([_logit(C1 + zr, -zr), xil, _logit(h_tail, C1 - h_tail)])
    W = np.concatenate([Wl, W_tail])
    prof = Profile(
        params=p, eta_inf=1.0, s_grid=s_grid, xi=xi, W=W, eta_origin=math.nan,
        origin_q_defect=math.nan, tail=tail,
    )
    eta, q_defect = _origin_match(prof)
    return replace(prof, eta_origin=eta, origin_q_defect=q_defect)


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


def _origin_node(profile: Profile, eta: float) -> int:
    """Index of the match node rho*, the last at or below min(c/40,
    max(_ORIGIN_FRACTION rho_t, 2 rho_min)), rho = e^(s/b') formed on its log,
    rho_t the transition row's: at rho <= c/40 the series' smallest term lies
    past its _ORIGIN_TERMS.  A first node rho_min above rho*/2 leaves no
    window [rho_min, rho*] to fit: ResolutionError."""
    s_grid, bp = profile.s_grid, profile.params.beta_p
    if not eta > 0.0:
        raise ResolutionError(f"origin coefficient eta = {eta} has no origin series to match")
    log_rho_min = float(s_grid[0]) / bp
    log_rho_star = min(math.log(-profile.params.a2 * eta ** (1.0 - profile.params.m) / 40.0),
                       max(math.log(_ORIGIN_FRACTION) + float(s_grid[profile.transition]) / bp,
                           math.log(2.0) + log_rho_min))
    if math.log(2.0) + log_rho_min > log_rho_star:
        raise ResolutionError(f"profile reaches only rho = {math.exp(min(log_rho_min, _LOG_FLOAT_MAX)):.3g}"
                              f" > rho*/2 = {math.exp(log_rho_star) / 2:.3g} of the origin series; "
                              f"extend s_min")
    return int(np.searchsorted(s_grid, bp * log_rho_star, side="right")) - 1


def _horner(t, coeffs: list[float]):
    """polyval(t, coeffs) for a float or an array t: polyval's start
    c[-1] + t*0, then acc = acc t + c, in place on an array.  The same
    float operations in the same order, so the same bits."""
    acc = coeffs[-1] + t * 0.0
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _origin_match(profile: Profile) -> tuple[float, float]:
    """(eta_origin, q defect): the origin series matched to the continuation
    (z, W = log wt) at the node rho* of _origin_node, c taken at W[0].
    log eta solves log eta = W(rho*) - int_0^rho* q_series(eta), no spline,
    by Newton: its derivative 1 + (1-m)|rho q| > 1 keeps it safe where the
    plain iteration would not contract.  The q defect |rho q_series - b' z| /
    |rho q_series| at rho* checks the series against the state the match
    does not read: the series errs there by about exp(-40), z by
    LEFT_ABS_TOL; the sweep's worst is 2.9e-12, and a defect above
    _ORIGIN_Q_TOL = 1e-10 raises ExtrapolationError."""
    params, W = profile.params, profile.W
    Q = _origin_series(params)
    q_coeffs, int_coeffs = Q.tolist(), (Q / np.arange(1, Q.size + 1)).tolist()
    i = _origin_node(profile, math.exp(float(W[0])))
    rho, log_eta = math.exp(float(profile.s_grid[i]) / params.beta_p), float(W[0])
    for _ in range(50):
        t = math.exp((params.m - 1.0) * log_eta) * rho          # lam rho
        rq = t * _horner(t, q_coeffs)                           # rho q_series(rho)
        step = (float(W[i]) - log_eta - t * _horner(t, int_coeffs)) \
            / (1.0 + (params.m - 1.0) * rq)
        log_eta += step
        if abs(step) <= 1e-15:
            break
    else:
        raise ExtrapolationError(f"origin match did not settle: last step {step:g} in log eta")
    z = float(-params.C1 / (1.0 + np.exp(profile.xi[i])))     # Profile.z at row i alone
    defect = abs(rq - params.beta_p * z) / abs(rq)
    if not defect <= _ORIGIN_Q_TOL:
        raise ExtrapolationError(f"origin series misses z at rho* = {rho:.3g}: q defect {defect:.3g}")
    return math.exp(log_eta), defect


def rescale_profile(profile: Profile, lam: float) -> Profile:
    """The scaling family f_lam(r) = lam^(2/(1-m)) f(lam r) applied to the
    table: s shifts by -log lam and W = log wt by (2/(1-m) - gamma) log lam.
    RangeError for a lam that takes a scale factor past the float range or
    eta_origin below the normal floats; eta_inf, which no check reads, may
    underflow."""
    if not 0.0 < lam < math.inf:
        raise RangeError(f"lambda must be positive and finite, got {lam}")
    p = profile.params
    two1m = 2.0 / (1.0 - p.m)
    try:
        kappa = lam ** (two1m - p.gamma)                 # wt and eta_origin scale
        kappa_inf = lam ** (two1m - (p.n - 2) / p.m)     # eta_inf scale
    except OverflowError:
        raise RangeError(f"lambda = {lam:.3g} takes the scale factors past the float range") from None
    eta = profile.eta_origin * kappa
    if eta < sys.float_info.min:
        raise RangeError(f"lambda = {lam:.3g} takes eta_origin below the normal floats: {eta:.3g}")
    log_lam = math.log(lam)
    return replace(
        profile,
        eta_inf=profile.eta_inf * kappa_inf,
        s_grid=profile.s_grid - log_lam,
        W=profile.W + (two1m - p.gamma) * log_lam,
        eta_origin=eta,
    )


def solve_for_eta(params: ParamSet, target_eta: float, tol: float = 1e-12,
                  b1_margin: float = 0.05, s_min: Optional[float] = None) -> Profile:
    """Profile with prescribed origin coefficient lim r^gamma f = target_eta.

    Builds the base profile at eta_inf = 1, reads off its origin coefficient,
    and rescales: the scaling law eta_origin ~ lam^(2/(1-m) - gamma) pins
    lambda uniquely."""
    if not 0.0 < target_eta < math.inf:
        raise RangeError(f"target_eta must be positive and finite, got {target_eta}")
    fp = derive_fp_constants(params, b1_margin=b1_margin)
    # the profile keeps its tail, and with it fp_residual once it is read
    prof = continue_left(picard_solve(fp, tol=tol), s_min=s_min, tol=tol)
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
    """Callable f(r) for finite r from the table's first radius on;
    RangeError below it, and for r <= 0, inf or nan.

    Interpolates log wt in s = log r by numerics.hermite on the table's
    (W, z), z = W' on every row, so relative accuracy is uniform over the
    full dynamic range of f.  Past the last row (s_e, W_e, h_e) it reads
    the analytic tail, W = W_e - C1 d + (h_e/C2)(1 - e^(-C2 d)), d = s - s_e,
    in any rescaled frame.  A float radius (the boundary traces
    of the experiments) takes a scalar path that gives the array path's
    bits: hermite's float path and numpy's own log, exp and expm1.
    """
    s = profile.s_grid
    log_wt_at = hermite(s, profile.W, profile.z)
    gamma, C1, C2 = profile.params.gamma, profile.params.C1, profile.tail.fp.C2
    lo, hi = float(s[0]), float(s[-1])
    W_e, hC2 = float(profile.W[-1]), float(profile.h[-1]) / C2

    def log_wt_past(d):
        return W_e - C1 * d - hC2 * np.expm1(-C2 * d)

    def f_of_r(r):
        if isinstance(r, float):
            if not 0.0 < r < math.inf:
                raise RangeError(f"radius must be positive and finite, got {r}")
            sq = float(np.log(r))
            if sq < lo - 1e-12:
                raise RangeError(f"radius below profile table: log r = {sq:.3f} < {lo:.3f}")
            log_wt = log_wt_past(sq - hi) if sq > hi else log_wt_at(max(sq, lo))
            return float(np.exp(-gamma * sq + log_wt))
        r_arr = np.asarray(r, dtype=float)
        if not np.all((r_arr > 0) & (r_arr < math.inf)):
            raise RangeError("radius must be positive and finite, got a non-positive, inf or nan value")
        sq = np.log(r_arr)
        if float(sq.min()) < lo - 1e-12:
            raise RangeError(f"radius below profile table: log r = {sq.min():.3f} < {lo:.3f}")
        log_wt = log_wt_at(np.clip(sq, lo, hi))
        past = sq > hi
        if past.any():
            log_wt[past] = log_wt_past(sq[past] - hi)
        return np.exp(-gamma * sq + log_wt)

    return f_of_r

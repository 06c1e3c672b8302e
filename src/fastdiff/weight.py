"""The radial weight phi_mu and weighted L1 distances.

phi_mu(r) = 1 - a4 * int_0^r s^(1-n) (int_0^s rho^(n-1) eta1(rho) drho) ds,
normalized so phi -> a4 r^(-mu) at infinity.  The bump eta1 vanishes on
[0,1], equals mu(n-2-mu) r^(-mu-2) beyond 2, and is bridged by a fixed
C-infinity ramp in between so the construction is reproducible bit for bit.
phi is superharmonic: Delta phi = -a4 eta1 <= 0.  One LSODA run on [1, 2]
gives both integrals at the table radii and, at its end, the constants;
beyond 2 phi takes its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import GridMismatchError, RangeError
from .numerics import integrate_table, lsoda_at

__all__ = ["BumpSpec", "WeightFunction", "WeightedGrid", "build_weight", "eval_weight", "weighted_grid"]

TABLE_SIZE = 4096
TABLE_RMIN = 1e-3


@dataclass(frozen=True)
class BumpSpec:
    """Bump exponent and dimension; the transition ramp is fixed by the module."""

    mu: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.n) and int(self.n) == self.n and self.n >= 3):
            raise RangeError(f"dimension n must be an integer >= 3, got {self.n}")
        if not 0.0 < self.mu < self.n - 2:
            raise RangeError(f"mu must lie in (0, n-2) = (0, {self.n - 2}), got {self.mu}")

    def eta1(self, r):
        """Smooth non-negative bump: 0 on [0,1], mu(n-2-mu) r^(-mu-2) beyond 2,
        that power times the ramp e^(-1/x) / (e^(-1/x) + e^(-1/(1-x))), x = r - 1,
        in between, at a float r (numpy's exp, so tables reproduce bit for
        bit)."""
        if r <= 1.0:
            return 0.0
        x = r - 1.0
        lo = np.exp(-1.0 / x)
        hi = np.exp(-1.0 / (1.0 - x)) if x < 1.0 else 0.0
        return float(self.mu * (self.n - 2 - self.mu) * r ** (-self.mu - 2.0) * (lo / (lo + hi)))


@dataclass(frozen=True)
class WeightFunction:
    spec: BumpSpec
    a4: float
    a5: float
    k0: float
    R0: float
    table_r: np.ndarray
    table_phi: np.ndarray
    table_dphi: np.ndarray
    _phi_spline: CubicSpline
    _dphi_spline: CubicSpline

    # closed-form helpers for the analytic branch r > 2
    @property
    def _tail_coef(self) -> float:
        n, mu = self.spec.n, self.spec.mu
        return (self.a5 - mu * 2.0 ** (n - 2 - mu)) / (n - 2)

    def phi_tail(self, r):
        n, mu = self.spec.n, self.spec.mu
        r = np.asarray(r, dtype=float)
        return self.a4 * self._tail_coef * r ** (2.0 - n) + self.a4 * r ** (-mu)

    def dphi_tail(self, r):
        n, mu = self.spec.n, self.spec.mu
        r = np.asarray(r, dtype=float)
        return -(n - 2) * self.a4 * self._tail_coef * r ** (1.0 - n) - mu * self.a4 * r ** (-mu - 1.0)


def build_weight(spec: BumpSpec) -> WeightFunction:
    """Construct phi_mu from one LSODA run on [1, 2] for I = int_1^r rho^(n-1)
    eta1 and J = int_1^r s^(1-n) I(s) ds: a5 = I(2), a4 = 1/(J(2) + k0), the
    dense table phi = 1 - a4 J, phi' = -a4 r^(1-n) I on [1e-3, 2], the
    analytic branch beyond 2, and the computed radius R0 past which the
    two-sided power-law bounds on (phi, phi') hold."""
    n, mu = spec.n, spec.mu

    def rhs(r, y):
        return [r ** (n - 1) * spec.eta1(r), r ** (1.0 - n) * y[0]]

    table_r = np.geomspace(TABLE_RMIN, 2.0, TABLE_SIZE)
    mask = table_r > 1.0
    # I rises from 0 through about 1e-7 at the bump's onset (r = 1.1), and J
    # more slowly still, so the absolute tolerance sits far below that
    (I, J), _ = lsoda_at(rhs, [0.0, 0.0], np.concatenate([[1.0], table_r[mask]]),
                         rel_tol=1e-13, abs_tol=1e-18)
    a5 = float(I[-1])
    k0 = (2.0 ** (2 - n) * a5 + (n - 2 - mu) * 2.0 ** (-mu)) / (n - 2)
    # J >= 0 since eta1 >= 0 and k0 > 0 since n - 2 - mu > 0, so a4 > 0;
    # phi(2) = 1 - a4 J(2) = a4 k0 and phi'(2) = -a4 2^(1-n) a5 are the
    # analytic branch's own values at 2
    a4 = 1.0 / (float(J[-1]) + k0)
    table_phi = np.ones(TABLE_SIZE)
    table_dphi = np.zeros(TABLE_SIZE)
    table_phi[mask] = 1.0 - a4 * J[1:]
    table_dphi[mask] = -a4 * table_r[mask] ** (1.0 - n) * I[1:]

    # interpolation over (1, 2]; below 1 the weight is exactly (1, 0)
    sub = table_r >= 0.5
    phi_spline = CubicSpline(table_r[sub], table_phi[sub])
    dphi_spline = CubicSpline(table_r[sub], table_dphi[sub])

    w = WeightFunction(
        spec=spec, a4=a4, a5=a5, k0=k0, R0=math.nan,
        table_r=table_r, table_phi=table_phi, table_dphi=table_dphi,
        _phi_spline=phi_spline, _dphi_spline=dphi_spline,
    )
    object.__setattr__(w, "R0", _find_r0(w))
    return w


def _find_r0(w: WeightFunction) -> float:
    """Radius R0 >= 2 past which both two-sided bounds hold:
    a4/2 < phi r^mu < 2 a4 and mu a4/2 < -phi' r^(mu+1) < 2 mu a4.  Past 2,
    phi r^mu / a4 - 1 = k r^(-(n-2-mu)), k = _tail_coef, and the correction of
    -phi' r^(mu+1) / (mu a4) is (n-2)/mu > 1 times it, so both lie inside 1/2
    past R0 = max(2, (2 (n-2) |k| / mu)^(1/(n-2-mu))).  RangeError for an R0
    past the float range."""
    n, mu = w.spec.n, w.spec.mu
    try:
        return max(2.0, (2.0 * (n - 2) * abs(w._tail_coef) / mu) ** (1.0 / (n - 2 - mu)))
    except OverflowError:
        raise RangeError(f"R0 lies past the float range at mu = {mu}, n = {n}") from None


def eval_weight(w: WeightFunction, r):
    """Arrays (phi, phi') of r's shape at the radii r >= 0: exact 1 below
    the bump, cubic interpolation on the bump interval, closed form beyond 2."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0) or not np.all(np.isfinite(r_arr)):
        raise RangeError("radius must be finite and non-negative")
    phi = np.ones_like(r_arr)
    dphi = np.zeros_like(r_arr)
    mid = (r_arr > 1.0) & (r_arr <= 2.0)
    far = r_arr > 2.0
    if mid.any():
        phi[mid] = w._phi_spline(r_arr[mid])
        dphi[mid] = w._dphi_spline(r_arr[mid])
    if far.any():
        phi[far] = w.phi_tail(r_arr[far])
        dphi[far] = w.dphi_tail(r_arr[far])
    return phi, dphi


@dataclass(frozen=True)
class WeightedGrid:
    """The per-grid part of the weighted distance on one log-uniform grid of
    at least 4 nodes: e^(n x) = r^n, phi_mu at the nodes, the spacing dx in
    x = log r and the sphere area omega_n.  Build it once with weighted_grid
    and take any number of distances on that grid."""

    exp_nx: np.ndarray
    phi: np.ndarray
    dx: float
    omega: float

    def distance(self, u, v, mode: str = "abs") -> float:
        """The n-dimensional radial integral of |u-v| phi_mu (or of the
        positive part (u-v)+ phi_mu)."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if u.shape != self.phi.shape or v.shape != self.phi.shape:
            raise GridMismatchError("values and grid have different shapes")
        if mode == "abs":
            diff = np.abs(u - v)
        elif mode == "positive-part":
            diff = np.clip(u - v, 0.0, None)
        else:
            raise RangeError(f"mode must be 'abs' or 'positive-part', got {mode!r}")
        return self.omega * integrate_table(self.exp_nx * diff * self.phi, self.dx)


def weighted_grid(w: WeightFunction, r) -> WeightedGrid:
    """The weighted distance's per-grid part on the grid r: a log-uniform
    grid of at least 4 nodes (log_grid makes one), GridMismatchError
    otherwise; RangeError unless every radius is finite and positive."""
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < math.inf)):
        raise RangeError("weighted distance needs finite positive radii")
    x = np.log(r)
    if x.ndim != 1 or x.size < 4 or not np.allclose(np.diff(x), x[1] - x[0], rtol=1e-8, atol=0.0):
        raise GridMismatchError("weighted distance needs a log-uniform grid of at least 4 nodes")
    n = w.spec.n
    return WeightedGrid(exp_nx=np.exp(n * x), phi=eval_weight(w, r)[0], dx=float(x[1] - x[0]),
                        omega=2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0))


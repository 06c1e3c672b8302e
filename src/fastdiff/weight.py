"""The radial weight phi_mu and weighted L1 distances.

phi_mu(r) = 1 - a4 * int_0^r s^(1-n) (int_0^s rho^(n-1) eta1(rho) drho) ds,
normalized so phi -> a4 r^(-mu) at infinity.  The bump eta1 vanishes on
[0,1], equals mu(n-2-mu) r^(-mu-2) beyond 2, and is bridged by a fixed
C-infinity ramp in between so the construction is reproducible bit for bit.
phi is superharmonic: Delta phi = -a4 eta1 <= 0.  Below 1 phi is exactly 1;
one LSODA run on [1, 2] gives both integrals at the table radii, which span
the bump interval, and, at its end, the constants; beyond 2 phi takes its
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError, RangeError
from .numerics import hermite, integrate_table, lsoda_at

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
    k: float                   # phi = a4 (k r^(2-n) + r^(-mu)) beyond 2
    R0: float
    table_r: np.ndarray
    table_phi: np.ndarray
    table_dphi: np.ndarray
    _phi_at: Callable          # numerics.hermite on (phi, phi') over the table
    _dphi_at: Callable         # and on (phi', phi'')


def build_weight(spec: BumpSpec) -> WeightFunction:
    """Construct phi_mu from one LSODA run on [1, 2] for I = int_1^r rho^(n-1)
    eta1 and J = int_1^r s^(1-n) I(s) ds: a5 = I(2), a4 = 1/(J(2) + k0), the
    table phi = 1 - a4 J, phi' = -a4 r^(1-n) I at the nodes of
    geomspace(1e-3, 2, 4096) from the last one at or below 1 onward, whose
    first row is (1, 0, 0), with phi'' = -a4 ((1-n) r^(-n) I + eta1) for its
    Hermite interpolants, and the closed form a4 (k r^(2-n) + r^(-mu))
    beyond 2, k = (a5 - mu 2^(n-2-mu)) / (n-2).  R0 >= 2 is the radius past
    which both two-sided bounds hold: a4/2 < phi r^mu < 2 a4 and
    mu a4/2 < -phi' r^(mu+1) < 2 mu a4.  Past 2, phi r^mu / a4 - 1 =
    k r^(-(n-2-mu)), and the correction of -phi' r^(mu+1) / (mu a4) is
    (n-2)/mu > 1 times it, so both lie inside 1/2 past
    R0 = max(2, (2 (n-2) |k| / mu)^(1/(n-2-mu))).  RangeError for an R0
    past the float range."""
    n, mu = spec.n, spec.mu

    def rhs(r, y):
        return [r ** (n - 1) * spec.eta1(r), r ** (1.0 - n) * y[0]]

    table_r = np.geomspace(TABLE_RMIN, 2.0, TABLE_SIZE)
    table_r = table_r[np.searchsorted(table_r, 1.0, side="right") - 1:]
    r = table_r[1:]
    # I rises from 0 through about 1e-7 at the bump's onset (r = 1.1), and J
    # more slowly still, so the absolute tolerance sits far below that
    (I, J), _ = lsoda_at(rhs, [0.0, 0.0], np.concatenate([[1.0], r]), rel_tol=1e-13, abs_tol=1e-18)
    a5 = float(I[-1])
    k0 = (2.0 ** (2 - n) * a5 + (n - 2 - mu) * 2.0 ** (-mu)) / (n - 2)
    # J >= 0 since eta1 >= 0 and k0 > 0 since n - 2 - mu > 0, so a4 > 0;
    # phi(2) = 1 - a4 J(2) = a4 k0 and phi'(2) = -a4 2^(1-n) a5 are the
    # closed form's own values at 2
    a4 = 1.0 / (float(J[-1]) + k0)
    k = (a5 - mu * 2.0 ** (n - 2 - mu)) / (n - 2)
    try:
        R0 = max(2.0, (2.0 * (n - 2) * abs(k) / mu) ** (1.0 / (n - 2 - mu)))
    except OverflowError:
        raise RangeError(f"R0 lies past the float range at mu = {mu}, n = {n}") from None
    # row 0, at or below 1, is exactly (1, 0, 0); the formulas give -0.0 there
    table_phi = np.concatenate([[1.0], 1.0 - a4 * J[1:]])
    table_dphi = np.concatenate([[0.0], -a4 * r ** (1.0 - n) * I[1:]])
    ddphi = np.concatenate([[0.0], -a4 * ((1.0 - n) * r ** (-n) * I[1:]
                                          + [spec.eta1(rv) for rv in r.tolist()])])
    return WeightFunction(
        spec=spec, a4=a4, a5=a5, k0=k0, k=k, R0=R0,
        table_r=table_r, table_phi=table_phi, table_dphi=table_dphi,
        _phi_at=hermite(table_r, table_phi, table_dphi), _dphi_at=hermite(table_r, table_dphi, ddphi),
    )


def eval_weight(w: WeightFunction, r):
    """Arrays (phi, phi') of r's shape at the radii r >= 0: exact (1, 0) up
    to 1, cubic Hermite interpolation on the table over (1, 2], closed form
    beyond 2."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0) or not np.all(np.isfinite(r_arr)):
        raise RangeError("radius must be finite and non-negative")
    phi = np.ones_like(r_arr)
    dphi = np.zeros_like(r_arr)
    mid = (r_arr > 1.0) & (r_arr <= 2.0)
    far = r_arr > 2.0
    phi[mid], dphi[mid] = w._phi_at(r_arr[mid]), w._dphi_at(r_arr[mid])
    n, mu, a4, k, rf = w.spec.n, w.spec.mu, w.a4, w.k, r_arr[far]
    phi[far] = a4 * k * rf ** (2.0 - n) + a4 * rf ** (-mu)
    dphi[far] = -(n - 2) * a4 * k * rf ** (1.0 - n) - mu * a4 * rf ** (-mu - 1.0)
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


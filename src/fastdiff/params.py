"""Parameter derivations for singular self-similar profiles.

The profile family is indexed by the dimension n >= 3, the exponent
0 < m < (n-2)/n and the origin decay rate gamma with
2/(1-m) < gamma < (n-2)/m.  Everything else (the self-similar exponents, the
origin expansion coefficients, the fixed-point constants of the tail) is
derived algebra and lives here.

There is no time normalization alpha(1-m) = 2 beta - rho1: f -> k f maps
(alpha, beta, rho1) to k^(m-1) (alpha, beta, rho1), so the rho1 profile at
origin coefficient eta is k f_1 at eta/k, k = rho1^(1/(m-1)).  The origin
coefficient spans that family, and only at rho1 = 1 does
V = t^(-alpha) f(t^(-beta) x) solve u_t = Laplacian(u^m/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateError, InternalError, RangeError

__all__ = [
    "ParamSet",
    "FPConstants",
    "derive_params",
    "derive_fp_constants",
]

# Pole detection for 2 - gamma(1-m); admissible gamma sits strictly above the
# pole, but callers probing the boundary deserve DegenerateError, not a huge
# finite beta from roundoff.
_POLE_TOL = 1e-10


@dataclass(frozen=True)
class ParamSet:
    """Validated parameters plus the derived self-similar exponents and the
    coefficients of the origin expansion equation.

    alpha and beta are both negative; alpha_p, beta_p are their positive
    mirrors.  In the variable rho = r^(1/beta') the function
    wbar(rho) = r^gamma f(r) satisfies
        (wbar'/wbar)' + m (wbar'/wbar)^2 + (a1/rho)(wbar'/wbar)
            + (a2/rho^2)(wbar'/wbar^m) = a3/rho^2,
    with a2 < 0 < a3 throughout the admissible range.
    gamma_in_convergence_range flags n <= gamma < (n-2)/m, the regime in
    which rescaled solutions converge to the profile.
    """

    n: int
    m: float
    gamma: float
    alpha: float
    beta: float
    alpha_p: float
    beta_p: float
    a1: float
    a2: float
    a3: float
    gamma_in_convergence_range: bool

    @property
    def C1(self) -> float:
        """(n-2)/m - gamma > 0: the far-field rate r^(-(n-2)/m) over the origin rate r^(-gamma)."""
        return (self.n - 2) / self.m - self.gamma


@dataclass(frozen=True)
class FPConstants:
    """Constants that drive the tail fixed-point construction at eta_inf = 1
    (C1 is params.C1)."""

    params: ParamSet
    C2: float
    C3: float
    C4: float
    C5: float
    eps1: float
    b0: float
    b1: float


def derive_params(n: int, m: float, gamma: float, rho1: float = 1.0) -> ParamSet:
    """Validate parameters and package them with the self-similar exponents
    and the origin expansion coefficients.

    beta = 1 / (2 - gamma(1-m)) and alpha = (2 beta - 1)/(1-m); the pair
    satisfies alpha/beta = gamma and alpha(1-m) = 2 beta - 1 exactly.

    rho1 must be 1 (see the module docstring): it stays only because
    perfbench/workloads.py passes it, and goes once that call drops it.
    """
    if not (math.isfinite(n) and int(n) == n and n >= 3):
        raise RangeError(f"dimension n must be an integer >= 3, got {n}")
    if not 0.0 < m < (n - 2) / n:
        raise RangeError(f"exponent m must satisfy 0 < m < (n-2)/n = {(n - 2) / n}, got {m}")
    if rho1 != 1.0:
        raise RangeError(f"rho1 must be 1, got {rho1}: the rho1 profile at origin coefficient "
                         f"eta is k f_1 at eta/k, k = rho1^(1/(m-1)), f_1 the rho1 = 1 profile")
    denom = 2.0 - gamma * (1.0 - m)
    if abs(denom) < _POLE_TOL * max(1.0, abs(gamma)):
        raise DegenerateError(
            f"gamma = {gamma} sits on the pole gamma = 2/(1-m) = {2.0 / (1.0 - m)}"
        )
    if not 2.0 / (1.0 - m) < gamma < (n - 2) / m:
        raise RangeError(
            f"gamma must satisfy 2/(1-m) = {2.0 / (1.0 - m)} < gamma < (n-2)/m = {(n - 2) / m}, got {gamma}"
        )
    beta = 1.0 / denom
    alpha = (2.0 * beta - 1.0) / (1.0 - m)
    if not (alpha < 0.0 and beta < 0.0):
        raise InternalError(f"derived exponents must be negative, got alpha={alpha}, beta={beta}")
    a1 = 2.0 * m * alpha - (n - 2) * beta + 1.0
    a2 = -(beta * beta)
    a3 = alpha * beta * (n - 2) - m * alpha * alpha
    if not a2 < 0.0:
        raise InternalError(f"a2 must be negative, got {a2}")
    if not a3 > 0.0:
        raise InternalError(f"a3 must be positive in the admissible range, got {a3}")
    return ParamSet(
        n=int(n),
        m=float(m),
        gamma=float(gamma),
        alpha=alpha,
        beta=beta,
        alpha_p=-alpha,
        beta_p=-beta,
        a1=a1,
        a2=a2,
        a3=a3,
        gamma_in_convergence_range=bool(n <= gamma < (n - 2) / m),
    )


def derive_fp_constants(params: ParamSet, b1_margin: float = 0.05) -> FPConstants:
    """Derive the contraction constants C2..C5, eps1 and the tail anchors b0, b1
    at the far-field coefficient eta_inf = lim r^((n-2)/m) f(r) = 1.

    The profile is built there and rescaled to its origin coefficient (see
    solve_for_eta).  b0 is the abscissa beyond which the tail map is a
    1/5-contraction on its invariant set; b1 = b0 * (1 + b1_margin) is where
    the construction actually starts.
    """
    if not 0.0 < b1_margin < math.inf:
        raise RangeError(f"b1_margin must be positive and finite, got {b1_margin}")
    m, bp, C1 = params.m, params.beta_p, params.C1
    C2 = 1.0 / bp + (1.0 - m) * C1
    if not (C1 > 0.0 and C2 > 0.0):
        raise InternalError(f"C1, C2 must be positive in the admissible range, got {C1}, {C2}")
    if not C2 * C2 < math.inf:       # C2 ** 2 below would raise OverflowError
        raise RangeError(f"m = {m:.3g} puts C2 = {C2:.3g} past the square root of the largest float")
    C3 = (bp * C1 + m) / C2
    C4 = max(
        2.0 * C3 / C2,
        (2.0 ** m) * bp * C1 / C2,
        (2.0 ** m) * bp / C2 ** 2 * (bp * C1 + C3 ** 2),
    )
    eps1 = 0.5
    # smallest constant with 1 - exp(-(C3/C2) x) <= C5 x for x >= 0
    C5 = C3 / C2
    b0 = (4.0 / C2) * max(
        1.0,
        math.log(15.0 * C4),
        math.log((10.0 + C3 + bp) / C2),
        math.log((C3 + C5) / eps1),
    )
    return FPConstants(
        params=params,
        C2=C2,
        C3=C3,
        C4=C4,
        C5=C5,
        eps1=eps1,
        b0=b0,
        b1=b0 * (1.0 + b1_margin),
    )

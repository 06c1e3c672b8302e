"""Tests for the superharmonic weight: normalization constants against an
independent high-precision quadrature route and against scipy's quad at
four more points, pointwise values at mid-bump radii, knot continuity,
discrete superharmonicity, and weighted distances."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fastdiff import (
    BumpSpec,
    GridMismatchError,
    RangeError,
    build_weight,
    eval_weight,
    weighted_grid,
)

# Reference values computed with mpmath at 30 significant digits via nested
# adaptive quadrature of the double integral (no Fubini collapse, no ODE
# table), frozen here so the package route is checked against a second,
# structurally different route.  ACCEPTANCE 07 reads A4_REF from here.
A4_REF = 2.4383375566777101284
A5_REF = 0.095657688976735854698
K0_REF = 0.40138223508164168955
# (phi, dphi) at mid-bump radii from the same high-precision route.
MIDBUMP_REF = {
    1.25: (0.999965463216553763650824051015, -0.000976495829939593953993821498116),
    1.50: (0.998239681020418107573188926070, -0.015777474883096718468249599137),
    1.75: (0.991269322860052748900081393995, -0.040212060980428314743016311187),
}


class TestBumpSpec:
    def test_validation(self):
        with pytest.raises(RangeError):
            BumpSpec(mu=0.0, n=3)
        with pytest.raises(RangeError):
            BumpSpec(mu=1.0, n=3)  # mu must stay below n - 2
        with pytest.raises(RangeError):
            BumpSpec(mu=-0.3, n=4)
        with pytest.raises(RangeError):
            BumpSpec(mu=0.5, n=2)
        with pytest.raises(RangeError):
            BumpSpec(mu=0.5, n=3.5)
        for n in (math.inf, math.nan):  # int(n) raised OverflowError / ValueError
            with pytest.raises(RangeError):
                BumpSpec(mu=0.5, n=n)

    def test_eta1_support_and_tail(self):
        spec = BumpSpec(mu=0.5, n=3)
        assert float(spec.eta1(0.7)) == 0.0
        assert float(spec.eta1(1.0)) == 0.0
        assert float(spec.eta1(1.5)) > 0.0
        # beyond 2 the bump is exactly the power law mu (n-2-mu) r^(-mu-2)
        for r in (2.0, 3.0, 10.0):
            expect = 0.5 * (3 - 2 - 0.5) * r ** (-2.5)
            assert float(spec.eta1(r)) == pytest.approx(expect, rel=1e-15)

    def test_eta1_nonnegative_and_smooth_onset(self):
        spec = BumpSpec(mu=0.5, n=3)
        r = np.linspace(0.0, 5.0, 2001)
        vals = np.vectorize(spec.eta1, otypes=[float])(r)
        assert np.all(vals >= 0.0)
        assert np.all(np.isfinite(vals))
        # the ramp is flat to all orders at r = 1
        assert float(spec.eta1(1.001)) < 1e-300


class TestNormalizationOracle:
    def test_a4_a5_k0_match_independent_route(self, weight_ref):
        assert weight_ref.a4 == pytest.approx(A4_REF, rel=1e-12)
        assert weight_ref.a5 == pytest.approx(A5_REF, rel=1e-12)
        assert weight_ref.k0 == pytest.approx(K0_REF, rel=1e-12)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("mu, n", [(1.5, 5), (0.25, 3), (2.0, 8), (0.97, 3)])
    def test_a4_a5_match_quad_away_from_the_reference(self, mu, n):
        # a5 and, by Fubini on the triangle, 1/a4 - k0 as single integrals
        # over [1, 2] through scipy's quad at 1e-13 (it warns at 1e-14).
        # Measured gaps: up to 1.1e-13 in a4 and 2.7e-13 in a5
        spec = BumpSpec(mu=mu, n=n)
        w = build_weight(spec)
        tol = dict(epsabs=1e-13, epsrel=1e-13)
        a5 = quad(lambda rho: rho ** (n - 1) * spec.eta1(rho), 1.0, 2.0, **tol)[0]
        k0 = (2.0 ** (2 - n) * a5 + (n - 2 - mu) * 2.0 ** (-mu)) / (n - 2)
        inv_a4 = k0 + quad(lambda rho: spec.eta1(rho) * rho ** (n - 1)
                           * (rho ** (2.0 - n) - 2.0 ** (2.0 - n)) / (n - 2), 1.0, 2.0, **tol)[0]
        assert abs(w.a5 - a5) <= 1e-12 * a5
        assert abs(w.a4 * inv_a4 - 1.0) <= 1e-12

    def test_build_is_deterministic(self):
        spec = BumpSpec(mu=0.5, n=3)
        w1 = build_weight(spec)
        w2 = build_weight(spec)
        assert w1.a4 == w2.a4
        assert w1.R0 == w2.R0
        assert np.array_equal(w1.table_phi, w2.table_phi)


class TestEvalWeight:
    def test_exact_below_bump(self, weight_ref):
        phi, dphi = eval_weight(weight_ref, np.array([0.0, 0.3, 1.0]))
        assert np.all(phi == 1.0)
        assert np.all(dphi == 0.0)

    def test_midbump_against_oracle(self, weight_ref):
        phi, dphi = eval_weight(weight_ref, np.array(list(MIDBUMP_REF)))
        phi_ref, dphi_ref = np.array(list(MIDBUMP_REF.values())).T
        assert phi == pytest.approx(phi_ref, rel=1e-12)
        assert dphi == pytest.approx(dphi_ref, rel=1e-8)

    def test_continuity_at_knots(self, weight_ref):
        # value and slope are continuous where the three branches meet
        (phi_lo, phi_in, phi_out), (dphi_lo, dphi_in, dphi_out) = eval_weight(
            weight_ref, np.array([1.0 + 1e-12, 2.0, 2.0 + 1e-13]))
        assert abs(phi_lo - 1.0) <= 1e-12
        assert abs(dphi_lo) <= 1e-12
        assert abs(phi_in - phi_out) <= 1e-12
        assert abs(dphi_in - dphi_out) <= 1e-12

    def test_dphi_is_derivative_of_phi(self, weight_ref):
        rs = np.geomspace(2.5, 40.0, 25)
        h = 1e-5 * rs
        fd_slope = (eval_weight(weight_ref, rs + h)[0] - eval_weight(weight_ref, rs - h)[0]) / (2 * h)
        dphi = eval_weight(weight_ref, rs)[1]
        assert np.max(np.abs(fd_slope - dphi) / np.abs(dphi)) <= 1e-8
        rs = np.linspace(1.2, 1.95, 31)
        fd_slope = (eval_weight(weight_ref, rs + 1e-6)[0] - eval_weight(weight_ref, rs - 1e-6)[0]) / 2e-6
        assert np.max(np.abs(fd_slope - eval_weight(weight_ref, rs)[1])) <= 1e-8

    def test_monotone_positive_bounded(self, weight_ref):
        r = np.geomspace(1e-3, 1e8, 3001)
        phi, dphi = eval_weight(weight_ref, r)
        assert np.all(phi > 0.0)
        assert np.all(phi <= 1.0)
        assert np.all(dphi <= 1e-15)
        assert np.all(np.diff(phi) <= 1e-15)

    def test_array_semantics(self, weight_ref):
        arr = np.array([0.5, 1.5, 3.0])
        phi, dphi = eval_weight(weight_ref, arr)
        assert phi.shape == arr.shape and dphi.shape == arr.shape

    def test_invalid_radius(self, weight_ref):
        with pytest.raises(RangeError):
            eval_weight(weight_ref, np.array([-1.0]))
        with pytest.raises(RangeError):
            eval_weight(weight_ref, np.array([1.0, np.nan]))
        with pytest.raises(RangeError):
            eval_weight(weight_ref, np.array([np.inf]))


class TestSuperharmonicity:
    def _discrete_laplacian(self, w, nodes):
        x = np.linspace(np.log(0.05), np.log(50.0), nodes)
        dx = x[1] - x[0]
        r = np.exp(x)
        phi, _ = eval_weight(w, r)
        n = w.spec.n
        lap = np.exp(-2 * x[1:-1]) * (
            (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / dx**2
            + (n - 2) * (phi[2:] - phi[:-2]) / (2 * dx)
        )
        return r[1:-1], lap

    def test_discrete_laplacian_nonpositive(self, weight_ref):
        _, lap = self._discrete_laplacian(weight_ref, 4001)
        assert float(np.max(lap)) <= 1e-8

    def test_laplacian_matches_minus_a4_eta1(self, weight_ref):
        # Delta phi = -a4 eta1; the centered stencil converges at order 2
        r_c, lap_c = self._discrete_laplacian(weight_ref, 1001)
        r_f, lap_f = self._discrete_laplacian(weight_ref, 4001)
        eta1 = np.vectorize(weight_ref.spec.eta1, otypes=[float])
        err_c = np.max(np.abs(lap_c + weight_ref.a4 * eta1(r_c)))
        err_f = np.max(np.abs(lap_f + weight_ref.a4 * eta1(r_f)))
        assert err_f <= 3e-6
        assert 10.0 <= err_c / err_f <= 30.0


class TestR0:
    def test_two_sided_bounds_hold_at_r0(self, weight_ref):
        # R0 is the root of the larger correction, so the bounds hold
        # strictly past it; at mu = 0.97 it lies at 1.6e10
        for w in (weight_ref, build_weight(BumpSpec(mu=0.97, n=3))):
            mu, a4, r0 = w.spec.mu, w.a4, w.R0
            assert r0 > 2.0
            r = np.array([r0 * (1.0 + 1e-9), 2 * r0, 100 * r0])
            phi, dphi = eval_weight(w, r)
            assert np.all((a4 / 2 < phi * r**mu) & (phi * r**mu < 2 * a4))
            assert np.all((mu * a4 / 2 < -dphi * r ** (mu + 1)) & (-dphi * r ** (mu + 1) < 2 * mu * a4))
        assert weight_ref.R0 == pytest.approx(5.981919877827245, rel=1e-14)

    def test_r0_past_the_float_range_is_range_error(self):
        # at mu = 0.999999 the root (2 (n-2) |k| / mu)^(1/(n-2-mu)) takes a
        # power 1e6 of a number above 1
        with pytest.raises(RangeError, match="past the float range"):
            build_weight(BumpSpec(mu=0.999999, n=3))

    def test_bounds_fail_just_inside_r0(self, weight_ref):
        mu, a4 = weight_ref.spec.mu, weight_ref.a4
        r = 0.995 * weight_ref.R0
        (phi,), (dphi,) = eval_weight(weight_ref, np.array([r]))
        ok_phi = a4 / 2 < phi * r**mu < 2 * a4
        ok_dphi = mu * a4 / 2 < -dphi * r ** (mu + 1) < 2 * mu * a4
        assert not (ok_phi and ok_dphi)


class TestWeightedL1Distance:
    def test_hand_computed_integral(self, weight_ref):
        # supported where phi = 1: distance is 4 pi int_a^b r^-2 r^2 dr = 4 pi (b - a)
        r = np.geomspace(0.01, 1.0, 161)
        u = 3.0 * r**-2
        v = 2.0 * r**-2
        d = weighted_grid(weight_ref, r).distance(u, v)
        assert d == pytest.approx(4.0 * math.pi * 0.99, rel=1e-6)

    def test_positive_part_mode(self, weight_ref):
        r = np.geomspace(0.01, 1.0, 161)
        u = 3.0 * r**-2
        v = 2.0 * r**-2
        wgrid = weighted_grid(weight_ref, r)
        d_abs = wgrid.distance(u, v)
        assert wgrid.distance(u, v, mode="positive-part") == d_abs
        assert wgrid.distance(v, u, mode="positive-part") == 0.0

    def test_positive_parts_sum_to_abs(self, weight_ref):
        rng = np.random.default_rng(7)
        r = np.geomspace(0.1, 20.0, 301)
        u = np.exp(-np.log(r) ** 2) * (1 + 0.5 * np.sin(3 * np.log(r)))
        v = np.exp(-np.log(r) ** 2) * (1 + 0.5 * np.cos(2 * np.log(r))) + 0.01 * rng.standard_normal(r.size)
        wgrid = weighted_grid(weight_ref, r)
        d_abs = wgrid.distance(u, v)
        d_pos = wgrid.distance(u, v, mode="positive-part")
        d_neg = wgrid.distance(v, u, mode="positive-part")
        assert d_pos + d_neg == pytest.approx(d_abs, rel=1e-13)

    def test_weight_actually_applied(self, weight_ref):
        # mass placed beyond the bump must be discounted by phi < 1
        r = np.geomspace(5.0, 50.0, 161)
        u = r**-2
        v = np.zeros_like(r)
        d = weighted_grid(weight_ref, r).distance(u, v)
        unweighted = 4.0 * math.pi * 45.0
        assert d < 0.8 * unweighted
        phi_min = float(eval_weight(weight_ref, r)[0].min())
        assert d > 0.99 * phi_min * unweighted

    def test_grid_must_be_log_uniform(self, weight_ref):
        r = np.linspace(0.1, 1.0, 801)
        with pytest.raises(GridMismatchError):
            weighted_grid(weight_ref, r).distance(r**-2, np.zeros_like(r))
        for size in (1, 3):
            short = np.geomspace(0.1, 1.0, size)
            with pytest.raises(GridMismatchError):
                weighted_grid(weight_ref, short).distance(short**-2, np.zeros_like(short))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_grid_radii_must_be_finite_and_positive(self, weight_ref, bad):
        # the log of the radii came first and warned instead of refusing
        r = np.geomspace(0.01, 1.0, 161)
        r[0] = bad
        with pytest.raises(RangeError, match="finite positive radii"):
            weighted_grid(weight_ref, r)

    def test_grid_mismatch_raises(self, weight_ref):
        r1 = np.geomspace(0.01, 1.0, 161)
        with pytest.raises(GridMismatchError):
            weighted_grid(weight_ref, r1).distance(r1[:-1] ** -2, r1**-2)
        with pytest.raises(GridMismatchError):
            weighted_grid(weight_ref, r1).distance(r1**-2, r1[:-1] ** -2)
        with pytest.raises(GridMismatchError):
            weighted_grid(weight_ref, r1).distance(3.0, r1**-2)

    def test_mode_validation(self, weight_ref):
        r = np.geomspace(0.01, 1.0, 161)
        with pytest.raises(RangeError):
            weighted_grid(weight_ref, r).distance(r, r, mode="nope")

"""Tests for the superharmonic weight: normalization constants against an
independent high-precision quadrature route, pointwise values at mid-bump
radii, knot continuity, discrete superharmonicity, and weighted distances."""

import math

import numpy as np
import pytest

from fastdiff import (
    BumpSpec,
    GridMismatchError,
    RangeError,
    build_weight,
    eval_weight,
    weighted_l1_distance,
)

# Reference values computed with mpmath at 30 significant digits via nested
# adaptive quadrature of the double integral (no Fubini collapse, no ODE
# table), frozen here so the package route is checked against a second,
# structurally different route.
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
        vals = spec.eta1(r)
        assert np.all(vals >= 0.0)
        assert np.all(np.isfinite(vals))
        # the ramp is flat to all orders at r = 1
        assert float(spec.eta1(1.001)) < 1e-300

    def test_eta1_float_equals_array(self):
        # eta1 is defined once, on a float, and an array maps through that
        # definition: the same bits either way, and a float gives a float
        rng = np.random.default_rng(13)
        for spec in (BumpSpec(mu=0.5, n=3), BumpSpec(mu=1.3, n=5)):
            r = np.concatenate([[0.7, 1.0, 1.001, 1.5, 2.0, 2.5],
                                np.nextafter([1.0, 1.0, 2.0, 2.0], [0.0, 2.0, 0.0, 3.0]),
                                rng.uniform(0.5, 3.0, 2000)])
            scalar = [spec.eta1(float(v)) for v in r]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(np.array(scalar), spec.eta1(r))
            assert spec.eta1(r.reshape(2, -1)).shape == (2, r.size // 2)


class TestNormalizationOracle:
    def test_a4_a5_k0_match_independent_route(self, weight_ref):
        assert weight_ref.a4 == pytest.approx(A4_REF, rel=1e-12)
        assert weight_ref.a5 == pytest.approx(A5_REF, rel=1e-12)
        assert weight_ref.k0 == pytest.approx(K0_REF, rel=1e-12)

    def test_a4_stable_under_tolerance_halving(self):
        # n = 5 at quad_tol 1e-12 asks quad for more than it can deliver
        # unless the inner tolerance is floored
        for spec, coarse, fine in ((BumpSpec(mu=0.5, n=3), 1e-10, 5e-11),
                                   (BumpSpec(mu=1.5, n=5), 1e-10, 1e-12)):
            a4_coarse = build_weight(spec, quad_tol=coarse).a4
            a4_fine = build_weight(spec, quad_tol=fine).a4
            assert abs(a4_fine - a4_coarse) <= 1e-8 * abs(a4_coarse)

    def test_build_is_deterministic(self):
        spec = BumpSpec(mu=0.5, n=3)
        w1 = build_weight(spec)
        w2 = build_weight(spec)
        assert w1.a4 == w2.a4
        assert w1.R0 == w2.R0
        assert np.array_equal(w1.table_phi, w2.table_phi)

    def test_quad_tol_validation(self):
        with pytest.raises(RangeError):
            build_weight(BumpSpec(mu=0.5, n=3), quad_tol=0.0)
        with pytest.raises(RangeError):
            build_weight(BumpSpec(mu=0.5, n=3), quad_tol=-1e-10)


class TestEvalWeight:
    def test_exact_below_bump(self, weight_ref):
        for r in (0.0, 0.3, 1.0):
            phi, dphi = eval_weight(weight_ref, r)
            assert phi == 1.0
            assert dphi == 0.0

    def test_midbump_against_oracle(self, weight_ref):
        for r, (phi_ref, dphi_ref) in MIDBUMP_REF.items():
            phi, dphi = eval_weight(weight_ref, r)
            assert phi == pytest.approx(phi_ref, rel=1e-12)
            assert dphi == pytest.approx(dphi_ref, rel=1e-8)

    def test_continuity_at_knots(self, weight_ref):
        # value and slope are continuous where the three branches meet
        phi_lo, dphi_lo = eval_weight(weight_ref, 1.0 + 1e-12)
        assert abs(phi_lo - 1.0) <= 1e-12
        assert abs(dphi_lo) <= 1e-12
        phi_in, dphi_in = eval_weight(weight_ref, 2.0)
        phi_out, dphi_out = eval_weight(weight_ref, 2.0 + 1e-13)
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

    def test_scalar_and_array_semantics(self, weight_ref):
        out = eval_weight(weight_ref, 1.5)
        assert isinstance(out[0], float) and isinstance(out[1], float)
        arr = np.array([0.5, 1.5, 3.0])
        phi, dphi = eval_weight(weight_ref, arr)
        assert phi.shape == arr.shape and dphi.shape == arr.shape

    def test_invalid_radius(self, weight_ref):
        with pytest.raises(RangeError):
            eval_weight(weight_ref, -1.0)
        with pytest.raises(RangeError):
            eval_weight(weight_ref, np.array([1.0, np.nan]))
        with pytest.raises(RangeError):
            eval_weight(weight_ref, np.inf)


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
        err_c = np.max(np.abs(lap_c + weight_ref.a4 * weight_ref.spec.eta1(r_c)))
        err_f = np.max(np.abs(lap_f + weight_ref.a4 * weight_ref.spec.eta1(r_f)))
        assert err_f <= 3e-6
        assert 10.0 <= err_c / err_f <= 30.0


class TestR0:
    def test_two_sided_bounds_hold_at_r0(self, weight_ref):
        mu, a4, r0 = weight_ref.spec.mu, weight_ref.a4, weight_ref.R0
        assert r0 > 2.0
        for r in (r0, 2 * r0, 100 * r0):
            phi, dphi = eval_weight(weight_ref, r)
            assert a4 / 2 < phi * r**mu < 2 * a4
            assert mu * a4 / 2 < -dphi * r ** (mu + 1) < 2 * mu * a4

    def test_bounds_fail_just_inside_r0(self, weight_ref):
        mu, a4 = weight_ref.spec.mu, weight_ref.a4
        r = 0.995 * weight_ref.R0
        phi, dphi = eval_weight(weight_ref, r)
        ok_phi = a4 / 2 < phi * r**mu < 2 * a4
        ok_dphi = mu * a4 / 2 < -dphi * r ** (mu + 1) < 2 * mu * a4
        assert not (ok_phi and ok_dphi)


class TestWeightedL1Distance:
    def test_hand_computed_integral(self, weight_ref):
        # supported where phi = 1: distance is 4 pi int_a^b r^-2 r^2 dr = 4 pi (b - a)
        r = np.geomspace(0.01, 1.0, 161)
        u = 3.0 * r**-2
        v = 2.0 * r**-2
        d = weighted_l1_distance(weight_ref, r, u, v)
        assert d == pytest.approx(4.0 * math.pi * 0.99, rel=1e-6)

    def test_positive_part_mode(self, weight_ref):
        r = np.geomspace(0.01, 1.0, 161)
        u = 3.0 * r**-2
        v = 2.0 * r**-2
        d_abs = weighted_l1_distance(weight_ref, r, u, v)
        assert weighted_l1_distance(weight_ref, r, u, v, mode="positive-part") == d_abs
        assert weighted_l1_distance(weight_ref, r, v, u, mode="positive-part") == 0.0

    def test_positive_parts_sum_to_abs(self, weight_ref):
        rng = np.random.default_rng(7)
        r = np.geomspace(0.1, 20.0, 301)
        u = np.exp(-np.log(r) ** 2) * (1 + 0.5 * np.sin(3 * np.log(r)))
        v = np.exp(-np.log(r) ** 2) * (1 + 0.5 * np.cos(2 * np.log(r))) + 0.01 * rng.standard_normal(r.size)
        d_abs = weighted_l1_distance(weight_ref, r, u, v)
        d_pos = weighted_l1_distance(weight_ref, r, u, v, mode="positive-part")
        d_neg = weighted_l1_distance(weight_ref, r, v, u, mode="positive-part")
        assert d_pos + d_neg == pytest.approx(d_abs, rel=1e-13)

    def test_weight_actually_applied(self, weight_ref):
        # mass placed beyond the bump must be discounted by phi < 1
        r = np.geomspace(5.0, 50.0, 161)
        u = r**-2
        v = np.zeros_like(r)
        d = weighted_l1_distance(weight_ref, r, u, v)
        unweighted = 4.0 * math.pi * 45.0
        assert d < 0.8 * unweighted
        phi_min = float(eval_weight(weight_ref, r)[0].min())
        assert d > 0.99 * phi_min * unweighted

    def test_grid_must_be_log_uniform(self, weight_ref):
        r = np.linspace(0.1, 1.0, 801)
        with pytest.raises(GridMismatchError):
            weighted_l1_distance(weight_ref, r, r**-2, np.zeros_like(r))
        for size in (1, 3):
            short = np.geomspace(0.1, 1.0, size)
            with pytest.raises(GridMismatchError):
                weighted_l1_distance(weight_ref, short, short**-2, np.zeros_like(short))

    def test_grid_mismatch_raises(self, weight_ref):
        r1 = np.geomspace(0.01, 1.0, 161)
        with pytest.raises(GridMismatchError):
            weighted_l1_distance(weight_ref, r1, r1[:-1] ** -2, r1**-2)
        with pytest.raises(GridMismatchError):
            weighted_l1_distance(weight_ref, r1, r1**-2, r1[:-1] ** -2)
        with pytest.raises(GridMismatchError):
            weighted_l1_distance(weight_ref, r1, 3.0, r1**-2)

    def test_mode_validation(self, weight_ref):
        r = np.geomspace(0.01, 1.0, 161)
        with pytest.raises(RangeError):
            weighted_l1_distance(weight_ref, r, r, r, mode="nope")

"""Tests for the profile construction pipeline: contraction of the tail
iteration, strict pointwise bounds after leftward continuation, origin
extrapolation, the rescaling family, and the solve-for-eta wrapper."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from fastdiff import (
    ExtrapolationError,
    RangeError,
    ToleranceError,
    continue_left,
    derive_fp_constants,
    derive_params,
    picard_solve,
    profile_interpolator,
    recover_profile,
    rescale_profile,
    solve_for_eta,
    tail_residual,
)
import fastdiff.profile
from fastdiff.profile import PROFILE_DS, _backward_recurrence, _spline_at

# Origin coefficient of the base profile (eta_inf = 1) at the reference
# parameter point, frozen from a converged run; guards against silent drift
# in the quadrature/continuation stack.
ETA_ORIGIN_BASE = 1.8089242558402994


class TestPicardSolve:
    def test_update_ratios_contract(self, tail_ref):
        assert tail_ref.update_ratios.size >= 2
        assert np.all(tail_ref.update_ratios <= 0.25)
        assert np.all(np.diff(tail_ref.update_norms) < 0)

    def test_fixed_point_residual(self, tail_ref):
        assert 0.0 <= tail_ref.fp_residual <= 1e-10

    def test_converges_in_few_iterations(self, tail_ref):
        assert tail_ref.iterations <= 8

    def test_grid_structure(self, tail_ref, fp_ref):
        s = tail_ref.grid
        assert s[0] == fp_ref.b1
        ds = np.diff(s)
        assert np.allclose(ds, ds[0], rtol=1e-12)
        assert ds[0] <= 0.01 / fp_ref.C2 + 1e-15
        assert s[-1] >= fp_ref.b1 + 40.0 / fp_ref.C2

    def test_validation(self, fp_ref):
        with pytest.raises(RangeError):
            picard_solve(fp_ref, tol=0.0)
        with pytest.raises(RangeError):
            picard_solve(fp_ref, s_max=fp_ref.b1 + 1.0)

    def test_default_s_max_when_c2_below_one(self):
        # at m = 90% of (n-2)/n, C2 = 1/3: the default right end must clear
        # the b1 + 40/C2 floor the function itself enforces
        fp = derive_fp_constants(derive_params(3, 0.3, 3.095))
        assert fp.C2 < 1.0
        tail = picard_solve(fp)
        assert tail.grid[-1] >= fp.b1 + 40.0 / fp.C2
        assert tail.iterations <= 8
        assert tail.fp_residual <= 1e-10

    def test_tolerance_error_when_unreachable(self, fp_ref, monkeypatch):
        monkeypatch.setattr(fastdiff.profile, "_PICARD_MAX_ITER", 4)
        with pytest.raises(ToleranceError):
            picard_solve(fp_ref, tol=1e-30)

    def test_residual_detector_responds_to_perturbation(self, tail_ref):
        # the independent residual route must flag a profile that is off by
        # one part in 1e6, otherwise the cross-check is vacuous; measured
        # 1.0e-6 for wt and 3.77e-9 for h (whose J part reads 2.6e-11,
        # 1e-6 of J(b1), against 1.6e-12 unperturbed)
        for field, floor in (("wt", 1e-8), ("h", 1e-9)):
            perturbed = replace(tail_ref, **{field: getattr(tail_ref, field) * (1.0 + 1e-6)})
            res = tail_residual(perturbed)
            assert res >= floor
            assert res <= 1e-4

    def test_residual_recomputation_is_deterministic(self, tail_ref):
        assert tail_residual(tail_ref) == tail_ref.fp_residual


class TestScalarSpline:
    def test_bit_identical_to_cubic_spline(self, tail_ref, base_profile, unit_eta_profile):
        # one evaluator serves tail_residual's right-hand side and the
        # interpolator's float path, so it must give spline(s)'s bits: on the
        # tail's tables, on both profiles' log wt tables and on a short
        # non-uniform and a short uniform grid; at every knot and the floats
        # beside it, at both ends, 1e-9 outside them, just inside the last
        # knot (where the clamped index picks the piece) and at seeded
        # interior points
        rng = np.random.default_rng(12)
        short = np.array([-1.0, -0.7, -0.1, 0.3, 0.35, 1.2, 2.0])
        uniform = np.linspace(-1.0, 2.0, 7)
        tables = [(tail_ref.grid, tail_ref.h), (tail_ref.grid, tail_ref.wt),
                  (base_profile.s_grid, np.log(base_profile.wt)),
                  (unit_eta_profile.s_grid, np.log(unit_eta_profile.wt)),
                  (short, np.sin(3.0 * short) + 2.0),
                  (uniform, np.sin(3.0 * uniform) + 2.0)]
        for s, values in tables:
            spline = CubicSpline(s, values)
            at = _spline_at(spline)
            points = np.concatenate([s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf),
                                     [s[0] - 1e-9, s[-1] + 1e-9, s[-1] - 1e-3 * (s[1] - s[0])],
                                     rng.uniform(s[0], s[-1], 2000)])
            got = np.array([at(float(sv)) for sv in points])
            assert np.array_equal(got, spline(points))


class TestBackwardRecurrence:
    def test_matches_numpy_scalar_loop(self, tail_ref):
        # Phi_2's outer integral R_i = a_i R_{i+1} + b_i, run on Python
        # floats, gives the bits of the same loop on numpy scalars; carry
        # factors and increments are seeded at the scales of the tail grid
        rng = np.random.default_rng(12)
        n = tail_ref.grid.size - 1
        a = np.exp(-rng.uniform(0.0, 0.05, n))
        b = rng.uniform(0.0, 1e-3, n) * np.exp(-0.01 * np.arange(n))
        last = np.float64(2.5e-7)
        ref = np.empty(n + 1)
        ref[-1] = last
        acc = ref[-1]
        for i in range(n - 1, -1, -1):
            acc = a[i] * acc + b[i]
            ref[i] = acc
        got = _backward_recurrence(a, b, last)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)


class TestContinueLeft:
    def test_strict_pointwise_bounds(self, base_profile):
        C1 = (base_profile.params.n - 2) / base_profile.params.m - base_profile.params.gamma
        # h and z = h - C1 are stored in their well-conditioned forms; the
        # four open bounds follow pairwise: h > 0 and z > -C1 are the same
        # statement, as are z < 0 and h < C1.
        assert np.all(base_profile.h > 0.0)
        assert np.all(base_profile.z < 0.0)
        assert np.all(base_profile.z > -C1 - 1e-12)
        assert np.all(base_profile.h < C1 + 1e-12)

    def test_slope_ratio_bounds(self, base_profile):
        # r f_r / f = z - gamma; z decays below the resolution of gamma at
        # the far end, so the strict inequality is carried by z itself while
        # the assembled ratio is only <= in float arithmetic.
        p = base_profile.params
        rfr = base_profile.rfr_over_f
        assert np.all(rfr <= -p.gamma)
        assert np.all(base_profile.z < 0.0)
        assert np.all(rfr >= -(p.n - 2) / p.m)
        assert np.all(base_profile.h > 0.0)

    def test_grid_structure(self, base_profile, fp_ref):
        s = base_profile.s_grid
        ds = np.diff(s)
        assert np.allclose(ds, PROFILE_DS, rtol=0, atol=1e-9)
        # b1 lands on a node (to roundoff) so the tail and continued parts join
        assert np.min(np.abs(s - fp_ref.b1)) <= 1e-12

    def test_table_consistency(self, base_profile):
        p = base_profile.params
        assert np.allclose(base_profile.r_grid, np.exp(base_profile.s_grid), rtol=1e-14)
        wt_check = base_profile.f * base_profile.r_grid**p.gamma
        assert np.allclose(wt_check, base_profile.wt, rtol=1e-10)
        assert np.all(base_profile.f > 0.0)

    @pytest.mark.parametrize("point", [(3, 0.2, 4.0), (4, 0.45, 4.04)], ids=["reference", "4-0.45-4.04"])
    def test_left_part_matches_solve_ivp_lsoda(self, point):
        # the same system, start and tolerances through solve_ivp's LSODA and
        # its dense output at the nodes below b1; the step sequences differ
        # (odeint picks its first step from the first output), and the two
        # agree to 3.2e-13 in W and 1.5e-14 in z at the reference point,
        # 1.3e-12 and 6.6e-14 at (4, 0.45, 4.04) (measured)
        p = derive_params(*point)
        tail = picard_solve(derive_fp_constants(p))
        prof = continue_left(tail)
        n, m, bp, C1 = p.n, p.m, p.beta_p, p.C1

        def rhs(s, y):
            X = math.exp(-s / bp + (1.0 - m) * y[1])
            return [(n - 2) * (y[0] + C1) + bp * X * y[0] - m * (y[0] + C1) ** 2, y[0]]

        def jac(s, y):
            X = math.exp(-s / bp + (1.0 - m) * y[1])
            return [[(n - 2) + bp * X - 2.0 * m * (y[0] + C1), bp * X * (1.0 - m) * y[0]], [1.0, 0.0]]

        b1 = float(tail.grid[0])
        left = prof.s_grid < b1 - 1e-9
        res = solve_ivp(rhs, (b1, prof.s_grid[0]), [tail.h[0] - C1, math.log(tail.wt[0])],
                        method="LSODA", jac=jac, rtol=5e-14, atol=1e-14, dense_output=True)
        assert res.status == 0
        z_ref, W_ref = res.sol(prof.s_grid[left])
        assert np.abs(np.log(prof.wt[left]) - W_ref).max() <= 5e-12
        assert np.abs(prof.z[left] - np.minimum(z_ref, -1e-250)).max() <= 5e-13

    def test_smin_validation(self, tail_ref, fp_ref):
        with pytest.raises(RangeError):
            continue_left(tail_ref, s_min=fp_ref.b1 + 5.0)


class TestRecoverProfile:
    def test_richardson_levels_agree(self, base_profile):
        eta = base_profile.eta_origin
        gaps = np.abs(np.diff(base_profile.origin_levels))
        assert np.max(gaps) <= 1e-4 * abs(eta)

    def test_eta_origin_regression(self, base_profile):
        assert base_profile.eta_origin == pytest.approx(ETA_ORIGIN_BASE, rel=1e-9)

    def test_far_field_gap(self, base_profile, fp_ref):
        s_max = float(base_profile.s_grid[-1])
        bound = math.exp(-fp_ref.C2 * (s_max - fp_ref.b1)) + 1e-8
        assert base_profile.far_field_gap <= bound
        assert base_profile.far_field_gap <= 1e-10

    def test_origin_fit_constant(self, base_profile):
        assert np.isfinite(base_profile.origin_fit_K)
        assert 0.0 < base_profile.origin_fit_K < 100.0

    def test_shallow_profile_rejected(self, tail_ref, fp_ref):
        shallow = continue_left(tail_ref, s_min=fp_ref.b1 - 10.0)
        with pytest.raises(ExtrapolationError):
            recover_profile(shallow)

    def test_detects_corrupted_origin_region(self, base_profile):
        wt_bad = base_profile.wt.copy()
        wt_bad[:50] *= 1.001
        with pytest.raises(ExtrapolationError):
            recover_profile(replace(base_profile, wt=wt_bad))


class TestRescaleProfile:
    def test_scaling_laws(self, base_profile):
        p = base_profile.params
        lam = 1.7
        two1m = 2.0 / (1.0 - p.m)
        scaled = rescale_profile(base_profile, lam)
        assert scaled.eta_origin == pytest.approx(
            base_profile.eta_origin * lam ** (two1m - p.gamma), rel=1e-14)
        assert scaled.eta_inf == pytest.approx(
            base_profile.eta_inf * lam ** (two1m - (p.n - 2) / p.m), rel=1e-14)
        # pointwise: f_lam(r/lam) = lam^(2/(1-m)) f(r)
        assert np.allclose(scaled.r_grid, base_profile.r_grid / lam, rtol=1e-13)
        assert np.allclose(scaled.f, lam**two1m * base_profile.f, rtol=1e-12)

    def test_roundtrip(self, base_profile):
        back = rescale_profile(rescale_profile(base_profile, 2.0), 0.5)
        assert back.eta_origin == pytest.approx(base_profile.eta_origin, rel=1e-12)
        assert np.allclose(back.wt, base_profile.wt, rtol=1e-12)

    def test_validation(self, base_profile):
        with pytest.raises(RangeError):
            rescale_profile(base_profile, 0.0)
        with pytest.raises(RangeError):
            rescale_profile(base_profile, -2.0)


class TestSolveForEta:
    def test_hits_target(self, unit_eta_profile):
        assert unit_eta_profile.eta_origin == pytest.approx(1.0, rel=1e-10)

    def test_far_field_consistency(self, unit_eta_profile):
        C1 = unit_eta_profile.params.C1
        s_last = float(unit_eta_profile.s_grid[-1])
        wt_last = float(unit_eta_profile.wt[-1])
        assert wt_last * math.exp(C1 * s_last) == pytest.approx(unit_eta_profile.eta_inf, rel=1e-8)

    def test_finite_when_c2_below_one(self):
        # at (3, 0.3, 3.095) 40 b' = 240 and gamma * 240 overflows
        # e^(-gamma s); the default left end stops short of that
        prof = solve_for_eta(derive_params(3, 0.3, 3.095), 1.0)
        assert np.all(np.isfinite(prof.f))
        assert prof.eta_origin == pytest.approx(1.0, rel=1e-10)

    def test_completes_where_stiff_trial_steps_overflowed(self):
        # an admissible point where a trial step of the left continuation
        # that overshoots W overflows exp in X(s, W)
        prof = solve_for_eta(derive_params(4, 0.45, 4.04), 1.0)
        assert np.all(np.isfinite(prof.f))
        assert prof.eta_origin == pytest.approx(1.0, rel=1e-10)

    def test_target_validation(self, params_ref):
        with pytest.raises(RangeError):
            solve_for_eta(params_ref, 0.0)
        with pytest.raises(RangeError):
            solve_for_eta(params_ref, -1.0)


@pytest.mark.parametrize("build, name", [
    (lambda p: derive_params(math.nan, 0.2, 4.0), "dimension n"),
    (lambda p: derive_params(math.inf, 0.2, 4.0), "dimension n"),
    (lambda p: solve_for_eta(p, 1.0, b1_margin=math.inf), "b1_margin"),
    (lambda p: solve_for_eta(p, 1.0, tol=math.inf), "tol"),
    (lambda p: continue_left(picard_solve(derive_fp_constants(p)), tol=math.inf), "tol"),
    (lambda p: solve_for_eta(p, 1.0, s_max=math.inf), "s_max"),
    (lambda p: solve_for_eta(p, 1.0, s_min=-math.inf), "s_min"),
    (lambda p: solve_for_eta(p, math.inf), "target_eta"),
], ids=["n-nan", "n-inf", "b1_margin", "tol", "continue_left-tol", "s_max", "s_min",
        "target_eta"])
def test_non_finite_input_is_range_error(build, name, params_ref):
    # refused where the value enters, by name, before it reaches int() or a solver
    with pytest.raises(RangeError, match=name):
        build(params_ref)


class TestEndpointInsensitivity:
    def test_eta_origin_stable_under_window_changes(self, base_profile, fp_ref):
        # moving both integration endpoints must not move the origin
        # coefficient: the profile the pipeline selects is unique
        tail2 = picard_solve(fp_ref, s_max=fp_ref.b1 + 48.0)
        prof2 = recover_profile(continue_left(tail2, s_min=base_profile.s_grid[0] - 2.0))
        assert prof2.eta_origin == pytest.approx(base_profile.eta_origin, rel=1e-8)


def _radius_with_log(sv):
    """A radius within 8 ulps of e^sv whose numpy log is exactly sv."""
    near = np.exp(sv) + np.spacing(np.exp(sv)) * np.arange(-8, 9)
    hits = near[np.log(near) == sv]
    assert hits.size, sv
    return float(hits[0])


class TestInterpolator:
    def test_matches_table_nodes(self, base_profile):
        f_of_r = profile_interpolator(base_profile)
        idx = np.linspace(0, base_profile.r_grid.size - 1, 17).astype(int)
        for k in idx:
            assert f_of_r(float(base_profile.r_grid[k])) == pytest.approx(
                float(base_profile.f[k]), rel=1e-12)

    def test_array_and_scalar_semantics(self, base_profile):
        f_of_r = profile_interpolator(base_profile)
        r = base_profile.r_grid[100:103]
        out = f_of_r(r)
        assert out.shape == r.shape
        assert isinstance(f_of_r(float(r[0])), float)

    def test_out_of_range(self, base_profile):
        f_of_r = profile_interpolator(base_profile)
        with pytest.raises(RangeError):
            f_of_r(float(base_profile.r_grid[0]) * 0.5)
        with pytest.raises(RangeError):
            f_of_r(float(base_profile.r_grid[-1]) * 1.5)
        with pytest.raises(RangeError):
            f_of_r(0.0)
        with pytest.raises(RangeError):
            f_of_r(-1.0)

    def test_non_finite_radius_raises(self, base_profile):
        f_of_r = profile_interpolator(base_profile)
        inner = float(base_profile.r_grid[100])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(RangeError):
                f_of_r(bad)
            with pytest.raises(RangeError):
                f_of_r(np.array([inner, bad]))
            with pytest.raises(RangeError):
                f_of_r(np.asarray(bad))

    def test_scalar_path_equals_array_path(self, base_profile, unit_eta_profile):
        # a float radius takes the scalar path, an array the PPoly path; the
        # two must agree to the last bit, the end pieces included
        rng = np.random.default_rng(8)
        for prof in (base_profile, unit_eta_profile):
            f_of_r = profile_interpolator(prof)
            s = prof.s_grid
            ends = [_radius_with_log(s[0]), _radius_with_log(s[-1])]
            outside = np.exp([s[0] - 5e-13, s[-1] + 5e-13])
            radii = np.concatenate([prof.r_grid, ends, outside,
                                    np.exp(rng.uniform(s[0], s[-1], 10_000))])
            batch = f_of_r(radii)
            scalar = np.array([f_of_r(float(r)) for r in radii])
            assert np.array_equal(scalar, batch)
            assert all(f_of_r(float(r)) == f_of_r(np.array([r]))[0] for r in radii[-100:])

"""Tests for the profile construction pipeline: contraction of the tail
iteration, strict pointwise bounds after leftward continuation, the
origin series match, the rescaling family, and the solve-for-eta wrapper."""

import itertools
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PPoly

from fastdiff import (
    BoundViolationError,
    ExtrapolationError,
    FastDiffError,
    NonContractionError,
    RangeError,
    ResolutionError,
    ToleranceError,
    continue_left,
    derive_fp_constants,
    derive_params,
    picard_solve,
    profile_interpolator,
    rescale_profile,
    solve_for_eta,
    tail_residual,
)
import fastdiff.profile
from fastdiff.numerics import lsoda_at
from fastdiff.profile import (PROFILE_DS, _MAX_NODES, _ORIGIN_Q_TOL, _backward_recurrence,
                              _check_membership,
                              _horner, _origin_match, _origin_node, _origin_series, _tail_hermite,
                              _tail_seed, _weighted_norm)
from sweep import point_id, sweep_points

# Origin coefficient of the base profile (eta_inf = 1) at the reference
# parameter point, frozen from a converged run; guards against silent drift
# in the quadrature/continuation stack.
ETA_ORIGIN_BASE = 1.8089242558402994
# d_inf in r^((n-2)/m) f = 1 + d_inf r^(-C2) + ... at the reference point:
# -b' C1 / (C2 (n-2+C2)) = -(5/6) / (2 * 3)
D_INF_REF = -5.0 / 36.0


def _f(prof):
    """The profile f = e^(-gamma s + W) on every row of the table."""
    return np.exp(-prof.params.gamma * prof.s_grid + prof.W)


class TestPicardSolve:
    def test_update_ratios_contract(self, tail_ref):
        assert tail_ref.update_ratios.size >= 2
        assert np.all(tail_ref.update_ratios <= 0.25)
        assert np.all(np.diff(tail_ref.update_norms) < 0)

    def test_ratio_above_one_fifth_is_refused(self):
        # Phi is a 1/5-contraction on D_b1, so an update ratio above 1/5 is
        # a broken constant.  At (5, 0.54, 4.952) with b1 cut to 0.1 b1 the
        # iteration still converges, with a first ratio of 0.302 and the
        # rest below 0.15; it is refused there (the sweep's and the edge
        # table's worst ratio at the true b1 is 0.0153)
        m = 0.9 * 3 / 5
        fp = derive_fp_constants(derive_params(5, m, 2 / (1 - m) + 0.5 * (3 / m - 2 / (1 - m))))
        picard_solve(fp)
        with pytest.raises(NonContractionError, match=r"^update ratio 0\.302 at iteration 2 is above"):
            picard_solve(replace(fp, b1=0.1 * fp.b1))

    def test_fixed_point_residual(self, tail_ref):
        assert 0.0 <= tail_ref.fp_residual <= 1e-10

    def test_fixed_point_residual_where_wt_decays_fast(self):
        # C1 = 3.2 here: a cubic spline of wt = e^(-C1 s) itself errs by
        # about (5/384)(C1 ds)^4 relative and read 7.5e-11 against the gate
        # 1e-10; on the Hermite interpolant of log wt, with its exact slope
        # z, the reading is the fixed point's own defect, 3.5e-13
        fp = derive_fp_constants(derive_params(8, 0.375, 3.84))
        assert picard_solve(fp).fp_residual <= 1e-12

    @pytest.mark.parametrize("point", [(3, 0.2, 4.0), (8, 0.375, 3.84)], ids=["ref", "n8-m0.375"])
    def test_residual_sees_a_smooth_wt_dent(self, point):
        # a relative dent of 1e-10 in wt, a Gaussian of width 0.05 at b1 + 1,
        # so log1p of it in W = log wt, reads about 1e-10: 36x and 283x the
        # clean readings.  On a spline of wt itself the second point read
        # 1.26x, its interpolation error hiding the dent.  replace() makes a
        # new tail, whose Hermite interpolants tail_residual builds from the
        # dented W
        fp = derive_fp_constants(derive_params(*point))
        tail = picard_solve(fp)
        x = (tail.grid - fp.b1 - 1.0) / 0.05
        dented = replace(tail, W=tail.W + np.log1p(1e-10 * np.exp(-x * x)))
        assert tail_residual(dented) >= 10.0 * tail.fp_residual

    def test_converges_in_few_iterations(self, tail_ref):
        assert tail_ref.iterations <= 8

    def test_far_field_seed_at_the_reference_point(self, tail_ref, fp_ref):
        # the seed's h coefficient is h's own leading one, -C2 d_inf = 5/18,
        # so the first sweep corrects only higher-order terms: update norms
        # 1.5e-7, 5.2e-10, 6.8e-13
        _, h0 = _tail_seed(fp_ref, np.zeros(1))
        assert h0[0] == pytest.approx(-fp_ref.C2 * D_INF_REF, rel=1e-15)
        assert tail_ref.iterations == 3
        assert tail_ref.update_norms[0] <= 1e-6

    @pytest.mark.parametrize("point", [(3, 0.2, 4.0), (3, 0.3, 3.095), (5, 0.06, 26.06)])
    def test_far_field_seed_keeps_the_fixed_point(self, point, monkeypatch):
        # the fixed point is unique in D_b1: Phi iterated to tol from the old
        # seed (W, h) = (-C1 s, min(C3, eps1) e^(-C2 s)), on the grid and
        # step picard_solve passes, ends on picard_solve's tail; an rtol on
        # wt is the same atol on W = log wt
        fp = derive_fp_constants(derive_params(*point))
        phi_map, passed = fastdiff.profile._phi_map, []

        def recording(W, h, *rest):
            passed.append(rest)
            return phi_map(W, h, *rest)

        monkeypatch.setattr(fastdiff.profile, "_phi_map", recording)
        tail = picard_solve(fp)
        s, ds, _ = passed[0]
        C1, C2 = fp.params.C1, fp.C2
        weights = (np.exp(C2 * s), np.exp(0.5 * C2 * s))
        W, h = -C1 * s, min(fp.C3, fp.eps1) * np.exp(-C2 * s)
        for _ in range(20):
            W_new, h_new = phi_map(W, h, s, ds, fp)
            upd = _weighted_norm(np.exp(W_new + C1 * s) - np.exp(W + C1 * s), h_new - h, weights)
            W, h = W_new, h_new
            if upd <= 1e-12:
                break
        else:
            pytest.fail("the old seed did not reach tol in 20 iterations")
        np.testing.assert_allclose(tail.h, h, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(tail.W, W, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("point", sweep_points(), ids=point_id)
    def test_far_field_seed_lies_in_d_b1(self, point):
        # on the default tail grid [b1, b1 + 40/C2], with a slack of a few
        # ulp for v0 = e^(W0 + C1 s) = e^(-h0/C2) <= 1, where picard_solve
        # allows 2e-12
        fp = derive_fp_constants(derive_params(*point))
        C1, C2 = fp.params.C1, fp.C2
        s = np.linspace(fp.b1, fp.b1 + 40.0 / C2, 4001)
        weights = (np.exp(C2 * s), np.exp(0.5 * C2 * s))
        W, h = _tail_seed(fp, s)
        _check_membership(np.exp(W + C1 * s), h, fp, 1e-15, weights)

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

    def test_default_s_max_when_c2_below_one(self):
        # at m = 90% of (n-2)/n, C2 = 1/3: the tail's right end must clear
        # b1 + 40/C2, where the term Phi neglects past it is below e^(-40)
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
        # 1.0e-6 for wt, log1p(1e-6) added to W = log wt, and 3.77e-9 for h
        # (whose J part reads 2.6e-11, 1e-6 of J(b1), against 1.6e-12
        # unperturbed)
        for perturbed, floor in ((replace(tail_ref, W=tail_ref.W + math.log1p(1e-6)), 1e-8),
                                 (replace(tail_ref, h=tail_ref.h * (1.0 + 1e-6)), 1e-9)):
            res = tail_residual(perturbed)
            assert res >= floor
            assert res <= 1e-4

    @pytest.mark.parametrize("point", [(5, 0.54, 5.495), (8, 0.675, 7.521)], ids=point_id)
    def test_residual_reads_the_whole_tail(self, point):
        # at C2 < 2 the tail runs past b1 + 20, and a 1e-6 dent in W over
        # its last quarter, past b1 + 20, reads 1.0e-6
        tail = picard_solve(derive_fp_constants(derive_params(*point)))
        assert tail.fp.C2 < 2.0
        far = tail.grid >= tail.grid[0] + 0.75 * (tail.grid[-1] - tail.grid[0])
        dented = replace(tail, W=tail.W + np.where(far, math.log1p(1e-6), 0.0))
        assert tail_residual(tail) <= 1e-12
        assert tail_residual(dented) >= 5e-7

    def test_residual_recomputation_is_deterministic(self, tail_ref):
        assert tail_residual(tail_ref) == tail_ref.fp_residual

    def test_residual_run_step_count(self, tail_ref, monkeypatch):
        # the scaled state Y = e^(C2 s) Phi_2 is O(1) over the tail, so LSODA
        # need not follow Phi_2's e^(-C2 s) decay: measured 127 steps at the
        # reference point, where integrating Phi_2 itself took 760
        steps = []

        def recording(*args, **options):
            y, n = lsoda_at(*args, **options)
            steps.append(n)
            return y, n

        monkeypatch.setattr(fastdiff.profile, "lsoda_at", recording)
        tail_residual(tail_ref)
        assert len(steps) == 1 and steps[0] <= 200


class TestResidualOnFirstRead:
    """tail_residual runs only where fp_residual is read: once, on the tail's
    first read, and every profile continued from the tail reads that float."""

    @pytest.fixture
    def lsoda_runs(self, monkeypatch):
        """The step counts of the profile module's LSODA runs, in order."""
        steps = []

        def recording(*args, **options):
            y, n = lsoda_at(*args, **options)
            steps.append(n)
            return y, n

        monkeypatch.setattr(fastdiff.profile, "lsoda_at", recording)
        return steps

    def test_a_build_runs_only_the_continuation(self, fp_ref, lsoda_runs):
        tail = picard_solve(fp_ref)
        assert lsoda_runs == []
        continue_left(tail)
        assert len(lsoda_runs) == 2                     # the s-leg and the rho-leg

    def test_a_build_fits_no_spline(self, monkeypatch):
        # a build, its fp_residual and its interpolator read the tables
        # through numerics.hermite and fit no piecewise polynomial, and the
        # tail keeps nothing past its fields but fp_residual once read
        def refused(*args, **kwargs):
            raise AssertionError("a piecewise polynomial was fitted")

        monkeypatch.setattr(PPoly, "__init__", refused)
        prof = solve_for_eta(derive_params(3, 0.2, 4.0), 1.0)
        own = {f.name for f in fields(prof.tail)}
        assert set(vars(prof.tail)) == own
        assert prof.fp_residual == 2.7790092348055394e-12
        assert set(vars(prof.tail)) == own | {"fp_residual"}
        assert np.all(profile_interpolator(prof)(np.exp(prof.s_grid[::100])) > 0.0)

    def test_first_read_runs_tail_residual_once(self, fp_ref, lsoda_runs):
        tail = picard_solve(fp_ref)
        lsoda_runs.clear()
        residual = tail.fp_residual
        assert len(lsoda_runs) == 1
        assert tail.fp_residual == residual
        assert len(lsoda_runs) == 1
        assert tail_residual(tail) == residual

    def test_profiles_read_their_tails_residual(self, params_ref, lsoda_runs):
        prof = solve_for_eta(params_ref, 1.0)
        scaled = rescale_profile(prof, 1.7)
        assert len(lsoda_runs) == 2
        # the first read, through a copy, computes it for every profile
        residual = scaled.fp_residual
        assert len(lsoda_runs) == 3
        assert prof.fp_residual == residual == tail_residual(prof.tail)
        assert rescale_profile(scaled, 0.5).fp_residual == residual
        assert prof.picard_iterations == scaled.picard_iterations == prof.tail.iterations
        assert len(lsoda_runs) == 4                     # tail_residual's own call


class TestTailLength:
    """The default tail ends at s_T = b1 + max(40/C2, -log(tol)/C2), and the
    table at the last node at or below it: it stores only computed rows,
    and profile_interpolator takes the analytic tail past them."""

    def test_reference_tail_and_table(self, tail_ref, base_profile, fp_ref):
        # 40/C2 = 20 at the reference point, where C2 = 2; the table's 5,765
        # rows end on s_T itself there
        assert tail_ref.grid.size == 4001
        s_T = float(tail_ref.grid[-1])
        assert s_T == pytest.approx(fp_ref.b1 + 20.0, rel=1e-15)
        assert base_profile.s_grid.size == 5765
        ds = float(base_profile.s_grid[1] - base_profile.s_grid[0])
        assert s_T - ds < base_profile.s_grid[-1] <= s_T

    def test_far_rows_are_the_analytic_tail(self, tail_ref, base_profile, fp_ref):
        # every row past b1 is the tail's Hermite interpolant (_tail_hermite),
        # and past the table profile_interpolator gives the analytic tail
        # the table once stored as 2,000 rows to b1 + 40: W = -C1 s -
        # (h_T / C2) e^(-C2 (s - s_T)) at the table's step, f to 1e-14
        # relative (measured: the same bits)
        C1, C2, gamma = fp_ref.params.C1, fp_ref.C2, fp_ref.params.gamma
        s, k = base_profile.s_grid, int(np.searchsorted(base_profile.s_grid, fp_ref.b1))
        h_at, W_at = _tail_hermite(tail_ref)
        h_rows, W_rows = h_at(s[k + 1:]), W_at(s[k + 1:])
        assert np.array_equal(base_profile.W[k + 1:], W_rows)
        assert np.array_equal(base_profile.xi[k + 1:], np.log(h_rows / (C1 - h_rows)))
        # the rows lie within 4.4e-15 of a tail node here, so cubic splines
        # of the tail's h and W read the same values: measured 3.7e-15
        # relative in h and 1.8e-15 in W, half an ulp of |W| <= 24.3 (bound:
        # under three ulps)
        g = tail_ref.grid
        assert np.allclose(base_profile.h[k + 1:], CubicSpline(g, tail_ref.h)(s[k + 1:]), rtol=1e-14, atol=0.0)
        assert np.allclose(base_profile.W[k + 1:], CubicSpline(g, tail_ref.W)(s[k + 1:]), rtol=0.0, atol=1e-14)
        s_T, h_T = float(tail_ref.grid[-1]), float(tail_ref.h[-1])
        ds = float(s[1] - s[0])
        far = s[-1] + ds * np.arange(1, 2001)
        f_far = np.exp(-gamma * far - C1 * far - h_T / C2 * np.exp(-C2 * (far - s_T)))
        f_of_r = profile_interpolator(base_profile)
        assert np.allclose(f_of_r(np.exp(far)), f_far, rtol=1e-14, atol=0.0)

    def test_far_rows_between_tail_nodes(self):
        # at (5, 0.54, 5.495) C2 = 0.556 puts the tail's step at 0.018 and
        # the table's at 0.01, so the rows fall between nodes.  There the
        # Hermite rows and cubic splines of the tail differ by 8.6e-9
        # relative in h and 1.8e-15 in W (|W| <= 6.8), 30x below Picard's own
        # grid error: h moves by 2.6e-7 relative against a tail 8x finer
        fp = derive_fp_constants(derive_params(5, 0.54, 5.495))
        tail = picard_solve(fp)
        prof = continue_left(tail)
        s, k = prof.s_grid, int(np.searchsorted(prof.s_grid, fp.b1))
        assert float(s[1] - s[0]) < float(tail.grid[1] - tail.grid[0]) / 1.5
        assert np.allclose(prof.h[k + 1:], CubicSpline(tail.grid, tail.h)(s[k + 1:]), rtol=2e-8, atol=0.0)
        assert np.allclose(prof.W[k + 1:], CubicSpline(tail.grid, tail.W)(s[k + 1:]), rtol=0.0, atol=1e-14)
        h_at, W_at = _tail_hermite(tail)
        assert np.array_equal(h_at(tail.grid), tail.h) and np.array_equal(W_at(tail.grid), tail.W)

    def test_far_rows_keep_h_where_it_underflows(self):
        # at (3, 0.0333, 16.03), C2 = 27 took h_T e^(-C2 (s - s_T)) below the
        # smallest float on 19,018 closed-form rows past s_T.  Those rows are
        # no longer stored: h is a positive float on every row, and past the
        # table the analytic tail's h_e e^(-C2 d) reads 0 once C2 d passes
        # 745, so f falls at the far-field rate gamma + C1 = (n-2)/m per unit
        # s until it underflows too
        m = 0.1 / 3
        fp = derive_fp_constants(derive_params(3, m, 2 / (1 - m) + 0.5 * (1 / m - 2 / (1 - m))))
        prof = continue_left(picard_solve(fp))
        assert np.all(np.isfinite(prof.xi))
        assert np.all(prof.h > 0.0)
        s_e = float(prof.s_grid[-1])
        f_of_r = profile_interpolator(prof)
        s = s_e + np.linspace(1.0, 15.0, 141)
        log_f = np.log(f_of_r(np.exp(s)))
        assert np.allclose(np.diff(log_f) / np.diff(s), -1.0 / m, rtol=1e-9)
        assert np.array_equal(f_of_r(np.exp(s_e + np.array([28.0, 40.0]))), [0.0, 0.0])

    def test_table_end_capped_where_wt_stays_normal(self):
        # at (3, 0.0333, 3.466) the tail ends at b1 + 40/C2 = 1.86, and C1 =
        # 26.5 would take wt = e^(-C1 s) below the normal floats past
        # -log(float_min)/C1 = 26.7, where the table once needed a cap: it
        # now ends at s_T, so wt = e^W is a normal float on every row
        m = 0.1 / 3
        fp = derive_fp_constants(derive_params(3, m, 2 / (1 - m) + 0.05 * (1 / m - 2 / (1 - m))))
        tail = picard_solve(fp)
        prof = continue_left(tail)
        s_T = float(tail.grid[-1])
        assert s_T == pytest.approx(fp.b1 + 40.0 / fp.C2, rel=1e-15)
        assert s_T - PROFILE_DS < prof.s_grid[-1] <= s_T
        assert np.all(np.exp(prof.W) >= np.finfo(float).tiny)


class TestBackwardRecurrence:
    def test_matches_numpy_scalar_loop(self):
        # Phi_2's outer integral R_i = a_i R_{i+1} + b_i against its exact
        # value in rationals, rounded once to float; carry factors and
        # increments are seeded at the scales of the tail grid.  Both the
        # BLAS solve and the plain float loop stay within 2e-15 relative at
        # every node: measured 6.2e-16 and 7.1e-16 on these 1,000 nodes
        rng = np.random.default_rng(12)
        n = 1000
        a = np.exp(-rng.uniform(0.0, 0.05, n))
        b = rng.uniform(0.0, 1e-3, n) * np.exp(-0.01 * np.arange(n))
        last = 2.5e-7
        exact = [Fraction(last)]
        for ai, bi in zip(a[::-1].tolist(), b[::-1].tolist()):
            exact.append(Fraction(ai) * exact[-1] + Fraction(bi))
        ref = np.array([float(x) for x in exact[::-1]])
        loop = np.empty(n + 1)
        loop[-1] = acc = last
        for i in range(n - 1, -1, -1):
            acc = float(a[i]) * acc + float(b[i])
            loop[i] = acc
        got = _backward_recurrence(a, b, last)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref) / ref) <= 2e-15
        assert np.max(np.abs(loop - ref) / ref) <= 2e-15


class TestContinueLeft:
    def test_strict_pointwise_bounds(self, base_profile):
        C1 = (base_profile.params.n - 2) / base_profile.params.m - base_profile.params.gamma
        # h and z = h - C1 are formed from the stored xi, neither from the
        # other; the four open bounds follow pairwise: h > 0 and z > -C1 are
        # the same statement, as are z < 0 and h < C1.
        assert np.all(base_profile.h > 0.0)
        assert np.all(base_profile.z < 0.0)
        assert np.all(base_profile.z > -C1 - 1e-12)
        assert np.all(base_profile.h < C1 + 1e-12)

    def test_positive_z_is_refused(self, tail_ref, monkeypatch):
        # h[0] a hair above C1 starts the continuation at z = +1e-12 on the
        # row b1, which has no xi = log(h / (-z)): refused strictly, with no
        # slack and no floor, before the LSODA run and before any log
        def no_run(*args, **options):
            raise AssertionError("continue_left ran LSODA from a start outside (0, C1)")

        monkeypatch.setattr(fastdiff.profile, "lsoda_at", no_run)
        C1 = tail_ref.fp.params.C1
        h = tail_ref.h.copy()
        h[0] = C1 * (1.0 + 1e-12)
        with pytest.raises(BoundViolationError, match=r"^h left \(0, C1\) on 1 rows"):
            continue_left(replace(tail_ref, h=h))

    def test_row_outside_the_bounds_is_refused(self, tail_ref):
        # the tail's rows past b1 with h < 0 have no xi: refused by count,
        # before the log that would read nan
        h = tail_ref.h.copy()
        h[1:] = -h[1:]
        with pytest.raises(BoundViolationError, match=r"^h left \(0, C1\) on \d{4} rows"):
            continue_left(replace(tail_ref, h=h))

    @pytest.mark.parametrize("point", [(3, 1 / 6, 5.82), (4, 0.25, 16 / 3), (5, 0.3, 9.642857142857142)],
                             ids=["n3-m0.1667-g5.82", "n4-m0.25-g5.333", "n5-m0.3-g9.643"])
    def test_z_strictly_negative_where_it_is_small(self, point):
        # points where |z| falls below the continuation's absolute tolerance
        # 1e-14 inside |s| <= 20: the rho-leg's z = rho q / b' keeps q's sign,
        # so z < 0 holds on every row as computed
        prof = continue_left(picard_solve(derive_fp_constants(derive_params(*point))))
        assert np.all(prof.z < 0.0)

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
        # one stored state per row: r, wt and f are formed by their readers
        assert not {f.name for f in fields(base_profile)} & {"r_grid", "wt", "f"}
        assert np.all(np.isfinite(base_profile.W))
        assert np.all(_f(base_profile) > 0.0)

    @pytest.mark.parametrize("point", [(3, 0.2, 4.0), (4, 0.45, 4.04)], ids=["reference", "4-0.45-4.04"])
    def test_left_part_matches_solve_ivp_lsoda(self, point):
        # the s system in (xi, W), start and tolerances through solve_ivp's
        # LSODA and its dense output at the nodes below b1, where
        # continue_left switches to the rho system below rho = 0.1.  The
        # reference is written with h, z and X as three exps of its own.  The
        # two agree to 3.2e-12 in W and 3.0e-14 in z at the reference point,
        # 2.7e-12 and 9.6e-15 at (4, 0.45, 4.04) (measured).  A reference in
        # (z, W) read W 6.7e-11 off there: its h = z + C1 cancels where h is
        # below C1's rounding, 658 rows of the base table
        p = derive_params(*point)
        tail = picard_solve(derive_fp_constants(p))
        prof = continue_left(tail)
        n, m, bp, C1 = p.n, p.m, p.beta_p, p.C1

        def parts(s, y):
            X = math.exp(-s / bp + (1.0 - m) * y[1])
            return X, C1 / (1.0 + math.exp(-y[0])), -C1 / (1.0 + math.exp(y[0])), math.exp(y[0])

        def rhs(s, y):
            X, h, z, e = parts(s, y)
            return [((n - 2) - m * h) * (1.0 + e) - bp * (X + X / e), z]

        def jac(s, y):
            X, h, z, e = parts(s, y)
            return [[((n - 2) - m * h) * e - m * h + bp * X / e, -bp * (1.0 - m) * (X + X / e)],
                    [-h * z / C1, 0.0]]

        b1 = float(tail.grid[0])
        left = prof.s_grid < b1 - 1e-9
        xi_b1 = math.log(tail.h[0]) - math.log(C1 - tail.h[0])
        res = solve_ivp(rhs, (b1, prof.s_grid[0]), [xi_b1, tail.W[0]],
                        method="LSODA", jac=jac, rtol=5e-14, atol=1e-14, dense_output=True)
        assert res.status == 0
        xi_ref, W_ref = res.sol(prof.s_grid[left])
        assert np.abs(prof.W[left] - W_ref).max() <= 5e-12
        assert np.abs(prof.z[left] + C1 / (1.0 + np.exp(xi_ref))).max() <= 5e-13

    def test_run_step_count(self, tail_ref, monkeypatch):
        # below rho = 0.1 the rho-leg follows q = b' z / rho, which is smooth
        # in rho, where the s-run followed z ~ rho down to LEFT_ABS_TOL:
        # measured 217 + 155 steps at the reference point (216 + 155 with the
        # s-leg in z), 1,125 in s alone
        steps = []

        def recording(*args, **options):
            y, n = lsoda_at(*args, **options)
            steps.append(n)
            return y, n

        monkeypatch.setattr(fastdiff.profile, "lsoda_at", recording)
        continue_left(tail_ref)
        assert len(steps) == 2 and sum(steps) <= 500

    def test_wild_trial_state_ends_typed_or_passes(self, monkeypatch):
        # at (3, 0.3267, 2.971), m at 98% of (n-2)/n and gamma at 0.5% of its
        # window, an s-leg written with an unguarded math.exp(xi) met a
        # Newton trial state past the double range and raised
        # OverflowError.  The build ends in a typed error or a table whose
        # xi is finite on every row, and the s-leg's rhs is finite on states
        # far off any solution, as odepack needs
        legs = []

        def recording(rhs, *args, **options):
            legs.append(rhs)
            return lsoda_at(rhs, *args, **options)

        m = 0.98 / 3
        lo, hi = 2 / (1 - m), 1 / m
        tail = picard_solve(derive_fp_constants(derive_params(3, m, lo + 0.005 * (hi - lo))))
        monkeypatch.setattr(fastdiff.profile, "lsoda_at", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                assert np.all(np.isfinite(continue_left(tail).xi))
            except FastDiffError:
                pass
            rhs = legs[0]
            b1 = float(tail.grid[0])
            for y in itertools.product((-1e300, -800.0, 0.0, 800.0, 1e300), repeat=2):
                for sv in (b1, b1 - 1e4):
                    assert np.all(np.isfinite(rhs(sv, list(y))))

    def test_rho_squared_underflow_is_typed(self):
        # rho_min = e^(s_min/b') = 7e-177 at s_min = -78, where f still fits
        # a float but rho^2 underflows to 0: never a ZeroDivisionError
        tail = picard_solve(derive_fp_constants(derive_params(4, 0.2, 9.0)))
        try:
            continue_left(tail, s_min=-78.0)
        except FastDiffError:
            pass

    def test_smin_validation(self, tail_ref, fp_ref):
        with pytest.raises(RangeError):
            continue_left(tail_ref, s_min=fp_ref.b1 + 5.0)

    @pytest.mark.parametrize("depth", [1e300, PROFILE_DS * _MAX_NODES], ids=["1e300", "just-past"])
    def test_oversized_table_is_refused(self, depth, tail_ref, fp_ref):
        # the reference table's step is PROFILE_DS, so the rows left of b1
        # alone fill the budget at the second depth; the refusal comes
        # before any array is made
        with pytest.raises(RangeError, match="budget"):
            continue_left(tail_ref, s_min=fp_ref.b1 - depth)


class TestRecoverProfile:
    """The origin coefficient continue_left reads off its own table."""

    def test_carries_origin_coefficient_and_far_field_gap(self, tail_ref):
        # one call builds the whole profile, and rescale_profile scales what
        # it carries: eta_origin by lam^(2/(1-m) - gamma), eta_inf by
        # lam^(2/(1-m) - (n-2)/m), and keeps the relative q defect and the
        # tail, whose fp_residual is the far-field check
        prof = continue_left(tail_ref)
        p = prof.params
        eta, q_defect = _origin_match(prof)
        assert prof.eta_origin == pytest.approx(eta, rel=1e-15)
        assert prof.origin_q_defect == pytest.approx(q_defect, rel=1e-6, abs=1e-15)
        assert (prof.fp_residual, prof.picard_iterations) == (tail_ref.fp_residual, tail_ref.iterations)
        lam = 1.7
        two1m = 2.0 / (1.0 - p.m)
        scaled = rescale_profile(prof, lam)
        kappa = lam ** (two1m - p.gamma)
        assert scaled.eta_origin == prof.eta_origin * kappa
        assert scaled.origin_q_defect == prof.origin_q_defect
        assert scaled.eta_inf == prof.eta_inf * lam ** (two1m - (p.n - 2) / p.m)
        assert scaled.fp_residual == prof.fp_residual

    def test_origin_match_meets_z(self, base_profile):
        # the series' q at rho* against b' z / rho there, which the match
        # does not read: measured 3.5e-13, gate 1e-10
        assert base_profile.origin_q_defect <= _ORIGIN_Q_TOL
        assert base_profile.origin_q_defect <= 1e-11

    def test_horner_is_polyval(self, params_ref):
        # the Horner loop of _origin_match (on floats) and of expansion_check
        # (in place on arrays) gives polyval's bits
        Q = _origin_series(params_ref)
        ts = np.geomspace(1e-4, 1.0, 50)
        for coeffs in (Q, Q / np.arange(1, Q.size + 1)):
            for t in ts.tolist():
                assert _horner(t, coeffs.tolist()) == np.polynomial.polynomial.polyval(t, coeffs)
            assert np.array_equal(_horner(ts, coeffs.tolist()), np.polynomial.polynomial.polyval(ts, coeffs))

    def test_series_recursion(self, params_ref):
        # the first two coefficients give the closed forms wbar_rho(0) = a3/a2
        # and wbar_rhorho(0) = a3 (m a3 - a1) / a2^2 at eta = 1
        Q = _origin_series(params_ref)
        p = params_ref
        assert Q[0] == pytest.approx(-0.8, rel=1e-14)
        assert Q[1] + Q[0] ** 2 == pytest.approx(p.a3 * (p.m * p.a3 - p.a1) / p.a2 ** 2, rel=1e-14)
        assert not Q.flags.writeable
        # q = wbar_rho / wbar solves rho^2 q' + m rho^2 q^2 + a1 rho q + a2 q wbar^(1-m) = a3
        rho = np.linspace(1e-3, 1e-2, 5)
        q = np.polynomial.polynomial.polyval(rho, Q)
        dq = np.polynomial.polynomial.polyval(rho, Q[1:] * np.arange(1, Q.size))
        wbar = np.exp(rho * np.polynomial.polynomial.polyval(rho, Q / np.arange(1, Q.size + 1)))
        lhs = rho**2 * dq + p.m * rho**2 * q**2 + p.a1 * rho * q + p.a2 * q * wbar ** (1 - p.m)
        assert np.abs(lhs - p.a3).max() <= 1e-14

    def test_eta_origin_regression(self, base_profile):
        assert base_profile.eta_origin == pytest.approx(ETA_ORIGIN_BASE, rel=1e-9)

    def test_far_field_gap(self, tail_ref):
        # the far-field limit eta_inf = 1 is W + C1 s -> 0, which
        # tail_residual compares with Phi_1(h) up to s_T: its last sample is
        # s_T, and a 1e-6 dent in W on the tail's last 2% alone reads 1e-6
        assert tail_ref.fp_residual <= 1e-10
        far = tail_ref.grid >= tail_ref.grid[-1] - 0.02 * (tail_ref.grid[-1] - tail_ref.grid[0])
        dented = replace(tail_ref, W=tail_ref.W + np.where(far, math.log1p(1e-6), 0.0))
        assert tail_residual(dented) >= 5e-7

    def test_shallow_profile_rejected(self, tail_ref):
        # rho_min = e^(-3/b') = 0.027 is above rho*/2: the window below the
        # match node would not span a factor 2
        with pytest.raises(ResolutionError,
                           match=r"^profile reaches only rho = 0\.02\d+ > rho\*/2 = 0\.01\d+ of the "
                                 r"origin series; extend s_min$"):
            continue_left(tail_ref, s_min=-3.0)

    def test_detects_corrupted_origin_region(self, base_profile):
        # z raised by 1e-3 on the window below rho*, on the stored xi =
        # log(h/(-z)), h = C1 + z: the q check trips
        C1 = base_profile.params.C1
        i = _origin_node(base_profile, base_profile.eta_origin)
        z_bad = base_profile.z[:i + 1] * (1.0 + 1e-3)
        xi_bad = base_profile.xi.copy()
        xi_bad[:i + 1] = np.log((C1 + z_bad) / -z_bad)
        with pytest.raises(ExtrapolationError, match="q defect 0.001"):
            _origin_match(replace(base_profile, xi=xi_bad))
        _origin_match(base_profile)

    def test_match_node_follows_the_transition(self, base_profile):
        # rho* = min(c/40, max(0.02 rho_t, 2 rho_min)), rho_t the transition
        # row's rho: at the reference point 0.02 rho_t = 0.0101 and c/40 =
        # 0.028, and the node stays the one the absolute rho* = 0.01 picked.
        # A rescaled table keeps the node: the transition moves with it
        p = base_profile.params
        t, i = base_profile.transition, _origin_node(base_profile, base_profile.eta_origin)
        assert base_profile.xi[t] <= 0.0 < base_profile.xi[t - 1]
        rho = np.exp(base_profile.s_grid / p.beta_p)
        assert rho[i] <= 0.02 * rho[t] < rho[i + 1]
        assert i == int(np.searchsorted(base_profile.s_grid, p.beta_p * math.log(1e-2), side="right")) - 1
        for lam in (1e-10, 1e10):
            scaled = rescale_profile(base_profile, lam)
            assert scaled.transition == t
            assert _origin_node(scaled, scaled.eta_origin) == i


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
        assert np.allclose(np.exp(scaled.s_grid), np.exp(base_profile.s_grid) / lam, rtol=1e-13)
        assert np.allclose(_f(scaled), lam**two1m * _f(base_profile), rtol=1e-12)

    def test_roundtrip(self, base_profile):
        back = rescale_profile(rescale_profile(base_profile, 2.0), 0.5)
        assert back.eta_origin == pytest.approx(base_profile.eta_origin, rel=1e-12)
        # two shifts by (2/(1-m) - gamma) log 2 = -1.04, each rounded to half
        # an ulp of |W| <= 44.3: measured 3.6e-15
        assert np.abs(back.W - base_profile.W).max() <= 4e-15

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
        wt_last = math.exp(float(unit_eta_profile.W[-1]))
        assert wt_last * math.exp(C1 * s_last) == pytest.approx(unit_eta_profile.eta_inf, rel=1e-8)

    def test_finite_when_c2_below_one(self):
        # at (3, 0.3, 3.095) 40 b' = 240 and gamma * 240 overflows
        # e^(-gamma s); the default left end stops short of that
        prof = solve_for_eta(derive_params(3, 0.3, 3.095), 1.0)
        assert np.all(np.isfinite(_f(prof)))
        assert prof.eta_origin == pytest.approx(1.0, rel=1e-10)

    def test_completes_where_stiff_trial_steps_overflowed(self):
        # an admissible point where a trial step of the left continuation
        # that overshoots W overflows exp in X(s, W)
        prof = solve_for_eta(derive_params(4, 0.45, 4.04), 1.0)
        assert np.all(np.isfinite(_f(prof)))
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
    (lambda p: solve_for_eta(p, 1.0, s_min=-math.inf), "s_min"),
    (lambda p: solve_for_eta(p, math.inf), "target_eta"),
], ids=["n-nan", "n-inf", "b1_margin", "tol", "continue_left-tol", "s_min", "target_eta"])
def test_non_finite_input_is_range_error(build, name, params_ref):
    # refused where the value enters, by name, before it reaches int() or a solver
    with pytest.raises(RangeError, match=name):
        build(params_ref)


class TestEndpointInsensitivity:
    def test_eta_origin_stable_under_window_changes(self, base_profile, tail_ref):
        # moving the left integration endpoint must not move the origin
        # coefficient: the profile the pipeline selects is unique
        prof2 = continue_left(tail_ref, s_min=base_profile.s_grid[0] - 2.0)
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
        r, f = np.exp(base_profile.s_grid), _f(base_profile)
        for k in np.linspace(0, r.size - 1, 17).astype(int):
            assert f_of_r(float(r[k])) == pytest.approx(float(f[k]), rel=1e-12)

    def test_array_and_scalar_semantics(self, base_profile):
        f_of_r = profile_interpolator(base_profile)
        r = np.exp(base_profile.s_grid)[100:103]
        out = f_of_r(r)
        assert out.shape == r.shape
        assert isinstance(f_of_r(float(r[0])), float)

    def test_out_of_range(self, base_profile):
        # below the table's first radius and at r <= 0 it refuses; past the
        # last radius it reads the analytic tail, below the last row's f
        f_of_r = profile_interpolator(base_profile)
        with pytest.raises(RangeError, match="below profile table"):
            f_of_r(float(np.exp(base_profile.s_grid)[0]) * 0.5)
        with pytest.raises(RangeError, match="below profile table"):
            f_of_r(np.exp(base_profile.s_grid[:3]) * 0.5)
        r_e = float(np.exp(base_profile.s_grid)[-1])
        assert 0.0 < f_of_r(r_e * 1.5) < f_of_r(r_e)
        with pytest.raises(RangeError):
            f_of_r(0.0)
        with pytest.raises(RangeError):
            f_of_r(-1.0)

    def test_continuous_at_the_last_row(self, base_profile, unit_eta_profile):
        # the Hermite interpolant's last piece and the analytic tail meet at
        # the last row: one ulp of r apart, f moves by the roundoff of log
        # r's step
        for prof in (base_profile, unit_eta_profile):
            f_of_r = profile_interpolator(prof)
            r_e = _radius_with_log(float(prof.s_grid[-1]))
            at, past = f_of_r(r_e), f_of_r(float(np.nextafter(r_e, math.inf)))
            assert past == pytest.approx(at, rel=1e-13, abs=0)
            assert at == pytest.approx(float(_f(prof)[-1]), rel=1e-15, abs=0)

    def test_non_finite_radius_raises(self, base_profile):
        f_of_r = profile_interpolator(base_profile)
        inner = float(np.exp(base_profile.s_grid)[100])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(RangeError):
                f_of_r(bad)
            with pytest.raises(RangeError):
                f_of_r(np.array([inner, bad]))
            with pytest.raises(RangeError):
                f_of_r(np.asarray(bad))

    def test_scalar_path_equals_array_path(self, base_profile, unit_eta_profile):
        # a float radius takes the scalar path, an array the array path; the
        # two must agree to the last bit, the end pieces and the analytic
        # tail past the last row included
        rng = np.random.default_rng(8)
        for prof in (base_profile, unit_eta_profile):
            f_of_r = profile_interpolator(prof)
            s = prof.s_grid
            ends = [_radius_with_log(s[0]), _radius_with_log(s[-1])]
            outside = np.exp([s[0] - 5e-13, s[-1] + 5e-13])
            past = np.exp(rng.uniform(s[-1], s[-1] + 50.0, 1_000))
            radii = np.concatenate([np.exp(prof.s_grid), ends, outside, past,
                                    np.exp(rng.uniform(s[0], s[-1], 10_000))])
            batch = f_of_r(radii)
            scalar = np.array([f_of_r(float(r)) for r in radii])
            assert np.array_equal(scalar, batch)
            assert all(f_of_r(float(r)) == f_of_r(np.array([r]))[0] for r in radii[-100:])

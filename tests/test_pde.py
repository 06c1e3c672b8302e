"""Tests for the radial solver layer: grid and config validation, exact
solutions (constants, closed-form extinction solution, the self-similar
orbit), convergence order, similarity rescaling, sandwiched pairs, and the
two experiment drivers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fastdiff import (
    ConfigError,
    EvolveConfig,
    GridMismatchError,
    RadialField,
    RangeError,
    SandwichViolationError,
    barenblatt,
    contraction_experiment,
    convergence_experiment,
    derive_params,
    evolve,
    lambda_for_amplitude,
    log_grid,
    make_self_similar_field,
    power_bump_initial,
    random_sandwiched_pair,
    rescale_field,
)
from fastdiff.errors import NewtonDivergence

ANNULUS = (0.1, 10.0)


def _annulus_rel_err(grid, u, v):
    sel = (grid >= ANNULUS[0]) & (grid <= ANNULUS[1])
    return float(np.max(np.abs(u[sel] - v[sel]) / np.abs(v[sel])))


@pytest.fixture(scope="module")
def grid128():
    return log_grid(1e-2, 1e2, 128)


@pytest.fixture(scope="module")
def bb():
    return barenblatt(3, 0.2, 1.0, 8.0)


def _bb_field(bb_fn, grid, t, params):
    return RadialField(
        grid, bb_fn(grid, t), t,
        (lambda tt: bb_fn(float(grid[0]), tt), lambda tt: bb_fn(float(grid[-1]), tt)),
        params=params,
    )


class TestLogGrid:
    def test_log_uniform(self):
        g = log_grid(1e-2, 1e2, 41)
        assert g[0] == pytest.approx(1e-2, rel=1e-15)
        assert g[-1] == pytest.approx(1e2, rel=1e-15)
        dx = np.diff(np.log(g))
        assert np.allclose(dx, dx[0], rtol=1e-10)

    def test_validation(self):
        with pytest.raises(RangeError):
            log_grid(0.0, 1.0, 16)
        with pytest.raises(RangeError):
            log_grid(2.0, 1.0, 16)
        with pytest.raises(ConfigError):
            log_grid(0.1, 1.0, 3)


class TestEvolveConfig:
    def test_defaults_valid(self):
        EvolveConfig()

    def test_validation(self):
        with pytest.raises(ConfigError):
            EvolveConfig(dt_init=0.1, dt_max=0.05)
        with pytest.raises(ConfigError):
            EvolveConfig(dt_min=1e-3, dt_init=1e-4)
        with pytest.raises(ConfigError):
            EvolveConfig(newton_max=0)
        with pytest.raises(ConfigError):
            EvolveConfig(dt_rel_max=0.0)
        with pytest.raises(ConfigError):
            EvolveConfig(newton_tol=0.0)


class TestRadialField:
    def test_validation(self, grid128, params_ref):
        ones = np.ones(grid128.size)
        bc = (lambda t: 1.0, lambda t: 1.0)
        with pytest.raises(ConfigError):
            RadialField(grid128, np.concatenate([ones[:-1], [-1.0]]), 1.0, bc)
        with pytest.raises(ConfigError):
            RadialField(grid128[::-1], ones, 1.0, bc)
        with pytest.raises(ConfigError):
            RadialField(grid128, ones[:-1], 1.0, bc)
        with pytest.raises(RangeError):
            RadialField(grid128, ones, 0.0, bc)


class TestBarenblatt:
    def test_validation(self):
        with pytest.raises(RangeError):
            barenblatt(2, 0.2, 1.0, 8.0)
        with pytest.raises(RangeError):
            barenblatt(3, 0.4, 1.0, 8.0)  # above (n-2)/n
        with pytest.raises(RangeError):
            barenblatt(3, 0.2, 0.0, 8.0)
        with pytest.raises(RangeError):
            barenblatt(3, 0.2, 1.0, -1.0)

    def test_time_domain(self, bb):
        with pytest.raises(RangeError):
            bb(1.0, 0.0)
        with pytest.raises(RangeError):
            bb(1.0, 8.0)

    def test_shape_and_extinction(self, bb):
        r = np.geomspace(1e-2, 1e2, 101)
        u = bb(r, 1.0)
        assert np.all(u > 0)
        assert np.all(np.diff(u) < 0)
        assert bb(1.0, 8.0 - 1e-9) < 1e-20

    def test_satisfies_equation(self, bb):
        # independent check through centered differences in r and t
        r0, t0, hr, ht = 1.3, 1.7, 1e-4, 1e-5
        ut = (bb(r0, t0 + ht) - bb(r0, t0 - ht)) / (2 * ht)
        F = lambda rr, tt: bb(rr, tt) ** 0.2 / 0.2
        lap = (F(r0 + hr, t0) - 2 * F(r0, t0) + F(r0 - hr, t0)) / hr**2 \
            + (2.0 / r0) * (F(r0 + hr, t0) - F(r0 - hr, t0)) / (2 * hr)
        assert ut == pytest.approx(lap, rel=1e-6)

    def test_self_similar_collapse(self, bb):
        # B = s^alpha1 F(s^beta1 r) depends on (r, t) only through s^beta1 r
        n, m = 3, 0.2
        beta1 = 1.0 / (n - 2 - n * m)
        alpha1 = (2 * beta1 + 1) / (1 - m)
        s_a, s_b, xi = 2.0, 5.0, 0.7
        va = bb(xi / s_a**beta1, 8.0 - s_a) / s_a**alpha1
        vb = bb(xi / s_b**beta1, 8.0 - s_b) / s_b**alpha1
        assert va == pytest.approx(vb, rel=1e-12)


class TestEvolveBasics:
    def test_constant_state_preserved(self, grid128, params_ref):
        c0 = 2.5
        field = RadialField(grid128, np.full(grid128.size, c0), 1.0,
                            (lambda t: c0, lambda t: c0), params=params_ref)
        out = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.05), 1.5)
        assert np.max(np.abs(out.u - c0)) / c0 <= 1e-11
        assert out.stats.ab_max <= 1e-6

    def test_time_validation(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        with pytest.raises(RangeError):
            evolve(field, EvolveConfig(), 1.0)
        with pytest.raises(RangeError):
            evolve(field, EvolveConfig(), 0.5)

    def test_params_required(self, grid128, bb):
        field = _bb_field(bb, grid128, 1.0, None)
        with pytest.raises(ConfigError):
            evolve(field, EvolveConfig(), 1.5)

    def test_grid_must_be_log_uniform(self, params_ref):
        r = np.linspace(0.1, 10.0, 64)
        field = RadialField(r, np.ones(64), 1.0, (lambda t: 1.0, lambda t: 1.0),
                            params=params_ref)
        with pytest.raises(GridMismatchError):
            evolve(field, EvolveConfig(), 1.5)

    def test_grid_spacing_cap(self, params_ref):
        # the M-matrix sign structure requires dx < 2/(n-2)
        r = log_grid(1e-3, 1e3, 7)
        field = RadialField(r, r**-4.0, 1.0, (lambda t: r[0] ** -4.0, lambda t: r[-1] ** -4.0),
                            params=params_ref)
        with pytest.raises(ConfigError):
            evolve(field, EvolveConfig(), 1.5)

    def test_newton_divergence_when_dt_cannot_shrink(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        stiff = EvolveConfig(dt_init=0.05, dt_max=0.05, dt_min=0.05, newton_max=1)
        with pytest.raises(NewtonDivergence):
            evolve(field, stiff, 1.5)

    def test_stats_recorded(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        out = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.01), 1.2)
        st = out.stats
        assert st.t_start == 1.0 and st.t_end == 1.2
        assert st.n_steps >= 20
        assert st.newton_total >= st.n_steps
        assert st.min_u > 0
        assert st.dt_final > 0


class TestEvolveAccuracy:
    def test_barenblatt_error_and_order(self, params_ref, bb):
        # constant-dt runs with dt proportional to dx^2: the implicit scheme
        # is first order in dt and second order in dx, so errors divide by 4
        errs = []
        for nodes, dt in ((128, 0.004), (256, 0.001)):
            grid = log_grid(1e-2, 1e2, nodes)
            field = _bb_field(bb, grid, 1.0, params_ref)
            out = evolve(field, EvolveConfig(dt_init=dt, dt_max=dt), 2.0)
            errs.append(_annulus_rel_err(grid, out.u, bb(grid, 2.0)))
            assert out.stats.ab_max <= 1e-6
        assert errs[0] <= 5e-4
        order = math.log2(errs[0] / errs[1])
        assert 1.5 <= order <= 2.5

    def test_self_similar_orbit_tracked(self, unit_eta_profile, grid128):
        field = make_self_similar_field(unit_eta_profile, 1.0, 1.0, grid128)
        out = evolve(field, EvolveConfig(dt_init=0.004, dt_max=0.004), 1.3)
        exact = make_self_similar_field(unit_eta_profile, 1.0, 1.3, grid128)
        assert _annulus_rel_err(grid128, out.u, exact.u) <= 2e-2
        assert out.stats.ab_max <= 1e-6

    def test_decay_bound_reported_for_orbit(self, unit_eta_profile, grid128):
        # the orbit data is a semigroup image, so the absolute decay bound
        # u_t <= u/((1-m) t) holds from the first step with real margin
        field = make_self_similar_field(unit_eta_profile, 1.0, 1.0, grid128)
        out = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.01), 1.2)
        assert out.stats.ab_max <= -0.5


class TestSelfSimilarField:
    def test_matches_rescaled_profile_at_t1(self, unit_eta_profile, grid128):
        from fastdiff import profile_interpolator, rescale_profile

        lam = 1.3
        field = make_self_similar_field(unit_eta_profile, lam, 1.0, grid128)
        itp = profile_interpolator(rescale_profile(unit_eta_profile, lam))
        assert np.allclose(field.u, itp(grid128), rtol=1e-12)

    def test_boundary_traces_consistent(self, unit_eta_profile, grid128):
        field = make_self_similar_field(unit_eta_profile, 1.0, 1.0, grid128)
        assert field.bc[0](1.0) == pytest.approx(float(field.u[0]), rel=1e-12)
        assert field.bc[1](1.0) == pytest.approx(float(field.u[-1]), rel=1e-12)

    def test_time_validation(self, unit_eta_profile, grid128):
        with pytest.raises(RangeError):
            make_self_similar_field(unit_eta_profile, 1.0, 0.0, grid128)


class TestRescaleField:
    def test_identity_at_t_equal_one(self, unit_eta_profile, grid128):
        field = make_self_similar_field(unit_eta_profile, 1.0, 1.0, grid128)
        resc = rescale_field(field)
        assert resc.tau == 0.0
        assert np.array_equal(resc.y_grid, grid128)
        assert np.array_equal(resc.u, field.u)
        assert np.array_equal(resc.r_grid, resc.y_grid)

    def test_exact_image_scaling(self, unit_eta_profile, grid128, params_ref):
        t = 1.7
        field = make_self_similar_field(unit_eta_profile, 1.0, t, grid128)
        resc = rescale_field(field)
        assert np.allclose(resc.y_grid, t ** (-params_ref.beta) * grid128, rtol=1e-14)
        assert np.allclose(resc.u, t**params_ref.alpha * field.u, rtol=1e-14)
        assert resc.tau == pytest.approx(math.log(t), rel=1e-15)

    def test_orbit_rescales_onto_profile(self, unit_eta_profile, params_ref):
        # V(r, t) = t^-alpha f(t^-beta r) rescales exactly onto f for all t
        grid = log_grid(1e-2, 1e2, 200)
        t = 2.3
        field = make_self_similar_field(unit_eta_profile, 1.0, t, grid)
        y = log_grid(0.05, 20.0, 80)
        resc = rescale_field(field, y_grid=y)
        from fastdiff import profile_interpolator

        f_ref = profile_interpolator(unit_eta_profile)(y)
        # limited by cubic resampling of log u on the 200-node grid
        assert np.max(np.abs(resc.u - f_ref) / f_ref) <= 1e-7

    def test_resample_out_of_range(self, unit_eta_profile, grid128):
        field = make_self_similar_field(unit_eta_profile, 1.0, 2.0, grid128)
        y_bad = log_grid(1e-2, 1e2, 32)  # t^beta y dips below r_in for t>1, beta<0
        with pytest.raises(RangeError):
            rescale_field(field, y_grid=y_bad)

    def test_params_required(self, grid128):
        field = RadialField(grid128, np.ones(grid128.size), 2.0,
                            (lambda t: 1.0, lambda t: 1.0), params=None)
        with pytest.raises(ConfigError):
            rescale_field(field)


class TestPowerBump:
    def test_validation(self, params_ref):
        with pytest.raises(RangeError):
            power_bump_initial(params_ref, 0.0)
        with pytest.raises(RangeError):
            power_bump_initial(params_ref, 1.0, amp=-1.0)
        with pytest.raises(RangeError):
            power_bump_initial(params_ref, 1.0, width=0.0)

    def test_support_and_amplitude(self, params_ref):
        amp, center, width = 0.10, -1.2, 2.0
        u0 = power_bump_initial(params_ref, 1.0, amp=amp, center=center, width=width)
        gamma = params_ref.gamma
        # exact power law outside the bump window
        for r in (math.exp(center - width) * 0.99, math.exp(center + width) * 1.01, 50.0):
            assert u0(r) == r ** (-gamma)
        # peak enhancement of exactly (1 + amp) at the center
        r_c = math.exp(center)
        assert u0(r_c) == pytest.approx((1 + amp) * r_c ** (-gamma), rel=1e-14)
        r = np.geomspace(1e-3, 1e3, 301)
        vals = u0(r)
        assert vals.shape == r.shape
        assert np.all(vals >= r ** (-gamma) * (1 - 1e-15))


class TestLambdaForAmplitude:
    def test_scaling_law(self, unit_eta_profile):
        from fastdiff import rescale_profile

        for a in (0.5, 1.0, 4.0):
            lam = lambda_for_amplitude(unit_eta_profile, a)
            scaled = rescale_profile(unit_eta_profile, lam)
            assert scaled.eta_origin == pytest.approx(a, rel=1e-12)

    def test_closed_form_at_unit_eta(self, unit_eta_profile, params_ref):
        # for eta = 1 the law reduces to a^((1-m) beta / rho1) = a^(-2/3)
        lam = lambda_for_amplitude(unit_eta_profile, 4.0)
        assert lam == pytest.approx(4.0 ** (-2.0 / 3.0), rel=1e-10)

    def test_validation(self, unit_eta_profile):
        with pytest.raises(RangeError):
            lambda_for_amplitude(unit_eta_profile, 0.0)
        bare = replace(unit_eta_profile, eta_origin=None)
        with pytest.raises(ConfigError):
            lambda_for_amplitude(bare, 1.0)


class TestRandomSandwichedPair:
    def test_fields_inside_envelope(self, unit_eta_profile, grid128):
        rng = np.random.default_rng(5)
        u0, v0, (lo_fn, hi_fn) = random_sandwiched_pair(unit_eta_profile, grid128, 1.0, rng)
        lo = lo_fn(grid128, 1.0)
        hi = hi_fn(grid128, 1.0)
        assert np.all(lo <= hi)
        for f in (u0, v0):
            assert np.all(f.u >= lo * (1 - 1e-8))
            assert np.all(f.u <= hi * (1 + 1e-8))
        assert float(np.max(np.abs(u0.u - v0.u))) > 0.0

    def test_deterministic_by_seed(self, unit_eta_profile, grid128):
        a = random_sandwiched_pair(unit_eta_profile, grid128, 1.0, np.random.default_rng(11))
        b = random_sandwiched_pair(unit_eta_profile, grid128, 1.0, np.random.default_rng(11))
        assert np.array_equal(a[0].u, b[0].u)
        assert np.array_equal(a[1].u, b[1].u)

    def test_validation(self, unit_eta_profile, grid128):
        rng = np.random.default_rng(0)
        with pytest.raises(RangeError):
            random_sandwiched_pair(unit_eta_profile, grid128, 1.0, rng, theta_amp=0.0)
        with pytest.raises(RangeError):
            random_sandwiched_pair(unit_eta_profile, grid128, 1.0, rng, theta_amp=1.5)


@pytest.fixture(scope="module")
def pair(unit_eta_profile):
    grid = log_grid(1e-2, 1e2, 160)
    rng = np.random.default_rng(3)
    u0, v0, sandwich = random_sandwiched_pair(unit_eta_profile, grid, 1.0, rng)
    return u0, v0, sandwich


@pytest.fixture(scope="module")
def result(pair, weight_ref):
    u0, v0, sandwich = pair
    times = np.geomspace(1.0, 1.6, 5)
    cfg = EvolveConfig(dt_init=1e-3, dt_max=0.02)
    return contraction_experiment(u0, v0, weight_ref, times, cfg, sandwich=sandwich)


class TestContractionExperiment:
    def test_both_distances_non_increasing(self, result):
        slack = 1e-6 * (1.0 + result.dist_abs[0])
        assert np.all(np.diff(result.dist_abs) <= slack)
        assert np.all(np.diff(result.dist_pos) <= slack)

    def test_positive_part_below_abs(self, result):
        assert np.all(result.dist_pos <= result.dist_abs * (1 + 1e-12))

    def test_distances_actually_shrink(self, result):
        assert result.dist_abs[-1] < 0.95 * result.dist_abs[0]

    def test_final_fields_carry_stats(self, result):
        assert result.u_final.stats.ab_max <= 1e-6
        assert result.v_final.stats.ab_max <= 1e-6
        assert result.u_final.t == result.times[-1]

    def test_validation(self, pair, weight_ref, unit_eta_profile):
        u0, v0, _ = pair
        cfg = EvolveConfig()
        with pytest.raises(ConfigError):
            contraction_experiment(u0, v0, weight_ref, [1.0], cfg)
        with pytest.raises(ConfigError):
            contraction_experiment(u0, v0, weight_ref, [1.0, 1.5, 1.2], cfg)
        with pytest.raises(RangeError):
            contraction_experiment(u0, v0, weight_ref, [0.5, 1.5], cfg)
        shifted = RadialField(u0.r_grid, u0.u, 2.0, u0.bc, params=u0.params)
        with pytest.raises(ConfigError):
            contraction_experiment(shifted, v0, weight_ref, [2.0, 2.5], cfg)
        other_grid = log_grid(1e-2, 1e2, 161)
        w0 = make_self_similar_field(unit_eta_profile, 1.0, 1.0, other_grid)
        with pytest.raises(GridMismatchError):
            contraction_experiment(u0, w0, weight_ref, [1.0, 1.5], cfg)

    def test_sandwich_violation_detected(self, pair, weight_ref):
        u0, v0, (lo_fn, hi_fn) = pair
        # an envelope that lies about the ordering must be caught at setup
        fake = (lambda r, t: 2.0 * hi_fn(r, t), hi_fn)
        with pytest.raises(SandwichViolationError):
            contraction_experiment(u0, v0, weight_ref, [1.0, 1.5], EvolveConfig(), sandwich=fake)


@pytest.fixture(scope="module")
def grid192():
    return log_grid(1e-2, 1e2, 192)


@pytest.fixture(scope="module")
def cfg():
    return EvolveConfig(dt_init=1e-4, dt_max=0.05, dt_rel_max=2e-3)


class TestConvergenceExperiment:
    def test_orbit_stays_on_profile(self, unit_eta_profile, weight_ref, grid192, cfg):
        tau = np.linspace(0.0, 0.8, 5)
        res = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, tau, cfg,
                                     weight=weight_ref, r_grid=grid192)
        assert np.max(res.dist_l1w) / res.norm_ref <= 1e-3
        # the gap to the pure power law is the far-field mismatch of the
        # profile itself, nonzero even on the orbit
        assert np.isfinite(res.u0_l1_gap) and res.u0_l1_gap >= 0.0
        assert res.lam0 == 1.0

    def test_bump_distance_decays(self, unit_eta_profile, params_ref, weight_ref, grid192, cfg):
        tau = np.linspace(0.0, 0.8, 5)
        bump = power_bump_initial(params_ref, 1.0)
        res = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, bump, tau, cfg,
                                     weight=weight_ref, r_grid=grid192)
        assert res.u0_l1_gap > 0.0
        assert np.all(np.diff(res.dist_l1w) < 0)
        assert res.dist_l1w[-1] < 0.5 * res.dist_l1w[0]
        assert res.field_final.stats.ab_max <= 1e-6

    def test_envelope_violation_rejected(self, unit_eta_profile, params_ref, weight_ref,
                                         grid192, cfg):
        too_big = power_bump_initial(params_ref, 1.0, amp=0.5)  # exceeds a2 = 1.2
        with pytest.raises(SandwichViolationError):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, too_big,
                                   [0.0, 0.5], cfg, weight=weight_ref, r_grid=grid192)

    def test_parameter_validation(self, unit_eta_profile, weight_ref, grid192, cfg):
        with pytest.raises(RangeError):
            convergence_experiment(unit_eta_profile, 1.0, 1.1, 1.2, None, [0.0, 0.5],
                                   cfg, weight=weight_ref, r_grid=grid192)
        with pytest.raises(ConfigError):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, [0.5],
                                   cfg, weight=weight_ref, r_grid=grid192)
        with pytest.raises(RangeError):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, [-0.5, 0.5],
                                   cfg, weight=weight_ref, r_grid=grid192)
        with pytest.raises(RangeError):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, [0.0, 0.5],
                                   cfg, weight=weight_ref, r_grid=grid192, t0=0.0)

    def test_gamma_outside_convergence_range_rejected(self, unit_eta_profile, weight_ref,
                                                      grid192, cfg):
        # gamma = 2.95 is admissible but below n = 3, so the attractor
        # statement does not apply and the driver must refuse
        off = derive_params(3, 0.2, 2.95, 1.0)
        fake = replace(unit_eta_profile, params=off)
        with pytest.raises(RangeError):
            convergence_experiment(fake, 1.0, 1.0, 1.2, None, [0.0, 0.5],
                                   cfg, weight=weight_ref, r_grid=grid192)

    def test_horizon_too_long_for_grid(self, unit_eta_profile, weight_ref, grid192, cfg):
        with pytest.raises(RangeError):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, [0.0, 50.0],
                                   cfg, weight=weight_ref, r_grid=grid192)

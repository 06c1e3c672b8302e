"""Tests for the radial solver layer: grid and config validation, exact
solutions (constants, closed-form extinction solution, the self-similar
orbit), convergence order, similarity rescaling, sandwiched pairs, and the
two experiment drivers."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

import fastdiff.cli
import fastdiff.pde
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
    power_bump_initial,
    random_sandwiched_pair,
    rescale_field,
    rescale_profile,
    sample_solution,
    self_similar_solution,
)
from fastdiff.errors import NewtonDivergence, PositivityError
from fastdiff.pde import _Lockstep, _predict, _Stepper, _StepReject

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
        assert g[0] == pytest.approx(1e-2, rel=1e-15, abs=0)
        assert g[-1] == pytest.approx(1e2, rel=1e-15, abs=0)
        dx = np.diff(np.log(g))
        assert np.allclose(dx, dx[0], rtol=1e-10)

    def test_validation(self):
        # the message names no parameter, since callers name the radii differently
        with pytest.raises(RangeError, match=r"inner radius < outer radius < inf, got \[0.0, 1.0\]"):
            log_grid(0.0, 1.0, 16)
        with pytest.raises(RangeError):
            log_grid(2.0, 1.0, 16)
        with pytest.raises(ConfigError):
            log_grid(0.1, 1.0, 3)
        with pytest.raises(ConfigError):
            log_grid(0.1, 1.0, math.nan)
        with pytest.raises(ConfigError):
            log_grid(0.1, 1.0, 10.7)


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
        # a bool is an int to isinstance; stored, it would print as true
        with pytest.raises(ConfigError, match="newton_max"):
            EvolveConfig(newton_max=True)
        with pytest.raises(ConfigError):
            EvolveConfig(dt_rel_max=0.0)
        with pytest.raises(ConfigError):
            EvolveConfig(newton_tol=0.0)
        with pytest.raises(ConfigError):
            EvolveConfig(newton_max=2.5)
        # an infinite newton_tol would accept the datum as every step's answer
        for name in ("dt_init", "dt_max", "dt_min", "dt_rel_max", "newton_tol"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ConfigError, match=name):
                    EvolveConfig(**{name: bad})

    @pytest.mark.parametrize("name, bad", [
        # True would pass as 1.0: Newton at a tolerance of 1, dt at 1
        ("dt_max", True), ("dt_rel_max", True), ("newton_tol", True), ("dt_min", False),
        # these would reach the range comparison and raise a bare TypeError
        ("dt_max", "0.1"), ("newton_tol", None), ("dt_init", 1 + 0j), ("dt_min", None),
    ])
    def test_float_fields_refuse_bool_and_non_real(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            EvolveConfig(**{name: bad})

    def test_float_fields_take_any_real(self):
        cfg = EvolveConfig(dt_init=np.float64(1e-3), dt_max=1, dt_rel_max=None,
                           newton_tol=np.float32(1e-6))
        assert cfg.dt_max == 1 and cfg.dt_rel_max is None


class TestRadialField:
    def test_validation(self, grid128, params_ref):
        ones = np.ones(grid128.size)
        bc = (lambda t: 1.0, lambda t: 1.0)
        with pytest.raises(ConfigError):
            RadialField(grid128, np.concatenate([ones[:-1], [-1.0]]), 1.0, bc, params_ref)
        with pytest.raises(ConfigError):
            RadialField(grid128, np.concatenate([ones[:-1], [np.inf]]), 1.0, bc, params_ref)
        with pytest.raises(ConfigError):
            RadialField(grid128[::-1], ones, 1.0, bc, params_ref)
        with pytest.raises(ConfigError):
            RadialField(grid128, ones[:-1], 1.0, bc, params_ref)
        with pytest.raises(RangeError):
            RadialField(grid128, ones, 0.0, bc, params_ref)


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
        # an infinite k gives a field that is identically 0, an infinite T
        # one that evaluates to nan
        for k, T in ((math.inf, 8.0), (1.0, math.inf), (math.nan, 8.0), (1.0, math.nan)):
            with pytest.raises(RangeError):
                barenblatt(3, 0.2, k, T)

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
        [out] = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.05), [1.5])
        assert np.max(np.abs(out.u - c0)) / c0 <= 1e-11
        assert out.stats.ab_max <= 1e-6

    def test_time_validation(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        with pytest.raises(RangeError):
            evolve(field, EvolveConfig(), [0.5])
        with pytest.raises(RangeError):
            evolve(field, EvolveConfig(), [0.5, 1.5])
        for bad in ([], [1.2, 1.1], [1.1, 1.1], [1.1, math.nan], [math.inf], 1.5, [[1.1, 1.2]]):
            with pytest.raises(ConfigError):
                evolve(field, EvolveConfig(), bad)

    def test_one_snapshot_per_time(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        times = [1.0, 1.05, 1.1, 1.2]
        snaps = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.01), times)
        assert [s.t for s in snaps] == times
        # the first time is the field's own: no step taken, the datum returned
        assert snaps[0].stats.n_steps == 0 and snaps[0].stats.newton_total == 0
        assert np.array_equal(snaps[0].u, field.u)
        for key in ("n_steps", "n_rejected", "newton_total"):
            counts = [getattr(s.stats, key) for s in snaps]
            assert counts == sorted(counts)
        assert all(s.stats.t_start == 1.0 and s.stats.t_end == s.t for s in snaps)
        assert all(snaps[i].stats.n_steps < snaps[i + 1].stats.n_steps for i in range(3))
        assert np.all(np.diff([s.stats.min_u for s in snaps]) <= 0)

    def test_dt_carries_across_sample_times(self, grid128, params_ref, bb):
        # one march: dt is not reset to dt_init at each sample time, so it
        # takes fewer steps than one evolve call per interval
        field = _bb_field(bb, grid128, 1.0, params_ref)
        cfg = EvolveConfig()
        times = np.exp(np.linspace(0.0, math.log(2.0), 9))
        marched = evolve(field, cfg, times)
        restarted, current = 0, field
        for t in times[1:]:
            [current] = evolve(current, cfg, [t])
            restarted += current.stats.n_steps
        assert marched[-1].stats.n_steps < restarted
        assert marched[-1].t == current.t

    def test_sample_time_keeps_the_proposed_dt(self, grid128, params_ref):
        # a step clamped onto a sample time 1e-6 ahead must not make the
        # march regrow dt from 1e-6: the extra time costs at most its own step
        field = RadialField(grid128, np.ones(grid128.size), 1.0,
                            (lambda t: 1.0, lambda t: 1.0), params=params_ref)
        plain = evolve(field, EvolveConfig(), [2.0, 3.0])[-1].stats.n_steps
        extra = evolve(field, EvolveConfig(), [2.0, 2.0 + 1e-6, 3.0])[-1].stats.n_steps
        assert extra <= plain + 1

    def test_inner_radius_that_overflows_the_stencil(self, params_ref):
        # at r_in = 1e-155 e^(-2 log r) alone passes the largest float: a
        # typed RangeError at construction, decided without the overflowing
        # exp (the test configuration turns its RuntimeWarning into an error)
        r = log_grid(1e-155, 1e3, 400)
        field = RadialField(r, np.ones(400), 1.0, (lambda t: 1.0, lambda t: 1.0),
                            params=params_ref)
        with pytest.raises(RangeError, match="inner radius"):
            evolve(field, EvolveConfig(), [1.5])
        # at 1e-150 the largest coefficient, about 2.4e300, is finite
        stepper = _Stepper(log_grid(1e-150, 1e3, 400), params_ref, EvolveConfig(), [field.bc])
        assert np.all(np.isfinite(stepper.ce))
        # at 1e-154 on 512 nodes it is finite too, about 9.7e307, but the
        # residual's product |ce| u^m/m on u = 1 is not: refused before the
        # first step, not by a nan Newton that halves dt down to dt_min
        r = log_grid(1e-154, 1e3, 512)
        assert np.all(np.isfinite(_Stepper(r, params_ref, EvolveConfig(), [field.bc]).ce))
        field = RadialField(r, np.ones(512), 1.0, (lambda t: 1.0, lambda t: 1.0),
                            params=params_ref)
        with pytest.raises(RangeError, match="inner radius 1e-154 too small"):
            evolve(field, EvolveConfig(), [1.5])

    @pytest.mark.parametrize("r_in, r_out, nodes, refusal", [
        # about the widest grid the inner-radius guard takes at n = 8 (dx
        # just under 2/(n-2) = 1/3): s spans far past the float range
        (1e-153, 1e308, 3300, "too wide for its spacing"),
        # s and 1/s are floats, but 1/s times the stencil on u = 1 is not
        (1e-151, 1.0, 4000, "too wide for the data"),
        # both fit: the constant state steps, with no RuntimeWarning
        (1e-150, 1.0, 4000, None),
    ])
    def test_wide_grid_steps_or_is_range_error(self, r_in, r_out, nodes, refusal):
        # the Newton solve's symmetrizer s grows like r^(-n/2) on a fine grid
        # and faster on a coarse one; each grid the stencil guards accept
        # either steps cleanly or is a typed RangeError before the first step
        params = derive_params(8, 0.375, 8.0)
        field = RadialField(log_grid(r_in, r_out, nodes), np.ones(nodes), 1.0,
                            (lambda t: 1.0, lambda t: 1.0), params=params)
        if refusal:
            with pytest.raises(RangeError, match=refusal):
                evolve(field, EvolveConfig(), [1.01])
        else:
            [out] = evolve(field, EvolveConfig(), [1.01])
            assert np.max(np.abs(out.u - 1.0)) <= 1e-11

    def test_grid_must_be_log_uniform(self, params_ref):
        r = np.linspace(0.1, 10.0, 64)
        field = RadialField(r, np.ones(64), 1.0, (lambda t: 1.0, lambda t: 1.0),
                            params=params_ref)
        with pytest.raises(GridMismatchError):
            evolve(field, EvolveConfig(), [1.5])

    def test_grid_spacing_cap(self, params_ref):
        # the M-matrix sign structure requires dx < 2/(n-2)
        r = log_grid(1e-3, 1e3, 7)
        field = RadialField(r, r**-4.0, 1.0, (lambda t: r[0] ** -4.0, lambda t: r[-1] ** -4.0),
                            params=params_ref)
        with pytest.raises(ConfigError):
            evolve(field, EvolveConfig(), [1.5])

    def test_newton_divergence_when_dt_cannot_shrink(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        stiff = EvolveConfig(dt_init=0.05, dt_max=0.05, dt_min=0.05, newton_max=1)
        with pytest.raises(NewtonDivergence):
            evolve(field, stiff, [1.5])

    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("bad", [0.0, math.nan])
    def test_bad_boundary_trace_is_positivity_error(self, grid128, params_ref, side, bad):
        # a trace that turns 0 or nan after three steps is refused at the new
        # time of the fourth, before its Newton solve: never a nan field or a
        # dt halved down to dt_min
        traces = [lambda t: 1.0, lambda t: 1.0]
        traces[side] = lambda t: 1.0 if t < 1.0035 else bad
        field = RadialField(grid128, np.ones(grid128.size), 1.0, tuple(traces), params=params_ref)
        with pytest.raises(PositivityError, match="boundary trace not positive") as exc:
            evolve(field, EvolveConfig(dt_init=1e-3, dt_max=1e-3), [1.1])
        assert float(str(exc.value).rsplit("t=", 1)[1]) == pytest.approx(1.004, abs=1e-12)
        assert exc.value.exit_code == 4

    def test_stats_recorded(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        [out] = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.01), [1.2])
        st = out.stats
        assert st.t_start == 1.0 and st.t_end == 1.2
        assert st.n_steps >= 20
        assert st.newton_total >= st.n_steps
        assert st.min_u > 0
        assert st.dt_final > 0


def _patch_solve(monkeypatch, increment):
    """Route the steppers' Newton solve through increment(call, delta), whose
    value replaces the solve's delta; call counts the solves from 1."""
    solve = _Stepper._solve
    calls = []

    def patched(self, *args):
        delta = solve(self, *args)
        calls.append(None)
        return increment(len(calls), delta)

    monkeypatch.setattr(_Stepper, "_solve", patched)


def _reference_step(stepper, u_old, t, dt, bcs, predicted_stop=True):
    """The backward-Euler Newton step written against solveh_banded: the
    residual recomputed at the top of every iteration and, in y = u^(m-1)
    delta, the Newton matrix tridiag(-lo, -ce + u^(1-m)/dt, -hi) times dt,
    symmetrized by the stepper's s and laid out in upper banded storage:
    diagonal dt (-ce) + w with w = u / u^m, couplings -sqrt(lo[j+1])
    sqrt(hi[j]) dt, right-hand side -G/s, and delta = s z w.  bcs holds each
    field's (left, right) traces, the fields laid end to end as in the
    stepper; u_old takes the new traces, so a trace row's residual is 0.
    The start's residual is not tested: the first iteration always solves.
    A full increment within newton_tol that clears the positivity floor
    ends the step with no residual after it, so no damping veto.  With
    predicted_stop, so does a full increment after a full one whose rate
    theta = inc/inc_prev < 1 predicts a next increment theta/(1 - theta)
    inc within newton_tol, counting one iteration more than its solves.
    Returns (u_new, linear solves, iterations to convergence, damped),
    where damped says whether an accepted Newton update was scaled by
    lam < 1."""
    m, cfg, lo, ce, hi, s = stepper.m, stepper.cfg, stepper.lo, stepper.ce, stepper.hi, stepper.s
    # s symmetrizes the matrix on every coupling within a field, to the
    # rounding of its log-space sum
    within = (lo[1:] > 0.0) & (hi[:-1] > 0.0)
    assert np.allclose((s[1:] / s[:-1])[within], np.sqrt(lo[1:][within] / hi[:-1][within]),
                       rtol=1e-13, atol=0.0)
    n = u_old.size // len(bcs)
    u_old = u_old.copy()
    for b, (left, right) in enumerate(bcs):
        u_old[b * n], u_old[b * n + n - 1] = float(left(t + dt)), float(right(t + dt))

    def residual(u):
        F = u**m / m
        return u[1:-1] - u_old[1:-1] - dt * (lo * F[:-2] + ce * F[1:-1] + hi * F[2:])

    u = u_old.copy()
    scale = u_old[1:-1]
    ab = np.empty((2, scale.size))
    ab[0, 0] = 0.0
    ab[0, 1:] = -np.sqrt(lo[1:]) * np.sqrt(hi[:-1]) * dt
    damped, inc_prev = False, None
    for it in range(cfg.newton_max):
        G = residual(u)
        err0 = float(np.max(np.abs(G) / scale))
        if it and err0 <= cfg.newton_tol:
            return u, it, it, damped
        w = u[1:-1] / u[1:-1] ** m
        ab[1] = -ce * dt + w
        delta = s * solveh_banded(ab, -G * (1.0 / s)) * w
        inc = float(np.max(np.abs(delta) / scale))
        lam = 1.0
        for _ in range(11):
            trial = u[1:-1] + lam * delta
            if np.any(trial <= 1e-8 * scale):
                lam *= 0.5
                continue
            u_try = u.copy()
            u_try[1:-1] = trial
            if lam == 1.0 and inc <= cfg.newton_tol:
                return u_try, it + 1, it + 1, damped
            if lam == 1.0 and predicted_stop and inc_prev is not None:
                theta = inc / inc_prev
                if theta < 1.0 and theta / (1.0 - theta) * inc <= cfg.newton_tol:
                    return u_try, it + 1, it + 2, damped
            err_try = float(np.max(np.abs(residual(u_try)) / scale))
            if err_try <= 2.0 * err0 or err_try <= cfg.newton_tol:
                u = u_try
                break
            lam *= 0.5
        else:
            raise AssertionError("reference step rejected")
        damped |= lam < 1.0
        if lam * inc <= cfg.newton_tol:
            return u, it + 1, it + 1, damped
        inc_prev = inc if lam == 1.0 else None
    raise AssertionError("reference step did not converge")


class TestStepperKernel:
    def test_step_matches_solve_banded_reference(self, grid128, params_ref, bb,
                                                 unit_eta_profile):
        # Barenblatt at t = 1 for two dt, a constant state, and 400 steps of
        # the self-similar orbit on fdx converge's grid at dt = 2.5e-4 t,
        # from u_old.  Every orbit step stops on its predicted next
        # increment, below the residual's roundoff floor
        field = _bb_field(bb, grid128, 1.0, params_ref)
        stepper = _Stepper(grid128, params_ref, EvolveConfig(), [field.bc])
        for dt in (1e-3, 0.05):
            u_new, solves, iters = stepper.step(field.u, 1.0, dt)
            u_ref, *counts_ref, _ = _reference_step(stepper, field.u, 1.0, dt, [field.bc])
            assert [solves, iters] == counts_ref and solves >= 2
            assert np.array_equal(u_new, u_ref)
        # a constant state starts within newton_tol; its residual is not
        # tested, so the step still takes one solve
        const = np.full(grid128.size, 2.5)
        bc = (lambda t: 2.5, lambda t: 2.5)
        stepper = _Stepper(grid128, params_ref, EvolveConfig(), [bc])
        u_new, solves, iters = stepper.step(const, 1.0, 1e-3)
        u_ref, *counts_ref, _ = _reference_step(stepper, const, 1.0, 1e-3, [bc])
        assert [solves, iters] == counts_ref == [1, 1]
        assert np.array_equal(u_new, u_ref)
        orbit = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                log_grid(1e-3, 1e3, 640), unit_eta_profile.params)
        stepper = _Stepper(orbit.r_grid, params_ref, EvolveConfig(), [orbit.bc])
        u, t, stops = orbit.u, 1.0, []
        for _ in range(400):
            dt = 2.5e-4 * t
            u_new, solves, iters = stepper.step(u, t, dt)
            u_ref, *counts_ref, _ = _reference_step(stepper, u, t, dt, [orbit.bc])
            assert [solves, iters] == counts_ref and solves >= 2
            assert np.array_equal(u_new, u_ref)
            stops.append(iters - solves)
            u, t = u_new, t + dt
        assert set(stops) == {1}

    @pytest.mark.parametrize("newton_tol, iters_expected", [(1e-11, 6), (0.5, 1), (0.1, 3)])
    def test_damped_step_matches_solve_banded_reference(self, grid128, params_ref,
                                                        newton_tol, iters_expected):
        # a rough datum at a large dt: the first Newton update overshoots and
        # is accepted at lam = 1/2.  At the default tolerance the step then
        # converges on full updates; at newton_tol = 0.5 the damped increment
        # (0.42 in the scaled norm, 0.84 undamped) ends the step, so the lam
        # factor of the increment test decides the count.  At newton_tol =
        # 0.1 the rate of the second increment (0.23) over the undamped first
        # would predict a converged third (0.088), but a damped update gives
        # no rate, so the step takes the third solve
        u0 = power_bump_initial(params_ref, 1.0, amp=3.0)(grid128)
        left, right = (lambda t: float(u0[0])), (lambda t: float(u0[-1]))
        stepper = _Stepper(grid128, params_ref, EvolveConfig(newton_tol=newton_tol), [(left, right)])
        u_new, solves, iters = stepper.step(u0, 1.0, 0.2)
        u_ref, *counts_ref, damped = _reference_step(stepper, u0, 1.0, 0.2, [(left, right)])
        assert damped
        assert [solves, iters] == counts_ref == [iters_expected] * 2
        assert np.array_equal(u_new, u_ref)

    def test_last_permitted_iterate_converges_on_its_residual(self, grid128, params_ref, bb):
        # at dt = 0.01 the first iterate's scaled residual (4.2e-6) is within
        # newton_tol = 1e-4 and its increment (4.8e-3) is not.  With
        # newton_max = 1 that iterate is the step's result: the reference,
        # which tests the residual at the top of the next iteration, returns
        # it with the same count when it may iterate on
        field = _bb_field(bb, grid128, 1.0, params_ref)
        cfg = EvolveConfig(dt_init=0.01, dt_max=0.01, dt_min=0.01, newton_tol=1e-4, newton_max=1)
        [out] = evolve(field, cfg, [1.01])
        stepper = _Stepper(grid128, params_ref, EvolveConfig(newton_tol=1e-4), [field.bc])
        u_ref, solves_ref, _, _ = _reference_step(stepper, field.u, 1.0, 1.01 - 1.0, [field.bc])
        assert (out.stats.n_steps, out.stats.n_rejected) == (1, 0)
        assert out.stats.newton_total == solves_ref == 1
        assert np.array_equal(out.u, u_ref)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n, m, gamma", [(3, 0.2, 4.0), (5, 0.3, 6.0), (8, 0.375, 8.0)])
    def test_symmetrized_solve_matches_the_unsymmetric_system(self, n, m, gamma, k):
        # the first Newton increment of a Barenblatt, an orbit and a constant
        # state, one field or two end to end, against solve_banded on the
        # unsymmetric system J/dt delta = -G/dt: rows -lo u^(m-1), -ce
        # u^(m-1) + 1/dt, -hi u^(m-1), no couplings to or from a trace node.
        # Each field's increment agrees to 1e-12 of its largest entry (the
        # constant state's is roundoff), and a trace row's is 0 in both
        params = derive_params(n, m, gamma)
        grid = log_grid(1e-2, 1e2, 128)
        N = grid.size
        orbit = self_similar_solution(fastdiff.solve_for_eta(params, target_eta=1.0), 1.0)
        states = [barenblatt(n, m, 1.0, 8.0)(grid, 1.0), orbit(grid, 1.0),
                  np.full(N, 2.5)]
        stepper = _Stepper(grid, params, EvolveConfig(), [(None, None)] * k)
        trace = np.isin(np.arange(1, k * N - 1) % N, (0, N - 1))
        for i in range(len(states)):
            u = np.concatenate([states[(i + b) % len(states)] for b in range(k)])
            for dt in (1e-3, 0.05):
                G, P = stepper._residual(u, u[1:-1], dt)
                delta = stepper._solve(G, u[1:-1] / P[1:-1], stepper.nce * dt, stepper.e * dt)
                dF = P[1:-1] / u[1:-1]
                ab = np.zeros((3, k * N - 2))
                ab[0, 1:] = np.where(trace[1:], 0.0, -stepper.hi[:-1] * dF[1:])
                ab[1] = -stepper.ce * dF + 1.0 / dt
                ab[2, :-1] = np.where(trace[:-1], 0.0, -stepper.lo[1:] * dF[:-1])
                ref = solve_banded((1, 1), ab, -G / dt)
                assert np.all(delta[trace] == 0.0) and np.all(ref[trace] == 0.0)
                for rows in np.array_split(np.arange(k * N - 2), k):
                    gap = np.max(np.abs(delta[rows] - ref[rows]))
                    assert gap <= 1e-12 * np.max(np.abs(ref[rows]))

    @pytest.mark.parametrize("info, bad", [(1, 0.0), (0, math.nan), (0, math.inf)])
    def test_failed_linear_solve_is_newton_divergence(self, grid128, params_ref, bb,
                                                      monkeypatch, info, bad):
        # a solve that LAPACK flags as singular (info > 0), even with a usable
        # answer, or a non-finite update ends as the typed Newton failure,
        # not a LinAlgError or ValueError
        ptsv = fastdiff.pde.dptsv

        def failing_ptsv(*args):
            d, e, x, _ = ptsv(*args)
            return d, e, x + bad, info

        monkeypatch.setattr(fastdiff.pde, "dptsv", failing_ptsv)
        field = _bb_field(bb, grid128, 1.0, params_ref)
        with pytest.raises(NewtonDivergence):
            evolve(field, EvolveConfig(dt_init=0.01, dt_max=0.01, dt_min=0.01), [1.5])


    def test_positivity_backtracking_recovers(self, grid128, params_ref, bb, monkeypatch):
        # a first increment of -2 u puts u + lam delta at -u and then 0: the
        # step halves lam past the positivity floor and on through the
        # damping veto, and Newton then converges to the unpatched answer
        field = _bb_field(bb, grid128, 1.0, params_ref)
        cfg = EvolveConfig(dt_init=0.01, dt_max=0.01, dt_min=0.01)
        plain = evolve(field, cfg, [1.01])[-1]
        u_int = field.u[1:-1]
        _patch_solve(monkeypatch, lambda call, delta: -2.0 * u_int if call == 1 else delta)
        out = evolve(field, cfg, [1.01])[-1]
        assert out.stats.n_rejected == 0
        assert out.stats.newton_total > plain.stats.newton_total
        assert np.max(np.abs(out.u - plain.u) / plain.u) <= 1e-9

    def test_exhausted_backtracking_is_positivity_error(self, grid128, params_ref, bb,
                                                        monkeypatch):
        # an increment of -(1 + 2^11) u keeps u + lam delta negative for every
        # lam = 1, 1/2, ..., 2^-10: backtracking is exhausted on positivity,
        # and at dt_min the step ends as the typed positivity failure (exit 4)
        field = _bb_field(bb, grid128, 1.0, params_ref)
        u_int = field.u[1:-1]
        _patch_solve(monkeypatch, lambda call, delta: -(1.0 + 2.0**11) * u_int)
        with pytest.raises(PositivityError, match="positivity backtracking exhausted") as exc:
            evolve(field, EvolveConfig(dt_init=0.01, dt_max=0.01, dt_min=0.01), [1.5])
        assert exc.value.exit_code == 4

    @pytest.mark.parametrize("dt_prev, dt", [(1e-3, 1e-3), (0.02, 0.05)])
    def test_predicted_start_matches_reference(self, grid128, params_ref, bb, dt_prev, dt):
        # three steps of dt_prev, then one of dt that starts from the cubic in
        # u through the four states: it lands on the step's solution in fewer
        # linear solves than the reference, which starts from u_old
        field = _bb_field(bb, grid128, 1.0, params_ref)
        stepper = _Stepper(grid128, params_ref, EvolveConfig(), [field.bc])
        states, t = [field.u], 1.0
        for _ in range(3):
            u, _, _ = stepper.step(states[0], t, dt_prev)
            states.insert(0, u)
            t += dt_prev
        hs = [dt_prev] * 3
        start = _predict(states, hs, dt, 1)
        u_new, solves, _ = stepper.step(states[0], t, dt, start)
        u_ref, solves_ref, _, _ = _reference_step(stepper, states[0], t, dt, [field.bc])
        assert solves < solves_ref
        assert np.max(np.abs(u_new - u_ref) / u_ref) <= 1e-10

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_predictor_is_exact_on_polynomial_u(self, degree):
        # through degree + 1 states at unequal steps, the start reproduces a
        # u that is a polynomial of that degree in t.  u stays within
        # [1.2, 2.8], away from 0, so a relative tolerance measures the error
        coef = np.random.default_rng(degree).uniform(-0.3, 0.3, (degree, 12))

        def state(t):
            return 2.0 + sum(c * (10.0 * (t - 2.0)) ** j for j, c in enumerate(coef, 1))

        times = [2.0, 1.97, 1.92, 1.91][:degree + 1]
        hs = [a - b for a, b in zip(times, times[1:])]
        start = _predict([state(t) for t in times], hs, 0.04, 1)
        assert np.allclose(start[1:-1], state(2.04)[1:-1], rtol=1e-13, atol=0.0)

    def test_predictor_matches_a_loop_over_the_states(self):
        # the np.dot start against the Lagrange sum written out node by node
        # and state by state, at unequal steps.  The bound is fixed by the
        # dtype before the run: a few roundings of the largest sum of
        # |w_j u_j| a node can have
        rng = np.random.default_rng(5)
        base = rng.uniform(1.0, 2.0, 40)
        states = [base + rng.uniform(-0.02, 0.02, 40) for _ in range(4)]
        hs, dt = [1e-3, 1.4e-3, 0.7e-3], 1.2e-3
        nodes = [0.0, -hs[0], -(hs[0] + hs[1]), -sum(hs)]
        w = [math.prod((dt - xk) / (xj - xk) for xk in nodes if xk != xj) for xj in nodes]
        tol = (8 * np.finfo(float).eps * sum(map(abs, w))
               * max(float(np.max(np.abs(u))) for u in states))
        ref = np.empty(38)
        for i in range(38):
            acc = 0.0
            for wj, u in zip(w, states):
                acc += wj * u[i + 1]
            ref[i] = acc
        start = _predict(states, hs, dt, 1)
        assert np.max(np.abs(start[1:-1] - ref)) <= tol

    def test_unusable_start_is_rejected(self, grid128, params_ref, bb):
        # a negative extrapolation, or a start with a zero or a nan, ends in
        # _StepReject from the step; a start that would overflow, of either
        # sign, in _StepReject from _predict.  _predict raises no
        # RuntimeWarning, which the test configuration would turn into an
        # error, even where its sum would pass the largest float
        field = _bb_field(bb, grid128, 1.0, params_ref)
        stepper = _Stepper(grid128, params_ref, EvolveConfig(), [field.bc])
        # u halves per 1e-3, so 2 ahead the line through both states is
        # negative: _predict returns it, and the step refuses it
        start = _predict([field.u, 2.0 * field.u], [1e-3], 2.0, 1)
        assert float(start[1:-1].max()) < 0.0
        with pytest.raises(_StepReject):
            stepper.step(field.u, 1.0, 2.0, start)
        big = 1e300 * field.u / field.u.max()
        start = _predict([big, 0.5 * big], [1e-3], 2.0, 1)
        assert np.allclose(start[1:-1], 1001.0 * big[1:-1], rtol=1e-12, atol=0.0)
        for states in ([big, 0.5 * big], [0.5 * big, big]):
            with pytest.raises(_StepReject):
                _predict(states, [1e-3], 1e6, 1)
        for bad in (0.0, math.nan):
            start = field.u.copy()
            start[5] = bad
            with pytest.raises(_StepReject):
                stepper.step(field.u, 1.0, 1e-3, start)


def _record_steps(monkeypatch):
    """Wrap _Stepper.step; each call appends (t, dt, start given, linear
    solves)."""
    calls = []
    step = _Stepper.step

    def recording(self, u_old, t, dt, *start):
        u_new, solves, iters = step(self, u_old, t, dt, *start)
        calls.append((t, dt, bool(start) and start[0] is not None, solves))
        return u_new, solves, iters

    monkeypatch.setattr(_Stepper, "step", recording)
    return calls


class TestNewtonPredictor:
    def test_capped_steps_take_two_solves(self, unit_eta_profile, monkeypatch):
        # the self-similar orbit on fdx converge's grid and dt_rel_max: once
        # dt_rel_max * t sizes the steps, each starts from the extrapolation.
        # The first one extrapolates through the dt_init ramp and takes two
        # solves, as the ramp's steps from u_old do; the cubic then takes two
        # while it settles
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 2.0,
                                log_grid(1e-3, 1e3, 640), unit_eta_profile.params)
        cfg = EvolveConfig(dt_init=1e-4, dt_rel_max=2.5e-4)
        calls = _record_steps(monkeypatch)
        [out] = evolve(field, cfg, [2.04])
        capped = [i for i, (t, dt, _, _) in enumerate(calls) if dt == cfg.dt_rel_max * t]
        past_ramp = calls[capped[0]:-1]
        assert len(capped) == len(past_ramp) >= 70
        assert past_ramp[0][-1] <= 3
        assert max(iters for *_, iters in past_ramp[1:]) <= 2
        assert all(predicted for _, _, predicted, _ in past_ramp)
        assert out.stats.n_steps == len(calls)

    def test_converged_increment_skips_the_residual(self, unit_eta_profile, monkeypatch):
        # a predicted step evaluates the residual at its start and after each
        # update but the converged last one.  Past t = 2.25 the cubic has
        # settled within newton_tol of each step's solution, so nearly every
        # cap-sized step takes one solve and one residual
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 2.0,
                                log_grid(1e-3, 1e3, 640), unit_eta_profile.params)
        cfg = EvolveConfig(dt_init=1e-4, dt_rel_max=2.5e-4)
        n_residuals = [0]
        residual = _Stepper._residual

        def counting(self, *args):
            n_residuals[0] += 1
            return residual(self, *args)

        per_step = []
        step = _Stepper.step

        def counted(self, u_old, t, dt, start=None):
            before = n_residuals[0]
            u_new, solves, iters = step(self, u_old, t, dt, start)
            per_step.append((t, dt, start is not None, solves, n_residuals[0] - before))
            return u_new, solves, iters

        monkeypatch.setattr(_Stepper, "_residual", counting)
        monkeypatch.setattr(_Stepper, "step", counted)
        evolve(field, cfg, [2.25, 2.5])
        predicted = [(solves, n) for _, _, given, solves, n in per_step if given]
        assert len(predicted) >= 800
        assert all(n == solves for solves, n in predicted)
        settled = [(solves, n) for t, dt, _, solves, n in per_step
                   if t >= 2.25 and dt == cfg.dt_rel_max * t]
        assert len(settled) >= 400
        assert settled.count((1, 1)) >= 0.9 * len(settled)

    def test_step_after_a_sample_time_is_predicted(self, unit_eta_profile, monkeypatch):
        # a step clamped onto a sample time keeps dt, so the cap still sizes
        # the next step, which starts from the extrapolation
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 2.0,
                                log_grid(1e-3, 1e3, 640), unit_eta_profile.params)
        cfg = EvolveConfig(dt_init=1e-4, dt_rel_max=2.5e-4)
        calls = _record_steps(monkeypatch)
        evolve(field, cfg, [2.02, 2.04])
        [after] = [call for call in calls if call[0] == 2.02]
        _, dt, predicted, iters = after
        assert predicted
        assert iters <= 2
        assert dt == cfg.dt_rel_max * 2.02

    def test_rejected_start_retries_from_u_old(self, unit_eta_profile, monkeypatch):
        # a start with a negative node rejects the first predicted step; the
        # halved dt is below the cap, so the retry starts from u_old, and
        # prediction resumes once the cap sizes the steps again
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 2.0,
                                log_grid(1e-3, 1e3, 640), unit_eta_profile.params)
        cfg = EvolveConfig(dt_init=1e-4, dt_rel_max=2.5e-4)
        attempts = []
        step = _Stepper.step

        def recording(self, u_old, t, dt, start=None):
            attempts.append((t, dt, start is not None))
            return step(self, u_old, t, dt, start)

        predict = fastdiff.pde._predict

        def first_start_bad(states, hs, dt, n_fields):
            start = predict(states, hs, dt, n_fields)
            if not any(given for *_, given in attempts):
                start[5] = -start[5]
            return start

        monkeypatch.setattr(_Stepper, "step", recording)
        monkeypatch.setattr(fastdiff.pde, "_predict", first_start_bad)
        [out] = evolve(field, cfg, [2.02])
        k = next(i for i, (*_, given) in enumerate(attempts) if given)
        t, dt, _ = attempts[k]
        assert attempts[k + 1] == (t, 0.5 * dt, False)
        assert any(given for *_, given in attempts[k + 2:])
        assert out.stats.n_rejected == 1
        assert out.stats.n_rejected_positivity == 0
        assert out.stats.n_steps == len(attempts) - 1

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 1.2)])
    def test_ring_start_equals_the_listed_states_start(self, unit_eta_profile, monkeypatch,
                                                        lams):
        # the orbit, alone and next to the orbit of another scaling, on fdx
        # converge's grid from dt_init at the cap, so prediction begins at
        # the second step through 2, then 3, then 4 states.  Over about 40
        # steps the ring wraps several times, and the third predicted start
        # is rejected (one node negated).  Every window _Lockstep reads from
        # the ring is the accepted states newest first, and its start equals
        # _predict's over those states listed, bit for bit
        profile, grid = unit_eta_profile, log_grid(1e-3, 1e3, 640)
        fields = [sample_solution(self_similar_solution(profile, lam), 2.0, grid, profile.params)
                  for lam in lams]
        accepted = [np.concatenate([f.u for f in fields])]
        windows = []
        step, predict = _Stepper.step, fastdiff.pde._predict

        def recording(self, u_old, t, dt, start=None):
            u_new, solves, iters = step(self, u_old, t, dt, start)
            accepted.insert(0, u_new)
            return u_new, solves, iters

        def checked(states, hs, dt, n_fields):
            start = predict(states, hs, dt, n_fields)
            listed = accepted[:len(hs) + 1]
            assert np.array_equal(states, np.array(listed))
            assert np.array_equal(start, predict(listed, hs, dt, n_fields))
            windows.append(len(listed))
            if len(windows) == 3:
                start[5] = -start[5]
            return start

        monkeypatch.setattr(_Stepper, "step", recording)
        monkeypatch.setattr(fastdiff.pde, "_predict", checked)
        march = _Lockstep(fields, profile.params, EvolveConfig(dt_init=5e-4, dt_rel_max=2.5e-4))
        march.advance(2.02)
        assert windows[:3] == [2, 3, 4]
        assert len(windows) > 2 * (fastdiff.pde._PREDICT_DEGREE + 1) + 3
        assert march.n_rejected == 1
        assert march.n_steps == len(accepted) - 1

    def test_bump_steps_stay_at_the_cap(self, unit_eta_profile, weight_ref, monkeypatch):
        # fdx converge --case bump to t = 1.02.  The predicted step at
        # t = 1.00087 counts 4 (its predicted stop counts the solve it skips);
        # dt must still grow, or it stays just below the next cap and the
        # growth rule sizes the following steps from u_old (58 of them)
        calls = _record_steps(monkeypatch)
        u0 = power_bump_initial(unit_eta_profile.params, 1.0, 0.10, -1.2, 2.0)
        cfg = EvolveConfig(dt_init=1e-4, dt_rel_max=2.5e-4)
        convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, u0, [0.0, math.log(1.02)], cfg,
                               weight_ref, log_grid(1e-3, 1e3, 640))
        first = next(i for i, (_, _, predicted, _) in enumerate(calls) if predicted)
        past_ramp = calls[first:]
        assert len(past_ramp) >= 70
        assert all(predicted for _, _, predicted, _ in past_ramp)

    def test_growth_sized_steps_start_from_u_old(self, grid128, params_ref, bb, monkeypatch):
        # no cap binds: dt grows from dt_init and stays below dt_max, so the
        # Newton count chooses every step and none is predicted
        field = _bb_field(bb, grid128, 1.0, params_ref)
        cfg = EvolveConfig(dt_init=1e-3, dt_max=0.05)
        calls = _record_steps(monkeypatch)
        predictor_calls = []
        monkeypatch.setattr(fastdiff.pde, "_predict", lambda *args: predictor_calls.append(args))
        evolve(field, cfg, [1.05, 1.1])
        assert len(calls) >= 10
        assert max(dt for _, dt, _, _ in calls) < cfg.dt_max
        assert not any(predicted for _, _, predicted, _ in calls)
        assert predictor_calls == []


class TestPredictedStop:
    def test_contract_pair_keeps_the_growth_counts(self, tmp_path, monkeypatch):
        # fdx contract --seed 0: the pair on 512 nodes over t in [1, 3].  At
        # every step the growth rule reads the count of the reference without
        # the predicted stop, from the same u_old: the stop saves a solve but
        # counts it, so dt follows the same sequence.  Most steps stop on
        # their predicted increment, one solve before the increment test
        steps = []
        step = _Stepper.step

        def recording(self, u_old, t, dt, start=None):
            u_new, solves, iters = step(self, u_old, t, dt, start)
            steps.append((self, u_old.copy(), t, dt, start is None, solves, iters))
            return u_new, solves, iters

        monkeypatch.setattr(_Stepper, "step", recording)
        assert fastdiff.cli.main(["contract", "--n", "3", "--seed", "0",
                                  "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "contract_summary.json").read_text())["stats_u"]
        assert stats["n_steps"] == len(steps) == 245
        assert stats["newton_total"] == sum(solves for *_, solves, _ in steps)
        fewer = 0
        for stepper, u_old, t, dt, from_u_old, solves, iters in steps:
            assert from_u_old
            _, solves_ref, iters_ref, _ = _reference_step(stepper, u_old, t, dt, stepper.bcs,
                                                          predicted_stop=False)
            assert iters == iters_ref == solves_ref
            fewer += solves == solves_ref - 1
        assert fewer >= 0.85 * len(steps)


def _sandwich_fields(profile, grid, seed):
    """The sandwiched pair of fdx contract at t = 1 and its two envelopes,
    each with its own traces except the pair, which share the upper one's."""
    u0, v0, (lo_fn, hi_fn) = random_sandwiched_pair(profile, grid, 1.0,
                                                    np.random.default_rng(seed))
    lo, hi = (fastdiff.pde.sample_solution(V, 1.0, grid, profile.params) for V in (lo_fn, hi_fn))
    return [u0, v0, lo, hi]


def _flat_and_single_steps(fields, params, cfg, dts, predict):
    """Step the fields as one flat system and each alone through the same
    step sizes; with predict, every step after the first starts from the
    cubic through the accepted states.  Returns per step (flat u, [the flat
    step's linear solves] * k, which is what each field's newton_total
    takes, [single u], [single solves])."""
    k, n = len(fields), fields[0].u.size
    flat = _Stepper(fields[0].r_grid, params, cfg, [f.bc for f in fields])
    singles = [_Stepper(f.r_grid, params, cfg, [f.bc]) for f in fields]
    past = [np.concatenate([f.u for f in fields])]
    pasts = [[f.u] for f in fields]
    hs, t, out = [], fields[0].t, []
    for dt in dts:
        start = _predict(past, hs, dt, k) if predict and hs else None
        starts = [_predict(p, hs, dt, 1) if start is not None else None for p in pasts]
        if start is not None:
            for b in range(k):
                assert np.array_equal(start.reshape(k, n)[b, 1:-1], starts[b][1:-1])
        u, solves, _ = flat.step(past[0], t, dt, start)
        stepped = [s.step(p[0], t, dt, st) for s, p, st in zip(singles, pasts, starts)]
        out.append((u, [solves] * k, [v for v, _, _ in stepped], [c for _, c, _ in stepped]))
        past = [u] + past[:3]
        pasts = [[v] + p[:3] for (v, _, _), p in zip(stepped, pasts)]
        hs = [dt] + hs[:2]
        t += dt
    return out


def _fields_on_their_paths(steps):
    """The _Stepper contract for every field of every flat step from
    _flat_and_single_steps: a field whose own count equals the flat count
    keeps its own step's bits, and a field that converges sooner alone ends
    within 1e-11 of its own step.  Returns how many (step, field) pairs take
    the second path."""
    sooner = 0
    for u, iters, us, counts in steps:
        for part, own, flat_count, count in zip(u.reshape(len(us), -1), us, iters, counts):
            if count == flat_count:
                assert np.array_equal(part, own)
            else:
                assert count < flat_count
                assert np.max(np.abs(part - own) / own) <= 1e-11
                sooner += 1
    return sooner


class TestFlatLockstep:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("nodes", [128, 131])
    def test_flat_step_is_k_single_steps(self, unit_eta_profile, params_ref, k, nodes):
        # the pair (k = 2) and the pair with its envelopes (k = 4) on a node
        # count that is and one that is not a multiple of 8: growing steps
        # from u_old, then steps of about 2.5e-4 t (as dt_rel_max = 2.5e-4
        # sizes them) from the predictor.  Every field's state and count
        # equal its own step's bit for bit
        grid = log_grid(1e-2, 1e2, nodes)
        fields = _sandwich_fields(unit_eta_profile, grid, 1)[:k]
        cfg = EvolveConfig()
        grown = _flat_and_single_steps(fields, params_ref, cfg,
                                       [1e-3 * 1.3**j for j in range(14)], predict=False)
        t1 = 1.0 + sum(1e-3 * 1.3**j for j in range(14))
        later = [RadialField(grid, u, t1, f.bc, params_ref)
                 for u, f in zip(grown[-1][0].reshape(k, -1), fields)]
        capped = _flat_and_single_steps(later, params_ref, cfg,
                                        [2.5e-4 * t1 * 1.0001**j for j in range(12)], predict=True)
        # no field converges sooner alone than its flat step on these grids
        assert _fields_on_their_paths(grown + capped) == 0
        assert max(max(iters) for _, iters, _, _ in capped[4:]) <= 2

    def test_fields_converge_at_different_counts(self, unit_eta_profile, params_ref):
        # a constant state converges on its first solve when stepped alone,
        # while a sandwiched field takes three solves.  The flat step takes
        # the larger count: the constant field iterates on with roundoff-sized
        # increments and stays within newton_tol of its own step (2.9e-14 at
        # most), while the other fields equal their own steps bit for bit
        grid = log_grid(1e-2, 1e2, 128)
        const = RadialField(grid, np.full(128, 2.5), 1.0, (lambda t: 2.5, lambda t: 2.5),
                            params_ref)
        for fields in ([const, _sandwich_fields(unit_eta_profile, grid, 1)[0]],
                       _sandwich_fields(unit_eta_profile, grid, 1)[:2] + [const]):
            c = next(i for i, f in enumerate(fields) if f is const)
            steps = _flat_and_single_steps(fields, params_ref, EvolveConfig(),
                                           [1e-3 * 1.3**j for j in range(10)], predict=False)
            for u, iters, us, counts in steps:
                assert counts[c] == 1 < max(counts)
                assert iters == [max(counts)] * len(fields)
            # the constant field converges sooner on every step, and no other
            assert _fields_on_their_paths(steps) == len(steps)

    @pytest.mark.parametrize("newton_tol, iters_expected", [(1e-11, 6), (0.5, 1)])
    def test_damping_veto_in_one_field(self, grid128, params_ref, bb, newton_tol, iters_expected):
        # a rough datum at dt = 0.2, whose first update the damping veto
        # halves, next to the smooth Barenblatt field: the veto reads the
        # residual over both fields, so both take the halved update, and the
        # step takes the rough field's count.  The rough field keeps the bits
        # of its own step.  At newton_tol = 1e-11 the full updates that follow
        # bring the smooth field within newton_tol of its own step (3.2e-15).
        # At newton_tol = 0.5 the damped increment ends the step, so the
        # smooth field keeps half of its first update, 5.5e-2 from its own
        # step, which takes the full one
        rough = power_bump_initial(params_ref, 1.0, amp=3.0)(grid128)
        fields = [RadialField(grid128, rough, 1.0, (lambda t: float(rough[0]),
                                                   lambda t: float(rough[-1])), params_ref),
                  _bb_field(bb, grid128, 1.0, params_ref)]
        for order in (fields, fields[::-1]):
            r = 0 if order is fields else 1
            [(u, iters, us, counts)] = _flat_and_single_steps(
                order, params_ref, EvolveConfig(newton_tol=newton_tol), [0.2], predict=False)
            assert iters == [counts[r]] * 2 == [iters_expected] * 2
            parts = u.reshape(2, -1)
            assert np.array_equal(parts[r], us[r])
            smooth, smooth0 = parts[1 - r], order[1 - r].u
            if newton_tol < 0.5:
                assert np.max(np.abs(smooth - us[1 - r]) / us[1 - r]) <= 1e-11
            else:
                assert counts[1 - r] == 1
                half = 0.5 * (us[1 - r] - smooth0)[1:-1]
                assert np.allclose((smooth - smooth0)[1:-1], half, rtol=1e-12, atol=0.0)
                assert np.max(np.abs(smooth - us[1 - r]) / us[1 - r]) > 1e-2

    def test_positivity_backtrack_in_one_field(self, grid128, params_ref, bb, unit_eta_profile,
                                               monkeypatch):
        # a first increment of -2 u on one field's rows: the step halves the
        # one lam past the positivity floor and on through the damping veto,
        # so the other field takes the same damped first update.  Both fields
        # then take the step's five solves, more than either's own step (3
        # each), and each ends within newton_tol of its own step.  The step
        # stops on a predicted increment, so it counts six iterations
        field = _bb_field(bb, grid128, 1.0, params_ref)
        other = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                grid128, unit_eta_profile.params)
        n, cfg = grid128.size, EvolveConfig()
        base = _Stepper(grid128, params_ref, cfg, [field.bc]).step(field.u, 1.0, 0.01)
        plain = _Stepper(grid128, params_ref, cfg, [other.bc]).step(other.u, 1.0, 0.01)
        seen = set()

        def corrupt(call, delta):
            # the first solve of each step: the single one, then the flat one
            if delta.size not in seen:
                seen.add(delta.size)
                delta[:n - 2] = -2.0 * field.u[1:-1]
            return delta

        _patch_solve(monkeypatch, corrupt)
        single = _Stepper(grid128, params_ref, cfg, [field.bc])
        flat = _Stepper(grid128, params_ref, cfg, [field.bc, other.bc])
        u_one, solves_one, _ = single.step(field.u, 1.0, 0.01)
        u, solves, iters = flat.step(np.concatenate([field.u, other.u]), 1.0, 0.01)
        assert solves_one > base[1]
        assert (solves, iters) == (5, 6)
        assert solves > max(solves_one, plain[1])
        assert np.max(np.abs(u[:n] - u_one) / u_one) <= 1e-11
        assert np.max(np.abs(u[n:] - plain[0]) / plain[0]) <= 1e-11

    @pytest.mark.parametrize("bad, expected", [
        ((None, "positivity"), (1, 1)),
        (("positivity", None), (1, 1)),
        (("newton", "positivity"), (1, 0)),
        # field 1's non-finite update rejects the step before field 0's
        # backtracking is exhausted on positivity
        (("positivity", "newton"), (1, 0)),
        (("positivity", "positivity"), (1, 1)),
        (("positivity", "veto"), (1, 1)),
        (("veto", "positivity"), (1, 1)),
    ])
    def test_rejection_in_any_field(self, grid128, params_ref, bb, monkeypatch, bad, expected):
        # the first solve fails one or both fields: a non-finite update
        # ("newton"), one that no lam lifts over the positivity floor, or
        # one whose residual the damping veto refuses at every lam.
        # The step is rejected for both at the first failure and retried at
        # dt/2 from u_old.  Exhausted backtracking is a positivity rejection
        # when a trial of either field is below the floor, since that test
        # comes before the damping veto
        field = _bb_field(bb, grid128, 1.0, params_ref)
        n = grid128.size
        kills = {"newton": lambda d, u: d * math.nan,
                 "positivity": lambda d, u: -(1.0 + 2.0**11) * u,
                 "veto": lambda d, u: 2.0**20 * u}

        def corrupt(call, delta):
            if call == 1:
                for b, how in enumerate(bad):
                    if how:
                        rows = slice(b * n, b * n + n - 2)
                        delta[rows] = kills[how](delta[rows], field.u[1:-1])
            return delta

        _patch_solve(monkeypatch, corrupt)
        attempts = []
        step = _Stepper.step

        def recording(self, u_old, t, dt, start=None):
            attempts.append((t, dt))
            return step(self, u_old, t, dt, start)

        monkeypatch.setattr(_Stepper, "step", recording)
        march = _Lockstep([field, field], params_ref, EvolveConfig(dt_init=0.01, dt_max=0.01))
        march.advance(1.02)
        assert attempts[:2] == [(1.0, 0.01), (1.0, 0.005)]
        stats = [march.stats(i) for i in range(2)]
        assert all((st.n_rejected, st.n_rejected_positivity) == expected for st in stats)
        assert np.array_equal(march.fields()[0], march.fields()[1])

    def test_first_failure_ends_the_step(self, grid128, params_ref, bb, monkeypatch):
        # field 1's first update is not finite: the step is rejected after
        # that one solve, while field 0, whose own step converges, is
        # solved no further
        field = _bb_field(bb, grid128, 1.0, params_ref)
        n = grid128.size
        calls = []

        def corrupt(call, delta):
            calls.append(call)
            if call == 1:
                delta[n:2 * n - 2] = math.nan
            return delta

        _patch_solve(monkeypatch, corrupt)
        flat = _Stepper(grid128, params_ref, EvolveConfig(), [field.bc, field.bc])
        with pytest.raises(_StepReject) as exc:
            flat.step(np.concatenate([field.u, field.u]), 1.0, 0.01)
        assert exc.value.reason == "newton"
        assert calls == [1]

    def test_shared_traces_evaluated_once_per_step(self, grid128, params_ref, bb):
        # a sandwiched pair shares its upper envelope's traces: each distinct
        # trace callable runs once per step attempt, not once per field
        field = _bb_field(bb, grid128, 1.0, params_ref)
        calls = []

        def counted(fn):
            return lambda t: calls.append(fn) or fn(t)

        bc = tuple(counted(fn) for fn in field.bc)
        pair = [RadialField(grid128, field.u, 1.0, bc, params_ref) for _ in range(2)]
        march = _Lockstep(pair, params_ref, EvolveConfig(dt_init=1e-3, dt_max=0.01))
        march.advance(1.05)
        assert march.n_rejected == 0
        assert len(calls) == 2 * march.n_steps


class TestOwnedSnapshots:
    def test_evolve_snapshots_keep_their_values(self, grid128, params_ref, bb):
        field = _bb_field(bb, grid128, 1.0, params_ref)
        cfg = EvolveConfig(dt_init=1e-3, dt_max=0.01)
        [early] = evolve(field, cfg, [1.1])
        snaps = evolve(field, cfg, [1.1, 1.2, 1.3])
        assert np.array_equal(snaps[0].u, early.u)
        assert all(s.u.flags.owndata for s in snaps)

    def test_contraction_fields_own_their_arrays(self, result):
        assert result.u_final.u.flags.owndata and result.v_final.u.flags.owndata


class TestEvolveAccuracy:
    def test_barenblatt_error_and_order(self, params_ref, bb):
        # constant-dt runs with dt proportional to dx^2: the implicit scheme
        # is first order in dt and second order in dx, so errors divide by 4
        errs = []
        for nodes, dt in ((128, 0.004), (256, 0.001)):
            grid = log_grid(1e-2, 1e2, nodes)
            field = _bb_field(bb, grid, 1.0, params_ref)
            [out] = evolve(field, EvolveConfig(dt_init=dt, dt_max=dt), [2.0])
            errs.append(_annulus_rel_err(grid, out.u, bb(grid, 2.0)))
            assert out.stats.ab_max <= 1e-6
        assert errs[0] <= 5e-4
        order = math.log2(errs[0] / errs[1])
        assert 1.5 <= order <= 2.5

    def test_self_similar_orbit_tracked(self, unit_eta_profile, grid128):
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                grid128, unit_eta_profile.params)
        [out] = evolve(field, EvolveConfig(dt_init=0.004, dt_max=0.004), [1.3])
        exact = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.3,
                                grid128, unit_eta_profile.params)
        assert _annulus_rel_err(grid128, out.u, exact.u) <= 2e-2
        assert out.stats.ab_max <= 1e-6

    def test_decay_bound_margin_matches_definition(self, grid128, params_ref, bb, monkeypatch):
        # ab_max, evaluated as (1-m) t_new/dt max((u_new - u_old)/u_new) - 1,
        # against ((u_new - u_old)/dt - bound)/bound with bound =
        # u_new/((1-m) t_new) on every recorded step
        field = _bb_field(bb, grid128, 1.0, params_ref)
        steps = []
        step = _Stepper.step

        def recording(self, u_old, t, dt, *rest):
            result = step(self, u_old, t, dt, *rest)
            steps.append((u_old.copy(), result[0].copy(), t, dt))
            return result

        monkeypatch.setattr(_Stepper, "step", recording)
        [_, out] = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.01), [1.1, 1.2])
        # each step ends where the next starts; the last at the final time
        t_news = [t for _, _, t, _ in steps[1:]] + [out.t]
        one_m = 1.0 - params_ref.m
        margins = []
        for (u_old, u_new, _, dt), t_new in zip(steps, t_news):
            bound = u_new[1:-1] / (one_m * t_new)
            margins.append(np.max(((u_new[1:-1] - u_old[1:-1]) / dt - bound) / bound))
        ref = max(margins)
        assert out.stats.n_steps == len(steps) >= 20
        assert abs(out.stats.ab_max - ref) <= 4 * np.spacing(abs(ref))

    def test_decay_bound_reported_for_orbit(self, unit_eta_profile, grid128):
        # the orbit data is a semigroup image, so the absolute decay bound
        # u_t <= u/((1-m) t) holds from the first step with real margin
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                grid128, unit_eta_profile.params)
        [out] = evolve(field, EvolveConfig(dt_init=1e-3, dt_max=0.01), [1.2])
        assert out.stats.ab_max <= -0.5


class TestSelfSimilarField:
    def test_matches_rescaled_profile_at_t1(self, unit_eta_profile, grid128):
        from fastdiff import profile_interpolator, rescale_profile

        lam = 1.3
        field = sample_solution(self_similar_solution(unit_eta_profile, lam), 1.0,
                                grid128, unit_eta_profile.params)
        itp = profile_interpolator(rescale_profile(unit_eta_profile, lam))
        assert np.allclose(field.u, itp(grid128), rtol=1e-12)

    def test_boundary_traces_consistent(self, unit_eta_profile, grid128):
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                grid128, unit_eta_profile.params)
        assert field.bc[0](1.0) == pytest.approx(float(field.u[0]), rel=1e-12)
        assert field.bc[1](1.0) == pytest.approx(float(field.u[-1]), rel=1e-12)

    def test_float_radius_equals_array_path(self, unit_eta_profile, params_ref, bb):
        # the boundary traces pass a float radius, which skips np.asarray in
        # V; every trace source must give the array path's value, here on fdx
        # converge's annulus.  Barenblatt's float path squares by numpy's
        # scalar power and its array path by the ufunc loop: up to 2 ulp apart
        r_in, r_out = 1e-3, 1e3
        rng = np.random.default_rng(7)
        radii = [r_in, r_out] + list(np.exp(rng.uniform(math.log(r_in), math.log(r_out), 1000)))
        orbits = [self_similar_solution(unit_eta_profile, lam) for lam in (0.8, 1.0, 1.2)]
        assert all(type(V(r_in, 1.0)) is float for V in orbits)
        bump = power_bump_initial(params_ref, 1.0)
        sources = [(V, (1.0, 1.5, math.exp(3.0)), 0) for V in orbits]
        sources += [(lambda r, t: bump(r), (1.0,), 0), (bb, (1.0, 1.5, 7.9), 2)]
        for V, times, ulps in sources:
            for t in times:
                for r in radii:
                    value = V(np.array([r]), t)[0]
                    assert abs(float(V(float(r), t)) - value) <= ulps * np.spacing(value)

    def test_time_validation(self, unit_eta_profile, grid128):
        with pytest.raises(RangeError):
            sample_solution(self_similar_solution(unit_eta_profile, 1.0), 0.0,
                            grid128, unit_eta_profile.params)


class TestRescaleField:
    def test_identity_at_t_equal_one(self, unit_eta_profile, grid128):
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                grid128, unit_eta_profile.params)
        u = rescale_field(field, grid128)
        assert np.allclose(u, field.u, rtol=1e-13, atol=0.0)

    def test_exact_image_scaling(self, unit_eta_profile, grid128, params_ref):
        # on the image grid t^(-beta) r the resampling lands on the nodes
        t = 1.7
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), t,
                                grid128, unit_eta_profile.params)
        u = rescale_field(field, t ** (-params_ref.beta) * grid128)
        assert np.allclose(u, t**params_ref.alpha * field.u, rtol=1e-13, atol=0.0)

    def test_orbit_rescales_onto_profile(self, unit_eta_profile, params_ref):
        # V(r, t) = t^-alpha f(t^-beta r) rescales exactly onto f for all t
        grid = log_grid(1e-2, 1e2, 200)
        t = 2.3
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), t,
                                grid, unit_eta_profile.params)
        y = log_grid(0.05, 20.0, 80)
        u = rescale_field(field, y)
        from fastdiff import profile_interpolator

        f_ref = profile_interpolator(unit_eta_profile)(y)
        # limited by cubic resampling of log u on the 200-node grid
        assert np.max(np.abs(u - f_ref) / f_ref) <= 1e-7

    def test_resample_out_of_range(self, unit_eta_profile, grid128):
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 2.0,
                                grid128, unit_eta_profile.params)
        y_bad = log_grid(1e-2, 1e2, 32)  # t^beta y dips below r_in for t>1, beta<0
        with pytest.raises(RangeError):
            rescale_field(field, y_bad)

    @pytest.mark.parametrize("y_bad", [[math.nan, 1.0], [1.0, math.inf], [0.0, 1.0], [-1.0, 1.0]])
    def test_non_finite_or_non_positive_y_raises(self, unit_eta_profile, grid128, y_bad):
        # every range comparison with nan is False, so nan once passed the
        # range check and came back as a nan value
        field = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                                grid128, unit_eta_profile.params)
        with pytest.raises(RangeError, match="finite positive"):
            rescale_field(field, y_bad)


class TestPowerBump:
    def test_validation(self, params_ref):
        with pytest.raises(RangeError):
            power_bump_initial(params_ref, 0.0)
        with pytest.raises(RangeError):
            power_bump_initial(params_ref, 1.0, amp=-1.0)
        with pytest.raises(RangeError):
            power_bump_initial(params_ref, 1.0, width=0.0)
        for bad in ({"a0": math.inf}, {"amp": math.inf}, {"center": math.inf},
                    {"center": -math.inf}, {"width": math.inf}, {"a0": math.nan},
                    {"amp": math.nan}, {"center": math.nan}, {"width": math.nan}):
            with pytest.raises(RangeError):
                power_bump_initial(params_ref, **{"a0": 1.0, **bad})

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
        # for eta = 1 the law reduces to a^((1-m) beta) = a^(-2/3)
        lam = lambda_for_amplitude(unit_eta_profile, 4.0)
        assert lam == pytest.approx(4.0 ** (-2.0 / 3.0), rel=1e-10)

    def test_validation(self, unit_eta_profile):
        with pytest.raises(RangeError):
            lambda_for_amplitude(unit_eta_profile, 0.0)


@pytest.mark.parametrize("call", [rescale_profile, self_similar_solution, lambda_for_amplitude])
def test_infinite_scale_is_range_error(call, unit_eta_profile):
    # lam = inf made the rescaled wt 0 (a RuntimeWarning in its log), and
    # amplitude inf gave lam = 0.0 without a word
    with pytest.raises(RangeError, match="positive and finite"):
        call(unit_eta_profile, math.inf)


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

    def test_envelope_order_does_not_matter(self, unit_eta_profile, grid128):
        # the family is monotone in lambda, so lam_pair (0.8, 1.2) picks the
        # same lower and upper envelopes, and the same pair, as (1.2, 0.8)
        swapped = random_sandwiched_pair(unit_eta_profile, grid128, 1.0,
                                         np.random.default_rng(11), lam_pair=(0.8, 1.2))
        default = random_sandwiched_pair(unit_eta_profile, grid128, 1.0,
                                         np.random.default_rng(11))
        for a, b in zip(swapped[:2], default[:2]):
            assert np.array_equal(a.u, b.u)
        for a, b in zip(swapped[2], default[2]):
            assert np.array_equal(a(grid128, 1.3), b(grid128, 1.3))

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
        u0, v0, sandwich = pair
        cfg = EvolveConfig()
        with pytest.raises(ConfigError):
            contraction_experiment(u0, v0, weight_ref, [1.0], cfg, sandwich)
        with pytest.raises(ConfigError):
            contraction_experiment(u0, v0, weight_ref, [1.0, 1.5, 1.2], cfg, sandwich)
        with pytest.raises(RangeError):
            contraction_experiment(u0, v0, weight_ref, [0.5, 1.5], cfg, sandwich)
        shifted = RadialField(u0.r_grid, u0.u, 2.0, u0.bc, params=u0.params)
        with pytest.raises(ConfigError):
            contraction_experiment(shifted, v0, weight_ref, [2.0, 2.5], cfg, sandwich)
        other_grid = log_grid(1e-2, 1e2, 161)
        w0 = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                             other_grid, unit_eta_profile.params)
        with pytest.raises(GridMismatchError):
            contraction_experiment(u0, w0, weight_ref, [1.0, 1.5], cfg, sandwich)

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
        # a0 = 1 on a profile whose eta_origin is 1 to rounding: lam0 is 1 to an ulp
        assert res.lam0 == pytest.approx(1.0, rel=3e-16)

    def test_start_before_t1_keeps_the_window_on_the_grid(self, unit_eta_profile, weight_ref,
                                                          grid192, cfg):
        # beta < 0, so at t0 = 0.5 the grid's image t0^-beta [r_in, r_out]
        # ends below r_out: the reference window ends inside it, and the
        # rescaled field is sampled at every time
        tau = math.log(0.5) + np.linspace(0.0, 0.1, 2)
        res = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, tau, cfg,
                                     weight=weight_ref, r_grid=grid192, t0=0.5)
        beta = unit_eta_profile.params.beta
        assert res.y_grid[-1] == pytest.approx(grid192[-1] * 0.5 ** -beta / 1.05, rel=1e-12)
        assert res.y_grid[-1] < grid192[-1] / 1.05
        assert np.max(res.dist_l1w) / res.norm_ref <= 1e-3

    def test_bump_distance_decays(self, unit_eta_profile, params_ref, weight_ref, grid192, cfg):
        tau = np.linspace(0.0, 0.8, 5)
        bump = power_bump_initial(params_ref, 1.0)
        res = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, bump, tau, cfg,
                                     weight=weight_ref, r_grid=grid192)
        assert res.u0_l1_gap > 0.0
        assert np.all(np.diff(res.dist_l1w) < 0)
        assert res.dist_l1w[-1] < 0.5 * res.dist_l1w[0]
        assert res.field_final.stats.ab_max <= 1e-6

    def test_bump_near_the_outer_edge_accepted(self, unit_eta_profile, params_ref, weight_ref,
                                               grid192, cfg):
        # the bump on [e^4.2, e^4.6] ends short of r_out = 100 and stays
        # inside [a1, a2]: the envelopes are the whole hypothesis, and past R0
        # the gap's integrand is bounded by a decaying power of r
        bump = power_bump_initial(params_ref, 1.0, amp=0.15, center=4.4, width=0.2)
        res = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, bump, [0.0, 0.05], cfg,
                                     weight=weight_ref, r_grid=grid192)
        assert 0.0 < res.u0_l1_gap < math.inf
        assert np.all(np.isfinite(res.dist_l1w))

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
        off = derive_params(3, 0.2, 2.95)
        fake = replace(unit_eta_profile, params=off)
        with pytest.raises(RangeError):
            convergence_experiment(fake, 1.0, 1.0, 1.2, None, [0.0, 0.5],
                                   cfg, weight=weight_ref, r_grid=grid192)

    def test_horizon_too_long_for_grid(self, unit_eta_profile, weight_ref, grid192, cfg):
        with pytest.raises(RangeError):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, [0.0, 50.0],
                                   cfg, weight=weight_ref, r_grid=grid192)

    def test_tau_past_float_range_rejected(self, unit_eta_profile, weight_ref, grid192, cfg):
        # e^tau overflows a float past tau = 709.78: refused before any step,
        # where math.exp would raise a bare OverflowError
        with pytest.raises(RangeError, match="overflows a float"):
            convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, [0.0, 1000.0],
                                   cfg, weight=weight_ref, r_grid=grid192)

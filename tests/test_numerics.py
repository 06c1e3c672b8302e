"""Numerical kernels against closed-form oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import fastdiff.numerics
import fastdiff.profile
from fastdiff.errors import BlowUpError, QuadratureError, RangeError, StiffnessError
from fastdiff.numerics import (
    Tolerances,
    cumulative_integral,
    deriv_uniform,
    fd_weights,
    integrate_ode,
    integrate_table,
    lsoda_at,
    quad_adaptive,
)
from fastdiff.profile import tail_residual


class TestIntegrateOde:
    def test_linear_decay_exact(self):
        # y' = -2y, y(0)=3  ->  y(s) = 3 e^{-2s}
        traj = integrate_ode(lambda s, y: [-2.0 * y[0]], [3.0], (0.0, 2.0),
                             tol=Tolerances(abs_tol=1e-13, rel_tol=1e-12))
        got = traj.sol(2.0)[0]
        assert abs(got - 3.0 * math.exp(-4.0)) < 1e-10

    def test_harmonic_oscillator_dense_output(self):
        # y'' = -y as a system; energy conserved, dense output matches cos/sin
        traj = integrate_ode(lambda s, y: [y[1], -y[0]], [1.0, 0.0], (0.0, 10.0),
                             tol=Tolerances(abs_tol=1e-12, rel_tol=1e-11))
        ss = np.linspace(0.0, 10.0, 37)
        vals = traj.sol(ss)
        assert np.max(np.abs(vals[0] - np.cos(ss))) < 1e-8
        assert np.max(np.abs(vals[1] + np.sin(ss))) < 1e-8

    def test_backward_integration(self):
        # integrating y' = y from 1 down to 0 must reproduce e^{s-1}
        traj = integrate_ode(lambda s, y: [y[0]], [1.0], (1.0, 0.0))
        assert abs(traj.sol(0.0)[0] - math.exp(-1.0)) < 1e-9

    def test_overflow_guard_raises(self):
        # y = e^s passes the guard 1e12 at s = log(1e12) = 27.63
        with pytest.raises(BlowUpError, match=r"s=27\.63"):
            integrate_ode(lambda s, y: [y[0]], [1.0], (0.0, 40.0))

    def test_naccepted_counts_steps_not_points(self):
        # the trajectory holds the start point plus one point per step, and
        # the dense output one piece between consecutive step points
        traj = integrate_ode(lambda s, y: [-y[0]], [1.0], (0.0, 3.0))
        assert traj.sol.ts.size == traj.naccepted + 1
        assert np.all(np.diff(traj.sol.ts) > 0)
        assert traj.y.shape[1] == traj.naccepted + 1

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_tolerances_must_be_finite(self, field):
        with pytest.raises(RangeError, match="positive and finite"):
            Tolerances(**{field: math.inf})

    def test_nonfinite_initial_state_raises(self):
        with pytest.raises(RangeError):
            integrate_ode(lambda s, y: [0.0], [math.nan], (0.0, 1.0))

    @pytest.mark.parametrize("solve", [
        lambda rhs: integrate_ode(rhs, [1.0], (1.0, 1.0)),
        lambda rhs: lsoda_at(rhs, lambda s, y: [[0.0]], [1.0], [1.0, 1.0]),
    ], ids=["dop853", "lsoda"])
    def test_empty_span_raises(self, solve):
        with pytest.raises(RangeError, match="empty span"):
            solve(lambda s, y: [0.0])

    def test_nonfinite_start_slope_raises(self):
        with pytest.raises(StiffnessError, match="not finite at the start"):
            integrate_ode(lambda s, y: [math.inf], [1.0], (0.0, 1.0))


def _solve_ivp_reference(rhs, y0, span, tol, method):
    """scipy's solve_ivp with the overflow guard as a terminal event, which
    integrate_ode must reproduce."""
    nfev = [0]

    def counted(s, y):
        nfev[0] += 1
        return rhs(s, y)

    def guard(s, y):
        return 1e12 - float(np.max(np.abs(y)))

    guard.terminal = True
    guard.direction = -1
    res = solve_ivp(counted, span, np.asarray(y0, dtype=float), method=method,
                    rtol=tol.rel_tol, atol=tol.abs_tol, dense_output=True, events=[guard])
    return res, nfev[0]


def _pendulum(s, y):
    return [y[1], -math.sin(y[0])]


class TestIntegrateOdeMatchesSolveIvp:
    @pytest.mark.parametrize("rhs, y0, span", [
        (_pendulum, [1.0, 0.0], (0.0, 10.0)),
        (_pendulum, [0.3, 1.2], (5.0, -3.0)),
        # starts past the guard: the event fires only on a crossing from at
        # or below it, so this run goes through
        (lambda s, y: [y[0]], [2e12], (0.0, 1.0)),
    ], ids=["forward", "backward", "above-guard"])
    def test_dop853_matches_solve_ivp(self, rhs, y0, span):
        # integrate_ode runs scipy's DOP853 on Python floats, whose sums round
        # differently; the error estimate cancels, so the step points move
        # (by up to 2e-5 on the backward pendulum), but the steps taken are
        # solve_ivp's.  Measured against max|y|: the states differ from
        # solve_ivp's dense output at the same points by at most 2.7e-15,
        # and the two dense outputs by at most 5.9e-14
        tol = Tolerances(abs_tol=1e-12, rel_tol=1e-10)
        calls = [0]

        def counted(s, y):
            calls[0] += 1
            return rhs(s, y)

        traj = integrate_ode(counted, y0, span, tol=tol)
        res, nfev = _solve_ivp_reference(rhs, y0, span, tol, "DOP853")
        assert res.status == 0
        assert traj.naccepted == res.t.size - 1
        # nfev counts the stepping; a step's three dense-output stages run
        # when sol first evaluates on it
        assert traj.nfev == calls[0] == nfev - 3 * traj.naccepted
        scale = np.abs(res.y).max()
        ts = traj.sol.ts
        assert np.abs(traj.y - res.sol(ts)).max() <= 1e-14 * scale
        assert np.abs(traj.sol(ts) - res.sol(ts)).max() <= 1e-14 * scale
        assert calls[0] == nfev
        ss = np.linspace(span[0], span[1], 200)
        assert np.abs(traj.sol(ss) - res.sol(ss)).max() <= 1e-13 * scale
        assert calls[0] == nfev    # each piece is formed once

    def test_tail_residual_problem_matches_solve_ivp(self, tail_ref, monkeypatch):
        # tail_residual's own backward run, compared at its sample points.
        # Both runs carry its rel_tol 1e-12, and they differ by at most
        # 7.1e-13 of each component's largest value (measured)
        runs = []

        def recording(rhs, y0, span, **options):
            traj = integrate_ode(rhs, y0, span, **options)
            runs.append((rhs, y0, span, options["tol"], traj))
            return traj

        monkeypatch.setattr(fastdiff.profile, "integrate_ode", recording)
        assert tail_residual(tail_ref) == tail_ref.fp_residual
        (rhs, y0, span, tol, traj), = runs
        res, nfev = _solve_ivp_reference(rhs, y0, span, tol, "DOP853")
        assert res.status == 0
        assert traj.naccepted == res.t.size - 1
        assert traj.nfev == nfev - 3 * traj.naccepted
        s = tail_ref.grid
        sc = np.linspace(s[0], s[0] + min(20.0, s[-1] - s[0]), fastdiff.profile._TAIL_SAMPLES)
        ref = res.sol(sc)
        gap = np.abs(traj.sol(sc) - ref).max(axis=1)
        assert np.all(gap <= 1e-12 * np.abs(ref).max(axis=1))

    @pytest.mark.parametrize("span, sign", [
        ((0.0, 40.0), 1.0),
        ((0.0, -40.0), -1.0),
    ], ids=["dop853-forward", "dop853-backward"])
    def test_blow_up_reports_the_event_crossing(self, span, sign):
        # the guard is crossed inside one accepted step; the reported s is
        # the event root solve_ivp finds on that step's dense output
        rhs = lambda s, y: [sign * y[0]]
        tol = Tolerances()
        res, _ = _solve_ivp_reference(rhs, [1.0], span, tol, "DOP853")
        assert res.status == 1
        with pytest.raises(BlowUpError) as exc:
            integrate_ode(rhs, [1.0], span, tol=tol)
        assert f"at s={res.t_events[0][0]:.6g}" in str(exc.value)


class TestLsodaAt:
    def test_stiff_problem_with_jac(self):
        # y' = -1e6 (y - cos s) - sin s, y(0)=1; exact solution y = cos s
        lam = 1e6

        def rhs(s, y):
            return [-lam * (y[0] - math.cos(s)) - math.sin(s)]

        jac_calls = []

        def jac(s, y):
            jac_calls.append(s)
            return [[-lam]]

        ss = np.linspace(0.0, 2.0, 41)
        y, steps = lsoda_at(rhs, jac, [1.0], ss, tol=Tolerances(abs_tol=1e-12, rel_tol=1e-10))
        assert jac_calls, "the analytic Jacobian never reached LSODA"
        assert y.shape == (1, ss.size)
        assert np.max(np.abs(y[0] - np.cos(ss))) < 1e-7
        # BDF steps ride the slow solution: an explicit pair would need
        # on the order of lam * 2 / 3 steps to stay stable
        assert steps < 5000

    def test_backward_outputs_match_the_exact_solution(self):
        # y' = y from 1 at s = 1 down to 0, the way continue_left runs
        ss = np.linspace(1.0, 0.0, 11)
        y, _ = lsoda_at(lambda s, y: [y[0]], lambda s, y: [[1.0]], [1.0], ss,
                        tol=Tolerances(abs_tol=1e-14, rel_tol=1e-12))
        assert y[0, 0] == 1.0
        assert np.max(np.abs(y[0] - np.exp(ss - 1.0))) < 1e-11

    @pytest.mark.parametrize("rhs, tol, budget, match", [
        (lambda s, y: [-y[0]], Tolerances(abs_tol=1e-300, rel_tol=1e-300), 10 ** 6,
         "integrator failed on span .*: Illegal input"),
        (lambda s, y: [math.nan if s > 0.5 else -y[0]], Tolerances(), 10 ** 6, "state not finite"),
        (lambda s, y: [-y[0]], Tolerances(), 5, "budget exhausted"),
    ], ids=["refused-tolerance", "nan", "budget"])
    def test_failed_run_is_stiffness_error_without_warning(self, rhs, tol, budget, match, monkeypatch):
        monkeypatch.setattr(fastdiff.numerics, "_NFEV_BUDGET", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StiffnessError, match=match):
                lsoda_at(rhs, lambda s, y: [[-1.0]], [1.0], np.linspace(0.0, 1.0, 11), tol=tol)

    def test_overflow_guard_on_the_outputs(self):
        # y = e^s passes the guard 1e12 at s = 27.63, between outputs 24 and 28
        with pytest.raises(BlowUpError, match=r"s=28\b"):
            lsoda_at(lambda s, y: [y[0]], lambda s, y: [[1.0]], [1.0], np.linspace(0.0, 40.0, 11))


class TestQuadAdaptive:
    def test_polynomial_exact(self):
        assert abs(quad_adaptive(lambda x: 3.0 * x ** 2, 0.0, 2.0) - 8.0) < 1e-12

    def test_gaussian_to_infinity(self):
        got = quad_adaptive(lambda x: math.exp(-x * x), 0.0, math.inf)
        assert abs(got - math.sqrt(math.pi) / 2.0) < 1e-10

    def test_oscillatory(self):
        got = quad_adaptive(lambda x: math.sin(10.0 * x), 0.0, math.pi)
        # int_0^pi sin(10x) = (1 - cos(10 pi))/10 = 0
        assert abs(got) < 1e-10

    def test_bad_tol_raises(self):
        with pytest.raises(RangeError):
            quad_adaptive(lambda x: x, 0.0, 1.0, tol=0.0)


class TestCompositeRules:
    def test_cubic_exact(self):
        # the composite rule integrates cubics exactly up to roundoff
        x = np.linspace(0.3, 1.7, 29)
        y = 2.0 * x ** 3 - x ** 2 + 4.0 * x - 1.0
        exact = lambda t: 0.5 * t ** 4 - t ** 3 / 3.0 + 2.0 * t ** 2 - t
        got = integrate_table(y, float(x[1] - x[0]))
        assert abs(got - (exact(1.7) - exact(0.3))) < 1e-13

    def test_fourth_order_convergence(self):
        errs = []
        for nn in (33, 65, 129):
            x = np.linspace(0.0, math.pi, nn)
            got = integrate_table(np.sin(x), float(x[1] - x[0]))
            errs.append(abs(got - 2.0))
        order = math.log2(errs[0] / errs[1])
        assert 3.6 < order < 4.4
        order = math.log2(errs[1] / errs[2])
        assert 3.6 < order < 4.4

    def test_cumulative_forward_matches_antiderivative(self):
        x = np.linspace(0.0, 2.0, 201)
        out = cumulative_integral(np.exp(x), float(x[1] - x[0]), "forward")
        assert np.max(np.abs(out - (np.exp(x) - 1.0))) < 5e-9

    def test_cumulative_backward_matches_tail(self):
        x = np.linspace(0.0, 2.0, 201)
        out = cumulative_integral(np.exp(-x), float(x[1] - x[0]), "backward")
        exact = np.exp(-x) - math.exp(-2.0)
        assert np.max(np.abs(out - exact)) < 5e-9

    def test_forward_backward_sum_is_total(self):
        x = np.linspace(0.0, 1.0, 57)
        y = np.cos(3.0 * x) + x
        dx = float(x[1] - x[0])
        fw = cumulative_integral(y, dx, "forward")
        bw = cumulative_integral(y, dx, "backward")
        total = integrate_table(y, dx)
        assert np.max(np.abs(fw + bw - total)) < 1e-14

    def test_too_few_nodes_raises(self):
        with pytest.raises(RangeError):
            integrate_table(np.ones(3), 0.1)

    def test_unknown_direction_raises(self):
        with pytest.raises(RangeError):
            cumulative_integral(np.ones(8), 0.1, "sideways")


class TestStencils:
    def test_centered_first_derivative_weights(self):
        got = fd_weights([-2, -1, 0, 1, 2], 1)
        assert np.allclose(got, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, atol=1e-13)

    def test_centered_second_derivative_weights(self):
        got = fd_weights([-1, 0, 1], 2)
        assert np.allclose(got, [1.0, -2.0, 1.0], atol=1e-13)

    def test_one_sided_first_derivative_weights(self):
        got = fd_weights([0, 1, 2], 1)
        assert np.allclose(got, [-1.5, 2.0, -0.5], atol=1e-13)

    def test_deriv_order_exceeds_stencil_raises(self):
        with pytest.raises(RangeError):
            fd_weights([0, 1], 2)

    def test_deriv_uniform_sign_and_accuracy(self):
        # regression: the interior correlation must apply stencil weights in
        # natural order; a reversed kernel silently negates odd derivatives
        x = np.linspace(0.0, 3.0, 301)
        dx = float(x[1] - x[0])
        y = np.sin(x)
        d1 = deriv_uniform(y, dx, deriv=1)
        d2 = deriv_uniform(y, dx, deriv=2)
        assert np.max(np.abs(d1 - np.cos(x))) < 1e-8
        assert np.max(np.abs(d2 + np.sin(x))) < 1e-6
        # sign probe at an interior point where cos(x) = cos(0.5) > 0.5
        assert d1[50] > 0.5

    def test_deriv_uniform_polynomial_exact(self):
        # 5-point stencils are exact for quartics, edges included
        x = np.linspace(-1.0, 1.0, 41)
        dx = float(x[1] - x[0])
        y = x ** 4 - 2.0 * x ** 2 + x
        d1 = deriv_uniform(y, dx, deriv=1)
        assert np.max(np.abs(d1 - (4.0 * x ** 3 - 4.0 * x + 1.0))) < 1e-11

    def test_deriv_uniform_edges(self):
        x = np.linspace(0.0, 1.0, 101)
        dx = float(x[1] - x[0])
        d1 = deriv_uniform(np.exp(x), dx, deriv=1)
        assert abs(d1[0] - 1.0) < 1e-7
        assert abs(d1[-1] - math.e) < 1e-7

    def test_needs_enough_nodes(self):
        with pytest.raises(RangeError):
            deriv_uniform(np.ones(4), 0.1, deriv=1)

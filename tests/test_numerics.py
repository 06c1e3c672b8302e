"""Numerical kernels against closed-form oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import fastdiff.numerics
import fastdiff.profile
import fastdiff.weight
from fastdiff.errors import BlowUpError, RangeError, StiffnessError
from fastdiff.numerics import (
    _D1,
    _D2,
    _W_FIRST,
    _W_LAST,
    _W_MID,
    cumulative_integral,
    deriv_uniform,
    integrate_table,
    lsoda_at,
)
from fastdiff.profile import tail_residual
from fastdiff.weight import BumpSpec, build_weight

# LSODA tolerances of the runs below that test no tolerance of their own
TOL = {"rel_tol": 1e-10, "abs_tol": 1e-12}


class TestIntegrateOde:
    """Closed-form solutions and the refusals every ODE run of the package
    shares, through lsoda_at."""

    def test_linear_decay_exact(self):
        # y' = -2y, y(0)=3  ->  y(s) = 3 e^{-2s}
        y, _ = lsoda_at(lambda s, y: [-2.0 * y[0]], [3.0], [0.0, 2.0],
                        rel_tol=1e-12, abs_tol=1e-13, jac=lambda s, y: [[-2.0]])
        assert abs(y[0, -1] - 3.0 * math.exp(-4.0)) < 1e-10

    def test_harmonic_oscillator_dense_output(self):
        # y'' = -y as a system; LSODA's interpolation at points between its
        # steps matches cos/sin
        ss = np.linspace(0.0, 10.0, 37)
        y, _ = lsoda_at(lambda s, y: [y[1], -y[0]], [1.0, 0.0], ss, rel_tol=1e-11, abs_tol=1e-12,
                        jac=lambda s, y: [[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(y[0] - np.cos(ss))) < 1e-8
        assert np.max(np.abs(y[1] + np.sin(ss))) < 1e-8

    def test_backward_integration(self):
        # integrating y' = y from 1 down to 0 must reproduce e^{s-1}
        y, _ = lsoda_at(lambda s, y: [y[0]], [1.0], [1.0, 0.0], **TOL, jac=lambda s, y: [[1.0]])
        assert abs(y[0, -1] - math.exp(-1.0)) < 1e-9

    def test_overflow_guard_raises(self):
        # y = e^s passes the guard 1e12 at s = log(1e12) = 27.631; the first
        # output point past it, on a 0.005 grid, is 27.635
        with pytest.raises(BlowUpError, match=r"s=27\.63"):
            lsoda_at(lambda s, y: [y[0]], [1.0], np.linspace(0.0, 40.0, 8001), **TOL,
                     jac=lambda s, y: [[1.0]])

    def test_naccepted_counts_steps_not_points(self):
        # the step count is LSODA's own: more output points on the same span
        # interpolate within the same steps
        rhs, jac = lambda s, y: [-y[0]], lambda s, y: [[-1.0]]
        _, steps = lsoda_at(rhs, [1.0], [0.0, 3.0], **TOL, jac=jac)
        _, steps_dense = lsoda_at(rhs, [1.0], np.linspace(0.0, 3.0, 301), **TOL, jac=jac)
        assert steps_dense == steps < 301

    def test_nonfinite_start_slope_raises(self):
        with pytest.raises(StiffnessError, match="state not finite"):
            lsoda_at(lambda s, y: [math.inf], [1.0], [0.0, 1.0], **TOL, jac=lambda s, y: [[0.0]])

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_tolerances_must_be_finite(self, field):
        # refused before odeint, which takes a nan or negative tolerance
        # without a word
        for bad in (math.inf, math.nan, 0.0, -1e-12):
            with pytest.raises(RangeError, match="positive and finite"):
                lsoda_at(lambda s, y: [-y[0]], [1.0], [0.0, 1.0], **{**TOL, field: bad},
                         jac=lambda s, y: [[-1.0]])

    def test_nonfinite_initial_state_raises(self):
        with pytest.raises(RangeError, match="initial state must be finite"):
            lsoda_at(lambda s, y: [0.0], [math.nan], [0.0, 1.0], **TOL, jac=lambda s, y: [[0.0]])

    @pytest.mark.parametrize("solve", [
        lambda rhs: lsoda_at(rhs, [1.0], [1.0, 1.0], **TOL, jac=lambda s, y: [[0.0]]),
    ], ids=["lsoda"])
    def test_empty_span_raises(self, solve):
        with pytest.raises(RangeError, match="empty span"):
            solve(lambda s, y: [0.0])


@pytest.fixture(scope="module")
def other_tail():
    return fastdiff.picard_solve(fastdiff.derive_fp_constants(fastdiff.derive_params(4, 0.45, 4.04)))


class TestIntegrateOdeMatchesSolveIvp:
    def test_tail_residual_problem_matches_solve_ivp(self, tail_ref, other_tail, monkeypatch):
        # tail_residual's one backward run integrates Y = e^(C2 s) Phi_2
        # alone (one state), compared at its output points with solve_ivp's
        # DOP853 at rel_tol 2.5e-14, far inside LSODA's 1e-12.  Measured
        # gaps, relative at each point: 2.7e-12 at the reference point,
        # 4.6e-12 at (4, 0.45, 4.04)
        runs = []

        def recording(rhs, y0, s_out, **options):
            y, steps = lsoda_at(rhs, y0, s_out, **options)
            runs.append((rhs, y0, s_out, options["abs_tol"], y))
            return y, steps

        monkeypatch.setattr(fastdiff.profile, "lsoda_at", recording)
        for tail in (tail_ref, other_tail):
            residual = tail.fp_residual     # its first read runs tail_residual
            runs.clear()
            assert tail_residual(tail) == residual
            (rhs, y0, s_out, abs_tol, y), = runs
            assert len(y0) == 1 and y.shape == (1, len(s_out))
            res = solve_ivp(rhs, (s_out[0], s_out[-1]), y0, method="DOP853",
                            rtol=2.5e-14, atol=abs_tol, dense_output=True)
            assert res.status == 0
            ref = res.sol(s_out)[0]
            assert (np.abs(y[0] - ref) <= 1e-11 * np.abs(ref)).all()

    def test_tail_integral_matches_ppoly_integrate(self, tail_ref, other_tail):
        # tail_residual's J = int_s^{s_T} h = F(s_T) - F(s), F the
        # antiderivative of h's spline, against PPoly.integrate at 20 points
        # of its window, at knots and between them.  Measured gaps, relative
        # to J's largest value: 6.3e-15 at the reference point, 1.2e-14 at
        # (4, 0.45, 4.04)
        for tail in (tail_ref, other_tail):
            s = tail.grid
            F = tail.h_spline.antiderivative()
            sk = np.concatenate([np.linspace(s[0], s[0] + 20.0, 18), s[[1, -1]]])
            ref = np.array([tail.h_spline.integrate(a, s[-1]) for a in sk])
            got = F(s[-1]) - F(sk)
            assert got[-1] == 0.0
            assert np.abs(got - ref).max() <= 5e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("mu, n", [(0.5, 3), (1.5, 5)])
    def test_build_weight_table_matches_solve_ivp(self, mu, n):
        # the table's phi = 1 - a4 J and phi' = -a4 r^(1-n) I against
        # I' = r^(n-1) eta1, phi' = -a4 r^(1-n) I from phi(1) = 1 through
        # solve_ivp's DOP853 at the same tolerances.  Measured gaps,
        # relative to each column's largest value: up to 5.3e-13 in phi'
        # and 3.5e-14 in phi
        spec = BumpSpec(mu=mu, n=n)
        w = build_weight(spec)
        mask = w.table_r > 1.0
        r = w.table_r[mask]

        def rhs(s, y):
            return [s ** (n - 1) * spec.eta1(s), -w.a4 * s ** (1.0 - n) * y[0]]

        res = solve_ivp(rhs, (1.0, 2.0), [0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-18, t_eval=r)
        assert res.status == 0
        phi, dphi = res.y[1], -w.a4 * r ** (1.0 - n) * res.y[0]
        assert np.abs(w.table_phi[mask] - phi).max() <= 1e-13 * np.abs(phi).max()
        assert np.abs(w.table_dphi[mask] - dphi).max() <= 2e-12 * np.abs(dphi).max()


class TestLsodaAt:
    def test_stiff_problem_without_jac(self):
        # y' = -1e6 (y - cos s) - sin s, y(0)=1; exact solution y = cos s.
        # With no jac, LSODA's difference-quotient Jacobian carries the BDF
        # steps: measured 157 steps and an error of 1.3e-11, against 142
        # steps with the analytic one
        lam = 1e6

        def rhs(s, y):
            return [-lam * (y[0] - math.cos(s)) - math.sin(s)]

        ss = np.linspace(0.0, 2.0, 41)
        y, steps = lsoda_at(rhs, [1.0], ss, **TOL)
        assert y.shape == (1, ss.size)
        assert np.max(np.abs(y[0] - np.cos(ss))) < 1e-7
        # an explicit pair would need on the order of lam * 2 / 3 steps
        assert steps < 5000

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
        y, steps = lsoda_at(rhs, [1.0], ss, **TOL, jac=jac)
        assert jac_calls, "the analytic Jacobian never reached LSODA"
        assert y.shape == (1, ss.size)
        assert np.max(np.abs(y[0] - np.cos(ss))) < 1e-7
        # BDF steps ride the slow solution: an explicit pair would need
        # on the order of lam * 2 / 3 steps to stay stable
        assert steps < 5000

    def test_callbacks_get_python_floats(self):
        # rhs and jac compute on Python floats: s a float, y a list of floats
        seen = set()

        def rhs(s, y):
            seen.add(("rhs", type(s), type(y), *map(type, y)))
            return [-1e6 * (y[0] - math.cos(s)) - math.sin(s), y[0] - y[1]]

        def jac(s, y):
            seen.add(("jac", type(s), type(y), *map(type, y)))
            return [[-1e6, 0.0], [1.0, -1.0]]

        lsoda_at(rhs, [1.0, 0.0], np.linspace(0.0, 2.0, 5), **TOL, jac=jac)
        assert seen == {(name, float, list, float, float) for name in ("rhs", "jac")}

    def test_float_callbacks_keep_the_bits(self, tail_ref, monkeypatch):
        # each of continue_left's two runs (the s-leg's (xi, W) and the
        # rho-leg's (q, W)) and build_weight's table are bit for bit the runs
        # whose callbacks get y as a numpy array: IEEE float and numpy
        # float64 arithmetic round alike.  A float product past the double
        # range reads inf silently, where a numpy scalar's also warns: the
        # rho-leg meets one in a Newton trial state at rho = 5e-18, whose
        # rhs then reads _TRIAL_DERIV on both paths
        def numpy_callbacks(rhs, y0, s_out, jac=None, **options):
            if jac is not None:
                options["jac"] = lambda s, y: jac(s, np.array(y))
            with np.errstate(over="ignore"):
                return lsoda_at(lambda s, y: rhs(s, np.array(y)), y0, s_out, **options)

        runs, tables = ([], []), []
        for driver, left in zip((lsoda_at, numpy_callbacks), runs):
            def recording(*args, driver=driver, left=left, **options):
                left.append(driver(*args, **options)[0])
                return left[-1], 0

            monkeypatch.setattr(fastdiff.profile, "lsoda_at", recording)
            monkeypatch.setattr(fastdiff.weight, "lsoda_at", driver)
            fastdiff.continue_left(tail_ref)
            w = build_weight(BumpSpec(mu=0.5, n=3))
            tables.append(np.stack([w.table_phi, w.table_dphi]))
        float_runs, numpy_runs = runs
        assert len(float_runs) == len(numpy_runs) == 2
        for a, b in zip(float_runs, numpy_runs):
            assert np.array_equal(a, b)
        assert np.array_equal(*tables)

    def test_backward_run_stops_at_the_last_point(self):
        # odeint honours tcrit only on increasing times: y' = -y over [1, 0]
        # stepped to s = -0.023 before the decreasing span ran in -s
        seen = []

        def rhs(s, y):
            seen.append(s)
            return [-y[0]]

        y, _ = lsoda_at(rhs, [1.0], np.linspace(1.0, 0.0, 11), **TOL, jac=lambda s, y: [[-1.0]])
        assert min(seen) >= 0.0
        assert np.max(np.abs(y[0] - np.exp(1.0 - np.linspace(1.0, 0.0, 11)))) < 1e-8

    def test_backward_outputs_match_the_exact_solution(self):
        # y' = y from 1 at s = 1 down to 0, the way continue_left runs
        ss = np.linspace(1.0, 0.0, 11)
        y, _ = lsoda_at(lambda s, y: [y[0]], [1.0], ss, rel_tol=1e-12, abs_tol=1e-14,
                        jac=lambda s, y: [[1.0]])
        assert y[0, 0] == 1.0
        assert np.max(np.abs(y[0] - np.exp(ss - 1.0))) < 1e-11

    @pytest.mark.parametrize("rhs, tol, budget, span, match", [
        (lambda s, y: [-y[0]], {"rel_tol": 1e-300, "abs_tol": 1e-300}, 10 ** 6, (0.0, 1.0),
         "integrator failed on span .*: Illegal input"),
        (lambda s, y: [math.nan if s > 0.5 else -y[0]], TOL, 10 ** 6, (0.0, 1.0), "state not finite"),
        (lambda s, y: [-y[0]], TOL, 5, (0.0, 1.0), "budget exhausted"),
        (lambda s, y: [-y[0]], TOL, 5, (1.0, 0.0), "budget exhausted"),
    ], ids=["refused-tolerance", "nan", "budget", "budget-decreasing"])
    def test_failed_run_is_stiffness_error_without_warning(self, rhs, tol, budget, span, match, monkeypatch):
        monkeypatch.setattr(fastdiff.numerics, "_NFEV_BUDGET", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StiffnessError, match=match):
                lsoda_at(rhs, [1.0], np.linspace(*span, 11), **tol, jac=lambda s, y: [[-1.0]])

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("span", [(0.0, 1.0), (1.0, 0.0)], ids=["increasing", "decreasing"])
    def test_budget_counts_every_call(self, size, span, monkeypatch):
        # the callback is built per direction and state size, and each one
        # lets rhs run exactly the budget's number of calls
        calls = []

        def rhs(s, y):
            calls.append(s)
            return [-v for v in y]

        monkeypatch.setattr(fastdiff.numerics, "_NFEV_BUDGET", 7)
        with pytest.raises(StiffnessError, match=r"budget exhausted \(7 rhs calls\)"):
            lsoda_at(rhs, [1.0] * size, np.linspace(*span, 11), **TOL)
        assert len(calls) == 7

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_decreasing_span_is_the_increasing_run_in_minus_s(self, size):
        # a decreasing span returns the bits of the increasing run in t = -s
        # with the rhs negated by hand, for every callback shape
        def rhs(s, y):
            return [math.sin(s) * y[k - 1] - 0.5 * y[k] for k in range(size)]

        y0, ss = [1.0, 0.5, -0.25][:size], np.linspace(2.0, -1.0, 31)
        down, steps = lsoda_at(rhs, y0, ss, rel_tol=1e-11, abs_tol=1e-13)
        up, up_steps = lsoda_at(lambda t, y: [-v for v in rhs(-t, y)], y0, -ss,
                                rel_tol=1e-11, abs_tol=1e-13)
        assert steps == up_steps
        assert np.array_equal(down, up)

    @pytest.mark.parametrize("s_out", [[0.0, 0.5, 0.3, 1.0], [0.0, math.nan, 1.0]],
                             ids=["not-monotone", "nan"])
    def test_bad_output_points_raise(self, s_out):
        with pytest.raises(RangeError, match="finite and monotone"):
            lsoda_at(lambda s, y: [-y[0]], [1.0], s_out, **TOL, jac=lambda s, y: [[-1.0]])

    def test_repeated_points_take_the_same_state(self):
        y, _ = lsoda_at(lambda s, y: [-y[0]], [1.0], [0.0, 0.5, 0.5, 1.0, 1.0], **TOL,
                        jac=lambda s, y: [[-1.0]])
        assert y[0, 1] == y[0, 2] and y[0, 3] == y[0, 4]
        assert np.max(np.abs(y[0] - np.exp(-np.array([0.0, 0.5, 0.5, 1.0, 1.0])))) < 1e-9

    def test_overflow_guard_on_the_outputs(self):
        # y = e^s passes the guard 1e12 at s = 27.63, between outputs 24 and 28
        with pytest.raises(BlowUpError, match=r"s=28\b"):
            lsoda_at(lambda s, y: [y[0]], [1.0], np.linspace(0.0, 40.0, 11), **TOL,
                     jac=lambda s, y: [[1.0]])


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

    def test_rules_are_the_four_term_weights_to_the_bit(self):
        # each interval's increment is w0 y[i-1] + w1 y[i] + w2 y[i+1] +
        # w3 y[i+2] summed left to right, one-sided at the ends, times dx; the
        # cumulative and whole-table rules sum those increments
        y, dx = np.random.default_rng(7).normal(size=203), 0.0173
        inc = np.empty(y.size - 1)
        inc[0] = _W_FIRST @ y[:4]
        inc[-1] = _W_LAST @ y[-4:]
        inc[1:-1] = _W_MID[0] * y[:-3] + _W_MID[1] * y[1:-2] + _W_MID[2] * y[2:-1] + _W_MID[3] * y[3:]
        inc = inc * dx
        assert np.array_equal(cumulative_integral(y, dx, "forward"), np.concatenate([[0.0], np.cumsum(inc)]))
        assert np.array_equal(cumulative_integral(y, dx, "backward"),
                              np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]]))
        assert integrate_table(y, dx) == float(np.sum(inc))

    def test_too_few_nodes_raises(self):
        with pytest.raises(RangeError):
            integrate_table(np.ones(3), 0.1)

    @pytest.mark.parametrize("dx", [0.0, -0.1, math.nan, math.inf])
    def test_bad_spacing_raises(self, dx):
        # a nan or zero dx once came back as a nan or zero integral
        with pytest.raises(RangeError, match="spacing"):
            integrate_table(np.ones(8), dx)
        with pytest.raises(RangeError, match="spacing"):
            cumulative_integral(np.ones(8), dx)

    def test_two_dimensional_table_raises(self):
        with pytest.raises(RangeError, match="1-d"):
            integrate_table(np.ones((8, 2)), 0.1)

    def test_unknown_direction_raises(self):
        with pytest.raises(RangeError):
            cumulative_integral(np.ones(8), 0.1, "sideways")


class TestStencils:
    @staticmethod
    def _weights(deriv):
        # deriv_uniform on the five unit vectors at dx = 1 reads its stencil off
        return np.array([deriv_uniform(e, 1.0, deriv=deriv)[0] for e in np.eye(5)])

    def test_centered_first_derivative_weights(self):
        assert np.array_equal(self._weights(1), np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0)

    def test_centered_second_derivative_weights(self):
        assert np.array_equal(self._weights(2), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0)

    def test_deriv_order_exceeds_stencil_raises(self):
        # only the first and second derivative stencils are kept: orders the
        # five points could still carry are refused
        for deriv in (3, 4):
            with pytest.raises(RangeError, match="1 or 2"):
                deriv_uniform(np.ones(9), 1.0, deriv=deriv)

    @pytest.mark.parametrize("deriv", [-1, 0, 1.0, 1.5, True, 5])
    def test_bad_deriv_order_raises(self, deriv):
        # 1.0 and True compare equal to 1 but are not the int order
        with pytest.raises(RangeError, match="derivative order"):
            deriv_uniform(np.ones(9), 1.0, deriv=deriv)

    @pytest.mark.parametrize("dx", [0.0, -1.0, math.nan, math.inf])
    def test_deriv_uniform_bad_spacing_raises(self, dx):
        # dx = 0 divided by zero with a RuntimeWarning, nan returned nan
        with pytest.raises(RangeError, match="spacing"):
            deriv_uniform(np.ones(9), dx)

    def test_deriv_uniform_two_dimensional_raises(self):
        # numpy's correlate refused it with its own ValueError
        with pytest.raises(RangeError, match="1-d"):
            deriv_uniform(np.ones((9, 2)), 0.1)

    def test_numpy_int_deriv_accepted(self):
        y = np.exp(np.linspace(0.0, 1.0, 11))
        assert np.array_equal(deriv_uniform(y, 0.1, deriv=np.int64(2)), deriv_uniform(y, 0.1, deriv=2))

    def test_deriv_uniform_sign_and_accuracy(self):
        # regression: the correlation must apply stencil weights in natural
        # order; a reversed kernel silently negates odd derivatives
        x = np.linspace(0.0, 3.0, 301)
        dx = float(x[1] - x[0])
        y = np.sin(x)
        d1 = deriv_uniform(y, dx, deriv=1)
        d2 = deriv_uniform(y, dx, deriv=2)
        assert d1.shape == d2.shape == (x.size - 4,)
        assert np.max(np.abs(d1 - np.cos(x[2:-2]))) < 1e-8
        assert np.max(np.abs(d2 + np.sin(x[2:-2]))) < 1e-6
        # sign probe at x = 0.5, where cos(x) > 0.5
        assert d1[48] > 0.5

    def test_deriv_uniform_polynomial_exact(self):
        # the centred 5-point stencils are exact for quartics
        x = np.linspace(-1.0, 1.0, 41)
        dx = float(x[1] - x[0])
        y = x ** 4 - 2.0 * x ** 2 + x
        d1 = deriv_uniform(y, dx, deriv=1)
        d2 = deriv_uniform(y, dx, deriv=2)
        xi = x[2:-2]
        assert np.max(np.abs(d1 - (4.0 * xi ** 3 - 4.0 * xi + 1.0))) < 1e-11
        assert np.max(np.abs(d2 - (12.0 * xi ** 2 - 4.0))) < 1e-9

    @pytest.mark.parametrize("deriv", [1, 2])
    def test_deriv_uniform_stored_stencils(self, deriv):
        # the stencils are read-only module constants, applied as they stand
        w = (_D1, _D2)[deriv - 1]
        y = np.exp(np.sin(np.linspace(0.0, 3.0, 57)))
        dx = 3.0 / 56
        assert np.array_equal(deriv_uniform(y, dx, deriv=deriv), np.correlate(y, w, "valid") / dx ** deriv)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_needs_enough_nodes(self):
        with pytest.raises(RangeError):
            deriv_uniform(np.ones(4), 0.1, deriv=1)

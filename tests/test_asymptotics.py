"""Tests for the origin/far-field verification layer: measured expansion
derivatives against the origin series, equation residuals in the three
formulations, the inversion involution, and which check sees which defect."""

import functools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from fastdiff import (
    FastDiffError,
    RangeError,
    ResolutionError,
    continue_left,
    derive_fp_constants,
    derive_params,
    expansion_check,
    f_ode_residual,
    inversion_report,
    picard_solve,
    rescale_profile,
    solve_for_eta,
    wbar_ode_residual,
)
from fastdiff.profile import _origin_node, _origin_series
from sweep import point_id, pointwise_violations, run_point

# Closed-form targets at the reference point (n=3, m=1/5, gamma=4) for a
# profile normalized to lim r^gamma f = 1:
#   wbar_rho(0)    = a3/a2                      = -4/5
#   wbar_rhorho(0) = a3 (m a3 - a1)/a2^2        = -28/625 * 10 = -0.448
D1_REF = float(Fraction(-4, 5))
D2_REF = float(Fraction(-28, 625) * 10)


REFERENCE_POINT = (3, 0.2, 4.0)


def _sweep_points():
    points = [REFERENCE_POINT]
    for n in (3, 4, 5, 8):
        for fm in (0.5, 0.9):
            m = fm * (n - 2) / n
            lo, hi = 2 / (1 - m), (n - 2) / m
            points += [(n, m, lo + fg * (hi - lo)) for fg in (0.05, 0.5, 0.95)]
    return points


# the reference point and the 24 sweep points with m at 50/90% of (n-2)/n
SWEEP_COMPLETING = _sweep_points()


def _corner(n, fm, fg):
    """(n, m, gamma) with m at fraction fm of (n-2)/n and gamma at fraction
    fg of its window (2/(1-m), (n-2)/m), as the sweep places its points."""
    m = fm * (n - 2) / n
    lo, hi = 2 / (1 - m), (n - 2) / m
    return n, m, lo + fg * (hi - lo)


class TestExpansionCheck:
    def test_first_derivative_within_one_percent(self, unit_eta_profile):
        rep = expansion_check(unit_eta_profile)
        assert rep.d1 == pytest.approx(D1_REF, rel=0.01)
        assert rep.rel_err1 <= 0.01

    def test_second_derivative_within_two_percent(self, unit_eta_profile):
        rep = expansion_check(unit_eta_profile)
        assert rep.d2 == pytest.approx(D2_REF, rel=0.02)
        assert rep.rel_err2 <= 0.02

    def test_fit_is_much_tighter_than_the_gate(self, unit_eta_profile):
        # the fits carry orders of magnitude of headroom; a regression that
        # eats the margin silently would otherwise go unnoticed
        rep = expansion_check(unit_eta_profile)
        assert rep.rel_err1 <= 1e-6
        assert rep.rel_err2 <= 1e-3
        # the series against the continuation on the window: measured 2.8e-16
        # for rho q = beta' z and 1.5e-15 for log wbar
        assert rep.q_defect <= 1e-12
        assert rep.logw_defect <= 1e-11

    def test_rho_leg_holds_the_origin_to_roundoff(self, unit_eta_profile):
        # continue_left integrates q = wbar_rho / wbar in rho below rho = 0.1,
        # so the window's d1 and log wbar carry q's relative error: measured
        # 8.3e-15 and 1.5e-15, where following z in s read 5.2e-13 and 7.5e-13
        rep = expansion_check(unit_eta_profile)
        assert rep.rel_err1 <= 1e-13
        assert rep.logw_defect <= 1e-13

    def test_eta_recovered(self, unit_eta_profile):
        rep = expansion_check(unit_eta_profile)
        assert rep.eta == pytest.approx(1.0, rel=1e-8)

    def test_reference_formulas(self, unit_eta_profile):
        p = unit_eta_profile.params
        rep = expansion_check(unit_eta_profile)
        assert rep.d1_ref == pytest.approx(p.a3 / p.a2 * rep.eta**p.m, rel=1e-14)
        assert rep.d2_ref == pytest.approx(
            p.a3 * (p.m * p.a3 - p.a1) / p.a2**2 * rep.eta ** (2 * p.m - 1), rel=1e-14)

    def test_unresolved_profile_rejected(self, unit_eta_profile):
        sel = unit_eta_profile.s_grid >= -2.0
        stub = replace(
            unit_eta_profile,
            s_grid=unit_eta_profile.s_grid[sel],
            xi=unit_eta_profile.xi[sel],
            W=unit_eta_profile.W[sel],
        )
        with pytest.raises(ResolutionError):
            expansion_check(stub)

    def test_window_past_the_transition_is_refused(self):
        # rho* <= max(0.02 rho_t, 2 rho_min), so only a table whose first
        # row lies above rho_t/2 can put its match node past the transition
        # rho_t, and continue_left refuses every such table it builds.  At
        # (3, 1/6, 2.58), where c/40 = 1.9 rho_t, the eta = 1 table cut to
        # start at 0.6 rho_t puts rho* = 2 rho_min on the far side of the
        # transition (xi = -3.63, z below -C1/2): refused before the fit
        prof = solve_for_eta(derive_params(*_corner(3, 0.5, 0.05)), 1.0)
        s_t = prof.s_grid[prof.transition]
        sel = prof.s_grid >= s_t + prof.params.beta_p * np.log(0.6)
        stub = replace(prof, s_grid=prof.s_grid[sel], xi=prof.xi[sel], W=prof.W[sel])
        with pytest.raises(ResolutionError, match="past the transition: xi = -3.63 <= 0"):
            expansion_check(stub)

    def test_underflowed_origin_coefficient_is_typed(self, base_profile):
        # rescaling the reference table by 1e250 takes eta_origin = 1.81
        # lam^(-1.5) below the floats to 0: rescale_profile refuses it, so
        # no table reaches the log of the series' radius c/40 =
        # |a2| eta^(1-m)/40 with an eta of 0
        with pytest.raises(RangeError, match="takes eta_origin below the normal floats: 0"):
            rescale_profile(base_profile, 1e250)

    def test_q_defect_is_the_series_defect(self, unit_eta_profile):
        # Q(t) comes from the Q[2:] Horner pass the fit reads; it must give
        # polyval(t, Q)'s bits on the fit window
        prof, p = unit_eta_profile, unit_eta_profile.params
        Q = _origin_series(p)
        i = _origin_node(prof, prof.eta_origin)
        t = prof.eta_origin ** (p.m - 1.0) * np.exp(prof.s_grid[:i + 1] / p.beta_p)
        rq = p.beta_p * prof.z[:i + 1]
        assert expansion_check(prof).q_defect == float(np.max(np.abs(rq - t * polyval(t, Q))))

    def test_logw_defect_is_the_series_defect(self, unit_eta_profile):
        # log w-bar's series comes from an in-place Horner loop; it must give
        # polyval's bits on the fit window
        prof, p = unit_eta_profile, unit_eta_profile.params
        Q = _origin_series(p)
        i = _origin_node(prof, prof.eta_origin)
        t = prof.eta_origin ** (p.m - 1.0) * np.exp(prof.s_grid[:i + 1] / p.beta_p)
        log_wbar = math.log(prof.eta_origin) + t * polyval(t, Q / np.arange(1, Q.size + 1))
        assert expansion_check(prof).logw_defect == float(np.max(np.abs(prof.W[:i + 1] - log_wbar)))

    def test_reads_the_continuation_state(self, unit_eta_profile):
        # d1 = eta beta' z/rho at 0: z scaled by 1 + 1e-3 must move d1 by 1e-3
        bad = _scaled(unit_eta_profile, "z", 1.0 + 1e-3)
        assert expansion_check(bad).rel_err1 == pytest.approx(1e-3, rel=0.01)

    @pytest.mark.parametrize("point", SWEEP_COMPLETING, ids=point_id)
    def test_sweep_within_bounds(self, point):
        if point == REFERENCE_POINT:
            rep = expansion_check(solve_for_eta(derive_params(*point), 1.0))
            err1, err2 = rep.rel_err1, rep.rel_err2
        else:
            # the sweep table's own row, unrounded: test_sweep.py reads the same build
            row = run_point(point)
            assert row["outcome"] == "pass"
            err1, err2 = row["values"]["d1_rel_err"], row["values"]["d2_rel_err"]
        assert err1 <= 1e-2 and err2 <= 2e-2          # ACCEPTANCE 05
        # headroom: measured worst on these points 1.2e-11 and 6.6e-9
        assert err1 <= 1e-8
        assert err2 <= 1e-4


class TestEquationResiduals:
    def test_f_equation(self, unit_eta_profile):
        assert f_ode_residual(unit_eta_profile) <= 1e-5

    def test_wbar_equation(self, unit_eta_profile):
        assert wbar_ode_residual(unit_eta_profile) <= 1e-5

    def test_inverted_equation(self, unit_eta_profile):
        assert inversion_report(unit_eta_profile).residual <= 1e-5

    def test_residuals_detect_defects(self, unit_eta_profile):
        # a one-part-in-1e3 smooth dent must push the relative defect above
        # the acceptance gate, otherwise the residual checks prove nothing:
        # in wt at s = 5 and at s = -3 for the f check, which forms f from
        # the stored W (the s = -3 dent reads 2.3e-4 against a clean 5.9e-10),
        # in wt at s = -3 (rho = 0.027) for the w-bar check and in h at
        # s = -3 (sigma = 3) for the inverted check
        prof = unit_eta_profile
        s = prof.s_grid

        def bump(at):
            return 1e-3 * np.exp(-((s - at) ** 2))

        def dent_wt(at):
            return replace(prof, W=prof.W + np.log1p(bump(at)))

        for check, bad in (
                (f_ode_residual, dent_wt(5.0)),
                (f_ode_residual, dent_wt(-3.0)),
                (wbar_ode_residual, dent_wt(-3.0)),
                (lambda q: inversion_report(q).residual, _scaled(prof, "h", 1.0 + bump(-3.0)))):
            dented, clean = check(bad), check(prof)
            assert dented > 1e-5
            assert dented > 100.0 * clean

    @pytest.mark.parametrize("lam", [1e-120, 1e120, 1e150])
    def test_far_rescale_reads_inside_the_gate(self, base_profile, lam):
        # each residual is divided through by its solution, so none forms
        # f, wt or g at the table's scale: these rescales take f on the
        # window past the normal floats, and every residual still reads
        # inside its gate with no RuntimeWarning.  Measured at most 1.9e-7,
        # w-bar's roundoff at 1e150
        prof = rescale_profile(base_profile, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [f_ode_residual(prof), wbar_ode_residual(prof), inversion_report(prof).residual]
        assert max(values) <= 1e-5

    def test_inverted_terms_do_not_overflow(self):
        # at (5, 0.012, 3.264), m at 2% of (n-2)/n and gamma at 0.5% of its
        # window, E = e^(243 sigma) overflows at sigma = log 100; divided
        # through by E g no term forms E, and the residual reads 7.1e-10
        prof = solve_for_eta(derive_params(*_corner(5, 0.02, 0.005)), 1.0)
        assert np.isfinite(inversion_report(prof).residual)

    @pytest.mark.parametrize("eta", [1e25, 1e-200])
    def test_window_without_rows_is_typed(self, eta):
        # rescaling to eta shifts the table, and each window moves with it
        # (an absolute window once held no row at either eta, and its max
        # over the empty selection raised numpy's bare ValueError): every
        # check reads its value on the base table's rows, also at 1e-200,
        # where f leaves the double range
        prof = solve_for_eta(derive_params(*REFERENCE_POINT), eta)
        for check in (f_ode_residual, wbar_ode_residual, lambda q: inversion_report(q).residual):
            assert check(prof) <= 1e-5


def _scaled(prof, field, factor):
    """prof with z or h times factor, a float or one per row, made on the
    stored xi = log(h/(-z)): the other of the two follows from h - z = C1.
    With factor = 1 + b, z's scaling adds log1p(-b e^-xi) - log1p(b) to xi
    and h's log1p(b) - log1p(-b e^xi); a row pushed out of -C1 < z < 0
    reads xi = nan."""
    b, xi = np.asarray(factor, dtype=float) - 1.0, prof.xi
    with np.errstate(invalid="ignore", divide="ignore"):
        if field == "z":
            return replace(prof, xi=xi + np.log1p(-b * np.exp(-xi)) - np.log1p(b))
        return replace(prof, xi=xi + np.log1p(b) - np.log1p(-b * np.exp(xi)))


def _dented(prof, field, at):
    """prof with a 1e-3 relative Gaussian dent (width 1 in s) at s = at in
    wt = e^W, z or h; a dent in z or h is one in xi (see _scaled)."""
    bump = 1e-3 * np.exp(-((prof.s_grid - at) ** 2))
    if field == "W":
        return replace(prof, W=prof.W + np.log1p(bump))
    return _scaled(prof, field, 1.0 + bump)


def _tripped(prof):
    """The checks of a built table that leave their ACCEPTANCE gate on prof:
    03's pointwise bounds, 05's d1 and d2, 06's three residuals and the
    double inversion.  A check that raises a typed error counts as tripped.
    04's origin_q_defect is formed while the table is built, and its
    fp_residual reads the tail, so a defect put into a built table does
    not reach them."""
    tripped = {"pointwise"} if pointwise_violations(prof) else set()
    checks = {
        "d1": (lambda q: expansion_check(q).rel_err1, 1e-2),
        "d2": (lambda q: expansion_check(q).rel_err2, 2e-2),
        "f": (f_ode_residual, 1e-5),
        "wbar": (wbar_ode_residual, 1e-5),
        "inverted": (lambda q: inversion_report(q).residual, 1e-5),
        "double_inversion": (lambda q: inversion_report(q).double_inversion_err, 1e-8),
    }
    for name, (check, gate) in checks.items():
        try:
            if not check(prof) <= gate:
                tripped.add(name)
        except FastDiffError:
            tripped.add(name)
    return tripped


@functools.cache
def _unit_eta(point):
    return solve_for_eta(derive_params(*point), 1.0)


MUTATION_POINTS = [REFERENCE_POINT,
                   next(p for p in SWEEP_COMPLETING if point_id(p) == "n5-m0.54-g5.495")]

# mutation -> the checks it trips at each of MUTATION_POINTS.  An empty set
# is a blind spot: a check that comes to cover it must update this table.
# Dents at s = -20 lie below the residuals' windows, except w-bar's at the
# second point: rho in e^(s_t/beta') [1e-4, 1] starts at s = s_t + beta' log
# 1e-4, -8.6 at the reference and -18.5 where beta' = 1.89.  Dents at
# s >= 15 lie past every window; there only a z dent shows, as z < -C1
# where h is below 1e-3 C1.  The reference table ends at s_T = 23.9 (the
# eta = 1 frame), so a dent at s = 30 or 33.7 (-s_0 of that table) moves
# no stored row there and trips nothing; the second point's table runs to
# s = 112, where they are tail rows that no check of the table reads
# either (fp_residual reads the tail itself).  eta_origin
# off by 1e-6 moves d1 and d2 by about 1e-6, far inside their gates.  The
# table stores xi, so a z dent moves h as well and an h dent moves z
# (_scaled): at s = -20, where -z is below 1e-3 h, an h dent takes h past
# C1 and xi to nan, which ACCEPTANCE 03 counts and the origin fit reads,
# and at s = -3 each of the two trips what reads the other.  z-sign is a
# nan xi at one row, which the inverted check reads through h
MUTATIONS = {
    "W@-20": (set(), {"wbar"}),
    "z@-20": (set(), set()),
    "h@-20": ({"pointwise", "d1", "d2"}, {"pointwise", "d1", "d2"}),
    "W@-3": ({"f", "wbar", "inverted"}, {"f", "wbar", "inverted"}),
    "z@-3": ({"d2", "inverted"}, {"inverted"}),
    "h@-3": ({"d2", "inverted"}, {"inverted"}),
    "W@15": (set(), set()),
    "z@15": ({"pointwise"}, {"pointwise"}),
    "h@15": (set(), set()),
    "W@30": (set(), set()),
    "z@30": (set(), {"pointwise"}),
    "h@30": (set(), set()),
    "W@33.7": (set(), set()),
    "z@33.7": (set(), {"pointwise"}),
    "h@33.7": (set(), set()),
    "eta": (set(), set()),
    "z-sign": ({"pointwise", "inverted"}, {"pointwise", "inverted"}),
}


def _mutated(prof, name):
    if name == "eta":
        return replace(prof, eta_origin=prof.eta_origin * (1.0 + 1e-6))
    if name == "z-sign":                    # at the row nearest s = 0
        # z > 0 has no xi = log(h/(-z)): its log reads nan
        xi = prof.xi.copy()
        xi[int(np.argmin(np.abs(prof.s_grid)))] = np.nan
        return replace(prof, xi=xi)
    field, at = name.split("@")
    return _dented(prof, field, float(at))


class TestMutationTable:
    @pytest.mark.parametrize("point", MUTATION_POINTS, ids=point_id)
    def test_clean_table_trips_nothing(self, point):
        assert _tripped(_unit_eta(point)) == set()

    @pytest.mark.parametrize("k", range(len(MUTATION_POINTS)), ids=[point_id(p) for p in MUTATION_POINTS])
    @pytest.mark.parametrize("name", list(MUTATIONS))
    def test_mutation_trips_exactly(self, name, k):
        assert _tripped(_mutated(_unit_eta(MUTATION_POINTS[k]), name)) == MUTATIONS[name][k]


def _five_checks(prof):
    rep = expansion_check(prof)
    return {"f": f_ode_residual(prof), "wbar": wbar_ode_residual(prof),
            "inverted": inversion_report(prof).residual, "d1": rep.rel_err1, "d2": rep.rel_err2}


@functools.cache
def _base_checks(point):
    base = continue_left(picard_solve(derive_fp_constants(derive_params(*point))))
    return base, _five_checks(base)


class TestScaleInvariance:
    """rescale_profile is an exact symmetry of the profile equation: two
    shifts of the stored state.  Every check places its window relative to
    the profile's transition, so it reads the same rows, and the same value
    up to the rounding of the shifted s and W, on a table and on any
    rescale of it.  Measured over lambda in 1e-10 .. 1e10 at the two
    mutation points, every check reads its roundoff on every table: f and
    the inverted residual, each divided through by its solution, at most
    6.2e-10 and 6.33e-10, and w-bar, d1 and d2 at most 3.9e-8, 9.1e-15 and
    1.7e-12.  Floors on both values: f and inverted 1e-9, w-bar 5e-8, d1
    1e-14 and d2 2e-12."""

    @pytest.mark.parametrize("lam", [1e-10, 1e-5, 1.0, 1e5, 1e10])
    @pytest.mark.parametrize("point", MUTATION_POINTS, ids=point_id)
    def test_checks_read_the_table_not_its_scale(self, point, lam):
        base, ref = _base_checks(point)
        got = _five_checks(rescale_profile(base, lam))
        for name, floor in (("f", 1e-9), ("inverted", 1e-9), ("wbar", 5e-8), ("d1", 1e-14),
                            ("d2", 2e-12)):
            assert max(got[name], ref[name]) <= floor, name


class TestInversion:
    def test_double_inversion_returns_profile(self, unit_eta_profile):
        rep = inversion_report(unit_eta_profile)
        assert rep.double_inversion_err <= 1e-8

"""Parameter derivation against hand-evaluated oracles.

At (n=3, m=1/5, gamma=4) everything is rational:
beta = 1/(2-(1-m)gamma) = 1/(2-16/5) = -5/6, alpha = (2 beta - 1)/(1-m)
= (-5/3-1)/(4/5) = -10/3, and the fixed-point constants reduce to
C1 = (n-2)/m - gamma = 1, C2 = 2, C3 = C4 = 31/60, C5 = 31/120, eps1 = 1/2,
b0 = 2 log(31/4).  The expansion constants are a1 = m gamma - (n-2)/... all
evaluated below from their closed forms.
"""

import math

import numpy as np
import pytest

import fastdiff as fd
from fastdiff.errors import DegenerateError, RangeError

REL = 1e-14


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


class TestExponents:
    def test_reference_point_exact(self, params_ref):
        assert rel_err(params_ref.beta, -5.0 / 6.0) <= REL
        assert rel_err(params_ref.alpha, -10.0 / 3.0) <= REL

    def test_primed_exponents(self, params_ref):
        assert rel_err(params_ref.alpha_p, 10.0 / 3.0) <= REL
        assert rel_err(params_ref.beta_p, 5.0 / 6.0) <= REL

    def test_alpha_beta_identity(self):
        # alpha(1-m) = 2 beta - 1 across a sweep of admissible points
        for n, m, gamma in [(3, 0.2, 4.0), (4, 0.25, 5.5), (5, 0.1, 8.0), (3, 0.3, 3.1)]:
            p = fd.derive_params(n, m, gamma)
            assert rel_err(p.alpha * (1 - m), 2 * p.beta - 1) <= 1e-13

    def test_beta_magnitude_decreases_in_gamma(self):
        gammas = np.linspace(3.0, 4.8, 12)
        betas = [abs(fd.derive_params(3, 0.2, g).beta) for g in gammas]
        assert np.all(np.diff(betas) < 0)

    def test_gamma_below_admissible_raises(self):
        with pytest.raises(RangeError):
            fd.derive_params(3, 0.2, 2.4)  # 2/(1-m) = 2.5

    def test_gamma_above_admissible_raises(self):
        with pytest.raises(RangeError):
            fd.derive_params(3, 0.2, 5.1)  # (n-2)/m = 5

    def test_m_out_of_range_raises(self):
        with pytest.raises(RangeError):
            fd.derive_params(3, 0.5, 4.0)  # needs m < (n-2)/n = 1/3
        with pytest.raises(RangeError):
            fd.derive_params(3, -0.1, 4.0)

    def test_fourth_argument_must_be_one(self):
        # any other rho1 is a rescaled copy of the rho1 = 1 family: the
        # refusal names the scaling instead of building it
        assert fd.derive_params(3, 0.2, 4.0, 1.0) == fd.derive_params(3, 0.2, 4.0)
        for rho1 in (2.0, 0.5, 0.0, math.inf, math.nan):
            with pytest.raises(RangeError, match=r"k = rho1\^\(1/\(m-1\)\)"):
                fd.derive_params(3, 0.2, 4.0, rho1)

    def test_n_must_be_integer_ge_3(self):
        with pytest.raises(RangeError):
            fd.derive_params(2, 0.2, 4.0)

    def test_beta_pole_is_degenerate(self):
        # gamma = 2/(1-m) makes beta blow up; just inside the window the
        # derivation must refuse rather than emit huge exponents
        with pytest.raises((DegenerateError, RangeError)):
            fd.derive_params(3, 0.2, 2.5 + 1e-13)

    def test_convergence_range_flag(self):
        assert fd.derive_params(3, 0.2, 4.0).gamma_in_convergence_range  # n <= 4 < 5
        assert not fd.derive_params(3, 0.2, 2.9).gamma_in_convergence_range  # < n
        assert fd.derive_params(3, 0.2, 3.0).gamma_in_convergence_range  # = n


class TestFPConstants:
    def test_reference_point_exact(self, fp_ref):
        assert rel_err(fp_ref.C2, 2.0) <= REL
        assert rel_err(fp_ref.C3, 31.0 / 60.0) <= REL
        assert rel_err(fp_ref.C4, 31.0 / 60.0) <= REL
        assert rel_err(fp_ref.C5, 31.0 / 120.0) <= REL
        assert rel_err(fp_ref.eps1, 0.5) <= REL

    def test_b0_closed_form(self, fp_ref):
        assert rel_err(fp_ref.b0, 2.0 * math.log(31.0 / 4.0)) <= REL

    def test_b1_margin(self, params_ref, fp_ref):
        assert rel_err(fp_ref.b1, 1.05 * fp_ref.b0) <= REL
        fp2 = fd.derive_fp_constants(params_ref, b1_margin=0.2)
        assert rel_err(fp2.b1, 1.2 * fp_ref.b0) <= REL

    def test_c1_is_a_parameter_constant(self, params_ref):
        assert params_ref.C1 == 1.0
        p = fd.derive_params(5, 0.3, 8.0)
        assert p.C1 == pytest.approx(3.0 / 0.3 - 8.0, rel=1e-15)

    def test_c5_is_c3_over_c2(self):
        for n, m, gamma in [(3, 0.2, 4.0), (4, 0.25, 5.5), (5, 0.1, 8.0)]:
            p = fd.derive_params(n, m, gamma)
            fp = fd.derive_fp_constants(p)
            assert rel_err(fp.C5, fp.C3 / fp.C2) <= 1e-13


class TestExpansionConstants:
    def test_reference_point_exact(self, params_ref):
        assert rel_err(params_ref.a1, 0.5) <= REL
        assert rel_err(params_ref.a2, -25.0 / 36.0) <= REL
        assert rel_err(params_ref.a3, 5.0 / 9.0) <= REL

    def test_reference_d_values(self, params_ref):
        # stationary-expansion references at eta = 1
        a1, a2, a3 = params_ref.a1, params_ref.a2, params_ref.a3
        assert rel_err(a3 / a2, -0.8) <= 1e-13
        assert rel_err(a3 * (0.2 * a3 - a1) / a2 ** 2, -0.448) <= 1e-13

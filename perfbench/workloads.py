"""The three benchmark workloads at the reference point n=3, m=1/5, gamma=4.

Each workload has a set-up (built once per repetition, untimed by the op
loop) and an op (one user-level computation at the ``fdx`` defaults), and
checks each op's outputs against that op's acceptance gates from
``tests/test_acceptance.py``.  ``make_op(k)`` returns op number k of the
schedule as ``(label, call)``; ``call()`` returns the list of gates the op
broke, empty when its outputs pass, and lets a ``FastDiffError`` propagate.
The schedule repeats every ``period`` ops, and a run holds a fixed number of
whole periods, set from ``--seconds`` and ``period_s`` (the wall time of one
period on the machine the baseline was measured on).  So the ops a run
attempts, and the ones that fail, depend on the seed and ``--seconds`` only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import fastdiff
import fastdiff.cli

# reference point and fdx defaults shared by every workload
N, M, GAMMA, RHO1, ETA, TOL, B1_MARGIN = 3, 0.2, 4.0, 1.0, 1.0, 1e-12, 0.05
MU = (N - 2) / 2.0
R_IN, R_OUT, T0 = 1e-3, 1e3, 1.0
SLACK_REL = 1e-6      # monotonicity slack of the CLI and ACCEPTANCE 09/10
AB_MAX = 1e-6         # ACCEPTANCE 11


def build_profile_and_weight():
    """What ``fdx contract``/``fdx converge`` build before evolving anything."""
    params = fastdiff.derive_params(N, M, GAMMA, RHO1)
    prof = fastdiff.solve_for_eta(params, target_eta=ETA, tol=TOL, b1_margin=B1_MARGIN)
    weight = fastdiff.build_weight(fastdiff.BumpSpec(mu=MU, n=N))
    return prof, weight


def _evolve_config(dt_rel_max):
    return fastdiff.EvolveConfig(dt_init=1e-4, dt_max=0.05, dt_min=1e-12,
                                 dt_rel_max=dt_rel_max, newton_tol=1e-11, newton_max=12)


def _monotone(seq, slack):
    return bool(np.all(np.diff(seq) <= slack))


class Expansion:
    """``fdx expansion --n 3`` in-process; artifacts go to a temporary dir."""

    name = "expansion"
    period = 1
    period_s = 2.3

    def __init__(self, seed, tmp_dir):
        self.tmp_dir = Path(tmp_dir)
        self.accuracy = {}
        self.tracer = None

    def setup(self):
        # the warm-up op: caches and lazy imports, as a user's first run pays
        label, call = self.make_op(-1)
        call()

    def make_op(self, k):
        out = self.tmp_dir / f"expansion-{k}"
        argv = ["expansion", "--n", str(N), "--out", str(out)]

        def call():
            if self.tracer is not None:
                code = self.tracer.region("cli.main", fastdiff.cli.main, argv)
            else:
                code = fastdiff.cli.main(argv)
            if code != 0:
                err = json.loads((out / "error.json").read_text())
                raise fastdiff.FastDiffError(f"exit {code}: {err['error']}: {err['message']}")
            return self._check(json.loads((out / "expansion_summary.json").read_text()))

        return "expansion", call

    def _check(self, summary):
        # ACCEPTANCE 05: derivatives against the exact reference values
        exp = summary["expansion"]
        e1 = abs(exp["d1"] + 0.8) / 0.8
        e2 = abs(exp["d2"] + 0.448) / 0.448
        # ACCEPTANCE 06: residuals in the three formulations
        res = summary["residual_max"]
        dbl = summary["inversion"]["double_inversion_err"]
        self.accuracy = {"rel_err1": e1, "rel_err2": e2, **res, "double_inversion_err": dbl}
        broken = []
        if not e1 <= 1e-2:
            broken.append(f"rel_err1 {e1:.3e} > 1e-2")
        if not e2 <= 2e-2:
            broken.append(f"rel_err2 {e2:.3e} > 2e-2")
        for key, val in res.items():
            if not (val is not None and val <= 1e-5):
                broken.append(f"{key} residual {val} > 1e-5")
        if not dbl <= 1e-8:
            broken.append(f"double inversion {dbl:.3e} > 1e-8")
        return broken


class Contract:
    """``fdx contract --n 3 --seed s`` at its defaults for the pair seeds
    s = 0..19, as library calls on a profile and weight built in set-up.
    The workload seed picks the pair seed the schedule starts from."""

    name = "contract"
    period = 20
    period_s = 7.0

    def __init__(self, seed, tmp_dir):
        self.first = seed % self.period
        self.grid = fastdiff.log_grid(R_IN, R_OUT, 512)
        self.times = np.exp(np.linspace(math.log(T0), math.log(3.0), 12))
        self.cfg = _evolve_config(None)
        self.accuracy = {}
        self.tracer = None

    def setup(self):
        self.prof, self.weight = build_profile_and_weight()

    def make_op(self, k):
        seed = (self.first + k) % self.period

        def call():
            rng = np.random.default_rng(seed)
            u0, v0, sandwich = fastdiff.random_sandwiched_pair(
                self.prof, self.grid, T0, rng, lam_pair=(1.2, 0.8), theta_amp=0.12)
            res = fastdiff.contraction_experiment(u0, v0, self.weight, self.times, self.cfg,
                                                  sandwich=sandwich)
            return self._check(res)

        return f"pair seed {seed}", call

    def _check(self, res):
        # ACCEPTANCE 09 with the CLI's slack, and ACCEPTANCE 11
        slack = SLACK_REL * (1.0 + float(res.dist_abs[0]))
        worst = max(float(np.max(np.diff(res.dist_abs))), float(np.max(np.diff(res.dist_pos))))
        ab = max(res.u_final.stats.ab_max, res.v_final.stats.ab_max)
        self.accuracy = {"worst_increment_minus_slack": worst - slack, "ab_max": ab}
        broken = []
        if not (_monotone(res.dist_abs, slack) and _monotone(res.dist_pos, slack)):
            broken.append(f"distance increased by {worst:.3e} > slack {slack:.3e}")
        if not ab <= AB_MAX:
            broken.append(f"ab_max {ab:.3e} > 1e-6")
        return broken


class Converge:
    """``fdx converge --n 3`` with ``--case orbit`` and ``--case bump``
    alternating, as library calls on a profile and weight built in set-up.
    The inputs are the CLI defaults and hold nothing random."""

    name = "converge"
    period = 2            # an orbit op costs ~10% more than a bump op
    period_s = 14.0

    def __init__(self, seed, tmp_dir):
        self.grid = fastdiff.log_grid(R_IN, R_OUT, 640)
        self.tau = np.linspace(math.log(T0), math.log(T0) + 3.0, 16)
        self.cfg = _evolve_config(2.5e-4)
        self.accuracy = {}
        self.tracer = None

    def setup(self):
        self.prof, self.weight = build_profile_and_weight()

    def make_op(self, k):
        case = "orbit" if k % 2 == 0 else "bump"

        def call():
            u0_spec = None
            if case == "bump":
                u0_spec = fastdiff.power_bump_initial(self.prof.params, 1.0, 0.10, -1.2, 2.0)
            res = fastdiff.convergence_experiment(
                self.prof, 1.0, 1.0, 1.2, u0_spec, self.tau, self.cfg,
                weight=self.weight, r_grid=self.grid, t0=T0)
            return self._check(case, res)

        return case, call

    def _check(self, case, res):
        ab = res.field_final.stats.ab_max
        broken = [] if ab <= AB_MAX else [f"ab_max {ab:.3e} > 1e-6"]
        if case == "orbit":
            # ACCEPTANCE 10, orbit part; the tau=0 distance is ~0, so no ratio
            rel = float(np.max(res.dist_l1w)) / res.norm_ref
            self.accuracy["orbit"] = {"rel_distance": rel, "ab_max": ab}
            if not rel <= 5e-3:
                broken.append(f"orbit relative distance {rel:.3e} > 5e-3")
        else:
            slack = SLACK_REL * (1.0 + float(res.dist_l1w[0]))
            ratio = float(res.dist_l1w[-1] / res.dist_l1w[0])
            self.accuracy["bump"] = {"final_over_initial": ratio, "ab_max": ab}
            if not _monotone(res.dist_l1w[res.tau_grid >= 0.5], slack):
                broken.append("bump distance not decreasing past tau=0.5")
            if not ratio <= 0.1:
                broken.append(f"bump final/initial {ratio:.3f} > 0.1")
        return broken


WORKLOADS = {w.name: w for w in (Expansion, Contract, Converge)}

"""End-to-end tests of the fdx command line: artifact layout, config file
precedence, determinism, and the exit-code contract (0 success, 2 config,
3 numerical failure, 4 invariant violation)."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fastdiff
from fastdiff import cli
from fastdiff.errors import (
    BlowUpError,
    BoundViolationError,
    ConfigError,
    DegenerateError,
    ExtrapolationError,
    FastDiffError,
    GridMismatchError,
    InternalError,
    NewtonDivergence,
    NonContractionError,
    PositivityError,
    RangeError,
    ResolutionError,
    SandwichViolationError,
    StiffnessError,
    ToleranceError,
)

A4_REF = 2.4383375566777101284


def read_json(path):
    return json.loads(path.read_text())


def csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestWeightCommand:
    def test_artifacts(self, tmp_path):
        rc = cli.main(["weight", "--n", "3", "--out", str(tmp_path),
                       "--nodes", "51", "--r-lo", "0.1", "--r-hi", "10"])
        assert rc == 0
        assert (tmp_path / "weight_manifest.json").exists()
        summary = read_json(tmp_path / "weight_summary.json")
        assert summary["a4"] == pytest.approx(A4_REF, rel=1e-12)
        assert summary["mu"] == 0.5
        assert summary["R0"] > 2.0

        text = (tmp_path / "weight.csv").read_text()
        first = text.splitlines()[0]
        assert re.match(r"^# a4=[0-9.eE+-]+ a5=[0-9.eE+-]+ mu=[0-9.eE+-]+ n=3$", first)
        header, rows = csv_rows(tmp_path / "weight.csv")
        assert header == ["r", "phi", "dphi"]
        assert len(rows) == 51
        # phi = 1, dphi = 0 on the identity region
        for r_str, phi_str, dphi_str in rows:
            if float(r_str) <= 1.0:
                assert float(phi_str) == 1.0
                assert float(dphi_str) == 0.0

    def test_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert cli.main(["weight", "--n", "3", "--out", str(d), "--nodes", "31"]) == 0
        assert (d1 / "weight.csv").read_bytes() == (d2 / "weight.csv").read_bytes()
        assert (d1 / "weight_summary.json").read_bytes() == (d2 / "weight_summary.json").read_bytes()
        m1, m2 = read_json(d1 / "weight_manifest.json"), read_json(d2 / "weight_manifest.json")
        m1["config"].pop("out"), m2["config"].pop("out")
        assert m1 == m2

    def test_manifest_derived_block(self, tmp_path):
        # the block holds the constants of what the command built: the weight
        # alone here, the ParamSet and the weight for a stepping command
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path), "--nodes", "31"]) == 0
        derived = read_json(tmp_path / "weight_manifest.json")["derived"]
        assert set(derived) == {"a4", "a5", "mu"}
        assert derived["a4"] == pytest.approx(A4_REF, rel=1e-12)
        assert cli.main(["evolve", "--n", "3", "--kind", "constant", "--nodes", "16",
                         "--out", str(tmp_path)]) == 0
        derived = read_json(tmp_path / "evolve_manifest.json")["derived"]
        assert set(derived) == {"alpha", "beta", "alpha_p", "beta_p",
                                "gamma_in_convergence_range", "C1", "C2", "C3", "C4", "C5",
                                "eps1", "b0", "b1", "a1", "a2", "a3", "a4", "a5", "mu"}
        assert derived["alpha"] == pytest.approx(-10.0 / 3.0, rel=1e-14)
        assert derived["beta"] == pytest.approx(-5.0 / 6.0, rel=1e-14)
        assert derived["C1"] == 1.0
        assert derived["C2"] == 2.0
        assert derived["gamma_in_convergence_range"] is True
        assert derived["a4"] == pytest.approx(A4_REF, rel=1e-12)

    def test_higher_dimension(self, tmp_path):
        # the weight the stepping commands build must exist beyond n = 3
        assert cli.main(["weight", "--n", "5", "--out", str(tmp_path), "--nodes", "31"]) == 0
        assert read_json(tmp_path / "weight_summary.json")["mu"] == 1.5

    def test_no_csv_no_json(self, tmp_path):
        rc = cli.main(["weight", "--n", "3", "--out", str(tmp_path), "--nodes", "31",
                       "--no-csv", "--no-json"])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["weight_manifest.json"]


class TestProfileCommand:
    def test_artifacts(self, tmp_path):
        rc = cli.main(["profile", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = csv_rows(tmp_path / "profile.csv")
        assert header == ["s", "r", "h", "wt", "f", "log_f", "rfr_over_f"]
        assert len(rows) > 1000
        summary = read_json(tmp_path / "profile_summary.json")
        assert summary["eta_origin"] == pytest.approx(1.0, rel=1e-8)
        assert summary["fp_residual"] <= 1e-10
        assert summary["ode_residual_max"] <= 1e-5
        assert summary["iterations"] <= 10
        s_lo, s_hi = summary["s_range"]
        assert s_lo < 0 < s_hi
        # the far-field check is fp_residual, read over the whole tail
        assert set(summary) == {"eta_origin", "eta_inf", "fp_residual", "ode_residual_max",
                                "iterations", "s_range"}


class TestExpansionCommand:
    def test_summary(self, tmp_path):
        rc = cli.main(["expansion", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "expansion_summary.json")
        exp = summary["expansion"]
        assert exp["d1"] == pytest.approx(-0.8, rel=0.01)
        assert exp["d2"] == pytest.approx(-0.448, rel=0.02)
        res = summary["residual_max"]
        assert res["f_equation"] <= 1e-5
        assert res["wbar_equation"] <= 1e-5
        assert res["inversion_equation"] <= 1e-5
        assert summary["inversion"]["double_inversion_err"] <= 1e-8
        assert set(summary) == {"expansion", "inversion", "residual_max"}


class TestEvolveCommand:
    def test_constant_exact(self, tmp_path):
        rc = cli.main(["evolve", "--n", "3", "--kind", "constant", "--out", str(tmp_path),
                       "--nodes", "64", "--r-in", "0.01", "--r-out", "100",
                       "--t-end", "1.3", "--samples", "3", "--c0", "2.0"])
        assert rc == 0
        summary = read_json(tmp_path / "evolve_summary.json")
        assert summary["dist_final_sup_compact"] <= 1e-11
        assert summary["stats"]["ab_max"] <= 1e-6
        header, rows = csv_rows(tmp_path / "evolve.csv")
        assert header == ["t", "tau", "dist_L1w", "dist_sup_compact"]
        assert len(rows) == 3
        fheader, frows = csv_rows(tmp_path / "evolve_field.csv")
        assert fheader == ["r", "u"]
        assert len(frows) == 64

    def test_barenblatt_tracks_closed_form(self, tmp_path):
        rc = cli.main(["evolve", "--n", "3", "--kind", "barenblatt", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--t-end", "1.5", "--samples", "3",
                       "--dt-init", "0.004", "--dt-max", "0.004"])
        assert rc == 0
        summary = read_json(tmp_path / "evolve_summary.json")
        assert summary["dist_final_sup_compact"] <= 5e-3
        assert summary["stats"]["ab_max"] <= 1e-6

    def test_self_similar_tracks_orbit(self, tmp_path):
        rc = cli.main(["evolve", "--n", "3", "--kind", "self-similar", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--t-end", "1.2", "--samples", "3",
                       "--dt-init", "0.004", "--dt-max", "0.004"])
        assert rc == 0
        summary = read_json(tmp_path / "evolve_summary.json")
        assert summary["dist_final_sup_compact"] <= 2e-2
        assert summary["stats"]["ab_max"] <= 1e-6

    def test_power_bump_has_no_reference(self, tmp_path):
        rc = cli.main(["evolve", "--n", "3", "--kind", "power-bump", "--out", str(tmp_path),
                       "--nodes", "64", "--r-in", "0.01", "--r-out", "100",
                       "--t-end", "1.2", "--samples", "3"])
        assert rc == 0
        summary = read_json(tmp_path / "evolve_summary.json")
        assert summary["dist_final_l1w"] is None  # nan serializes as null
        assert summary["stats"]["ab_max"] <= 1e-6

    def test_one_march_through_the_samples(self, tmp_path):
        # the summary's counters are those of one evolve call through the
        # sampled times, not a sum over restarted intervals
        args = ["--nodes", "64", "--r-in", "0.01", "--r-out", "100", "--t-end", "1.5",
                "--samples", "4", "--c0", "2.0"]
        assert cli.main(["evolve", "--n", "3", "--kind", "constant", "--out", str(tmp_path),
                         *args]) == 0
        stats = read_json(tmp_path / "evolve_summary.json")["stats"]
        grid = fastdiff.log_grid(0.01, 100.0, 64)
        field = fastdiff.RadialField(grid, np.full(64, 2.0), 1.0, (lambda t: 2.0, lambda t: 2.0),
                                     params=fastdiff.derive_params(3, 0.2, 4.0))
        times = np.exp(np.linspace(0.0, math.log(1.5), 4))
        final = fastdiff.evolve(field, fastdiff.EvolveConfig(), times)[-1]
        assert stats == dataclasses.asdict(final.stats)
        assert stats["n_steps"] > 0

    def test_no_node_in_sup_window(self, tmp_path):
        # the grid misses [0.1, 10], so the compact sup distance is undefined
        rc = cli.main(["evolve", "--n", "3", "--kind", "constant", "--out", str(tmp_path),
                       "--r-in", "20", "--r-out", "100", "--nodes", "16",
                       "--t-end", "1.1", "--samples", "2"])
        assert rc == 0
        summary = read_json(tmp_path / "evolve_summary.json")
        assert summary["dist_final_sup_compact"] is None  # nan serializes as null
        assert summary["dist_final_l1w"] <= 1e-11


class TestContractCommand:
    def test_distances_non_increasing(self, tmp_path):
        rc = cli.main(["contract", "--n", "3", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--t-end", "1.3", "--samples", "4", "--dt-max", "0.02",
                       "--seed", "1"])
        assert rc == 0
        summary = read_json(tmp_path / "contract_summary.json")
        assert summary["monotone_abs"] is True
        assert summary["monotone_pos"] is True
        assert summary["stats_u"]["ab_max"] <= 1e-6
        assert summary["stats_v"]["ab_max"] <= 1e-6
        header, rows = csv_rows(tmp_path / "contract.csv")
        assert header == ["t", "tau", "dist_L1w", "dist_sup_compact"]
        assert len(rows) == 4
        dists = [float(r[2]) for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(dists, dists[1:]))


class TestConvergeCommand:
    def test_bump_case_decays(self, tmp_path):
        rc = cli.main(["converge", "--n", "3", "--case", "bump", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--tau-max", "0.5", "--samples", "3", "--dt-rel-max", "2e-3"])
        assert rc == 0
        summary = read_json(tmp_path / "converge_summary.json")
        assert summary["case"] == "bump"
        assert summary["final_over_initial"] < 1.0
        assert summary["norm_ref"] > 0
        assert summary["u0_l1_gap"] > 0
        header, rows = csv_rows(tmp_path / "converge.csv")
        assert len(rows) == 3

    def test_bump_near_the_outer_edge_runs(self, tmp_path):
        # a bump inside [a1, a2] that ends short of r_out: the datum is
        # inside the envelopes, so the hypothesis holds and the run goes on
        rc = cli.main(["converge", "--n", "3", "--case", "bump", "--amp", "0.15",
                       "--center", "6.5", "--width", "0.3", "--tau-max", "0.05",
                       "--samples", "3", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "converge_summary.json")
        assert summary["case"] == "bump"
        assert 0 < summary["u0_l1_gap"] < math.inf

    def test_orbit_case_reports_no_ratio(self, tmp_path):
        # the orbit starts on the limit profile, so its tau=0 distance is
        # interpolation noise and a ratio to it means nothing
        rc = cli.main(["converge", "--n", "3", "--case", "orbit", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--tau-max", "0.5", "--samples", "3", "--dt-rel-max", "2e-3"])
        assert rc == 0
        summary = read_json(tmp_path / "converge_summary.json")
        assert summary["case"] == "orbit"
        assert summary["final_over_initial"] is None
        assert max(summary["dist_rel_l1w"]) <= 5e-3


@pytest.mark.parametrize("argv, summary, blocks", [
    (["evolve", "--kind", "constant", "--t-end", "1.2"], "evolve_summary.json", ["stats"]),
    (["contract", "--t-end", "1.2", "--seed", "0"], "contract_summary.json",
     ["stats_u", "stats_v"]),
    (["converge", "--tau-max", "0.2"], "converge_summary.json", ["stats"]),
])
def test_rejections_split_by_reason_in_every_summary(argv, summary, blocks, tmp_path,
                                                     monkeypatch):
    # one step fails on positivity once: every stats block counts it in the
    # total and in n_rejected_positivity
    step = fastdiff.pde._Stepper.step
    raised = []

    def positivity_once(self, *args):
        if not raised:
            raised.append(True)
            raise fastdiff.pde._StepReject("positivity")
        return step(self, *args)

    monkeypatch.setattr(fastdiff.pde._Stepper, "step", positivity_once)
    rc = cli.main([*argv, "--n", "3", "--nodes", "64", "--r-in", "0.01", "--r-out", "100",
                   "--samples", "3", "--out", str(tmp_path)])
    assert rc == 0
    record = read_json(tmp_path / summary)
    for block in blocks:
        assert record[block]["n_rejected"] == record[block]["n_rejected_positivity"] == 1


class TestExitCodes:
    def test_mapping_table(self):
        expected = {
            ConfigError: 2, RangeError: 2, DegenerateError: 2, GridMismatchError: 2,
            StiffnessError: 3, BlowUpError: 3, ToleranceError: 3,
            ExtrapolationError: 3, ResolutionError: 3, NewtonDivergence: 3,
            InternalError: 4, NonContractionError: 4, BoundViolationError: 4,
            PositivityError: 4, SandwichViolationError: 4,
            FastDiffError: 3,
        }
        for exc_type, code in expected.items():
            assert exc_type("x").exit_code == code, exc_type.__name__

    def test_config_error_writes_record(self, tmp_path):
        rc = cli.main(["profile", "--n", "3", "--m", "0.9", "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "RangeError"
        assert record["exit_code"] == 2
        assert record["command"] == "profile"
        assert not (tmp_path / "profile_summary.json").exists()
        assert not (tmp_path / "profile_manifest.json").exists()
        # no sampled time at all: a typed error, not an IndexError traceback
        rc = cli.main(["evolve", "--n", "3", "--kind", "constant", "--nodes", "16",
                       "--samples", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert read_json(tmp_path / "error.json")["error"] == "ConfigError"
        # an option refused while it is resolved leaves the same record
        rc = cli.main(["profile", "--n", "3", "--m", "nan", "--out", str(tmp_path / "nf")])
        assert rc == 2
        record = read_json(tmp_path / "nf" / "error.json")
        assert (record["command"], record["error"], record["exit_code"]) == ("profile", "ConfigError", 2)
        assert record["message"] == "m must be a finite number, got nan"

    def test_single_sample_is_bad_input(self, tmp_path):
        # one sample is t0 alone, which would ignore --t-end: refused with
        # the message contract and converge give for too few samples
        rc = cli.main(["evolve", "--n", "3", "--kind", "constant", "--nodes", "16",
                       "--samples", "1", "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "ConfigError"
        assert record["message"] == "need a sequence of at least 2 finite sample time(s)"
        assert not (tmp_path / "evolve_summary.json").exists()

    @pytest.mark.parametrize("argv, error, message", [
        (["evolve", "--kind", "constant", "--t-end", "1.0"],
         "RangeError", "t_end must exceed t0, got 1.0 <= 1.0"),
        (["contract", "--t-end", "1.0"], "RangeError", "t_end must exceed t0, got 1.0 <= 1.0"),
        (["contract", "--t-end", "0.5"], "RangeError", "t_end must exceed t0, got 0.5 <= 1.0"),
        (["contract", "--samples", "1"],
         "ConfigError", "need a sequence of at least 2 finite sample time(s)"),
        (["converge", "--tau-max", "0"], "RangeError", "tau_max must be positive, got 0.0"),
        (["converge", "--tau-max", "-1"], "RangeError", "tau_max must be positive, got -1.0"),
        (["evolve", "--kind", "barenblatt", "--t-end", "8"],
         "RangeError", "t_end must stay below the extinction time 8.0"),
        (["converge", "--tau-max", "1000"], "RangeError",
         "tau_grid passes log(float max) = 709.783: t = e^tau overflows a float"),
        (["converge", "--t0", "0"], "RangeError", "t0 must be positive, got 0.0"),
        (["evolve", "--t0", "-1"], "RangeError", "t0 must be positive, got -1.0"),
        (["contract", "--t0", "-1"], "RangeError", "t0 must be positive, got -1.0"),
    ])
    def test_empty_time_range_is_bad_input(self, argv, error, message, tmp_path):
        # evolve and contract share one rule for their sample times, converge
        # refuses an empty log-time horizon and one whose e^tau overflows,
        # a Barenblatt run must end before its extinction time, and every
        # stepping command takes log(t0) only of a positive t0, each before
        # any step
        assert cli.main([*argv, "--n", "3", "--nodes", "16", "--out", str(tmp_path)]) == 2
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["message"]) == (error, message)

    def test_overflowing_stencil_is_bad_input(self, tmp_path):
        # e^(-2 log r) at r_in = 1e-155 overflows, and at 1e-154 the stencil
        # applied to u^m/m on u = 1 does: refused before the first step, not
        # after dt has halved to dt_min on a nan Newton iteration
        for r_in in ("1e-155", "1e-154"):
            rc = cli.main(["evolve", "--n", "3", "--kind", "constant", "--r-in", r_in,
                           "--out", str(tmp_path)])
            assert rc == 2
            record = read_json(tmp_path / "error.json")
            assert record["error"] == "RangeError"
            assert record["message"].startswith(f"inner radius {r_in} too small")

    @pytest.mark.parametrize("argv, message", [
        (["profile", "--eta", "1e300"],
         "lambda = 1.48e-200 takes the scale factors past the float range"),
        (["converge", "--a0", "1e300", "--a2", "1e300"],
         "lambda = 1e-200 takes the scale factors past the float range"),
        (["evolve", "--t0", "1e100", "--t-end", "2e100"],
         "t = 1e+100 takes t^(-alpha) or t^(-beta) past the float range"),
        (["profile", "--gamma", "2.6", "--eta", "1e-100"],
         "amplitude 1e-100 needs a lambda past the float range"),
    ], ids=["profile-eta", "converge-a0-a2", "evolve-t0", "profile-small-eta"])
    def test_power_past_float_range_is_bad_input(self, argv, message, tmp_path):
        # a float power past the double range raises a bare OverflowError:
        # refused where the scale factors, lambda or t^(-alpha) are formed
        assert cli.main([*argv, "--n", "3", "--out", str(tmp_path)]) == 2
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["message"]) == ("RangeError", message)

    @pytest.mark.parametrize("s_min, code", [("-177", 0), ("-178", 0), ("-200", 0), ("-1000", 3)],
                             ids=["-177", "-178", "-200", "-1000"])
    def test_deep_s_min_is_exit_3(self, s_min, code, tmp_path):
        # the table keeps W = log wt, so an f = e^(-gamma s + W) past the
        # double range at the deep rows is no failure: profile.csv's f reads
        # inf there (from s_min = -178 on) and its log_f stays finite.  Only
        # rho^2 = e^(2 s/b') underflowing at the first node is refused
        rc = cli.main(["profile", "--n", "3", f"--s-min={s_min}", "--out", str(tmp_path)])
        assert rc == code
        if code:
            record = read_json(tmp_path / "error.json")
            assert record["error"] == "ResolutionError"
            assert record["message"] == ("rho^2 = e^(2 s/b') underflows at the first node "
                                         "s = -1000.01; choose a shallower s_min")
            return
        header, rows = csv_rows(tmp_path / "profile.csv")
        f, log_f = (np.array([float(row[header.index(c)]) for row in rows]) for c in ("f", "log_f"))
        assert np.all(np.isfinite(log_f))
        with np.errstate(over="ignore"):
            assert np.array_equal(f, np.exp(log_f))

    def test_deep_s_min_within_float_range_runs(self, tmp_path):
        rc = cli.main(["profile", "--n", "3", "--s-min=-150", "--out", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path / "profile_summary.json")["s_range"][0] < -150.0

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--m", "0.2", "--gamma", "9", "--s-min=-60"],
    ], ids=["s-min-60"])
    def test_backward_runs_stop_at_their_end(self, argv, tmp_path):
        # a backward LSODA run stepped past its end, where continue_left's
        # X = exp(-s/b' + (1-m) W) overflowed with a RuntimeWarning
        assert cli.main(["profile", *argv, "--out", str(tmp_path)]) == 0

    def test_tiny_eta_is_exit_2(self, tmp_path):
        # lambda = 3.45e215 takes eta_origin = 1.81 lambda^(-1.5) to the
        # subnormal 9.88e-324, not the 5e-324 asked for: rescale_profile
        # refuses an eta_origin below the normal floats
        rc = cli.main(["profile", "--n", "3", "--eta", "5e-324", "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "RangeError"
        assert record["message"] == ("lambda = 3.45e+215 takes eta_origin below the normal floats: "
                                     "9.88e-324")

    @pytest.mark.parametrize("eta, code", [("1e10", 0), ("1e15", 0), ("1e20", 0), ("1e25", 0),
                                           ("1e-30", 0), ("1e-60", 0), ("1e150", 0), ("1e-150", 0),
                                           ("1e180", 0), ("1e-200", 0)])
    def test_large_eta_expansion(self, eta, code, tmp_path):
        # rescaling to eta shifts the table, and every window moves with the
        # profile's transition: at 1e25 the table starts at s = 4.64, right
        # of the absolute window y in [0.01, 100] that once refused it.
        # Each residual is divided through by its solution, so from 1e-200
        # to 1e180, where f leaves the double range on the table, every
        # value stays inside its gate; expansion_check forms eta^(2m-1) as
        # eta lam lam, lam = eta^(m-1), since lam^2 = 1e320 alone overflows
        # at eta = 1e-200
        rc = cli.main(["expansion", "--n", "3", "--eta", eta, "--out", str(tmp_path)])
        assert rc == code
        summary = read_json(tmp_path / "expansion_summary.json")
        assert summary["expansion"]["rel_err1"] <= 1e-2 and summary["expansion"]["rel_err2"] <= 2e-2
        assert all(v <= 1e-5 for v in summary["residual_max"].values())

    def test_contract_reads_past_the_table(self, tmp_path):
        # at (4, 0.05, 4) the tail spans s_T - b1 = 40/C2 = 1.1 and the
        # eta = 1 table ends at r = 0.41, while the sandwiched pair reads
        # the profile out to r_out = 1e3: profile_interpolator's analytic
        # tail serves those radii, as the closed-form rows the table once
        # stored to b1 + 40 did.  Their dist_abs, 4.4819087 at t = 1 and
        # 1.6432521 at t = 3, stays within 1e-7 relative (measured 1.2e-8)
        rc = cli.main(["contract", "--n", "4", "--m", "0.05", "--gamma", "4", "--out", str(tmp_path)])
        assert rc == 0
        dist = read_json(tmp_path / "contract_summary.json")["dist_abs"]
        assert dist[0] == pytest.approx(4.481908723764728, rel=1e-7)
        assert dist[-1] == pytest.approx(1.643252098991551, rel=1e-7)

    def test_converge_from_before_t1(self, tmp_path):
        # the reference window ends inside the grid's image at t0 < 1
        rc = cli.main(["converge", "--n", "3", "--t0", "0.5", "--tau-max", "0.1",
                       "--samples", "2", "--nodes", "64", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "converge_summary.json")
        assert summary["reference_grid"]["r_out"] < 1e3 / 1.05

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile"])
        assert exc.value.code == 2

    def test_eta_inf_flag_removed(self, tmp_path, capsys):
        # every profile is built at eta_inf = 1, so there is no flag for it
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", "--n", "3", "--eta-inf", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--eta-inf" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        rc = cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                       "--config", str(tmp_path / "missing.json")])
        assert rc == 2
        record = read_json(tmp_path / "o" / "error.json")
        assert (record["command"], record["error"]) == ("weight", "ConfigError")
        assert record["message"].startswith("config file not found")
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                         "--config", str(bad)]) == 2
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                         "--config", str(lst)]) == 2
        # a directory and a file that is not UTF-8 are refused, not a traceback
        latin = tmp_path / "latin.json"
        latin.write_bytes('{"mu": 0.5, "note": "é"}'.encode("latin-1"))
        for unreadable in (tmp_path, latin):
            (tmp_path / "o" / "error.json").unlink()
            assert cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                             "--config", str(unreadable)]) == 2
            record = read_json(tmp_path / "o" / "error.json")
            assert record["error"] == "ConfigError"
            assert record["message"].startswith("config file cannot be read")
        # file values are checked against the option's type, by a command that has it
        for body, command in (({"m": "abc"}, "profile"), ({"nodes": "51"}, "weight"),
                              ({"nodes": 51.0}, "weight"), ({"nodes": True}, "weight"),
                              ({"m": None}, "profile"), ({"m": True}, "profile"),
                              ({"tol": math.inf}, "profile")):
            typed = tmp_path / "typed.json"
            typed.write_text(json.dumps(body))
            assert cli.main([command, "--n", "3", "--out", str(tmp_path / "o"),
                             "--config", str(typed)]) == 2, body
            assert "has no option" not in capsys.readouterr().err, body
        choice = tmp_path / "choice.json"
        choice.write_text(json.dumps({"case": "nosuch"}))
        assert cli.main(["converge", "--n", "3", "--out", str(tmp_path / "o"),
                         "--config", str(choice)]) == 2
        record = read_json(tmp_path / "o" / "error.json")
        assert (record["command"], record["error"]) == ("converge", "ConfigError")
        # a key outside the command's option table is refused by name: a
        # misspelt option, a removed one, or one that belongs to another command
        for body, command in (({"nodse": 3}, "weight"), ({"eta_inf": 5}, "weight"),
                              ({"n": 3}, "weight"), ({"case": "bump"}, "weight"),
                              ({"m": 0.2, "nodse": 3}, "converge")):
            unknown = tmp_path / "unknown.json"
            unknown.write_text(json.dumps(body))
            assert cli.main([command, "--n", "3", "--out", str(tmp_path / "o"),
                             "--config", str(unknown)]) == 2, body
            key = next(k for k in body if k != "m")
            assert f"has no option {key}" in capsys.readouterr().err
            assert read_json(tmp_path / "o" / "error.json")["command"] == command
        # only the failure record: no run got as far as an artifact
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["error.json"]

    @pytest.mark.parametrize("argv", [
        ["expansion", "--eta", "inf"],
        ["profile", "--tol", "inf"],
        ["profile", "--b1-margin", "inf"],
        ["evolve", "--kind", "constant", "--c0", "inf"],
    ])
    def test_non_finite_option_is_bad_input(self, argv, tmp_path, capsys):
        assert cli.main([*argv, "--n", "3", "--out", str(tmp_path)]) == 2
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--s-min=-1e300"])
    def test_oversized_grid_is_bad_input(self, flag, tmp_path):
        # a table past the node budget is refused before it is allocated,
        # where numpy raised an untyped "Maximum allowed size"
        rc = cli.main(["profile", "--n", "3", flag, "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "RangeError" and "budget" in record["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["error.json"]

    def test_numerical_failure_is_exit_3(self, tmp_path):
        rc = cli.main(["evolve", "--n", "3", "--kind", "barenblatt", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--t-end", "1.5", "--samples", "2",
                       "--newton-max", "1", "--dt-init", "0.05",
                       "--dt-min", "0.05", "--dt-max", "0.05"])
        assert rc == 3
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "NewtonDivergence"
        assert record["exit_code"] == 3

    def test_tail_weight_overflow_is_exit_3(self, tmp_path):
        # at m = 10% of (n-2)/n (C2 = 27) b1_margin = 200 puts b1 at 31: the
        # D_b1 weight e^(C2 s) leaves the double range on the tail, refused
        # before any array is made instead of passing the membership check
        # as inf * 0 = nan and ending in an invariant error
        rc = cli.main(["expansion", "--n", "3", "--m", "0.03333333", "--gamma", "16.03",
                       "--b1-margin", "200", "--out", str(tmp_path)])
        assert rc == 3
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "ResolutionError"
        assert record["message"].startswith("D_b1 weight e^(C2 s) overflows on the tail grid")
        assert record["exit_code"] == 3
        assert not (tmp_path / "expansion_summary.json").exists()

    def test_b1_past_the_float_range_is_bad_input(self, tmp_path):
        # a finite b1_margin of 1e308 puts b1 = b0 (1 + b1_margin) at inf at
        # the reference point; it ended in a ResolutionError on the tail
        # grid [inf, inf]
        rc = cli.main(["expansion", "--n", "3", "--b1-margin", "1e308", "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["exit_code"]) == ("RangeError", 2)
        assert "past the float range" in record["message"]
        assert not (tmp_path / "expansion_summary.json").exists()

    def test_small_m_default_tail_runs(self, tmp_path):
        # the default tail at the same point ends at b1 + 40/C2 = 1.64,
        # where every D_b1 weight is finite, and the table reads the
        # analytic tail past it
        rc = cli.main(["expansion", "--n", "3", "--m", "0.03333333", "--gamma", "16.03",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "expansion_summary.json").exists()
        assert not (tmp_path / "error.json").exists()

    def test_tail_past_e_c1s_overflow_runs(self):
        # at (8, 0.74625, 7.88257), gamma at 0.5% of its window, the default
        # tail ends at s_T = 0.158 with C1 = 4955, so C1 s_T = 781 is past
        # the double range while C2 s_T = 0.0063 is not: the tail iterates
        # W = log wt and reads D_b1 through e^(W + C1 s), so no e^(C1 s) is
        # formed to overflow.  The continuation fails there on its own
        # account (the origin match), so the tail is what is tested
        params = fastdiff.derive_params(8, 0.74625, 7.88257)
        tail = fastdiff.picard_solve(fastdiff.derive_fp_constants(params))
        assert params.C1 * float(tail.grid[-1]) > math.log(sys.float_info.max)
        assert np.all(np.isfinite(tail.W)) and np.all(np.isfinite(tail.h))
        assert 0.0 <= tail.fp_residual <= 1e-10

    def test_b1_past_its_own_tail_length_is_exit_3(self, tmp_path):
        # at b1_margin = 1e17, b1 + 40/C2 rounds to b1 and the tail grid
        # would have no step: refused with the D_b1 weight error that
        # margins 1e2 to 1e16 give, not a ZeroDivisionError
        rc = cli.main(["profile", "--n", "3", "--b1-margin", "1e17", "--out", str(tmp_path)])
        assert rc == 3
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["exit_code"]) == ("ResolutionError", 3)

    def test_m_whose_c2_squared_overflows_is_bad_input(self, tmp_path):
        # m = 1e-300 puts C2 near 1e300, whose square derive_fp_constants
        # takes: refused before it, not an OverflowError traceback
        rc = cli.main(["profile", "--n", "3", "--m", "1e-300", "--gamma", "3",
                       "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["exit_code"]) == ("RangeError", 2)

    @pytest.mark.parametrize("flag", ["--bb-k", "--bb-t"])
    def test_overflowing_barenblatt_is_bad_input(self, flag, tmp_path):
        # k^2 or (T - t)^alpha1 past the float range in the closed form, as
        # self_similar_solution refuses its t^(-alpha)
        rc = cli.main(["evolve", "--n", "3", "--kind", "barenblatt", flag, "1e200",
                       "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["exit_code"]) == ("RangeError", 2)

    def test_invariant_violation_is_exit_4(self, tmp_path):
        # bump amplitude 0.5 leaves the declared envelope a2 = 1.1
        rc = cli.main(["converge", "--n", "3", "--case", "bump", "--out", str(tmp_path),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--tau-max", "0.5", "--samples", "3",
                       "--amp", "0.5", "--a2", "1.1"])
        assert rc == 4
        record = read_json(tmp_path / "error.json")
        assert record["error"] == "SandwichViolationError"
        assert record["exit_code"] == 4

    def test_negative_seed_is_bad_input(self, tmp_path, monkeypatch):
        # numpy refuses a negative seed with a ValueError traceback; fdx
        # refuses it before the profile is built and writes only error.json
        def no_profile(*args, **kwargs):
            raise AssertionError("profile built for a refused seed")

        monkeypatch.setattr(cli, "solve_for_eta", no_profile)
        rc = cli.main(["contract", "--n", "3", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        record = read_json(tmp_path / "error.json")
        assert (record["error"], record["exit_code"]) == ("ConfigError", 2)
        assert record["message"] == "seed must be a non-negative integer, got -1"
        assert [p.name for p in tmp_path.iterdir()] == ["error.json"]

    def test_stale_error_record_removed_on_success(self, tmp_path):
        assert cli.main(["profile", "--n", "3", "--m", "0.9", "--out", str(tmp_path)]) == 2
        assert (tmp_path / "error.json").exists()
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path), "--nodes", "31"]) == 0
        assert not (tmp_path / "error.json").exists()
        assert (tmp_path / "weight_summary.json").exists()


def help_flags(command, capsys):
    """The flags that `fdx <command> --help` lists."""
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return set(re.findall(r"^\s+(--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE))


PROFILE_MODEL_FLAGS = {"--m", "--gamma", "--eta", "--b1-margin", "--tol"}


class TestCommandScope:
    """Each command takes only the options it reads and builds only what it uses:
    the profile commands no weight, the weight command no ParamSet."""

    def test_profile_commands_build_no_weight(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "build_weight", lambda *a, **k: pytest.fail("weight built"))
        for command in ("profile", "expansion"):
            assert cli.main([command, "--n", "3", "--out", str(tmp_path)]) == 0
            manifest = read_json(tmp_path / f"{command}_manifest.json")
            assert not {"mu", "a4", "a5"} & set(manifest["derived"])
            assert "mu" not in manifest["config"]

    def test_weight_derives_no_params(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "derive_params", lambda *a, **k: pytest.fail("params derived"))
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path), "--nodes", "31"]) == 0
        config = read_json(tmp_path / "weight_manifest.json")["config"]
        assert set(config) == {"n", "mu", "r_lo", "r_hi", "nodes", "out"}

    @pytest.mark.parametrize("command", ["profile", "expansion"])
    def test_profile_commands_take_no_mu(self, command, capsys):
        flags = help_flags(command, capsys)
        assert "--mu" not in flags
        assert PROFILE_MODEL_FLAGS <= flags

    @pytest.mark.parametrize("command", ["profile", "expansion", "weight", "evolve", "contract",
                                         "converge"])
    def test_no_command_takes_rho1(self, command, tmp_path, capsys):
        # every rho1 profile is a rescaled rho1 = 1 profile, which --eta spans
        assert "--rho1" not in help_flags(command, capsys)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--n", "3", "--rho1", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho1": 2.0}))
        assert cli.main([command, "--n", "3", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
        assert f"config file: {command} has no option rho1" in capsys.readouterr().err

    def test_converge_takes_no_eta(self, tmp_path, capsys):
        # converge rescales the profile to a0, a1 and a2, so eta would move
        # only the frame its lambdas are reported in: it builds the eta = 1
        # profile and refuses the flag and the config key
        flags = help_flags("converge", capsys)
        assert "--eta" not in flags
        assert PROFILE_MODEL_FLAGS - {"--eta"} <= flags
        with pytest.raises(SystemExit) as exc:
            cli.main(["converge", "--n", "3", "--eta", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 2.0}))
        assert cli.main(["converge", "--n", "3", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config file: converge has no option eta" in capsys.readouterr().err

    def test_weight_takes_no_profile_model(self, capsys):
        flags = help_flags("weight", capsys)
        assert not PROFILE_MODEL_FLAGS & flags
        assert "--mu" in flags


class TestConfigResolution:
    def test_env_overrides_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_dir"
        flag_dir = tmp_path / "flag_dir"
        monkeypatch.setenv("FDX_OUT", str(env_dir))
        assert cli.main(["weight", "--n", "3", "--out", str(flag_dir), "--nodes", "31"]) == 0
        assert (env_dir / "weight_summary.json").exists()
        assert not flag_dir.exists()

    def test_config_file_fills_and_flag_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": 51, "r_lo": 0.5, "mu": 0.7}))
        out = tmp_path / "o"
        rc = cli.main(["weight", "--n", "3", "--out", str(out),
                       "--config", str(cfg), "--nodes", "21"])
        assert rc == 0
        manifest = read_json(out / "weight_manifest.json")
        assert manifest["config"]["nodes"] == 21     # flag beats file
        assert manifest["config"]["r_lo"] == 0.5     # file beats default
        assert manifest["config"]["mu"] == 0.7
        _, rows = csv_rows(out / "weight.csv")
        assert len(rows) == 21

    def test_config_file_choice_reaches_the_run(self, tmp_path, capsys):
        # a choice option's file value is taken as it stands
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "barenblatt"}))
        out = tmp_path / "o"
        assert cli.main(["evolve", "--n", "3", "--out", str(out), "--nodes", "16",
                         "--t-end", "1.1", "--samples", "2", "--config", str(cfg)]) == 0
        assert read_json(out / "evolve_manifest.json")["config"]["kind"] == "barenblatt"
        assert read_json(out / "evolve_summary.json")["kind"] == "barenblatt"
        # a nullable option's refusal names null among the values it takes
        cfg.write_text(json.dumps({"mu": "x"}))
        assert cli.main(["weight", "--n", "3", "--out", str(out), "--config", str(cfg)]) == 2
        assert "config file: mu must be a number or null, got 'x'" in capsys.readouterr().err
        assert read_json(out / "error.json")["error"] == "ConfigError"

    def test_config_file_reaches_evolve_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt_rel_max": 2e-3, "mu": None}))
        out = tmp_path / "o"
        rc = cli.main(["converge", "--n", "3", "--case", "bump", "--out", str(out),
                       "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                       "--tau-max", "0.5", "--samples", "3", "--config", str(cfg)])
        assert rc == 0
        manifest = read_json(out / "converge_manifest.json")
        assert manifest["evolve_config"]["dt_rel_max"] == 2e-3
        assert manifest["config"]["dt_rel_max"] == 2e-3
        assert manifest["config"]["mu"] == 0.5      # null keeps the default
        # null lifts converge's dt_rel_max cap, as EvolveConfig allows
        cfg.write_text(json.dumps({"dt_rel_max": None}))
        assert cli.main(["converge", "--n", "3", "--case", "bump", "--out", str(out),
                         "--nodes", "96", "--r-in", "0.01", "--r-out", "100",
                         "--tau-max", "0.5", "--samples", "3", "--config", str(cfg)]) == 0
        manifest = read_json(out / "converge_manifest.json")
        assert manifest["evolve_config"]["dt_rel_max"] is None

    @pytest.mark.parametrize("command", ["evolve", "contract", "converge"])
    def test_every_evolve_config_field_is_a_flag(self, command, capsys):
        # a stepping control no flag reaches accepts only its default
        flags = help_flags(command, capsys)
        for f in dataclasses.fields(fastdiff.EvolveConfig):
            assert "--" + f.name.replace("_", "-") in flags

    def test_option_defaults_are_the_library_defaults(self):
        # one place for each default: an option's default is the default of
        # the library parameter it feeds, in every command that takes it
        library = library_defaults()
        seen = set()
        for name, command in cli._COMMANDS.items():
            for key in library.keys() & command.options.keys():
                assert command.options[key].default == library[key], (name, key)
                seen.add(key)
        assert seen == set(library)

    def test_option_defaults_follow_the_library_signatures(self):
        # the defaults are read off the signatures, not copied: other library
        # defaults reach the options when cli is loaded again
        other = {fastdiff.solve_for_eta: (2e-12, 0.07, None),
                 fastdiff.power_bump_initial: (0.2, -1.0, 3.0),
                 fastdiff.random_sandwiched_pair: ((1.3, 0.7), 0.2),
                 fastdiff.convergence_experiment: (2.0,)}
        saved = {f: f.__defaults__ for f in other}
        try:
            for f, defaults in other.items():
                f.__defaults__ = defaults
            importlib.reload(cli)
            library = library_defaults()
            for command in cli._COMMANDS.values():
                for key in library.keys() & command.options.keys():
                    assert command.options[key].default == library[key], key
        finally:
            for f, defaults in saved.items():
                f.__defaults__ = defaults
            importlib.reload(cli)


def library_defaults():
    """The library default of each fdx option that feeds one parameter."""
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    lam_pair = default(fastdiff.random_sandwiched_pair, "lam_pair")
    return {
        "amp": default(fastdiff.power_bump_initial, "amp"),
        "center": default(fastdiff.power_bump_initial, "center"),
        "width": default(fastdiff.power_bump_initial, "width"),
        "lam_a": lam_pair[0],
        "lam_b": lam_pair[1],
        "theta_amp": default(fastdiff.random_sandwiched_pair, "theta_amp"),
        "tol": default(fastdiff.solve_for_eta, "tol"),
        "b1_margin": default(fastdiff.solve_for_eta, "b1_margin"),
        "t0": default(fastdiff.convergence_experiment, "t0"),
    }


FDX_SUBCOMMANDS = {"profile", "expansion", "weight", "evolve", "contract", "converge"}


def fdx_script_spec():
    """The `module:attr` that pyproject.toml declares as the `fdx` console script."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["fdx"]


def assert_fdx_help(cmd, env=None):
    """Run `cmd --help` and check that it is the fdx parser with every subcommand."""
    proc = subprocess.run([*cmd, "--help"], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fdx")
    # argparse lists the subcommands as one {a,b,...} group in the usage line;
    # matching that group keeps "contract" from matching "weighted-contraction".
    choices = re.search(r"\{([\w,-]+)\}", proc.stdout)
    assert choices is not None, proc.stdout
    assert FDX_SUBCOMMANDS <= set(choices.group(1).split(","))


class TestEntryPoint:
    def test_console_script_installed(self):
        """The declared `fdx` script resolves to a callable that serves --help,
        run the way an installed console-script wrapper runs it."""
        module, attr = fdx_script_spec().split(":")
        assert callable(getattr(importlib.import_module(module), attr))
        # The child imports the same fastdiff as this suite, wherever it came from.
        pkg_root = str(Path(fastdiff.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        assert_fdx_help([sys.executable, "-c", wrapper], env=env)

    @pytest.mark.skipif(shutil.which("fdx") is None, reason="fdx console script not on PATH")
    def test_fdx_on_path_runs_help(self):
        assert_fdx_help([shutil.which("fdx")])


class TestParserReuse:
    # main parses with one parser per process: a run must not inherit the
    # flags, choices or store_true switches of the run before it
    RUNS = [
        ["weight", "--n", "3", "--nodes", "31", "--mu", "0.7", "--r-lo", "0.2"],
        ["weight", "--n", "3", "--nodes", "21"],
        ["evolve", "--n", "3", "--kind", "barenblatt", "--nodes", "16", "--no-csv"],
        ["evolve", "--n", "3", "--kind", "constant", "--nodes", "16", "--samples", "3"],
        ["weight", "--n", "5", "--nodes", "31", "--no-json"],
    ]

    @staticmethod
    def artifacts(out):
        files = {}
        for path in sorted(out.iterdir()):
            if path.name.endswith("_manifest.json"):
                manifest = read_json(path)
                manifest["config"].pop("out")
                files[path.name] = manifest
            else:
                files[path.name] = path.read_bytes()
        return files

    def test_consecutive_calls_match_separate_calls(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        for i, argv in enumerate(self.RUNS):
            assert cli.main([*argv, "--out", str(tmp_path / f"seq{i}")]) == 0
        for i, argv in enumerate(self.RUNS):
            cli.build_parser.cache_clear()
            assert cli.main([*argv, "--out", str(tmp_path / f"own{i}")]) == 0
            assert self.artifacts(tmp_path / f"seq{i}") == self.artifacts(tmp_path / f"own{i}")

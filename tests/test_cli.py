"""End-to-end tests of the fdx command line: artifact layout, config file
precedence, determinism, and the exit-code contract (0 success, 2 config,
3 numerical failure, 4 invariant violation)."""

import dataclasses
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

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
    QuadratureError,
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
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path), "--nodes", "31"]) == 0
        derived = read_json(tmp_path / "weight_manifest.json")["derived"]
        for key in ("alpha", "beta", "alpha_p", "beta_p", "gamma_in_convergence_range",
                    "C1", "C2", "C3", "C4", "C5", "eps1", "b0", "b1",
                    "a1", "a2", "a3", "a4", "a5", "mu"):
            assert key in derived, key
        assert derived["alpha"] == pytest.approx(-10.0 / 3.0, rel=1e-14)
        assert derived["beta"] == pytest.approx(-5.0 / 6.0, rel=1e-14)
        assert derived["C1"] == 1.0
        assert derived["C2"] == 2.0
        assert derived["gamma_in_convergence_range"] is True
        assert derived["a4"] == pytest.approx(A4_REF, rel=1e-12)

    def test_higher_dimension(self, tmp_path):
        # the weight every command builds must exist beyond n = 3
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
        assert header == ["s", "r", "h", "wt", "f", "rfr_over_f"]
        assert len(rows) > 1000
        summary = read_json(tmp_path / "profile_summary.json")
        assert summary["eta_origin"] == pytest.approx(1.0, rel=1e-8)
        assert summary["fp_residual"] <= 1e-10
        assert summary["far_field_gap"] <= 1e-8
        assert summary["ode_residual_max"] <= 1e-5
        assert summary["iterations"] <= 10
        s_lo, s_hi = summary["s_range"]
        assert s_lo < 0 < s_hi


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
        assert summary["series"]["monotone"] is True


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


class TestExitCodes:
    def test_mapping_table(self):
        expected = {
            ConfigError: 2, RangeError: 2, DegenerateError: 2, GridMismatchError: 2,
            QuadratureError: 3, StiffnessError: 3, BlowUpError: 3, ToleranceError: 3,
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

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile"])
        assert exc.value.code == 2

    def test_bad_config_file(self, tmp_path):
        rc = cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                       "--config", str(tmp_path / "missing.json")])
        assert rc == 2
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                         "--config", str(bad)]) == 2
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                         "--config", str(lst)]) == 2
        # file values are checked against the option's type
        for body in ({"m": "abc"}, {"nodes": "51"}, {"nodes": 51.0}, {"nodes": True},
                     {"m": None}, {"m": True}):
            typed = tmp_path / "typed.json"
            typed.write_text(json.dumps(body))
            assert cli.main(["weight", "--n", "3", "--out", str(tmp_path / "o"),
                             "--config", str(typed)]) == 2, body
        choice = tmp_path / "choice.json"
        choice.write_text(json.dumps({"case": "nosuch"}))
        assert cli.main(["converge", "--n", "3", "--out", str(tmp_path / "o"),
                         "--config", str(choice)]) == 2
        assert not (tmp_path / "o").exists()

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

    def test_stale_error_record_removed_on_success(self, tmp_path):
        assert cli.main(["profile", "--n", "3", "--m", "0.9", "--out", str(tmp_path)]) == 2
        assert (tmp_path / "error.json").exists()
        assert cli.main(["weight", "--n", "3", "--out", str(tmp_path), "--nodes", "31"]) == 0
        assert not (tmp_path / "error.json").exists()
        assert (tmp_path / "weight_summary.json").exists()


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
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        flags = set(re.findall(r"^\s+(--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE))
        for f in dataclasses.fields(fastdiff.EvolveConfig):
            assert "--" + f.name.replace("_", "-") in flags


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

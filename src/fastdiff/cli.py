"""Command-line entry point: wires parameter flags to the library modules and
emits machine-readable CSV/JSON artifacts.

Layout of a run: every subcommand resolves its configuration (flags override
an optional --config JSON file, which overrides built-in defaults), computes
everything in memory, and only then writes artifacts, so a failed run leaves
no partial outputs - just error.json with the failure record.  Each option is
declared once, in the tables below; they generate the flags, the defaults,
the manifest's config block and the EvolveConfig, and a command's table
decides what its run builds: a ParamSet if it has m, the weight phi_mu if it
has mu.  A float option must be finite.  Exit codes come from the exception
classes: 0 success, 2 bad input, 3 numerical failures, 4 violated
mathematical invariants.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .asymptotics import (
    expansion_check,
    f_ode_residual,
    inversion_report,
    wbar_ode_residual,
)
from .errors import ConfigError, FastDiffError, RangeError
from .params import ParamSet, derive_fp_constants, derive_params
from .pde import (
    EvolveConfig,
    RadialField,
    barenblatt,
    contraction_experiment,
    convergence_experiment,
    evolve,
    log_grid,
    power_bump_initial,
    random_sandwiched_pair,
    sample_solution,
    self_similar_solution,
    sup_compact,
)
from .profile import solve_for_eta
from .weight import BumpSpec, WeightFunction, build_weight, eval_weight, weighted_grid


class Opt(NamedTuple):
    """One option: its type (or tuple of choices), its default and its help.
    The flag is --name with "_" -> "-".  A nullable option also takes null
    from a --config file, for the None its consumer accepts."""

    type: object
    default: object
    help: Optional[str]
    nullable: bool = False


def _default(func: Callable, name: str):
    """The default of func's parameter name, so a flag and its library
    function share one value."""
    return inspect.signature(func).parameters[name].default


_PROFILE_MODEL = {
    "m": Opt(float, 0.2, "diffusion exponent, 0 < m < (n-2)/n"),
    "gamma": Opt(float, 4.0, "singularity strength, 2/(1-m) < gamma < (n-2)/m"),
    "eta": Opt(float, 1.0, "target origin coefficient lim r^gamma f"),
    "b1_margin": Opt(float, _default(solve_for_eta, "b1_margin"), "relative safety margin above b0"),
    "tol": Opt(float, _default(solve_for_eta, "tol"), "master tolerance for the solvers"),
}
_WEIGHT = {
    "mu": Opt(float, None, "weight decay exponent, 0 < mu < n-2 (default (n-2)/2)",
              nullable=True),
}
_OUT = {"out": Opt(str, "out", "output directory (env FDX_OUT overrides)")}
_S_MIN = {"s_min": Opt(float, None, "left end of the log-radius range", nullable=True)}
_STEPPING = {
    "dt_init": Opt(float, EvolveConfig.dt_init, "initial time step"),
    "dt_max": Opt(float, EvolveConfig.dt_max, "largest allowed time step"),
    "dt_min": Opt(float, EvolveConfig.dt_min, "smallest allowed time step before aborting"),
    "dt_rel_max": Opt(float, EvolveConfig.dt_rel_max, "cap dt at this fraction of the current time",
                      nullable=True),
    "newton_tol": Opt(float, EvolveConfig.newton_tol, "relative tolerance of the inner Newton solve"),
    "newton_max": Opt(int, EvolveConfig.newton_max, "inner iteration cap"),
    "r_in": Opt(float, 1e-3, "inner truncation radius"),
    "r_out": Opt(float, 1e3, "outer truncation radius"),
    "nodes": Opt(int, 512, "grid nodes (log-uniform)"),
    "t0": Opt(float, _default(convergence_experiment, "t0"), "initial time"),
}
_BUMP = {
    "a0": Opt(float, 1.0, "power-law amplitude"),
    "amp": Opt(float, _default(power_bump_initial, "amp"), "bump amplitude"),
    "center": Opt(float, _default(power_bump_initial, "center"), "bump center in log r"),
    "width": Opt(float, _default(power_bump_initial, "width"), "bump half-width in log r"),
}
_EVOLVE_FIELDS = {f.name for f in fields(EvolveConfig)}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string"}


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _csv_text(columns, rows, preamble: Optional[str] = None) -> str:
    lines = [] if preamble is None else [preamble]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def _derived_block(o: dict, params: Optional[ParamSet],
                   weight: Optional[WeightFunction]) -> dict:
    """The constants of what the run built: of the ParamSet, if derived, and
    of the weight, if built."""
    derived = {}
    if params is not None:
        # the constants of the build itself: solve_for_eta builds at eta_inf = 1
        fp = derive_fp_constants(params, b1_margin=o["b1_margin"])
        derived.update({f.name: getattr(params, f.name) for f in fields(params)
                        if f.name not in ("n", "m", "gamma")})
        derived["C1"] = params.C1
        derived.update({f.name: getattr(fp, f.name) for f in fields(fp) if f.name != "params"})
    if weight is not None:
        derived.update({"a4": weight.a4, "a5": weight.a5, "mu": o["mu"]})
    return derived


def _build_profile(o: dict, params: ParamSet):
    return solve_for_eta(
        params,
        target_eta=o.get("eta", 1.0),       # converge takes no eta
        tol=o["tol"],
        b1_margin=o["b1_margin"],
        s_min=o.get("s_min"),
    )


def _cmd_profile(o: dict, params: ParamSet, weight: None):
    prof = _build_profile(o, params)
    s, W = prof.s_grid, prof.W
    log_f = -params.gamma * s + W
    with np.errstate(over="ignore"):        # f past the double range reads inf
        f = np.exp(log_f)
    rows = zip(s, np.exp(s), prof.h, np.exp(W), f, log_f, prof.rfr_over_f)
    summary = {
        "eta_origin": prof.eta_origin,
        "eta_inf": prof.eta_inf,
        "fp_residual": prof.fp_residual,
        "ode_residual_max": f_ode_residual(prof),
        "iterations": prof.picard_iterations,
        "s_range": [float(prof.s_grid[0]), float(prof.s_grid[-1])],
    }
    return {
        "profile.csv": _csv_text(["s", "r", "h", "wt", "f", "log_f", "rfr_over_f"], rows),
        "profile_summary.json": _json_text(summary),
    }, {}


def _cmd_expansion(o: dict, params: ParamSet, weight: None):
    prof = _build_profile(o, params)
    report = expansion_check(prof)
    inv = inversion_report(prof)
    summary = {
        "expansion": asdict(report),
        "inversion": asdict(inv),
        "residual_max": {
            "f_equation": f_ode_residual(prof),
            "wbar_equation": wbar_ode_residual(prof),
            "inversion_equation": inv.residual,
        },
    }
    return {"expansion_summary.json": _json_text(summary)}, {}


def _cmd_weight(o: dict, params: None, weight: WeightFunction):
    r = log_grid(o["r_lo"], o["r_hi"], o["nodes"])
    phi, dphi = eval_weight(weight, r)
    preamble = f"# a4={weight.a4:.17g} a5={weight.a5:.17g} mu={o['mu']:.17g} n={o['n']}"
    summary = {"a4": weight.a4, "a5": weight.a5, "R0": weight.R0, "mu": o["mu"], "n": o["n"]}
    return {
        "weight.csv": _csv_text(["r", "phi", "dphi"], zip(r, phi, dphi), preamble=preamble),
        "weight_summary.json": _json_text(summary),
    }, {}


def _grid_block(grid: np.ndarray) -> dict:
    return {
        "r_in": float(grid[0]),
        "r_out": float(grid[-1]),
        "nodes": int(grid.size),
        "dx": float(np.log(grid[1] / grid[0])),
    }


def _stepping(o: dict):
    """EvolveConfig and grid of a stepping command, and their manifest block."""
    if not o["t0"] > 0:  # the sample times are read off log(t0)
        raise RangeError(f"t0 must be positive, got {o['t0']}")
    cfg = EvolveConfig(**{k: v for k, v in o.items() if k in _EVOLVE_FIELDS})
    grid = log_grid(o["r_in"], o["r_out"], o["nodes"])
    return cfg, grid, {"evolve_config": asdict(cfg), "grid": _grid_block(grid)}


def _log_spaced_times(o: dict) -> np.ndarray:
    """Sample times of evolve and contract: `samples` log-spaced ones from t0 to t_end."""
    t0, t_end = o["t0"], o["t_end"]
    if not t_end > t0:
        raise RangeError(f"t_end must exceed t0, got {t_end} <= {t0}")
    if not o["samples"] >= 2:
        # a single sample is t0 itself: no step would reach t_end
        raise ConfigError("need a sequence of at least 2 finite sample time(s)")
    return np.exp(np.linspace(math.log(t0), math.log(t_end), o["samples"]))


def _cmd_evolve(o: dict, params: ParamSet, weight: WeightFunction):
    cfg, grid, manifest = _stepping(o)
    kind, t0, t_end = o["kind"], o["t0"], o["t_end"]
    times = _log_spaced_times(o)

    exact = None  # the solution V(r, t) the run is compared with
    if kind == "self-similar":
        exact = self_similar_solution(_build_profile(o, params), o["lam"])
    elif kind == "barenblatt":
        exact = barenblatt(o["n"], o["m"], o["bb_k"], o["bb_t"])
        if not t_end < o["bb_t"]:
            raise RangeError(f"t_end must stay below the extinction time {o['bb_t']}")
    elif kind == "constant":
        c0 = o["c0"]
        exact = lambda r, t: np.full(np.shape(r), c0)
    if exact is not None:
        field = sample_solution(exact, t0, grid, params)
    else:  # power-bump: no exact solution, traces frozen at the datum
        vals = power_bump_initial(params, o["a0"], o["amp"], o["center"], o["width"])(grid)
        left, right = float(vals[0]), float(vals[-1])
        field = RadialField(grid, vals, t0, bc=(lambda t: left, lambda t: right), params=params)

    snapshots = evolve(field, cfg, times)
    wgrid = None if exact is None else weighted_grid(weight, grid)
    rows = []
    for snap in snapshots:
        if exact is not None:
            ref = np.asarray(exact(grid, snap.t), dtype=float)
            d_l1 = wgrid.distance(snap.u, ref)
            d_sup = sup_compact(grid, snap.u, ref)
        else:
            d_l1 = d_sup = math.nan
        rows.append((snap.t, math.log(snap.t), d_l1, d_sup))

    final = snapshots[-1]
    summary = {
        "kind": kind,
        "t_end": final.t,
        "stats": asdict(final.stats),
        "dist_final_l1w": rows[-1][2],
        "dist_final_sup_compact": rows[-1][3],
    }
    return {
        "evolve.csv": _csv_text(["t", "tau", "dist_L1w", "dist_sup_compact"], rows),
        "evolve_field.csv": _csv_text(["r", "u"], zip(grid, final.u)),
        "evolve_summary.json": _json_text(summary),
    }, manifest


def _cmd_contract(o: dict, params: ParamSet, weight: WeightFunction):
    if o["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {o['seed']}")
    cfg, grid, manifest = _stepping(o)
    times = _log_spaced_times(o)
    prof = _build_profile(o, params)
    rng = np.random.default_rng(o["seed"])
    u0, v0, sandwich = random_sandwiched_pair(
        prof, grid, o["t0"], rng,
        lam_pair=(o["lam_a"], o["lam_b"]),
        theta_amp=o["theta_amp"],
    )
    result = contraction_experiment(u0, v0, weight, times, cfg, sandwich=sandwich)

    slack = 1e-6 * (1.0 + result.dist_abs[0])
    rows = zip(result.times, result.tau, result.dist_abs, result.dist_sup_compact)
    summary = {
        "dist_abs": result.dist_abs,
        "dist_pos": result.dist_pos,
        "dist_sup_compact": result.dist_sup_compact,
        "monotone_abs": bool(np.all(np.diff(result.dist_abs) <= slack)),
        "monotone_pos": bool(np.all(np.diff(result.dist_pos) <= slack)),
        "slack": slack,
        "stats_u": asdict(result.u_final.stats),
        "stats_v": asdict(result.v_final.stats),
    }
    return {
        "contract.csv": _csv_text(["t", "tau", "dist_L1w", "dist_sup_compact"], rows),
        "contract_summary.json": _json_text(summary),
    }, manifest


def _cmd_converge(o: dict, params: ParamSet, weight: WeightFunction):
    cfg, grid, manifest = _stepping(o)
    if not o["tau_max"] > 0:
        raise RangeError(f"tau_max must be positive, got {o['tau_max']}")
    prof = _build_profile(o, params)
    u0_spec = None
    if o["case"] == "bump":
        u0_spec = power_bump_initial(params, o["a0"], o["amp"], o["center"], o["width"])
    tau_grid = np.linspace(math.log(o["t0"]), math.log(o["t0"]) + o["tau_max"], o["samples"])
    result = convergence_experiment(
        prof, o["a0"], o["a1"], o["a2"], u0_spec, tau_grid, cfg,
        weight=weight, r_grid=grid, t0=o["t0"],
    )
    rows = zip(result.t_grid, result.tau_grid, result.dist_l1w, result.dist_sup_compact)
    # the orbit starts on the limit: its tau=0 distance is interpolation noise
    ratio = None
    if o["case"] == "bump" and result.dist_l1w[0] > 0:
        ratio = float(result.dist_l1w[-1] / result.dist_l1w[0])
    summary = {
        "case": o["case"],
        "lam0": result.lam0,
        "lam1": result.lam1,
        "lam2": result.lam2,
        "norm_ref": result.norm_ref,
        "u0_l1_gap": result.u0_l1_gap,
        "dist_l1w": result.dist_l1w,
        "dist_rel_l1w": result.dist_l1w / result.norm_ref,
        "dist_sup_compact": result.dist_sup_compact,
        "final_over_initial": ratio,
        "stats": asdict(result.field_final.stats),
        "reference_grid": _grid_block(result.y_grid),
    }
    return {
        "converge.csv": _csv_text(["t", "tau", "dist_L1w", "dist_sup_compact"], rows),
        "converge_summary.json": _json_text(summary),
    }, manifest


class Command(NamedTuple):
    compute: Callable  # (opts, params, weight); params/weight None unless options has m/mu
    help: str
    options: dict      # every option of the command except --out, in flag order


_COMMANDS = {
    "profile": Command(_cmd_profile, "construct the singular profile f",
                       {**_PROFILE_MODEL, **_S_MIN}),
    "expansion": Command(_cmd_expansion, "origin/far-field expansion and inversion checks",
                         {**_PROFILE_MODEL, **_S_MIN}),
    "weight": Command(_cmd_weight, "superharmonic weight phi_mu", {
        **_WEIGHT,
        "r_lo": Opt(float, 0.1, "smallest tabulated radius"),
        "r_hi": Opt(float, 100.0, "largest tabulated radius"),
        "nodes": _STEPPING["nodes"]._replace(default=401),
    }),
    "evolve": Command(_cmd_evolve, "advance one radial field and compare to exact solutions", {
        **_PROFILE_MODEL, **_WEIGHT, **_STEPPING,
        "kind": Opt(("self-similar", "barenblatt", "constant", "power-bump"), "self-similar", None),
        "t_end": Opt(float, 2.0, "final time"),
        "samples": Opt(int, 9, "number of sampled times"),
        "lam": Opt(float, 1.0, "scaling parameter of the self-similar datum"),
        "bb_k": Opt(float, 1.0, "Barenblatt core width"),
        "bb_t": Opt(float, 8.0, "Barenblatt extinction time"),
        "c0": Opt(float, 1.0, "constant datum value"),
        **_BUMP,
    }),
    "contract": Command(_cmd_contract, "weighted-L1 contraction of a sandwiched pair", {
        **_PROFILE_MODEL, **_WEIGHT, **_STEPPING,
        "t_end": Opt(float, 3.0, "final time"),
        "samples": Opt(int, 12, "number of sampled times"),
        "lam_a": Opt(float, _default(random_sandwiched_pair, "lam_pair")[0], "first envelope scaling"),
        "lam_b": Opt(float, _default(random_sandwiched_pair, "lam_pair")[1], "second envelope scaling"),
        "theta_amp": Opt(float, _default(random_sandwiched_pair, "theta_amp"),
                         "amplitude of the random interpolation field"),
        "seed": Opt(int, 0, "random seed"),
    }),
    # converge rescales the profile to a0, a1 and a2 itself, so an eta
    # would move only the frame its lambdas are reported in
    "converge": Command(_cmd_converge, "large-time convergence of rescaled solutions", {
        **{k: v for k, v in _PROFILE_MODEL.items() if k != "eta"}, **_WEIGHT, **_STEPPING,
        "dt_rel_max": _STEPPING["dt_rel_max"]._replace(default=2.5e-4),
        "nodes": _STEPPING["nodes"]._replace(default=640),
        "case": Opt(("orbit", "bump"), "orbit", None),
        "tau_max": Opt(float, 3.0, "length of the log-time horizon"),
        "samples": Opt(int, 16, "number of sampled log-times"),
        "a1": Opt(float, 1.0, "lower envelope amplitude"),
        "a2": Opt(float, 1.2, "upper envelope amplitude"),
        **_BUMP,
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fdx parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fdx",
        description="Singular self-similar profiles of the fast diffusion equation and "
        "weighted-contraction experiments for the associated radial flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=str, help="JSON file with default values for any flag")
        p.add_argument("--n", type=int, required=True, help="space dimension (integer >= 3)")
        for key, opt in {**command.options, **_OUT}.items():
            choices = opt.type if isinstance(opt.type, tuple) else None
            p.add_argument("--" + key.replace("_", "-"), type=str if choices else opt.type,
                           choices=choices, help=opt.help)
        p.add_argument("--no-csv", action="store_true", help="skip CSV artifacts")
        p.add_argument("--no-json", action="store_true",
                       help="skip JSON summaries (manifest is always written)")
    return parser


def _read_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    path = Path(path)
    try:
        file_cfg = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return file_cfg


def _from_file(key: str, opt: Opt, value):
    """A --config value checked against its option's type and coerced to it."""
    if value is None and opt.nullable:
        return None
    if isinstance(opt.type, tuple):
        if value in opt.type:
            return value
        expected = "one of " + ", ".join(opt.type)
    else:
        accepted = (int, float) if opt.type is float else opt.type
        if isinstance(value, accepted) and not isinstance(value, bool):
            return opt.type(value)
        expected = _TYPE_NAMES[opt.type]
    if opt.nullable:
        expected += " or null"
    raise ConfigError(f"config file: {key} must be {expected}, got {value!r}")


def _resolve(args: argparse.Namespace) -> dict:
    """Every option of the command: its flag, else its --config value, else its default."""
    file_cfg = _read_config(args.config)
    table = {**_COMMANDS[args.command].options, **_OUT}
    unknown = sorted(set(file_cfg) - set(table))
    if unknown:
        raise ConfigError(f"config file: {args.command} has no option {', '.join(unknown)}")
    opts = {"n": args.n}
    for key, opt in table.items():
        if getattr(args, key) is not None:
            value = getattr(args, key)
        elif key in file_cfg:
            value = _from_file(key, opt, file_cfg[key])
        else:
            value = opt.default
        # argparse and JSON both read inf and nan as floats
        if opt.type is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value}")
        opts[key] = value
    if "mu" in opts and opts["mu"] is None:
        opts["mu"] = (args.n - 2) / 2.0
    opts["out"] = _out_dir(opts["out"])
    return opts


def _out_dir(out: str) -> str:
    return os.environ.get("FDX_OUT") or out


def run(args: argparse.Namespace) -> int:
    """Resolve and execute one parsed command and write its artifacts, less
    those --no-csv and --no-json leave out; returns the exit code.  A failure
    writes only error.json: into the resolved output directory, or, when
    resolving fails, the flag's or the default (the config file's out may be
    what failed)."""
    command, table = args.command, _COMMANDS[args.command].options
    out_dir = Path(_out_dir(args.out or _OUT["out"].default))
    params = weight = None
    try:
        opts = _resolve(args)
        out_dir = Path(opts["out"])
        if "m" in table:
            params = derive_params(opts["n"], opts["m"], opts["gamma"])
        if "mu" in table:
            # --tol is the profile solvers'; the weight's one LSODA run sets its own
            weight = build_weight(BumpSpec(mu=opts["mu"], n=opts["n"]))
        artifacts, extra = _COMMANDS[command].compute(opts, params, weight)
        manifest = {"command": command, "config": opts,
                    "derived": _derived_block(opts, params, weight), **extra}
    except FastDiffError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "command": command,
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        (out_dir / "error.json").write_text(_json_text(record))
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    artifacts[f"{command}_manifest.json"] = _json_text(manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    stale = out_dir / "error.json"
    if stale.exists():
        stale.unlink()
    skip = tuple(suffix for suffix, off in ((".csv", args.no_csv), ("_summary.json", args.no_json))
                 if off)
    for name, text in sorted(artifacts.items()):
        if not name.endswith(skip):
            (out_dir / name).write_text(text)
    return 0


def main(argv: Optional[list] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""fastdiff benchmark: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload {expansion,contract,converge} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``fastdiff`` from ``src/``.
Set-up (the import, then ``SETUP_REPS`` builds of what the workload needs
before its first op) is timed on its own.  Ops then run back to back: as
many whole periods of the workload's schedule as fill ``--seconds`` seconds
at the period's nominal time (see workloads.py), so a run of the same seed
and length attempts the same ops on any machine.  Every op's outputs are
checked against its acceptance gates.  The reported set-up and op times are
scaled to a reference machine speed by sampling a fixed kernel during each
timed interval (see calibration.py); the raw wall times are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half as
many periods, each op once untraced and once traced, and prints the
per-layer metrics (see tracing.py); the spans go to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.

Lines starting with ``#`` are for people: run metadata, every metric with its
unit, failures and accuracy.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
# BLAS/OpenMP pools are pinned to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_identity():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _run_op(call, fastdiff):
    """Run one op; returns (status, detail, wall seconds)."""
    t0 = time.perf_counter()
    try:
        broken = call()
        status, detail = ("ok", "") if not broken else ("gate", "; ".join(broken))
    except fastdiff.FastDiffError as exc:
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    return status, detail, time.perf_counter() - t0


def _run_sampled(call, fastdiff, calibration):
    """Run one op under the calibration sampler; returns (status, detail,
    wall seconds, reference-speed seconds)."""
    with calibration.Sampled() as sampled:
        status, detail, _ = _run_op(call, fastdiff)
    print(f"# op {status}: wall {sampled.wall_s:.6f} s, reference {sampled.ref_s:.6f} s, "
          f"kernel median {statistics.median(sampled.samples):.6f} s of {len(sampled.samples)}")
    return status, detail, sampled.wall_s, sampled.ref_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["expansion", "contract", "converge"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fastdiff" / "__init__.py").is_file():
        print(f"perfbench: no fastdiff sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FDX_OUT", None)       # it would override --out of the expansion op
    sys.dont_write_bytecode = True        # same import cost on every run
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import fastdiff
    import fastdiff.cli
    import_s = time.perf_counter() - t0

    import numpy
    import scipy

    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")
    try:
        result = _bench(args, fastdiff, tmp_dir, import_s)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if result is None:
        return 1
    src_lines, src_hash = _src_identity()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "src_sha256": src_hash,
        "src_lines": src_lines, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "tmp_dir": tmp_dir,
    }
    meta.update(result.pop("meta"))
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def _bench(args, fastdiff, tmp_dir, import_s):
    import calibration
    import tracing
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    wl = workload_cls(args.seed, tmp_dir)
    tracer = tracing.Tracer(fastdiff) if args.trace else None
    traced_setup = args.trace and workload_cls.name != "expansion"

    # traced set-ups are not sampled: the sampler's handler would land in the spans
    setup_wall, setup_ref, setup_ops, kernel_s = [], [], [], []
    for rep in range(SETUP_REPS):
        if traced_setup:
            tracer.op = f"setup{rep}"
            setup_ops.append(tracer.op)
            tracer.install()
            try:
                t0 = time.perf_counter()
                wl.setup()
                setup_wall.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
        else:
            with calibration.Sampled() as sampled:
                wl.setup()
            setup_wall.append(sampled.wall_s)
            setup_ref.append(sampled.ref_s)
            kernel_s += sampled.samples

    records = []          # (label, status, detail, wall_s, traced)
    op_ref = []           # reference-speed times of the successful untraced ops
    traced_ops = []
    period = workload_cls.period
    if not args.trace:
        periods = max(1, math.ceil(args.seconds / workload_cls.period_s))
        for k in range(periods * period):
            label, call = wl.make_op(k)
            status, detail, wall, ref = _run_sampled(call, fastdiff, calibration)
            records.append((label, status, detail, wall, False))
            if status == "ok":
                op_ref.append(ref)
    else:
        # each op runs twice, untraced and traced
        periods = max(1, math.ceil(args.seconds / (2 * workload_cls.period_s)))
        for k in range(periods * period):
            label, call = wl.make_op(k)
            records.append((label, *_run_op(call, fastdiff), False))
            tracer.op = f"op{k % period}.{k // period}"
            traced_ops.append(tracer.op)
            wl.tracer = tracer
            tracer.install()
            try:
                records.append((label, *_run_op(call, fastdiff), True))
            finally:
                tracer.uninstall()
                wl.tracer = None

    ok_plain = [r[3] for r in records if r[1] == "ok" and not r[4]]
    ok_traced = [r[3] for r in records if r[1] == "ok" and r[4]]
    errors = [r for r in records if r[1] == "error"]
    gates = [r for r in records if r[1] == "gate"]
    for label, status, detail, secs, traced in errors + gates:
        print(f"# failed op ({label}, {'traced' if traced else 'untraced'}, {secs:.3f} s): "
              f"{status}: {detail}")
    if not ok_plain and not args.trace:
        print("perfbench: no op succeeded", file=sys.stderr)
        return None

    attempted = len(records)
    failed = len(errors) + len(gates)
    op_p50 = statistics.median(ok_plain) if ok_plain else math.nan
    tail = _tail(ok_plain)
    print(f"# ops attempted {attempted}, failed {failed}: fail_frac {failed / attempted:.4f} "
          f"({failed}/{attempted}; {len(errors)} raised, {len(gates)} broke a gate)")
    print(f"# wall times: op_p50 {op_p50:.6g} s over {len(ok_plain)} successful untraced ops, "
          "op_tail " + (f"p{tail[0]:.1f} {tail[1]:.6g} s" if tail else "not reported (< 11 ops)")
          + f"; import {import_s:.4f} s, set-up builds "
          + ", ".join(f"{t:.4f}" for t in setup_wall) + " s")
    if kernel_s:
        print(f"# calibration: median kernel time {statistics.median(kernel_s):.6f} s in set-up, "
              f"reference {calibration.REF_S} s")
    print("# accuracy of the last op of each kind " + json.dumps(wl.accuracy, sort_keys=True))

    if args.trace:
        traced_p50 = statistics.median(ok_traced) if ok_traced else math.nan
        overhead = traced_p50 - op_p50 if ok_traced else 0.0
        print(f"# wall op_p50 untraced {op_p50:.6g} s, traced {traced_p50:.6g} s "
              f"over {len(traced_ops)} traced ops")
        metrics = tracing.layer_metrics(tracer.spans, setup_ops, traced_ops, overhead)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import_ref_s = import_s * calibration.REF_S / statistics.median(kernel_s)
        metrics = {"setup_s": (import_ref_s + statistics.median(setup_ref), "s"),
                   "op_p50_s": (statistics.median(op_ref), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    return {
        "correct": not gates,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
        "meta": {"ops_attempted": attempted, "ops_failed": failed,
                 "fail_frac": failed / attempted, "ops_ok": len(ok_plain) + len(ok_traced),
                 "setup_reps": SETUP_REPS},
    }


if __name__ == "__main__":
    sys.exit(main())

"""The sweep and edge tables: every profile check at admissible points.

The sweep is 36 points: n in {3, 4, 5, 8}, m at 10/50/90% of (n-2)/n and
gamma at 5/50/95% of its window (2/(1-m), (n-2)/m).  The edge table is 18
points nearer the corners of the range: n in {3, 5, 8}, m at 2/50/98% of
(n-2)/n and gamma at 0.5/99.5% of its window.  Each point builds the
tail, its continuation and the profile rescaled to origin coefficient 1 (the
steps of solve_for_eta), then runs expansion_check, inversion_report and the
two ODE residuals, and counts ACCEPTANCE 03's pointwise violations.  A
point that fails records the class of its typed error; one that completes
records each checked value and whether it lies inside the ACCEPTANCE bound
of the same name.  Every row also records the point's Picard iteration
count, its tail grid's node count, its base table's row count and the
step count of each LSODA run it made (tail_residual's, then continue_left's
s-leg and rho-leg), which no bound holds.
tests/sweep_expected.json and tests/edge_expected.json hold the tables,
their values to two digits, and tests/test_sweep.py asserts that a run
reproduces their outcomes and inside flags, and that every sweep flag is
true.  The edge table is recorded as computed.  run_point keeps the values
unrounded, for the tests that read them.

Print the tables with  PYTHONPATH=src python tests/sweep.py  and rewrite the
expected files with  PYTHONPATH=src python tests/sweep.py --write, which
also prints each outcome and inside flag that differs from the file it
overwrites, one line each, as  point key old → new.  Each table ends on a
totals line: its rows' Picard iterations, tail nodes, base table rows and
LSODA steps at each run position (tail_residual, s-leg, rho-leg), summed,
and the worst of each value in WORST over its completing rows, and then two
digest lines: the SHA-256 over the SHA-256 of each completing point's base
table bytes (s_grid, xi, W, then eta_origin), in table order, and the same
over only the rows at or left of b1, the continuation's, and eta_origin.
The digests are printed only, so a change that keeps every table's bits
reads the same lines before and after it, and one that moves only the
rows past b1, which interpolate the tail, keeps the second.
"""

import contextlib
import functools
import hashlib
import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

import fastdiff.profile
from fastdiff import (
    FastDiffError,
    continue_left,
    derive_fp_constants,
    derive_params,
    expansion_check,
    f_ode_residual,
    inversion_report,
    lambda_for_amplitude,
    picard_solve,
    rescale_profile,
    wbar_ode_residual,
)

EXPECTED = Path(__file__).with_name("sweep_expected.json")
EDGE_EXPECTED = Path(__file__).with_name("edge_expected.json")

# value name -> the ACCEPTANCE bound it is held to (criteria 02 to 06)
BOUNDS = {
    "pointwise_violations": 0,
    "d1_rel_err": 1e-2,
    "d2_rel_err": 2e-2,
    "f_residual": 1e-5,
    "wbar_residual": 1e-5,
    "inverted_residual": 1e-5,
    "fp_residual": 1e-10,
}
# the values whose worst over a table its totals line prints
WORST = ("f_residual", "wbar_residual", "inverted_residual", "d1_rel_err", "d2_rel_err", "fp_residual")


def _grid(ns, m_fractions, gamma_fractions):
    """(n, m, gamma) with m at each fraction of (n-2)/n and gamma at each
    fraction of its window, in table order."""
    points = []
    for n in ns:
        for fm in m_fractions:
            m = fm * (n - 2) / n
            lo, hi = 2 / (1 - m), (n - 2) / m
            points += [(n, m, lo + fg * (hi - lo)) for fg in gamma_fractions]
    return points


def sweep_points():
    """The 36 admissible (n, m, gamma) of the sweep, in table order."""
    return _grid((3, 4, 5, 8), (0.1, 0.5, 0.9), (0.05, 0.5, 0.95))


def edge_points():
    """The 18 admissible (n, m, gamma) of the edge table, in table order."""
    return _grid((3, 5, 8), (0.02, 0.5, 0.98), (0.005, 0.995))


def pointwise_violations(prof):
    """ACCEPTANCE 03's count: rows whose xi = log(h/(-z)) is not finite,
    which is 0 < h < C1, and rows that break r f_r/f <= -gamma or
    r f_r/f >= -(n-2)/m, each bound counted on its own."""
    p, rfr = prof.params, prof.rfr_over_f
    return int(np.sum(~np.isfinite(prof.xi))
               + np.sum(~(rfr <= -p.gamma)) + np.sum(~(rfr >= -(p.n - 2) / p.m)))


def point_id(point):
    return "n%d-m%.4g-g%.4g" % point


@contextlib.contextmanager
def _lsoda_steps():
    """The step counts of the profile's LSODA runs made inside the block,
    in the order they ran."""
    steps, run = [], fastdiff.profile.lsoda_at

    def recording(*args, **options):
        y, n = run(*args, **options)
        steps.append(n)
        return y, n

    fastdiff.profile.lsoda_at = recording
    try:
        yield steps
    finally:
        fastdiff.profile.lsoda_at = run


@functools.cache
def run_point(point):
    """The table row of one point: its outcome, its Picard iteration count
    and tail node count (None if picard_solve failed), its base table's row
    count (None if continue_left failed), the step counts of the LSODA runs
    that completed, and for a completing point each value with whether it
    is inside its ACCEPTANCE bound."""
    iterations, nodes, rows, steps = None, None, None, []
    try:
        fp = derive_fp_constants(derive_params(*point))
        with _lsoda_steps() as steps:
            tail = picard_solve(fp)
            iterations, nodes = tail.iterations, tail.grid.size
            tail.fp_residual    # read here, so tail_residual's run is recorded first
            base = continue_left(tail)
        rows = base.s_grid.size
        # node n_left of continue_left is b1 up to roundoff, so the rows at
        # or left of b1 are those below b1 + ds/2
        left = int(np.searchsorted(base.s_grid, fp.b1 + 0.5 * (base.s_grid[1] - base.s_grid[0])))
        table, left_table = (hashlib.sha256(b"".join(a[:k].tobytes() for a in (base.s_grid, base.xi, base.W))
                                            + np.float64(base.eta_origin).tobytes())
                             for k in (rows, left))
        prof = rescale_profile(base, lambda_for_amplitude(base, 1.0))
        rep = expansion_check(prof)
        values = {
            "pointwise_violations": pointwise_violations(prof),
            "d1_rel_err": rep.rel_err1,
            "d2_rel_err": rep.rel_err2,
            "f_residual": f_ode_residual(prof),
            "wbar_residual": wbar_ode_residual(prof),
            "inverted_residual": inversion_report(prof).residual,
            "fp_residual": base.fp_residual,
        }
    except FastDiffError as exc:
        return {"point": point_id(point), "outcome": type(exc).__name__,
                "picard_iterations": iterations, "tail_nodes": nodes, "table_rows": rows,
                "lsoda_steps": steps}
    return {
        "point": point_id(point),
        "outcome": "pass",
        "picard_iterations": iterations,
        "tail_nodes": nodes,
        "table_rows": rows,
        "lsoda_steps": steps,
        "values": values,
        "inside": {k: bool(v <= BOUNDS[k]) for k, v in values.items()},
        "table_sha256": table.digest(),
        "left_sha256": left_table.digest(),
    }


# each table's points and expected file, in the order main prints them
TABLES = {"sweep": (sweep_points, EXPECTED), "edge": (edge_points, EDGE_EXPECTED)}


def _rounded(row):
    """The row as the expected file holds it: each value to two digits, a
    count exactly, and no table digest."""
    if "values" not in row:
        return row
    row = {k: v for k, v in row.items() if k not in ("table_sha256", "left_sha256")}
    return {**row, "values": {k: v if isinstance(v, int) else float("%.2g" % v)
                              for k, v in row["values"].items()}}


def flips(old_rows, rows):
    """'point key old → new' for each outcome and inside flag of rows that
    differs from old_rows; a key one side lacks reads None there."""
    old = {row["point"]: row for row in old_rows}
    lines = []
    for row in rows:
        prev = old.get(row["point"], {})
        if prev.get("outcome") != row["outcome"]:
            lines.append(f"{row['point']} outcome {prev.get('outcome')} → {row['outcome']}")
        before, after = prev.get("inside", {}), row.get("inside", {})
        for k in [*after, *(k for k in before if k not in after)]:
            if before.get(k) != after.get(k):
                lines.append(f"{row['point']} {k} {before.get(k)} → {after.get(k)}")
    return lines


def main(argv):
    warnings.simplefilter("error", RuntimeWarning)
    tables = {name: [run_point(p) for p in points()] for name, (points, _) in TABLES.items()}
    if "--write" in argv:
        for name, (_, path) in TABLES.items():
            old_rows = json.loads(path.read_text()) if path.exists() else []
            path.write_text(json.dumps([_rounded(row) for row in tables[name]], indent=1) + "\n")
            for line in flips(old_rows, tables[name]):
                print(line)
    for name, rows in tables.items():
        print(f"{name} table")
        for row in rows:
            out = [f"{k} {v if isinstance(v, int) else f'{v:.2g}'}"
                   f"{'' if row['inside'][k] else ' (above bound)'}"
                   for k, v in row.get("values", {}).items()]
            print(f"{row['point']:>24}  {row['outcome']:<20} picard {row['picard_iterations']}, "
                  f"tail nodes {row['tail_nodes']}, table rows {row['table_rows']}, "
                  f"lsoda {row['lsoda_steps']}, {', '.join(out)}")
        lsoda = [sum(col) for col in itertools.zip_longest(*(row["lsoda_steps"] for row in rows),
                                                            fillvalue=0)]
        worst = [f"{k} {max(row['values'][k] for row in rows if 'values' in row):.2g}" for k in WORST]
        print(f"{'totals':>24}  picard {sum(row['picard_iterations'] or 0 for row in rows)}, "
              f"tail nodes {sum(row['tail_nodes'] or 0 for row in rows)}, "
              f"table rows {sum(row['table_rows'] or 0 for row in rows)}, lsoda {lsoda}, "
              f"worst {', '.join(worst)}")
        done = [row for row in rows if "values" in row]
        for key, what in (("table_sha256", "base tables"), ("left_sha256", "base tables' rows at or left of b1")):
            digest = hashlib.sha256(b"".join(row[key] for row in done)).hexdigest()
            print(f"{'digest':>24}  sha256 {digest} over {len(done)} {what} (s_grid, xi, W, eta_origin)")


if __name__ == "__main__":
    main(sys.argv[1:])

"""The sweep table: every profile check at every admissible sweep point.

The sweep is 36 points: n in {3, 4, 5, 8}, m at 10/50/90% of (n-2)/n and
gamma at 5/50/95% of its window (2/(1-m), (n-2)/m).  Each point builds the
tail, its continuation and the profile rescaled to origin coefficient 1 (the
steps of solve_for_eta), then runs expansion_check, inversion_report and the
two ODE residuals, and counts ACCEPTANCE 03's pointwise violations.  A
point that fails records the class of its typed error;
one that completes records each checked value and whether it lies inside
the ACCEPTANCE bound of the same name.  tests/sweep_expected.json holds the
table, its values to two digits, and tests/test_sweep.py asserts that a run
reproduces it.  run_point keeps the values unrounded, for the tests that
read them.

Print the table with  PYTHONPATH=src python tests/sweep.py  and rewrite the
expected file with  PYTHONPATH=src python tests/sweep.py --write.
"""

import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

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

# value name -> the ACCEPTANCE bound it is held to (criteria 02 to 06);
# far_field_gap's bound depends on the tail and is formed in run_point
BOUNDS = {
    "pointwise_violations": 0,
    "d1_rel_err": 1e-2,
    "d2_rel_err": 2e-2,
    "f_residual": 1e-5,
    "wbar_residual": 1e-5,
    "inverted_residual": 1e-5,
    "fp_residual": 1e-10,
}


def sweep_points():
    """The 36 admissible (n, m, gamma), in table order."""
    points = []
    for n in (3, 4, 5, 8):
        for fm in (0.1, 0.5, 0.9):
            m = fm * (n - 2) / n
            lo, hi = 2 / (1 - m), (n - 2) / m
            points += [(n, m, lo + fg * (hi - lo)) for fg in (0.05, 0.5, 0.95)]
    return points


def pointwise_violations(prof):
    """ACCEPTANCE 03's count: rows that break 0 < h, z < 0, r f_r/f <=
    -gamma or r f_r/f >= -(n-2)/m, each bound counted on its own."""
    p, rfr = prof.params, prof.rfr_over_f
    return int(np.sum(~(prof.h > 0.0)) + np.sum(~(prof.z < 0.0))
               + np.sum(~(rfr <= -p.gamma)) + np.sum(~(rfr >= -(p.n - 2) / p.m)))


def point_id(point):
    return "n%d-m%.4g-g%.4g" % point


@functools.cache
def run_point(point):
    """The table row of one point: its outcome, and for a completing point
    each value with whether it is inside its ACCEPTANCE bound."""
    try:
        fp = derive_fp_constants(derive_params(*point))
        base = continue_left(picard_solve(fp))
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
            "far_field_gap": base.far_field_gap,
        }
    except FastDiffError as exc:
        return {"point": point_id(point), "outcome": type(exc).__name__}
    far_bound = math.exp(-fp.C2 * (float(base.s_grid[-1]) - fp.b1)) + 1e-8
    bounds = {**BOUNDS, "far_field_gap": far_bound}
    return {
        "point": point_id(point),
        "outcome": "pass",
        "values": values,
        "inside": {k: bool(v <= bounds[k]) for k, v in values.items()},
    }


def run_sweep():
    return [run_point(p) for p in sweep_points()]


def _rounded(row):
    """The row as the expected file holds it: each value to two digits, a
    count exactly."""
    if "values" not in row:
        return row
    return {**row, "values": {k: v if isinstance(v, int) else float("%.2g" % v)
                              for k, v in row["values"].items()}}


def main(argv):
    warnings.simplefilter("error", RuntimeWarning)
    rows = run_sweep()
    if "--write" in argv:
        EXPECTED.write_text(json.dumps([_rounded(row) for row in rows], indent=1) + "\n")
    for row in rows:
        out = [f"{k} {v if isinstance(v, int) else f'{v:.2g}'}"
               f"{'' if row['inside'][k] else ' (above bound)'}"
               for k, v in row.get("values", {}).items()]
        print(f"{row['point']:>24}  {row['outcome']:<20} {', '.join(out)}")


if __name__ == "__main__":
    main(sys.argv[1:])

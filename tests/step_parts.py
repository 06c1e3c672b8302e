"""Where the time of a step goes: microseconds per accepted step for each
part of the implicit step, on fdx converge's orbit and bump runs at their
defaults (640 nodes, tau in [0, 3], dt_rel_max = 2.5e-4).

The parts are timed by wrapping the private functions in perf_counter
spans: the predictor (pde._predict), the boundary traces (the trace
callables _Stepper is built with), the residual (_Stepper._residual), the
banded solve (_Stepper._solve), the rest of _Stepper.step (its set-up, the
start check, the increment norm, the trial and the floor) and the rest of
_Lockstep.advance (the step-size rule and the decay-bound bookkeeping).
Each part excludes the parts it calls.  A wrapper costs a call and two clock
reads, which land in the part that calls it, so the wrapped total exceeds
the total of a run in which only advance is wrapped; that one is printed
next to it.  Wrapped and unwrapped runs alternate, --repeat of each per
case, and each figure is the least of its runs: other load on the machine
only adds time.  The timers live here, so src/ carries none.

Print the table with  PYTHONPATH=src python tests/step_parts.py [--repeat 3]
"""

import argparse
import contextlib
import io
import sys
import tempfile
import time

import fastdiff.cli
import fastdiff.pde as pde

CASES = ("orbit", "bump")
ROWS = ("predictor", "traces", "residual", "solve", "step rest", "advance rest",
        "wrapped total", "unwrapped total")


def _timed(fn, spans, key):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[key] += time.perf_counter() - t0
    return wrapper


@contextlib.contextmanager
def _patched(target, name, value):
    old = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, old)


def run_case(case: str, wrap_parts: bool) -> dict:
    """One fdx converge run; returns each span in seconds and the accepted steps."""
    spans = dict.fromkeys(("predict", "traces", "residual", "solve", "step", "advance"), 0.0)
    spans["steps"] = 0
    advance = pde._Lockstep.advance

    def counted_advance(self, t_target):
        before = self.n_steps
        t0 = time.perf_counter()
        advance(self, t_target)
        spans["advance"] += time.perf_counter() - t0
        spans["steps"] += self.n_steps - before

    init = pde._Stepper.__init__

    def init_with_timed_traces(self, r_grid, params, cfg, bcs):
        # one wrapper per distinct callable, so shared traces stay shared
        wrapped = {}
        bcs = [tuple(wrapped.setdefault(fn, _timed(fn, spans, "traces")) for fn in bc)
               for bc in bcs]
        init(self, r_grid, params, cfg, bcs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(pde._Lockstep, "advance", counted_advance))
        if wrap_parts:
            for target, name, key in ((pde, "_predict", "predict"),
                                      (pde._Stepper, "_residual", "residual"),
                                      (pde._Stepper, "_solve", "solve"),
                                      (pde._Stepper, "step", "step")):
                stack.enter_context(_patched(target, name, _timed(getattr(target, name),
                                                                  spans, key)))
            stack.enter_context(_patched(pde._Stepper, "__init__", init_with_timed_traces))
        out = stack.enter_context(tempfile.TemporaryDirectory())
        with contextlib.redirect_stdout(io.StringIO()):
            code = fastdiff.cli.main(["converge", "--n", "3", "--case", case, "--out", out])
    if code != 0:
        raise SystemExit(f"fdx converge --case {case} exited {code}")
    return spans


def parts_us(wrapped: dict, unwrapped: dict) -> dict:
    """Microseconds per accepted step of each row of the table."""
    s = wrapped
    inner = s["traces"] + s["residual"] + s["solve"]
    seconds = {
        "predictor": s["predict"],
        "traces": s["traces"],
        "residual": s["residual"],
        "solve": s["solve"],
        "step rest": s["step"] - inner,
        "advance rest": s["advance"] - s["step"] - s["predict"],
        "wrapped total": s["advance"],
    }
    us = {key: 1e6 * value / s["steps"] for key, value in seconds.items()}
    us["unwrapped total"] = 1e6 * unwrapped["advance"] / unwrapped["steps"]
    return us


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs of each case (least)")
    args = parser.parse_args(argv)
    table, steps = {}, {}
    for case in CASES:
        runs = []
        for _ in range(args.repeat):
            wrapped, unwrapped = run_case(case, True), run_case(case, False)
            runs.append(parts_us(wrapped, unwrapped))
            steps[case] = wrapped["steps"]
        table[case] = {row: min(run[row] for run in runs) for row in ROWS}
    print(f"{'us per step':<16}" + "".join(f"{case:>10}" for case in CASES))
    for row in ROWS:
        print(f"{row:<16}" + "".join(f"{table[case][row]:>10.1f}" for case in CASES))
    print(f"{'steps':<16}" + "".join(f"{steps[case]:>10d}" for case in CASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())

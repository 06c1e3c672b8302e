"""Span tracer for the traced benchmark run.

The tracer wraps the functions named in each fastdiff layer's ``__all__`` at
every module binding through which fastdiff calls them (``fastdiff.profile``
calling its own ``tail_residual``, ``fastdiff.pde`` calling the imported
``profile_interpolator``, the package namespace, ...).  Nothing in ``src/`` is
edited: ``install`` swaps the module attributes and ``uninstall`` puts the
originals back, so ops run between the two are traced and all others are not.

A span is ``[name, start, end, parent, op, counters]``: ``parent`` is the index
of the enclosing span (or -1), ``op`` the identifier of the op or set-up
repetition that caused it, and ``counters`` a dict read from the returned
object (``OdeTrajectory.nfev``, ``TailSolution.iterations``, ``EvolveStats``).
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

# layers that do work; errors holds only exception classes
LAYERS = ("params", "numerics", "profile", "asymptotics", "weight", "pde")


def _ode_counters(result, bound):
    method = bound.get("method", "rk45")
    return {f"nfev.{method}": result.nfev, "steps": result.naccepted}


def _picard_counters(result, bound):
    return {"iterations": result.iterations, "tail_nodes": int(result.grid.size)}


def _experiment_counters(result, bound):
    if hasattr(result, "u_final"):
        stats = [result.u_final.stats, result.v_final.stats]
    else:
        stats = [result.field_final.stats]
    return {
        "steps": sum(s.n_steps for s in stats),
        "rejected": sum(s.n_rejected for s in stats),
        "newton": sum(s.newton_total for s in stats),
    }


_COUNTERS = {
    "numerics.integrate_ode": _ode_counters,
    "profile.picard_solve": _picard_counters,
    "pde.contraction_experiment": _experiment_counters,
    "pde.convergence_experiment": _experiment_counters,
}


class Tracer:
    """Collects spans in memory; ``install``/``uninstall`` toggle the wrappers."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, counters=None):
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counters

    def region(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for ``cli.main``)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        counters = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counters else None
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ctr = None
                if counters is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    ctr = counters(result, bound.arguments)
                tracer._close(idx, ctr)

        if name == "profile.profile_interpolator":
            # the closures it returns are the boundary-trace and envelope
            # evaluations of the experiments; give each call a span too
            def traced_factory(*args, **kwargs):
                return tracer._wrap("profile.interpolator_call", traced(*args, **kwargs))

            return traced_factory
        return traced

    # -- installing ----------------------------------------------------

    def install(self):
        if self._saved:
            return
        pkg = self.package
        mods = [pkg, pkg.cli] + [getattr(pkg, layer) for layer in LAYERS]
        for layer in LAYERS:
            lmod = getattr(pkg, layer)
            for attr in lmod.__all__:
                original = getattr(lmod, attr)
                if not inspect.isfunction(original):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in mods:
                    if getattr(mod, attr, None) is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, ctr in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if ctr:
                    rec["counters"] = ctr
                fh.write(json.dumps(rec) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# name -> (unit, better); the order is the order of the output
PER_LAYER = {
    "profile.picard_s": ("s", "lower"),
    "profile.picard_iterations": ("count", "lower"),
    "profile.tail_nodes": ("count", "lower"),
    "profile.tail_residual_s": ("s", "lower"),
    "profile.continue_left_s": ("s", "lower"),
    "profile.recover_profile_s": ("s", "lower"),
    "profile.interpolator_calls": ("count", "lower"),
    "profile.interpolator_s": ("s", "lower"),
    "numerics.ode_calls": ("count", "lower"),
    "numerics.ode_s": ("s", "lower"),
    "numerics.ode_nfev.rk45": ("count", "lower"),
    "numerics.ode_nfev.radau": ("count", "lower"),
    "numerics.ode_steps": ("count", "lower"),
    "numerics.quad_calls": ("count", "lower"),
    "numerics.quad_s": ("s", "lower"),
    "asymptotics.expansion_check_s": ("s", "lower"),
    "asymptotics.residuals_s": ("s", "lower"),
    "asymptotics.inversion_report_s": ("s", "lower"),
    "asymptotics.origin_series_s": ("s", "lower"),
    "weight.build_weight_calls": ("count", "lower"),
    "weight.build_weight_s": ("s", "lower"),
    "weight.l1_distance_calls": ("count", "lower"),
    "weight.l1_distance_s": ("s", "lower"),
    "pde.steps": ("count", "lower"),
    "pde.rejected_steps": ("count", "lower"),
    "pde.accept_ratio": ("ratio", "higher"),
    "pde.newton_iters": ("count", "lower"),
    "pde.newton_per_step": ("count/step", "lower"),
    "pde.s_per_step": ("s/step", "lower"),
    "pde.experiment_s": ("s", "lower"),
    "pde.pair_setup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _totals(spans):
    """Sums over spans: time, self time and calls by name, counters by
    ``name.counter``."""
    time_s, self_s, calls, ctr = (defaultdict(float) for _ in range(4))
    child_s = defaultdict(float)
    for name, start, end, parent, _op, counters in spans:
        dur = end - start
        if parent >= 0:
            child_s[parent] += dur
    for idx, (name, start, end, parent, _op, counters) in enumerate(spans):
        dur = end - start
        time_s[name] += dur
        self_s[name] += dur - child_s[idx]
        calls[name] += 1
        for key, val in (counters or {}).items():
            ctr[f"{name}.{key}"] += val
    return time_s, self_s, calls, ctr


def _base(spans):
    time_s, self_s, calls, ctr = _totals(spans)
    experiments = ("pde.contraction_experiment", "pde.convergence_experiment")
    experiment_s = sum(time_s[e] for e in experiments)
    steps = sum(ctr[f"{e}.steps"] for e in experiments)
    rejected = sum(ctr[f"{e}.rejected"] for e in experiments)
    newton = sum(ctr[f"{e}.newton"] for e in experiments)
    return {
        "profile.picard_s": self_s["profile.picard_solve"],
        "profile.picard_iterations": ctr["profile.picard_solve.iterations"],
        "profile.tail_nodes": ctr["profile.picard_solve.tail_nodes"],
        "profile.tail_residual_s": time_s["profile.tail_residual"],
        "profile.continue_left_s": time_s["profile.continue_left"],
        "profile.recover_profile_s": time_s["profile.recover_profile"],
        "profile.interpolator_calls": calls["profile.interpolator_call"],
        "profile.interpolator_s": time_s["profile.interpolator_call"],
        "numerics.ode_calls": calls["numerics.integrate_ode"],
        "numerics.ode_s": time_s["numerics.integrate_ode"],
        "numerics.ode_nfev.rk45": ctr["numerics.integrate_ode.nfev.rk45"],
        "numerics.ode_nfev.radau": ctr["numerics.integrate_ode.nfev.radau"],
        "numerics.ode_steps": ctr["numerics.integrate_ode.steps"],
        "numerics.quad_calls": calls["numerics.quad_adaptive"],
        "numerics.quad_s": time_s["numerics.quad_adaptive"],
        "asymptotics.expansion_check_s": time_s["asymptotics.expansion_check"],
        "asymptotics.residuals_s": time_s["asymptotics.f_ode_residual"]
        + time_s["asymptotics.wbar_ode_residual"],
        "asymptotics.inversion_report_s": time_s["asymptotics.inversion_report"],
        "asymptotics.origin_series_s": time_s["asymptotics.origin_series_report"],
        "weight.build_weight_calls": calls["weight.build_weight"],
        "weight.build_weight_s": time_s["weight.build_weight"],
        "weight.l1_distance_calls": calls["weight.weighted_l1_distance"],
        "weight.l1_distance_s": time_s["weight.weighted_l1_distance"],
        "pde.steps": steps,
        "pde.rejected_steps": rejected,
        "pde.newton_iters": newton,
        "pde.experiment_s": experiment_s,
        "pde.pair_setup_s": time_s["pde.random_sandwiched_pair"],
        "cli.self_s": self_s["cli.main"],
    }


def layer_metrics(spans, setup_ops, traced_ops, overhead_s):
    """Per-layer work of one set-up plus one op.

    Each additive metric is its mean over the traced set-up repetitions plus
    its mean over the traced ops; the ratios are formed from those sums.
    """
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[4]].append(span)
    out = defaultdict(float)
    for ops in (setup_ops, traced_ops):
        if not ops:
            continue
        group = [s for op in ops for s in by_op.get(op, [])]
        for key, val in _base(group).items():
            out[key] += val / len(ops)
    steps = out["pde.steps"]
    attempts = steps + out["pde.rejected_steps"]
    out["pde.accept_ratio"] = steps / attempts if attempts else 0.0
    out["pde.newton_per_step"] = out["pde.newton_iters"] / steps if steps else 0.0
    out["pde.s_per_step"] = out["pde.experiment_s"] / steps if steps else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: (float(out[name]), unit) for name, (unit, _better) in PER_LAYER.items()}

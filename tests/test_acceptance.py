"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantities at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v` (the report lines bypass
capture, so they appear even without -s).  The heavy experiment blocks are
module-scoped fixtures shared across criteria; the decay-bound criterion
aggregates the stepper statistics of every evolved field from the accuracy,
contraction, and convergence blocks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fastdiff import (
    EvolveConfig,
    RadialField,
    barenblatt,
    contraction_experiment,
    convergence_experiment,
    eval_weight,
    evolve,
    expansion_check,
    f_ode_residual,
    inversion_report,
    log_grid,
    power_bump_initial,
    random_sandwiched_pair,
    sample_solution,
    self_similar_solution,
    wbar_ode_residual,
)
from fastdiff.profile import _ORIGIN_Q_TOL
from test_weight import A4_REF

ANNULUS = (0.1, 10.0)


def _emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _annulus_rel_err(grid, u, v):
    sel = (grid >= ANNULUS[0]) & (grid <= ANNULUS[1])
    return float(np.max(np.abs(u[sel] - v[sel]) / np.abs(v[sel])))


# ----------------------------------------------------------------------
# heavy experiment blocks (module-scoped, shared across criteria)
# ----------------------------------------------------------------------

LEVELS = ((128, 0.004), (256, 0.001), (512, 0.00025))


@pytest.fixture(scope="module")
def accuracy_block(params_ref, unit_eta_profile):
    """Three-level refinement for the closed-form extinction solution and the
    self-similar orbit, plus the constant-state run; dt scales with dx^2."""
    stats = []
    bb = barenblatt(3, 0.2, 1.0, 8.0)
    bb_errs, v_errs = [], []
    t512 = math.nan
    for nodes, dt in LEVELS:
        grid = log_grid(1e-2, 1e2, nodes)
        cfg = EvolveConfig(dt_init=dt, dt_max=dt)

        field = RadialField(
            grid, bb(grid, 1.0), 1.0,
            (lambda tt, g=grid: bb(float(g[0]), tt), lambda tt, g=grid: bb(float(g[-1]), tt)),
            params=params_ref,
        )
        t0 = time.perf_counter()
        [out] = evolve(field, cfg, [2.0])
        elapsed = time.perf_counter() - t0
        if nodes == 512:
            t512 = elapsed
        stats.append(out.stats)
        bb_errs.append(_annulus_rel_err(grid, out.u, bb(grid, 2.0)))

        orb = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.0,
                              grid, unit_eta_profile.params)
        [out_v] = evolve(orb, cfg, [1.5])
        stats.append(out_v.stats)
        exact = sample_solution(self_similar_solution(unit_eta_profile, 1.0), 1.5,
                                grid, unit_eta_profile.params)
        v_errs.append(_annulus_rel_err(grid, out_v.u, exact.u))

    grid = log_grid(1e-2, 1e2, 512)
    c0 = 2.5
    const = RadialField(grid, np.full(grid.size, c0), 1.0,
                        (lambda tt: c0, lambda tt: c0), params=params_ref)
    [out_c] = evolve(const, EvolveConfig(dt_init=0.004, dt_max=0.004), [2.0])
    stats.append(out_c.stats)
    const_dev = float(np.max(np.abs(out_c.u - c0)) / c0)

    orders = {
        "barenblatt": [math.log2(bb_errs[i] / bb_errs[i + 1]) for i in range(2)],
        "self-similar": [math.log2(v_errs[i] / v_errs[i + 1]) for i in range(2)],
    }
    return {
        "bb_errs": bb_errs,
        "v_errs": v_errs,
        "orders": orders,
        "const_dev": const_dev,
        "t512": t512,
        "stats": stats,
    }


@pytest.fixture(scope="module")
def contraction_block(unit_eta_profile, weight_ref):
    """Five randomized sandwiched pairs evolved over t in [1, 3] with 11
    sampled times each."""
    grid = log_grid(1e-3, 1e3, 384)
    times = np.geomspace(1.0, 3.0, 11)
    cfg = EvolveConfig(dt_init=1e-3, dt_max=0.02)
    results = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u0, v0, sandwich = random_sandwiched_pair(unit_eta_profile, grid, 1.0, rng)
        res = contraction_experiment(u0, v0, weight_ref, times, cfg, sandwich=sandwich)
        results.append(res)
    stats = [r.u_final.stats for r in results] + [r.v_final.stats for r in results]
    return {"results": results, "stats": stats}


@pytest.fixture(scope="module")
def convergence_block(unit_eta_profile, params_ref, weight_ref):
    """Rescaled large-time runs over tau in [0, 3]: the orbit itself and a
    bump-perturbed power law."""
    grid = log_grid(1e-3, 1e3, 640)
    tau = np.linspace(0.0, 3.0, 13)
    cfg = EvolveConfig(dt_init=1e-4, dt_max=0.05, dt_rel_max=2.5e-4)
    t0 = time.perf_counter()
    orbit = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, None, tau, cfg,
                                   weight=weight_ref, r_grid=grid)
    bump_fn = power_bump_initial(params_ref, 1.0)
    bump = convergence_experiment(unit_eta_profile, 1.0, 1.0, 1.2, bump_fn, tau, cfg,
                                  weight=weight_ref, r_grid=grid)
    elapsed = time.perf_counter() - t0
    return {
        "orbit": orbit,
        "bump": bump,
        "elapsed": elapsed,
        "stats": [orbit.field_final.stats, bump.field_final.stats],
    }


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_derived_constants(params_ref, fp_ref, capsys):
    refs = [
        ("alpha", params_ref.alpha, Fraction(-10, 3)),
        ("beta", params_ref.beta, Fraction(-5, 6)),
        ("C1", params_ref.C1, Fraction(1)),
        ("C2", fp_ref.C2, Fraction(2)),
        ("C3", fp_ref.C3, Fraction(31, 60)),
        ("a1", params_ref.a1, Fraction(1, 2)),
        ("a2", params_ref.a2, Fraction(-25, 36)),
        ("a3", params_ref.a3, Fraction(5, 9)),
    ]
    worst = max(abs(v - float(ref)) / abs(float(ref)) for _, v, ref in refs)
    ok = worst <= 1e-14
    _emit(capsys, 1, "derived constants at the reference point", ok,
          f"worst rel err {worst:.2e} <= 1e-14")
    assert ok


def test_criterion_02_picard_contraction(tail_ref, capsys):
    """The residual gate 1e-10 was tuned at the reference point, where the
    residual reads 2.78e-12 over the whole tail.  Every point of the
    36-point admissible sweep reads below it: the worst is 8.99e-12, at
    (n, m, gamma) = (8, 0.375, 9.6), and the edge table's 1.06e-12."""
    max_ratio = float(np.max(tail_ref.update_ratios))
    res = tail_ref.fp_residual
    ok = max_ratio <= 0.25 and res <= 1e-10
    _emit(capsys, 2, "tail iteration contracts onto a fixed point", ok,
          f"max update ratio {max_ratio:.3g} <= 0.25, residual {res:.2e} <= 1e-10")
    assert ok


def test_criterion_03_pointwise_bounds(unit_eta_profile, capsys):
    p = unit_eta_profile.params
    # the table stores xi = log(h/(-z)), z = h - C1: a finite xi is
    # 0 < h < C1, and so -C1 < z < 0, where the floats h and z formed from
    # it can round to 0 or -C1
    n_viol = int(np.sum(~np.isfinite(unit_eta_profile.xi)))
    rfr = unit_eta_profile.rfr_over_f
    n_viol += int(np.sum(~(rfr <= -p.gamma)))
    n_viol += int(np.sum(~(rfr >= -(p.n - 2) / p.m)))
    ok = n_viol == 0
    _emit(capsys, 3, "pointwise bounds 0 < h < C1 and slope ratio window", ok,
          f"{n_viol} violations across {unit_eta_profile.xi.size} nodes")
    assert ok


def test_criterion_04_origin_and_far_field(base_profile, capsys):
    """The far-field coefficient eta_inf = 1 is the tail's fixed point: W +
    C1 s fixes it up to s_T, and tail_residual compares W with Phi_1(h) over
    the whole tail [b1, s_T], at 02's gate."""
    q_defect, res = base_profile.origin_q_defect, base_profile.fp_residual
    ok = q_defect <= _ORIGIN_Q_TOL and res <= 1e-10
    _emit(capsys, 4, "origin coefficient and far-field coefficient recovered", ok,
          f"origin series q defect {q_defect:.2e} <= {_ORIGIN_Q_TOL:g}, whole-tail "
          f"fixed-point residual {res:.2e} <= 1e-10")
    assert ok


def test_criterion_05_expansion_derivatives(unit_eta_profile, capsys):
    rep = expansion_check(unit_eta_profile)
    d1_ref, d2_ref = -0.8, -0.448
    e1 = abs(rep.d1 - d1_ref) / abs(d1_ref)
    e2 = abs(rep.d2 - d2_ref) / abs(d2_ref)
    ok = e1 <= 0.01 and e2 <= 0.02
    _emit(capsys, 5, "fitted expansion derivatives at the origin", ok,
          f"d1 {rep.d1:.6f} vs {d1_ref} ({e1:.2e} <= 1e-2), "
          f"d2 {rep.d2:.6f} vs {d2_ref} ({e2:.2e} <= 2e-2)")
    assert ok


def test_criterion_06_equation_residuals(unit_eta_profile, capsys):
    r_f = f_ode_residual(unit_eta_profile)
    r_w = wbar_ode_residual(unit_eta_profile)
    inv = inversion_report(unit_eta_profile)
    ok = r_f <= 1e-5 and r_w <= 1e-5 and inv.residual <= 1e-5 \
        and inv.double_inversion_err <= 1e-8
    _emit(capsys, 6, "equation residuals in all three formulations", ok,
          f"f {r_f:.2e}, wbar {r_w:.2e}, inverted {inv.residual:.2e} <= 1e-5; "
          f"double inversion {inv.double_inversion_err:.2e} <= 1e-8")
    assert ok


def test_criterion_07_weight_construction(weight_ref, capsys):
    """a4 against the frozen 30-digit value of an independent route, and the
    discrete Laplacian of phi nowhere positive on [0.05, 50]."""
    spec = weight_ref.spec
    a4_err = abs(weight_ref.a4 - A4_REF) / A4_REF

    x = np.linspace(math.log(0.05), math.log(50.0), 4001)
    dx = x[1] - x[0]
    r = np.exp(x)
    phi, _ = eval_weight(weight_ref, r)
    lap = np.exp(-2 * x[1:-1]) * (
        (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / dx**2
        + (spec.n - 2) * (phi[2:] - phi[:-2]) / (2 * dx)
    )
    lap_max = float(np.max(lap))

    ok = a4_err <= 1e-8 and lap_max <= 1e-8
    _emit(capsys, 7, "weight normalization and superharmonicity", ok,
          f"a4 vs frozen reference {a4_err:.2e} <= 1e-8, "
          f"max discrete Laplacian {lap_max:.2e} <= 1e-8")
    assert ok


def test_criterion_08_solver_accuracy(accuracy_block, capsys):
    orders = accuracy_block["orders"]
    all_orders = orders["barenblatt"] + orders["self-similar"]
    ok_orders = all(1.7 <= o <= 2.3 for o in all_orders)
    ok_const = accuracy_block["const_dev"] <= 1e-10
    ok_time = accuracy_block["t512"] <= 120.0
    ok = ok_orders and ok_const and ok_time
    _emit(capsys, 8, "spatial convergence order and exactness on constants", ok,
          f"orders {[f'{o:.2f}' for o in all_orders]} in [1.7, 2.3], "
          f"constant dev {accuracy_block['const_dev']:.2e} <= 1e-10, "
          f"512-node run {accuracy_block['t512']:.1f}s <= 120s")
    assert ok


def test_criterion_09_weighted_contraction(contraction_block, capsys):
    worst = -math.inf
    all_ok = True
    for res in contraction_block["results"]:
        slack = 1e-6 * (1.0 + float(res.dist_abs[0]))
        for seq in (res.dist_abs, res.dist_pos):
            inc = float(np.max(np.diff(seq)))
            worst = max(worst, inc - slack)
            all_ok &= inc <= slack
    n_times = contraction_block["results"][0].times.size
    ok = all_ok and n_times >= 10
    _emit(capsys, 9, "weighted-L1 contraction for sandwiched pairs", ok,
          f"5 pairs x {n_times} times, worst (increment - slack) {worst:.2e} <= 0")
    assert ok


def test_criterion_10_large_time_convergence(convergence_block, capsys):
    orbit = convergence_block["orbit"]
    rel_orbit = float(np.max(orbit.dist_l1w)) / orbit.norm_ref
    ok_orbit = rel_orbit <= 5e-3

    bump = convergence_block["bump"]
    after = bump.tau_grid >= 0.5
    seq = bump.dist_l1w[after]
    slack = 1e-6 * (1.0 + float(bump.dist_l1w[0]))
    ok_decreasing = bool(np.all(np.diff(seq) <= slack))
    ratio = float(bump.dist_l1w[-1] / bump.dist_l1w[0])
    ok_final = ratio <= 0.1
    ok_time = convergence_block["elapsed"] <= 600.0

    ok = ok_orbit and ok_decreasing and ok_final and ok_time
    # the step sequence of each run, printed so that a change to it shows;
    # no gate reads it
    steps = "; ".join(f"{name} n_steps {st.n_steps}, newton_total {st.newton_total}, "
                      f"n_rejected {st.n_rejected}"
                      for name, st in zip(("orbit", "bump"), convergence_block["stats"]))
    _emit(capsys, 10, "rescaled solutions converge to the limit profile", ok,
          f"orbit rel distance {rel_orbit:.2e} <= 5e-3; perturbed decreasing past "
          f"tau=0.5: {ok_decreasing}, final/initial {ratio:.3f} <= 0.1; "
          f"runtime {convergence_block['elapsed']:.0f}s <= 600s; {steps}")
    assert ok


def test_criterion_11_decay_bound(accuracy_block, contraction_block, convergence_block,
                                  params_ref, capsys):
    all_stats = (accuracy_block["stats"] + contraction_block["stats"]
                 + convergence_block["stats"])
    ab = [s.ab_max for s in all_stats]
    worst = max(ab)
    ok = worst <= 1e-6
    _emit(capsys, 11, "discrete decay bound u_t <= u/((1-m)t) on every evolved field", ok,
          f"{len(ab)} evolved fields, worst relative margin {worst:.3e} <= 1e-6")
    assert ok

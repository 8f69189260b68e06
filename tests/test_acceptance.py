"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
The rate studies use the frozen presets, each checked against the slope
window of its ``PRESETS`` row; seeds and grids are pinned so the measured
slopes are reproducible bit for bit.
"""

import time

import numpy as np

from tracereg.checks import run_all_checks
from tracereg.datagen import (ProblemSpec, draw_noise, make_noisy,
                              make_problem, scale_noise)
from tracereg.experiments import PRESETS, fit_rate, run_sweep
from tracereg.func1d import GridFunction, norm
from tracereg.operators import apply_T2alpha
from tracereg.regularizer import (Mode, RegularizationParams,
                                  reconstruct_exact, reconstruct_noisy)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _rate_study(name: str):
    """Run a preset; return its report, whether its slope lies in the
    preset's window, and a one-line account."""
    study = PRESETS[name]
    report = run_sweep(study.config)
    slope = (report.fitted_slope_l2 if study.norm == "L2"
             else report.fitted_slope_h1)
    lo, hi = study.window
    return (report, lo <= slope <= hi,
            f"{study.norm} slope {slope:.3f} in [{lo}, {hi}]")


def test_criterion_1_exact_data_bound_and_closed_form():
    t0 = time.perf_counter()
    prob = make_problem(ProblemSpec())         # a0 = 1 - t, identity, n = 2001
    x = prob.a0.nodes
    a0_prime_l2 = norm(GridFunction(prob.a0.interval,
                                    np.gradient(prob.a0.values, x, edge_order=2)), "L2")
    worst_ratio, worst_sup = 0.0, 0.0
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4):
        rec = reconstruct_exact(prob, RegularizationParams(alpha=alpha))
        err = norm(prob.a0 - rec.a_alpha, "L2")
        worst_ratio = max(worst_ratio, err / (np.sqrt(alpha) * a0_prime_l2))
        ra = np.sqrt(alpha)
        closed = (1.0 - x) + ra * np.sinh((x - 1.0) / ra) / np.cosh(1.0 / ra)
        worst_sup = max(worst_sup, np.abs(rec.a_alpha.values - closed).max())
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.05 and worst_sup <= 1e-5 and elapsed < 1.0
    _report("1 exact-data bound",
            ok, f"err/bound <= {worst_ratio:.3f}, closed-form sup "
                f"{worst_sup:.2e}, {elapsed:.2f}s")


def test_criterion_2_noisy_sqrt_delta_rate():
    t0 = time.perf_counter()
    report, ok, detail = _rate_study("rate_c1_h1")
    elapsed = time.perf_counter() - t0
    ok = ok and report.r_squared >= 0.95 and elapsed < 30.0
    _report("2 noisy O(sqrt(delta)) rate",
            ok, f"{detail}, r2 {report.r_squared:.3f}, {elapsed:.1f}s")


def test_criterion_3_smooth_source_two_thirds_rate():
    t0 = time.perf_counter()
    _, ok, detail = _rate_study("rate_c1_h3_l2")
    elapsed = time.perf_counter() - t0
    _report("3 smooth-source O(delta^(2/3)) rate",
            ok and elapsed < 30.0, f"{detail}, {elapsed:.1f}s")


def test_criterion_4_h1_rate_smooth_source():
    _, ok, detail = _rate_study("rate_c1_h3_h1")
    _report("4 H1 O(sqrt(delta)) rate", ok, detail)


def test_criterion_5_rough_data_rates():
    details, ok = [], True
    for name in ("rate_l2_h1", "rate_l2_h2", "rate_l2_h3"):
        _, good, detail = _rate_study(name)
        ok = ok and good
        details.append(f"{name.split('_')[-1]}: {detail}")
    _report("5 rough-data rates", ok, "; ".join(details))


def test_criterion_6_shifted_endpoint():
    _, ok, detail = _rate_study("rate_c1_shift")
    # with identical trace noise and no composite noise the shifted
    # reconstruction equals the unshifted one plus the constant
    base = make_problem(ProblemSpec(a0="linear"))
    shifted = make_problem(ProblemSpec(a0="linear_plus2", c_end=2.0))
    rb = reconstruct_noisy(base, make_noisy(base, "C1", 0.0, 1e-3, seed=0),
                           RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))
    rs = reconstruct_noisy(shifted, make_noisy(shifted, "C1", 0.0, 1e-3, seed=0),
                           RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1,
                                                shift_c=2.0))
    gap = np.abs(rs.a_alpha.values - (rb.a_alpha.values + 2.0)).max()
    ok = ok and gap <= 1e-8
    _report("6 shifted endpoint value",
            ok, f"{detail}, shift consistency {gap:.2e} <= 1e-8")


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    results = run_all_checks()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 20.0
    _report("7 operator property suite",
            ok, f"{len(results)} checks, failures {failed or 'none'}, "
                f"{elapsed:.1f}s")


def test_criterion_8_pipeline_consistency():
    prob = make_problem(ProblemSpec())
    h = prob.a0.spacing
    # zero-noise reconstruction must coincide with the exact pipeline
    worst_match = 0.0
    for alpha in (1e-1, 1e-2, 1e-3):
        noisy = make_noisy(prob, "C1", 0.0, 0.0, seed=0)
        r_n = reconstruct_noisy(prob, noisy,
                                RegularizationParams(alpha=alpha,
                                                     mode=Mode.NOISY_C1))
        r_e = reconstruct_exact(prob, RegularizationParams(alpha=alpha))
        worst_match = max(worst_match,
                          np.abs(r_n.a_alpha.values - r_e.a_alpha.values).max())
    # forward/backward residual on exact and noisy runs
    worst_resid = 0.0
    runs = [reconstruct_exact(prob, RegularizationParams(alpha=1e-2))]
    for seed in range(3):
        runs.append(reconstruct_noisy(
            prob, make_noisy(prob, "C1", 1e-3, 1e-3, seed=seed),
            RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1)))
    for rec in runs:
        back = apply_T2alpha(rec.params.alpha, rec.b_alpha)
        resid = np.abs(back.values[1:-1] - rec.zeta_used.values[1:-1]).max()
        scale = max(np.abs(rec.zeta_used.values).max(), 1.0)
        worst_resid = max(worst_resid, resid / (10.0 * h**2 * scale))
    ok = worst_match <= 1e-10 and worst_resid <= 1.0
    _report("8 pipeline consistency",
            ok, f"zero-noise match {worst_match:.2e} <= 1e-10, "
                f"residual/NokBound {worst_resid:.3f} <= 1")


def test_criterion_9_seed_free_rough_rate():
    # rate_l2_h1 at zero noise: each delta's own mesh and alpha, no seed.
    # The image cut at g1 that the projection leaves carries the quarter
    # rate, so the seed-free slope must lie in the preset's own window.
    study = PRESETS["rate_l2_h1"]
    config = study.config
    problem = make_problem(config.problem)
    noisy = scale_noise(problem, draw_noise(problem, "L2", 0), 0.0, 0.0)
    pairs = []
    for delta in config.delta_list:
        _, _, params = config.cell(delta)
        rec = reconstruct_noisy(problem, noisy, params)
        pairs.append((delta, norm(problem.a0 - rec.a_alpha, study.norm)))
    slope, r2 = fit_rate(pairs)
    lo, hi = study.window
    _report("9 seed-free rough-data rate", lo <= slope <= hi,
            f"zero-noise {study.norm} slope {slope:.4f} in [{lo}, {hi}], "
            f"r2 {r2:.3f}")

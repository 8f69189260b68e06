import tempfile
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracereg import cli
from tracereg.checks import CheckResult
from tracereg.cli import main
from tracereg.datagen import (A0_FORMULAS, COMPOSITE_FORMULAS, ProblemSpec,
                              make_noisy, make_problem)
from tracereg.errors import ConfigError, InsufficientData, TracregError
from tracereg.func1d import norm
from tracereg.experiments import (PRESETS, ExperimentConfig, RateReport,
                                  RateRow, _assemble_report, config_from_dict,
                                  fit_rate, parse_config, preset, run_sweep,
                                  snap_cells, write_rates, write_solution)
from tracereg.regularizer import Mode, reconstruct_noisy


def small_config(**kw):
    base = dict(problem=ProblemSpec(n=401), mode=Mode.NOISY_C1,
                alpha_rule="delta", delta_list=(1e-2, 1e-3, 1e-4),
                seeds=(0, 1))
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ fit_rate

def test_fit_rate_linear():
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    slope, r2 = fit_rate([(d, d) for d in deltas])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_sqrt():
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    slope, r2 = fit_rate([(d, np.sqrt(d)) for d in deltas])
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_jittered_two_thirds():
    rng = np.random.default_rng(0)
    deltas = np.logspace(-2, -6, 6)
    pairs = [(d, 3.0 * d ** (2.0 / 3.0) * (1.0 + 0.01 * rng.uniform(-1, 1)))
             for d in deltas]
    slope, r2 = fit_rate(pairs)
    assert 0.63 <= slope <= 0.70
    assert r2 > 0.99


def test_fit_rate_insufficient():
    with pytest.raises(InsufficientData):
        fit_rate([(1e-2, 0.1), (1e-3, 0.05)])
    with pytest.raises(InsufficientData):
        fit_rate([(1e-2, 0.1), (1e-3, 0.0), (1e-4, 0.01)])


# ------------------------------------------------------------ config

def test_snap_cells_divisors():
    assert snap_cells(2001, 100.0) == 100
    n = snap_cells(2001, 31.6)
    assert (2001 - 1) % n == 0
    assert 2000 // n >= 5
    # 11 and 7 steps: no mesh of 2 or more cells has 5 steps a cell
    for n in (12, 8):
        with pytest.raises(ConfigError, match=f"grid size {n} "):
            snap_cells(n, 2.0)


def _snap_cells_loop(n, target):
    # snap_cells as every candidate cell count in turn would find it
    divs = [d for d in range(2, (n - 1) // 5 + 1) if (n - 1) % d == 0]
    if not divs:
        return None
    return min(divs, key=lambda d: abs(np.log(d / target)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 70_000), log_target=st.floats(-1.0, 6.0))
@example(n=12, log_target=0.3)      # no mesh: 11 steps
@example(n=64001, log_target=2.0)   # the rate_l2_h1 grid
def test_snap_cells_equals_the_candidate_loop(n, log_target):
    # the divisor pairs against the loop over every candidate, ties and the
    # grids without a mesh included
    target = 10.0 ** log_target
    want = _snap_cells_loop(n, target)
    if want is None:
        with pytest.raises(ConfigError, match=f"grid size {n} admits no usable"):
            snap_cells(n, target)
    else:
        assert snap_cells(n, target) == want


@pytest.mark.parametrize("n, smaller, larger", ((31, 3, 5), (61, 6, 10), (56, 5, 11)))
def test_snap_cells_breaks_a_tie_toward_the_smaller_count(n, smaller, larger):
    # at the geometric mean of two cell counts their log distances are
    # equal to the bit, and no other count is nearer
    target = float(np.sqrt(smaller * larger))
    assert abs(np.log(smaller / target)) == abs(np.log(larger / target))
    assert snap_cells(n, target) == _snap_cells_loop(n, target) == smaller


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(delta_list=(1e-3, 1e-2))        # not decreasing
    with pytest.raises(ConfigError):
        small_config(alpha_rule="cubic_rule")
    with pytest.raises(ConfigError):
        small_config(mode=Mode.EXACT)
    cfg = small_config(alpha_rule="sqrt_delta")
    assert cfg.alpha_for(1e-4) == pytest.approx(1e-2)
    assert cfg.eps_for(1e-3) == 1e-3


def test_parse_config_roundtrip(tmp_path):
    text = """
    # comment line
    mode = noisy_c1
    a0 = cosine
    composite = identity
    n = 801
    alpha_rule = delta_23
    delta_list = 1e-3, 1e-4, 1e-5
    seeds = 0, 1
    output_dir = results
    """
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = parse_config(str(path))
    assert cfg.problem.a0 == "cosine"
    assert cfg.problem.n == 801
    assert cfg.alpha_rule == "delta_23"
    assert cfg.delta_list == (1e-3, 1e-4, 1e-5)
    assert cfg.output_dir == "results"


def _as_text(value):
    if isinstance(value, tuple):
        return ", ".join(map(_as_text, value))
    return value.value if isinstance(value, Mode) else str(value)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_parse_config_reads_back_every_field(tmp_path, name):
    # every field written as key = value reads back with its type; the
    # repr tells 2001 from 2001.0 and True from 1, which == does not
    config = PRESETS[name].config
    items = [(f.name, getattr(config.problem, f.name))
             for f in fields(ProblemSpec)]
    items += [(f.name, getattr(config, f.name))
              for f in fields(ExperimentConfig) if f.name != "problem"]
    path = tmp_path / "preset.cfg"
    path.write_text("".join(f"{k} = {_as_text(v)}\n" for k, v in items))
    parsed = parse_config(str(path))
    assert parsed == config and repr(parsed) == repr(config)


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("modee = noisy_c1\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))
    path.write_text("mode noisy_c1\n")
    with pytest.raises(ConfigError, match="bad.cfg:1: expected key = value"):
        parse_config(str(path))
    with pytest.raises(ConfigError):
        config_from_dict({"a0": "unknown_formula"})


# ------------------------------------------------------------ sweeps

def test_run_sweep_basic():
    report = run_sweep(small_config())
    assert len(report.rows) == 6
    assert all(not r.failure for r in report.rows)
    assert 0.2 <= report.fitted_slope_l2 <= 0.9


def test_sweep_determinism(tmp_path):
    cfg = small_config()
    r1 = run_sweep(cfg)
    r2 = run_sweep(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_rates(r1, str(d1))
    write_rates(r2, str(d2))
    assert (d1 / "rates.csv").read_bytes() == (d2 / "rates.csv").read_bytes()
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()
    assert (d1 / "rates.dat").exists() and (d1 / "summary.dat").exists()


PINNED_OUTPUT = {
    "rates.csv": "delta,seed,alpha,eps,h,err_l2,err_h1\n"
                 "0.01,0,0.01,0.01,0.125,0.25,0.5\n"
                 "0.001,1,0.001,0.001,0.0625,nan,nan\n"
                 "1.0000000000000001e-05,2,1.0000000000000001e-05,"
                 "1.0000000000000001e-05,0.33333333333333331,"
                 "0.66666666666666663,9.9999999999999995e-08\n",
    "rates.dat": "# delta seed alpha eps h err_l2 err_h1\n"
                 "0.01 0 0.01 0.01 0.125 0.25 0.5\n"
                 "0.001 1 0.001 0.001 0.0625 nan nan\n"
                 "1.0000000000000001e-05 2 1.0000000000000001e-05 "
                 "1.0000000000000001e-05 0.33333333333333331 "
                 "0.66666666666666663 9.9999999999999995e-08\n",
    "summary.csv": "slope_l2,slope_h1,r_squared,rows_ok,rows_failed,"
                   "excluded_deltas\n"
                   "0.5,0.33333333333333331,0.98999999999999999,2,1,"
                   "0.01;1.0000000000000001e-05\n",
    "summary.dat": "# slope_l2 slope_h1 r_squared rows_ok rows_failed "
                   "excluded_deltas\n"
                   "0.5 0.33333333333333331 0.98999999999999999 2 1 "
                   "0.01;1.0000000000000001e-05\n",
    # the reason keeps its commas in both files
    "failures.csv": "delta,seed,reason\n"
                    "0.001,1,\"MeshConditionViolated: h=6.250e-02, "
                    "eps=1.000e-03, delta=1e-3\"\n",
    "failures.dat": "# delta seed reason\n"
                    "0.001 1 \"MeshConditionViolated: h=6.250e-02, "
                    "eps=1.000e-03, delta=1e-3\"\n",
    "a_alpha.csv": "x,a0,a_alpha\n0,1,0.90000000000000002\n"
                   "0.5,0.5,0.33333333333333331\n1,0,-0\n",
    "a_alpha.dat": "# x a0 a_alpha\n0 1 0.90000000000000002\n"
                   "0.5 0.5 0.33333333333333331\n1 0 -0\n",
}


def test_report_files_pinned_bytes(tmp_path):
    rows = (RateRow(1e-2, 0, 1e-2, 1e-2, 0.125, 0.25, 0.5),
            RateRow(1e-3, 1, 1e-3, 1e-3, 0.0625, float("nan"), float("nan"),
                    failure="MeshConditionViolated: h=6.250e-02, "
                            "eps=1.000e-03, delta=1e-3"),
            RateRow(1e-5, 2, 1e-5, 1e-5, 1 / 3, 2 / 3, 1e-7))
    write_rates(RateReport(rows, 0.5, 1 / 3, 0.99, (1e-2, 1e-5)), str(tmp_path))
    write_solution(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0]),
                   np.array([0.9, 1 / 3, -0.0]), str(tmp_path))
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert got == {k: v.encode() for k, v in PINNED_OUTPUT.items()}
    # no failures.* without a failed row
    clean = tmp_path / "clean"
    write_rates(RateReport(rows[:1], 0.5, 1 / 3, 0.99), str(clean))
    assert sorted(p.name for p in clean.iterdir()) == [
        "rates.csv", "rates.dat", "summary.csv", "summary.dat"]


def test_sweep_cells_independent_of_subset():
    full = run_sweep(small_config(delta_list=(1e-2, 1e-3, 1e-4, 1e-5)))
    sub = run_sweep(small_config(delta_list=(1e-3, 1e-4, 1e-5)))
    by_key = {(r.delta, r.seed): r for r in full.rows}
    for r in sub.rows:
        ref = by_key[(r.delta, r.seed)]
        assert r.err_l2 == ref.err_l2 and r.err_h1 == ref.err_h1


def _cell_by_cell(config):
    # reference: one make_noisy per (delta, seed) cell, delta-major
    problem = make_problem(config.problem)
    rows = []
    for delta in config.delta_list:
        kind, eps, params = config.cell(delta)
        h = params.mesh_h or 0.0
        for seed in config.seeds:
            try:
                rec = reconstruct_noisy(
                    problem, make_noisy(problem, kind, eps, delta, seed),
                    params)
                diff = problem.a0 - rec.a_alpha
                rows.append(RateRow(delta, seed, params.alpha, eps, h,
                                    norm(diff, "L2"), norm(diff, "H1")))
            except TracregError as exc:
                rows.append(RateRow(delta, seed, params.alpha, eps, h,
                                    float("nan"), float("nan"),
                                    f"{type(exc).__name__}: {exc}"))
    return rows


def _fields_of(row):
    # NaN errors compare by their bits
    return [v.hex() if isinstance(v, float) else v for v in astuple(row)]


def test_sweep_rows_match_cell_by_cell_draws():
    # repeated seeds and failed cells keep their delta-major places
    cfg = ExperimentConfig(problem=ProblemSpec(a0="cosine", n=401),
                           mode=Mode.NOISY_L2, h_rule="fixed", h_value=0.1,
                           delta_list=(1e-2, 1e-3, 1e-4, 1e-5),
                           seeds=(3, 1, 3))
    got = run_sweep(cfg).rows
    want = _cell_by_cell(cfg)
    assert len(got) == 12
    failed = [r for r in got if r.failure]
    assert [(r.delta, r.seed) for r in failed] == [(1e-2, 3), (1e-2, 1),
                                                   (1e-2, 3)]
    assert all(r.failure.startswith("MeshConditionViolated: ")
               for r in failed)
    assert [_fields_of(r) for r in got] == [_fields_of(r) for r in want]


def test_sweep_rows_match_cell_by_cell_when_a_delta_splits():
    # on a grid step of 8 doubles, rounding of the noisy samples decides,
    # seed by seed, whether their stencil derivative leaves the bracket:
    # seeds 1 and 3 fail stage 1 at every delta, 0 and 2 reach the shared
    # banded solve, so each delta's block has a column per surviving seed
    cfg = ExperimentConfig(problem=ProblemSpec(n=51, lo=1.0,
                                               hi=1.0000000000000888),
                           mode=Mode.NOISY_C1, eps_rule="fixed",
                           eps_value=8e-16, delta_list=(1e-2, 1e-3, 1e-4),
                           seeds=(0, 1, 2, 3, 3))
    got = run_sweep(cfg).rows
    assert [_fields_of(r) for r in got] == [_fields_of(r) for r in _cell_by_cell(cfg)]
    assert [r.seed for r in got if r.failure] == [1, 3, 3] * 3
    assert all(r.failure.startswith("MonotonicityViolation: numerical "
                                    "derivative leaves the declared bracket")
               for r in got if r.failure)


def _report_of_means(means, **changes):
    # one row per delta of rate_c1_h1's delta list; a None mean is a
    # failed row, so that delta has no mean
    config = replace(PRESETS["rate_c1_h1"].config, **changes)
    grid = [[RateRow(d, 0, d, d, 0.0, m, 2.0 * m) if m is not None else
             RateRow(d, 0, d, d, 0.0, float("nan"), float("nan"), failure="x")]
            for d, m in zip(config.delta_list, means)]
    return _assemble_report(grid, config)


def test_saturated_head_delta_is_excluded(tmp_path, monkeypatch, capsys):
    # the head step's slope is below half the rest's: 1e-2 is saturated
    means = (1.0, 0.99, 0.099, 0.0099)
    report = _report_of_means(means)
    assert report.excluded_deltas == (1e-2,)
    assert report.fitted_slope_l2 == pytest.approx(1.0)
    kept = _report_of_means(means, exclude_saturated=False)
    assert kept.excluded_deltas == ()
    assert kept.fitted_slope_l2 == pytest.approx(0.701, abs=5e-4)
    # fewer than four means never exclude
    assert _report_of_means(means[:3] + (None,)).excluded_deltas == ()

    write_rates(report, str(tmp_path))
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].endswith(",excluded_deltas") and summary[1].endswith(",0.01")
    monkeypatch.setattr(cli, "run_sweep", lambda config: report)
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["sweep", "--config", cfg]) == 0
    assert ", excluded deltas: 0.01\n" in capsys.readouterr().out


def test_sweep_eps_bound_checked():
    with pytest.raises(ConfigError):
        run_sweep(small_config(delta_list=(0.3, 1e-2)))


def test_presets_exist():
    for name in ("rate_c1_h1", "rate_c1_h3_l2", "rate_c1_h3_h1",
                 "rate_c1_shift", "rate_l2_h1", "rate_l2_h2", "rate_l2_h3"):
        cfg = preset(name)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.output_dir == f"out/{name}"
        assert PRESETS[name].norm in ("L2", "H1")
    with pytest.raises(ConfigError):
        preset("rate_nope")


# ------------------------------------------------------------ CLI

def write_cfg(tmp_path, **extra):
    lines = ["mode = noisy_c1", "n = 401", "delta_list = 1e-2, 1e-3, 1e-4",
             "seeds = 0, 1"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "cli.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_sweep_and_solve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["sweep", "--config", cfg]) == 0
    assert (tmp_path / "out" / "rates.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert main(["solve", "--config", cfg]) == 0
    header = (tmp_path / "out" / "a_alpha.csv").read_text().splitlines()[0]
    assert header == "x,a0,a_alpha"


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "none.cfg")
    assert main(["sweep", "--config", missing]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = warp\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    # numerical failure: one delta leaves too few (delta, error) pairs for
    # a rate fit (the same setup with three deltas succeeds)
    cfg = write_cfg(tmp_path, mode="noisy_l2", h_rule="fixed", h_value=0.25,
                    delta_list="1e-2", output_dir=str(tmp_path / "o2"))
    capsys.readouterr()
    assert main(["sweep", "--config", cfg]) == 2
    assert "InsufficientData" in capsys.readouterr().err
    # direct numerical failure through solve on an inadmissible setup
    cfg2 = write_cfg(tmp_path, mode="noisy_l2", h_rule="fixed", h_value=0.5,
                     delta_list="2e-1", output_dir=str(tmp_path / "o3"))
    assert main(["solve", "--config", cfg2]) == 2


def test_cli_unwritable_output_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    def never(*_args):
        raise AssertionError("reconstructed before checking output_dir")

    # the directory is made before any cell runs
    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "reconstruct_noisy", never)
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / "afile" / "sub")   # a directory under a regular file
    cfg = write_cfg(tmp_path, output_dir=out)
    for command in ("sweep", "solve"):
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"cannot write output_dir {out}" in err and "Traceback" not in err


@pytest.mark.parametrize("extra, cells, message", [
    # a 10-cell mesh on 40 grid steps: the gate fails at 1e-2, then every
    # cell is too coarse for the grid
    pytest.param({"n": 41, "h_value": 0.1,
                  "delta_list": "1e-2, 1e-3, 1e-4, 1e-5"}, 20,
                 "got 0; 20 cells failed, the first at delta=1.000e-02, "
                 "seed=0: MeshConditionViolated: mesh width and noise level "
                 "fail", id="all_cells_fail"),
    # 7 cells do not divide 400 grid steps
    pytest.param({"n": 401, "h_value": 0.14285714285714285,
                  "delta_list": "1e-3, 1e-4, 1e-5"}, 15,
                 "got 0; 15 cells failed, the first at delta=1.000e-03, "
                 "seed=0: GridTooCoarse: mesh breakpoints must be grid nodes",
                 id="unaligned_mesh"),
    # the mesh gate fails the two largest deltas
    pytest.param({"n": 401, "h_value": 0.5,
                  "delta_list": "1e-1, 5e-2, 2e-2"}, 15,
                 "got 1; 10 cells failed, the first at delta=1.000e-01, "
                 "seed=0: MeshConditionViolated: mesh width and noise level "
                 "fail", id="two_deltas_fail"),
])
def test_sweep_without_a_fit_names_the_failed_hypothesis(tmp_path, capsys,
                                                         extra, cells, message):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, mode="noisy_l2", h_rule="fixed",
                    seeds="0, 1, 2, 3, 4", output_dir=str(out), **extra)
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert ("numerical failure (InsufficientData): need >= 3 pairs for a "
            "rate fit, " + message) in err
    # every cell that ran is written, and no summary without a fit
    failed = int(message.split("; ")[1].split()[0])
    rates = (out / "rates.csv").read_text().splitlines()
    failures = (out / "failures.csv").read_text().splitlines()
    assert rates[0] == "delta,seed,alpha,eps,h,err_l2,err_h1"
    assert failures[0] == "delta,seed,reason"
    assert len(rates) == 1 + cells and len(failures) == 1 + failed
    assert sum(row.endswith("nan,nan") for row in rates) == failed
    assert message.split(": ", 1)[1] in failures[1]
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("extra, key", [
    ({"alpha_rule": "fixed"}, "alpha_value"),
    ({"mode": "noisy_l2", "h_rule": "fixed"}, "h_value"),
    ({"mode": "noisy_l2", "h_rule": "fixed", "h_value": 0.3}, "h_value"),
    ({"n": 2000.5}, "'n'"),
    ({"eps_rule": "fixed", "eps_value": 1e-3, "delta_list": "2, 1e-1, 1e-2"},
     "delta_list"),
    ({"lo": 1, "hi": 0}, "lo and hi"),
    ({"hi": "inf"}, "lo and hi"),
    ({"lo": "nan"}, "lo and hi"),
    ({"n": 2}, "n must be"),
    ({"eps_rule": "fixed", "eps_value": -1e-3}, "eps_value"),
    ({"exclude_saturated": "flase"}, "exclude_saturated"),
    ({"delta_list": "0.3, 0.1, 0.01"}, "delta_list"),
    ({"eps_rule": "fixed", "eps_value": 0.5}, "eps_value"),
    ({"c_end": "nan"}, "c_end"),
    ({"shift_c": "nan"}, "shift_c"),
    ({"seeds": -1}, "seeds"),
    ({"alpha_rule": "fixed", "alpha_value": 0.5, "delta_list": "nan"},
     "delta_list"),
    ({"alpha_rule": "fixed", "alpha_value": 0.5, "delta_list": "1e-2, nan"},
     "delta_list"),
    ({"alpha_rule": "fixed", "alpha_value": 0.5, "eps_rule": "fixed",
      "delta_list": "inf"}, "delta_list"),
    ({"alpha_rule": "fixed", "alpha_value": 0.5, "eps_rule": "fixed",
      "delta_list": "1e308"}, "delta_list"),
    ({"lo": 1e300, "hi": 1.7e308}, "lo and hi"),
    ({"shift_c": 1e308}, "shift_c"),
    ({"seeds": "0, x"}, "seeds"),
    ({"delta_list": "1e-2, x"}, "delta_list"),
    # read through a double, 2**53 + 1 would silently become 2**53
    ({"seeds": "0, 9007199254740993"}, "seeds"),
    # grid steps below the resolution of doubles near the interval
    ({"lo": "1", "hi": "1.000000000000001"}, "lo and hi"),
    ({"lo": "9.99999999999999e99", "hi": "1e100"}, "lo and hi"),
    ({"eps_rule": "nope"}, "eps_rule"),
    ({"mode": "noisy_l2", "h_rule": "nope"}, "h_rule"),
])
def test_cli_rejects_broken_config(tmp_path, capsys, extra, key):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), **extra)
    for command in ("sweep", "solve"):
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


@pytest.mark.parametrize("mode, codes", [("noisy_c1", (0,)),
                                         ("noisy_l2", (0, 2))])
def test_cli_runs_at_range_edge(tmp_path, mode, codes):
    # |lo|, |hi| <= 1e100 is the supported range; its edge runs or fails
    # with a named hypothesis, never with an overflow
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), mode=mode,
                    lo=-1e100, hi=1e100)
    for command in ("sweep", "solve"):
        assert main([command, "--config", cfg]) in codes


_FIXED_RULES = {"alpha_rule": "fixed", "alpha_value": 0.5}


@pytest.mark.parametrize("extra, codes, messages", [
    # a grid step of one double spacing: dual cells of the zero extension
    # round to zero width
    pytest.param({"lo": "1", "hi": "1.0000000000000888", "eps_rule": "fixed",
                  "eps_value": 0, **_FIXED_RULES},
                 {"sweep": (0, 2), "solve": (0, 2), "exact": (0, 2)}, {},
                 id="zero_width_dual_cells"),
    # h**2 underflows, so the banded solve's alpha/h**2 is infinite
    pytest.param({"lo": 0, "hi": "1e-160", **_FIXED_RULES},
                 {"sweep": (1,), "solve": (1,), "exact": (2,)},
                 {"exact": "alpha/h**2"}, id="h_squared_underflow"),
    # 11 steps: no divisor leaves a projection cell 5 steps, so the noisy
    # commands reject the config; the exact solve projects nothing
    pytest.param({"mode": "noisy_l2", "n": 12},
                 {"sweep": (1,), "solve": (1,), "exact": (0,)},
                 dict.fromkeys(("sweep", "solve"), "config error: grid size 12 "
                               "admits no usable projection mesh"),
                 id="no_projection_mesh"),
])
def test_cli_degenerate_grid_exits_cleanly(tmp_path, capsys, extra, codes, messages):
    # messages: the text each named command must print on stderr
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), **extra)
    for name, command in (("sweep", ["sweep"]), ("solve", ["solve"]),
                          ("exact", ["solve", "--exact"])):
        assert main(command + ["--config", cfg]) in codes[name]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert messages.get(name, "") in err


_GARBAGE = ["nan", "inf", "-inf", "-1", "0", "1e308", "", "abc"]


def _values(*valid):
    # about half the draws are valid, so many files get past parsing
    return st.one_of(st.sampled_from([str(v) for v in valid]),
                     st.sampled_from(_GARBAGE))


_FUZZ_KEYS = {
    "mode": _values("noisy_c1", "noisy_l2", "exact"),
    "a0": _values(*sorted(A0_FORMULAS)),
    "composite": _values(*sorted(COMPOSITE_FORMULAS)),
    "lo": _values(0, -1, 0.5, 1e100),
    "hi": _values(1, 2, 1e100),
    # capped at 401 nodes: no draw allocates a large grid
    "n": st.one_of(st.integers(3, 401).map(str), st.sampled_from(
        ["nan", "inf", "-inf", "-1", "0", "", "abc", "300.5"])),
    "c_end": _values(0, 2),
    "shift_c": _values(0, 2),
    "alpha_rule": _values("fixed", "sqrt_delta", "delta", "delta_23"),
    "alpha_value": _values(0.5, 1e-3),
    "delta_list": st.lists(_values(0.3, 1e-2, 1e-3, 1e-4, 2),
                           min_size=1, max_size=3).map(", ".join),
    "eps_rule": _values("equal_delta", "fixed"),
    "eps_value": _values(1e-3, 0.5),
    "h_rule": _values("sqrt_delta", "fixed"),
    # 1/7 is a valid width whose mesh does not divide most grids
    "h_value": _values(0.25, 0.1, 0.3, 0.14285714285714285),
    "seeds": st.lists(_values(0, 1, 3), min_size=1, max_size=2).map(", ".join),
    "exclude_saturated": _values("true", "no", "flase"),
    "modee": _values("noisy_c1"),
}


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_FUZZ_KEYS)), st.none())
       .flatmap(lambda keys: st.fixed_dictionaries(
           {k: _FUZZ_KEYS[k] for k in keys})))
def test_cli_fuzzed_config_keeps_exit_contract(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        lines = [f"{k} = {v}" for k, v in entries.items()]
        path.write_text("\n".join(lines + [f"output_dir = {tmp}/out"]) + "\n")
        sweep = main(["sweep", "--config", str(path)])
        solve = main(["solve", "--config", str(path)])
    assert sweep in (0, 1, 2) and solve in (0, 1, 2)
    if sweep == 1:
        assert solve == 1


def test_cli_solve_rejects_alpha_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["solve", "--config", cfg, "--alpha", "2"]) == 1
    assert "--alpha" in capsys.readouterr().err


def test_cli_solve_with_alpha_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["solve", "--config", cfg, "--alpha", "0.05"]) == 0
    assert "(alpha=5.000e-02)" in capsys.readouterr().out
    config = parse_config(cfg)
    problem = make_problem(config.problem)
    delta = config.delta_list[0]
    kind, eps, params = config.cell(delta)
    rec = reconstruct_noisy(problem, make_noisy(problem, kind, eps, delta, config.seeds[0]),
                            replace(params, alpha=0.05))
    written = np.loadtxt(tmp_path / "out" / "a_alpha.csv", delimiter=",", skiprows=1)
    assert np.array_equal(written[:, 2], rec.a_alpha.values)


def test_cli_needs_config_or_preset(capsys):
    for command in ("sweep", "solve"):
        assert main([command]) == 1
        assert "need --config FILE or --preset NAME" in capsys.readouterr().err


def test_cli_solve_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--preset", "rate_c1_h1"]) == 0
    assert "wrote out/rate_c1_h1/a_alpha.csv" in capsys.readouterr().out
    header = (tmp_path / "out" / "rate_c1_h1" / "a_alpha.csv").read_text().splitlines()[0]
    assert header == "x,a0,a_alpha"


def test_cli_check(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_failing_property(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all_checks", lambda: [
        CheckResult("holds", True, "fine"), CheckResult("breaks", False, "off")])
    assert main(["check"]) == 2
    out, err = capsys.readouterr()
    assert "FAIL  breaks: off" in out and "1 properties failed" in err

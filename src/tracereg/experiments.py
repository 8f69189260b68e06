"""Sweep engine and experiment configuration.

Runs reconstructions over (delta, seed) grids with a-priori parameter
rules alpha(delta) and h(delta), fits log-log convergence slopes, and
writes CSV reports plus gnuplot-friendly mirrors.  Identical configs and
seeds reproduce bit-identical outputs.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .datagen import (MAX_MAGNITUDE, ProblemInstance, ProblemSpec, _scaled_rows,
                      draw_noise, make_problem)
from .datagen import make_noisy  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)
from .errors import ConfigError, InsufficientData, TracregError
from .func1d import _blocks, _ladder
from .func1d import norm  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)
from .intervals import admissible_eps
from .pwl import MIN_STEPS_PER_CELL, is_mesh_width
from .regularizer import Mode, RegularizationParams, _reconstruct_seeds
from .regularizer import reconstruct_noisy  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)

ALPHA_RULES = ("fixed", "sqrt_delta", "delta", "delta_23")
EPS_RULES = ("equal_delta", "fixed")
H_RULES = ("sqrt_delta", "fixed")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = ProblemSpec()
    mode: Mode = Mode.NOISY_C1
    alpha_rule: str = "delta"
    alpha_value: float = 0.0
    delta_list: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    eps_rule: str = "equal_delta"
    eps_value: float = 0.0
    h_rule: str = "sqrt_delta"
    h_value: float = 0.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    shift_c: float = 0.0
    exclude_saturated: bool = True
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not abs(self.shift_c) <= MAX_MAGNITUDE:
            raise ConfigError("shift_c must be finite with magnitude at most "
                              f"{MAX_MAGNITUDE:g}, got {self.shift_c!r}")
        if self.eps_rule == "fixed" and not self.eps_value >= 0.0:
            raise ConfigError("eps_value must be nonnegative when "
                              f"eps_rule = fixed, got {self.eps_value!r}")
        if self.alpha_rule not in ALPHA_RULES:
            raise ConfigError(f"alpha_rule must be one of {ALPHA_RULES}")
        if self.eps_rule not in EPS_RULES:
            raise ConfigError(f"eps_rule must be one of {EPS_RULES}")
        if self.h_rule not in H_RULES:
            raise ConfigError(f"h_rule must be one of {H_RULES}")
        # the L2 projection mesh has N = 1/h_value cells, at least two
        h = self.h_value
        if self.h_rule == "fixed" and not (h <= 0.5 and is_mesh_width(h)):
            raise ConfigError("h_value must be 1/N for an integer N >= 2 "
                              f"when h_rule = fixed, got {h!r}")
        if self.mode is Mode.EXACT:
            raise ConfigError("sweeps need a noisy mode")
        d = self.delta_list
        if len(d) < 1 or not all(0.0 < x <= MAX_MAGNITUDE for x in d) or any(
                d[i + 1] >= d[i] for i in range(len(d) - 1)):
            raise ConfigError("delta_list must be positive, at most "
                              f"{MAX_MAGNITUDE:g} and strictly decreasing, "
                              f"got {d!r}")
        if not all(0.0 < self.alpha_for(x) < 1.0 for x in d):
            key = "alpha_value" if self.alpha_rule == "fixed" else "delta_list"
            raise ConfigError(f"{key} gives an alpha outside (0, 1) under "
                              f"alpha_rule = {self.alpha_rule}")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be one or more nonnegative "
                              f"integers, got {self.seeds!r}")

    def alpha_for(self, delta: float) -> float:
        if self.alpha_rule == "fixed":
            return self.alpha_value
        if self.alpha_rule == "sqrt_delta":
            return float(np.sqrt(delta))
        if self.alpha_rule == "delta":
            return delta
        return float(delta ** (2.0 / 3.0))

    def eps_for(self, delta: float) -> float:
        return delta if self.eps_rule == "equal_delta" else self.eps_value

    def h_for(self, delta: float) -> float:
        if self.h_rule == "fixed":
            return self.h_value
        return 1.0 / snap_cells(self.problem.n, 1.0 / np.sqrt(delta))

    def check_eps(self, problem) -> None:
        """Raise ConfigError unless every delta's eps stays below the
        admissible noise level of ``problem``, the instance built from
        this config's spec."""
        bound = admissible_eps(problem)
        key = "eps_value" if self.eps_rule == "fixed" else "delta_list"
        for delta in self.delta_list:
            eps = self.eps_for(delta)
            if eps >= bound:
                raise ConfigError(
                    f"{key} gives eps={eps:.3e} at delta={delta:.3e}, which "
                    f"reaches the admissible bound {bound:.3e}")

    def cell(self, delta: float) -> tuple[str, float, RegularizationParams]:
        """Noise kind, eps and regularization parameters of the cells at
        noise level delta."""
        kind = "C1" if self.mode is Mode.NOISY_C1 else "L2"
        params = RegularizationParams(
            alpha=self.alpha_for(delta), mode=self.mode, shift_c=self.shift_c,
            mesh_h=self.h_for(delta) if self.mode is Mode.NOISY_L2 else None)
        return kind, self.eps_for(delta), params


def snap_cells(n: int, target: float) -> int:
    """Cell count closest to target (log scale) among the divisors of n-1
    that ``project_L2`` accepts, with MIN_STEPS_PER_CELL or more steps a cell;
    of two as close, the smaller."""
    steps = n - 1
    # the divisors pair up as d and steps // d with d up to sqrt(steps)
    divs = sorted({c for d in range(1, math.isqrt(max(steps, 0)) + 1) if steps % d == 0
                   for c in (d, steps // d) if 2 <= c <= steps // MIN_STEPS_PER_CELL})
    if not divs:
        raise ConfigError(f"grid size {n} admits no usable projection mesh")
    return min(divs, key=lambda d: abs(np.log(d / target)))


@dataclass(frozen=True)
class RateRow:
    delta: float
    seed: int
    alpha: float
    eps: float
    h: float
    err_l2: float
    err_h1: float
    failure: str = ""


@dataclass(frozen=True)
class RateReport:
    rows: tuple[RateRow, ...]
    fitted_slope_l2: float
    fitted_slope_h1: float
    r_squared: float
    excluded_deltas: tuple[float, ...] = ()


def fit_rate(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Least squares on (log delta, log err); returns (slope, r^2)."""
    if len(pairs) < 3:
        raise InsufficientData(f"need >= 3 pairs for a rate fit, got {len(pairs)}")
    if any(d <= 0 or e <= 0 for d, e in pairs):
        raise InsufficientData("rate fit needs positive deltas and errors")
    x = np.log([d for d, _ in pairs])
    y = np.log([e for _, e in pairs])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def run_sweep(config: ExperimentConfig) -> RateReport:
    """Reconstruct over the (delta, seed) grid and fit rates.

    Every seed's noise is drawn once, up front.  The cells are visited
    delta-major, seeds in config order, which is the order of the rows.
    All seeds of a delta share alpha, the mesh and the grid, so they run
    as row blocks of ``_block_rows(n)`` seeds (all five at n = 2001, one
    at n = 64001): each block's noise is scaled to the delta in one kernel
    (``_scaled_rows``), just before stage 1 gates the block as one, and
    its seeds that pass go through stages 1-3 and the error norms as row
    blocks (``_reconstruct_seeds``, of which ``reconstruct_noisy`` is the
    block of one).  ``pchip``'s grid-only values are made at the first
    delta and reused at every later one; the blocks' temporaries are
    fresh, as reusing them was measured as no faster.  The sweep holds
    every seed's noise and one delta's list of outcomes, with its
    pulled-back data and n x seeds solution block.  That list goes
    straight into ``_scored``: held by a name into the next delta, it
    raised a rate_l2_h1 sweep's process peak RSS from 67.8 MB to 72.5 MB
    (``scripts/alloc_profile.py``; 71.1 to 78.8 MB when first measured).
    A cell that fails at any stage is recorded
    with the violated hypothesis and skipped by the fit; if the largest
    delta saturates (its decay toward the next delta is less than half the
    asymptotic slope) it is dropped from the fit and recorded in the
    report.  Without a fit, the InsufficientData raised carries the rows.
    """
    problem = make_problem(config.problem)
    config.check_eps(problem)
    cells = [(delta, *config.cell(delta)) for delta in config.delta_list]
    kind = cells[0][1]   # one noise kind per sweep
    noises = [draw_noise(problem, kind, seed) for seed in config.seeds]
    kept: dict = {}   # pchip's grid-only values, made at the first delta
    # grid[i][j] is the row of delta i and the j-th seed (seeds may repeat)
    grid: list[list[RateRow]] = []
    for delta, _, eps, params in cells:
        h = params.mesh_h or 0.0   # rates.csv records h = 0 in C1 mode
        blocks = (_scaled_rows(problem, noises[r.start:r.stop], eps, delta)
                  for r in _blocks(len(noises), problem.b0.n))
        grid.append([
            RateRow(delta, seed, params.alpha, eps, h, float("nan"), float("nan"),
                    failure=f"{type(rec).__name__}: {rec}")
            if errors is None else RateRow(delta, seed, params.alpha, eps, h, *errors)
            for seed, (rec, errors) in zip(config.seeds, _scored(
                problem, _reconstruct_seeds(problem, blocks, params, kept)))])
    try:
        return _assemble_report(grid, config)
    except InsufficientData as exc:
        exc.rows = tuple(row for per_delta in grid for row in per_delta)
        raise


def _scored(problem: ProblemInstance, outcomes: list) -> list[tuple]:
    # each of a delta's outcomes of _reconstruct_seeds with the [L2, H1]
    # norms of a0 - a_alpha, None for an error; the reconstructions' norms
    # come by one _ladder call a row block of _blocks
    recs = [o for o in outcomes if not isinstance(o, TracregError)]
    norms: list = []
    for r in _blocks(len(recs), problem.a0.n):
        err = np.empty((len(r), problem.a0.n))
        for row, rec in zip(err, recs[r.start:r.stop]):
            np.subtract(problem.a0.values, rec.a_alpha.values, out=row)
        norms += _ladder(err, problem.a0.spacing, 1).T.tolist()
    rows = iter(norms)
    return [(o, None if isinstance(o, TracregError) else next(rows)) for o in outcomes]


def _assemble_report(grid: list[list[RateRow]], config: ExperimentConfig) -> RateReport:
    # grid holds one row list per delta of the strictly decreasing delta_list
    means = []
    for delta, per_delta in zip(config.delta_list, grid):
        ok = [r for r in per_delta if not r.failure]
        if ok:
            means.append((delta, float(np.mean([r.err_l2 for r in ok])),
                          float(np.mean([r.err_h1 for r in ok]))))
    if len(means) < 3:
        # name the hypothesis the failed cells broke, not only the count
        failed = [r for per_delta in grid for r in per_delta if r.failure]
        detail = "" if not failed else (
            f"; {len(failed)} cells failed, the first at delta="
            f"{failed[0].delta:.3e}, seed={failed[0].seed}: {failed[0].failure}")
        raise InsufficientData(
            f"need >= 3 pairs for a rate fit, got {len(means)}{detail}")
    excluded: tuple[float, ...] = ()
    if config.exclude_saturated and len(means) >= 4:
        head_slope = (np.log(means[0][1] / means[1][1])
                      / np.log(means[0][0] / means[1][0]))
        rest_slope, _ = fit_rate([(d, e) for d, e, _ in means[1:]])
        if head_slope < 0.5 * rest_slope:
            excluded = (means[0][0],)
            means = means[1:]
    slope_l2, r2 = fit_rate([(d, e) for d, e, _ in means])
    slope_h1, _ = fit_rate([(d, e) for d, _, e in means])
    return RateReport(rows=tuple(row for per_delta in grid for row in per_delta),
                      fitted_slope_l2=slope_l2, fitted_slope_h1=slope_h1,
                      r_squared=r2, excluded_deltas=excluded)


# ---------------------------------------------------------------- output

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_rates(report: RateReport, out_dir: str) -> None:
    failures = write_cells(report.rows, out_dir)
    _write_table(out_dir, "summary", "slope_l2 slope_h1 r_squared rows_ok "
                 "rows_failed excluded_deltas",
                 [[_fmt(report.fitted_slope_l2), _fmt(report.fitted_slope_h1),
                   _fmt(report.r_squared),
                   str(len(report.rows) - len(failures)), str(len(failures)),
                   ";".join(_fmt(d) for d in report.excluded_deltas) or "none"]])


def write_cells(rows: tuple[RateRow, ...], out_dir: str) -> list[RateRow]:
    """Write ``rates`` and, if cells failed, ``failures``; return those."""
    _write_table(out_dir, "rates", "delta seed alpha eps h err_l2 err_h1",
                 [[_fmt(r.delta), str(r.seed), _fmt(r.alpha), _fmt(r.eps),
                   _fmt(r.h), _fmt(r.err_l2), _fmt(r.err_h1)] for r in rows])
    failures = [r for r in rows if r.failure]
    if failures:
        # the reason is one quoted field; its own commas stay in both files
        _write_table(out_dir, "failures", "delta seed reason",
                     [[_fmt(r.delta), str(r.seed), f"\"{r.failure}\""]
                      for r in failures])
    return failures


def write_solution(x: np.ndarray, a0: np.ndarray, a_alpha: np.ndarray,
                   out_dir: str) -> None:
    _write_table(out_dir, "a_alpha", "x a0 a_alpha",
                 [[_fmt(xx), _fmt(v0), _fmt(va)]
                  for xx, v0, va in zip(x, a0, a_alpha)])


def make_output_dir(out_dir: str) -> None:
    """Create ``out_dir`` and its parents if they are missing.  The CLI
    calls it before any reconstruction, so a path that cannot be a
    directory fails before the work, not after it."""
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)


@contextmanager
def _writing(out_dir: str):
    # an OSError on out_dir or a file in it is the config's fault
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output_dir {out_dir}: {exc}") from exc


def _write_table(out_dir: str, name: str, columns: str,
                 rows: list[list[str]]) -> None:
    """Write ``name.csv`` and its gnuplot mirror ``name.dat``: the same
    fields separated by spaces, under a ``#`` header.  ``columns`` holds
    the column names separated by spaces."""
    make_output_dir(out_dir)
    with _writing(out_dir):
        for ext, sep, mark in ((".csv", ",", ""), (".dat", " ", "# ")):
            lines = [mark + sep.join(columns.split())]
            lines += [sep.join(row) for row in rows]
            with open(os.path.join(out_dir, name + ext), "w") as fh:
                fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- config io

_FLAGS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _integer(text: str) -> int:
    # read through a double, which holds every integer below 2**53 exactly
    value = float(text)
    if not (value.is_integer() and abs(value) < 2.0**53):
        raise ValueError(f"not an integer of magnitude below 2**53: {text!r}")
    return int(value)


def _flag(text: str) -> bool:
    if text.lower() not in _FLAGS:
        raise ValueError(f"not one of {'/'.join(_FLAGS)}: {text!r}")
    return _FLAGS[text.lower()]


#: How a config value is read, by the type of its field's default.
_READERS = {float: float, int: _integer, str: str, bool: _flag, Mode: Mode}


def _reader(default):
    if isinstance(default, tuple):
        item = _READERS[type(default[0])]
        return lambda text: tuple(item(tok) for tok in text.split(","))
    return _READERS[type(default)]


#: Each config key and its default: the fields of ProblemSpec and of
#: ExperimentConfig but its ``problem``.
_SPEC_DEFAULTS = {f.name: f.default for f in fields(ProblemSpec)}
_DEFAULTS = _SPEC_DEFAULTS | {f.name: f.default for f in
                              fields(ExperimentConfig) if f.name != "problem"}


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value config file (# comments allowed)."""
    raw: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                raw[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict[str, str]) -> ExperimentConfig:
    """Build a config from key -> text; absent keys keep their defaults."""
    values = {}
    for key, text in raw.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[key] = _reader(_DEFAULTS[key])(text)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    spec = ProblemSpec(**{k: values.pop(k) for k in _SPEC_DEFAULTS
                          if k in values})
    return ExperimentConfig(problem=spec, **values)


# ---------------------------------------------------------------- presets

@dataclass(frozen=True)
class Preset:
    """A rate study: its sweep, the norm its error rate is read in ("L2"
    or "H1") and the window the fitted slope must fall in."""

    config: ExperimentConfig
    norm: str
    window: tuple[float, float]


def _study(name: str, norm: str, window: tuple[float, float],
           **config) -> tuple[str, Preset]:
    return name, Preset(ExperimentConfig(output_dir=f"out/{name}", **config),
                        norm, window)


_HALF = 10.0 ** -0.5

#: The rate studies behind the paper's convergence orders; each writes to
#: out/<name>/.
PRESETS: dict[str, Preset] = dict((
    _study("rate_c1_h1", "L2", (0.40, 0.65),
           problem=ProblemSpec(a0="linear"), mode=Mode.NOISY_C1,
           alpha_rule="delta", delta_list=(1e-2, 1e-3, 1e-4, 1e-5)),
    _study("rate_c1_h3_l2", "L2", (0.55, 0.78),
           problem=ProblemSpec(a0="cosine"), mode=Mode.NOISY_C1,
           alpha_rule="delta_23", delta_list=(1e-3, 1e-4, 1e-5, 1e-6)),
    _study("rate_c1_h3_h1", "H1", (0.40, 0.65),
           problem=ProblemSpec(a0="cosine"), mode=Mode.NOISY_C1,
           alpha_rule="sqrt_delta", delta_list=(1e-4, 1e-5, 1e-6, 1e-7)),
    _study("rate_c1_shift", "L2", (0.40, 0.65),
           problem=ProblemSpec(a0="linear_plus2", c_end=2.0),
           mode=Mode.NOISY_C1, alpha_rule="delta", shift_c=2.0,
           delta_list=(1e-2, 1e-3, 1e-4, 1e-5)),
    _study("rate_l2_h1", "L2", (0.18, 0.40),
           problem=ProblemSpec(a0="linear", composite="cubic", n=64001),
           mode=Mode.NOISY_L2, alpha_rule="delta",
           delta_list=(1e-3 * _HALF, 1e-4, 1e-4 * _HALF, 1e-5, 1e-5 * _HALF)),
    _study("rate_l2_h2", "L2", (0.40, 0.65),
           problem=ProblemSpec(a0="pw_quad"), mode=Mode.NOISY_L2,
           alpha_rule="delta",
           delta_list=(1e-3 * _HALF, 1e-4, 1e-4 * _HALF, 1e-5, 1e-5 * _HALF)),
    _study("rate_l2_h3", "L2", (0.55, 0.78),
           problem=ProblemSpec(a0="cosine"), mode=Mode.NOISY_L2,
           alpha_rule="delta_23",
           delta_list=(1e-3, 1e-3 * _HALF, 1e-4, 1e-4 * _HALF, 1e-5)),
))


def preset(name: str) -> ExperimentConfig:
    """The sweep configuration of a named rate study."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (choices: {sorted(PRESETS)})")
    return PRESETS[name].config

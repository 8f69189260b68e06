"""The three workloads: their inputs, their ops and the checks on each op.

A workload builds its inputs in ``setup`` from the workload seed, hands
out ops in whole rounds, times nothing itself and checks every output with
the benchmark's own arithmetic.  The program is reached only through its
public entry points: ``cli.main(["sweep", ...])``, ``datagen.make_noisy``,
``regularizer.reconstruct_noisy``, ``func1d.norm`` and
``checks.ALL_CHECKS``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil

import numpy as np

from stats import refit_slopes

SEEDS_PER_SET = 5
# Seed set j holds seeds 5j .. 5j+4.  Ops draw their seeds from the
# longest run of sets, from set 0 on, whose studies were found inside
# every preset's slope window, so every run checks studies known to pass
# (the README lists the first set past each pool and why it fails).
SMOOTH_SETS = 100
# rate_l2_h1 sets whose first two seeds give a mean error that falls with
# delta at every step (the fixed-data run-level check)
FIXED_SETS = 3
FIXED_SEEDS_PER_DELTA = 2

_HALF = 10.0 ** -0.5


def _study(mode, a0, alpha_rule, deltas, window, norm="l2", composite="identity",
           n=2001, c_end=0.0, shift_c=0.0):
    keys = {"mode": mode, "a0": a0, "composite": composite, "lo": "0", "hi": "1",
            "n": str(n), "c_end": repr(c_end), "shift_c": repr(shift_c),
            "alpha_rule": alpha_rule,
            "delta_list": ", ".join(repr(d) for d in deltas),
            "eps_rule": "equal_delta"}
    if mode == "noisy_l2":
        keys["h_rule"] = "sqrt_delta"
    return {"keys": keys, "deltas": tuple(deltas), "window": window, "norm": norm}


# The rate-study presets, with the expected slope windows of the
# acceptance gate.  Kept here so the benchmark's inputs do not move when
# the package reorganizes its presets.
STUDIES = {
    "rate_c1_h1": _study("noisy_c1", "linear", "delta",
                         (1e-2, 1e-3, 1e-4, 1e-5), (0.40, 0.65)),
    "rate_c1_h3_l2": _study("noisy_c1", "cosine", "delta_23",
                            (1e-3, 1e-4, 1e-5, 1e-6), (0.55, 0.78)),
    "rate_c1_h3_h1": _study("noisy_c1", "cosine", "sqrt_delta",
                            (1e-4, 1e-5, 1e-6, 1e-7), (0.40, 0.65), norm="h1"),
    "rate_c1_shift": _study("noisy_c1", "linear_plus2", "delta",
                            (1e-2, 1e-3, 1e-4, 1e-5), (0.40, 0.65),
                            c_end=2.0, shift_c=2.0),
    "rate_l2_h1": _study("noisy_l2", "linear", "delta",
                         (1e-3 * _HALF, 1e-4, 1e-4 * _HALF, 1e-5, 1e-5 * _HALF),
                         (0.18, 0.40), composite="cubic", n=64001),
    "rate_l2_h2": _study("noisy_l2", "pw_quad", "delta",
                         (1e-3 * _HALF, 1e-4, 1e-4 * _HALF, 1e-5, 1e-5 * _HALF),
                         (0.40, 0.65)),
    "rate_l2_h3": _study("noisy_l2", "cosine", "delta_23",
                         (1e-3, 1e-3 * _HALF, 1e-4, 1e-4 * _HALF, 1e-5),
                         (0.55, 0.78)),
}
SMOOTH_STUDIES = ("rate_c1_h1", "rate_c1_h3_l2", "rate_c1_h3_h1",
                  "rate_c1_shift", "rate_l2_h2", "rate_l2_h3")
RATES_COLUMNS = ["delta", "seed", "alpha", "eps", "h", "err_l2", "err_h1"]


def seed_set(j: int) -> tuple[int, ...]:
    return tuple(range(SEEDS_PER_SET * j, SEEDS_PER_SET * (j + 1)))


class Workload:
    """Interface of a workload; ``round`` returns the ops of one round."""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def kind(self, op):
        """Key of the ops that do the same work, and so cost alike."""
        return op

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> list[str]:
        """Reasons the op's output is wrong; empty when it is right."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that span the ops of a run."""
        return []

    def trace(self, recorder) -> None:
        """Spans recorded by the workload itself, besides the call sites."""


class SweepWorkload(Workload):
    """Rate studies through ``tracereg sweep --config``; one op is one
    study, and op k of a run takes seed set (offset + k) mod ``sets``."""

    def __init__(self, studies: tuple[str, ...], sets: int, workdir: str):
        self.studies = studies
        self.sets = sets
        self.workdir = workdir
        self.count = 0

    def setup(self, seed: int) -> None:
        from tracereg import cli
        self.cli = cli
        self.offset = seed % self.sets

    def round(self) -> list:
        ops = []
        for name in self.studies:
            seeds = seed_set((self.offset + self.count) % self.sets)
            out = os.path.join(self.workdir, f"study-{self.count}")
            cfg = out + ".cfg"
            with open(cfg, "w") as fh:
                for key, val in STUDIES[name]["keys"].items():
                    fh.write(f"{key} = {val}\n")
                fh.write(f"seeds = {', '.join(map(str, seeds))}\n")
                fh.write(f"output_dir = {out}\n")
            ops.append((name, seeds, cfg, out))
            self.count += 1
        return ops

    def kind(self, op):
        return op[0]

    def run(self, op):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["sweep", "--config", op[2]])

    def check(self, op, code) -> list[str]:
        name, seeds, cfg, out = op
        try:
            return _check_study(STUDIES[name], seeds, out, code)
        finally:
            os.remove(cfg)
            shutil.rmtree(out, ignore_errors=True)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_study(study: dict, seeds: tuple[int, ...], out: str,
                 code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    bad = []
    if os.path.exists(os.path.join(out, "failures.csv")):
        bad.append("failures.csv written")
    header, rows = _read_csv(os.path.join(out, "rates.csv"))
    if header != RATES_COLUMNS:
        return bad + [f"rates.csv columns {header}"]
    cells = {(d, s) for d in study["deltas"] for s in seeds}
    got = [tuple(float(x) for x in r) for r in rows]
    if len(got) != len(cells) or {(r[0], int(r[1])) for r in got} != cells:
        bad.append(f"rates.csv holds {len(got)} rows, not the "
                   f"{len(cells)} (delta, seed) cells")
    l2_mode = study["keys"]["mode"] == "noisy_l2"
    for r in got:
        delta, _, alpha, eps, h, e2, e1 = r
        positive = [delta, alpha, eps, e2, e1] + ([h] if l2_mode else [])
        if not all(math.isfinite(x) and x > 0.0 for x in positive) or (
                not l2_mode and h != 0.0):
            bad.append(f"rates.csv row {r} is not finite and positive")
            break
    sheader, srows = _read_csv(os.path.join(out, "summary.csv"))
    summary = dict(zip(sheader, srows[0]))
    if int(summary["rows_ok"]) != len(cells) or int(summary["rows_failed"]):
        bad.append(f"summary rows ok/failed {summary['rows_ok']}/"
                   f"{summary['rows_failed']}")
    excluded = set() if summary["excluded_deltas"] == "none" else {
        float(x) for x in summary["excluded_deltas"].split(";")}
    slopes = dict(zip(("l2", "h1"), refit_slopes(
        [(r[0], r[5], r[6]) for r in got], excluded)))
    for kind in ("l2", "h1"):
        reported = float(summary[f"slope_{kind}"])
        if abs(slopes[kind] - reported) > 1e-9:
            bad.append(f"refit {kind} slope {slopes[kind]:.12g} differs from "
                       f"summary.csv {reported:.12g}")
    lo, hi = study["window"]
    slope = slopes[study["norm"]]
    if not lo <= slope <= hi:
        bad.append(f"{study['norm']} slope {slope:.4f} outside [{lo}, {hi}]")
    return bad


class FixedDataWorkload(Workload):
    """One ``reconstruct_noisy`` plus its L2/H1 error norms per op, on
    ``rate_l2_h1`` inputs drawn before timing; a round visits every input
    of the pool once."""

    study = STUDIES["rate_l2_h1"]

    def setup(self, seed: int) -> None:
        from tracereg import datagen, experiments, func1d, regularizer
        self.func1d, self.regularizer = func1d, regularizer
        keys = self.study["keys"]
        n = int(keys["n"])
        problem = datagen.make_problem(datagen.ProblemSpec(
            a0=keys["a0"], composite=keys["composite"], n=n))
        self.problem = problem
        seeds = seed_set(seed % FIXED_SETS)[:FIXED_SEEDS_PER_DELTA]
        self.pool = []
        for delta in self.study["deltas"]:
            params = regularizer.RegularizationParams(
                alpha=delta, mode=regularizer.Mode.NOISY_L2,
                mesh_h=1.0 / experiments.snap_cells(n, 1.0 / math.sqrt(delta)))
            for s in seeds:
                noisy = datagen.make_noisy(problem, "L2", delta, delta, s)
                self.pool.append((delta, noisy, params))
        self.first: dict[int, tuple[float, float]] = {}

    def round(self) -> list:
        return list(range(len(self.pool)))

    def run(self, i):
        _, noisy, params = self.pool[i]
        rec = self.regularizer.reconstruct_noisy(self.problem, noisy, params)
        diff = self.problem.a0 - rec.a_alpha
        return rec, self.func1d.norm(diff, "L2"), self.func1d.norm(diff, "H1")

    def check(self, i, result) -> list[str]:
        rec, e2, e1 = result
        bad = _check_solve(rec.b_alpha.values, rec.zeta_used.values,
                           rec.a_alpha.values, rec.b_alpha.spacing,
                           self.pool[i][2].alpha)
        if not all(math.isfinite(e) and e > 0.0 for e in (e2, e1)):
            bad.append(f"errors {e2}, {e1} not finite and positive")
        if self.first.setdefault(i, (e2, e1)) != (e2, e1):
            bad.append(f"input {i} gave {(e2, e1)}, before {self.first[i]}")
        return bad

    def finish(self) -> list[str]:
        per_delta: dict[float, list[float]] = {}
        for i, (e2, _) in self.first.items():
            per_delta.setdefault(self.pool[i][0], []).append(e2)
        means = [sum(v) / len(v) for _, v in sorted(per_delta.items(),
                                                    reverse=True)]
        if len(means) == len(self.study["deltas"]) and all(
                a > b for a, b in zip(means, means[1:])):
            return []
        return [f"mean L2 error per delta does not fall with delta: {means}"]


# Rounding allowance of the banded solve and the difference stencils, in
# units of the largest term of the row; observed residuals sit near 5e-16.
SOLVE_RTOL = 1e-12


def _check_solve(b: np.ndarray, zeta: np.ndarray, a: np.ndarray, h: float,
                 alpha: float) -> list[str]:
    """-alpha b'' + b = zeta by the benchmark's own stencil, with
    b(lo) = 0 and a ghost-node Neumann row, and a = b' to second order."""
    bad = []
    r = alpha / h**2
    scale = r * np.abs(b).max() + np.abs(zeta).max()
    interior = -r * (b[2:] - 2.0 * b[1:-1] + b[:-2]) + b[1:-1] - zeta[1:-1]
    neumann = -r * (2.0 * b[-2] - 2.0 * b[-1]) + b[-1] - zeta[-1]
    worst = max(np.abs(interior).max(), abs(neumann)) / scale
    if not worst <= SOLVE_RTOL:
        bad.append(f"BVP residual {worst:.3e} of alpha/h^2 scale")
    if b[0] != 0.0:
        bad.append(f"b(lo) = {b[0]:.3e}")
    d = np.empty_like(b)
    d[1:-1] = (b[2:] - b[:-2]) / (2.0 * h)
    d[0] = (-3.0 * b[0] + 4.0 * b[1] - b[2]) / (2.0 * h)
    d[-1] = (3.0 * b[-1] - 4.0 * b[-2] + b[-3]) / (2.0 * h)
    gap = np.abs(a - d).max() / max(np.abs(d).max(), 1.0)
    if not gap <= SOLVE_RTOL:
        bad.append(f"a_alpha differs from b_alpha' by {gap:.3e}")
    return bad


class PropertyWorkload(Workload):
    """``checks.ALL_CHECKS`` in whole passes; one op is one check.  The
    checks carry their own seeds, so the workload seed only picks the
    check a pass starts with."""

    def setup(self, seed: int) -> None:
        from tracereg import checks
        fns = list(checks.ALL_CHECKS)
        k = seed % len(fns)
        self.fns = fns[k:] + fns[:k]

    def round(self) -> list:
        return list(self.fns)

    def run(self, fn):
        return fn()

    def check(self, fn, result) -> list[str]:
        return [] if result.passed else [f"{result.name}: {result.detail}"]

    def trace(self, recorder) -> None:
        self.fns = [recorder.wrap(fn, check_layer(fn)) for fn in self.fns]


def check_layer(fn) -> str:
    return "checks." + fn.__name__.removeprefix("check_")


def make(name: str, workdir: str) -> Workload:
    if name == "smooth_sweeps":
        return SweepWorkload(SMOOTH_STUDIES, SMOOTH_SETS, workdir)
    if name == "fixed_data_solves":
        return FixedDataWorkload()
    if name == "property_suite":
        return PropertyWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("smooth_sweeps", "fixed_data_solves", "property_suite")


# ------------------------------------------------------------ call sites

def _flux_key(recorder, arguments, _result) -> None:
    recorder.keys["datagen.perturb_flux"].add(
        (arguments["seed"], arguments["problem"].f.n))


def _rates_bytes(recorder, arguments, _result) -> None:
    out = arguments["out_dir"]
    recorder.counters["experiments.write_rates.bytes"] += sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


# (caller module, name bound there, layer).  Each layer is timed at its
# call sites, because the package imports its callees by name.
CALL_SITES = (
    ("tracereg.cli", "parse_config", "experiments.parse_config"),
    ("tracereg.cli", "run_sweep", "experiments.run_sweep"),
    ("tracereg.cli", "write_rates", "experiments.write_rates"),
    ("tracereg.experiments", "make_problem", "datagen.make_problem"),
    ("tracereg.experiments", "make_noisy", "datagen.make_noisy"),
    ("tracereg.experiments", "reconstruct_noisy", "regularizer.reconstruct_noisy"),
    ("tracereg.experiments", "norm", "func1d.norm"),
    ("tracereg.datagen", "perturb_C1", "datagen.perturb_C1"),
    ("tracereg.datagen", "perturb_L2", "datagen.perturb_L2"),
    ("tracereg.datagen", "perturb_flux", "datagen.perturb_flux"),
    ("tracereg.datagen", "norm", "func1d.norm"),
    ("tracereg.datagen", "apply_T1", "operators.apply_T1"),
    ("tracereg.datagen", "ProblemInstance.g_h4_cell_sup", "datagen.g_h4_cell_sup"),
    ("tracereg.regularizer", "reconstruct_noisy", "regularizer.reconstruct_noisy"),
    ("tracereg.regularizer", "check_mesh_conditions", "pwl.check_mesh_conditions"),
    ("tracereg.regularizer", "project_L2", "pwl.project_L2"),
    ("tracereg.regularizer", "intersect_images", "intervals.intersect_images"),
    ("tracereg.regularizer", "apply_T3eps_pinv", "operators.apply_T3eps_pinv"),
    ("tracereg.regularizer", "extend_by_zero", "operators.extend_by_zero"),
    ("tracereg.regularizer", "solve_ode", "regularizer.solve_ode"),
    ("tracereg.regularizer", "derivative", "func1d.derivative"),
    ("tracereg.intervals", "invert_monotone", "func1d.invert_monotone"),
    ("tracereg.operators", "invert_monotone", "func1d.invert_monotone"),
    ("tracereg.operators", "apply_L", "operators.apply_L"),
    ("tracereg.func1d", "norm", "func1d.norm"),
    ("tracereg.checks", "apply_T1", "operators.apply_T1"),
    ("tracereg.checks", "apply_T2alpha", "operators.apply_T2alpha"),
    ("tracereg.checks", "apply_L", "operators.apply_L"),
    ("tracereg.checks", "project_W", "operators.project_W"),
    ("tracereg.checks", "apply_T3", "operators.apply_T3"),
    ("tracereg.checks", "norm", "func1d.norm"),
    ("tracereg.checks", "project_L2", "pwl.project_L2"),
    ("tracereg.checks", "intersect_images", "intervals.intersect_images"),
    ("tracereg.checks", "invert_monotone", "func1d.invert_monotone"),
)
HOOKS = {"datagen.perturb_flux": _flux_key,
         "experiments.write_rates": _rates_bytes}


def install_call_sites(recorder) -> None:
    for module, attr, layer in CALL_SITES:
        recorder.patch(module, attr, layer, HOOKS.get(layer))

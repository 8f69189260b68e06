"""Command line driver.

Subcommands:
  solve  -- one reconstruction, writes a_alpha.csv (+ .dat mirror)
  sweep  -- (delta, seed) rate study, writes rates.csv / summary.csv
  check  -- operator property suite, one pass/fail line per property

Exit codes: 0 success, 1 configuration error, 2 numerical failure (the
violated hypothesis goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .checks import run_all_checks
from .datagen import make_noisy, make_problem
from .errors import ConfigError, TracregError
from .experiments import (ExperimentConfig, parse_config, preset, run_sweep,
                          write_rates, write_solution)
from .regularizer import (RegularizationParams, reconstruct_exact,
                          reconstruct_noisy)


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        return preset(args.preset)
    if not args.config:
        raise ConfigError("need --config FILE or --preset NAME")
    return parse_config(args.config)


def _cmd_solve(args) -> int:
    config = _load_config(args)
    problem = make_problem(config.problem)
    delta = config.delta_list[0]
    alpha = config.alpha_for(delta)
    if args.alpha is not None:
        if not 0.0 < args.alpha < 1.0:
            raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha!r}")
        alpha = args.alpha
    if args.exact:
        params = RegularizationParams(alpha=alpha, shift_c=config.shift_c)
        rec = reconstruct_exact(problem, params)
    else:
        config.check_eps(problem)
        kind, eps, params = config.cell(delta)
        noisy = make_noisy(problem, kind, eps, delta, config.seeds[0])
        rec = reconstruct_noisy(problem, noisy, replace(params, alpha=alpha))
    write_solution(problem.a0.nodes, problem.a0.values, rec.a_alpha.values,
                   config.output_dir)
    print(f"wrote {config.output_dir}/a_alpha.csv (alpha={alpha:.3e})")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    report = run_sweep(config)
    write_rates(report, config.output_dir)
    excl = (", excluded deltas: "
            + ", ".join(f"{d:g}" for d in report.excluded_deltas)
            if report.excluded_deltas else "")
    print(f"slope_l2={report.fitted_slope_l2:.4f} "
          f"slope_h1={report.fitted_slope_h1:.4f} "
          f"r2={report.r_squared:.4f}{excl}")
    print(f"wrote {config.output_dir}/rates.csv, summary.csv")
    return 0


def _cmd_check(_args) -> int:
    results = run_all_checks()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} properties failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} properties hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracereg",
        description="coefficient reconstruction from boundary trace data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one reconstruction")
    p_solve.add_argument("--config", help="flat key=value config file")
    p_solve.add_argument("--preset", help="named preset configuration")
    p_solve.add_argument("--alpha", type=float, default=None,
                         help="override the regularization strength")
    p_solve.add_argument("--exact", action="store_true",
                         help="ignore noise settings and use exact data")
    p_solve.set_defaults(fn=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a rate study")
    p_sweep.add_argument("--config", help="flat key=value config file")
    p_sweep.add_argument("--preset", help="named preset configuration")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_check = sub.add_parser("check", help="run the property suite")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TracregError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Print the seed spread of rate-study slopes.

Runs a preset's sweep on 20 disjoint sets of five seeds (0-4, 5-9, ...,
95-99), reads each set's fitted slope in the preset's own norm, and
prints one line per set followed by a table row: the slope window, the
minimum, median and maximum slope, and the number of sets outside the
window (each such set is named below the table).

    PYTHONPATH=src python scripts/seed_spread.py [PRESET ...]

The default preset is rate_l2_h1, about 0.3 s per set (7 s in all) on a
2-vCPU x86 host; the n = 2001 presets take about 0.03 s per set.
"""

import sys
from dataclasses import replace

import numpy as np

from tracereg.experiments import PRESETS, run_sweep

SETS = 20
SET_SIZE = 5


def set_slopes(name: str) -> list[float]:
    study = PRESETS[name]
    slopes = []
    for j in range(SETS):
        seeds = tuple(range(SET_SIZE * j, SET_SIZE * (j + 1)))
        report = run_sweep(replace(study.config, seeds=seeds))
        slope = (report.fitted_slope_l2 if study.norm == "L2"
                 else report.fitted_slope_h1)
        print(f"{name} seeds {seeds[0]}-{seeds[-1]}: {study.norm} slope "
              f"{slope:.4f}", flush=True)
        slopes.append(slope)
    return slopes


def run(names: list[str]) -> int:
    rows, outside_notes = [], []
    for name in names:
        lo, hi = PRESETS[name].window
        slopes = set_slopes(name)
        outside = [j for j, s in enumerate(slopes) if not lo <= s <= hi]
        rows.append(f"| {name:<13} | [{lo:.2f}, {hi:.2f}] | {min(slopes):.3f} "
                    f"| {np.median(slopes):.3f}  | {max(slopes):.3f} "
                    f"| {len(outside):<12} |")
        outside_notes += [f"{name}: seeds {SET_SIZE * j}-{SET_SIZE * j + SET_SIZE - 1}"
                          f" give {slopes[j]:.3f}" for j in outside]
    print()
    print("| preset        | window       | min   | median | max   | sets outside |")
    print("|---------------|--------------|-------|--------|-------|--------------|")
    print("\n".join(rows))
    for note in outside_notes:
        print(note)
    return 0


if __name__ == "__main__":
    args = sys.argv[1:] or ["rate_l2_h1"]
    unknown = [a for a in args if a not in PRESETS]
    if unknown:
        sys.exit(f"unknown preset(s) {unknown} (choices: {sorted(PRESETS)})")
    sys.exit(run(args))

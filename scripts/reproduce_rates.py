"""Run every rate-study preset through the CLI and summarize the slopes.

Writes per-study CSVs under out/<preset>/ and prints a one-line verdict
per study against its expected window.  All seven studies take about
3 s on a 2-vCPU x86 host, most of it in the n = 64001 rough-noise study.
"""

import sys
import time

from tracereg.cli import main

STUDIES = [
    # name, error norm, expected slope window
    ("rate_c1_h1", "L2", (0.40, 0.65)),
    ("rate_c1_h3_l2", "L2", (0.55, 0.78)),
    ("rate_c1_h3_h1", "H1", (0.40, 0.65)),
    ("rate_c1_shift", "L2", (0.40, 0.65)),
    ("rate_l2_h1", "L2", (0.18, 0.40)),
    ("rate_l2_h2", "L2", (0.40, 0.65)),
    ("rate_l2_h3", "L2", (0.55, 0.78)),
]


def read_summary(preset_name: str, norm_kind: str) -> float:
    with open(f"out/{preset_name}/summary.csv") as fh:
        header = fh.readline().strip().split(",")
        row = fh.readline().strip().split(",")
    col = "slope_l2" if norm_kind == "L2" else "slope_h1"
    return float(row[header.index(col)])


def run() -> int:
    failures = 0
    for name, norm_kind, (lo, hi) in STUDIES:
        t0 = time.time()
        code = main(["sweep", "--config", f"configs/{name}.cfg"])
        if code != 0:
            print(f"{name}: sweep exited with {code}")
            failures += 1
            continue
        slope = read_summary(name, norm_kind)
        ok = lo <= slope <= hi
        failures += not ok
        print(f"{name}: {norm_kind} slope {slope:.3f} "
              f"{'in' if ok else 'OUTSIDE'} [{lo}, {hi}] "
              f"({time.time() - t0:.1f}s)")
    return failures


if __name__ == "__main__":
    sys.exit(run())

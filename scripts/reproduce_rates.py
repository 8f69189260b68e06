"""Run every rate-study preset through the CLI and summarize the slopes.

Writes per-study CSVs under out/<preset>/ and prints a one-line verdict
per study against the slope window of its ``PRESETS`` row.  After each
sweep it runs ``tracereg solve --preset`` once, which writes the
reconstruction itself (a_alpha.csv and .dat) into the same directory.
Then it runs the property suite (``tracereg check``) and writes its
standard output to out/check.txt, so ``scripts/compare_outputs.py`` can
diff all of these.  The whole script takes about 1.5 s on a 2-vCPU x86
host: about 0.4 s of Python start-up and imports (0.7 s while the package
imported scipy.linalg for LAPACK's gtsv), 0.7 s for the n = 64001
rough-noise study with its solve (which writes 64001 rows), under 0.05 s
for each other study and about 0.4 s for the property suite.
"""

import contextlib
import io
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
        code = main(["solve", "--preset", name])
        if code != 0:
            print(f"{name}: solve exited with {code}")
            failures += 1
        slope = read_summary(study.config.output_dir, study.norm)
        lo, hi = study.window
        ok = lo <= slope <= hi
        failures += not ok
        print(f"{name}: {study.norm} slope {slope:.3f} "
              f"{'in' if ok else 'OUTSIDE'} [{lo}, {hi}] "
              f"({time.time() - t0:.1f}s)")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["check"])
    with open(os.path.join("out", "check.txt"), "w") as fh:
        fh.write(stdout.getvalue())
    print(f"check: exited with {code}, wrote out/check.txt")
    return failures + (code != 0)


if __name__ == "__main__":
    sys.exit(run())

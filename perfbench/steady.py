"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--workloads a,b] [--first-seed N]

Makes two sets of ten runs; each run gets its own seed.  For every
end-to-end metric on every workload it prints the median and the
quartile spread (IQR / median) of each set, and whether the sets agree
within BENCHMARK.json's bounds: each spread within the bound (setup_s
excepted), the two medians apart by no more than the bound in either
direction, and the same share of failed ops.
Raw results go to perfbench/.out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from stats import quartile_spread

SETS = 2
RUNS = 10
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def report(spec, results):
    ok = True
    print(f"{'workload':<18} {'metric':<12} "
          + " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
                     for s in range(SETS))
          + f" {'moved':>7} {'bound':>6}  verdict")
    for workload, per_set in results.items():
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in per_set]
        walls = [r["wall_s"] for runs in per_set for r in runs]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, verdict, medians, fails = [], [], [], False
            for runs in per_set:
                values = [r["metrics"][name]["value"] for r in runs]
                med, spread = statistics.median(values), quartile_spread(values)
                medians.append(med)
                cols.append(f"{med:>12.5g} {spread:>8.4f}")
                if name == "setup_s":
                    continue
                if spread > bound:
                    verdict.append("spread over bound")
                    fails = True
                elif spread > bound / 3:
                    verdict.append("spread over bound/3")
            # same code on both sets: a move either way is drift
            moved = abs(medians[1] - medians[0]) / medians[0]
            if moved > bound:
                verdict.append("median drifted")
                fails = True
            ok = ok and not fails
            print(f"{workload:<18} {name:<12} " + " ".join(cols)
                  + f" {moved:>7.4f} {bound:>6}  {', '.join(verdict) or 'ok'}")
        same = len(set(shares)) == 1
        ok = ok and same
        print(f"{workload:<18} failed share per set {shares} "
              f"{'equal' if same else 'DIFFERENT'}; run wall "
              f"{min(walls):.1f}..{max(walls):.1f} s")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None,
                   help="comma-separated subset of BENCHMARK.json's workloads")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    results = {w: [[] for _ in range(SETS)] for w in names}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(RUNS):
            # workloads interleave, so a drift of the machine reaches all
            for w in names:
                results[w][s].append(run_once(spec, w, seed))
            seed += 1
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    path = os.path.join(HERE, ".out", f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    ok = report(spec, results)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    print("sets agree within the bounds" if ok else "sets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

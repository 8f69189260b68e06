"""Alternating benchmark pairs of two commits, with an A/A control.

    python scripts/bench_pairs.py [--parent REV] [--change REV]
        [--workloads a,b] [--pairs N] [--seconds S] [--first-seed N]
        [--claim TEXT] [--out FILE]

Exports three trees with ``git archive`` into a temporary directory: the
parent commit (default ``HEAD~1``), the change (default ``HEAD``) and a
second copy of the parent, the A/A control.  A working tree that is not
committed yet can be measured as ``--change $(git stash create)`` after
``git add``.  For each workload and each pair ``i`` it runs
``python3 perfbench/run.py --workload W --seed FIRST+i --seconds S
--trace 0`` once in each tree, in the same environment (this process's,
with ``PYTHONDONTWRITEBYTECODE=1``, so no tree holds compiled files the
others lack), the three in an order rotated by one place each pair, so
each tree runs first, second and third equally often.

It prints one line per workload and end-to-end metric of
``BENCHMARK.json`` and writes the ``BENCH_*.json`` layout to ``--out``
(default: standard output only): per metric, each tree's runs, their
quartiles, the change's median over the parent's, in how many pairs the
change beat the parent, the parent's interquartile distance and the
metric's bound, and the same for the A/A copy in ``aa_*`` fields.

A gain counts only beyond the A/A gap: the change must beat the parent
in at least nine of ten pairs, and its median must differ from the
parent's by more than both the parent's interquartile distance and the
distance between the two copies of the parent.  ``gain_counts`` records
that verdict for each metric.  Two checkouts of one commit have read up
to 6% apart on this benchmark, so a gain within the A/A gap is noise.

Exits 1 when a run fails (a nonzero exit, a run whose ops were not all
correct, or no JSON result), 0 otherwise; the verdicts do not set it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("parent", "change", "aa")


def export(rev: str, dest: str) -> None:
    # the committed files of rev, as the benchmark's own checkout sees them
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: correct="
                           f"{result['correct']}, {result['failed']} failed ops")
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(runs: dict, better: str, bound: float) -> dict:
    # one metric's verdicts from each tree's runs (one a pair, in pair order)
    sign = 1.0 if better == "lower" else -1.0
    stats = {tree: quartiles(runs[tree]) for tree in TREES}
    base = stats["parent"]["median"]
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    out = {tree: stats[tree] for tree in TREES}
    out.update({f"{tree}_runs": runs[tree] for tree in TREES})
    for tree, key in (("change", "change"), ("aa", "aa")):
        wins = sum(sign * (c - p) < 0 for c, p in zip(runs[tree], runs["parent"]))
        out[f"{key}_over_parent"] = stats[tree]["median"] / base
        out[f"{key}_wins"] = f"{wins}/{len(runs['parent'])}"
    gap = stats["change"]["median"] - base
    aa_gap = abs(stats["aa"]["median"] - base)
    wins = int(out["change_wins"].split("/")[0])
    out.update({
        "parent_iqr": iqr,
        "aa_gap": aa_gap,
        "worse_by": sign * gap / base,
        "bound": bound,
        "within_bound": sign * gap / base <= bound,
        "gain_counts": (sign * gap < 0 and abs(gap) > max(iqr, aa_gap)
                        and wins >= 0.9 * len(runs["parent"])),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1", help="the commit to compare against")
    p.add_argument("--change", default="HEAD", help="the commit under test")
    p.add_argument("--workloads", default=None,
                   help="comma-separated workloads (default: BENCHMARK.json's)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15.0, help="length of each run")
    p.add_argument("--first-seed", type=int, default=3600)
    p.add_argument("--claim", default="", help="the claim the pairs test, recorded as given")
    p.add_argument("--out", default=None, help="write the JSON here")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    revs = {"parent": args.parent, "change": args.change, "aa": args.parent}
    resolved = {tree: subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                                     capture_output=True, text=True).stdout.strip()
                for tree, rev in revs.items()}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    report = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {args.seconds:g} --trace 0",
        "parent": resolved["parent"],
        "change": resolved["change"],
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "each pair runs the parent, the change and the A/A copy of the "
                 "parent in an order rotated by one place from the pair before",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "claim": args.claim,
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        dirs = {tree: os.path.join(scratch, tree) for tree in TREES}
        for tree in TREES:
            export(resolved[tree], dirs[tree])
        for workload in workloads:
            results: dict = {tree: [] for tree in TREES}
            try:
                for i, seed in enumerate(seeds):
                    order = TREES[i % 3:] + TREES[:i % 3]
                    for tree in order:
                        results[tree].append(run_once(dirs[tree], workload, seed,
                                                      args.seconds, env))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                status = 1
                continue
            metrics = {}
            for m in bench["end_to_end"]:
                runs = {tree: [r["metrics"][m["name"]]["value"] for r in results[tree]]
                        for tree in TREES}
                metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                      **compare(runs, m["better"], m["bound"])}
                v = metrics[m["name"]]
                print(f"{workload} {m['name']}: parent {v['parent']['median']:.4g}, "
                      f"change {v['change']['median']:.4g} (wins {v['change_wins']}), "
                      f"A/A {v['aa']['median']:.4g} (wins {v['aa_wins']}); "
                      f"parent IQR {v['parent_iqr']:.3g}, A/A gap {v['aa_gap']:.3g}; "
                      f"gain counts: {v['gain_counts']}, within bound: {v['within_bound']}")
            report["workloads"][workload] = {
                "correct": True,
                "attempted_ops": {tree: sum(r["attempted"] for r in results[tree])
                                  for tree in TREES},
                "failed_ops": {tree: sum(r["failed"] for r in results[tree])
                               for tree in TREES},
                "metrics": metrics,
            }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())

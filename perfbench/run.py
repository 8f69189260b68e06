"""Benchmark of the tracereg rate studies, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (it imports ``src/tracereg``).
Prints one JSON object as the last line of standard output: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

# one BLAS thread: the numeric work is single-threaded numpy, and a pool
# of BLAS threads would only add scheduling noise.  Set before ``host``
# loads numpy.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import host
from spans import Recorder
from stats import typical_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
SETUP_SAMPLES = 3
# a run repeats each kind of op several times, so each kind's median is
# steady: 7 of each preset on smooth_sweeps, whose 15 s hold only 5
MIN_OPS = 40


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def setup_sample(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, recorder=None):
    """Run whole rounds until ``seconds`` of rounds have passed and at
    least MIN_OPS ops are done; the host is
    calibrated before each op.  Returns ((kind, latency scaled to the
    reference host) per op, attempted, failed)."""
    samples, kernels, failed = [], [], 0
    t_begin = time.perf_counter()
    while (len(samples) < MIN_OPS
           or time.perf_counter() - t_begin < seconds):
        for op in workload.round():
            kernels.append(host.calibrate(host.SHARE * samples[-1][1])
                           if samples else
                           host.calibrate(at_least=host.SETUP_KERNELS))
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    result = workload.run(op)
                else:
                    with recorder.span("op"):
                        result = workload.run(op)
            except Exception:
                samples.append((workload.kind(op), time.perf_counter() - t0))
                failed += 1
                traceback.print_exc()
                continue
            samples.append((workload.kind(op), time.perf_counter() - t0))
            bad = workload.check(op, result)
            if bad:
                failed += 1
                print("op failed: " + "; ".join(bad), file=sys.stderr)
    kernels.append(host.calibrate(host.SHARE * samples[-1][1]))
    slow = host.op_slowdowns(kernels)
    print(f"host slowdown {min(slow):.3f}..{max(slow):.3f}", file=sys.stderr)
    scaled = [(kind, t / s) for (kind, t), s in zip(samples, slow)]
    return scaled, len(samples), failed


def ops_per_s(samples, failed) -> float:
    return (len(samples) - failed) / sum(t for _, t in samples)


def end_to_end(samples, failed, setup_s) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(samples, failed),
        "op_p50_ms": 1e3 * typical_op(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(recorder, names, overhead_pct) -> dict:
    ops, op_time, totals = recorder.layer_totals()
    out = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        self_s, calls = totals.get(layer, (0.0, 0))
        if kind == "ms":
            out[name] = 1e3 * self_s / ops
        elif kind == "calls":
            out[name] = calls / ops
    flux_calls = totals.get("datagen.perturb_flux", (0.0, 0))[1]
    root_self = totals.get("op", (0.0, 0))[0]
    out.update({
        "datagen.perturb_flux.distinct_ratio":
            len(recorder.keys["datagen.perturb_flux"]) / flux_calls
            if flux_calls else 0.0,
        "experiments.write_rates.bytes":
            recorder.counters["experiments.write_rates.bytes"] / ops,
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": 100.0 * (1.0 - root_self / op_time),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "tracereg")):
        print(f"no tracereg sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.make(args.workload, workdir)
        workload.setup(args.seed)
        setup_s = time.perf_counter() - T_START
        setup_s /= host.slowdown(host.calibrate(at_least=host.SETUP_KERNELS))
        if args.setup_only:
            print(setup_s)
            return 0
        setup_s = statistics.median(
            [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)])

        if not args.trace:
            samples, attempted, failed = measure(workload, args.seconds)
            metrics = end_to_end(samples, failed, setup_s)
            names = spec["end_to_end"]
        else:
            half = args.seconds / 2.0
            samples, attempted, failed = measure(workload, half)
            plain = ops_per_s(samples, failed)
            recorder = Recorder()
            workloads.install_call_sites(recorder)
            workload.trace(recorder)
            try:
                samples, n2, f2 = measure(workload, half, recorder)
            finally:
                recorder.restore()
            attempted, failed = attempted + n2, failed + f2
            overhead = 100.0 * (plain - ops_per_s(samples, f2)) / plain
            names = spec["per_layer"]
            metrics = per_layer(recorder, [m["name"] for m in names], overhead)
            recorder.dump(os.path.join(OUT, f"spans-{args.workload}.json"))
        problems = workload.finish()
        for p in problems:
            print("run check failed: " + p, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

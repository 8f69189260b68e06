"""Page faults and allocation peaks of the reconstruction and the property suite.

    python scripts/alloc_profile.py SRC_DIR [--seed N] [--seconds S]

Imports ``tracereg`` from SRC_DIR (the ``src`` directory of any checkout)
and sets up two of the benchmark's workloads: ``fixed_data_solves``, whose
ops are one ``reconstruct_noisy`` plus two error norms on pre-drawn
n = 64001 rough-noise inputs, and ``smooth_sweeps``, whose ops are whole
n = 2001 rate studies through the CLI.  It runs each workload's ops
through ``perfbench/run.py``'s own timing loop (host calibration, op,
output check), once to warm up and once counted.  It prints:

- the wall time of a bare ``import tracereg`` in a fresh process, numpy
  included, and that process's peak resident set size in MB: the
  start-up every CLI process and benchmark set-up pays;
- the minor page faults of each counted loop (``getrusage``): the loop's
  total, its op count and the faults per op.  The allocator returns the
  top of the heap to the system when enough of it is free and faults it
  back in on the next large allocation, so this count moves with the
  order and sizes of the op's temporaries, and on the sweeps with what a
  sweep keeps from one delta to the next.  On ``fixed_data_solves`` the
  per-op figure is mostly a fixed cost of the loop divided by its op
  count: the total stays near 3,000 faults whether the loop runs 40 ops
  or 300, so the per-op figure follows the host's speed.  Compare loop
  totals there, not per-op figures.  Beside it, the loop's
  user and system CPU ms per op (``getrusage``; the host calibration,
  about 2% of an op, and the output check included): a fault costs
  system time, about 2 us each on a 2-vCPU x86_64 host;
- the ``tracemalloc`` peak of one ``reconstruct_noisy`` on the pool's
  first input, above what was allocated before the call, in MiB;
- the ``tracemalloc`` peak of the process's first ``run_all_checks()``
  pass, the one that fills the suite's caches, and how much of it the
  caches keep, in MiB: what the property checks' blocks and tables add to
  the ``property_suite`` workload's ``peak_rss_mb``;
- the minor page faults and the wall time in ms of two ``rate_l2_h1``
  ``run_sweep`` calls in a fresh process, the first (cold) and the second
  (warm), and that process's peak resident set size in MB
  (``ru_maxrss``): what a whole n = 64001 sweep holds and faults in, and
  what the faults cost it in time.

Compare two checkouts by running it once with each one's ``src``.  The
benchmark code comes from this checkout, so both sides run the same loop.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc

#: Run in a fresh interpreter with the src directory as its argument: the
#: faults and the seconds of a cold and of a warm rate_l2_h1 sweep, then the
#: peak RSS in kB.
SWEEP = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from tracereg.experiments import preset, run_sweep
config = preset("rate_l2_h1")
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run_sweep(config)
    seconds = time.perf_counter() - start
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, seconds)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

#: Run in a fresh interpreter with the src directory as its argument: the
#: seconds a bare ``import tracereg`` takes, then the peak RSS in kB.
IMPORT = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import tracereg
print(time.perf_counter() - start)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def _traced(fn, *args) -> tuple[int, int]:
    # the bytes allocated at fn's peak and when it returns, above what was
    # allocated before the call
    tracemalloc.start()
    live = tracemalloc.get_traced_memory()[0]
    fn(*args)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - live, kept - live


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", help="directory holding the tracereg package")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=3.0,
                   help="length of the counted loop")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src_dir, "tracereg")):
        print(f"no tracereg package under {args.src_dir}", file=sys.stderr)
        return 2
    # first, while this process is small: on Linux a child's ru_maxrss
    # starts from its parent's peak.  The child keeps this environment's
    # BLAS threads, as a CLI process would.
    done = subprocess.run([sys.executable, "-c", IMPORT,
                           os.path.abspath(args.src_dir)],
                          capture_output=True, text=True, check=True)
    seconds, max_rss_kb = done.stdout.split()
    print(f"import tracereg: {float(seconds):.3f} s in a fresh process; "
          f"process peak RSS {int(max_rss_kb) / 1024:.1f} MB")

    sys.path[:0] = [os.path.abspath(args.src_dir), PERFBENCH]
    # run.py sets one BLAS thread before numpy loads, as in a benchmark run
    import run
    import workloads
    from tracereg.checks import run_all_checks
    from tracereg.regularizer import reconstruct_noisy

    counted = {}
    with tempfile.TemporaryDirectory() as workdir:
        # the small grids first: the n = 64001 solves raise the allocator's
        # thresholds for the rest of the process, as no sweep process does
        for name in ("smooth_sweeps", "fixed_data_solves"):
            workload = workloads.make(name, workdir)
            workload.setup(args.seed)
            run.measure(workload, 0.0)
            before = resource.getrusage(resource.RUSAGE_SELF)
            _, attempted, failed = run.measure(workload, args.seconds)
            after = resource.getrusage(resource.RUSAGE_SELF)
            counted[name] = workload, attempted, failed, [
                getattr(after, f) - getattr(before, f)
                for f in ("ru_minflt", "ru_utime", "ru_stime")]
    workload = counted["fixed_data_solves"][0]

    _, noisy, params = workload.pool[0]
    peak, _ = _traced(reconstruct_noisy, workload.problem, noisy, params)
    checks_peak, checks_kept = _traced(run_all_checks)

    for name, (_, attempted, failed, (faults, user, system)) in counted.items():
        print(f"{name} seed {args.seed}: {attempted} ops, "
              f"{failed} failed, {faults} minor faults in the loop, "
              f"{faults / attempted:.1f} per op, "
              f"CPU {1e3 * user / attempted:.2f} ms user, "
              f"{1e3 * system / attempted:.3f} ms system per op")
    print(f"reconstruct_noisy tracemalloc peak: {peak / 2**20:.2f} MiB")
    print(f"run_all_checks tracemalloc peak: {checks_peak / 2**20:.2f} MiB, "
          f"{checks_kept / 2**20:.2f} MiB of it kept in caches")
    # the child inherits run.py's one-BLAS-thread environment
    done = subprocess.run([sys.executable, "-c", SWEEP,
                           os.path.abspath(args.src_dir)],
                          capture_output=True, text=True, check=True)
    cold, cold_s, warm, warm_s, max_rss_kb = done.stdout.split()
    print(f"rate_l2_h1 run_sweep: {cold} minor faults cold in "
          f"{1e3 * float(cold_s):.0f} ms, {warm} warm in {1e3 * float(warm_s):.0f} ms; "
          f"process peak RSS {int(max_rss_kb) / 1024:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

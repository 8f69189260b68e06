"""Page faults and allocation peak of the n = 64001 reconstruction.

    python scripts/alloc_profile.py SRC_DIR [--seed N] [--seconds S]

Imports ``tracereg`` from SRC_DIR (the ``src`` directory of any checkout)
and sets up the benchmark's ``fixed_data_solves`` workload, whose ops are
one ``reconstruct_noisy`` plus two error norms on pre-drawn n = 64001
rough-noise inputs.  It runs the ops through ``perfbench/run.py``'s own
timing loop (host calibration, op, output check), once to warm up and
once counted, and prints:

- the minor page faults per op of the counted loop (``getrusage``).  The
  allocator returns the top of the heap to the system when enough of it
  is free and faults it back in on the next large allocation, so this
  count moves with the order and sizes of the op's temporaries;
- the ``tracemalloc`` peak of one ``reconstruct_noisy`` on the pool's
  first input, above what was allocated before the call, in MiB;
- the minor page faults of two ``rate_l2_h1`` ``run_sweep`` calls in a
  fresh process, the first (cold) and the second (warm), and that
  process's peak resident set size in MB (``ru_maxrss``): what a whole
  n = 64001 sweep holds and faults in.

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
#: faults of a cold and of a warm rate_l2_h1 sweep, then the peak RSS in kB.
SWEEP = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from tracereg.experiments import preset, run_sweep
config = preset("rate_l2_h1")
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_sweep(config)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


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
    sys.path[:0] = [os.path.abspath(args.src_dir), PERFBENCH]
    # run.py sets one BLAS thread before numpy loads, as in a benchmark run
    import run
    import workloads
    from tracereg.regularizer import reconstruct_noisy

    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.make("fixed_data_solves", workdir)
        workload.setup(args.seed)
        run.measure(workload, 0.0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _, attempted, failed = run.measure(workload, args.seconds)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    _, noisy, params = workload.pool[0]
    tracemalloc.start()
    live = tracemalloc.get_traced_memory()[0]
    reconstruct_noisy(workload.problem, noisy, params)
    peak = tracemalloc.get_traced_memory()[1] - live
    tracemalloc.stop()

    print(f"fixed_data_solves seed {args.seed}: {attempted} ops, "
          f"{failed} failed, {faults / attempted:.1f} minor faults per op")
    print(f"reconstruct_noisy tracemalloc peak: {peak / 2**20:.2f} MiB")

    # the child inherits run.py's one-BLAS-thread environment
    done = subprocess.run([sys.executable, "-c", SWEEP,
                           os.path.abspath(args.src_dir)],
                          capture_output=True, text=True, check=True)
    cold, warm, max_rss_kb = (int(v) for v in done.stdout.split())
    print(f"rate_l2_h1 run_sweep: {cold} minor faults cold, {warm} warm; "
          f"process peak RSS {max_rss_kb / 1024:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

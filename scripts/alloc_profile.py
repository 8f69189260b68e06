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
  first input, above what was allocated before the call, in MiB.

Compare two checkouts by running it once with each one's ``src``.  The
benchmark code comes from this checkout, so both sides run the same loop.
"""

import argparse
import os
import resource
import sys
import tempfile
import tracemalloc

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
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-eval --seed 1 --seconds 8 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off;
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of :mod:`perfbench.tracing` and reports every per-layer
metric.  The last line of standard output is the result object::

    {"correct": true, "attempted": 1731, "failed": 0,
     "metrics": {"setup_s": {"value": 0.1021, "unit": "s"}, ...}}

A human-readable table goes to standard error.  The program is imported
from ``src/`` of the same checkout; without it the command exits with
status 2 and prints no result.  Scratch files (the mmap score shards)
live under ``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("fit-eval", "serve-read", "serve-update")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="minimum length of the timed serve loop")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def pin_environment(workdir: str) -> None:
    """One compute thread, program defaults, scratch inside the checkout.

    Set before numpy is imported: BLAS reads its thread count once.
    ``REPRO_*`` variables select program behaviour (workers, score
    store, kernels, run registry), so none may leak in from the caller.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["TMPDIR"] = workdir


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    pin_environment(workdir)
    sys.path[:0] = [SRC, ROOT]
    try:
        from perfbench import workloads
        import repro
        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  f"from {SRC}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            result = workloads.measure_layers(workload, args.seed, workdir)
        else:
            result = workloads.measure(workload, args.seed, args.seconds,
                                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:>13} {name:<28} {value:>14.6g} {unit}",
              file=sys.stderr)
    for name, value in result.get("raw", {}).items():
        print(f"{args.workload:>13} raw {name:<24} {value:>14.6g} "
              "(uncalibrated, advisory)", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

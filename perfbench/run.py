"""Benchmark entry point: one workload, one seed, one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload zipf-tuned --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout, never from an
installed copy; without it the benchmark exits with status 2 and prints no
result.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload again with the outside-in tracer on and prints the per-layer
metrics.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def load_program():
    """Pin BLAS to one thread and put the checkout's ``src/`` first on the path.

    Raises SystemExit(2) when the checkout holds no program source.
    """
    if not (SRC / "sparsemips" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy first loads
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import sparsemips

    if SRC not in Path(sparsemips.__file__).resolve().parents:
        print(f"benchmark: sparsemips imported from {sparsemips.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, sizes=None):
    load_program()
    import harness

    args = parse_args(argv, sorted(harness.WORKLOADS))
    OUT.mkdir(exist_ok=True)
    metrics, attempted, failed = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        sizes=sizes or harness.FULL, out_dir=OUT,
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload forward-solve --seed 0 --seconds 10 --trace 0

Prints human-readable lines (environment, each metric with its unit, the
error rate) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones.  Exits non-zero without a result when the package cannot be
imported from ``src/`` next to this directory.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ["forward-solve", "inversion", "cli-invert", "experiments"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    t0 = time.perf_counter()
    try:
        import superlens_imaging.cli  # noqa: F401  (numpy, scipy, every module)
    except ImportError as exc:
        print(f"perfbench: cannot import superlens_imaging: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    pkg = Path(sys.modules["superlens_imaging"].__file__).resolve()
    if src.resolve() not in pkg.parents:
        print(f"perfbench: superlens_imaging came from {pkg}, not {src}",
              file=sys.stderr)
        return 2

    from perfbench.harness import report, run_workload
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), import_s=import_s)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

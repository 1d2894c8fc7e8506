#!/usr/bin/env python3
"""Pin the benchmark's reference outputs from the current code.

    python3 perfbench/pin_refs.py [--grid full|fast]

Runs one pass of every workload for the default and the held-out seed and
writes what each operation's ``observe`` returns to ``perfbench/refs/<grid>.json``:
forward-solve top-of-slab coefficients (seed-independent), per-seed
inversion / cli-invert / experiments values, and the output file sets.
Then re-runs every workload against the new file and fails unless every
check passes.  Re-pin only from a commit whose outputs are known good.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import (DEFAULT_SEED, HELD_OUT_SEED,  # noqa: E402
                               REFS_DIR, WORK_ROOT, run_workload)
from perfbench.workloads import WORKLOADS, Context, files_under  # noqa: E402

SEEDED = ["inversion", "cli-invert", "experiments"]


def _observe_all(name: str, ctx: Context):
    ops = WORKLOADS[name](ctx)
    observed, files = {}, {}
    for op in ops:
        outdir = ctx.workdir / "out" / op.name
        outdir.mkdir(parents=True)
        out = op.run(outdir)
        observed[op.name] = op.observe(out, outdir)
        files[op.name] = files_under(outdir)
    return observed, files


def pin(grid: str) -> dict:
    refs = {"grid": grid, "seeds": {}, "files": {}}
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            work = Path(tmp) / str(seed)
            ctx = Context(grid=grid, seed=seed, refs={}, workdir=work)
            if seed == DEFAULT_SEED:
                refs["forward"], _ = _observe_all("forward-solve", ctx)
            per_seed = refs["seeds"][str(seed)] = {}
            for name in SEEDED:
                per_seed[name], files = _observe_all(name, ctx)
                if seed == DEFAULT_SEED:
                    refs["files"][name] = files
                shutil.rmtree(work / "out")
    return refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--grid", choices=["full", "fast"], action="append")
    grids = ap.parse_args().grid or ["full", "fast"]
    REFS_DIR.mkdir(exist_ok=True)
    for grid in grids:
        refs = pin(grid)
        (REFS_DIR / f"{grid}.json").write_text(json.dumps(refs) + "\n")
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for name in WORKLOADS:
                r = run_workload(name, seed, 0.0, False, grid=grid)
                print(f"{grid} seed={seed} {name}: "
                      f"{r['failed']}/{r['attempted']} failed")
                if r["failed"]:
                    for p in r["passes"]:
                        print(p["failures"], file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired parent/change runs of the benchmark, summarized in one JSON file.

    python3 scripts/bench_pair.py --parent HEAD --pairs 10 --out bench.json

The parent commit and the change, this checkout's working tree, are both
exported with ``git archive`` into a temporary directory that is removed on
exit, so the two sides differ only in their files.  The working tree,
untracked files that are not ignored included, is written as a tree through
a scratch index; the real index and working tree stay untouched.  Each pair
runs ``perfbench/run.py --trace 0`` once in each tree, each run in a fresh
process, and flips which tree goes first from one pair to the next.

The output holds ``perfbench.harness.environment()``, both commits with the
hashes of the trees that ran, the last-line result of every run and, for
each workload, seed and end-to-end metric, both trees' medians and
quartiles, the number of pairs the change won, and whether the gap between
the medians (positive when the change is better) exceeds the parent's
interquartile range.  ``--trace 1`` adds one
traced run per tree, workload and seed, so the per-layer metrics sit
beside the end-to-end ones.  Exits 1 when a run fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

WORKLOADS = ["forward-solve", "inversion", "experiments"]


class RunFailed(Exception):
    pass


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def _extract(tree: str, into: Path) -> None:
    """The files of `tree` under `into`."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _export(rev: str, into: Path) -> dict:
    """The committed files of `rev` under `into`; returns its description."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = _git("rev-parse", f"{commit}^{{tree}}")
    _extract(tree, into)
    return {"rev": rev, "commit": commit, "tree": tree}


def _export_working_tree(into: Path) -> dict:
    """The working tree under `into`, written as a tree through a scratch
    index next to it; returns its description."""
    env = {**os.environ, "GIT_INDEX_FILE": str(into.parent / "index")}
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    tree = _git("write-tree", env=env)
    _extract(tree, into)
    return {"rev": "working tree", "commit": _git("rev-parse", "HEAD"),
            "tree": tree}


def _run(tree: Path, workload: str, seed: int, seconds: float,
         trace: bool) -> dict:
    """One perfbench/run.py process in `tree`; its last-line result."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RunFailed(f"{' '.join(cmd)} exited {proc.returncode} without a "
                        f"result:\n{proc.stderr[-2000:]}")
    return result


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Whether every run was correct, the failed operations per tree, and
    per end-to-end metric both trees' spread, the change's wins and the
    median gap against the parent's interquartile range."""
    trees = ("parent", "change")
    out = {"correct": {t: all(p[t]["correct"] for p in pairs) for t in trees},
           "failed": {t: sum(p[t]["failed"] for p in pairs) for t in trees},
           "metrics": {}}
    for name, (unit, better) in harness.END_TO_END.items():
        sign = 1 if better == "lower" else -1
        values = {t: [p[t]["metrics"][name]["value"] for p in pairs]
                  for t in trees}
        parent, change = _spread(values["parent"]), _spread(values["change"])
        gap = sign * (parent["median"] - change["median"])
        iqr = parent["q3"] - parent["q1"]
        out["metrics"][name] = {
            "unit": unit, "better": better, "parent": parent,
            "change": change,
            "wins": sum(sign * (p - c) > 0 for p, c in
                        zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "gap": gap,
            "relative_gap": (gap / parent["median"] if parent["median"]
                             else None),
            "parent_iqr": iqr,
            "gap_exceeds_parent_iqr": gap > iqr,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="commit to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS,
                    choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int,
                    default=[harness.DEFAULT_SEED, harness.HELD_OUT_SEED])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if args.seconds < 0 or min(args.seeds) < 0:
        ap.error("--seconds and --seeds must be >= 0")

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {t: Path(tmp) / t for t in ("parent", "change")}
        commits = {"parent": _export(args.parent, trees["parent"]),
                   "change": _export_working_tree(trees["change"])}

        runs, summary, traced = [], {}, {}
        try:
            for workload in args.workloads:
                for seed in args.seeds:
                    pairs = []
                    for i in range(args.pairs):
                        order = (("parent", "change") if i % 2 == 0
                                 else ("change", "parent"))
                        pair = {tree: _run(trees[tree], workload, seed,
                                           args.seconds, False)
                                for tree in order}
                        pairs.append(pair)
                        runs.append({"workload": workload, "seed": seed,
                                     "pair": i, "order": order, **pair})
                        print(f"{workload} seed {seed} pair {i}: " + ", ".join(
                            f"{t} wall_s "
                            f"{pair[t]['metrics']['wall_s']['value']:.4f}"
                            for t in order), file=sys.stderr)
                    summary.setdefault(workload, {})[str(seed)] = (
                        summarize(pairs))
                    if args.trace:
                        traced.setdefault(workload, {})[str(seed)] = {
                            tree: _run(trees[tree], workload, seed,
                                       args.seconds, True)["metrics"]
                            for tree in ("parent", "change")}
        except RunFailed as exc:
            print(f"bench_pair: {exc}", file=sys.stderr)
            return 1

    doc = {
        "environment": harness.environment(),
        "parent": commits["parent"],
        "change": commits["change"],
        "settings": {"pairs": args.pairs, "workloads": args.workloads,
                     "seeds": args.seeds, "seconds": args.seconds,
                     "trace": args.trace},
        "summary": summary,
        "traced": traced,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload: repeated set-up, timed passes, checks, metrics.

One process drives the load in a closed loop: a pass runs the workload's
operations one after another, and the next pass starts when it is done.
No threads are added beyond what numpy/scipy/OpenBLAS start by default.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from . import tracing
from .workloads import WORKLOADS, Context

REFS_DIR = Path(__file__).resolve().parent / "refs"
ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: set-ups per run; setup_s reports their median (plus the one-off import)
SETUP_REPEATS = 3
DEFAULT_SEED = 0
HELD_OUT_SEED = 7331

#: name -> (unit, better); the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]


def load_refs(grid: str) -> dict:
    path = REFS_DIR / f"{grid}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def tail_percentile(samples: list[float]):
    """The highest of p50/p90/p99/p99.9 with at least ten samples above it,
    as (p, value), or None when there are too few samples."""
    fit = [p for p in (50, 90, 99, 99.9) if len(samples) * (1 - p / 100) >= 10]
    if not fit:
        return None
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return fit[-1], cuts[round(fit[-1] * 10) - 1]


def _git_commit(start: Path) -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    for d in (start, *start.parents):
        git = d / ".git"
        if not git.is_dir():
            continue
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        packed = git / "packed-refs"
        if packed.exists():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return f"unresolved {ref}"
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cores = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": cores,
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "load": (f"one process, closed loop, no threads added beyond the "
                 f"libraries' defaults, on {cores} available cores"),
    }


def _run_pass(ops, tracer, pass_dir: Path, traced: bool) -> dict:
    dirs = []
    for i, op in enumerate(ops):
        d = pass_dir / f"{i}-{op.name}"
        d.mkdir(parents=True)
        dirs.append(d)
    outs = []
    op_walls = []
    if traced:
        tracer.install()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        for op, d in zip(ops, dirs):
            ts = time.perf_counter()
            try:
                outs.append((op.run(d), None))
            except Exception:  # an operation that raises counts as failed
                outs.append((None, traceback.format_exc()))
            op_walls.append(time.perf_counter() - ts)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if traced:
            tracer.uninstall()

    failures = []
    for op, d, (out, err) in zip(ops, dirs, outs):
        try:
            problems = [err] if err else op.check(out, d)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            failures.append((op.name, problems))
    result = {"wall": wall, "cpu": cpu, "op_walls": op_walls,
              "failures": failures, "traced": traced}
    if traced:
        layers = tracer.pass_metrics()
        files = [p for p in pass_dir.rglob("*") if p.is_file()]
        layers["cli.files_written"] = len(files)
        layers["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        result["layers"] = layers
    shutil.rmtree(pass_dir)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 grid: str = "full", refs: dict | None = None,
                 import_s: float = 0.0) -> dict:
    """Set up `name` SETUP_REPEATS times, then run passes until their wall
    time adds up to `seconds` (at least one; with `trace`, passes alternate
    untraced/traced and at least one of each runs)."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        ctx = Context(grid=grid, seed=seed,
                      refs=load_refs(grid) if refs is None else refs,
                      workdir=workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = WORKLOADS[name](ctx)
            setups.append(time.perf_counter() - t0)

        tracer = tracing.Tracer()
        passes = []
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(_run_pass(ops, tracer, workdir / f"pass{len(passes)}",
                                    traced))
            measured = sum(p["wall"] for p in passes)
            if measured >= seconds and (not trace or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    e2e = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        metrics = {k: statistics.median(p["layers"][k] for p in traced_passes)
                   for k in tracing.PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced_passes) - e2e["wall_s"])
        units = tracing.PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    return {
        "workload": name, "seed": seed, "grid": grid, "trace": trace,
        "pinned_seed": str(seed) in ctx.refs.get("seeds", {}),
        "setups": setups, "import_s": import_s, "passes": passes,
        "e2e": e2e, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]}
                    for k, v in metrics.items()},
    }


def report(result: dict, out=sys.stdout) -> None:
    """Human-readable lines, then the one-line JSON result."""
    def line(s=""):
        print(s, file=out)

    plain = [p for p in result["passes"] if not p["traced"]]
    line(f"perfbench: workload={result['workload']} seed={result['seed']} "
         f"grid={result['grid']} trace={int(result['trace'])} "
         f"references={'pinned' if result['pinned_seed'] else 'invariants only'}")
    line("env " + json.dumps(environment(), sort_keys=True))
    e2e = result["e2e"]
    line(f"  setup_s      {e2e['setup_s']:.4f} s   median of "
         f"{len(result['setups'])} set-ups + import {result['import_s']:.3f} s")
    for key, samples in (("wall_s", [p["wall"] for p in plain]),
                         ("cpu_s", [p["cpu"] for p in plain])):
        tail = tail_percentile(samples)
        tail_s = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                  "no tail percentile (needs >= 20 passes)")
        line(f"  {key:<12} {e2e[key]:.4f} s   median of n={len(samples)} "
             f"passes; {tail_s}")
    op_walls = [w for p in plain for w in p["op_walls"]]
    tail = tail_percentile(op_walls)
    line(f"  op_wall      median {statistics.median(op_walls):.4f} s over "
         f"n={len(op_walls)} operations; "
         + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
            "no tail percentile (needs >= 20 operations)"))
    line(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    line(f"  error_rate   {result['failed']}/{result['attempted']} = "
         f"{result['failed'] / result['attempted']:.4f}")
    if result["trace"]:
        line("  per-layer (median per traced pass):")
        for k, m in result["metrics"].items():
            line(f"    {k:<32} {m['value']:.6g} {m['unit']}")
    for p in result["passes"]:
        for name, problems in p["failures"]:
            for msg in problems:
                print(f"FAILED {name}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), file=out)

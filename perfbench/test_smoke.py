"""Smoke tests of the benchmark itself, on coarse grids (I=33, N_f=8, M=32).

    python3 -m pytest -q perfbench

Each workload runs once against the pinned coarse-grid references; a
deliberately wrong reference must show up as a failed operation.
"""

import copy
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracing
from perfbench.harness import (END_TO_END, HELD_OUT_SEED, load_refs, report,
                               run_workload)
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
N_WINDOW = 12
SWEEP = 7 * 3


@pytest.fixture(scope="module")
def refs():
    return load_refs("fast")


def _run(name, seed=0, trace=False, refs=None):
    return run_workload(name, seed, 0.0, trace, grid="fast", refs=refs)


def _failures(result):
    return [f for p in result["passes"] for f in p["failures"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_check_passes(name):
    r = _run(name)
    assert r["pinned_seed"]
    assert r["failed"] == 0, _failures(r)
    assert r["attempted"] >= 3
    assert set(r["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in r["metrics"].values())


@pytest.mark.parametrize("seed", [HELD_OUT_SEED, 3])
def test_held_out_and_unpinned_seeds_pass(seed):
    r = _run("inversion", seed=seed)
    assert r["pinned_seed"] == (seed == HELD_OUT_SEED)
    assert r["failed"] == 0, _failures(r)


def _break_inversion(refs):
    refs["seeds"]["0"]["inversion"]["exp1-row1"]["chosen_N"] += 1


def _break_cli_invert(refs):
    refs["seeds"]["0"]["cli-invert"]["exp2-row1"]["chosen_N"] += 1


def _break_experiments(refs):
    row = refs["seeds"]["0"]["experiments"]["exp3"]["exp3/row1_eps_0.001"]
    row["chosen_N"] += 1


def _break_forward(refs):
    top = refs["forward"]["glyph-eps1e-2"]["top_re"]
    top[0][0] += 1e-6 * abs(max(map(max, top)))


@pytest.mark.parametrize("name, breaker", [
    ("inversion", _break_inversion), ("cli-invert", _break_cli_invert),
    ("experiments", _break_experiments), ("forward-solve", _break_forward)])
def test_wrong_reference_counts_as_failed(refs, name, breaker):
    bad = copy.deepcopy(refs)
    breaker(bad)
    r = _run(name, refs=bad)
    assert r["failed"] == 1, _failures(r)
    out = io.StringIO()
    report(r, out=out)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer(refs, name):
    r = _run(name, trace=True)
    assert r["failed"] == 0, _failures(r)
    assert [p["traced"] for p in r["passes"]] == [False, True]
    layers = {k: m["value"] for k, m in r["metrics"].items()}
    assert list(layers) == list(tracing.PER_LAYER)
    files = refs["files"].get(name, {})
    n_files = sum(len(f) for f in files.values())
    rows = 8 if name == "experiments" else 3
    per_row_recons = (N_WINDOW + 1) * (1 + SWEEP)
    expected = {
        "forward-solve": {
            "forward.solves": 4,
            "forward.iterations": sum(p["iterations"]
                                      for p in refs["forward"].values()),
            "inverse.reconstruct_calls": 0, "pnm.images": 0},
        "inversion": {"forward.solves": 0, "pnm.images": 0,
                      "inverse.reconstruct_calls": rows * per_row_recons,
                      "cli.files_written": 0},
        "cli-invert": {"forward.solves": 0, "pnm.images": 3 * (N_WINDOW + 2),
                       "inverse.reconstruct_calls": 3 * (N_WINDOW + 1),
                       "cli.files_written": n_files},
        # exp1's three noise rows share one solve; exp1's first row is
        # inverted once more through `cli invert`
        "experiments": {"forward.solves": 6,
                        "experiments.solve_cache_hits": 2,
                        "pnm.images": (rows + 1) * (N_WINDOW + 2),
                        "inverse.reconstruct_calls":
                            rows * per_row_recons + N_WINDOW + 1,
                        "cli.files_written": n_files},
    }[name]
    assert {k: layers[k] for k in expected} == expected
    busy = {"forward-solve": "forward.solve_s",
            "inversion": "inverse.error_decomposition_s",
            "cli-invert": "measurement.load_csv_s",
            "experiments": "experiments.run_row_s"}[name]
    assert layers[busy] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inversion",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

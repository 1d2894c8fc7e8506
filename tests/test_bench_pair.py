"""Tests of scripts/bench_pair.py: a smoke run of one pair of zero-second
inversion runs, HEAD exported as the parent against an export of this
working tree, and its summary of synthetic runs."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pair.py"
END_TO_END = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.skipif(shutil.which("git") is None
                    or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_bench_pair_smoke(tmp_path):
    out = tmp_path / "bench.json"
    status = _git("status", "--porcelain")
    subprocess.run([sys.executable, str(SCRIPT), "--parent", "HEAD",
                    "--pairs", "1", "--seconds", "0",
                    "--workloads", "inversion", "--seeds", "0",
                    "--out", str(out)],
                   check=True, capture_output=True, timeout=600,
                   env={**os.environ, "TMPDIR": str(tmp_path)})
    doc = json.loads(out.read_text())
    assert set(doc) == {"environment", "parent", "change", "settings",
                        "summary", "traced", "runs"}
    assert doc["parent"]["commit"] == doc["change"]["commit"]
    assert set(doc["summary"]) == {"inversion"}
    summary = doc["summary"]["inversion"]["0"]
    assert summary["correct"] == {"parent": True, "change": True}
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert set(summary["metrics"]) == END_TO_END
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, m in summary["metrics"].items():
        assert m["bound"] == bounds[name]
        assert set(m) == {"unit", "better", "parent", "change", "wins",
                          "pairs", "gap", "relative_gap", "parent_iqr",
                          "gap_exceeds_parent_iqr", "bound", "unresolved"}
        for tree in ("parent", "change"):
            assert set(m[tree]) == {"median", "q1", "q3"}
        assert m["pairs"] == 1 and m["wins"] in (0, 1)
        assert m["parent_iqr"] == 0
        assert m["unresolved"] is False
    [run] = doc["runs"]
    assert run["order"] == ["parent", "change"]
    assert {run["parent"]["attempted"], run["change"]["attempted"]} == {3}
    # the exported tree is gone
    assert not list(tmp_path.glob("bench-pair-*"))
    # the change ran from an export whose tree holds every tracked or
    # unignored untracked file as it is on disk, and the checkout's index
    # and working tree are as they were
    assert _git("status", "--porcelain") == status
    assert doc["parent"]["tree"] == _git("rev-parse", "HEAD^{tree}").strip()
    on_disk = sorted(f for f in _git("ls-files", "--cached", "--others",
                                     "--exclude-standard", "-z").split("\0")
                     if f and (ROOT / f).is_file())
    exported = dict(line.split("\t")[::-1] for line in _git(
        "ls-tree", "-r", "-z", doc["change"]["tree"]).split("\0") if line)
    assert sorted(exported) == on_disk
    assert ([exported[f].split()[2] for f in on_disk]
            == _git("hash-object", "--", *on_disk).split())


def _load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    def run(v):
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": v} for name in END_TO_END}}
    return [{"parent": run(p), "change": run(c)}
            for p, c in zip(parent, change)]


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    bench_pair = _load_bench_pair()
    # the parent's quartiles 1.0 and 1.5 spread by half its median 1.0...
    wide = [0.8, 1.0, 1.0, 1.5, 1.5]
    m = bench_pair.summarize(_pairs(wide, [1.2] * 5))["metrics"]["wall_s"]
    assert m["bound"] == bench_pair.BOUNDS["wall_s"] < 0.5
    assert m["unresolved"] is True
    # ...unless every change run beats every parent run
    m = bench_pair.summarize(_pairs(wide, [0.7] * 5))["metrics"]["wall_s"]
    assert m["unresolved"] is False
    # and a parent spread within the bound resolves it
    m = bench_pair.summarize(_pairs([1.0, 1.01, 1.02, 1.03, 1.04],
                                    [1.2] * 5))["metrics"]["wall_s"]
    assert m["unresolved"] is False

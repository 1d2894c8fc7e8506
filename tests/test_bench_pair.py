"""Smoke test of scripts/bench_pair.py: one pair of zero-second inversion
runs, HEAD exported as the parent against an export of this working tree."""

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
    for m in summary["metrics"].values():
        assert set(m) == {"unit", "better", "parent", "change", "wins",
                          "pairs", "gap", "relative_gap", "parent_iqr",
                          "gap_exceeds_parent_iqr"}
        for tree in ("parent", "change"):
            assert set(m[tree]) == {"median", "q1", "q3"}
        assert m["pairs"] == 1 and m["wins"] in (0, 1)
        assert m["parent_iqr"] == 0
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

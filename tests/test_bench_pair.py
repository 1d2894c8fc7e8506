"""Smoke test of scripts/bench_pair.py: one pair of zero-second inversion
runs, HEAD exported as the parent against this working tree."""

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


@pytest.mark.skipif(shutil.which("git") is None
                    or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_bench_pair_smoke(tmp_path):
    out = tmp_path / "bench.json"
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

"""End-to-end experiment driver checks on the coarse grid.

The full-resolution runs live in the acceptance suite; here we verify the
plumbing — presets, caching, emitted files, seeds — on grids small enough
to keep the module under a few seconds.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from oracles import series_profile
from superlens_imaging.cli import main
from superlens_imaging.config import build_config
from superlens_imaging.errors import UsageError
from superlens_imaging.experiments import (EXPERIMENTS, SNR_SWEEP_TARGETS,
                                           SWEEP_TRIALS, effective_profile,
                                           run_experiment)
from superlens_imaging.output import write_json
from superlens_imaging.profiles import PROFILE_BUILDERS


def test_preset_tables_are_complete():
    assert set(EXPERIMENTS) == {"1", "2", "3"}
    for exp in EXPERIMENTS.values():
        assert exp["rows"], "every experiment needs at least one row"
        for row in exp["rows"]:
            assert "label" in row and "sigma" in row
    # experiment 1 is the sigma sweep on the lossy lens
    sigmas = [r["sigma"] for r in EXPERIMENTS["1"]["rows"]]
    assert sigmas == [0.005, 0.010, 0.020]
    # experiment 2 varies the medium, ending with no slab at all
    media = [r.get("rho", EXPERIMENTS["2"]["base"].get("rho"))
             for r in EXPERIMENTS["2"]["rows"]]
    assert media[-1] == 1


def test_effective_profile_passthrough_for_smooth():
    cfg = build_config(overrides=["profile=1"])
    assert effective_profile(cfg) is cfg.to_profile() or \
        effective_profile(cfg).sample(0.3, 0.4) == \
        cfg.to_profile().sample(0.3, 0.4)


def test_effective_profile_band_limits_glyph():
    cfg = build_config(overrides=["profile=3"], fast=True)
    raw = cfg.to_profile()
    eff = effective_profile(cfg)
    assert not raw.has_derivatives       # glyph is piecewise constant
    assert eff.has_derivatives           # smoothing restores them
    assert eff.spectrum.W == cfg.N_f     # truncated at the solver band
    # the grid is the truncated series, summed pointwise by the oracle
    raw_s = raw.sample_grid(17, 17)
    eff_s = eff.sample_grid(17, 17)
    ref = series_profile(eff.spectrum).sample_grid(17, 17)
    assert np.max(np.abs(eff_s - ref)) <= 1e-12 * np.max(np.abs(ref))
    # band-limiting keeps the bulk of the shape
    assert np.linalg.norm(raw_s - eff_s) < 0.5 * np.linalg.norm(raw_s)


@pytest.fixture(scope="module")
def exp1_fast(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp1")
    base = build_config(overrides=[f"out={out}"], fast=True)
    return run_experiment("1", base), out


def test_exp1_row_selection(exp1_fast):
    result, _ = exp1_fast
    assert [r["chosen_N"] for r in result["rows"]] == [3, 3, 3]
    for row in result["rows"]:
        assert row["discrepancy_satisfied"]
        assert row["rel_error_at_chosen"] < 0.5


def test_exp1_snr_pinned(exp1_fast):
    result, _ = exp1_fast
    targets = [10.9, 5.5, 2.8]
    for row, t in zip(result["rows"], targets):
        assert row["realized_snr"] == pytest.approx(t, rel=1e-9)


def test_exp1_solve_cache_reused(exp1_fast):
    result, _ = exp1_fast
    times = [r["solver"]["solve_seconds"] for r in result["rows"]]
    # rows share surface+medium+grid, so rows 2-3 must hit the cache
    assert times[1] == 0.0 and times[2] == 0.0
    iters = [r["solver"]["iterations"] for r in result["rows"]]
    assert iters[0] == iters[1] == iters[2] > 0


def test_exp1_emitted_files(exp1_fast):
    result, out = exp1_fast
    exp_dir = Path(result["dir"])
    assert exp_dir == out / "exp1"
    index = json.loads((exp_dir / "index.json").read_text())
    assert [r["chosen_N"] for r in index["rows"]] == [3, 3, 3]
    row_dirs = sorted(d for d in exp_dir.iterdir() if d.is_dir())
    assert len(row_dirs) == 3
    for d in row_dirs:
        expected = {"truth.ppm", "measurement.csv", "residual_curve.csv",
                    "error_curve.csv", "decomposition.csv", "snr_sweep.csv",
                    "summary.json"}
        names = {p.name for p in d.iterdir()}
        assert expected <= names
        assert any(n.startswith("recon_N") and n.endswith(".ppm")
                   for n in names)
        summary = json.loads((d / "summary.json").read_text())
        assert summary["config"]["profile"] == "1"
        # reconstruction images share the truth's color scale
        recon = next(n for n in sorted(names)
                     if n.startswith("recon_N") and n.endswith(".ppm.json"))
        side = json.loads((d / recon).read_text())
        truth_side = json.loads((d / "truth.ppm.json").read_text())
        assert side["vmin"] == truth_side["vmin"]
        assert side["vmax"] == truth_side["vmax"]


def test_exp1_row_seeds_distinct(exp1_fast):
    result, _ = exp1_fast
    seeds = [r["config"]["seed"] for r in result["rows"]]
    assert seeds == [0, 10, 20]


def test_exp1_sweep_csv_layout(exp1_fast):
    result, _ = exp1_fast
    d = Path(result["dir"]) / "row1_sigma_0.005"
    lines = (d / "snr_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["target_snr", "trial", "chosen_N"]
    assert len(lines) == 1 + len(SNR_SWEEP_TARGETS) * SWEEP_TRIALS
    # cutoff choice should not decrease as data gets cleaner
    by_target: dict[float, list[int]] = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_target.setdefault(float(parts[0]), []).append(int(parts[2]))
    means = [np.mean(by_target[t]) for t in sorted(by_target)]
    assert means[-1] >= means[0]


def test_exp1_decomposition_identity(exp1_fast):
    result, _ = exp1_fast
    d = Path(result["dir"]) / "row1_sigma_0.005"
    rows = {}
    for line in (d / "decomposition.csv").read_text().splitlines()[1:]:
        term, val = line.split(",")
        rows[term] = float(val)
    assert set(rows) == {"E1_linearization", "E2_noise", "E3_cutoff",
                         "beyond_window"}
    assert all(v >= 0.0 for v in rows.values())
    assert rows["E2_noise"] > 0.0          # sigma > 0 in every preset row
    # the summary mirrors the CSV
    summary = json.loads((d / "summary.json").read_text())
    assert summary["decomposition"]["E2"] == pytest.approx(rows["E2_noise"])


def test_invert_reproduces_row_inversion(exp1_fast, tmp_path, capsys):
    # `invert` on a row's own measurement runs the row's inversion: same
    # curves, same images, same choice
    result, _ = exp1_fast
    row = result["rows"][0]
    d = Path(result["dir"]) / "row1_sigma_0.005"
    argv = ["invert", "--fast", "--data", str(d / "measurement.csv"),
            "--out", str(tmp_path)]
    for key in ("profile", "rho", "kappa", "epsilon", "c"):
        argv += ["--set", f"{key}={row['config'][key]}"]
    assert main(argv) == 0
    recons = sorted(p.name for p in d.glob("recon_N*.ppm"))
    assert recons == sorted(p.name for p in tmp_path.glob("recon_N*.ppm"))
    assert len(recons) == row["config"]["N_window"] + 1
    for name in ["residual_curve.csv", "error_curve.csv", "truth.ppm",
                 *recons]:
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("chosen_N", "best_N", "rel_error_at_chosen", "noise_norm",
                "threshold", "residual_at_chosen"):
        assert summary[key] == row[key], key


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(UsageError):
        run_experiment("4", build_config(overrides=[f"out={tmp_path}"],
                                         fast=True))


def test_profile_builders_cover_presets():
    needed = {exp["base"]["profile"] for exp in EXPERIMENTS.values()}
    assert needed <= set(PROFILE_BUILDERS)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_refuses_non_finite(tmp_path, bad):
    # summaries must stay standard JSON: no NaN or Infinity token
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError):
        write_json(path, {"ok": 1.0, "nested": {"bad": bad}})
    assert not path.exists()

"""Desk-scale reruns of the three imaging experiments.

Each experiment is a list of rows over one surface: the first sweeps the
noise level on the trig surface through a lossy matched slab, the second
compares slab losses (including the slab-absent control) on the smooth
bump surface, the third images a binary glyph at two deformation
amplitudes with a relaxed discrepancy constant.

Row presets pin BOTH a base sigma (the noise draw) and a target SNR the
realization is rescaled to.  The published operating points are stated as
SNR values, and the power-ratio SNR this package reports is not the same
functional of sigma as the one behind those printed values — rescaling the
draw reproduces the stated operating point exactly instead of
approximately (see the noise module's rescale_to_snr).

Forward solves are cached per (surface, physics, discretization) within a
run — noise rows reuse the clean solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import UsageError
from .forward import solve_forward, solver_profile
from .inverse import (choose_cutoff, error_decomposition, recon_coefficients,
                      reconstruct, residual_curve)
from .measurement import (Measurement, NoiseSpec, add_noise, rescale_to_snr,
                          save_measurement_csv)
from .output import staged, write_csv, write_json
from .pnm import save_field_ppm
from .spectral import dft2, grid_l2_norm

#: SNR operating points for the per-row sweep (log-spaced around the
#: tables' values, spanning the published sweep range)
SNR_SWEEP_TARGETS = [0.55, 1.1, 2.75, 5.5, 11.0, 22.0, 44.0]
SWEEP_TRIALS = 3

EXPERIMENTS: dict[str, dict] = {
    "1": {
        "title": "noise sweep, trig surface, lossy matched slab",
        "base": {"profile": "1", "rho": -1 + 0.01j, "kappa": -1 + 0.01j,
                 "epsilon": 0.001, "c": 1.0},
        "rows": [
            {"label": "sigma_0.005", "sigma": 0.005, "target_snr": 10.9},
            {"label": "sigma_0.010", "sigma": 0.010, "target_snr": 5.5},
            {"label": "sigma_0.020", "sigma": 0.020, "target_snr": 2.8},
        ],
    },
    "2": {
        "title": "slab-loss comparison, smooth bump surface",
        "base": {"profile": "2", "epsilon": 0.001, "c": 1.0},
        "rows": [
            {"label": "loss_1e-2", "rho": -1 + 0.01j, "kappa": -1 + 0.01j,
             "sigma": 0.005, "target_snr": 9.4},
            {"label": "loss_1e-3", "rho": -1 + 0.001j, "kappa": -1 + 0.001j,
             "sigma": 0.0009, "target_snr": 9.3},
            {"label": "no_slab", "rho": 1 + 0j, "kappa": 1 + 0j,
             "sigma": 1.0, "target_snr": 9.3},
        ],
    },
    "3": {
        "title": "binary glyph, two deformation amplitudes",
        "base": {"profile": "3", "rho": -1 + 0.001j, "kappa": -1 + 0.001j,
                 "c": 1.3},
        "rows": [
            {"label": "eps_0.001", "epsilon": 0.001, "sigma": 0.0025,
             "target_snr": 10.6},
            {"label": "eps_0.010", "epsilon": 0.010, "sigma": 0.031,
             "target_snr": 10.6},
        ],
    },
}


def effective_profile(cfg: ExperimentConfig):
    """The surface object both the solver and the error metrics see:
    forward.solver_profile of the config's surface, so for a non-smooth
    surface (a binary image) "truth" means the part of the surface the
    imaging problem is posed on.
    """
    return solver_profile(cfg.to_profile(), cfg.to_discretization())


def _measure(top_grid: np.ndarray, sigma: float, seed: int,
             target_snr: float | None) -> Measurement:
    m = add_noise(top_grid, NoiseSpec(sigma=sigma, seed=seed))
    if target_snr is not None:
        m = rescale_to_snr(top_grid, m, target_snr)
    return m


def _invert(meas: Measurement, phys, N_window: int, c: float):
    U = dft2(meas.u_delta)
    rc = recon_coefficients(U, phys)
    curve = residual_curve(U, phys, N_window)
    choice = choose_cutoff(curve, grid_l2_norm(meas.delta), c)
    return rc, curve, choice


def invert_measurement(meas: Measurement, cfg: ExperimentConfig,
                       out_dir: Path, truth: np.ndarray | None = None) -> dict:
    """The inversion `experiment` rows and `invert` share.

    Chooses the cut-off by the discrepancy principle (residual_curve.csv),
    then reconstructs every N in 0..N_window into recon_NXX.ppm.  Given the
    truth samples it also writes truth.ppm, scores each reconstruction
    against them (error_curve.csv) and draws all images on the truth's
    color scale.  Returns the summary entries the two commands share.
    """
    rc, curve, choice = _invert(meas, cfg.to_physical(), cfg.N_window, cfg.c)
    write_csv(out_dir / "residual_curve.csv", ["N", "residual", "threshold"],
              [[n, v, choice.threshold] for n, v in enumerate(curve.values)])

    scale = {}
    if truth is not None:
        truth_norm = grid_l2_norm(truth)
        scale = {"vmin": float(truth.min()), "vmax": float(truth.max())}
        save_field_ppm(out_dir / "truth.ppm", truth,
                       meta={"field": "epsilon*g on the sample grid"})
    errs = []
    for N in range(cfg.N_window + 1):
        fN = reconstruct(rc, N, (cfg.I, cfg.I))
        meta = {"N": N}
        if truth is not None:
            meta["rel_error"] = grid_l2_norm(fN - truth) / truth_norm
            errs.append(meta["rel_error"])
        meta["chosen"] = N == choice.N
        save_field_ppm(out_dir / f"recon_N{N:02d}.ppm", fN, meta=meta, **scale)

    summary = {
        "noise_norm": grid_l2_norm(meas.delta),
        "chosen_N": choice.N,
        "discrepancy_satisfied": choice.satisfied,
        "residual_at_chosen": choice.residual,
        "threshold": choice.threshold,
    }
    if truth is not None:
        write_csv(out_dir / "error_curve.csv", ["N", "rel_error"],
                  [[n, e] for n, e in enumerate(errs)])
        summary["rel_error_at_chosen"] = errs[choice.N]
        summary["best_N"] = int(np.argmin(errs))
        summary["best_rel_error"] = float(np.min(errs))
    return summary


def run_row(cfg: ExperimentConfig, out_dir: Path, solve_cache: dict) -> dict:
    """Full pipeline for one operating point, physics, grid and surface
    derived from cfg alone; returns the summary dict (also written to
    out_dir/summary.json).  Forward solves go through solve_cache."""
    phys, disc = cfg.to_physical(), cfg.to_discretization()
    profile = effective_profile(cfg)
    key = (cfg.profile, cfg.image_path, cfg.image_threshold, phys, disc)
    t0 = time.perf_counter()
    if key in solve_cache:
        sol = solve_cache[key]
        solve_seconds = 0.0
    else:
        sol = solve_forward(profile, phys, disc)
        solve_seconds = time.perf_counter() - t0
        solve_cache[key] = sol
    out_dir.mkdir(parents=True, exist_ok=True)

    truth = cfg.epsilon * profile.sample_grid(cfg.I, cfg.I)
    truth_norm = grid_l2_norm(truth)
    meas = _measure(sol.top_grid, cfg.sigma, cfg.seed, cfg.target_snr)
    save_measurement_csv(meas, out_dir / "measurement.csv")
    inverted = invert_measurement(meas, cfg, out_dir, truth)

    clean_top = dft2(sol.top_grid)
    dec = error_decomposition(profile, clean_top, meas, inverted["chosen_N"],
                              phys)
    write_csv(out_dir / "decomposition.csv", ["term", "grid_norm"],
              [["E1_linearization", dec.norm_E1],
               ["E2_noise", dec.norm_E2],
               ["E3_cutoff", dec.norm_E3],
               ["beyond_window", dec.beyond_window_norm]])

    sweep_rows = []
    for target in SNR_SWEEP_TARGETS:
        for k in range(SWEEP_TRIALS):
            m = _measure(sol.top_grid, cfg.sigma,
                         cfg.seed + 1000 * (k + 1), target)
            rck, _, choicek = _invert(m, phys, cfg.N_window, cfg.c)
            per_n = [grid_l2_norm(reconstruct(rck, N, (cfg.I, cfg.I)) - truth)
                     / truth_norm for N in range(cfg.N_window + 1)]
            best_N = int(np.argmin(per_n))
            sweep_rows.append([target, k, choicek.N, int(choicek.satisfied),
                               per_n[choicek.N], best_N, per_n[best_N]])
    write_csv(out_dir / "snr_sweep.csv",
              ["target_snr", "trial", "chosen_N", "satisfied",
               "rel_error_at_chosen", "best_N", "best_rel_error"],
              sweep_rows)

    summary = {
        "config": cfg.resolved_dict(),
        "realized_snr": meas.snr if math.isfinite(meas.snr) else None,
        **inverted,
        "decomposition": {"E1": dec.norm_E1, "E2": dec.norm_E2,
                          "E3": dec.norm_E3,
                          "beyond_window": dec.beyond_window_norm},
        "solver": {"iterations": sol.iterations, "residual": sol.residual,
                   "solve_seconds": solve_seconds},
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def run_experiment(exp_id: str, base: ExperimentConfig) -> dict:
    """Run every row of one experiment under base.out.  Row presets
    override the base config for the parameters that define the experiment
    (surface, medium, noise); everything else — grids, seeds, output root —
    follows base.

    exp<id> is staged (output.staged): it replaces an earlier one only once
    index.json is written, so a failed run leaves base.out as it was."""
    if exp_id not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {exp_id!r}; choose 1, 2, or 3")
    preset = EXPERIMENTS[exp_id]
    exp_dir = Path(base.out, f"exp{exp_id}")
    row_cfgs = []
    for i, row in enumerate(preset["rows"]):
        merged = {k: v for k, v in {**preset["base"], **row}.items()
                  if k != "label"}
        row_cfgs.append((row["label"], replace(
            base, **merged, seed=base.seed + 10 * i,
            defaulted=tuple(k for k in base.defaulted if k not in merged))))
    with staged(base.out) as tmp:
        cache: dict = {}
        rows_out = []
        for i, (label, cfg) in enumerate(row_cfgs):
            row_dir = tmp / exp_dir.name / f"row{i + 1}_{label}"
            summary = run_row(cfg, row_dir, solve_cache=cache)
            summary["label"] = label
            rows_out.append(summary)
        index = {"experiment": exp_id, "title": preset["title"],
                 "rows": [{"label": r["label"], "chosen_N": r["chosen_N"],
                           "realized_snr": r["realized_snr"],
                           "rel_error_at_chosen": r["rel_error_at_chosen"],
                           "best_N": r["best_N"]} for r in rows_out]}
        write_json(tmp / exp_dir.name / "index.json", index)
    return {"experiment": exp_id, "dir": str(exp_dir), "rows": rows_out}

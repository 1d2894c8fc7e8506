"""Command-line front end.

Five subcommands cover the workflow: `forward` runs one scattering solve
and dumps the top-of-slab field, `invert` reconstructs a surface from a
measurement CSV, `experiment` reruns one of the three packaged imaging
experiments end to end, `sweep-sn` tabulates the per-mode scaling factors
for a list of media, and `noise-stats` Monte-Carlos the DFT noise law.

Configuration is a flat key=value file plus repeatable --set overrides;
every emitted JSON summary embeds the fully resolved config (defaults
expanded and flagged), so runs are self-describing and repeatable.

Every command writes its files through output.staged, so a run that
fails leaves --out as it found it, and `invert` and `sweep-sn` remove the
files an earlier run of theirs wrote there and they do not write again.
Exit codes: 0 success, 1 usage (an unusable --out or a failed write too),
2 invariant violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ExperimentConfig, _parse_complex, _parse_float,
                     build_config)
from .core import mode_grid
from .errors import GridTooLarge, SuperlensError, UsageError
from .experiments import (EXPERIMENTS, effective_profile, invert_measurement,
                          run_experiment)
from .forward import reflected_flux, solve_forward
from .measurement import (NoiseSpec, add_noise, load_measurement_csv,
                          noise_dft_stats, save_measurement_csv)
from .output import staged, write_csv, write_json
from .pnm import save_field_ppm
from .spectral import grid_l2_norm, window_halfwidth
from .tfe import SWEEP_COLUMNS, scaling_sweep, u0_top


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through our taxonomy
    def error(self, message):
        raise UsageError(message)


def _finite_float(s: str) -> float:
    """argparse type for a flag read outside the config layer: a finite
    float, parsed as config values are; argparse names the flag."""
    try:
        return _parse_float(s)
    except (UsageError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config_epilog() -> str:
    lines = ["config keys and defaults (key=value file or --set):"]
    for f in fields(ExperimentConfig):
        if f.name == "defaulted":
            continue
        lines.append(f"  {f.name}={f.default}")
    lines.append("profile: 1 (trig), 2 (smooth bumps), 3 (built-in glyph),"
                 " image (needs image_path=... pointing at a plain PGM)")
    lines.append("target_snr: 'none' disables rescaling (raw sigma noise)")
    return "\n".join(lines)


def _add_config_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="FILE",
                    help="key=value config file ('#' starts a comment)")
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                    dest="overrides", help="override one key (repeatable)")
    sp.add_argument("--fast", action="store_true",
                    help="coarse grids (I=33, N_f=8, M=32) for quick runs")
    sp.add_argument("--out", metavar="DIR",
                    help="output directory (overrides the 'out' key)")


def _config_from(args) -> ExperimentConfig:
    cfg = build_config(args.config, args.overrides, args.fast)
    if args.out:
        cfg = replace(cfg, out=args.out,
                      defaulted=tuple(k for k in cfg.defaulted if k != "out"))
    return cfg


# --- forward -----------------------------------------------------------------

def cmd_forward(args) -> int:
    cfg = _config_from(args)
    phys, disc = cfg.to_physical(), cfg.to_discretization()
    profile = effective_profile(cfg)

    t0 = time.perf_counter()
    sol = solve_forward(profile, phys, disc)
    dt = time.perf_counter() - t0
    clean = add_noise(sol.top_grid, NoiseSpec(sigma=0.0, seed=cfg.seed))
    diag = {
        "config": cfg.resolved_dict(),
        "iterations": sol.iterations,
        "residual": sol.residual,
        "solve_seconds": dt,
        "flat_top_value": str(u0_top(phys)),
        "specular_coefficient": str(sol.top.coeff((0, 0))),
        "reflected_flux": reflected_flux(sol.top, phys),
    }
    out = Path(cfg.out)
    with staged(out) as tmp:
        save_measurement_csv(clean, tmp / "top_field.csv")
        save_field_ppm(tmp / "top_abs.ppm", np.abs(sol.top_grid),
                       meta={"field": "|u(x_i, b)|"})
        write_json(tmp / "forward.json", diag)
    print(f"forward: {cfg.I}x{cfg.I} grid, {sol.iterations} iterations, "
          f"residual {sol.residual:.3e}; wrote {out}/top_field.csv")
    return 0


# --- invert ------------------------------------------------------------------

def cmd_invert(args) -> int:
    cfg = _config_from(args)
    phys = cfg.to_physical()

    try:
        m = load_measurement_csv(args.data)
    except OSError as exc:
        raise UsageError(f"cannot read {args.data}: {exc}") from None
    if m.u_delta.shape != (cfg.I, cfg.I):
        raise UsageError(
            f"data grid {m.u_delta.shape} does not match config "
            f"I={cfg.I}; pass --set I=... to match the file")

    truth = None
    if not args.no_truth:
        truth = cfg.epsilon * effective_profile(cfg).sample_grid(cfg.I, cfg.I)
        if grid_l2_norm(truth) == 0.0:
            raise UsageError("the true surface is identically zero, so no "
                             "relative error exists; pass --no-truth")
    out = Path(cfg.out)
    # the images and the sidecars of 0..N_window and of the truth
    with staged(out, owns=("recon_N*.ppm*", "truth.ppm*",
                           "error_curve.csv")) as tmp:
        inverted = invert_measurement(m, phys, cfg, tmp, truth)
        summary = {
            "config": cfg.resolved_dict(),
            "data_file": str(args.data),
            "snr": m.snr if math.isfinite(m.snr) else None,
            **inverted,
        }
        write_json(tmp / "summary.json", summary)
    tail = (f", rel error {summary['rel_error_at_chosen']:.3f}"
            if truth is not None else "")
    met = "met" if summary["discrepancy_satisfied"] else "NOT met"
    print(f"invert: chose N={summary['chosen_N']} (discrepancy {met}){tail}; "
          f"wrote {out}/summary.json")
    return 0


# --- experiment --------------------------------------------------------------

def cmd_experiment(args) -> int:
    cfg = _config_from(args)
    result = run_experiment(args.id, cfg)
    for row in result["rows"]:
        snr = row["realized_snr"]
        snr_s = f"{snr:.2f}" if snr is not None else "inf"
        print(f"experiment {args.id} [{row['label']}]: SNR {snr_s}, "
              f"chose N={row['chosen_N']}, rel error "
              f"{row['rel_error_at_chosen']:.3f} (best N={row['best_N']})")
    print(f"experiment {args.id}: outputs under {result['dir']}")
    return 0


# --- sweep-sn ----------------------------------------------------------------

DEFAULT_MEDIA = ["-1+0.01i:-1+0.01i", "-1+0.001i:-1+0.001i", "1:1"]

SWEEP_HEADER = [*SWEEP_COLUMNS, "rho", "kappa"]


def cmd_sweep_sn(args) -> int:
    cfg = _config_from(args)
    if args.n_max < 0:
        raise UsageError(f"--n-max must be nonnegative, got {args.n_max}")
    media = []
    for spec_str in args.media or DEFAULT_MEDIA:
        rho_s, sep, kappa_s = spec_str.partition(":")
        if not sep:
            raise UsageError(f"--media expects RHO:KAPPA, got {spec_str!r}")
        media.append(replace(cfg.to_physical(), rho=_parse_complex(rho_s),
                             kappa=_parse_complex(kappa_s)))
    try:
        sweeps = [scaling_sweep(phys, args.n_max) for phys in media]
    except MemoryError as exc:
        raise GridTooLarge(f"--n-max {args.n_max}: the mode window does not "
                           f"fit in memory") from exc
    out = Path(cfg.out)
    index = [{"file": f"sweep_sn_{k}.csv", "rho": str(phys.rho),
              "kappa": str(phys.kappa), "n_max": args.n_max}
             for k, phys in enumerate(media, 1)]
    with staged(out, owns=("sweep_sn_*.csv",)) as tmp:
        for f, sweep in zip(index, sweeps):
            write_csv(tmp / f["file"], SWEEP_HEADER,
                      [(*r, f["rho"], f["kappa"]) for r in sweep])
        write_json(tmp / "sweep_sn_index.json",
                   {"omega": cfg.omega, "a": cfg.a, "b": cfg.b, "files": index})
    for f in index:
        print(f"sweep-sn: rho={f['rho']} kappa={f['kappa']} -> {out / f['file']}")
    return 0


# --- noise-stats -------------------------------------------------------------

def cmd_noise_stats(args) -> int:
    try:
        stats = noise_dft_stats(NoiseSpec(sigma=args.sigma, seed=args.seed),
                                args.grid, args.trials)
    except MemoryError as exc:
        raise GridTooLarge(f"--grid {args.grid}: the noise grid does not fit "
                           f"in memory") from exc
    cols = [*mode_grid(window_halfwidth(args.grid)), stats.std_re,
            stats.std_im, stats.cov]
    rows = [(*r, stats.expected_std)
            for r in zip(*(c.ravel().tolist() for c in cols))]
    out = Path(args.out or "out")
    with staged(out) as tmp:
        write_csv(tmp / "noise_stats.csv",
                  ["n1", "n2", "std_re", "std_im", "cov", "expected_std"], rows)
    dev = max(np.max(np.abs(stats.std_re - stats.expected_std)),
              np.max(np.abs(stats.std_im - stats.expected_std)))
    print(f"noise-stats: {args.trials} trials on {args.grid}x{args.grid}, "
          f"expected std {stats.expected_std:.4e}, "
          f"max deviation {dev:.2e}; wrote {out / 'noise_stats.csv'}")
    return 0


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="superlens-imaging",
                description=__doc__.split("\n\n")[0],
                epilog=_config_epilog(),
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("forward", help="one scattering solve; dump the "
                        "top-of-slab field (CSV, PPM, JSON)")
    _add_config_args(sp)
    sp.set_defaults(func=cmd_forward)

    sp = sub.add_parser("invert", help="reconstruct a surface from a "
                        "measurement CSV")
    _add_config_args(sp)
    sp.add_argument("--data", required=True, metavar="CSV",
                    help="measurement file (forward/experiment output "
                    "or save_measurement_csv format)")
    sp.add_argument("--no-truth", action="store_true",
                    help="skip truth-based error curves (unknown surface)")
    sp.set_defaults(func=cmd_invert)

    sp = sub.add_parser("experiment", help="rerun a packaged imaging "
                        "experiment end to end")
    sp.add_argument("id", choices=sorted(EXPERIMENTS),
                    help="which experiment")
    _add_config_args(sp)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("sweep-sn", help="tabulate per-mode scaling "
                        "factors for a list of media")
    _add_config_args(sp)
    sp.add_argument("--media", action="append", metavar="RHO:KAPPA",
                    help="medium pair; write --media='-1+0.01i:-1+0.01i' "
                    "(the '=' keeps the leading '-' out of flag parsing; "
                    f"repeatable; default {' '.join(DEFAULT_MEDIA)})")
    sp.add_argument("--n-max", type=int, default=20,
                    help="half-width of the mode window (default 20)")
    sp.set_defaults(func=cmd_sweep_sn)

    sp = sub.add_parser("noise-stats", help="Monte-Carlo the DFT "
                        "white-noise law")
    sp.add_argument("--sigma", type=_finite_float, default=0.01)
    sp.add_argument("--grid", type=int, default=99, metavar="I",
                    help="samples per period (default 99)")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", metavar="DIR", help="output directory")
    sp.set_defaults(func=cmd_noise_stats)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SuperlensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

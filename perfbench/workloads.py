"""The four workloads: set-up, the timed operations, and their checks.

A workload's ``setup`` builds its inputs from the seed and returns the
operations of one pass.  ``Op.run`` is the timed call; ``Op.observe``
extracts the values pinned in ``refs/`` and ``Op.check`` returns the
problems found in one output (an empty list when it is correct).  Checks
that hold for every seed run always; comparisons with pinned references
run when the seed has one.

Workload code calls the package through module attributes
(``inverse.reconstruct``) so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from superlens_imaging import (cli, experiments, forward, inverse,
                               measurement, spectral)
from superlens_imaging.config import build_config

#: relative tolerance for floats downstream of a forward solve.  Re-solving
#: at iter_tol=1e-12 instead of 1e-10 moves the top grid by ~2e-11 relative
#: and the linearization-remainder norm E1 by ~1e-9; a solver change that
#: keeps the top grid within TOP_RTOL moves E1 by far less than this.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-15
#: the forward-solve reference check on the top-of-slab grid
TOP_RTOL = 1e-8

#: (name, config overrides) of the four forward-solve operating points
FORWARD_POINTS = [
    ("trig-eps1e-3", {"profile": "1", "rho": -1 + 0.01j,
                      "kappa": -1 + 0.01j, "epsilon": 1e-3}),
    ("bumps-loss1e-3", {"profile": "2", "rho": -1 + 0.001j,
                        "kappa": -1 + 0.001j, "epsilon": 1e-3}),
    ("glyph-eps1e-3", {"profile": "3", "rho": -1 + 0.001j,
                       "kappa": -1 + 0.001j, "epsilon": 1e-3}),
    ("glyph-eps1e-2", {"profile": "3", "rho": -1 + 0.001j,
                       "kappa": -1 + 0.001j, "epsilon": 1e-2}),
]

#: the first row of each packaged experiment (inversion, cli-invert)
ROW_EXPERIMENTS = ["1", "2", "3"]

#: summary fields not compared with the reference: timing, the output
#: path, and solver behaviour that a faster solver legitimately changes
#: (the forward-solve workload pins the solver's output instead)
SUMMARY_SKIP = {"solver.solve_seconds", "solver.iterations",
                "solver.residual", "config.out", "data_file"}


@dataclass
class Op:
    name: str
    run: Callable[[Path], Any]
    observe: Callable[[Any, Path], dict]
    check: Callable[[Any, Path], list]


@dataclass
class Context:
    grid: str          # "full" (I=99, N_f=12, M=64) or "fast" (33, 8, 32)
    seed: int
    refs: dict         # this grid's references (refs/<grid>.json)
    workdir: Path      # set-up inputs go here

    def base_config(self):
        return build_config(fast=self.grid == "fast",
                            overrides=[f"seed={self.seed}"])

    def seed_refs(self, workload: str) -> dict | None:
        return self.refs.get("seeds", {}).get(str(self.seed), {}).get(workload)

    def files(self, workload: str) -> dict:
        return self.refs.get("files", {}).get(workload, {})


# --- shared checks -----------------------------------------------------------

def compare(obs, ref, path: str = "") -> list[str]:
    """Differences between observed and pinned JSON-like values."""
    where = path or "value"
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            return [f"{where}: keys differ from reference"]
        return [p for k in ref for p in compare(obs[k], ref[k],
                                                 f"{path}.{k}" if path else k)]
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [f"{where}: length differs from reference"]
        return [p for i, (o, r) in enumerate(zip(obs, ref))
                for p in compare(o, r, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(obs, (int, float)) \
            and not isinstance(obs, bool):
        if abs(obs - ref) <= FLOAT_ATOL + FLOAT_RTOL * abs(ref):
            return []
        return [f"{where}: {obs!r} != reference {ref!r}"]
    if obs != ref or type(obs) is not type(ref):
        return [f"{where}: {obs!r} != reference {ref!r}"]
    return []


def reference_draw(shape, sigma: float, seed: int) -> np.ndarray:
    """The documented noise generator, written out independently: Philox
    uniforms, two per sample in row-major order, Box-Muller on log1p(-u)."""
    u = np.random.Generator(np.random.Philox(seed)).random(size=shape + (2,))
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = 2.0 * np.pi * u[..., 1]
    return sigma * r * (np.cos(theta) + 1j * np.sin(theta))


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def cutoff_problems(residuals: list[float], threshold: float, N: int,
                    satisfied: bool) -> list[str]:
    """The discrepancy rule: the smallest N whose residual is below the
    threshold, else the last N with satisfied=False."""
    below = [n for n, r in enumerate(residuals) if r < threshold]
    want = (below[0], True) if below else (len(residuals) - 1, False)
    if (N, satisfied) != want:
        return [f"chosen N={N} (satisfied={satisfied}) but the residual "
                f"curve gives N={want[0]} (satisfied={want[1]})"]
    return []


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _row_config(base, exp_id: str, i: int = 0):
    """Row i of a packaged experiment, built as run_experiment builds it."""
    preset = experiments.EXPERIMENTS[exp_id]
    params = {k: v for k, v in preset["rows"][i].items() if k != "label"}
    return replace(base, **{**preset["base"], **params}, seed=base.seed + 10 * i)


def _solve(cfg):
    profile = experiments.effective_profile(cfg)
    return forward.solve_forward(profile, cfg.to_physical(),
                                 cfg.to_discretization())


def files_under(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file())


def _cli(argv: list[str]) -> int:
    """One in-process command; its console output is not part of ours."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_curve(path: Path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(r[column]) for r in csv.DictReader(fh)]


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif key not in SUMMARY_SKIP:
            out[key] = v
    return out


def _file_set_problems(outdir: Path, expected: list[str] | None) -> list[str]:
    if expected is None:
        return ["no pinned file set for this grid"]
    got = files_under(outdir)
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    return [f"file set differs: missing {missing[:3]}, unexpected {extra[:3]}"]


def _summary_problems(outdir: Path) -> list[str]:
    """Checks one summary.json against the curves written beside it."""
    summary = json.loads((outdir / "summary.json").read_text())
    residuals = _read_curve(outdir / "residual_curve.csv", "residual")
    errors = _read_curve(outdir / "error_curve.csv", "rel_error")
    N = summary["chosen_N"]
    problems = cutoff_problems(residuals, summary["threshold"], N,
                               summary["discrepancy_satisfied"])
    if not problems and summary["rel_error_at_chosen"] != errors[N]:
        problems.append("rel_error_at_chosen differs from error_curve.csv")
    if summary["best_N"] != int(np.argmin(errors)):
        problems.append("best_N is not the minimum of error_curve.csv")
    solver, tol = summary.get("solver"), summary["config"]["iter_tol"]
    if solver is not None and not solver["residual"] <= tol:
        problems.append(f"solver residual {solver['residual']:.3e} above "
                        f"iter_tol {tol:.1e}")
    return problems


def _order(names: list, seed: int) -> list:
    """The seed fixes the order the operations of a pass run in."""
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def _warm_up(base) -> None:
    # the first full-size solve in a process pays for growing the heap
    _solve(replace(base, profile="1"))


# --- forward-solve -----------------------------------------------------------

def _reference_grid(ref: dict, I: int) -> np.ndarray:
    """The pinned top-of-slab coefficients synthesized on the I x I grid."""
    coeffs = np.array(ref["top_re"]) + 1j * np.array(ref["top_im"])
    W = (coeffs.shape[0] - 1) // 2
    full = np.zeros((I, I), dtype=complex)
    idx = np.arange(-W, W + 1) % I
    full[np.ix_(idx, idx)] = coeffs
    return np.fft.ifft2(full) * (I * I)


def setup_forward(ctx: Context) -> list[Op]:
    base = ctx.base_config()
    _warm_up(base)
    refs = ctx.refs.get("forward", {})
    ops = []
    for name, params in _order(FORWARD_POINTS, ctx.seed):
        cfg = replace(base, **params)
        args = (experiments.effective_profile(cfg), cfg.to_physical(),
                cfg.to_discretization())
        ref = refs.get(name)

        def check(sol, _outdir, ref=ref, tol=cfg.iter_tol, I=cfg.I):
            problems = []
            if not sol.residual <= tol:
                problems.append(f"residual {sol.residual:.3e} above {tol:.1e}")
            if ref is None:
                problems.append("no pinned top grid for this point")
            else:
                want = _reference_grid(ref, I)
                rel = np.linalg.norm(sol.top_grid - want) / np.linalg.norm(want)
                if not rel <= TOP_RTOL:
                    problems.append(f"top grid {rel:.2e} from reference")
            return problems

        ops.append(Op(
            name=name,
            run=lambda _outdir, args=args: forward.solve_forward(*args),
            observe=lambda sol, _outdir: {
                "iterations": sol.iterations, "residual": sol.residual,
                "top_re": sol.top.values.real.tolist(),
                "top_im": sol.top.values.imag.tolist()},
            check=check))
    return ops


# --- inversion ---------------------------------------------------------------

@dataclass
class RowResult:
    truth: np.ndarray
    raw_delta: np.ndarray
    meas: Any
    rc: Any
    curve: Any
    choice: Any
    errors: list
    decomposition: Any
    sweep: list


def _invert(meas, phys, cfg):
    U = spectral.dft2(meas.u_delta)
    rc = inverse.recon_coefficients(U, phys)
    curve = inverse.residual_curve(U, phys, cfg.N_window)
    choice = inverse.choose_cutoff(curve, spectral.grid_l2_norm(meas.delta),
                                   cfg.c)
    return rc, curve, choice


def _measure(top, sigma, seed, target):
    raw = measurement.add_noise(top, measurement.NoiseSpec(sigma=sigma,
                                                           seed=seed))
    return raw, measurement.rescale_to_snr(top, raw, target)


def invert_row(cfg, top: np.ndarray) -> RowResult:
    """experiments.run_row without the solve and the file writes."""
    phys = cfg.to_physical()
    shape = (cfg.I, cfg.I)
    profile = experiments.effective_profile(cfg)
    truth = cfg.epsilon * profile.sample_grid(*shape)
    truth_norm = spectral.grid_l2_norm(truth)
    raw, meas = _measure(top, cfg.sigma, cfg.seed, cfg.target_snr)
    rc, curve, choice = _invert(meas, phys, cfg)
    errors = [spectral.grid_l2_norm(inverse.reconstruct(rc, N, shape) - truth)
              / truth_norm for N in range(cfg.N_window + 1)]
    dec = inverse.error_decomposition(profile, spectral.dft2(top), meas,
                                      choice.N, phys)
    sweep = []
    for target in experiments.SNR_SWEEP_TARGETS:
        for k in range(experiments.SWEEP_TRIALS):
            _, m = _measure(top, cfg.sigma, cfg.seed + 1000 * (k + 1), target)
            rck, _, choicek = _invert(m, phys, cfg)
            per_n = [spectral.grid_l2_norm(
                inverse.reconstruct(rck, N, shape) - truth) / truth_norm
                for N in range(cfg.N_window + 1)]
            sweep.append([choicek.N, per_n[choicek.N]])
    return RowResult(truth=truth, raw_delta=raw.delta, meas=meas, rc=rc,
                     curve=curve, choice=choice, errors=errors,
                     decomposition=dec, sweep=sweep)


def _observe_row(r: RowResult, _outdir=None) -> dict:
    d = r.decomposition
    return {"noise_sha256": sha256(r.raw_delta),
            "chosen_N": r.choice.N, "satisfied": r.choice.satisfied,
            "threshold": r.choice.threshold, "residual": r.choice.residual,
            "errors": r.errors,
            "decomposition": [d.norm_E1, d.norm_E2, d.norm_E3,
                              d.beyond_window_norm],
            "sweep": r.sweep}


def _row_problems(cfg, r: RowResult) -> list[str]:
    """What holds for every seed."""
    problems = []
    if not np.array_equal(r.raw_delta,
                          reference_draw(r.raw_delta.shape, cfg.sigma,
                                         cfg.seed)):
        problems.append("noise draw differs from the documented generator")
    if not _close(r.meas.snr, cfg.target_snr):
        problems.append(f"realized SNR {r.meas.snr} != {cfg.target_snr}")
    c = r.choice
    if not _close(c.threshold, cfg.c * spectral.grid_l2_norm(r.meas.delta)):
        problems.append("threshold is not c * ||delta||")
    problems += cutoff_problems(r.curve.values, c.threshold, c.N, c.satisfied)
    # inside the Nyquist window E1 + E2 + E3 = reconstruction - truth
    d = r.decomposition
    recon = inverse.reconstruct(r.rc, c.N, r.truth.shape)
    gap = np.linalg.norm(d.E1 + d.E2 + d.E3 - (recon - r.truth))
    if not gap <= 1e-9 * np.linalg.norm(r.truth):
        problems.append(f"E1+E2+E3 misses recon-truth by {gap:.3e}")
    if not all(math.isfinite(e) for e in r.errors):
        problems.append("non-finite error curve")
    return problems


def setup_inversion(ctx: Context) -> list[Op]:
    base = ctx.base_config()
    refs = ctx.seed_refs("inversion")
    ops = []
    for exp_id in _order(ROW_EXPERIMENTS, ctx.seed):
        cfg = _row_config(base, exp_id)
        top = _solve(cfg).top_grid
        name = f"exp{exp_id}-row1"
        ref = None if refs is None else refs[name]

        def check(r, _outdir, cfg=cfg, ref=ref):
            problems = _row_problems(cfg, r)
            if ref is not None:
                problems += compare(_observe_row(r), ref)
            return problems

        ops.append(Op(name=name,
                      run=lambda _outdir, cfg=cfg, top=top: invert_row(cfg, top),
                      observe=_observe_row, check=check))
    return ops


# --- cli-invert --------------------------------------------------------------

SUMMARY_KEYS = ["chosen_N", "discrepancy_satisfied", "threshold",
                "residual_at_chosen", "noise_norm", "snr",
                "rel_error_at_chosen", "best_N", "best_rel_error"]


def _invert_argv(cfg, data: Path, fast: bool) -> list[str]:
    """`cli invert` on `data` with the row's surface, medium and c."""
    argv = ["invert", "--data", str(data)] + (["--fast"] if fast else [])
    for key in ("profile", "rho", "kappa", "epsilon", "c"):
        value = getattr(cfg, key)
        if isinstance(value, complex):
            value = f"{value.real!r}{value.imag:+}j"
        argv += ["--set", f"{key}={value}"]
    return argv


def setup_cli_invert(ctx: Context) -> list[Op]:
    base = ctx.base_config()
    refs = ctx.seed_refs("cli-invert")
    files = ctx.files("cli-invert")
    data_dir = ctx.workdir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for exp_id in _order(ROW_EXPERIMENTS, ctx.seed):
        cfg = _row_config(base, exp_id)
        raw, meas = _measure(_solve(cfg).top_grid, cfg.sigma, cfg.seed,
                             cfg.target_snr)
        name = f"exp{exp_id}-row1"
        data = data_dir / f"{name}.csv"
        measurement.save_measurement_csv(meas, data)
        argv = _invert_argv(cfg, data, ctx.grid == "fast")
        noise = {"noise_sha256": sha256(raw.delta),
                 "draw_ok": np.array_equal(raw.delta, reference_draw(
                     raw.delta.shape, cfg.sigma, cfg.seed))}
        ref = None if refs is None else refs[name]

        def observe(_code, outdir, noise=noise):
            summary = json.loads((outdir / "summary.json").read_text())
            return {"noise_sha256": noise["noise_sha256"],
                    **{k: summary[k] for k in SUMMARY_KEYS}}

        def check(code, outdir, meas=meas, noise=noise, ref=ref,
                  expected=files.get(name), observe=observe):
            if code != 0:
                return [f"exit code {code}"]
            problems = _file_set_problems(outdir, expected)
            if problems:
                return problems
            problems = _summary_problems(outdir)
            if not noise["draw_ok"]:
                problems.append("noise draw differs from the documented "
                                "generator")
            summary = json.loads((outdir / "summary.json").read_text())
            # the read path: the loaded noise grid is the one written
            if not _close(summary["noise_norm"],
                          spectral.grid_l2_norm(meas.delta), 1e-12):
                problems.append("noise norm differs from the data written")
            if ref is not None:
                problems += compare(observe(code, outdir), ref)
            return problems

        ops.append(Op(name=name,
                      run=lambda outdir, argv=argv: _cli(
                          argv + ["--out", str(outdir)]),
                      observe=observe, check=check))
    return ops


# --- experiments -------------------------------------------------------------

#: the experiment whose first row is inverted again through `cli invert`:
#: the only CSV read on this workload, and a check that both entry points
#: agree
REINVERT = "1"
#: summary values `run_row` and `cli invert` both report
SHARED_KEYS = [k for k in SUMMARY_KEYS if k != "snr"]


def _row1_dir(outdir: Path) -> Path:
    label = experiments.EXPERIMENTS[REINVERT]["rows"][0]["label"]
    return outdir / f"exp{REINVERT}" / f"row1_{label}"


def _reinvert(cfg, outdir: Path, fast: bool) -> int:
    data = _row1_dir(outdir) / "measurement.csv"
    return _cli(_invert_argv(cfg, data, fast) + ["--out", str(outdir / "invert")])


def _reinvert_problems(outdir: Path) -> list[str]:
    want = json.loads((_row1_dir(outdir) / "summary.json").read_text())
    got = json.loads((outdir / "invert" / "summary.json").read_text())
    return [f"invert vs experiment: {m}" for m in
            compare({k: got[k] for k in SHARED_KEYS},
                    {k: want[k] for k in SHARED_KEYS})]


def setup_experiments(ctx: Context) -> list[Op]:
    base = ctx.base_config()
    _warm_up(base)
    refs = ctx.seed_refs("experiments")
    files = ctx.files("experiments")
    fast = ctx.grid == "fast"
    row1 = _row_config(base, REINVERT)
    ops = []
    for exp_id in sorted(experiments.EXPERIMENTS):
        argv = ["experiment", exp_id, "--set", f"seed={ctx.seed}"]
        if fast:
            argv.append("--fast")
        name = f"exp{exp_id}"
        ref = None if refs is None else refs[name]
        reinvert = exp_id == REINVERT

        def run(outdir, argv=argv, reinvert=reinvert):
            code = _cli(argv + ["--out", str(outdir)])
            if code == 0 and reinvert:
                code = _reinvert(row1, outdir, fast)
            return code

        def observe(_code, outdir):
            return {str(p.parent.relative_to(outdir)):
                    _flatten(json.loads(p.read_text()))
                    for p in sorted(outdir.rglob("summary.json"))}

        def check(code, outdir, ref=ref, expected=files.get(name),
                  reinvert=reinvert):
            if code != 0:
                return [f"exit code {code}"]
            problems = _file_set_problems(outdir, expected)
            if problems:
                return problems
            for p in sorted(outdir.rglob("summary.json")):
                problems += [f"{p.parent.name}: {m}" for m in
                             _summary_problems(p.parent)]
            if reinvert:
                problems += _reinvert_problems(outdir)
            if ref is not None:
                problems += compare(observe(code, outdir), ref)
            return problems

        ops.append(Op(name=name, run=run, observe=observe, check=check))
    return ops


WORKLOADS = {
    "forward-solve": setup_forward,
    "inversion": setup_inversion,
    "cli-invert": setup_cli_invert,
    "experiments": setup_experiments,
}

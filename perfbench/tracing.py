"""Per-layer timing from outside the package.

The tracer wraps public functions of the package's modules while a traced
pass runs and restores them afterwards, so untraced passes and the checks
run the original code.  A function imported by name into another module
(``from .forward import solve_forward`` in ``experiments``) is one object
bound under several names; every binding inside the package is replaced.
The benchmark's own workload code calls through module attributes
(``inverse.reconstruct``) so it is traced too.

Times are inclusive: ``inverse.error_decomposition_s`` contains the
``spectral.dft2`` and ``profiles.sample_grid`` calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time

#: (layer metric, module, attribute).  Several targets may feed one metric.
TIMED = [
    ("forward.solve_s", "forward", "solve_forward"),
    ("forward.coefficient_fields_s", "forward", "coefficient_fields"),
    ("tfe.scaling_factor_grid_s", "tfe", "scaling_factor_grid"),
    ("inverse.recon_coefficients_s", "inverse", "recon_coefficients"),
    ("inverse.residual_curve_s", "inverse", "residual_curve"),
    ("inverse.reconstruct_s", "inverse", "reconstruct"),
    ("inverse.error_decomposition_s", "inverse", "error_decomposition"),
    ("spectral.dft2_s", "spectral", "dft2"),
    ("spectral.grid_l2_norm_s", "spectral", "grid_l2_norm"),
    ("profiles.sample_grid_s", "profiles", "SurfaceProfile.sample_grid"),
    # builds the band-limited surface; defined in experiments, used by cli
    ("profiles.effective_profile_s", "experiments", "effective_profile"),
    ("measurement.noise_s", "measurement", "add_noise"),
    ("measurement.noise_s", "measurement", "rescale_to_snr"),
    ("pnm.save_field_ppm_s", "pnm", "save_field_ppm"),
    ("measurement.save_csv_s", "measurement", "save_measurement_csv"),
    ("measurement.load_csv_s", "measurement", "load_measurement_csv"),
    ("experiments.run_row_s", "experiments", "run_row"),
]

#: name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "forward.solve_s": ("s", "lower"),
    "forward.solves": ("count", "lower"),
    "forward.iterations": ("count", "lower"),
    "forward.ms_per_iteration": ("ms", "lower"),
    "forward.residual_max": ("ratio", "lower"),
    "forward.coefficient_fields_s": ("s", "lower"),
    "tfe.scaling_factor_grid_s": ("s", "lower"),
    "inverse.recon_coefficients_s": ("s", "lower"),
    "inverse.residual_curve_s": ("s", "lower"),
    "inverse.reconstruct_s": ("s", "lower"),
    "inverse.reconstruct_calls": ("count", "lower"),
    "inverse.error_decomposition_s": ("s", "lower"),
    "spectral.dft2_s": ("s", "lower"),
    "spectral.grid_l2_norm_s": ("s", "lower"),
    "profiles.sample_grid_s": ("s", "lower"),
    "profiles.effective_profile_s": ("s", "lower"),
    "measurement.noise_s": ("s", "lower"),
    "pnm.save_field_ppm_s": ("s", "lower"),
    "pnm.images": ("count", "lower"),
    "measurement.save_csv_s": ("s", "lower"),
    "measurement.load_csv_s": ("s", "lower"),
    "cli.files_written": ("count", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "experiments.run_row_s": ("s", "lower"),
    "experiments.solve_cache_hits": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

PACKAGE = "superlens_imaging"


class Tracer:
    """Accumulates per-layer totals for one traced pass at a time."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.totals = {name: 0.0 for name in PER_LAYER}
        for metric, mod_name, attr in TIMED:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            owner, _, name = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                self._replace(cls, name, self._wrap(metric, getattr(cls, name)))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(metric, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith(PACKAGE):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _replace(self, owner, name, new) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    # -- recording ----------------------------------------------------------

    def _wrap(self, metric, fn):
        totals = self.totals
        post = _POST_HOOKS.get(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            solves_before = totals["forward.solves"]
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            totals[metric] += time.perf_counter() - t0
            if post is not None:
                post(totals, result, solves_before)
            return result

        return traced

    def pass_metrics(self) -> dict[str, float]:
        """The finished pass's per-layer values (derived ratios included)."""
        m = dict(self.totals)
        if m["forward.iterations"]:
            m["forward.ms_per_iteration"] = (
                1000.0 * m["forward.solve_s"] / m["forward.iterations"])
        return m


def _after_solve(totals, sol, _):
    totals["forward.solves"] += 1
    totals["forward.iterations"] += sol.iterations
    totals["forward.residual_max"] = max(totals["forward.residual_max"],
                                         sol.residual)


def _after_reconstruct(totals, _result, _):
    totals["inverse.reconstruct_calls"] += 1


def _after_image(totals, _result, _):
    totals["pnm.images"] += 1


def _after_row(totals, _result, solves_before):
    # run_row reuses a cached solve exactly when it makes no solve itself
    if totals["forward.solves"] == solves_before:
        totals["experiments.solve_cache_hits"] += 1


_POST_HOOKS = {
    "forward.solve_s": _after_solve,
    "inverse.reconstruct_s": _after_reconstruct,
    "pnm.save_field_ppm_s": _after_image,
    "experiments.run_row_s": _after_row,
}

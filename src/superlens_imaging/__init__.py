"""Acoustic imaging of biperiodic surfaces through a negative-index slab.

A plane wave at normal incidence scatters off a small-amplitude sound-soft
biperiodic surface; a flat slab of (possibly lossy) negative-index
material sits above it.  The package solves the resulting quasi-periodic
transmission problem, and inverts noisy field samples taken on top of
the slab back into the surface shape via a first-order perturbation
expansion, per-mode scaling factors, and a discrepancy-principle cutoff.
"""

from .config import ExperimentConfig, build_config
from .core import PhysicalConfig
from .errors import (BadThreshold, CutoffOutOfRange, DegenerateSlab,
                     EmptyImage, GridTooLarge, NearSingularSystem,
                     NoConvergence, NyquistViolation, ProfileTooTall,
                     ResonantMode, SuperlensError, UsageError, ZeroNoise)
from .forward import Discretization, ForwardSolution, solve_forward
from .inverse import (choose_cutoff, error_decomposition,
                      recon_coefficients, reconstruct, residual_curve)
from .measurement import (Measurement, NoiseSpec, add_noise,
                          load_measurement_csv, noise_dft_stats,
                          rescale_to_snr, save_measurement_csv)
from .profiles import (SurfaceProfile, band_limited_profile, image_profile,
                       peaks_profile, profile_spectrum, trig_profile)
from .spectral import SpectrumField, dft2, grid_l2_norm, synthesize
from .tfe import scaling_factor, scaling_sweep, u0_top

__version__ = "0.1.0"

__all__ = [
    "BadThreshold", "CutoffOutOfRange", "DegenerateSlab", "Discretization",
    "EmptyImage", "ExperimentConfig", "ForwardSolution", "GridTooLarge",
    "Measurement",
    "NearSingularSystem", "NoConvergence", "NoiseSpec", "NyquistViolation",
    "PhysicalConfig", "ProfileTooTall", "ResonantMode", "SpectrumField",
    "SuperlensError", "SurfaceProfile", "UsageError", "ZeroNoise",
    "add_noise", "band_limited_profile", "build_config", "choose_cutoff",
    "dft2", "error_decomposition", "grid_l2_norm", "image_profile",
    "load_measurement_csv", "noise_dft_stats", "peaks_profile",
    "profile_spectrum", "recon_coefficients", "reconstruct",
    "rescale_to_snr", "residual_curve", "save_measurement_csv",
    "scaling_factor", "scaling_sweep", "solve_forward", "synthesize",
    "trig_profile", "u0_top",
]

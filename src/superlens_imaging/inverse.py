"""Linearized reconstruction of the surface from top-plane data.

The forward linearization makes the lowest-order map surface -> data
diagonal in the Fourier basis, so inversion is one multiply per mode:
subtract the flat-surface datum, scale by s_n, keep modes up to a cutoff
chosen by an approximate discrepancy principle, and synthesize.

Norm convention: residual tails are root sums of squared DFT coefficients,
which by Parseval equals the grid norm of the corresponding field, so the
discrepancy comparison against grid_l2_norm(delta) is consistent and any
common rescaling of the data leaves the selected cutoff unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PhysicalConfig
from .errors import CutoffOutOfRange
from .measurement import Measurement
from .profiles import SurfaceProfile
from .spectral import SpectrumField, dft2, grid_l2_norm, synthesize
from .tfe import scaling_factor_grid, u0_top

#: error_decomposition samples a truth without a stored spectrum this many
#: times finer per axis to measure its content beyond the data window
BEYOND_FACTOR = 3


def recon_coefficients(U_delta: SpectrumField, cfg: PhysicalConfig) -> SpectrumField:
    """Per-mode surface coefficients s_n * (U_n - u0(b) * [n == 0]) over the
    data's Nyquist window.  The s_n grid holds 0 on resonant or degenerate
    modes, so it zeroes them and every synthesis excludes them."""
    W = U_delta.W
    s_grid, _ = scaling_factor_grid(cfg, W)
    d = U_delta.truncated(W).values
    d[W, W] -= u0_top(cfg)
    return SpectrumField(s_grid * d, W, W)


def reconstruct(rc: SpectrumField, N: int, grid_shape: tuple[int, int]) -> np.ndarray:
    """Real surface-height samples from the modes with ||n||_inf <= N."""
    return synthesize(rc, N, grid_shape, take_real=True)


@dataclass(frozen=True)
class ResidualCurve:
    """||R^{delta,N}||_2 for N = 0 .. N_window.

    The tail is over Nyquist-window modes with ||n||_inf > N — the part of
    the series computable from the samples — hence non-increasing in N and
    exactly 0 once N reaches the window edge; values[N] is the tail at N.
    """
    values: list[float]


def residual_curve(U_delta: SpectrumField, cfg: PhysicalConfig,
                   N_window: int) -> ResidualCurve:
    if N_window < 0:
        raise CutoffOutOfRange("N_window must be >= 0")
    d = U_delta.values.copy()
    d[U_delta.W1, U_delta.W2] -= u0_top(cfg)
    sq = d.real ** 2 + d.imag ** 2
    # energy per ring, then tails[r] = sum over rings >= r; rings past the
    # window edge hold nothing, so their tails are exactly 0
    per_ring = np.bincount(U_delta.ring().ravel(), weights=sq.ravel(),
                           minlength=N_window + 2)
    tails = np.cumsum(per_ring[::-1])[::-1]
    return ResidualCurve(values=np.sqrt(tails[1:N_window + 2]).tolist())


@dataclass(frozen=True)
class CutoffChoice:
    N: int
    satisfied: bool
    residual: float
    threshold: float


def choose_cutoff(curve: ResidualCurve, noise_norm: float, c: float = 1.0) -> CutoffChoice:
    """Smallest N whose residual drops below c * noise_norm.

    When no N in the curve qualifies the largest one is returned with
    satisfied=False rather than raising — sweeps need the row either way.
    """
    if c <= 0:
        raise ValueError("c > 0 required")
    if noise_norm < 0:
        raise ValueError("noise_norm >= 0 required")
    thr = c * noise_norm
    for n, v in enumerate(curve.values):
        if v < thr:
            return CutoffChoice(N=n, satisfied=True, residual=v, threshold=thr)
    return CutoffChoice(N=len(curve.values) - 1, satisfied=False,
                        residual=curve.values[-1], threshold=thr)


@dataclass(frozen=True)
class ErrorDecomposition:
    """Split of the reconstruction error into linearization (E1), noise
    (E2), and spectral cut-off (E3) parts on the sample grid.

    Within the data's Nyquist window E1 + E2 + E3 equals
    reconstruction - truth exactly; spectral content of the truth beyond
    the window cannot enter that identity and its norm is reported
    separately as beyond_window_norm.
    """
    E1: np.ndarray
    E2: np.ndarray
    E3: np.ndarray
    norm_E1: float
    norm_E2: float
    norm_E3: float
    beyond_window_norm: float


def error_decomposition(truth: SurfaceProfile, clean_top: SpectrumField,
                        meas: Measurement, N: int,
                        cfg: PhysicalConfig) -> ErrorDecomposition:
    """Decompose the error of the N-cutoff reconstruction from meas.

    clean_top are the DFT coefficients of the noiseless forward solve on
    the same grid.  The linearization remainder per mode is
    r_n = u_n(b) - u0(b)[n=0] - eps*u1_n(b), with eps*u1_n(b) evaluated
    through the exact diagonal identity u1_n(b) = g_n / s_n.
    """
    I1, I2 = meas.delta.shape
    W = clean_top.W
    if not (0 <= N <= W):
        raise CutoffOutOfRange(f"N={N} outside data window 0..{W}")
    s_grid, bad = scaling_factor_grid(cfg, W)
    f_vals = cfg.epsilon * dft2(truth.sample_grid(I1, I2)).truncated(W).values

    # E1: s_n * r_n = s_n (U_n - u0 delta_n0) - f_n on usable modes; on
    # the others both terms are 0
    e1_coeffs = (recon_coefficients(clean_top, cfg).values
                 - np.where(bad, 0j, f_vals))
    E1 = synthesize(SpectrumField(e1_coeffs, W, W), N, (I1, I2), take_real=True)

    # E2: s_n * noise coefficients, 0 on unusable modes as s_n is
    e2_coeffs = s_grid * dft2(meas.delta).truncated(W).values
    E2 = synthesize(SpectrumField(e2_coeffs, W, W), N, (I1, I2), take_real=True)

    # E3: the in-window truth content the cutoff discards (negative sign:
    # it is part of reconstruction - truth, not truth - reconstruction)
    ring = SpectrumField(f_vals, W, W).ring()
    tail = np.where(ring > N, -f_vals, 0j)
    E3 = synthesize(SpectrumField(tail, W, W), W, (I1, I2), take_real=True)

    # truth content beyond the data window: from the spectrum when the
    # profile carries one, else from a finer sampling
    if truth.spectrum is not None:
        g = truth.spectrum
    else:
        If1 = BEYOND_FACTOR * I1 + (1 - (BEYOND_FACTOR * I1) % 2)
        If2 = BEYOND_FACTOR * I2 + (1 - (BEYOND_FACTOR * I2) % 2)
        g = dft2(truth.sample_grid(If1, If2))
    outside = g.values[g.ring() > W]
    beyond = cfg.epsilon * np.sqrt(float(np.sum(np.abs(outside) ** 2)))

    return ErrorDecomposition(
        E1=E1, E2=E2, E3=E3,
        norm_E1=grid_l2_norm(E1), norm_E2=grid_l2_norm(E2),
        norm_E3=grid_l2_norm(E3), beyond_window_norm=float(beyond))

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

#: error_decomposition samples the truth this many times finer per axis to
#: measure its content beyond the data window
BEYOND_FACTOR = 3


@dataclass(frozen=True)
class ReconCoefficients:
    """Per-mode surface coefficients over the data's Nyquist window.

    values holds s_n * (U_n - u0_b * [n == 0]); unusable marks modes whose
    scaling factor is resonant/degenerate — they are zeroed here and stay
    excluded from every synthesis.
    """
    values: SpectrumField
    u0_b: complex
    unusable: np.ndarray

    @property
    def W(self) -> int:
        return self.values.W


def recon_coefficients(U_delta: SpectrumField, cfg: PhysicalConfig) -> ReconCoefficients:
    W1, W2 = U_delta.W1, U_delta.W2
    W = min(W1, W2)
    s_grid, bad = scaling_factor_grid(cfg, W)
    u0_b = u0_top(cfg)
    d = U_delta.values[W1 - W:W1 + W + 1, W2 - W:W2 + W + 1].copy()
    d[W, W] -= u0_b
    vals = np.where(bad, 0j, s_grid * d)
    return ReconCoefficients(values=SpectrumField(vals, W, W), u0_b=u0_b,
                             unusable=bad)


def reconstruct(rc: ReconCoefficients, N: int, grid_shape: tuple[int, int]) -> np.ndarray:
    """Real surface-height samples from the modes with ||n||_inf <= N."""
    return synthesize(rc.values, N, grid_shape, take_real=True)


@dataclass(frozen=True)
class ResidualCurve:
    """||R^{delta,N}||_2 for N = 0 .. N_window.

    The tail is over Nyquist-window modes with ||n||_inf > N — the part of
    the series computable from the samples — hence non-increasing in N and
    exactly 0 once N reaches the window edge.
    """
    ns: list[int]
    values: list[float]


def residual_curve(U_delta: SpectrumField, cfg: PhysicalConfig,
                   N_window: int) -> ResidualCurve:
    if N_window < 0:
        raise CutoffOutOfRange("N_window must be >= 0")
    d = U_delta.values.copy()
    d[U_delta.W1, U_delta.W2] -= u0_top(cfg)
    ring = U_delta.ring()
    sq = np.abs(d) ** 2
    ns = list(range(N_window + 1))
    values = []
    for N in ns:
        tail = float(np.sum(sq[ring > N]))
        values.append(float(np.sqrt(max(tail, 0.0))))
    return ResidualCurve(ns=ns, values=values)


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
    for n, v in zip(curve.ns, curve.values):
        if v < thr:
            return CutoffChoice(N=n, satisfied=True, residual=v, threshold=thr)
    return CutoffChoice(N=curve.ns[-1], satisfied=False,
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
    N: int


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
    W1, W2 = clean_top.W1, clean_top.W2
    W = min(W1, W2)
    if not (0 <= N <= W):
        raise CutoffOutOfRange(f"N={N} outside data window 0..{W}")

    s_grid, bad = scaling_factor_grid(cfg, W)
    u0_b = u0_top(cfg)

    g_samples = truth.sample_grid(I1, I2)
    f_spec = dft2(g_samples)
    fW1, fW2 = f_spec.W1, f_spec.W2
    f_vals = cfg.epsilon * f_spec.values[fW1 - W:fW1 + W + 1, fW2 - W:fW2 + W + 1]

    U = clean_top.values[W1 - W:W1 + W + 1, W2 - W:W2 + W + 1].copy()
    U[W, W] -= u0_b

    # E1: s_n * r_n = s_n (U_n - u0 delta_n0) - f_n on usable modes
    e1_coeffs = np.where(bad, 0j, s_grid * U - f_vals)
    E1 = synthesize(SpectrumField(e1_coeffs, W, W), N, (I1, I2), take_real=True)

    # E2: s_n * noise coefficients
    d_spec = dft2(meas.delta)
    dW1, dW2 = d_spec.W1, d_spec.W2
    d_vals = d_spec.values[dW1 - W:dW1 + W + 1, dW2 - W:dW2 + W + 1]
    e2_coeffs = np.where(bad, 0j, s_grid * d_vals)
    E2 = synthesize(SpectrumField(e2_coeffs, W, W), N, (I1, I2), take_real=True)

    # E3: the in-window truth content the cutoff discards (negative sign:
    # it is part of reconstruction - truth, not truth - reconstruction)
    ring = SpectrumField(f_vals, W, W).ring()
    tail = np.where(ring > N, -f_vals, 0j)
    E3 = synthesize(SpectrumField(tail, W, W), W, (I1, I2), take_real=True)

    # truth content beyond the data window, from a finer sampling
    If1 = BEYOND_FACTOR * I1 + (1 - (BEYOND_FACTOR * I1) % 2)
    If2 = BEYOND_FACTOR * I2 + (1 - (BEYOND_FACTOR * I2) % 2)
    f_fine = dft2(truth.sample_grid(If1, If2))
    ring_f = f_fine.ring()
    beyond = cfg.epsilon * np.sqrt(float(np.sum(np.abs(f_fine.values[ring_f > W]) ** 2)))

    return ErrorDecomposition(
        E1=E1, E2=E2, E3=E3,
        norm_E1=grid_l2_norm(E1), norm_E2=grid_l2_norm(E2),
        norm_E3=grid_l2_norm(E3), beyond_window_norm=float(beyond), N=N)

"""Biperiodic test surfaces g(x, y) and their Fourier analysis.

Three built-ins of increasing difficulty:

  1. ``trig_profile``  — separable trigonometric polynomial, band-limited
     to max(|n1|,|n2|) <= 3, so spectral round trips are exact.
  2. ``peaks_profile`` — a sum of scaled Gaussian bumps evaluated on
     [-4, 4]^2; numerically smooth, spectrum decays super-algebraically
     but never truncates exactly.
  3. ``image_profile`` — 0/1 indicator thresholded from a grayscale
     raster, periodically extended with nearest-pixel sampling; only
     piecewise constant, so its spectrum decays slowly and reconstruction
     fights the Gibbs phenomenon.

Samplers wrap coordinates before evaluating, so periodicity is exact by
construction.  Profiles 1 and 2 also expose analytic first derivatives and
Laplacians (the forward solver's variable coefficients need them); the
image profile does not — consumers differentiate its truncated spectrum
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadThreshold, EmptyImage, NyquistViolation
from .spectral import SpectrumField, dft2


@dataclass
class SurfaceProfile:
    kind: str
    sample: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    laplacian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    period1: float = 1.0
    period2: float = 1.0
    meta: dict = field(default_factory=dict)
    #: Fourier coefficients of a band-limited profile, when they are known
    spectrum: SpectrumField | None = None

    @property
    def has_derivatives(self) -> bool:
        return self.grad is not None and self.laplacian is not None

    def sample_grid(self, I1: int, I2: int) -> np.ndarray:
        if self.spectrum is not None:
            # one inverse FFT; mode n lands on index n mod I, and folding
            # aliased modes together keeps the samples exact on grids too
            # coarse to resolve the band
            n1, n2 = self.spectrum.mode_arrays()
            full = np.zeros((I1, I2), dtype=complex)
            np.add.at(full, (n1 % I1, n2 % I2), self.spectrum.values)
            return (np.fft.ifft2(full) * (I1 * I2)).real
        x = np.arange(I1)[:, None] * (self.period1 / I1)
        y = np.arange(I2)[None, :] * (self.period2 / I2)
        return self.sample(*np.broadcast_arrays(x, y))


# --- profile 1: separable trigonometric polynomial ------------------------

def _p(t):
    s = 2.0 * np.pi * t
    return 0.25 * (0.5 + np.sin(s) + np.cos(2 * s) + np.sin(3 * s))


def _dp(t):
    s = 2.0 * np.pi * t
    return 0.25 * 2.0 * np.pi * (np.cos(s) - 2 * np.sin(2 * s) + 3 * np.cos(3 * s))


def _d2p(t):
    s = 2.0 * np.pi * t
    w2 = (2.0 * np.pi) ** 2
    return 0.25 * w2 * (-np.sin(s) - 4 * np.cos(2 * s) - 9 * np.sin(3 * s))


def trig_profile() -> SurfaceProfile:
    return SurfaceProfile(
        kind="trig-poly",
        sample=lambda x, y: _p(x % 1.0) + _p(y % 1.0),
        grad=lambda x, y: (_dp(x % 1.0), np.zeros_like(x) + _dp(y % 1.0)),
        laplacian=lambda x, y: _d2p(x % 1.0) + _d2p(y % 1.0),
    )


# --- profile 2: sum of Gaussian bumps on [-4, 4]^2 -------------------------

def _peaks_terms(s, t):
    """Value, (d/ds, d/dt), and (d2/ds2 + d2/dt2) of q(s, t).

    Each term is P(s,t) e^{G(s,t)} with polynomial P and quadratic G, so
    derivatives follow the product rule:
        F_s  = (P_s + P G_s) e^G
        F_ss = (P_ss + 2 P_s G_s + P (G_ss + G_s^2)) e^G
    """
    val = np.zeros_like(s)
    ds = np.zeros_like(s)
    dt = np.zeros_like(s)
    lap = np.zeros_like(s)

    # 0.3 (1-s)^2 exp(-s^2 - (t+1)^2)
    P = 0.3 * (1 - s) ** 2
    Ps, Pss = -0.6 * (1 - s), 0.6
    Gs, Gt = -2 * s, -2 * (t + 1)
    E = np.exp(-s * s - (t + 1) ** 2)
    val += P * E
    ds += (Ps + P * Gs) * E
    dt += P * Gt * E
    lap += (Pss + 2 * Ps * Gs + P * (-2 + Gs * Gs) + P * (-2 + Gt * Gt)) * E

    # -(0.2 s - s^3 - t^5) exp(-s^2 - t^2)
    P = -(0.2 * s - s**3 - t**5)
    Ps, Pss = -(0.2 - 3 * s * s), 6 * s
    Pt, Ptt = 5 * t**4, 20 * t**3
    Gs, Gt = -2 * s, -2 * t
    E = np.exp(-s * s - t * t)
    val += P * E
    ds += (Ps + P * Gs) * E
    dt += (Pt + P * Gt) * E
    lap += (Pss + 2 * Ps * Gs + P * (-2 + Gs * Gs)
            + Ptt + 2 * Pt * Gt + P * (-2 + Gt * Gt)) * E

    # -0.03 exp(-(s+1)^2 - t^2)
    P = -0.03
    Gs, Gt = -2 * (s + 1), -2 * t
    E = np.exp(-((s + 1) ** 2) - t * t)
    val += P * E
    ds += P * Gs * E
    dt += P * Gt * E
    lap += (P * (-2 + Gs * Gs) + P * (-2 + Gt * Gt)) * E

    return val, ds, dt, lap


def _peaks_value(s, t):
    """The value part of _peaks_terms alone, by the same operations."""
    val = np.zeros_like(s)
    val += 0.3 * (1 - s) ** 2 * np.exp(-s * s - (t + 1) ** 2)
    val += -(0.2 * s - s**3 - t**5) * np.exp(-s * s - t * t)
    val += -0.03 * np.exp(-((s + 1) ** 2) - t * t)
    return val


def peaks_profile() -> SurfaceProfile:
    def _map(x, y):
        return 8.0 * (x % 1.0) - 4.0, 8.0 * (y % 1.0) - 4.0

    def sample(x, y):
        s, t = _map(x, y)
        return _peaks_value(s, t)

    def grad(x, y):
        s, t = _map(x, y)
        _, ds, dt, _ = _peaks_terms(s, t)
        return 8.0 * ds, 8.0 * dt

    def laplacian(x, y):
        s, t = _map(x, y)
        return 64.0 * _peaks_terms(s, t)[3]

    return SurfaceProfile(kind="analytic-peaks", sample=sample,
                          grad=grad, laplacian=laplacian)


# --- profile 3: thresholded image indicator --------------------------------

# 32x32 built-in pattern: a blocky arrow-and-bar glyph with no mirror or
# rotational symmetry, so orientation mistakes show up in reconstructions.
_GLYPH_ROWS = [
    "................................",
    "................................",
    "....##########..................",
    "....##########..................",
    "....####........................",
    "....####........................",
    "....########....###.............",
    "....########....#####...........",
    "....####..........#####.........",
    "....####............#####.......",
    "....####..............#####.....",
    "........................####....",
    "........................####....",
    "..........................##....",
    "................................",
    "......####......................",
    "......####......................",
    "......####......................",
    "......####..........########....",
    "......####..........########....",
    "......####..............####....",
    "......####..............####....",
    "......############......####....",
    "......############......####....",
    "................................",
    "............##..................",
    "...........####.................",
    "...........####.................",
    "............##..................",
    "................................",
    "................................",
    "................................",
]


def builtin_glyph() -> np.ndarray:
    """Built-in 32x32 binary test image (1 = foreground)."""
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row]
                     for row in _GLYPH_ROWS])


def image_profile(pixels: np.ndarray, threshold: float = 0.5) -> SurfaceProfile:
    """Indicator profile from a grayscale raster with values in [0, 1].

    Pixel row 0 is the top of the image; it maps to the top of the cell
    (y near the period), matching how the rasters are written back out.
    Sampling is nearest-pixel, so the profile is exactly 0/1 valued.
    """
    pixels = np.asarray(pixels, dtype=float)
    if pixels.size == 0:
        raise EmptyImage("image has no pixels")
    if not 0.0 < threshold < 1.0:
        raise BadThreshold(f"threshold {threshold} not in (0, 1)")
    mask = (pixels >= threshold).astype(float)
    H, Wd = mask.shape

    def sample(x, y):
        xf = np.asarray(x, dtype=float) % 1.0
        yf = np.asarray(y, dtype=float) % 1.0
        col = np.minimum((xf * Wd).astype(int), Wd - 1)
        row = np.minimum(((1.0 - yf) * H).astype(int), H - 1)
        return mask[row, col]

    return SurfaceProfile(kind="image-indicator", sample=sample,
                          meta={"shape": (H, Wd), "threshold": threshold})


PROFILE_BUILDERS = {
    "1": trig_profile,
    "2": peaks_profile,
    "3": lambda: image_profile(builtin_glyph()),
}


def profile_spectrum(profile: SurfaceProfile, N_max: int,
                     quad_I: int = 99) -> SpectrumField:
    """Fourier coefficients g_n over max(|n1|,|n2|) <= N_max via grid DFT.

    Exact (to rounding) for band-limited profiles once quad_I exceeds
    twice the bandwidth; for the others it is the natural discrete proxy.
    """
    if quad_I <= 2 * N_max:
        raise NyquistViolation(f"quad_I={quad_I} cannot resolve N_max={N_max}")
    full = dft2(profile.sample_grid(quad_I, quad_I))
    return full.truncated(N_max)


def band_limited_profile(profile: SurfaceProfile, N_max: int,
                         quad_I: int = 99) -> SurfaceProfile:
    """Replace a profile by its truncated Fourier series.

    The result is smooth and band-limited, evaluable anywhere, with
    analytic derivatives — it is the surface the band-limited solver (and
    the inverse problem) actually sees when handed a non-smooth profile.
    Its ``sample_grid`` is one inverse FFT of the stored spectrum;
    ``sample``, ``grad`` and ``laplacian`` sum the series pointwise.
    """
    spec = profile_spectrum(profile, N_max, quad_I=quad_I)
    C = spec.values
    n = np.arange(-N_max, N_max + 1)
    a1 = 2.0 * np.pi * n / profile.period1
    a2 = 2.0 * np.pi * n / profile.period2

    def _basis(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        T1 = np.exp(1j * x[..., None] * a1)
        T2 = np.exp(1j * y[..., None] * a2)
        return T1, T2

    def sample(x, y):
        T1, T2 = _basis(x, y)
        return np.real(np.einsum("...k,...l,kl->...", T1, T2, C))

    def grad(x, y):
        T1, T2 = _basis(x, y)
        gx = np.real(np.einsum("...k,...l,kl->...", T1, T2, 1j * a1[:, None] * C))
        gy = np.real(np.einsum("...k,...l,kl->...", T1, T2, 1j * a2[None, :] * C))
        return gx, gy

    def laplacian(x, y):
        T1, T2 = _basis(x, y)
        lap = -(a1[:, None] ** 2 + a2[None, :] ** 2) * C
        return np.real(np.einsum("...k,...l,kl->...", T1, T2, lap))

    return SurfaceProfile(kind=f"{profile.kind}-bandlimited-{N_max}",
                          sample=sample, grad=grad, laplacian=laplacian,
                          period1=profile.period1, period2=profile.period2,
                          meta={"N_max": N_max, "quad_I": quad_I,
                                "source": profile.kind},
                          spectrum=spec)

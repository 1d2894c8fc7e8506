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
construction.  Profiles 1 and 2 also expose ``derivatives``, one callable
giving the analytic first derivatives and Laplacian together (the forward
solver's variable coefficients need them); the image profile does not —
consumers differentiate its truncated spectrum instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadThreshold, EmptyImage, NyquistViolation
from .spectral import SpectrumField, dft2


@dataclass
class SurfaceProfile:
    """g on the unit cell [0, 1)^2, periodic in x and y."""
    sample: Callable[[np.ndarray, np.ndarray], np.ndarray]
    #: (g_x, g_y, Laplacian g) at the same points, for smooth profiles
    derivatives: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    #: Fourier coefficients of a band-limited profile, when they are known
    spectrum: SpectrumField | None = None

    @property
    def has_derivatives(self) -> bool:
        return self.derivatives is not None

    def sample_grid(self, I1: int, I2: int) -> np.ndarray:
        """g at the cell points (i1 / I1, i2 / I2), an (I1, I2) float64 array.

        A band-limited profile sums its stored spectrum.  Any other calls
        ``sample`` once on separable coordinates, x as (I1, 1) and y as
        (1, I2), so a sampler must broadcast its arguments; a smaller
        result, such as a constant's, is copied out to the full grid.
        """
        if self.spectrum is not None:
            # one inverse FFT; mode n lands on index n mod I, and folding
            # aliased modes together keeps the samples exact on grids too
            # coarse to resolve the band
            n1, n2 = self.spectrum.mode_arrays()
            full = np.zeros((I1, I2), dtype=complex)
            np.add.at(full, (n1 % I1, n2 % I2), self.spectrum.values)
            return (np.fft.ifft2(full) * (I1 * I2)).real
        x = np.arange(I1)[:, None] * (1.0 / I1)
        y = np.arange(I2)[None, :] * (1.0 / I2)
        g = np.asarray(self.sample(x, y), dtype=np.float64)
        if g.shape != (I1, I2):
            # a sampler that ignores a coordinate returns a smaller shape
            g = np.array(np.broadcast_to(g, (I1, I2)))
        return g


def check_unit_cell(period1: float, period2: float) -> None:
    """Profiles live on the unit cell, so a surface needs unit periods."""
    if (period1, period2) != (1.0, 1.0):
        raise ValueError("the surface profiles are defined on the unit "
                         "cell: period1 and period2 must be 1")


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
        sample=lambda x, y: _p(x % 1.0) + _p(y % 1.0),
        derivatives=lambda x, y: (_dp(x % 1.0), np.zeros_like(x) + _dp(y % 1.0),
                                  _d2p(x % 1.0) + _d2p(y % 1.0)),
    )


# --- profile 2: sum of Gaussian bumps on [-4, 4]^2 -------------------------

def _peaks_terms(s, t):
    """Value, (d/ds, d/dt), and (d2/ds2 + d2/dt2) of q(s, t).

    Each term is P(s,t) e^{G(s,t)} with polynomial P and quadratic G, listed
    as (P, P_s, P_t, P_ss, P_tt, G_s, G_t, e^G) with G_ss = G_tt = -2 and
    0.0 for a part it lacks, so the product rule is written once:
        F_s  = (P_s + P G_s) e^G
        F_ss = (P_ss + 2 P_s G_s + P (G_ss + G_s^2)) e^G
    """
    terms = (
        # 0.3 (1-s)^2 exp(-s^2 - (t+1)^2)
        (0.3 * (1 - s) ** 2, -0.6 * (1 - s), 0.0, 0.6, 0.0,
         -2 * s, -2 * (t + 1), np.exp(-s * s - (t + 1) ** 2)),
        # -(0.2 s - s^3 - t^5) exp(-s^2 - t^2)
        (-(0.2 * s - s**3 - t**5), -(0.2 - 3 * s * s), 5 * t**4, 6 * s,
         20 * t**3, -2 * s, -2 * t, np.exp(-s * s - t * t)),
        # -0.03 exp(-(s+1)^2 - t^2)
        (-0.03, 0.0, 0.0, 0.0, 0.0,
         -2 * (s + 1), -2 * t, np.exp(-((s + 1) ** 2) - t * t)),
    )
    val = ds = dt = lap = 0.0
    for P, Ps, Pt, Pss, Ptt, Gs, Gt, E in terms:
        val += P * E
        ds += (Ps + P * Gs) * E
        dt += (Pt + P * Gt) * E
        lap += (Pss + 2 * Ps * Gs + P * (-2 + Gs * Gs)
                + Ptt + 2 * Pt * Gt + P * (-2 + Gt * Gt)) * E
    return val, ds, dt, lap


def _peaks_value(s, t):
    """The value part of _peaks_terms alone, by the same operations."""
    # s and t may be separable (I1, 1) and (1, I2) coordinates: the
    # in-place sums need the accumulator at their broadcast shape
    val = np.zeros(np.broadcast_shapes(np.shape(s), np.shape(t)))
    val += 0.3 * (1 - s) ** 2 * np.exp(-s * s - (t + 1) ** 2)
    val += -(0.2 * s - s**3 - t**5) * np.exp(-s * s - t * t)
    val += -0.03 * np.exp(-((s + 1) ** 2) - t * t)
    return val


def peaks_profile() -> SurfaceProfile:
    def _map(x, y):
        return 8.0 * (x % 1.0) - 4.0, 8.0 * (y % 1.0) - 4.0

    def sample(x, y):
        return _peaks_value(*_map(x, y))

    def derivatives(x, y):
        _, ds, dt, lap = _peaks_terms(*_map(x, y))
        return 8.0 * ds, 8.0 * dt, 64.0 * lap

    return SurfaceProfile(sample=sample, derivatives=derivatives)


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

    return SurfaceProfile(sample=sample)


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
    ``sample`` and ``derivatives`` sum the series pointwise.
    """
    spec = profile_spectrum(profile, N_max, quad_I=quad_I)
    C = spec.values
    # the unit-cell wavenumbers 2 pi n along either axis
    a = 2.0 * np.pi * np.arange(-N_max, N_max + 1)

    def _basis(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        T1 = np.exp(1j * x[..., None] * a)
        T2 = np.exp(1j * y[..., None] * a)
        return T1, T2

    def sample(x, y):
        T1, T2 = _basis(x, y)
        return np.real(np.einsum("...k,...l,kl->...", T1, T2, C))

    def derivatives(x, y):
        T1, T2 = _basis(x, y)
        gx = np.real(np.einsum("...k,...l,kl->...", T1, T2, 1j * a[:, None] * C))
        gy = np.real(np.einsum("...k,...l,kl->...", T1, T2, 1j * a[None, :] * C))
        lap = -(a[:, None] ** 2 + a[None, :] ** 2) * C
        return gx, gy, np.real(np.einsum("...k,...l,kl->...", T1, T2, lap))

    return SurfaceProfile(sample=sample, derivatives=derivatives,
                          spectrum=spec)

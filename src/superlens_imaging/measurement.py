"""Noisy sampling of the field on the measurement plane z = b.

Noise is additive complex white Gaussian: independent N(0, sigma^2) draws
for the real and imaginary part of every grid sample.  The generator is
pinned (counter-based uniform stream + Box-Muller, row-major order) so a
seed reproduces a measurement bitwise within this implementation; across
implementations only the statistics are promised.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ZeroNoise
from .spectral import dft2, grid_l2_norm


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:  # NaN fails too
            raise ValueError("sigma must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class Measurement:
    """One noisy top-plane sample set.  u_delta - delta is the clean field
    exactly; snr is the realized power ratio ||u||^2 / ||delta||^2 (+inf
    when sigma = 0)."""
    u_delta: np.ndarray
    delta: np.ndarray
    snr: float


def complex_gaussian(shape: tuple[int, ...], sigma: float, seed: int) -> np.ndarray:
    """sigma-scaled complex normals from a Philox counter stream.

    Two uniforms per sample in row-major order; Box-Muller with
    log1p(-u) so an exact 0 from the stream stays in the log's domain.
    """
    gen = np.random.Generator(np.random.Philox(seed))
    u = gen.random(size=shape + (2,))
    sr = sigma * np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = 2.0 * np.pi * u[..., 1]
    # sigma r e^{i theta}, each part written in place: the same bytes as
    # the complex product sigma r (cos theta + i sin theta)
    out = np.empty(shape, dtype=complex)
    np.multiply(sr, np.cos(theta), out=out.real)
    np.multiply(sr, np.sin(theta), out=out.imag)
    return out


def snr_of(u: np.ndarray, delta: np.ndarray) -> float:
    """Power signal-to-noise ratio in the grid norm; scale-invariant."""
    nd = grid_l2_norm(delta)
    if nd == 0.0:
        raise ZeroNoise("noise grid is identically zero")
    return float((grid_l2_norm(u) / nd) ** 2)


def add_noise(u: np.ndarray, spec: NoiseSpec) -> Measurement:
    u = np.asarray(u, dtype=complex)
    if spec.sigma == 0.0:
        return Measurement(u_delta=u.copy(), delta=np.zeros_like(u),
                           snr=math.inf)
    delta = complex_gaussian(u.shape, spec.sigma, spec.seed)
    return Measurement(u_delta=u + delta, delta=delta, snr=snr_of(u, delta))


def rescale_to_snr(u: np.ndarray, m: Measurement, target_snr: float) -> Measurement:
    """Scale the noise realization so the realized SNR equals target_snr.

    The draw's direction is kept (same seed, same relative pattern); only
    its amplitude moves.  This is how operating points specified as an SNR
    rather than a sigma are produced.
    """
    if not (target_snr > 0 and math.isfinite(target_snr)):
        raise ValueError("target_snr must be positive and finite")
    u = np.asarray(u, dtype=complex)
    nd = grid_l2_norm(m.delta)
    if nd == 0.0:
        raise ZeroNoise("cannot rescale an identically zero noise grid")
    scale = grid_l2_norm(u) / (math.sqrt(target_snr) * nd)
    delta = m.delta * scale
    return Measurement(u_delta=u + delta, delta=delta, snr=snr_of(u, delta))


@dataclass(frozen=True)
class NoiseDftStats:
    """Per-mode empirical statistics of dft2 applied to pure noise grids.

    Arrays live on the centered mode window of dft2.  For an I1 x I2 grid
    the white-noise law gives std(Re U_n) = std(Im U_n) = sigma/sqrt(I1*I2)
    with Re and Im uncorrelated, uniformly over modes.
    """
    std_re: np.ndarray
    std_im: np.ndarray
    cov: np.ndarray
    expected_std: float


def noise_dft_stats(spec: NoiseSpec, I: int, trials: int) -> NoiseDftStats:
    """Monte-Carlo check of the noise-DFT law over `trials` fresh grids.

    Trial t uses seed + t, so the trials are independent streams and the
    whole sweep is reproducible.
    """
    if trials < 100:
        raise ValueError("trials >= 100 required")
    if I < 1:
        raise ValueError("I >= 1 required")
    # a per-mode variance (sigma/I)^2 below the normal floats loses its
    # digits; compared through its square root, which cannot overflow
    if spec.sigma > 0 and spec.sigma / I < math.sqrt(np.finfo(float).tiny):
        raise ValueError(f"sigma={spec.sigma}: the noise statistics underflow")
    # a huge sigma overflows the sums of squares; the check below says so
    with np.errstate(over="ignore", invalid="ignore"):
        s_re = s_im = s_re2 = s_im2 = s_cross = 0.0
        for t in range(trials):
            delta = complex_gaussian((I, I), spec.sigma, spec.seed + t)
            U = dft2(delta).values
            re, im = U.real, U.imag
            s_re = s_re + re
            s_im = s_im + im
            s_re2 = s_re2 + re * re
            s_im2 = s_im2 + im * im
            s_cross = s_cross + re * im
        n = trials
        m_re, m_im = s_re / n, s_im / n
        var_re = (s_re2 - n * m_re**2) / (n - 1)
        var_im = (s_im2 - n * m_im**2) / (n - 1)
        cov = (s_cross - n * m_re * m_im) / (n - 1)
    if not all(np.isfinite(v).all() for v in (var_re, var_im, cov)):
        raise ValueError(f"sigma={spec.sigma}: the noise statistics overflow")
    return NoiseDftStats(std_re=np.sqrt(np.maximum(var_re, 0.0)),
                         std_im=np.sqrt(np.maximum(var_im, 0.0)),
                         cov=cov, expected_std=spec.sigma / I)


# --- serialization -----------------------------------------------------------

CSV_HEADER = ["i1", "i2", "re_u", "im_u", "re_delta", "im_delta"]


def save_measurement_csv(m: Measurement, path: str | Path) -> None:
    """One row per sample: indices, noisy field, noise.  repr() floats so
    the grids round-trip bitwise; the bytes are those csv.writer produces
    (no field needs quoting, rows end in CRLF)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        # one grid row at a time, so no whole-grid list or string is built
        for i1, (u, d) in enumerate(zip(m.u_delta, m.delta)):
            columns = [part.tolist()
                       for part in (u.real, u.imag, d.real, d.imag)]
            fh.writelines(f"{i1},{i2},{a!r},{b!r},{c!r},{e!r}\r\n"
                          for i2, (a, b, c, e) in enumerate(zip(*columns)))


def load_measurement_csv(path: str | Path) -> Measurement:
    """Inverse of save_measurement_csv.

    The grids round-trip bitwise and snr is recomputed from them (+inf
    for a zero noise grid).  Malformed data — short rows,
    non-finite values, negative, duplicated or missing grid points — raise
    ValueError.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(f"unexpected measurement CSV header: {header}")
        lines = fh.read().splitlines()
    if not any(lines):
        raise ValueError("measurement CSV has no data rows")
    # numpy's text reader parses floats exactly as float() does; it raises
    # ValueError on unparsable fields and on rows of differing length
    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != len(CSV_HEADER):
        raise ValueError(f"measurement CSV rows have {data.shape[1]} fields, "
                         f"expected {len(CSV_HEADER)}")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ValueError("non-finite value in measurement CSV data row "
                         f"{int(np.argmax(bad)) + 1}")
    idx = data[:, :2]
    if (idx < 0).any() or (idx != np.floor(idx)).any():
        raise ValueError("measurement CSV grid indices must be non-negative "
                         "integers")
    n = len(data)
    I1, I2 = (int(m) + 1 for m in idx.max(axis=0))
    if n != I1 * I2:
        raise ValueError(f"measurement CSV has {n} rows for an {I1}x{I2} "
                         f"grid ({I1 * I2} expected)")
    flat = (idx[:, 0] * I2 + idx[:, 1]).astype(np.int64)
    if np.unique(flat).size != n:
        raise ValueError("duplicated grid point in measurement CSV")
    # re_u, im_u, re_delta, im_delta: two complex columns, bit for bit
    pairs = np.ascontiguousarray(data[:, 2:]).view(complex)
    u_delta = np.empty(n, dtype=complex)
    delta = np.empty(n, dtype=complex)
    u_delta[flat] = pairs[:, 0]
    delta[flat] = pairs[:, 1]
    u_delta, delta = u_delta.reshape(I1, I2), delta.reshape(I1, I2)
    try:
        snr = snr_of(u_delta - delta, delta)
    except ZeroNoise:
        snr = math.inf
    return Measurement(u_delta=u_delta, delta=delta, snr=snr)

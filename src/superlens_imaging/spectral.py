"""Uniform-grid 2D Fourier analysis/synthesis and the l2 norm used everywhere.

Grid convention: u[i1, i2] samples the cell point x = (i1/I1 * L1, i2/I2 * L2),
0 <= ik < Ik, right/top endpoints excluded (periodic wrap).

Transform convention (mean-normalized):

    U_n = (1/(I1 I2)) sum_i exp(-2 pi i (n1 i1/I1 + n2 i2/I2)) u_i

reported on the centered window |nk| <= floor((Ik-1)/2).  With the matching
norm  ||u|| = sqrt(mean |u_i|^2)  Parseval holds exactly:
||u||^2 = sum_n |U_n|^2, so grid-side and coefficient-side thresholds agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffOutOfRange


@dataclass
class SpectrumField:
    """Fourier coefficients on a centered mode window.

    ``values[n1 + W1, n2 + W2]`` holds the coefficient of
    exp(i alpha_n . x); shape (2 W1 + 1, 2 W2 + 1).
    """
    values: np.ndarray
    W1: int
    W2: int

    def __post_init__(self):
        expect = (2 * self.W1 + 1, 2 * self.W2 + 1)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    @property
    def W(self) -> int:
        return min(self.W1, self.W2)

    def coeff(self, n: tuple[int, int]) -> complex:
        n1, n2 = n
        if abs(n1) > self.W1 or abs(n2) > self.W2:
            raise CutoffOutOfRange(f"mode {n} outside window ({self.W1},{self.W2})")
        return complex(self.values[n1 + self.W1, n2 + self.W2])

    def mode_arrays(self):
        """(n1, n2) integer index arrays matching ``values``."""
        n1 = np.arange(-self.W1, self.W1 + 1)[:, None]
        n2 = np.arange(-self.W2, self.W2 + 1)[None, :]
        return np.broadcast_arrays(n1, n2)

    def ring(self) -> np.ndarray:
        """max(|n1|, |n2|) per entry — the sup-norm 'ring' of each mode."""
        n1, n2 = self.mode_arrays()
        return np.maximum(np.abs(n1), np.abs(n2))

    def truncated(self, N: int) -> "SpectrumField":
        if N > self.W:
            raise CutoffOutOfRange(f"N={N} exceeds window {self.W}")
        c = self.values[self.W1 - N:self.W1 + N + 1, self.W2 - N:self.W2 + N + 1]
        return SpectrumField(c.copy(), N, N)


def window_halfwidth(I: int) -> int:
    return (I - 1) // 2


def dft2(u: np.ndarray) -> SpectrumField:
    """Mean-normalized DFT reported on the centered window.

    For even grid sizes the un-pairable Nyquist row/column is dropped.
    """
    I1, I2 = u.shape
    scale = 1 / (I1 * I2)
    if np.iscomplexobj(u):
        F = np.fft.fft(u, axis=0)
        F *= scale
        np.fft.fft(F, axis=1, out=F)
    else:
        # real data: a real-input FFT along the rows, the column FFT on the
        # n2 >= 0 half, and the rest by conjugate symmetry, which also makes
        # the self-mirrored columns n2 = 0 (and I2/2) exactly Hermitian
        h = I2 // 2 + 1
        F = np.empty((I1, I2), dtype=complex)
        half = F[:, :h]
        np.fft.rfft(u, axis=1, out=half)
        half *= scale
        np.fft.fft(half, axis=0, out=half)
        up = np.arange(1, (I1 + 1) // 2)[:, None]
        cols = [0, I2 // 2][:2 - I2 % 2]
        F[-up, cols] = F[up, cols].conj()
        F[:, h:] = F[-np.arange(I1), I2 - h:0:-1].conj()
    # after fftshift index k holds mode k - I//2, so an even size puts its
    # Nyquist line first
    F = np.fft.fftshift(F)
    return SpectrumField(F[1 - I1 % 2:, 1 - I2 % 2:],
                         window_halfwidth(I1), window_halfwidth(I2))


@lru_cache(maxsize=8)
def _real_synthesis_table(I: int) -> np.ndarray:
    """(2 (W + 1), I) real table B with W = window_halfwidth(I): rows 2m
    and 2m + 1 hold w_m cos(2 pi m i / I) and -w_m sin(2 pi m i / I),
    w_0 = 1 and w_m = 2 above, so that for the interleaved (re, im)
    float64 view c of the n2 >= 0 coefficients, c @ B[:2N + 2] is
    sum_m w_m Re(c_m e^{2 pi i m i / I}).  Read-only: every caller shares it.
    """
    m = np.arange(window_halfwidth(I) + 1)
    # reduced phases m i mod I keep the arguments in [0, 2 pi)
    phase = (2.0 * np.pi / I) * (np.outer(m, np.arange(I)) % I)
    w = np.where(m == 0, 1.0, 2.0)[:, None]
    B = np.empty((2 * m.size, I))
    B[0::2] = w * np.cos(phase)
    B[1::2] = -w * np.sin(phase)
    B.flags.writeable = False
    return B


def synthesize(coeffs: SpectrumField, N: int, grid_shape: tuple[int, int],
               take_real: bool = False) -> np.ndarray:
    """sum_{max(|n1|,|n2|) <= N} c_n exp(i alpha_n . x_i) on the grid.

    The synthesis grid must resolve the requested window (Ik > 2N), else
    distinct modes would collide under index wrap-around.

    Both paths transform axis 0 over the live columns only.  take_real
    synthesizes Re(sum c_n e_n), which is the synthesis of the Hermitian
    part h_n = (c_n + conj(c_-n)) / 2: its N + 1 columns n2 >= 0
    determine it, and the last axis is one real matrix product of their
    (re, im) pairs with a cached cosine/sine table (_real_synthesis_table):
    one small dgemm, which OpenBLAS runs on a single thread at I2 = 99, in
    place of I1 real inverse FFTs of length I2.  The complex path keeps its
    inverse FFT on the last axis.
    """
    if N < 0 or N > coeffs.W:
        raise CutoffOutOfRange(f"N={N} outside coefficient window {coeffs.W}")
    I1, I2 = grid_shape
    if I1 <= 2 * N or I2 <= 2 * N:
        raise CutoffOutOfRange(f"grid {grid_shape} cannot resolve N={N}")
    block = coeffs.values[coeffs.W1 - N:coeffs.W1 + N + 1,
                          coeffs.W2 - N:coeffs.W2 + N + 1]
    if take_real:
        block = 0.5 * (block[:, N:] + block[::-1, N::-1].conj())
    rows = np.zeros((I1, block.shape[1]), dtype=complex)
    rows[np.arange(-N, N + 1) % I1] = block
    cols = np.fft.ifft(rows, axis=0, norm="forward", out=rows)
    if take_real:
        # the (I1, N + 1) complex columns viewed as (I1, 2N + 2) floats
        # already alternate re, im in the table's row order
        return cols.view(np.float64) @ _real_synthesis_table(I2)[:2 * N + 2]
    full = np.zeros((I1, I2), dtype=complex)
    full[:, np.arange(-N, N + 1) % I2] = cols
    return np.fft.ifft(full, axis=1, norm="forward", out=full)


def grid_l2_norm(u: np.ndarray) -> float:
    """sqrt(mean |u_i|^2); Parseval-consistent with dft2."""
    u = np.asarray(u)
    # a complex grid as its interleaved float64 (re, im) pairs; einsum
    # without `optimize` never calls BLAS
    r = (np.ascontiguousarray(u, dtype=complex).view(np.float64)
         if np.iscomplexobj(u) else np.asarray(u, dtype=np.float64))
    axes = list(range(r.ndim))
    return float(np.sqrt(np.einsum(r, axes, r, axes, []) / u.size))

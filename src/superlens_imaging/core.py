"""Physical configuration and the per-mode spectral scalars.

Geometry (all lengths in units of the sound speed / angular frequency
normalization): the unknown surface sits at z = f(x, y) = eps * g(x, y),
the slab occupies a < z < b with complex density rho and bulk modulus
kappa, and data are taken on the slab top z = b.  h = b - a is the slab
thickness.

Every other module consumes the scalars computed here:

    alpha_n = (2 pi n1 / L1, 2 pi n2 / L2)        lateral wavevector
    gamma_n = sqrt(omega^2 - |alpha_n|^2)          free-space vertical
    eta_n   = sqrt((rho/kappa) omega^2 - |alpha_n|^2)   in-slab vertical

both square roots on the Im >= 0 branch, and the incident-field constant
tau = -2i omega e^{-i omega b}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .errors import ResonantMode

Mode = tuple[int, int]

#: relative tolerance below which a vertical wavenumber counts as resonant
RESONANCE_RTOL = 1e-12
#: relative level below which the two terms of a slab expression cancel
CANCEL_RTOL = 1e-12


@dataclass(frozen=True)
class PhysicalConfig:
    omega: float
    period1: float = 1.0
    period2: float = 1.0
    a: float = 0.1
    b: float = 0.2
    rho: complex = 1.0 + 0j
    kappa: complex = 1.0 + 0j
    epsilon: float = 0.0

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.omega, self.period1, self.period2,
                                        self.a, self.b, self.rho, self.kappa,
                                        self.epsilon))):
            raise ValueError("physical parameters must be finite")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not float_info.min <= self.omega * self.omega <= float_info.max:
            raise ValueError("omega^2 must be a finite, normal float")
        if not (self.period1 > 0 and self.period2 > 0):
            raise ValueError("periods must be positive")
        if not 0 < self.a < self.b:
            raise ValueError("need 0 < a < b")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        if self.rho == 0 or self.kappa == 0:
            raise ValueError("rho and kappa must be nonzero")

    @property
    def h(self) -> float:
        return self.b - self.a


def _nonresonant(name: str, root: complex, n: Mode, cfg: PhysicalConfig) -> complex:
    if _vanishes(root, cfg):
        raise ResonantMode(f"{name} vanishes at mode {n}")
    return root


def tau_of(cfg: PhysicalConfig) -> complex:
    return -2j * cfg.omega * cmath.exp(-1j * cfg.omega * cfg.b)


@dataclass(frozen=True)
class Scalars:
    """Bundle of the per-mode quantities the layer algebra needs."""
    alpha_sq: float
    gamma: complex
    eta: complex
    phi: complex
    psi: complex


def mode_scalars(n: Mode, cfg: PhysicalConfig) -> Scalars:
    g, e, _ = gamma_eta_grid(n[0], n[1], cfg)
    g = _nonresonant("gamma", complex(g), n, cfg)
    e = _nonresonant("eta", complex(e), n, cfg)
    asq = alpha_grid(n[0], n[1], cfg)[2]
    return Scalars(
        alpha_sq=float(asq),
        gamma=g,
        eta=e,
        phi=e / cfg.rho + g,
        psi=e / cfg.rho - g,
    )


def mode_grid(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2) index arrays over all modes with max(|n1|, |n2|) <= N,
    shape (2N+1, 2N+1), n1 along the first axis."""
    n = np.arange(-N, N + 1)
    return np.meshgrid(n, n, indexing="ij")


# --- the per-mode kernel: index arrays (or plain ints) in, arrays out ------

def alpha_grid(n1, n2, cfg: PhysicalConfig):
    """(alpha_x, alpha_y, |alpha|^2) for integer index arrays of equal shape."""
    ax = 2.0 * np.pi * n1 / cfg.period1
    ay = 2.0 * np.pi * n2 / cfg.period2
    return ax, ay, ax * ax + ay * ay


def branch_sqrt_arr(w) -> np.ndarray:
    """Principal square root flipped onto the Im >= 0 branch.

    Enforces the sign convention directly instead of relying on the host
    library's cut: for w real positive the result is real positive, for w
    real negative it is +i sqrt|w|.
    """
    r = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(r.imag < 0, -r, r)


def _vanishes(root, cfg: PhysicalConfig):
    return np.abs(root) < RESONANCE_RTOL * cfg.omega


def gamma_eta_grid(n1, n2, cfg: PhysicalConfig):
    """Vectorized (gamma_n, eta_n, resonant-mask) over index arrays.

    Resonant entries are flagged, not raised; callers decide how to report
    them (sweeps keep the row, the reconstruction drops the mode,
    mode_scalars raises ResonantMode).
    """
    _, _, asq = alpha_grid(n1, n2, cfg)
    gam = branch_sqrt_arr(cfg.omega**2 - asq)
    eta = branch_sqrt_arr((cfg.rho / cfg.kappa) * cfg.omega**2 - asq)
    return gam, eta, _vanishes(gam, cfg) | _vanishes(eta, cfg)


def slab_terms(gam, eta, cfg: PhysicalConfig):
    """(phi_n, psi_n, e^{i eta_n h}, e^{-i eta_n h}) with
    phi_n = eta_n/rho + gamma_n and psi_n = eta_n/rho - gamma_n: the terms
    every closed form of the slab's 4x4 system is built from."""
    phi = eta / cfg.rho + gam
    psi = eta / cfg.rho - gam
    return phi, psi, np.exp(1j * eta * cfg.h), np.exp(-1j * eta * cfg.h)


def cancelling_sum(t1, t2):
    """t1 + t2, plus the mask of entries where the two terms cancel below
    CANCEL_RTOL of their summed magnitudes."""
    total = t1 + t2
    scale = np.maximum(np.abs(t1) + np.abs(t2), 1e-300)
    return total, np.abs(total) < CANCEL_RTOL * scale

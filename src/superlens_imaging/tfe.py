"""Flattened-boundary perturbation solution of the layered scattering problem.

Writing the total field as a power series in the surface amplitude eps,
the zeroth-order term solves a flat three-layer transmission problem and
the first-order term a forced variant of it.  Both reduce, mode by mode,
to 4x4 linear systems with the same matrix, and everything here is
closed form.  The independent routes that cross-check the algebra (the
4x4 determinant, an ODE quadrature, residual substitution) live with the
tests, in tests/oracles.py.

The payoff is the per-mode scaling factor s_n: the top-of-slab first-order
coefficient satisfies  s_n * u1_top(n, g_n) = g_n  exactly, which is what
makes the linearized inversion a single diagonal solve.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .core import (Mode, PhysicalConfig, alpha_grid, cancelling_sum,
                   gamma_eta_grid, mode_grid, mode_scalars, slab_terms, tau_of)
from .errors import NearSingularSystem

ZERO: Mode = (0, 0)


def _sigma(gam, eta, cfg: PhysicalConfig):
    """The layer determinant over arrays of (gamma_n, eta_n), in the
    cancellation-aware two-term closed form, plus the mask of entries
    whose two terms cancel (core.cancelling_sum)."""
    phi, psi, ep, em = slab_terms(gam, eta, cfg)
    t1 = np.exp(-1j * gam * cfg.a) * (em * phi**2 - ep * psi**2)
    t2 = np.exp(1j * gam * cfg.a) * (ep - em) * phi * psi
    return cancelling_sum(t1, t2)


def sigma_n(n: Mode, cfg: PhysicalConfig) -> complex:
    """Determinant of the 4x4 layer system at one mode."""
    s = mode_scalars(n, cfg)
    sig, singular = _sigma(s.gamma, s.eta, cfg)
    if singular:
        raise NearSingularSystem(f"layer determinant cancels at mode {n}")
    return complex(sig)


@dataclass(frozen=True)
class ZerothOrder:
    """Flat-surface field: A e^{i eta z} + B e^{-i eta z} inside the slab,
    C e^{i gamma z} + D e^{-i gamma z} below it, with D = -C."""
    A: complex
    B: complex
    C: complex
    cfg: PhysicalConfig

    @property
    def D(self) -> complex:
        return -self.C

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        s0 = mode_scalars(ZERO, self.cfg)
        below = self.C * np.exp(1j * s0.gamma * z) + self.D * np.exp(-1j * s0.gamma * z)
        slab = self.A * np.exp(1j * s0.eta * z) + self.B * np.exp(-1j * s0.eta * z)
        return np.where(z < self.cfg.a, below, slab)

def solve_zeroth(cfg: PhysicalConfig) -> ZerothOrder:
    """Cramer solution of the zero-mode 4x4 system (forcing tau in the top
    Robin row; all other modes are unforced and vanish)."""
    s = mode_scalars(ZERO, cfg)
    sig = sigma_n(ZERO, cfg)
    tau = tau_of(cfg)
    a = cfg.a
    e, g = s.eta, s.gamma
    A = (1j * cmath.exp(-1j * e * a) * tau / sig) * (
        s.psi * cmath.exp(-1j * g * a) - s.phi * cmath.exp(1j * g * a))
    B = (1j * cmath.exp(1j * e * a) * tau / sig) * (
        s.phi * cmath.exp(-1j * g * a) - s.psi * cmath.exp(1j * g * a))
    C = -2j * e * tau / (cfg.rho * sig)
    return ZerothOrder(A=A, B=B, C=C, cfg=cfg)


@functools.lru_cache(maxsize=16)
def u0_top(cfg: PhysicalConfig) -> complex:
    """Zero-mode field value on the measurement plane z = b.

    All other modes carry no flat-surface contribution there.  For the
    lossless matched slab with a = h this value vanishes identically: the
    slab images the bottom Dirichlet plane onto the top boundary.  The
    value depends on the operating point alone, so, like
    scaling_factor_grid, it is computed once per config.
    """
    z0 = solve_zeroth(cfg)
    s0 = mode_scalars(ZERO, cfg)
    return z0.A * cmath.exp(1j * s0.eta * cfg.b) + z0.B * cmath.exp(-1j * s0.eta * cfg.b)


def first_order_top(n: Mode, g_n: complex, cfg: PhysicalConfig) -> complex:
    """First-order top coefficient driven by the surface coefficient g_n."""
    s = mode_scalars(n, cfg)
    s0 = mode_scalars(ZERO, cfg)
    sig = sigma_n(n, cfg)
    C0 = solve_zeroth(cfg).C
    return -(8j / (cfg.rho * sig)) * C0 * s0.gamma * s.gamma * s.eta * g_n


def _scaling(n1, n2, cfg: PhysicalConfig):
    """s_n over index arrays, plus the mask of unusable (resonant or
    near-singular) modes, whose entries are not meaningful.  The zero mode
    normalizes every entry, so a resonant or singular zero mode raises."""
    gam, eta, resonant = gamma_eta_grid(n1, n2, cfg)
    sig, singular = _sigma(gam, eta, cfg)
    s0 = mode_scalars(ZERO, cfg)
    sig0 = sigma_n(ZERO, cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(cfg.rho**2) * sig0 * sig / (
            16 * tau_of(cfg) * s0.gamma * s0.eta * gam * eta)
    return s, resonant | singular


def scaling_factor(n: Mode, cfg: PhysicalConfig) -> complex:
    """s_n with s_n * first_order_top(n, g_n) = g_n exactly."""
    sigma_n(n, cfg)  # raises on a resonant or near-singular mode
    s, _ = _scaling(n[0], n[1], cfg)
    return complex(s)


# --- scaling-factor sweeps --------------------------------------------------

SWEEP_COLUMNS = ["n1", "n2", "abs_alpha", "re_s", "im_s", "abs_s",
                 "log10_abs_s", "resonant"]


def scaling_sweep(cfg: PhysicalConfig, N_max: int) -> list[tuple]:
    """|s_n| over the mode window: one SWEEP_COLUMNS row per mode, n1 major.

    Resonant modes are kept, with NaN values and flag 1, so sweeps never
    silently drop part of the window.
    """
    n1g, n2g = mode_grid(N_max)
    s, bad = _scaling(n1g, n2g, cfg)
    s = np.where(bad, complex(np.nan, np.nan), s)
    ax, ay, _ = alpha_grid(n1g, n2g, cfg)
    abs_s = np.abs(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.where(np.isfinite(s) & (s != 0), np.log10(abs_s), np.nan)
    cols = [n1g, n2g, np.hypot(ax, ay), s.real, s.imag, abs_s, log_s,
            bad.astype(int)]
    return list(zip(*(c.ravel().tolist() for c in cols)))


@functools.lru_cache(maxsize=16)
def scaling_factor_grid(cfg: PhysicalConfig, W: int):
    """s_n over the centered window, plus an unusable-mode mask.

    Used by the reconstruction, where a per-mode Python loop over the full
    measurement window would dominate the runtime.  The grid depends on
    the operating point alone, so it is built once per (cfg, W) and
    shared: both arrays are read-only, and unusable entries hold 0.
    """
    s_vals, bad = _scaling(*mode_grid(W), cfg)
    s_vals = np.where(bad, 0j, s_vals)
    s_vals.flags.writeable = False
    bad.flags.writeable = False
    return s_vals, bad

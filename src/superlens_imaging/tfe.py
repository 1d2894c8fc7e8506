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
import math
from dataclasses import dataclass

import numpy as np

from .core import (Mode, PhysicalConfig, alpha_grid, cancelling_sum,
                   gamma_eta_grid, mode_grid, mode_scalars, slab_terms, tau_of)
from .errors import NearSingularSystem

ZERO: Mode = (0, 0)


#: natural log of the modulus at which a scaling factor, or a factor it is
#: formed from, counts as out of float range: a little below the largest
#: float, so that the rounding of a sum of logs lets no overflow through
LOG_S_MAX = math.log(1e308)


def _log_abs(x):
    """log |x|, floored at log 1e-300 so that an exact zero stays finite."""
    return np.log(np.maximum(np.abs(x), 1e-300))


def _sigma(gam, eta, cfg: PhysicalConfig):
    """The layer determinant over arrays of (gamma_n, eta_n), the mask of
    entries whose two terms cancel (core.cancelling_sum), and log |sigma_n|.

    The terms are summed from bounded factors and multiplied once, at the
    end, by e^{-i(gamma_n a + eta_n h)}, the growth of an evanescent mode:
    only where that factor and sigma_n stay below e^{LOG_S_MAX}, which the
    logarithms decide first.  Elsewhere sigma_n is NaN.
    """
    phi, psi, _, q = slab_terms(gam, eta, cfg)
    total, singular = cancelling_sum(
        phi**2 - q * psi**2, np.exp(2j * gam * cfg.a) * (q - 1) * phi * psi)
    grow = np.imag(gam) * cfg.a + np.imag(eta) * cfg.h
    log_abs = grow + _log_abs(total)
    exponent = np.where(np.maximum(grow, log_abs) < LOG_S_MAX,
                        -1j * (gam * cfg.a + eta * cfg.h), np.nan)
    return total * np.exp(exponent), singular, log_abs


def sigma_n(n: Mode, cfg: PhysicalConfig) -> complex:
    """Determinant of the 4x4 layer system at one mode (NaN where its
    modulus leaves float range, see _sigma)."""
    s = mode_scalars(n, cfg)
    sig, singular, _ = _sigma(s.gamma, s.eta, cfg)
    if singular:
        raise NearSingularSystem(f"layer determinant cancels at mode {n}")
    return complex(sig)


@dataclass(frozen=True)
class ZerothOrder:
    """Flat-surface field: A e^{i eta z} + B e^{-i eta z} inside the slab,
    C (e^{i gamma z} - e^{-i gamma z}) below it, which vanishes at z = 0."""
    A: complex
    B: complex
    C: complex


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
    return ZerothOrder(A=A, B=B, C=C)


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
    """s_n over index arrays, plus the mask of unusable modes, whose entries
    are NaN: resonant or near-singular modes, and modes where |s_n| or a
    factor it is formed from would reach e^{LOG_S_MAX}, a thick slab's or
    a wide window's evanescent modes (every mode, when the zero mode's
    normalization does).  That range is decided from logarithms before any
    value is formed.  The zero mode normalizes every entry, so a resonant
    or singular zero mode raises."""
    gam, eta, resonant = gamma_eta_grid(n1, n2, cfg)
    sig, singular, log_sig = _sigma(gam, eta, cfg)
    s0 = mode_scalars(ZERO, cfg)
    sig0 = sigma_n(ZERO, cfg)
    tau = tau_of(cfg)
    # s_n = c0 sigma_n / (gamma_n eta_n) with the zero mode's normalization
    # c0 = -rho^2 sigma_0 / (16 tau gamma_0 eta_0)
    log_c0 = (2 * math.log(abs(cfg.rho)) + math.log(abs(sig0))
              - math.log(abs(16 * tau * s0.gamma * s0.eta)))
    log_ratio = log_sig - _log_abs(gam * eta)
    ok = (~(resonant | singular) & ~np.isnan(sig) & (log_c0 < LOG_S_MAX)
          & (log_ratio < LOG_S_MAX) & (log_c0 + log_ratio < LOG_S_MAX))
    c0 = (-(cfg.rho / s0.eta) * (cfg.rho * sig0) / (16 * tau * s0.gamma)
          if log_c0 < LOG_S_MAX else 0j)
    ratio = np.divide(sig, gam * eta, where=ok,
                      out=np.full(np.shape(sig), complex(np.nan, np.nan)))
    return c0 * ratio, ~ok


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

    Unusable modes (resonant, near-singular, or with s_n out of float
    range, see _scaling) keep their indices and abs_alpha, with NaN values
    and flag 1, so sweeps never silently drop part of the window.
    """
    n1g, n2g = mode_grid(N_max)
    s, bad = _scaling(n1g, n2g, cfg)
    ax, ay, _ = alpha_grid(n1g, n2g, cfg)
    abs_s = np.abs(s)
    log_s = np.log10(abs_s, where=abs_s > 0, out=np.full(abs_s.shape, np.nan))
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

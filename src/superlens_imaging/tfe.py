"""Flattened-boundary perturbation solution of the layered scattering problem.

Writing the total field as a power series in the surface amplitude eps,
the zeroth-order term solves a flat three-layer transmission problem and
the first-order term a forced variant of it.  Mode by mode, both come out
of the one elimination of the slab, core.slab_terms, which also builds
forward's impedance: the layer determinant sigma_n, the scaling factors
and the flat top value are closed forms in its bounded terms.  The
independent routes that cross-check them (the Cramer solution of the 4x4
layer system and its determinant, an ODE quadrature, residual
substitution) live with the tests, in tests/oracles.py.

The payoff is the per-mode scaling factor s_n: the top-of-slab first-order
coefficient u1_n(b) that the surface coefficient g_n drives satisfies
s_n * u1_n(b) = g_n exactly, which is what makes the linearized inversion
a single diagonal solve.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (Mode, PhysicalConfig, _vanishes, alpha_grid,
                   cancelling_sum, gamma_eta_grid, mode_grid, slab_terms,
                   tau_of)
from .errors import NearSingularSystem, ResonantMode

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

    sigma_n = T_n e^{-i(gamma_n a + eta_n h)}, where T_n = gamma_n (1 + E)
    D_n + (eta_n/rho)(1 - E) N_n with E = e^{2i gamma_n a} and the slab
    terms D_n, N_n of core.slab_terms.  |T_n| grows like w^2, w = |gamma_n|
    + |eta_n/rho|, past the float range for extreme media, so the terms
    are summed over w^2, from bounded factors, and log |sigma_n| comes from
    that sum.  Only where e^{-i(gamma_n a + eta_n h)}, the growth of an
    evanescent mode, and sigma_n stay below e^{LOG_S_MAX}, which the
    logarithms decide first, is the sum scaled back by w^2 and multiplied
    by that factor, once, at the end; |T_n| <= |sigma_n|, as Im gamma_n and
    Im eta_n >= 0, keeps T_n in range there too.  Elsewhere sigma_n is NaN.
    """
    D, N, *_ = slab_terms(gam, eta, cfg)
    E = np.exp(2j * gam * cfg.a)
    u = eta / cfg.rho
    w = np.maximum(np.abs(gam) + np.abs(u), 1e-300)
    total, singular = cancelling_sum(gam / w * (1 + E) * (D / w),
                                     u / w * (1 - E) * (N / w))
    grow = np.imag(gam) * cfg.a + np.imag(eta) * cfg.h
    log_abs = grow + 2 * np.log(w) + _log_abs(total)
    fits = np.maximum(grow, log_abs) < LOG_S_MAX
    w = np.where(fits, w, np.nan)
    exponent = np.where(fits, -1j * (gam * cfg.a + eta * cfg.h), np.nan)
    return total * w * w * np.exp(exponent), singular, log_abs


def _mode(n: Mode, cfg: PhysicalConfig):
    """(gamma_n, eta_n, sigma_n) at one mode; raises ResonantMode where
    gamma_n or eta_n vanishes and NearSingularSystem where the terms of
    sigma_n cancel."""
    gam, eta, _ = gamma_eta_grid(n[0], n[1], cfg)
    for name, root in (("gamma", gam), ("eta", eta)):
        if _vanishes(root, cfg):
            raise ResonantMode(f"{name} vanishes at mode {n}")
    sig, singular, _ = _sigma(gam, eta, cfg)
    if singular:
        raise NearSingularSystem(f"layer determinant cancels at mode {n}")
    return complex(gam), complex(eta), complex(sig)


@functools.lru_cache(maxsize=16)
def u0_top(cfg: PhysicalConfig) -> complex:
    """Zero-mode field value on the measurement plane z = b.

    All other modes carry no flat-surface contribution there.  Below the
    slab the flat field is a multiple of sin(omega z); matching it at z = a
    to the slab's impedance and top transfer (forward._impedance) gives,
    with s = sin(omega a), c = cos(omega a) and the zero mode's slab terms,

        u_0(b) = i tau [i eta s (1 + q) - rho omega c (1 - q)]
                 / (i eta s N - rho omega c D),

    bounded however thick the slab.  The denominator is -rho T_0
    e^{-i omega a} / 2 (see _sigma), so a resonant or singular zero mode
    raises.  For the lossless matched slab with a = h this value vanishes
    identically: the slab images the bottom Dirichlet plane onto the top
    boundary.  The value depends on the operating point alone, so, like
    scaling_factor_grid, it is computed once per config.
    """
    gam, eta, _ = _mode(ZERO, cfg)
    D, N, _, q, _ = slab_terms(gam, eta, cfg)
    ies = 1j * eta * math.sin(cfg.omega * cfg.a)
    roc = cfg.rho * cfg.omega * math.cos(cfg.omega * cfg.a)
    return complex(1j * tau_of(cfg) * (ies * (1 + q) - roc * (1 - q))
                   / (ies * N - roc * D))


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
    gam0, eta0, sig0 = _mode(ZERO, cfg)
    tau = tau_of(cfg)
    # s_n = c0 sigma_n / (gamma_n eta_n) with the zero mode's normalization
    # c0 = -rho^2 sigma_0 / (16 tau gamma_0 eta_0); a sigma_0 out of float
    # range is NaN, and so is log_c0, which then fails every test below
    log_c0 = (2 * math.log(abs(cfg.rho)) + math.log(abs(sig0))
              - math.log(abs(16 * tau * gam0 * eta0)))
    log_ratio = log_sig - _log_abs(gam * eta)
    ok = (~(resonant | singular) & ~np.isnan(sig) & (log_c0 < LOG_S_MAX)
          & (log_ratio < LOG_S_MAX) & (log_c0 + log_ratio < LOG_S_MAX))
    c0 = (-(cfg.rho / eta0) * (cfg.rho * sig0) / (16 * tau * gam0)
          if log_c0 < LOG_S_MAX else 0j)
    ratio = np.divide(sig, gam * eta, where=ok,
                      out=np.full(np.shape(sig), complex(np.nan, np.nan)))
    return c0 * ratio, ~ok


def scaling_factor(n: Mode, cfg: PhysicalConfig) -> complex:
    """s_n at one mode: s_n * u1_n(b) = g_n for the first-order top
    coefficient u1_n(b) that the surface coefficient g_n drives.  Raises
    on a resonant or near-singular mode."""
    _mode(n, cfg)
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

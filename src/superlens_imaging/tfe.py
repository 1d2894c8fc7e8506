"""Flattened-boundary perturbation solution of the layered scattering problem.

Writing the total field as a power series in the surface amplitude eps,
the zeroth-order term solves a flat three-layer transmission problem and
the first-order term a forced variant of it.  Both reduce, mode by mode,
to 4x4 linear systems with the same matrix; everything here is closed
form except the quadrature oracle used to cross-check the algebra.

The payoff is the per-mode scaling factor s_n: the top-of-slab first-order
coefficient satisfies  s_n * u1_top(n, g_n) = g_n  exactly, which is what
makes the linearized inversion a single diagonal solve.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .core import (Mode, PhysicalConfig, alpha_grid, gamma_eta_grid,
                   mode_grid, mode_scalars, tau_of)
from .errors import NearSingularSystem

ZERO: Mode = (0, 0)

#: relative cancellation level at which the layer determinant is rejected
SINGULAR_RTOL = 1e-12


def transfer_matrix(n: Mode, cfg: PhysicalConfig) -> np.ndarray:
    """4x4 system matrix coupling (A, B, C, D) through the top Robin
    condition, the two interface conditions at z = a, and the bottom
    Dirichlet condition."""
    s = mode_scalars(n, cfg)
    a, b = cfg.a, cfg.b
    e, g = s.eta, s.gamma
    r = cfg.rho
    return np.array([
        [1j * s.psi * cmath.exp(1j * e * b), -1j * s.phi * cmath.exp(-1j * e * b), 0, 0],
        [cmath.exp(1j * e * a), cmath.exp(-1j * e * a),
         -cmath.exp(1j * g * a), -cmath.exp(-1j * g * a)],
        [(1j / r) * e * cmath.exp(1j * e * a), -(1j / r) * e * cmath.exp(-1j * e * a),
         -1j * g * cmath.exp(1j * g * a), 1j * g * cmath.exp(-1j * g * a)],
        [0, 0, 1, 1],
    ], dtype=complex)


def _sigma(gam, eta, cfg: PhysicalConfig):
    """The layer determinant over arrays of (gamma_n, eta_n), in the
    cancellation-aware two-term closed form, plus the mask of entries
    whose two terms cancel below SINGULAR_RTOL."""
    phi = eta / cfg.rho + gam
    psi = eta / cfg.rho - gam
    ep, em = np.exp(1j * eta * cfg.h), np.exp(-1j * eta * cfg.h)
    t1 = np.exp(-1j * gam * cfg.a) * (em * phi**2 - ep * psi**2)
    t2 = np.exp(1j * gam * cfg.a) * (ep - em) * phi * psi
    sig = t1 + t2
    scale = np.maximum(np.abs(t1) + np.abs(t2), 1e-300)
    return sig, np.abs(sig) < SINGULAR_RTOL * scale


def sigma_n(n: Mode, cfg: PhysicalConfig) -> complex:
    """Determinant of the transfer matrix at one mode."""
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

    def eval_dz(self, z, side: str = "auto"):
        """d/dz of the field; ``side`` breaks the tie exactly at z = a."""
        z = np.asarray(z, dtype=float)
        s0 = mode_scalars(ZERO, self.cfg)
        below = 1j * s0.gamma * (
            self.C * np.exp(1j * s0.gamma * z) - self.D * np.exp(-1j * s0.gamma * z))
        slab = 1j * s0.eta * (
            self.A * np.exp(1j * s0.eta * z) - self.B * np.exp(-1j * s0.eta * z))
        if side == "below":
            return below
        if side == "slab":
            return slab
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


def u0_top(cfg: PhysicalConfig) -> complex:
    """Zero-mode field value on the measurement plane z = b.

    All other modes carry no flat-surface contribution there.  For the
    lossless matched slab with a = h this value vanishes identically: the
    slab images the bottom Dirichlet plane onto the top boundary.
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


# --- independent verification route ---------------------------------------

def first_order_ode_oracle(n: Mode, g_n: complex, cfg: PhysicalConfig,
                           z_steps: int = 1024) -> complex:
    """Numerical solve of the first-order two-region boundary problem.

    Deliberately avoids the closed-form route: the interior forcing is
    integrated by composite-Simpson variation of parameters, and the four
    boundary/interface constants come from a dense 4x4 solve.  Used to
    validate the closed forms; accuracy degrades for strongly evanescent
    modes where sinh-scale cancellation amplifies quadrature error, so
    verification draws keep |gamma_n| * a moderate.
    """
    if z_steps < 64:
        raise ValueError("z_steps >= 64 required")
    if z_steps % 2:
        z_steps += 1  # Simpson needs an even interval count
    s = mode_scalars(n, cfg)
    s0 = mode_scalars(ZERO, cfg)
    a = cfg.a
    z0 = solve_zeroth(cfg)
    gam, gam0 = s.gamma, s0.gamma

    # interior forcing v(z) produced by the surface perturbation acting on
    # the flat-surface field below the slab
    z = np.linspace(0.0, a, z_steps + 1)
    v = (2j / a) * z0.C * gam0 * (
        2 * gam0 * np.sin(gam0 * z) - s.alpha_sq * (a - z) * np.cos(gam0 * z)) * g_n

    # particular solution w(z) = gamma^{-1} int_0^z sin(gamma (z - t)) v(t) dt
    # with w(0) = w'(0) = 0; only its interface trace enters the solve
    wgt = np.ones(z_steps + 1)
    wgt[1:-1:2], wgt[2:-1:2] = 4.0, 2.0
    wgt *= (a / z_steps) / 3.0
    w_a = np.sum(wgt * np.sin(gam * (a - z)) * v) / gam
    dw_a = np.sum(wgt * np.cos(gam * (a - z)) * v)

    # homogeneous corrections fixed by the four conditions; note the
    # interface jump is driven by the *zero-mode* slab-side derivative
    du0_plus = complex(z0.eval_dz(a, side="slab"))
    M = transfer_matrix(n, cfg)
    rhs = np.array([
        0.0,
        w_a,
        dw_a + du0_plus * g_n / (cfg.rho * a),
        0.0,
    ], dtype=complex)
    A, B, _, _ = np.linalg.solve(M, rhs)
    # w only lives below the slab; the top value is the slab branch alone
    return A * cmath.exp(1j * s.eta * cfg.b) + B * cmath.exp(-1j * s.eta * cfg.b)


# --- scaling-factor sweeps --------------------------------------------------

def scaling_sweep(cfg: PhysicalConfig, N_max: int):
    """|s_n| over the mode window, as a list of row dicts.

    Resonant modes are kept in the output with a flag so sweeps never
    silently drop part of the window.
    """
    n1g, n2g = mode_grid(N_max)
    s_vals, bad = _scaling(n1g, n2g, cfg)
    s_vals = np.where(bad, np.nan + 0j, s_vals)
    ax, ay, _ = alpha_grid(n1g, n2g, cfg)
    abs_alpha = np.hypot(ax, ay)
    rows = []
    for i1 in range(n1g.shape[0]):
        for i2 in range(n1g.shape[1]):
            sv = s_vals[i1, i2]
            rows.append({
                "n1": int(n1g[i1, i2]),
                "n2": int(n2g[i1, i2]),
                "abs_alpha": float(abs_alpha[i1, i2]),
                "re_s": float(np.real(sv)),
                "im_s": float(np.imag(sv)),
                "abs_s": float(np.abs(sv)),
                "log10_abs_s": float(np.log10(np.abs(sv))) if np.isfinite(sv) and sv != 0 else float("nan"),
                "resonant": int(bool(bad[i1, i2])),
            })
    return rows


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


# --- residual diagnostics ---------------------------------------------------

def zeroth_residuals(cfg: PhysicalConfig) -> dict[str, float]:
    """Substitute the flat-surface closed form back into its defining
    conditions and report each absolute residual.

    The two Helmholtz residuals are identically zero for pure exponentials,
    but are still evaluated (at interior points) to catch branch mistakes.
    """
    z0 = solve_zeroth(cfg)
    s0 = mode_scalars(ZERO, cfg)
    tau = tau_of(cfg)
    a, b = cfg.a, cfg.b
    g, e = s0.gamma, s0.eta

    u_b = z0.A * cmath.exp(1j * e * b) + z0.B * cmath.exp(-1j * e * b)
    du_b = 1j * e * (z0.A * cmath.exp(1j * e * b) - z0.B * cmath.exp(-1j * e * b))
    robin = abs(du_b / cfg.rho - (1j * g * u_b + tau))

    u_a_slab = z0.A * cmath.exp(1j * e * a) + z0.B * cmath.exp(-1j * e * a)
    u_a_below = complex(z0.eval(a * (1 - 1e-16)))
    continuity = abs(u_a_slab - u_a_below)

    du_a_slab = complex(z0.eval_dz(a, side="slab"))
    du_a_below = complex(z0.eval_dz(a, side="below"))
    flux = abs(du_a_slab / cfg.rho - du_a_below)

    dirichlet = abs(z0.C + z0.D)

    # Helmholtz residuals at midpoints: curvature taken analytically from
    # the stored coefficients, value from eval() — zero only when the two
    # code paths agree on the branch representation
    zm_b, zm_s = 0.5 * a, 0.5 * (a + b)
    d2_below = -g * g * (z0.C * cmath.exp(1j * g * zm_b) +
                         z0.D * cmath.exp(-1j * g * zm_b))
    helm_below = abs(d2_below + g * g * complex(z0.eval(zm_b)))
    d2_slab = -e * e * (z0.A * cmath.exp(1j * e * zm_s) +
                        z0.B * cmath.exp(-1j * e * zm_s))
    helm_slab = abs(d2_slab + e * e * complex(z0.eval(zm_s)))

    return {
        "robin_top": robin,
        "continuity": continuity,
        "flux_jump": flux,
        "dirichlet": dirichlet,
        "helmholtz_below": helm_below,
        "helmholtz_slab": helm_slab,
    }

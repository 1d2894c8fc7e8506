"""Independent reference implementations the tests check the package against.

Each one reaches its answer by a different route from the closed forms in
``superlens_imaging``: the 4x4 transfer matrix whose determinant sigma_n
must equal, an ODE quadrature of the first-order problem, substitution of
the flat-surface field back into its defining conditions, the analytic
spectrum of profile 1, and inverse-crime linear data.  They live beside
the tests, not in the package, so that the code under test does not ship
its own checks.
"""

from __future__ import annotations

import cmath

import numpy as np

from superlens_imaging.core import Mode, PhysicalConfig, mode_scalars, tau_of
from superlens_imaging.profiles import SurfaceProfile, profile_spectrum
from superlens_imaging.spectral import SpectrumField
from superlens_imaging.tfe import (ZERO, ZerothOrder, first_order_top,
                                   solve_zeroth, u0_top)


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


def eval_dz(z0: ZerothOrder, z, side: str = "auto"):
    """d/dz of the flat-surface field; ``side`` breaks the tie exactly at
    z = a."""
    z = np.asarray(z, dtype=float)
    s0 = mode_scalars(ZERO, z0.cfg)
    below = 1j * s0.gamma * (
        z0.C * np.exp(1j * s0.gamma * z) - z0.D * np.exp(-1j * s0.gamma * z))
    slab = 1j * s0.eta * (
        z0.A * np.exp(1j * s0.eta * z) - z0.B * np.exp(-1j * s0.eta * z))
    if side == "below":
        return below
    if side == "slab":
        return slab
    return np.where(z < z0.cfg.a, below, slab)


def first_order_ode_oracle(n: Mode, g_n: complex, cfg: PhysicalConfig,
                           z_steps: int = 1024) -> complex:
    """Numerical solve of the first-order two-region boundary problem.

    Deliberately avoids the closed-form route: the interior forcing is
    integrated by composite-Simpson variation of parameters, and the four
    boundary/interface constants come from a 4x4 linear solve.  Used to
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
    du0_plus = complex(eval_dz(z0, a, side="slab"))
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

    du_a_slab = complex(eval_dz(z0, a, side="slab"))
    du_a_below = complex(eval_dz(z0, a, side="below"))
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


def trig_profile_spectrum() -> SpectrumField:
    """Analytic coefficients of profile 1 (window N=3).

    From sin = (e^{i.} - e^{-i.})/2i and cos = (e^{i.} + e^{-i.})/2:
    p_0 = 1/8, p_1 = p_3 = -i/8, p_2 = 1/8, p_{-k} = conj(p_k); the
    separable sum g = p(x) + p(y) has no cross modes.
    """
    c = np.zeros((7, 7), dtype=complex)
    pk = {0: 0.125, 1: -0.125j, 2: 0.125, 3: -0.125j}
    for k, v in pk.items():
        for s in ({1, -1} if k else {1}):
            c[3 + s * k, 3] += v if s == 1 else np.conj(v)
            c[3, 3 + s * k] += v if s == 1 else np.conj(v)
    return SpectrumField(c, 3, 3)


def synthesize_linear_data(profile: SurfaceProfile, cfg: PhysicalConfig,
                           N_max: int = 12, quad_I: int = 99) -> SpectrumField:
    """Top-plane coefficients with the second-order remainder dropped:
    u_n(b) = u0(b) [n=0] + eps * u1_n(b).

    Inverse-crime data for round-trip tests — the linearized reconstruction
    inverts it exactly; real data come from solve_forward.
    """
    g_spec = profile_spectrum(profile, N_max, quad_I=quad_I)
    vals = np.zeros_like(g_spec.values)
    W = g_spec.W1
    for i1 in range(vals.shape[0]):
        for i2 in range(vals.shape[1]):
            n = (i1 - W, i2 - W)
            vals[i1, i2] = cfg.epsilon * first_order_top(n, g_spec.values[i1, i2], cfg)
    vals[W, W] += u0_top(cfg)
    return SpectrumField(vals, W, W)

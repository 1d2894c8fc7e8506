import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (eval_dz, first_order_ode_oracle, transfer_matrix,
                     trig_profile_spectrum, zeroth_residuals)
from superlens_imaging.core import PhysicalConfig, mode_scalars
from superlens_imaging.errors import NearSingularSystem, ResonantMode
from superlens_imaging.tfe import (first_order_top, scaling_factor,
                                   scaling_factor_grid, scaling_sweep,
                                   sigma_n, solve_zeroth, u0_top)

OMEGA = 2 * math.pi / 1.1

# media stay away from both the resonance circle and lossless slab
# resonances: moderate magnitudes, nonnegative loss
media = st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.0, 0.3)).filter(
    lambda z: abs(z) > 0.3)


@st.composite
def slab_configs(draw):
    omega = draw(st.floats(2.0, 9.0))
    lam1 = draw(st.floats(0.8, 1.3))
    lam2 = draw(st.floats(0.8, 1.3))
    a = draw(st.floats(0.05, 0.3))
    h = draw(st.floats(0.05, 0.4))
    return PhysicalConfig(omega=omega, period1=lam1, period2=lam2,
                          a=a, b=a + h, rho=draw(media), kappa=draw(media))


modes = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(slab_configs(), modes)
def test_transfer_matrix_determinant_identity(cfg, n):
    try:
        M = transfer_matrix(n, cfg)
        sig = sigma_n(n, cfg)
    except (ResonantMode, NearSingularSystem):
        return
    det = complex(np.linalg.det(M))
    assert abs(det - sig) <= 1e-10 * abs(sig)


@settings(max_examples=40, deadline=None)
@given(slab_configs())
def test_zeroth_order_residuals(cfg):
    try:
        res = zeroth_residuals(cfg)
    except (ResonantMode, NearSingularSystem):
        return
    assert set(res) == {"robin_top", "continuity", "flux_jump", "dirichlet",
                        "helmholtz_below", "helmholtz_slab"}
    worst = max(res.values())
    assert worst < 1e-10, res


def test_u0_top_vacuum_value():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=1 + 0j, kappa=1 + 0j)
    assert u0_top(cfg) == pytest.approx(-1.8192639907090367j, abs=1e-14)


def test_u0_top_lossy_slab_value():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2,
                         rho=-1 + 0.01j, kappa=-1 + 0.01j)
    assert u0_top(cfg) == pytest.approx(
        0.003737751475816009 - 0.008247955779392746j, abs=1e-14)


def test_u0_top_ideal_lens_vanishes():
    # a = h: the slab images the sound-soft plane onto the top boundary
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=-1 + 0j, kappa=-1 + 0j)
    assert abs(u0_top(cfg)) < 1e-13


def test_vacuum_zeroth_field_is_standing_wave():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=1 + 0j, kappa=1 + 0j)
    z0 = solve_zeroth(cfg)
    z = np.linspace(0.0, cfg.b, 57)
    assert np.max(np.abs(z0.eval(z) + 2j * np.sin(cfg.omega * z))) < 1e-12


def test_eval_dz_side_selection():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2,
                         rho=-1 + 0.01j, kappa=-1 + 0.01j)
    z0 = solve_zeroth(cfg)
    below = complex(eval_dz(z0, cfg.a, side="below"))
    slab = complex(eval_dz(z0, cfg.a, side="slab"))
    # flux continuity: (1/rho) d_z u(a+) = d_z u(a-) for the flat surface
    assert slab / cfg.rho == pytest.approx(below, rel=1e-12)
    assert below != pytest.approx(slab)  # the jump itself is nontrivial


@settings(max_examples=40, deadline=None)
@given(slab_configs(), modes,
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=10,
                          allow_nan=False, allow_infinity=False))
def test_pivotal_identity(cfg, n, g_n):
    try:
        u1 = first_order_top(n, g_n, cfg)
        s = scaling_factor(n, cfg)
    except (ResonantMode, NearSingularSystem):
        return
    assert s * u1 == pytest.approx(g_n, rel=1e-12)


@given(modes)
def test_first_order_linear_in_g(n):
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2,
                         rho=-1 + 0.01j, kappa=-1 + 0.01j)
    g = 0.3 - 0.7j
    assert first_order_top(n, 2 * g, cfg) == pytest.approx(
        2 * first_order_top(n, g, cfg), rel=1e-13)
    assert first_order_top(n, 0j, cfg) == 0j


def test_ode_oracle_agrees_with_closed_form(phys_table1):
    g = 0.4 + 0.2j
    for n in [(0, 0), (1, 0), (2, -1), (0, 3), (-2, -2)]:
        closed = first_order_top(n, g, phys_table1)
        oracle = first_order_ode_oracle(n, g, phys_table1, z_steps=1024)
        assert abs(oracle - closed) <= 1e-7 * abs(closed)


def test_ode_oracle_converges_with_steps(phys_table1):
    g = 1.0 + 0j
    n = (1, 1)
    closed = first_order_top(n, g, phys_table1)
    errs = [abs(first_order_ode_oracle(n, g, phys_table1, z_steps=m) - closed)
            for m in (64, 128, 256)]
    assert errs[0] > errs[1] > errs[2]
    # Simpson quadrature: roughly 16x per halving
    assert errs[0] / errs[2] > 60


def test_scaling_factor_vacuum_formula():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=1 + 0j, kappa=1 + 0j)
    for n in [(0, 0), (1, 0), (2, 2), (-3, 1), (12, -12)]:
        want = cmath.exp(-1j * mode_scalars(n, cfg).gamma * cfg.b) / (2j * cfg.omega)
        assert scaling_factor(n, cfg) == pytest.approx(want, rel=1e-12)


def test_scaling_factor_lossless_lens_formula():
    cfg = PhysicalConfig(omega=OMEGA, a=0.15, b=0.25, rho=-1 + 0j,
                         kappa=-1 + 0j)
    for n in [(0, 0), (1, 0), (3, -2), (8, 8)]:
        g = mode_scalars(n, cfg).gamma
        want = (cmath.exp(2j * cfg.omega * cfg.h) / (2j * cfg.omega)
                * cmath.exp(-1j * g * (cfg.a - cfg.h)))
        assert scaling_factor(n, cfg) == pytest.approx(want, rel=1e-12)


def test_scaling_factor_ideal_lens_constant_modulus():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=-1 + 0j, kappa=-1 + 0j)
    want = 1 / (2 * cfg.omega)
    for n in [(0, 0), (5, 0), (12, 12), (-7, 3)]:
        assert abs(scaling_factor(n, cfg)) == pytest.approx(want, rel=1e-12)


def test_scaling_factor_frozen_lossy_values(phys_table1):
    # fixed regression anchors along the n2 = 0 ray
    for n1, want in [(1, 0.08793195559974892), (3, 0.08800771959161575),
                     (5, 0.08898790872958923), (8, 0.1357667068473503)]:
        assert abs(scaling_factor((n1, 0), phys_table1)) == pytest.approx(
            want, rel=1e-12)


def test_scaling_factor_resonance_raises():
    cfg = PhysicalConfig(omega=2 * math.pi, a=0.1, b=0.2)
    with pytest.raises(ResonantMode):
        scaling_factor((1, 0), cfg)


def test_lossier_slab_amplifies_high_modes_earlier():
    base = dict(omega=OMEGA, a=0.1, b=0.2)
    lossy = PhysicalConfig(rho=-1 + 0.01j, kappa=-1 + 0.01j, **base)
    lesser = PhysicalConfig(rho=-1 + 0.001j, kappa=-1 + 0.001j, **base)
    for n1 in range(4, 13):
        assert (abs(scaling_factor((n1, 0), lossy))
                > abs(scaling_factor((n1, 0), lesser)))


def test_vacuum_log_sweep_increases_beyond_propagating_disc():
    cfg = PhysicalConfig(omega=OMEGA, a=0.1, b=0.2, rho=1 + 0j, kappa=1 + 0j)
    mags = [abs(scaling_factor((k, 0), cfg)) for k in range(1, 13)]
    assert all(b > a for a, b in zip(mags, mags[1:]))


def test_scaling_sweep_rows_and_resonance_flag():
    cfg = PhysicalConfig(omega=2 * math.pi, a=0.1, b=0.2,
                         rho=-1 + 0.01j, kappa=-1 + 0.01j)
    rows = scaling_sweep(cfg, 2)
    assert len(rows) == 25
    flagged = {(r["n1"], r["n2"]) for r in rows if r["resonant"]}
    assert (1, 0) in flagged and (0, -1) in flagged
    by_mode = {(r["n1"], r["n2"]): r for r in rows}
    assert math.isnan(by_mode[(1, 0)]["abs_s"])
    assert math.isfinite(by_mode[(2, 1)]["log10_abs_s"])


def test_scaling_factor_grid_matches_scalar(phys_table1):
    s_grid, bad = scaling_factor_grid(phys_table1, 4)
    assert not bad.any()
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            assert s_grid[n1 + 4, n2 + 4] == pytest.approx(
                scaling_factor((n1, n2), phys_table1), rel=1e-13)


def test_scaling_factor_grid_is_shared_and_read_only(phys_table1):
    s1, bad1 = scaling_factor_grid(phys_table1, 6)
    s2, bad2 = scaling_factor_grid(phys_table1, 6)
    assert np.array_equal(s1, s2) and np.array_equal(bad1, bad2)
    for arr in (s1, bad1, s2, bad2):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        s1[6, 6] = 0.0
    with pytest.raises(ValueError):
        bad2[0, 0] = True
    # an equal but distinct config maps to the same grid
    s3, _ = scaling_factor_grid(PhysicalConfig(**vars(phys_table1)), 6)
    assert np.array_equal(s3, s1)


def test_first_order_top_against_band_limited_surface(phys_table1):
    # each trig-spectrum mode maps through its own scaling factor; the
    # diagonal map has no cross-talk
    S = trig_profile_spectrum()
    for n in [(1, 0), (2, 2), (-3, 1)]:
        g = S.coeff(n)
        if g == 0:
            continue
        u1 = first_order_top(n, g, phys_table1)
        assert scaling_factor(n, phys_table1) * u1 == pytest.approx(
            g, rel=1e-12)

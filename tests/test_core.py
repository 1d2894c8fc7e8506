import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mode_scalars
from superlens_imaging.core import (PhysicalConfig, alpha_grid,
                                    branch_sqrt_arr, gamma_eta_grid,
                                    mode_grid, tau_of)
from superlens_imaging.errors import ResonantMode
from superlens_imaging.tfe import scaling_factor

finite_complex = st.complex_numbers(min_magnitude=1e-8, max_magnitude=1e8,
                                    allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    omega = draw(st.floats(0.5, 20.0))
    a = draw(st.floats(0.02, 0.5))
    h = draw(st.floats(0.02, 0.5))
    rho = draw(finite_complex.filter(lambda z: abs(z) > 1e-3))
    kappa = draw(finite_complex.filter(lambda z: abs(z) > 1e-3))
    return PhysicalConfig(omega=omega, a=a, b=a + h, rho=rho, kappa=kappa)


@given(finite_complex)
def test_branch_sqrt_squares_back(w):
    s = complex(branch_sqrt_arr(w))
    assert abs(s * s - w) <= 1e-9 * abs(w)


@given(finite_complex)
def test_branch_sqrt_upper_half_plane(w):
    s = complex(branch_sqrt_arr(w))
    assert s.imag >= 0.0


def test_branch_sqrt_negative_real_axis():
    # the branch that makes evanescent modes decay upward
    assert branch_sqrt_arr(-4.0) == pytest.approx(2j)
    assert branch_sqrt_arr(4.0) == pytest.approx(2.0)
    assert branch_sqrt_arr(0.0) == 0.0


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_branch_sqrt_arr_matches_scalar(n1, n2):
    w = np.array([complex(n1, n2), 4.0 + 0j, -9.0 + 0j])
    out = branch_sqrt_arr(w)
    for wi, oi in zip(w, out):
        assert oi == branch_sqrt_arr(complex(wi))


def test_alpha_of_scales_with_period():
    cfg = PhysicalConfig(omega=5.0, period1=2.0, period2=0.5)
    a1, a2, _ = alpha_grid(3, -1, cfg)
    assert a1 == pytest.approx(3 * math.pi)
    assert a2 == pytest.approx(-4 * math.pi)


def test_gamma_propagating_vs_evanescent():
    cfg = PhysicalConfig(omega=2 * math.pi / 1.1)
    g0 = complex(gamma_eta_grid(0, 0, cfg)[0])
    assert g0.imag == 0 and g0.real == pytest.approx(cfg.omega)
    # the very first lateral mode is already evanescent at lambda = 1.1
    g1 = complex(gamma_eta_grid(1, 0, cfg)[0])
    assert g1.real == 0 and g1.imag > 0
    assert g1.imag == pytest.approx(math.sqrt(4 * math.pi**2 - cfg.omega**2))


def test_resonant_mode_raises():
    cfg = PhysicalConfig(omega=2 * math.pi)  # |alpha_(1,0)| == omega exactly
    with pytest.raises(ResonantMode, match=r"gamma vanishes at mode \(1, 0\)"):
        scaling_factor((1, 0), cfg)
    # a contrast rho/kappa = 4 at omega = pi puts eta alone on that circle
    slab = PhysicalConfig(omega=math.pi, rho=4.0 + 0j, kappa=1.0 + 0j)
    with pytest.raises(ResonantMode, match=r"eta vanishes at mode \(1, 0\)"):
        scaling_factor((1, 0), slab)


def test_eta_uses_medium_contrast():
    cfg = PhysicalConfig(omega=3.0, rho=2.0 + 0j, kappa=0.5 + 0j)
    e = complex(gamma_eta_grid(0, 0, cfg)[1])
    assert e == pytest.approx(cmath.sqrt((2.0 / 0.5) * 9.0))


@settings(max_examples=50)
@given(configs(), st.integers(-5, 5), st.integers(-5, 5))
def test_phi_psi_relations(cfg, n1, n2):
    try:
        s = mode_scalars((n1, n2), cfg)
    except ResonantMode:
        return
    assert s.phi - s.psi == pytest.approx(2 * s.gamma, rel=1e-12, abs=1e-12)
    assert s.phi + s.psi == pytest.approx(2 * s.eta / cfg.rho,
                                          rel=1e-12, abs=1e-12)
    alpha_sq = alpha_grid(n1, n2, cfg)[2]
    assert (s.gamma**2 + alpha_sq) == pytest.approx(cfg.omega**2, rel=1e-9)


def test_tau_modulus_and_phase():
    cfg = PhysicalConfig(omega=5.0, b=0.3)
    tau = tau_of(cfg)
    assert abs(tau) == pytest.approx(2 * cfg.omega)
    assert tau == pytest.approx(-2j * cfg.omega * cmath.exp(-1j * cfg.omega * cfg.b))


@given(st.integers(0, 6))
def test_mode_set_window(N):
    n1, n2 = mode_grid(N)
    assert n1.shape == n2.shape == (2 * N + 1, 2 * N + 1)
    modes = set(zip(n1.ravel().tolist(), n2.ravel().tolist()))
    assert len(modes) == (2 * N + 1) ** 2
    assert (0, 0) in modes
    assert all(max(abs(m1), abs(m2)) <= N for m1, m2 in modes)
    # n1 runs along the first axis, n2 along the second
    assert np.array_equal(n1[:, 0], np.arange(-N, N + 1))
    assert np.array_equal(n2[0, :], np.arange(-N, N + 1))


def test_gamma_eta_grid_matches_scalars(phys_table1):
    n1g, n2g = np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij")
    gam, eta, res = gamma_eta_grid(n1g, n2g, phys_table1)
    assert not res.any()
    for i in range(9):
        for j in range(9):
            n = (int(n1g[i, j]), int(n2g[i, j]))
            s = mode_scalars(n, phys_table1)
            assert gam[i, j] == pytest.approx(s.gamma, rel=1e-13)
            assert eta[i, j] == pytest.approx(s.eta, rel=1e-13)


@pytest.mark.parametrize("n1, n2", [(0, 0), (3, -2), (np.array(1), np.array(4)),
                                    (np.int64(-5), 0)])
def test_gamma_eta_grid_scalar_inputs(phys_table1, n1, n2):
    gam, eta, res = gamma_eta_grid(n1, n2, phys_table1)
    assert np.shape(gam) == np.shape(eta) == np.shape(res) == ()
    assert not res
    s = mode_scalars((int(n1), int(n2)), phys_table1)
    assert complex(gam) == s.gamma and complex(eta) == s.eta


def test_gamma_eta_grid_flags_resonance():
    cfg = PhysicalConfig(omega=2 * math.pi)
    n1g, n2g = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
    _, _, res = gamma_eta_grid(n1g, n2g, cfg)
    assert res[2, 1] and res[0, 1]  # (+/-1, 0) sit on the Rayleigh circle
    assert not res[1, 1]


@pytest.mark.parametrize("kwargs", [
    dict(omega=-1.0),
    dict(omega=0.0),
    dict(period1=0.0),
    dict(a=0.0, b=0.2),
    dict(a=0.3, b=0.2),
    dict(epsilon=-1e-3),
    dict(rho=0j),
    dict(kappa=0j),
    dict(epsilon=math.nan),
    dict(rho=complex(math.nan, 0.0)),
    dict(kappa=complex(-1.0, math.inf)),
    dict(omega=math.inf),
    dict(b=math.inf),
    dict(omega=1e200),
    dict(omega=1e-160),
    dict(b=1e308),                 # omega*b overflows
])
def test_config_validation(kwargs):
    base = dict(omega=5.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        PhysicalConfig(**base)


def test_config_h_property():
    cfg = PhysicalConfig(omega=5.0, a=0.1, b=0.35)
    assert cfg.h == pytest.approx(0.25)

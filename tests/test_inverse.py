import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (residual_curve_masked_sums, series_profile,
                     synthesize_linear_data)
from superlens_imaging.core import PhysicalConfig
from superlens_imaging.inverse import (choose_cutoff, error_decomposition,
                                       recon_coefficients, reconstruct,
                                       residual_curve)
from superlens_imaging.measurement import NoiseSpec, add_noise
from superlens_imaging.profiles import (band_limited_profile,
                                        profile_spectrum, trig_profile)
from superlens_imaging.spectral import (SpectrumField, dft2, grid_l2_norm,
                                        synthesize)
from superlens_imaging.tfe import scaling_factor_grid, u0_top

OMEGA = 2 * math.pi / 1.1


def _cfg(**kw):
    base = dict(omega=OMEGA, a=0.1, b=0.2, rho=-1 + 0.01j, kappa=-1 + 0.01j,
                epsilon=1e-3)
    base.update(kw)
    return PhysicalConfig(**base)


def _linear_grid(cfg, I=99):
    """Noiseless samples of the linearized data on an I x I grid."""
    model = synthesize_linear_data(trig_profile(), cfg)
    return synthesize(model, model.W, (I, I))


def test_linear_data_round_trip_is_exact():
    # inverse crime on purpose: reconstruction inverts the linear model
    cfg = _cfg()
    u = _linear_grid(cfg)
    rc = recon_coefficients(dft2(u), cfg)
    truth = cfg.epsilon * trig_profile().sample_grid(99, 99)
    for N in (3, 5, 8):
        f = reconstruct(rc, N, (99, 99))
        assert grid_l2_norm(f - truth) <= 1e-10 * grid_l2_norm(truth)


def test_recon_coefficients_center_subtracts_flat_field():
    cfg = _cfg()
    u = _linear_grid(cfg)
    rc = recon_coefficients(dft2(u), cfg)
    g = profile_spectrum(trig_profile(), 3)
    assert rc.coeff((0, 0)) == pytest.approx(
        cfg.epsilon * g.coeff((0, 0)), rel=1e-10, abs=1e-15)


def test_residual_curve_non_increasing_and_vanishing():
    cfg = _cfg()
    u = _linear_grid(cfg)
    m = add_noise(u, NoiseSpec(sigma=0.005, seed=2))
    curve = residual_curve(dft2(m.u_delta), cfg, N_window=12)
    assert len(curve.values) == 13
    assert all(a >= b - 1e-15 for a, b in zip(curve.values, curve.values[1:]))
    # the tail beyond the data window is empty by construction
    full = residual_curve(dft2(m.u_delta), cfg, N_window=49)
    assert full.values[-1] == 0.0


@pytest.mark.parametrize("I, N_window", [(99, 12), (99, 49), (33, 16),
                                         (32, 15)])
def test_residual_curve_matches_masked_sums(I, N_window):
    cfg = _cfg()
    m = add_noise(_linear_grid(cfg, I=I), NoiseSpec(sigma=0.005, seed=I))
    U = dft2(m.u_delta)
    got = residual_curve(U, cfg, N_window).values
    want = residual_curve_masked_sums(U, cfg, N_window)
    assert len(got) == N_window + 1
    assert np.allclose(got, want, rtol=1e-13, atol=0)
    # tails are exactly 0 from the window edge on
    assert all(v == 0.0 for v in got[U.W:])


@functools.cache
def _clean_grid_33():
    u = _linear_grid(_cfg(), I=33)
    u.flags.writeable = False
    return u


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.001, 0.05))
def test_residual_curve_monotone_property(seed, sigma):
    # the clean grid is the same for every example, so it is made once
    cfg = _cfg()
    m = add_noise(_clean_grid_33(), NoiseSpec(sigma=sigma, seed=seed))
    curve = residual_curve(dft2(m.u_delta), cfg, N_window=10)
    assert all(a >= b - 1e-15 for a, b in zip(curve.values, curve.values[1:]))


def test_choose_cutoff_picks_smallest_qualifying_n():
    cfg = _cfg()
    u = _linear_grid(cfg)
    m = add_noise(u, NoiseSpec(sigma=0.005, seed=7))
    curve = residual_curve(dft2(m.u_delta), cfg, N_window=12)
    noise = grid_l2_norm(m.delta)
    choice = choose_cutoff(curve, noise)
    assert choice.satisfied
    assert choice.residual < choice.threshold == pytest.approx(noise)
    for n, v in enumerate(curve.values):
        if n < choice.N:
            assert v >= choice.threshold


def test_choose_cutoff_threshold_scales_with_c():
    cfg = _cfg()
    u = _linear_grid(cfg)
    m = add_noise(u, NoiseSpec(sigma=0.005, seed=7))
    curve = residual_curve(dft2(m.u_delta), cfg, N_window=12)
    noise = grid_l2_norm(m.delta)
    lo = choose_cutoff(curve, noise, c=0.5)
    hi = choose_cutoff(curve, noise, c=2.0)
    assert hi.N <= lo.N  # looser threshold stops earlier


def test_choose_cutoff_unsatisfied_falls_back_to_window_edge():
    cfg = _cfg()
    u = _linear_grid(cfg)
    curve = residual_curve(dft2(u), cfg, N_window=6)
    choice = choose_cutoff(curve, noise_norm=0.0)
    assert not choice.satisfied
    assert choice.N == 6 and choice.threshold == 0.0


def test_choose_cutoff_validates_inputs():
    cfg = _cfg()
    curve = residual_curve(dft2(_linear_grid(cfg, I=33)), cfg, N_window=4)
    with pytest.raises(ValueError):
        choose_cutoff(curve, noise_norm=1.0, c=0.0)
    with pytest.raises(ValueError):
        choose_cutoff(curve, noise_norm=-1.0)


def test_unusable_modes_are_zeroed():
    cfg = PhysicalConfig(omega=2 * math.pi, a=0.1, b=0.2,
                         rho=-1 + 0.01j, kappa=-1 + 0.01j, epsilon=1e-3)
    # (1,0) and (0,1) sit exactly on the resonance circle at omega = 2*pi
    u = np.ones((21, 21), dtype=complex)
    rc = recon_coefficients(dft2(u), cfg)
    _, unusable = scaling_factor_grid(cfg, rc.W)
    assert unusable[rc.W + 1, rc.W] and unusable[rc.W, rc.W - 1]
    assert rc.coeff((1, 0)) == 0j
    assert rc.coeff((0, -1)) == 0j
    assert not unusable[rc.W, rc.W]


def _decomposed(sigma=0.005, seed=3, N=3, eps=1e-3):
    cfg = _cfg(epsilon=eps)
    prof = trig_profile()
    clean_grid = _linear_grid(cfg)
    clean_top = dft2(clean_grid)
    m = add_noise(clean_grid, NoiseSpec(sigma=sigma, seed=seed))
    dec = error_decomposition(prof, clean_top, m, N, cfg)
    return cfg, prof, m, dec


def test_error_decomposition_identity():
    # E1 + E2 + E3 reassembles the actual pointwise error exactly;
    # N=2 sits inside the surface band so the cutoff term is nonzero
    cfg, prof, m, dec = _decomposed(N=2)
    rc = recon_coefficients(dft2(m.u_delta), cfg)
    f_N = reconstruct(rc, 2, m.u_delta.shape)
    truth_win = synthesize(
        profile_spectrum(prof, (m.u_delta.shape[0] - 1) // 2),
        (m.u_delta.shape[0] - 1) // 2, m.u_delta.shape, take_real=True)
    err = f_N - cfg.epsilon * truth_win
    total = dec.E1 + dec.E2 + dec.E3
    assert grid_l2_norm(total - err) <= 1e-10 * max(grid_l2_norm(err), 1e-30)


def test_error_decomposition_noise_term_linear_in_delta():
    _, _, m1, dec1 = _decomposed(sigma=0.005, seed=11)
    _, _, m2, dec2 = _decomposed(sigma=0.010, seed=11)
    assert np.allclose(dec2.E2, 2.0 * dec1.E2, rtol=1e-10)
    assert dec2.norm_E2 == pytest.approx(2 * dec1.norm_E2, rel=1e-10)


def test_error_decomposition_linearization_term_quadratic_in_eps():
    # with linear synthetic data E1 vanishes; the quadratic growth is a
    # forward-solver property tested in the solver module. Here: E1 == 0.
    _, _, _, dec = _decomposed()
    assert dec.norm_E1 <= 1e-14


def test_error_decomposition_beyond_window_vanishes_for_band_limited():
    _, _, _, dec = _decomposed()
    assert dec.beyond_window_norm <= 1e-12


@pytest.mark.parametrize("I", [5, 6, 7])
def test_beyond_window_from_spectrum_and_fine_grid_agree(I):
    # the band-limited trig surface has its ring-3 modes p_(+-3, 0) and
    # p_(0, +-3), each of modulus 1/8; a 5 x 5 or 6 x 6 grid (window 2)
    # misses them and a 7 x 7 grid holds them all
    cfg = _cfg(epsilon=1e-2)
    with_spectrum = band_limited_profile(trig_profile(), 3)
    pointwise = series_profile(with_spectrum.spectrum)
    clean = np.full((I, I), u0_top(cfg))
    m = add_noise(clean, NoiseSpec(sigma=0.01, seed=1))
    decs = [error_decomposition(p, dft2(clean), m, 1, cfg)
            for p in (with_spectrum, pointwise)]
    if I < 7:
        assert decs[0].beyond_window_norm == pytest.approx(
            cfg.epsilon * 0.25, rel=1e-13)
        assert decs[1].beyond_window_norm == pytest.approx(
            decs[0].beyond_window_norm, rel=1e-12)
    else:
        assert decs[0].beyond_window_norm == 0.0
        assert decs[1].beyond_window_norm <= 1e-15

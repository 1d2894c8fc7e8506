import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import synthesize_linear_data
from superlens_imaging.core import PhysicalConfig, mode_scalars
from superlens_imaging.errors import (NoConvergence, NyquistViolation,
                                      ProfileTooTall, ResonantMode)
from superlens_imaging.forward import (Discretization, _impedance,
                                       _Operator, coefficient_fields,
                                       deriv_matrix, fd_weights,
                                       reflected_flux, solve_forward)
from superlens_imaging.profiles import (band_limited_profile, builtin_glyph,
                                        image_profile, trig_profile)
from superlens_imaging.tfe import solve_zeroth, u0_top

OMEGA = 2 * math.pi / 1.1

FAST = Discretization(I=33, N_f=8, M=32)
TINY = Discretization(I=19, N_f=4, M=24)  # small enough to assemble


def test_discretization_properties():
    d = Discretization()
    assert d.I == 99 and d.N_f == 12 and d.M == 64
    assert d.P == 4 * d.N_f + 1
    assert d.K == 2 * d.N_f + 1


@pytest.mark.parametrize("kwargs", [
    dict(I=24, N_f=12),            # grid cannot hold the band
    dict(M=4),
    dict(fd_order=3),
    dict(solver="direct"),
    dict(solver="dense-direct"),
    dict(iter_tol=0.0),
    dict(iter_tol=1e-3),
    dict(iter_max=0),
])
def test_discretization_validation(kwargs):
    err = NyquistViolation if "I" in kwargs else ValueError
    with pytest.raises(err):
        Discretization(**kwargs)


def test_fd_weights_central_stencils():
    h = 0.37
    x = np.array([-h, 0.0, h])
    w = fd_weights(x, 0.0, 2)  # columns: value, d/dz, d2/dz2
    assert np.allclose(w[:, 0], [0.0, 1.0, 0.0])
    assert np.allclose(w[:, 1], [-0.5 / h, 0.0, 0.5 / h])
    assert np.allclose(w[:, 2], [1 / h**2, -2 / h**2, 1 / h**2])


@pytest.mark.parametrize("d", [1, 2])
def test_deriv_matrix_fourth_order(d):
    f = lambda z: np.sin(3.0 * z + 0.2)
    df = [None, lambda z: 3 * np.cos(3 * z + 0.2),
          lambda z: -9 * np.sin(3 * z + 0.2)][d]
    errs = []
    for M in (20, 40):
        z = np.linspace(0, 1, M + 1)
        D = deriv_matrix(M, 1.0 / M, d, 4)
        errs.append(np.max(np.abs(D @ f(z) - df(z))))
    assert errs[0] / errs[1] > 10  # ~2^4 with endpoint stencils


def test_flat_surface_reproduces_zeroth_order(phys_table1):
    flat = replace(phys_table1, epsilon=0.0)
    sol = solve_forward(trig_profile(), flat, Discretization(I=9, N_f=2, M=64))
    top = sol.top_grid
    assert np.max(np.abs(top - top.mean())) < 1e-10   # laterally constant
    assert abs(top.mean() - u0_top(flat)) < 1e-8      # z-accuracy at M=64
    assert sol.iterations <= 2


def test_z_discretization_fourth_order(phys_table1):
    flat = replace(phys_table1, epsilon=0.0)
    errs = []
    for M in (16, 32):
        sol = solve_forward(trig_profile(), flat,
                            Discretization(I=9, N_f=2, M=M))
        errs.append(abs(sol.top_grid.mean() - u0_top(flat)))
    assert 8 < errs[0] / errs[1] < 40


def test_second_order_stencils_less_accurate(phys_table1):
    flat = replace(phys_table1, epsilon=0.0)
    e = {}
    for p in (2, 4):
        sol = solve_forward(trig_profile(), flat,
                            Discretization(I=9, N_f=2, M=32, fd_order=p))
        e[p] = abs(sol.top_grid.mean() - u0_top(flat))
    assert e[2] > 10 * e[4]


def _operator(cfg, disc):
    return _Operator(cfg, disc, coefficient_fields(trig_profile(), cfg, disc))


def test_pruned_lateral_transforms_match_full_fft(phys_table1):
    op = _operator(phys_table1, FAST)
    K, P, N = FAST.K, FAST.P, FAST.N_f
    rng = np.random.default_rng(7)
    idx = np.arange(-N, N + 1) % P
    C = rng.normal(size=(5, K, K)) + 1j * rng.normal(size=(5, K, K))
    embedded = np.zeros((5, P, P), dtype=complex)
    embedded[:, idx[:, None], idx[None, :]] = C
    want = np.fft.ifft2(embedded) * P * P
    got = op._to_phys(C)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    U = rng.normal(size=(5, P, P)) + 1j * rng.normal(size=(5, P, P))
    want = (np.fft.fft2(U) / (P * P))[:, idx[:, None], idx[None, :]]
    got = op._to_spec(U)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("fd_order", [2, 4])
def test_preconditioner_inverts_flat_operator(phys_table1, fd_order):
    flat = replace(phys_table1, epsilon=0.0)
    op = _operator(flat, replace(FAST, fd_order=fd_order))
    rng = np.random.default_rng(fd_order)
    x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    back = op.preconditioner().matvec(op.apply(x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_dense_and_iterative_agree(phys_table1):
    # oracle: assemble the collocation matrix column by column and solve it
    # directly
    op = _operator(phys_table1, TINY)
    A = np.empty((op.dim, op.dim), dtype=complex)
    e = np.zeros(op.dim, dtype=complex)
    for k in range(op.dim):
        e[k] = 1.0
        A[:, k] = op.apply(e)
        e[k] = 0.0
    want = np.linalg.solve(A, op.rhs())
    sol = solve_forward(trig_profile(), phys_table1, TINY)
    got = sol.spectral_interior.reshape(-1)
    assert np.linalg.norm(got - want) < 10 * TINY.iter_tol * np.linalg.norm(want)


def test_no_convergence_raises(phys_table1):
    wavy = replace(phys_table1, epsilon=0.02)
    with pytest.raises(NoConvergence):
        solve_forward(trig_profile(), wavy, replace(FAST, iter_max=1))


def test_profile_too_tall(phys_table1):
    with pytest.raises(ProfileTooTall):
        solve_forward(trig_profile(), replace(phys_table1, epsilon=0.2), FAST)


def test_solution_shapes(sol_table1, disc_default):
    I, K, M = disc_default.I, disc_default.K, disc_default.M
    assert sol_table1.spectral_interior.shape == (K, K, M + 1)
    assert sol_table1.top_grid.shape == (I, I)
    assert sol_table1.top.W == disc_default.N_f
    assert sol_table1.residual < disc_default.iter_tol


def test_dirichlet_bottom_row(sol_table1):
    # row 0 is the Dirichlet identity, so every mode vanishes there exactly
    assert np.max(np.abs(sol_table1.spectral_interior[:, :, 0])) < 1e-12


def test_epsilon_consistency_fast(phys_table1):
    # lateral band of 8 holds the second-order harmonics of the ring-3
    # profile; M=64 keeps the z-discretization floor below the remainder
    disc = Discretization(I=33, N_f=8, M=64)
    prof = trig_profile()
    lin = {}
    defect = {}
    for eps in (1e-3, 5e-4):
        cfg = replace(phys_table1, epsilon=eps)
        sol = solve_forward(prof, cfg, disc)
        model = synthesize_linear_data(prof, cfg).truncated(disc.N_f)
        diff = sol.top.values - model.values
        defect[eps] = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
        lin[eps] = float(np.sqrt(np.sum(np.abs(model.values) ** 2)))
    ratio = defect[1e-3] / defect[5e-4]
    assert 3.0 < ratio < 5.0
    assert defect[1e-3] < 0.05 * lin[1e-3]  # remainder is genuinely small


def test_solver_matches_linear_model_at_small_eps(phys_table1):
    cfg = replace(phys_table1, epsilon=1e-4)
    sol = solve_forward(trig_profile(), cfg, Discretization(I=33, N_f=8))
    model = synthesize_linear_data(trig_profile(), cfg)
    # the abs floor admits the second-order content (~eps^2) on modes the
    # surface spectrum misses entirely
    for n in [(0, 0), (1, 0), (2, 2), (-3, 1), (0, -2)]:
        got = sol.top.coeff(n)
        want = model.coeff(n)
        assert got == pytest.approx(want, rel=5e-3, abs=1e-6)


def test_slab_impedance_no_slab_reduction(phys_vacuum):
    for n in [(0, 0), (1, 0), (3, -2)]:
        Z, zeta, _ = _impedance(*n, phys_vacuum)
        g = mode_scalars(n, phys_vacuum).gamma
        assert Z == pytest.approx(1j * g, rel=1e-12)
        if n == (0, 0):
            want = (-2j * phys_vacuum.omega
                    * np.exp(-1j * phys_vacuum.omega * phys_vacuum.b)
                    * np.exp(1j * phys_vacuum.omega * phys_vacuum.h))
            assert zeta == pytest.approx(want, rel=1e-12)
        else:
            assert zeta == 0


def test_slab_impedance_resonant_mode_raises():
    cfg = PhysicalConfig(omega=2 * math.pi)  # |alpha_(1,0)| == omega exactly
    with pytest.raises(ResonantMode, match="resonant mode"):
        _impedance(1, 0, cfg)


def test_slab_impedance_consistent_with_zeroth_order(phys_table1):
    # eliminate the slab, solve the reduced 1D problem below it, compare
    # against the four-coefficient solution
    Z, zeta, _ = _impedance(0, 0, phys_table1)
    om, a, rho = phys_table1.omega, phys_table1.a, phys_table1.rho
    E = (zeta / rho) / (om * np.cos(om * a) - (Z / rho) * np.sin(om * a))
    z0 = solve_zeroth(phys_table1)
    got = complex(z0.eval(np.array(a - 1e-12)))
    assert E * np.sin(om * (a - 1e-12)) == pytest.approx(got, rel=1e-9)


def test_lossless_media_conserve_flux(sol_vacuum_peaks, phys_vacuum):
    flux = reflected_flux(sol_vacuum_peaks.top, phys_vacuum)
    assert flux == pytest.approx(1.0, abs=1e-6)


def test_lossy_slab_absorbs(sol_table1, phys_table1):
    assert reflected_flux(sol_table1.top, phys_table1) < 1.0


def test_band_limited_image_profile_solves(phys_table1):
    raw = image_profile(builtin_glyph())
    prof = band_limited_profile(raw, FAST.N_f, quad_I=FAST.P)
    sol = solve_forward(prof, phys_table1, FAST)
    assert np.all(np.isfinite(sol.top_grid))
    assert sol.residual < FAST.iter_tol
    # the solver band-limits a raw indicator profile the same way
    raw_sol = solve_forward(raw, phys_table1, FAST)
    assert np.array_equal(raw_sol.top_grid, sol.top_grid)
    assert raw_sol.iterations == sol.iterations

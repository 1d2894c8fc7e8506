import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import synthesize_real_irfft
from superlens_imaging.errors import CutoffOutOfRange
from superlens_imaging.spectral import (SpectrumField, dft2, grid_l2_norm,
                                        synthesize, window_halfwidth)


def _grid(I1, I2):
    x = np.arange(I1) / I1
    y = np.arange(I2) / I2
    return np.meshgrid(x, y, indexing="ij")


def test_window_halfwidth():
    assert window_halfwidth(99) == 49
    assert window_halfwidth(100) == 49  # even grids drop the Nyquist line
    assert window_halfwidth(3) == 1
    assert window_halfwidth(1) == 0


def test_dft2_planted_mode():
    I = 33
    X, Y = _grid(I, I)
    u = np.exp(2j * np.pi * (3 * X - 5 * Y))
    U = dft2(u)
    assert U.coeff((3, -5)) == pytest.approx(1.0, abs=1e-12)
    vals = U.values.copy()
    vals[3 + U.W1, -5 + U.W2] = 0
    assert np.max(np.abs(vals)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 1), st.integers(0, 1), st.booleans(),
       st.data())
def test_synthesize_dft2_round_trip(N, parity, pad, take_real, data):
    I = 2 * N + 1 + parity + 2 * pad  # > 2N, both parities, tightest too
    coeffs = data.draw(st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False,
                           allow_infinity=False),
        min_size=(2 * N + 1) ** 2, max_size=(2 * N + 1) ** 2))
    C = SpectrumField(np.array(coeffs, dtype=complex).reshape(2 * N + 1, -1),
                      N, N)
    u = synthesize(C, N, (I, I))
    if take_real:
        # the coefficients are not Hermitian: the real path must still
        # give the real part of the full synthesis, at cut-offs 0 and N
        bound = 1e-12 * max(1.0, float(np.sum(np.abs(C.values))))
        for n in {0, N}:
            got = synthesize(C, n, (I, I), take_real=True)
            assert got.dtype == np.float64 and got.shape == (I, I)
            want = synthesize(C, n, (I, I)).real
            assert np.max(np.abs(got - want)) <= bound
    back = dft2(u)
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            assert back.coeff((n1, n2)) == pytest.approx(C.coeff((n1, n2)),
                                                         abs=1e-10, rel=1e-10)


def test_parseval_odd_grid():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
    U = dft2(u)
    assert np.sum(np.abs(U.values) ** 2) == pytest.approx(
        grid_l2_norm(u) ** 2, rel=1e-12)


def test_even_grid_drops_nyquist_energy():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    U = dft2(u)
    assert np.sum(np.abs(U.values) ** 2) <= grid_l2_norm(u) ** 2 + 1e-12


@given(st.floats(0.1, 50), st.integers(3, 30))
def test_grid_l2_norm_of_constant(c, I):
    u = np.full((I, I), c, dtype=complex)
    assert grid_l2_norm(u) == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("view", ["transposed", "real", "imag", "strided"])
def test_grid_l2_norm_of_non_contiguous_views(view):
    rng = np.random.default_rng(10)
    u = rng.normal(size=(17, 12)) + 1j * rng.normal(size=(17, 12))
    v = {"transposed": u.T, "real": u.real, "imag": u.imag,
         "strided": u[1::3, ::2]}[view]
    assert grid_l2_norm(v) == pytest.approx(
        np.sqrt(np.mean(np.abs(v) ** 2)), rel=1e-14)


def test_grid_l2_norm_scales_linearly():
    rng = np.random.default_rng(9)
    u = rng.normal(size=(17, 17))
    assert grid_l2_norm(3.0 * u) == pytest.approx(3.0 * grid_l2_norm(u))


def test_coeff_out_of_window_raises():
    C = SpectrumField(np.zeros((5, 5), dtype=complex), 2, 2)
    with pytest.raises(CutoffOutOfRange):
        C.coeff((3, 0))


def test_truncated_shrinks_window():
    vals = np.arange(25, dtype=complex).reshape(5, 5) + 1
    C = SpectrumField(vals, 2, 2)
    T = C.truncated(1)
    assert T.W == 1 and T.values.shape == (3, 3)
    assert T.coeff((0, 0)) == C.coeff((0, 0))
    assert T.coeff((1, -1)) == C.coeff((1, -1))
    with pytest.raises(CutoffOutOfRange):
        T.coeff((2, 0))


def test_ring_indexing():
    vals = np.zeros((5, 5), dtype=complex)
    C = SpectrumField(vals, 2, 2)
    r = C.ring()
    assert r[2, 2] == 0
    assert r[2, 3] == 1 and r[3, 3] == 1
    assert r[0, 0] == 2


def test_synthesize_guards():
    C = SpectrumField(np.zeros((5, 5), dtype=complex), 2, 2)
    with pytest.raises(CutoffOutOfRange):
        synthesize(C, 3, (9, 9))        # N beyond the window
    with pytest.raises(CutoffOutOfRange):
        synthesize(C, 2, (4, 9))        # grid cannot resolve N


def test_synthesize_take_real_on_hermitian_coeffs():
    N = 2
    rng = np.random.default_rng(11)
    C = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    herm = 0.5 * (C + np.conj(C[::-1, ::-1]))  # C_{-n} = conj(C_n)
    F = SpectrumField(herm, N, N)
    u_c = synthesize(F, N, (11, 11))
    u_r = synthesize(F, N, (11, 11), take_real=True)
    assert np.max(np.abs(u_c.imag)) < 1e-12
    assert np.allclose(u_r, u_c.real)
    assert u_r.dtype.kind == "f"


@pytest.mark.parametrize("I", [33, 98, 99])
def test_synthesize_take_real_matches_irfft(I):
    # oracle: the same Hermitian columns through I real inverse FFTs;
    # the matrix product sums the modes in another order
    W = window_halfwidth(I)
    rng = np.random.default_rng(I)
    C = SpectrumField(rng.normal(size=(2 * W + 1, 2 * W + 1))
                      + 1j * rng.normal(size=(2 * W + 1, 2 * W + 1)), W, W)
    for N in range(W + 1):
        got = synthesize(C, N, (I, I), take_real=True)
        want = synthesize_real_irfft(C, N, (I, I))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dft2_even_sampling_convention():
    # row index i maps to x = i/I: the planted phase fixes the convention
    I = 8
    X, _ = _grid(I, I)
    u = np.exp(2j * np.pi * X)
    U = dft2(u)
    assert U.coeff((1, 0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(99, 99), (49, 49), (33, 33), (98, 98),
                                   (99, 64), (64, 99), (1, 1), (2, 3)])
@pytest.mark.parametrize("real", [True, False])
def test_dft2_matches_scipy_fft2_bitwise(shape, real):
    # oracle: scipy's two-axis FFT, cut to the centered window
    rng = np.random.default_rng(sum(shape))
    u = rng.normal(size=shape)
    if not real:
        u = u + 1j * rng.normal(size=shape)
    F = sfft.fftshift(sfft.fft2(u, norm="forward"))
    want = F[1 - shape[0] % 2:, 1 - shape[1] % 2:]
    got = dft2(u).values
    assert np.array_equal(got, want)
    if real:  # real data has an exactly Hermitian window
        assert np.array_equal(got, got[::-1, ::-1].conj())

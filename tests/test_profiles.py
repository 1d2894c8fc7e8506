import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import series_profile, trig_profile_spectrum
from superlens_imaging.errors import (BadThreshold, EmptyImage,
                                      NyquistViolation)
from superlens_imaging.profiles import (PROFILE_BUILDERS, SurfaceProfile,
                                        _peaks_terms, band_limited_profile,
                                        builtin_glyph, image_profile,
                                        peaks_profile, profile_spectrum,
                                        trig_profile)
from superlens_imaging.spectral import dft2, synthesize

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


@given(unit_floats, unit_floats, st.integers(-3, 3), st.integers(-3, 3))
def test_trig_profile_periodic(x, y, k1, k2):
    p = trig_profile()
    assert p.sample(x + k1, y + k2) == pytest.approx(p.sample(x, y),
                                                     rel=1e-12, abs=1e-12)


def test_trig_spectrum_matches_dft():
    p = trig_profile()
    U = dft2(p.sample_grid(99, 99))
    S = trig_profile_spectrum()
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            want = S.coeff((n1, n2)) if max(abs(n1), abs(n2)) <= S.W else 0j
            assert U.coeff((n1, n2)) == pytest.approx(want, abs=1e-13)


def _fd_grad(p, x, y, h=1e-6):
    gx = (p.sample(x + h, y) - p.sample(x - h, y)) / (2 * h)
    gy = (p.sample(x, y + h) - p.sample(x, y - h)) / (2 * h)
    return gx, gy


def _fd_lap(p, x, y, h=1e-4):
    return (p.sample(x + h, y) + p.sample(x - h, y)
            + p.sample(x, y + h) + p.sample(x, y - h)
            - 4 * p.sample(x, y)) / h**2


@pytest.mark.parametrize("builder", [trig_profile, peaks_profile])
def test_analytic_derivatives_match_fd(builder):
    p = builder()
    assert p.has_derivatives
    rng = np.random.default_rng(3)
    # keep clear of the cell edge where the bump profile's tails wrap
    for x, y in rng.uniform(0.1, 0.9, size=(8, 2)):
        gx, gy, lap = p.derivatives(x, y)
        fx, fy = _fd_grad(p, x, y)
        assert gx == pytest.approx(fx, rel=1e-4, abs=1e-6)
        assert gy == pytest.approx(fy, rel=1e-4, abs=1e-6)
        assert lap == pytest.approx(_fd_lap(p, x, y), rel=1e-3, abs=1e-3)


def test_peaks_profile_periodic_wrap():
    p = peaks_profile()
    assert p.sample(1.25, -0.5) == pytest.approx(p.sample(0.25, 0.5),
                                                 abs=1e-15)


def test_builtin_glyph_shape_and_values():
    g = builtin_glyph()
    assert g.shape == (32, 32)
    assert set(np.unique(g)) <= {0.0, 1.0}
    assert 0 < g.sum() < g.size  # neither empty nor full
    assert not np.allclose(g, g[::-1, :])  # orientation-revealing
    assert not np.allclose(g, g[:, ::-1])


def test_image_profile_nearest_pixel_lookup():
    pixels = np.array([[1.0, 0.0],
                       [0.0, 1.0]])
    p = image_profile(pixels)
    assert not p.has_derivatives
    # pixel row 0 is the TOP of the cell: y in the upper half reads row 0
    assert p.sample(0.25, 0.75) == 1.0   # top-left pixel
    assert p.sample(0.75, 0.75) == 0.0
    assert p.sample(0.25, 0.25) == 0.0
    assert p.sample(0.75, 0.25) == 1.0
    # periodic in both directions
    assert p.sample(1.25, -0.25) == p.sample(0.25, 0.75)


def test_image_profile_threshold():
    pixels = np.array([[0.2, 0.8]])
    assert image_profile(pixels, threshold=0.5).sample(0.9, 0.5) == 1.0
    assert image_profile(pixels, threshold=0.9).sample(0.9, 0.5) == 0.0


def test_image_profile_guards():
    with pytest.raises(EmptyImage):
        image_profile(np.zeros((0, 4)))
    with pytest.raises(BadThreshold):
        image_profile(np.ones((2, 2)), threshold=1.0)
    with pytest.raises(BadThreshold):
        image_profile(np.ones((2, 2)), threshold=0.0)


def test_profile_builders_registry():
    assert sorted(PROFILE_BUILDERS) == ["1", "2", "3"]
    for key, builder in PROFILE_BUILDERS.items():
        p = builder()
        assert p.sample_grid(8, 8).shape == (8, 8)


def test_profile_spectrum_nyquist_guard():
    with pytest.raises(NyquistViolation):
        profile_spectrum(trig_profile(), N_max=5, quad_I=10)


def test_profile_spectrum_of_band_limited_profile_is_exact():
    # trig profile is band-limited to ring 3: a 9-point quadrature
    # already resolves it, and wider windows carry zeros
    S9 = profile_spectrum(trig_profile(), N_max=4, quad_I=9)
    S99 = profile_spectrum(trig_profile(), N_max=4, quad_I=99)
    assert np.max(np.abs(S9.values - S99.values)) < 1e-13
    assert abs(S99.coeff((4, 4))) < 1e-14


def test_band_limited_profile_matches_synthesis():
    raw = image_profile(builtin_glyph())
    N = 8
    bl = band_limited_profile(raw, N, quad_I=33)
    spec = profile_spectrum(raw, N, quad_I=33)
    grid = synthesize(spec, N, (33, 33), take_real=True)
    assert np.max(np.abs(bl.sample_grid(33, 33) - grid)) < 1e-11
    assert bl.has_derivatives


def test_band_limited_profile_derivatives():
    bl = band_limited_profile(image_profile(builtin_glyph()), 6, quad_I=25)
    series = series_profile(bl.spectrum)
    gx, gy, lap = bl.derivative_grids(20, 20)
    # (0.3, 0.7) and (0.55, 0.15) are the points (6, 14) and (11, 3) of
    # the 20 x 20 cell grid; the differences step the pointwise series
    for (x, y), i in [((0.3, 0.7), (6, 14)), ((0.55, 0.15), (11, 3))]:
        fx, fy = _fd_grad(series, x, y)
        assert gx[i] == pytest.approx(fx, rel=1e-4, abs=1e-7)
        assert gy[i] == pytest.approx(fy, rel=1e-4, abs=1e-7)
        assert lap[i] == pytest.approx(_fd_lap(series, x, y), rel=1e-3,
                                       abs=1e-4)


def test_band_limited_spectrum_is_idempotent():
    raw = image_profile(builtin_glyph())
    bl = band_limited_profile(raw, 5, quad_I=21)
    S_raw = profile_spectrum(raw, 5, quad_I=21)
    S_bl = profile_spectrum(bl, 5, quad_I=21)
    assert np.max(np.abs(S_raw.values - S_bl.values)) < 1e-12


def _pointwise_grid(p, I1, I2, values=lambda p: p.sample):
    x = np.arange(I1)[:, None] / I1
    y = np.arange(I2)[None, :] / I2
    return values(p)(*np.broadcast_arrays(x, y))


@pytest.fixture(scope="module")
def glyph_band_limited():
    # the glyph at the solver's bandwidth N_f = 12, quadrature P = 49
    return band_limited_profile(image_profile(builtin_glyph()), 12, quad_I=49)


@pytest.mark.parametrize("shape", [(1, 7), (5, 31), (8, 8), (33, 33),
                                   (99, 99), (297, 297)])
def test_band_limited_sample_grid_matches_pointwise(glyph_band_limited, shape):
    # grids at or below the Nyquist size 2 * 12 + 1 fold aliased modes;
    # the reference sums the series and its derivatives point by point
    series = series_profile(glyph_band_limited.spectrum)
    refs = [_pointwise_grid(series, *shape)]
    refs += _pointwise_grid(series, *shape, values=lambda p: p.derivatives)
    grids = [glyph_band_limited.sample_grid(*shape),
             *glyph_band_limited.derivative_grids(*shape)]
    for grid, ref in zip(grids, refs):
        assert grid.shape == shape and grid.dtype == np.float64
        assert grid.flags.c_contiguous
        assert np.max(np.abs(grid - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_profile_without_spectrum_samples_pointwise():
    # sample_grid passes x as (I1, 1) and y as (1, I2); the reference
    # evaluates on the broadcast (I1, I2) coordinates, bit for bit
    for p in (trig_profile(), peaks_profile(), image_profile(builtin_glyph())):
        assert p.spectrum is None
        for shape in [(9, 12), (99, 99), (297, 297), (33, 48)]:
            grid = p.sample_grid(*shape)
            assert np.array_equal(grid, _pointwise_grid(p, *shape))
            assert grid.shape == shape and grid.dtype == np.float64
            assert grid.flags.c_contiguous and grid.flags.writeable


@pytest.mark.parametrize("builder", [trig_profile, peaks_profile])
def test_derivative_grids_are_pointwise_derivatives(builder):
    # separable coordinates give trig's g_x as (I1, 1); the grids come out
    # full, C-contiguous and bitwise the broadcast grid's values
    p = builder()
    for shape in [(9, 12), (49, 49)]:
        refs = _pointwise_grid(p, *shape, values=lambda p: p.derivatives)
        for grid, ref in zip(p.derivative_grids(*shape), refs):
            assert np.array_equal(grid, ref)
            assert grid.shape == shape and grid.dtype == np.float64
            assert grid.flags.c_contiguous and grid.flags.writeable


def test_profile_needs_sampler_or_spectrum():
    with pytest.raises(ValueError, match="sampler or a spectrum"):
        SurfaceProfile()
    with pytest.raises(ValueError, match="sampler or a spectrum"):
        SurfaceProfile(derivatives=lambda x, y: (x, y, x))


def test_derivative_grids_need_derivatives():
    # an image indicator has a sampler only: its derivatives come from its
    # band-limited series, and the error says so
    with pytest.raises(ValueError, match="band_limited_profile"):
        image_profile(builtin_glyph()).derivative_grids(8, 8)


@pytest.mark.parametrize("sample", [lambda x, y: 0.25,
                                    lambda x, y: np.full_like(x, 0.25)],
                         ids=["scalar", "per-row"])
def test_constant_sampler_fills_the_grid(sample):
    grid = SurfaceProfile(sample=sample).sample_grid(5, 7)
    assert grid.shape == (5, 7) and grid.dtype == np.float64
    assert grid.flags.c_contiguous and grid.flags.writeable
    grid[0, 0] = 1.0
    assert np.count_nonzero(grid == 0.25) == 34


def test_peaks_sample_is_value_term():
    p = peaks_profile()
    x, y = np.meshgrid(np.linspace(-0.3, 1.3, 61), np.linspace(0.0, 1.0, 47),
                       indexing="ij")
    s, t = 8.0 * (x % 1.0) - 4.0, 8.0 * (y % 1.0) - 4.0
    assert np.array_equal(p.sample(x, y), _peaks_terms(s, t)[0])

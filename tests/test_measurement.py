import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superlens_imaging.errors import ZeroNoise
from superlens_imaging.measurement import (CSV_HEADER, Measurement, NoiseSpec,
                                           add_noise, complex_gaussian,
                                           load_measurement_csv,
                                           noise_dft_stats, rescale_to_snr,
                                           save_measurement_csv, snr_of)
from superlens_imaging.spectral import grid_l2_norm


def _clean(I=16, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(I, I)) + 1j * rng.normal(size=(I, I))


def test_complex_gaussian_deterministic():
    a = complex_gaussian((9, 9), 0.02, seed=123)
    b = complex_gaussian((9, 9), 0.02, seed=123)
    c = complex_gaussian((9, 9), 0.02, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 7331])
@pytest.mark.parametrize("shape", [(13, 7), (99, 99)])
def test_complex_gaussian_bytes_match_box_muller(seed, shape):
    # the documented generator written out: Philox uniforms, two per sample
    # in row-major order, Box-Muller on log1p(-u), one complex product
    u = np.random.Generator(np.random.Philox(seed)).random(size=shape + (2,))
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    theta = 2.0 * np.pi * u[..., 1]
    want = 0.37 * r * (np.cos(theta) + 1j * np.sin(theta))
    got = complex_gaussian(shape, 0.37, seed)
    assert got.dtype == want.dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()


def test_complex_gaussian_scales_with_sigma():
    a = complex_gaussian((7, 7), 0.01, seed=3)
    b = complex_gaussian((7, 7), 0.03, seed=3)
    assert np.allclose(b, 3.0 * a, rtol=1e-12)


def test_complex_gaussian_moments():
    # one big draw: mean ~ 0, componentwise std ~ sigma
    d = complex_gaussian((512, 512), 1.0, seed=0)
    assert abs(d.real.mean()) < 5e-3 and abs(d.imag.mean()) < 5e-3
    assert d.real.std() == pytest.approx(1.0, rel=2e-2)
    assert d.imag.std() == pytest.approx(1.0, rel=2e-2)
    # circular symmetry: real/imag uncorrelated
    corr = np.mean(d.real * d.imag)
    assert abs(corr) < 5e-3


@given(st.integers(0, 2**32 - 1))
def test_add_noise_round_trip_fields(seed):
    u = _clean(8)
    m = add_noise(u, NoiseSpec(sigma=0.1, seed=seed))
    assert np.allclose(m.u_delta - m.delta, u, rtol=0, atol=1e-12)
    assert m.u_delta.shape == u.shape
    # the noise is the draw of the spec's sigma and seed
    assert np.array_equal(m.delta, complex_gaussian(u.shape, 0.1, seed))
    assert m.snr == pytest.approx(
        grid_l2_norm(u) ** 2 / grid_l2_norm(m.delta) ** 2)


def test_add_noise_zero_sigma():
    u = _clean(6)
    m = add_noise(u, NoiseSpec(sigma=0.0, seed=1))
    assert np.array_equal(m.u_delta, u)
    assert m.snr == math.inf


def test_snr_of_zero_noise_raises():
    with pytest.raises(ZeroNoise):
        snr_of(_clean(4), np.zeros((4, 4), dtype=complex))


@given(st.floats(0.05, 100.0))
def test_rescale_to_snr_exact(target):
    u = _clean(10)
    m = add_noise(u, NoiseSpec(sigma=0.2, seed=9))
    r = rescale_to_snr(u, m, target)
    assert r.snr == pytest.approx(target, rel=1e-12)
    # the rescaled draw keeps its shape, only the amplitude moves
    ratio = r.delta / m.delta
    assert np.allclose(ratio, ratio.flat[0])


def test_rescale_zero_noise_raises():
    u = _clean(5)
    m = Measurement(u_delta=u, delta=np.zeros_like(u), snr=math.inf)
    with pytest.raises(ZeroNoise):
        rescale_to_snr(u, m, 5.0)


def test_noise_dft_stats_law_small_grid():
    # small grid + many trials: every mode within a few percent
    I, sigma, trials = 9, 0.05, 2000
    stats = noise_dft_stats(NoiseSpec(sigma=sigma, seed=0), I, trials)
    expected = sigma / I
    assert stats.expected_std == pytest.approx(expected)
    assert stats.std_re.shape == (I, I)
    assert np.max(np.abs(stats.std_re - expected)) < 0.10 * expected
    assert np.max(np.abs(stats.std_im - expected)) < 0.10 * expected
    # covariance of independent components: zero within Monte-Carlo error
    se = expected**2 / math.sqrt(trials)
    assert np.max(np.abs(stats.cov)) < 6 * se


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_noise_spec_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        NoiseSpec(sigma=sigma)


def test_noise_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        NoiseSpec(sigma=0.0, seed=-1)


def test_noise_dft_stats_rejects_few_trials():
    with pytest.raises(ValueError):
        noise_dft_stats(NoiseSpec(sigma=0.1, seed=0), 9, trials=10)


def test_csv_round_trip_bitwise(tmp_path):
    u = _clean(11, seed=42)
    m = add_noise(u, NoiseSpec(sigma=0.07, seed=21))
    path = tmp_path / "m.csv"
    save_measurement_csv(m, path)
    back = load_measurement_csv(path)
    assert np.array_equal(back.u_delta, m.u_delta)
    assert np.array_equal(back.delta, m.delta)
    assert back.snr == pytest.approx(m.snr, rel=1e-12)


def _csv_writer_reference(m, path):
    # row-by-row csv.writer serialization: the byte-level reference
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CSV_HEADER)
        I1, I2 = m.u_delta.shape
        for i1 in range(I1):
            for i2 in range(I2):
                ud = m.u_delta[i1, i2]
                d = m.delta[i1, i2]
                wr.writerow([i1, i2, repr(float(ud.real)), repr(float(ud.imag)),
                             repr(float(d.real)), repr(float(d.imag))])


def _awkward_measurement():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
    d = 1e-3 * (rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7)))
    odd = [-0.0, 5e-324, 1e300, 0.1, -5e-324, 1e-300, 123456789.0]
    u.real[0] = odd
    u.imag[1] = odd[::-1]
    d.real[2] = odd
    d.imag[3] = odd[1:] + odd[:1]
    return Measurement(u_delta=u, delta=d, snr=1.0)


def test_csv_bytes_match_csv_writer(tmp_path):
    m = _awkward_measurement()
    save_measurement_csv(m, tmp_path / "new.csv")
    _csv_writer_reference(m, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_save_streams_rows(tmp_path):
    # a 99 x 99 measurement is written row by row: the traced transient is
    # a grid row's worth, not the whole body (3.8 MB built at once)
    m = add_noise(_clean(99, seed=5), NoiseSpec(sigma=0.1, seed=6))
    tracemalloc.start()
    try:
        save_measurement_csv(m, tmp_path / "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_csv_awkward_values_round_trip_bitwise(tmp_path):
    m = _awkward_measurement()
    save_measurement_csv(m, tmp_path / "m.csv")
    with np.errstate(over="ignore"):     # 1e300 overflows the SNR's square
        back = load_measurement_csv(tmp_path / "m.csv")
    for got, want in [(back.u_delta, m.u_delta), (back.delta, m.delta)]:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_csv_header_layout(tmp_path):
    m = add_noise(_clean(3), NoiseSpec(sigma=0.1, seed=0))
    path = tmp_path / "m.csv"
    save_measurement_csv(m, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == CSV_HEADER
    assert len(lines) == 1 + 9


def test_csv_zero_noise_loads_infinite_snr(tmp_path):
    m = add_noise(_clean(4), NoiseSpec(sigma=0.0, seed=0))
    path = tmp_path / "m.csv"
    save_measurement_csv(m, path)
    assert load_measurement_csv(path).snr == math.inf


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_measurement_csv(path)


@pytest.mark.parametrize("text", ["", ",".join(CSV_HEADER) + "\n\n"])
def test_load_rejects_empty_file(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_measurement_csv(path)


def _saved_lines(tmp_path, I=4):
    m = add_noise(_clean(I), NoiseSpec(sigma=0.1, seed=3))
    path = tmp_path / "m.csv"
    save_measurement_csv(m, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite(tmp_path, value):
    path, lines = _saved_lines(tmp_path)
    fields = lines[5].split(",")
    fields[3] = value
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite value .* row 5$"):
        load_measurement_csv(path)


def test_load_rejects_missing_rows(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines[:7] + lines[9:]) + "\n")
    with pytest.raises(ValueError, match="rows for an 4x4 grid"):
        load_measurement_csv(path)


def test_load_rejects_duplicated_point(tmp_path):
    # same row count as a full grid, but (0, 1) twice and (0, 2) missing
    path, lines = _saved_lines(tmp_path)
    lines[3] = lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="duplicated"):
        load_measurement_csv(path)


@pytest.mark.parametrize("row", ["0,0,1.0,0.0,0.0", "-1,0,1.0,0.0,0.0,0.0",
                                 "0.5,0,1.0,0.0,0.0,0.0", "0,0,1.0,x,0.0,0.0",
                                 "99999999999999999999,0,1.0,0.0,0.0,0.0"])
def test_load_rejects_malformed_row(tmp_path, row):
    path, lines = _saved_lines(tmp_path)
    lines[1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_measurement_csv(path)

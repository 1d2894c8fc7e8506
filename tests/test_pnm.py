import json

import numpy as np
import pytest

from superlens_imaging.errors import UsageError
from superlens_imaging.pnm import (_write_tokens, colormap, field_to_image,
                                   read_pgm, save_field_ppm, write_ppm)


def test_pgm_round_trip(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    p = tmp_path / "g.pgm"
    p.write_text("P2\n4 3\n255\n" + " ".join(map(str, gray.ravel())) + "\n")
    back = read_pgm(p)
    assert back.shape == (3, 4)
    assert np.allclose(back * 255, gray)


def test_pgm_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_text("P2 # magic\n# full-line comment\n2 2\n10\n10 0\n5 10\n")
    img = read_pgm(p)
    assert img.shape == (2, 2)
    assert img[0, 0] == 1.0 and img[1, 0] == 0.5


@pytest.mark.parametrize("text", [
    "P5\n2 2\n255\n",                 # binary magic unsupported
    "P2\n2 2\n255\n1 2 3\n",          # truncated pixel list
    "P2\n2 2\n0\n1 2 3 4\n",          # zero maxval
    "hello\n",
])
def test_read_pgm_rejects_malformed(tmp_path, text):
    p = tmp_path / "bad.pgm"
    p.write_text(text)
    with pytest.raises(UsageError):
        read_pgm(p)


def test_read_pgm_missing_file(tmp_path):
    with pytest.raises(UsageError):
        read_pgm(tmp_path / "nope.pgm")


def test_line_length_limit(tmp_path):
    p = tmp_path / "wide.ppm"
    write_ppm(p, np.full((9, 37, 3), 255, dtype=np.uint8))
    assert all(len(line) <= 70 for line in p.read_text().splitlines())


def _greedy_token_lines(tokens) -> str:
    # greedy packing one token at a time: the byte-level reference
    out = []
    line = ""
    for tok in tokens:
        tok = str(tok)
        if line and len(line) + 1 + len(tok) > 70:
            out.append(line + "\n")
            line = tok
        else:
            line = tok if not line else line + " " + tok
    if line:
        out.append(line + "\n")
    return "".join(out)


# 17 three-digit tokens and one two-digit token fill exactly 70 columns
_COLUMN_70 = np.array(([200] * 17 + [20]) * 6, dtype=np.uint8)


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (7, 11), (2, 54), (99, 99)])
@pytest.mark.parametrize("seed", [0, 1])
def test_token_writers_match_greedy_loop(tmp_path, shape, seed):
    rng = np.random.default_rng(seed)
    # mix narrow and wide tokens so that line breaks fall everywhere
    gray = np.where(rng.random(shape) < 0.5, rng.integers(0, 10, shape),
                    rng.integers(0, 256, shape)).astype(np.uint8)
    rgb = rng.integers(0, 256, size=shape + (3,)).astype(np.uint8)
    H, W = shape
    with open(tmp_path / "g.txt", "w") as fh:
        _write_tokens(fh, gray.reshape(-1))
    write_ppm(tmp_path / "c.ppm", rgb)
    assert (tmp_path / "g.txt").read_bytes() == _greedy_token_lines(
        gray.reshape(-1)).encode()
    assert (tmp_path / "c.ppm").read_bytes() == (
        f"P3\n{W} {H}\n255\n" + _greedy_token_lines(rgb.reshape(-1))).encode()


@pytest.mark.parametrize("n", [18, 19, 35, 36, 37, len(_COLUMN_70)])
def test_token_writer_lines_ending_at_column_70(tmp_path, n):
    tokens = _COLUMN_70[:n]
    with open(tmp_path / "g.txt", "w") as fh:
        _write_tokens(fh, tokens)
    expect = _greedy_token_lines(tokens)
    assert 70 in [len(line) for line in expect.splitlines()]
    assert (tmp_path / "g.txt").read_bytes() == expect.encode()


def test_write_ppm_shape_guard(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 4)))


def test_colormap_endpoints_and_monotonicity():
    rgb = colormap(np.linspace(0.0, 1.0, 64))
    assert tuple(rgb[0]) == (68, 1, 84)        # darkest anchor
    assert tuple(rgb[-1]) == (253, 231, 37)    # brightest anchor
    # perceived brightness should rise along the ramp
    lum = rgb.astype(float) @ np.array([0.299, 0.587, 0.114])
    assert np.all(np.diff(lum) > -1e-9)


def test_colormap_constant_field_mid_scale():
    rgb = colormap(np.full((3, 3), 7.0))
    mid = colormap(np.array([[0.5]]), vmin=0.0, vmax=1.0)
    assert np.array_equal(rgb[0, 0], mid[0, 0])


def test_colormap_respects_explicit_range():
    # values outside [vmin, vmax] saturate rather than wrap
    rgb = colormap(np.array([-5.0, 5.0]), vmin=0.0, vmax=1.0)
    assert tuple(rgb[0]) == (68, 1, 84)
    assert tuple(rgb[1]) == (253, 231, 37)


def test_field_to_image_orientation():
    # field[i, j] samples (x_i, y_j); raster row 0 must be the top edge
    field = np.array([[0.0, 1.0],     # x = 0 column: y=0 -> 0, y=0.5 -> 1
                      [2.0, 3.0]])    # x = 0.5
    img = field_to_image(field)
    assert img.shape == (2, 2)
    assert img[0, 0] == 1.0 and img[0, 1] == 3.0   # top row = largest y
    assert img[1, 0] == 0.0 and img[1, 1] == 2.0


def test_save_field_ppm_sidecar(tmp_path):
    field = np.linspace(0, 1, 20).reshape(4, 5)
    p = tmp_path / "f.ppm"
    save_field_ppm(p, field, vmin=-1.0, vmax=2.0, meta={"note": "ok"})
    side = json.loads((tmp_path / "f.ppm.json").read_text())
    assert side["vmin"] == -1.0 and side["vmax"] == 2.0
    assert side["shape"] == [5, 4]      # transposed for raster
    assert side["note"] == "ok"
    assert side["image"] == "f.ppm"
    header = p.read_text().splitlines()[:2]
    assert header[0] == "P3" and header[1] == "4 5"


def test_save_field_ppm_sidecar_refuses_nan(tmp_path):
    p = tmp_path / "f.ppm"
    with pytest.raises(ValueError):
        save_field_ppm(p, np.ones((3, 3)), meta={"rel_error": float("nan")})
    assert not (tmp_path / "f.ppm.json").exists()

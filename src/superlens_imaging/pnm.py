"""Plain (ASCII) NetPBM raster I/O.

Output images are P3 pseudocolor renderings of scalar fields under a
fixed colormap; input surface masks are plain P2 grayscale.  Every
pseudocolor write puts the value range into a JSON sidecar next to the
image — the raster alone cannot carry amplitude information, and the
experiments' amplitude comparisons depend on it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import UsageError

# fixed colormap: 11 evenly spaced anchors, linearly interpolated
# (dark violet -> blue -> teal -> green -> yellow), chosen for monotone
# perceived brightness
_ANCHORS = np.array([
    (0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150), (0.993, 0.906, 0.144),
])


def colormap(values: np.ndarray, vmin: float | None = None,
             vmax: float | None = None) -> np.ndarray:
    """Map a real 2-D array to uint8 RGB; constant fields map mid-scale."""
    v = np.asarray(values, dtype=float)
    lo = float(np.min(v)) if vmin is None else vmin
    hi = float(np.max(v)) if vmax is None else vmax
    if hi <= lo:
        t = np.full(v.shape, 0.5)
    else:
        t = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
    pos = t * (len(_ANCHORS) - 1)
    i = np.minimum(pos.astype(int), len(_ANCHORS) - 2)
    frac = (pos - i)[..., None]
    rgb = _ANCHORS[i] * (1 - frac) + _ANCHORS[i + 1] * frac
    return np.round(rgb * 255).astype(np.uint8)


_TOKENS = [str(v) for v in range(256)]
#: width of each token plus the one character that follows it
_STEPS = np.array([len(tok) + 1 for tok in _TOKENS])


def _write_tokens(fh, values: np.ndarray) -> None:
    """Space-separated uint8 tokens, packed greedily into lines of at most
    70 characters as plain NetPBM asks."""
    n = len(values)
    if n == 0:
        return
    # ends[k]: offset just past token k and its separator in the one-line
    # text; a line starting at token k holds every token j with
    # ends[j] <= start_k + 71, which gives the next line's first token
    ends = np.cumsum(_STEPS[values])
    starts = np.concatenate(([0], ends[:-1]))
    following = np.searchsorted(ends, starts + 71, side="right").tolist()
    breaks = []
    k = following[0]
    while k < n:
        breaks.append(k)
        k = following[k]
    line = " ".join(map(_TOKENS.__getitem__, values.tolist())) + "\n"
    buf = bytearray(line.encode())
    np.frombuffer(buf, dtype=np.uint8)[starts[breaks] - 1] = ord("\n")
    fh.write(buf.decode())


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("write_ppm expects an (H, W, 3) array")
    H, W = rgb.shape[:2]
    with open(path, "w") as fh:
        fh.write(f"P3\n{W} {H}\n255\n")
        _write_tokens(fh, rgb.astype(np.uint8).reshape(-1))


def read_pgm(path: str | Path) -> np.ndarray:
    """Plain P2 only; returns floats in [0, 1], shape (H, W)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read image {path}: {exc}") from None
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise UsageError(f"{path}: expected plain PGM (magic P2)")
    try:
        W, H, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        pixels = np.array([int(t) for t in tokens[4:4 + W * H]], dtype=float)
    except (ValueError, IndexError):
        raise UsageError(f"{path}: malformed plain PGM") from None
    if pixels.size != W * H or maxval <= 0:
        raise UsageError(f"{path}: malformed plain PGM")
    return (pixels / maxval).reshape(H, W)


def field_to_image(field: np.ndarray) -> np.ndarray:
    """Orient a field indexed [x_i, y_j] for raster output: row 0 is the
    top of the frame (largest y)."""
    return np.asarray(field).T[::-1, :]


def save_field_ppm(path: str | Path, field: np.ndarray,
                   vmin: float | None = None, vmax: float | None = None,
                   meta: dict | None = None) -> None:
    """Pseudocolor a real field and write image + JSON sidecar."""
    img = field_to_image(field)
    lo = float(np.min(img)) if vmin is None else vmin
    hi = float(np.max(img)) if vmax is None else vmax
    write_ppm(path, colormap(img, lo, hi))
    sidecar = {"image": Path(path).name, "vmin": lo, "vmax": hi,
               "shape": list(img.shape)}
    if meta:
        sidecar.update(meta)
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, allow_nan=False) + "\n")

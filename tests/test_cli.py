"""Command-line interface: exit codes, file outputs, round trips.

All but two tests drive main(argv) in-process; one subprocess test
covers the installed console script, and one checks in a fresh interpreter
that importing the CLI imports no scipy module.
"""

import cmath
import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superlens_imaging import cli
from superlens_imaging.cli import DEFAULT_MEDIA, build_parser, main
from superlens_imaging.config import build_config
from superlens_imaging.measurement import CSV_HEADER, load_measurement_csv
from superlens_imaging.tfe import scaling_factor

FAST = ["--fast", "--set", "seed=0"]


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


# --- exit code taxonomy ------------------------------------------------------

def test_unknown_set_key_is_usage_error(tmp_path, capsys):
    code = main(["forward", "--set", "wavelenght=1.1",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "wavelenght" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_bad_flag_is_usage_error(capsys):
    assert main(["forward", "--such-flag"]) == 1


def test_profile_too_tall_is_invariant_violation(tmp_path, capsys):
    code = main(["forward", *FAST, "--set", "epsilon=0.2",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_resonant_operating_point_is_invariant_violation(tmp_path, capsys):
    # wavelength 1 puts the (+-1, 0) modes on the Rayleigh circle
    code = main(["forward", *FAST, "--set", "wavelength=1.0",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "resonant mode" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["forward", *FAST, "--set", "fd_order=3"], "fd_order"),
    (["experiment", "1", "--fast", "--set", "M=4"], "M >= 8"),
    (["sweep-sn", "--set", "a=0.5"], "a < b"),
    (["invert", *FAST, "--set", "fd_order=3", "--data", "none.csv"],
     "fd_order"),
])
def test_bad_config_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code, cap = run([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert message in cap.err and "Traceback" not in cap.err
    assert not out.exists()


def test_pgm_pixel_beyond_maxval_writes_nothing(tmp_path, capsys):
    image = tmp_path / "bad.pgm"
    image.write_text("P2\n2 1\n255\n300 -7\n")
    out = tmp_path / "out"
    code, cap = run(["forward", "--fast", "--set", "profile=image", "--set",
                     f"image_path={image}", "--out", str(out)], capsys)
    assert code == 1
    assert "malformed plain PGM" in cap.err and "Traceback" not in cap.err
    assert not out.exists()


def test_no_convergence_is_numerical_failure(tmp_path, capsys):
    code = main(["forward", *FAST, "--set", "epsilon=0.02",
                 "--set", "iter_max=1", "--out", str(tmp_path)])
    assert code == 3


# --- forward -> invert round trip ---------------------------------------------

@pytest.fixture(scope="module")
def forward_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fwd")
    assert main(["forward", *FAST, "--out", str(d)]) == 0
    return d


def test_forward_outputs(forward_dir):
    names = {p.name for p in forward_dir.iterdir()}
    assert {"top_field.csv", "top_abs.ppm", "top_abs.ppm.json",
            "forward.json"} <= names
    diag = json.loads((forward_dir / "forward.json").read_text())
    assert diag["iterations"] >= 1
    assert diag["residual"] < 1e-8
    assert diag["config"]["I"] == 33          # --fast grid
    assert "sigma" in diag["config"]["defaulted_keys"]
    complex(diag["specular_coefficient"])      # parses back
    assert 0.0 <= diag["reflected_flux"] < 1.0  # lossy slab absorbs


def test_forward_deterministic(forward_dir, tmp_path):
    assert main(["forward", *FAST, "--out", str(tmp_path)]) == 0
    a = (forward_dir / "top_field.csv").read_text()
    b = (tmp_path / "top_field.csv").read_text()
    assert a == b


def max_abs_top_field(out: Path) -> float:
    with open(out / "top_field.csv", newline="") as fh:
        return max(abs(complex(float(r["re_u"]), float(r["im_u"])))
                   for r in csv.DictReader(fh))


def test_thick_slab_forward_squares_propagating_modes_only(tmp_path, capsys):
    # the flux squares the propagating modes only, because an evanescent
    # mode carries none; at b = 8 the slab elimination keeps every mode's
    # top coefficient bounded, so the field stays of order 1, and no
    # RuntimeWarning (an error here) is raised
    code, cap = run(["forward", *FAST, "--set", "b=8",
                     "--out", str(tmp_path)], capsys)
    assert code == 0, cap.err
    diag = json.loads((tmp_path / "forward.json").read_text())
    assert 0.0 <= diag["reflected_flux"] < 1.0
    assert max_abs_top_field(tmp_path) <= 10


@pytest.mark.parametrize("b", ["2", "11"])
def test_thick_slab_forward_top_field_stays_bounded(tmp_path, capsys, b):
    # the lens amplifies evanescent modes by e^{|Im eta_n| h}; eliminated
    # in bounded terms, a thick slab solves, and its top field stays of
    # the incident field's order
    code, cap = run(["forward", *FAST, "--set", f"b={b}",
                     "--out", str(tmp_path)], capsys)
    assert code == 0, cap.err
    assert max_abs_top_field(tmp_path) <= 10


def test_opaque_slab_forward_flat_top_value(tmp_path, capsys):
    # rho = 1, kappa = -1 makes the zero mode evanescent in the slab as
    # well; at b = 200 its e^{2i eta_0 h} underflows to 0, no wave crosses
    # the slab, and the flat top value is the half-space one,
    # i tau / (eta_0/rho + gamma_0) = (1 - i) e^{-i omega b}
    overrides = ["rho=1", "kappa=-1", "b=200"]
    code, cap = run(["forward", *FAST,
                     *(arg for o in overrides for arg in ("--set", o)),
                     "--out", str(tmp_path)], capsys)
    assert code == 0, cap.err
    diag = json.loads((tmp_path / "forward.json").read_text())
    phys = build_config(fast=True, overrides=overrides).to_physical()
    assert complex(diag["flat_top_value"]) == pytest.approx(
        (1 - 1j) * cmath.exp(-1j * phys.omega * phys.b), rel=1e-12)


def test_invert_round_trip(forward_dir, tmp_path, capsys):
    code = main(["invert", *FAST, "--data",
                 str(forward_dir / "top_field.csv"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "chose N=" in out
    names = {p.name for p in tmp_path.iterdir()}
    assert {"residual_curve.csv", "truth.ppm", "error_curve.csv",
            "summary.json"} <= names
    assert "recon_N00.ppm" in names and "recon_N12.ppm" in names
    summary = json.loads((tmp_path / "summary.json").read_text())
    # zero-noise data: the discrepancy threshold is 0, never met,
    # so the fallback takes the full N_window
    assert summary["chosen_N"] == 12
    assert not summary["discrepancy_satisfied"]
    assert summary["rel_error_at_chosen"] < 0.05
    assert summary["snr"] is None             # infinite SNR -> null


def test_invert_no_truth(forward_dir, tmp_path):
    code = main(["invert", *FAST, "--no-truth", "--data",
                 str(forward_dir / "top_field.csv"), "--out", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "truth.ppm" not in names
    assert "error_curve.csv" not in names
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "rel_error_at_chosen" not in summary


def test_invert_grid_mismatch(forward_dir, tmp_path, capsys):
    # data on the fast 33-grid, config at the default I=99
    code = main(["invert", "--data", str(forward_dir / "top_field.csv"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "I=" in capsys.readouterr().err


def test_invert_missing_data_file(tmp_path):
    assert main(["invert", *FAST, "--data", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path)]) == 1


def _corrupt_csv(src, dst, edit):
    lines = src.read_text().splitlines()
    dst.write_text("\n".join(edit(lines)) + "\n")
    return dst


def _with_nan(lines):
    fields = lines[40].split(",")
    fields[2] = "nan"
    return lines[:40] + [",".join(fields)] + lines[41:]


@pytest.mark.parametrize("edit", [_with_nan, lambda lines: lines[:-5]],
                         ids=["nan", "missing-rows"])
def test_invert_rejects_bad_data_before_output(forward_dir, tmp_path, capsys,
                                                edit):
    data = _corrupt_csv(forward_dir / "top_field.csv", tmp_path / "bad.csv",
                        edit)
    out = tmp_path / "out"
    code, cap = run(["invert", *FAST, "--data", str(data),
                     "--out", str(out)], capsys)
    assert code == 2
    assert "error:" in cap.err and "Traceback" not in cap.err
    assert not out.exists() or not any(out.iterdir())


_NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e999"]


@st.composite
def _malformed_csv_bodies(draw):
    """A measurement CSV of a small grid with one defect the loader must
    reject: a non-finite value, a short row, a fractional, negative or
    duplicated grid index, or a row too few or too many."""
    I1, I2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    values = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    rows = [[str(i1), str(i2), *(draw(values) for _ in range(4))]
            for i1 in range(I1) for i2 in range(I2)]
    k = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, 1))
    defect = draw(st.sampled_from(["non-finite", "short", "fractional",
                                   "negative", "duplicate", "count"]))
    if defect == "non-finite":
        rows[k][draw(st.integers(0, 5))] = draw(st.sampled_from(_NON_FINITE))
    elif defect == "short":
        del rows[k][draw(st.integers(1, 5)):]
    elif defect == "fractional":
        rows[k][col] = repr(int(rows[k][col]) + draw(st.floats(0.01, 0.99)))
    elif defect == "negative":
        rows[k][col] = str(-draw(st.integers(1, 10)))
    elif defect == "duplicate":
        other = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != k))
        rows[k][:2] = rows[other][:2]
    elif draw(st.booleans()):
        del rows[k]
    else:
        rows.append(list(rows[k]))
    return "\r\n".join([",".join(CSV_HEADER), *map(",".join, rows)]) + "\r\n"


@settings(max_examples=40, deadline=None)
@given(_malformed_csv_bodies())
def test_invert_rejects_malformed_csv_body(tmp_path_factory, body):
    tmp = tmp_path_factory.mktemp("csv")
    data = tmp / "bad.csv"
    data.write_text(body, newline="")
    with pytest.raises(ValueError):
        load_measurement_csv(data)
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["invert", *FAST, "--data", str(data), "--out", str(out)])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
    assert not out.exists()


def test_invert_rejects_window_beyond_grid(forward_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code, cap = run(["invert", *FAST, "--set", "N_window=17", "--data",
                     str(forward_dir / "top_field.csv"), "--out", str(out)],
                    capsys)
    assert code == 2
    assert "N_window=17" in cap.err
    assert not out.exists() or not any(out.iterdir())


# --- bad values at the CLI boundary --------------------------------------------

def _rejects(argv, forward_dir, out):
    """Run main on argv (DATA stands for a valid measurement file) and
    return its exit code and stderr; --out must never be created."""
    data = str(forward_dir / "top_field.csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([data if a == "DATA" else a for a in argv]
                    + ["--out", str(out)])
    assert "Traceback" not in err.getvalue()
    assert not out.exists()
    return code, err.getvalue()


@pytest.mark.parametrize("argv, expect, message", [
    (["forward", *FAST, "--set", "epsilon=nan"], 1, "epsilon: non-finite"),
    (["invert", *FAST, "--set", "epsilon=nan", "--data", "DATA"], 1,
     "epsilon: non-finite"),
    (["forward", *FAST, "--set", "rho=nan"], 1, "rho: non-finite"),
    (["invert", *FAST, "--set", "c=nan", "--data", "DATA"], 1,
     "c: non-finite"),
    (["invert", *FAST, "--set", "c=inf", "--data", "DATA"], 1,
     "c: non-finite"),
    (["forward", *FAST, "--set", "sigma=nan"], 1, "sigma: non-finite"),
    (["invert", *FAST, "--set", "c=-1", "--data", "DATA"], 2,
     "c must be positive"),
    (["experiment", "1", "--fast", "--set", "seed=-5"], 2,
     "seed must be nonnegative"),
    (["invert", *FAST, "--set", "epsilon=0", "--data", "DATA"], 1,
     "--no-truth"),
    (["noise-stats", "--grid", "9", "--sigma", "nan"], 1, "--sigma"),
    (["noise-stats", "--grid", "9", "--sigma", "inf"], 1, "--sigma"),
    (["noise-stats", "--grid", "9", "--sigma", "1e999"], 1, "--sigma"),
    (["noise-stats", "--grid", "9", "--sigma", "x1"], 1, "--sigma"),
    (["noise-stats", "--grid", "9", "--sigma=-0.5"], 2, "sigma"),
    (["forward", *FAST, "--set", "period1=2"], 2, "period2 must be 1"),
    (["experiment", "1", "--fast", "--set", "period2=0.5"], 2,
     "period2 must be 1"),
    (["invert", *FAST, "--set", "period1=2", "--set", "period2=2",
      "--data", "DATA"], 2, "period2 must be 1"),
    (["noise-stats", "--grid", "9", "--seed", "-1"], 2,
     "seed must be nonnegative"),
    # a first solve that fails leaves no output directory behind
    (["forward", *FAST, "--set", "epsilon=0.2"], 2, "reaches the slab"),
    (["forward", *FAST, "--set", "wavelength=1.0"], 2, "resonant mode"),
    (["forward", *FAST, "--set", "epsilon=0.02", "--set", "iter_max=1"], 3,
     "above tolerance"),
    (["experiment", "1", "--fast", "--set", "wavelength=1.0"], 2,
     "resonant mode"),
    # a grid whose first array, az (M+1 floats), is larger than any address
    # space, so its allocation fails at once
    (["forward", *FAST, "--set", f"M={10**17}"], 1,
     f"grid I=33, N_f=8, M={10**17} does not fit in memory"),
    # a wavelength whose omega^2 is zero, subnormal or overflows
    (["forward", *FAST, "--set", "wavelength=0"], 2,
     "wavelength must be positive"),
    (["sweep-sn", "--set", "wavelength=0"], 2, "wavelength must be positive"),
    (["invert", *FAST, "--no-truth", "--set", "wavelength=0", "--data",
      "DATA"], 2, "wavelength must be positive"),
    (["forward", *FAST, "--set", "wavelength=1e-200"], 2, "omega^2"),
    (["forward", *FAST, "--set", "wavelength=1e160"], 2, "omega^2"),
    # a z-grid far too coarse for the wave: 19.6 radians per z-step
    (["forward", *FAST, "--set", "wavelength=1e-3"], 2,
     "M=32 takes 19.6 radians of the wave per z-step, above 0.5: the "
     "z-grid needs M >= 1257"),
    # an omega*b beyond the float range is rejected before any sweep
    (["sweep-sn", "--set", "b=1e308"], 2, "b is too large"),
    (["sweep-sn", "--media=1:1",
      "--media=-0.9793632765511591-1.4713041475491506i:1", "--n-max", "2"],
     3, "layer determinant cancels at mode (0, 0)"),
    # a mode window whose first array, the 2*10**17 + 1 indices of
    # arange, is larger than any address space
    (["sweep-sn", "--n-max", str(10**17)], 1,
     f"--n-max {10**17}: the mode window does not fit in memory"),
    # every profile, not only profile=image, rejects a threshold outside
    # (0, 1)
    (["experiment", "2", "--fast", "--set", "image_threshold=2"], 2,
     "image_threshold must lie in (0, 1)"),
    # every command checks every key, including keys it does not read
    (["sweep-sn", "--set", "I=0"], 2, "I=0 must exceed 2*N_f=24"),
    (["sweep-sn", "--set", "solver=dense"], 2,
     "solver must be 'preconditioned-iterative'"),
    (["sweep-sn", "--set", "profile=4"], 1, "unknown profile '4'"),
    (["sweep-sn", "--set", "iter_tol=-1"], 2, "iter_tol must lie in"),
    (["sweep-sn", "--set", "N_window=-1"], 2, "N_window=-1 outside 0..49"),
    (["sweep-sn", "--set", "profile=image"], 1,
     "profile=image requires image_path"),
    (["forward", *FAST, "--set", "N_window=-1"], 2,
     "N_window=-1 outside 0..16"),
    (["forward", *FAST, "--set", "N_window=1000"], 2,
     "N_window=1000 outside 0..16"),
    # ... and keys a row preset overrides
    (["experiment", "1", "--fast", "--set", "profile=4"], 1,
     "unknown profile '4'"),
    (["experiment", "1", "--fast", "--set", "epsilon=-1"], 2,
     "epsilon must be nonnegative"),
    # a noise grid larger than any address space
    (["noise-stats", "--grid", str(10**8), "--trials", "100"], 1,
     f"--grid {10**8}: the noise grid does not fit in memory"),
    # a finite sigma whose sums of squares overflow
    (["noise-stats", "--grid", "9", "--trials", "100", "--sigma", "1e200"],
     2, "the noise statistics overflow"),
    # a sigma whose per-mode variance (sigma/9)^2 is subnormal or zero
    (["noise-stats", "--grid", "9", "--trials", "100", "--sigma", "1e-320"],
     2, "the noise statistics underflow"),
    (["noise-stats", "--grid", "9", "--trials", "100", "--sigma", "1e-160"],
     2, "the noise statistics underflow"),
    # finite rho and kappa whose (rho/kappa) omega^2 overflows
    (["forward", *FAST, "--set", "rho=1e200", "--set", "kappa=1e-200"], 2,
     "(rho/kappa) omega^2 must be finite"),
    (["sweep-sn", "--n-max", "2", "--media=1e200:1e-200"], 2,
     "(rho/kappa) omega^2 must be finite"),
    # eta_0 = omega sqrt(rho/kappa) = 5.7e-80 vanishes, and the zero mode
    # normalizes every s_n
    (["sweep-sn", "--n-max", "2", "--media=1e-160:1"], 2,
     "eta vanishes at mode (0, 0)"),
], ids=["forward-epsilon-nan", "invert-epsilon-nan", "forward-rho-nan",
       "invert-c-nan", "invert-c-inf", "forward-sigma-nan", "invert-c-negative",
       "experiment-seed-negative", "invert-zero-truth", "noise-stats-sigma-nan",
       "noise-stats-sigma-inf", "noise-stats-sigma-overflow",
       "noise-stats-sigma-junk", "noise-stats-sigma-negative",
       "forward-period-2", "experiment-period-half", "invert-period-2",
       "noise-stats-seed-negative", "forward-too-tall", "forward-resonant",
       "forward-no-convergence", "experiment-resonant", "forward-grid-huge",
       "forward-wavelength-0", "sweep-sn-wavelength-0",
       "invert-wavelength-0", "forward-omega-sq-overflow",
       "forward-omega-sq-subnormal", "forward-z-grid-coarse", "sweep-sn-b-huge",
       "sweep-sn-second-medium-cancels", "sweep-sn-n-max-huge",
       "experiment-image-threshold-2", "sweep-sn-I-0", "sweep-sn-solver",
       "sweep-sn-profile-4", "sweep-sn-iter-tol-negative",
       "sweep-sn-window-negative", "sweep-sn-image-no-path",
       "forward-window-negative", "forward-window-1000",
       "experiment-profile-4", "experiment-epsilon-negative",
       "noise-stats-grid-huge", "noise-stats-sigma-overflows-stats",
       "noise-stats-sigma-1e-320", "noise-stats-sigma-1e-160",
       "forward-contrast-overflow", "sweep-sn-contrast-overflow",
       "sweep-sn-rho-1e-160-zero-mode-resonant"])
def test_bad_value_writes_nothing(forward_dir, tmp_path, argv, expect,
                                  message):
    code, err = _rejects(argv, forward_dir, tmp_path / "out")
    assert code == expect
    assert err.startswith("error: ") and message in err


_FLOAT_KEYS = ["wavelength", "period1", "period2", "a", "b", "epsilon",
               "image_threshold", "iter_tol", "sigma", "target_snr", "c"]
_INT_KEYS = ["I", "N_f", "M", "fd_order", "iter_max", "seed", "N_window"]
_COMPLEX_KEYS = ["rho", "kappa"]
# keys whose negative values every command below rejects
_NEGATIVE_KEYS = ["wavelength", "period1", "period2", "a", "b", "epsilon",
                  "sigma", "target_snr", "c", "seed", "image_threshold", "I",
                  "N_f", "M", "iter_max", "N_window"]
_COMMANDS = [["forward", "--fast"], ["invert", "--fast", "--data", "DATA"],
             ["experiment", "1", "--fast"], ["sweep-sn", "--fast"]]


@st.composite
def _bad_settings(draw):
    """A numeric key and a value every command rejects: non-finite, junk,
    or negative where no command accepts a negative."""
    key = draw(st.sampled_from(_FLOAT_KEYS + _INT_KEYS + _COMPLEX_KEYS))
    bad = ["nan", "inf", "-inf", "NaN", "1e999", "x1", "0.1.2"]
    if key in _COMPLEX_KEYS:
        bad += ["nan+1j", "1+infj", "-1+nanj"]
    values = st.sampled_from(bad)
    if key in _NEGATIVE_KEYS:
        values |= (st.floats(-1e6, -1e-3).map(repr)
                   | st.integers(-10**6, -1).map(str))
    return key, draw(values)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_COMMANDS), _bad_settings())
def test_fuzzed_bad_value_writes_nothing(forward_dir, tmp_path_factory,
                                         command, setting):
    key, value = setting
    out = tmp_path_factory.mktemp("fuzz") / "out"
    code, _ = _rejects([*command, "--set", f"{key}={value}"], forward_dir, out)
    assert code in (1, 2, 3)


# --- config plumbing ----------------------------------------------------------

def test_config_file_and_set_precedence(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("sigma = 0.5\nseed = 7\n")
    d = tmp_path / "out"
    code = main(["forward", "--fast", "--config", str(cfgf),
                 "--set", "sigma=0.25", "--out", str(d)])
    assert code == 0
    diag = json.loads((d / "forward.json").read_text())
    assert diag["config"]["sigma"] == 0.25    # --set beats the file
    assert diag["config"]["seed"] == 7
    assert "seed" not in diag["config"]["defaulted_keys"]


def test_help_lists_config_keys():
    text = build_parser().format_help()
    for key in ("wavelength=", "sigma=", "N_window=", "target_snr"):
        assert key in text


# --- sweep-sn -----------------------------------------------------------------

def test_sweep_sn_ideal_lens_flat(tmp_path, capsys):
    # defaults have a = h = 0.1: the lossless matched slab refocuses all
    # modes, so |s_n| is a constant 1/(2 omega) across the whole window
    code = main(["sweep-sn", "--media=-1:-1", "--n-max", "6",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_sn_1.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["n1", "n2", "abs_alpha"]
    abs_s = [float(row.split(",")[5]) for row in lines[1:]]
    assert len(abs_s) == 13 * 13
    omega = 2 * np.pi / 1.1
    assert np.allclose(abs_s, 1 / (2 * omega), rtol=1e-12)
    idx = json.loads((tmp_path / "sweep_sn_index.json").read_text())
    assert idx["files"][0]["rho"] == "(-1+0j)"


def test_sweep_sn_default_media(tmp_path):
    assert main(["sweep-sn", "--n-max", "3", "--out", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {f"sweep_sn_{k}.csv" for k in (1, 2, 3)} <= names
    assert len(DEFAULT_MEDIA) == 3


def test_sweep_sn_keeps_any_period(tmp_path):
    # sweep-sn builds no surface, so the profiles' unit cell does not apply
    assert main(["sweep-sn", "--set", "period1=2", "--n-max", "3",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, flagged", [
    # a thick slab: the evanescent modes' s_n grows as e^{|Im eta_n| h}
    (["--fast", "--set", "b=20"], [1580, 1580, 1584]),
    (["--n-max", "4", "--set", "b=200"], [76, 76, 76]),
    # a thick gap below the slab: e^{|Im gamma_n| a} grows the same way
    (["--n-max", "4", "--set", "a=40", "--set", "b=40.1", "--set", "M=512"],
     [56, 56, 56]),
    # s_n scales as rho^2: every mode beyond float range
    (["--n-max", "3", "--media=1e300:1"], [49]),
    # huge but finite values: no row flagged
    (["--n-max", "3", "--media=1:1e-300"], [0]),
    # |eta_n/rho| of 5.7e200 and more: s_n scales as 1/rho^2, every mode
    # beyond float range, and sigma_n's terms, about (eta_n/rho)^2, are
    # summed without overflow
    (["--n-max", "2", "--media=1e-200:1e-200"], [25]),
], ids=["fast-b-20", "b-200", "a-40", "rho-1e300", "kappa-1e-300",
       "rho-kappa-1e-200"])
def test_sweep_sn_flags_out_of_range_rows(tmp_path, capsys, argv, flagged):
    # a row is flagged exactly when its values are NaN; it keeps its
    # indices and abs_alpha, and no overflow warning (an error here) is
    # raised
    code, cap = run(["sweep-sn", *argv, "--out", str(tmp_path)], capsys)
    assert code == 0, cap.err
    for k, want in enumerate(flagged, 1):
        with open(tmp_path / f"sweep_sn_{k}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(row["resonant"] == "1" for row in rows) == want
        for row in rows:
            values = [float(row[key]) for key in
                      ("re_s", "im_s", "abs_s", "log10_abs_s")]
            assert float(row["abs_alpha"]) == pytest.approx(
                2 * math.pi * math.hypot(int(row["n1"]), int(row["n2"])))
            if row["resonant"] == "1":
                assert all(math.isnan(v) for v in values), row
            else:
                assert all(math.isfinite(v) for v in values), row


def test_sweep_sn_resonant_rows(tmp_path):
    # wavelength 1 puts the (+-1, 0) and (0, +-1) modes on the Rayleigh
    # circle; their rows stay in the table, flagged, with NaN values
    assert main(["sweep-sn", "--set", "wavelength=1.0", "--n-max", "2",
                 "--out", str(tmp_path)]) == 0
    phys = build_config(overrides=["wavelength=1.0"]).to_physical()
    for k in (1, 2, 3):
        with open(tmp_path / f"sweep_sn_{k}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        for row in rows:
            n = (int(row["n1"]), int(row["n2"]))
            if n in {(1, 0), (-1, 0), (0, 1), (0, -1)}:
                assert row["resonant"] == "1"
                for key in ("re_s", "im_s", "abs_s", "log10_abs_s"):
                    assert row[key] == "nan", (n, key)
                continue
            assert row["resonant"] == "0"
            medium = replace(phys, rho=complex(row["rho"]),
                             kappa=complex(row["kappa"]))
            assert float(row["abs_s"]) == pytest.approx(
                abs(scaling_factor(n, medium)), rel=1e-13, abs=0)


def test_sweep_sn_bad_media(tmp_path):
    assert main(["sweep-sn", "--media=-1+0.01i", "--out",
                 str(tmp_path)]) == 1


# --- noise-stats ---------------------------------------------------------------

def test_sweep_sn_negative_window_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep-sn", "--n-max", "-3", "--out", str(out)]) == 1
    assert "--n-max" in capsys.readouterr().err
    assert not out.exists()


def test_noise_stats(tmp_path, capsys):
    code = main(["noise-stats", "--grid", "9", "--trials", "150",
                 "--sigma", "0.02", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "noise_stats.csv").read_text().splitlines()
    assert lines[0] == "n1,n2,std_re,std_im,cov,expected_std"
    assert len(lines) == 1 + 81
    expected = 0.02 / 9
    for row in lines[1:]:
        vals = row.split(",")
        assert float(vals[5]) == pytest.approx(expected)
        assert float(vals[2]) == pytest.approx(expected, rel=0.4)


def test_noise_stats_rows_row_major(tmp_path):
    assert main(["noise-stats", "--grid", "9", "--trials", "100",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "noise_stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # integer mode indices, n1 the slower one
    assert [(r["n1"], r["n2"]) for r in rows] == [
        (str(n1), str(n2)) for n1 in range(-4, 5) for n2 in range(-4, 5)]
    assert {float(r["expected_std"]) for r in rows} == {0.01 / 9}


def test_noise_stats_tiny_sigma_keeps_its_statistics(tmp_path):
    # (1e-150/9)^2 is still a normal float, so nothing underflows
    assert main(["noise-stats", "--grid", "9", "--trials", "100",
                 "--sigma", "1e-150", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "noise_stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 81
    for r in rows:
        assert float(r["expected_std"]) == pytest.approx(1e-150 / 9)
        assert float(r["std_re"]) == pytest.approx(1e-150 / 9, rel=0.4)
        assert float(r["std_im"]) == pytest.approx(1e-150 / 9, rel=0.4)


# --- experiment (fast smoke; full runs live in the acceptance suite) -----------

def test_experiment_cli(tmp_path, capsys):
    code = main(["experiment", "1", "--fast", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("chose N=3") == 3
    assert (tmp_path / "exp1" / "index.json").exists()
    # the staging directory does not outlive the run
    assert [p.name for p in tmp_path.iterdir()] == ["exp1"]


def test_experiment_window_beyond_grid_writes_nothing(tmp_path, capsys):
    # --fast: I=33 holds modes up to 16
    code, cap = run(["experiment", "1", "--fast", "--set", "N_window=40",
                     "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "N_window=40" in cap.err and "Traceback" not in cap.err
    assert not any(tmp_path.iterdir())


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def test_failed_experiment_leaves_output_tree_as_it_was(tmp_path, capsys):
    # row 1 converges within 8 iterations and writes its files; row 2 does
    # not, so the run fails after writing part of the experiment
    argv = ["experiment", "3", "--fast", "--set", "iter_max=8", "--out"]
    fresh = tmp_path / "fresh"
    code, cap = run([*argv, str(fresh)], capsys)
    assert code == 3 and "above tolerance" in cap.err
    assert not fresh.exists()

    kept = tmp_path / "kept"
    (kept / "exp3").mkdir(parents=True)
    (kept / "exp3" / "marker.txt").write_text("an earlier run\n")
    before = _tree(kept)
    assert run([*argv, str(kept)], capsys)[0] == 3
    assert _tree(kept) == before


# --- staged output -------------------------------------------------------------

_EVERY_COMMAND = [["forward", *FAST], ["invert", *FAST, "--data", "DATA"],
                  ["experiment", "1", "--fast"], ["sweep-sn", "--n-max", "2"],
                  ["noise-stats", "--grid", "9", "--trials", "100"]]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("argv", _EVERY_COMMAND,
                         ids=[a[0] for a in _EVERY_COMMAND])
def test_unusable_out_is_usage_error(forward_dir, tmp_path, capsys, argv,
                                     below):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    data = str(forward_dir / "top_field.csv")
    code, cap = run([data if a == "DATA" else a for a in argv]
                    + ["--out", str(out)], capsys)
    assert code == 1
    assert cap.err.startswith(f"error: cannot write to {out}: ")
    assert "Traceback" not in cap.err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv, earlier, writer", [
    (["forward", *FAST], ["--set", "epsilon=2e-3"], "write_json"),
    # another true surface redraws truth.ppm and every image on its color
    # scale, and a shorter window shortens both curves
    (["invert", *FAST, "--data", "DATA"],
     ["--set", "profile=2", "--set", "N_window=11"], "write_json"),
    (["sweep-sn", "--n-max", "2"], ["--n-max", "3"], "write_json"),
    (["noise-stats", "--grid", "9", "--trials", "100"], ["--seed", "1"],
     "write_csv"),
], ids=["forward", "invert", "sweep-sn", "noise-stats"])
def test_failed_write_leaves_output_tree_as_it_was(forward_dir, tmp_path,
                                                   monkeypatch, capsys, argv,
                                                   earlier, writer):
    data = str(forward_dir / "top_field.csv")
    argv = [data if a == "DATA" else a for a in argv]
    # an earlier run whose files all differ from the ones the failed run
    # writes, so that replacing any of them shows
    kept = tmp_path / "kept"
    assert main([*argv, *earlier, "--out", str(kept)]) == 0
    before = _tree(kept)
    assert main([*argv, "--out", str(tmp_path / "unpatched")]) == 0
    unpatched = _tree(tmp_path / "unpatched")
    assert all(unpatched.get(name) != data for name, data in before.items())
    # the writer writes its file, then fails as a full disk would
    real = getattr(cli, writer)

    def writes_then_fails(path, *args):
        real(path, *args)
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli, writer, writes_then_fails)

    fresh = tmp_path / "fresh" / "out"
    for out in (fresh, kept):
        code, cap = run([*argv, "--out", str(out)], capsys)
        assert code == 1
        assert cap.err.startswith(f"error: cannot write to {out}: ")
        assert "No space left" in cap.err and "Traceback" not in cap.err
    assert not (tmp_path / "fresh").exists()
    assert _tree(kept) == before


def _tree_and_inodes(root):
    return _tree(root), {str(p.relative_to(root)): p.stat().st_ino
                         for p in root.rglob("*")}


def _fail_move(monkeypatch, fails):
    """Make os.replace raise a full disk's error on the move for which
    fails(move number from 1, src, dst) holds; return the moves made."""
    real, moves = os.replace, []

    def move(src, dst):
        moves.append((src, dst))
        if fails(len(moves), Path(src), Path(dst)):
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))
        real(src, dst)

    monkeypatch.setattr(os, "replace", move)
    return moves


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_failed_move_leaves_output_tree_as_it_was(forward_dir, tmp_path,
                                                  monkeypatch, capsys, which):
    # an earlier run with another true surface and the full window: the
    # rerun with a shorter window replaces every file it writes and
    # removes recon_N05..N12, so a move that fails anywhere must put back
    # both the replaced and the removed files, inodes and all
    argv = ["invert", *FAST, "--data", str(forward_dir / "top_field.csv")]
    rerun = [*argv, "--set", "N_window=4", "--out"]
    for name in ("counted", "kept"):
        assert main([*argv, "--set", "profile=2", "--out",
                     str(tmp_path / name)]) == 0
    moves = _fail_move(monkeypatch, lambda k, src, dst: False)
    assert main([*rerun, str(tmp_path / "counted")]) == 0
    fail = {"first": 1, "middle": len(moves) // 2, "last": len(moves)}[which]

    kept = tmp_path / "kept"
    before = _tree_and_inodes(kept)
    _fail_move(monkeypatch, lambda k, src, dst: k == fail)
    code, cap = run([*rerun, str(kept)], capsys)
    assert code == 1
    assert cap.err.startswith(f"error: cannot write to {kept}: ")
    assert "No space left" in cap.err and "Traceback" not in cap.err
    assert _tree_and_inodes(kept) == before


def test_failed_experiment_move_keeps_the_earlier_directory(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # the move that puts the new exp1 in place fails: the earlier exp1 and
    # every inode under it stay
    kept = tmp_path / "kept"
    (kept / "exp1").mkdir(parents=True)
    (kept / "exp1" / "marker.txt").write_text("an earlier run\n")
    before = _tree_and_inodes(kept)
    _fail_move(monkeypatch, lambda k, src, dst: dst == kept / "exp1"
               and src.parent.name.startswith(".staging-"))
    code, cap = run(["experiment", "1", "--fast", "--out", str(kept)], capsys)
    assert code == 1
    assert cap.err.startswith(f"error: cannot write to {kept}: ")
    assert "No space left" in cap.err and "Traceback" not in cap.err
    assert _tree_and_inodes(kept) == before

    # moving the earlier exp1 back fails too: it stays where it went aside,
    # and the error names that directory
    _fail_move(monkeypatch, lambda k, src, dst: dst == kept / "exp1")
    code, cap = run(["experiment", "1", "--fast", "--out", str(kept)], capsys)
    assert code == 1 and "Traceback" not in cap.err
    aside = Path(cap.err.rsplit(" are in ", 1)[1].strip())
    assert aside.parent.parent == kept and not (kept / "exp1").exists()
    assert (aside / "exp1" / "marker.txt").read_text() == "an earlier run\n"


def test_clashing_entry_in_out_moves_nothing(tmp_path, capsys):
    # a directory where forward.json goes: no other staged file may
    # replace its earlier namesake either, so every inode stays
    out = tmp_path / "d"
    assert run(["forward", *FAST, "--out", str(out)]) == 0
    (out / "forward.json").unlink()
    (out / "forward.json").mkdir()
    before = _tree(out)
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    code, cap = run(["forward", *FAST, "--set", "seed=1", "--out", str(out)],
                    capsys)
    assert code == 1
    assert cap.err.startswith(f"error: cannot write to {out}: ")
    assert "forward.json is a directory" in cap.err
    assert "Traceback" not in cap.err
    assert _tree(out) == before
    assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes
    assert not list(out.glob(".staging-*"))


_INVERT = ["invert", *FAST, "--data", "DATA"]
_RECON = [f"recon_N{N:02d}.ppm{ext}" for N in range(13) for ext in ("", ".json")]
_TRUTH = ["error_curve.csv", "truth.ppm", "truth.ppm.json"]


@pytest.mark.parametrize("argv, rerun, want", [
    # a shorter window: recon_N05..N12 and their sidecars go
    (_INVERT, ["--set", "N_window=4"],
     ["residual_curve.csv", "summary.json", *_TRUTH, *_RECON[:10]]),
    # no truth: truth.ppm, its sidecar and error_curve.csv go
    (_INVERT, ["--no-truth"], ["residual_curve.csv", "summary.json", *_RECON]),
    # one medium: sweep_sn_2.csv and sweep_sn_3.csv go
    (["sweep-sn", "--n-max", "2"], ["--media=1:1"],
     ["sweep_sn_1.csv", "sweep_sn_index.json"]),
], ids=["invert-window", "invert-no-truth", "sweep-sn-media"])
def test_rerun_leaves_only_its_own_files(forward_dir, tmp_path, argv, rerun,
                                         want):
    # an earlier run with the default settings writes more of the
    # command's files than the rerun, which removes those it does not
    # write; a file the command does not own, and one named like its
    # families, stay as they were
    argv = [str(forward_dir / "top_field.csv") if a == "DATA" else a
            for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("mine\n")
    (out / "truth.csv").write_text("mine\n")
    assert main([*argv, *rerun, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*want, "notes.txt", "truth.csv"])
    assert (out / "notes.txt").read_text() == "mine\n"
    assert (out / "truth.csv").read_text() == "mine\n"


def test_experiment_bad_id(tmp_path):
    assert main(["experiment", "9", "--out", str(tmp_path)]) == 1


# --- console script -----------------------------------------------------------

def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "superlens_imaging",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_package_import_needs_no_scipy():
    # scipy is a test dependency only: the package imports numpy alone
    code = ("import sys, superlens_imaging.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"

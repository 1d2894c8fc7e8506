import math

import pytest

from superlens_imaging.config import (ExperimentConfig, build_config,
                                      read_config_file)
from superlens_imaging.errors import UsageError
from superlens_imaging.profiles import SurfaceProfile


def test_defaults_match_first_operating_point():
    cfg = ExperimentConfig()
    assert cfg.wavelength == 1.1
    assert cfg.omega == pytest.approx(2 * math.pi / 1.1)
    assert cfg.rho == -1 + 0.01j and cfg.kappa == -1 + 0.01j
    assert cfg.a == 0.1 and cfg.b == 0.2
    assert cfg.epsilon == 1e-3 and cfg.sigma == 0.005
    assert cfg.I == 99 and cfg.N_f == 12 and cfg.M == 64
    assert cfg.c == 1.0 and cfg.N_window == 12
    assert cfg.target_snr == 10.9


def test_build_config_all_defaulted():
    cfg = build_config()
    assert "wavelength" in cfg.defaulted and "sigma" in cfg.defaulted


def test_config_file_parsing(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("""
# an experiment
wavelength = 1.3   # inline comment
rho = -1+0.001i
sigma=0.02
profile = 2
target_snr = none
""")
    cfg = build_config(str(f))
    assert cfg.wavelength == 1.3
    assert cfg.rho == -1 + 0.001j
    assert cfg.sigma == 0.02
    assert cfg.profile == "2"
    assert cfg.target_snr is None
    assert "wavelength" not in cfg.defaulted
    assert "kappa" in cfg.defaulted


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("wavelenght = 1.1\n")
    with pytest.raises(UsageError):
        build_config(str(f))


def test_malformed_line_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("just some words\n")
    with pytest.raises(UsageError):
        build_config(str(f))


def test_set_overrides_file_and_fast(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("I = 55\nM = 48\n")
    cfg = build_config(str(f), overrides=["I=77"], fast=True)
    # precedence: defaults < file < fast < set
    assert cfg.I == 77          # --set wins
    assert cfg.N_f == 8         # from fast
    assert cfg.M == 32          # fast beats the file
    assert "I" not in cfg.defaulted


def test_set_requires_key_value():
    with pytest.raises(UsageError):
        build_config(overrides=["I77"])


def test_set_unknown_key():
    with pytest.raises(UsageError):
        build_config(overrides=["frequency=3"])


def test_complex_parser_accepts_i_suffix():
    cfg = build_config(overrides=["rho=2-0.5i", "kappa=1+0j"])
    assert cfg.rho == 2 - 0.5j
    assert cfg.kappa == 1 + 0j


def test_invalid_value_rejected():
    with pytest.raises(UsageError):
        build_config(overrides=["I=many"])


def test_to_profile_builders():
    assert isinstance(ExperimentConfig(profile="2").to_profile(),
                      SurfaceProfile)
    with pytest.raises(UsageError):
        ExperimentConfig(profile="image").to_profile()  # needs image_path
    with pytest.raises(UsageError):
        ExperimentConfig(profile="7").to_profile()


def test_to_profile_image(tmp_path):
    pgm = tmp_path / "img.pgm"
    pgm.write_text("P2\n2 2\n255\n255 0\n0 255\n")
    cfg = ExperimentConfig(profile="image", image_path=str(pgm))
    p = cfg.to_profile()
    assert p.sample(0.25, 0.75) == 1.0


def test_resolved_dict_is_json_ready():
    import json
    d = build_config(overrides=["sigma=0.01"]).resolved_dict()
    json.dumps(d)  # no complex leaks
    assert d["rho"] == str(-1 + 0.01j)
    assert "omega" in d
    assert "sigma" not in d["defaulted_keys"]
    assert "kappa" in d["defaulted_keys"]


def test_conversions_round_trip():
    cfg = build_config(overrides=["epsilon=0.002", "seed=5"])
    phys = cfg.to_physical()
    assert phys.epsilon == 0.002
    assert phys.omega == pytest.approx(cfg.omega)
    disc = cfg.to_discretization()
    assert (disc.I, disc.N_f, disc.M) == (99, 12, 64)


def test_read_config_file_missing(tmp_path):
    with pytest.raises(UsageError):
        read_config_file(tmp_path / "absent.cfg")

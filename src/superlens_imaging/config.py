"""Flat key=value run configuration shared by every CLI command.

One namespace covers physics, surface selection, discretization, noise,
and inversion controls, so a run is reproducible from a single small text
file.  Unknown keys are rejected rather than ignored — silent typos in a
config burn far more time than a hard error.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields
from pathlib import Path

from .core import PhysicalConfig
from .errors import CutoffOutOfRange, UsageError
from .forward import Discretization, check_z_grid
from .measurement import NoiseSpec
from .profiles import (PROFILE_BUILDERS, SurfaceProfile, check_unit_cell,
                       image_profile)
from .spectral import window_halfwidth

TWO_PI = 6.283185307179586476925287


def _finite(v, s: str):
    if not cmath.isfinite(v):
        raise UsageError(f"non-finite value {s!r}")
    return v


def _parse_float(s: str) -> float:
    return _finite(float(s), s)


def _parse_complex(s: str) -> complex:
    # accept both the i and j spellings of the imaginary unit
    try:
        v = complex(s.strip().replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse complex value {s!r}") from None
    return _finite(v, s)


def _parse_optional_float(s: str):
    if s.strip().lower() in ("none", "off", ""):
        return None
    return _parse_float(s)


@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults reproduce the baseline operating point of the first
    experiment (lossy matched slab, trig surface)."""
    wavelength: float = 1.1
    period1: float = 1.0
    period2: float = 1.0
    a: float = 0.1
    b: float = 0.2
    rho: complex = -1 + 0.01j
    kappa: complex = -1 + 0.01j
    epsilon: float = 0.001
    profile: str = "1"
    image_path: str = ""
    image_threshold: float = 0.5
    I: int = 99
    N_f: int = 12
    M: int = 64
    fd_order: int = 4
    solver: str = "preconditioned-iterative"
    iter_tol: float = 1e-10
    iter_max: int = 200
    sigma: float = 0.005
    seed: int = 0
    target_snr: float | None = 10.9
    c: float = 1.0
    N_window: int = 12
    out: str = "out"
    defaulted: tuple[str, ...] = ()

    def __post_init__(self):
        # every key is checked here, for every command and every replace();
        # the checks that need the surface stay with it (to_profile, solver)
        if not self.wavelength > 0:  # before omega divides by it
            raise ValueError("wavelength must be positive")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.target_snr is not None and not self.target_snr > 0:
            raise ValueError("target_snr must be positive or none")
        if not 0 < self.image_threshold < 1:
            raise ValueError("image_threshold must lie in (0, 1)")
        NoiseSpec(sigma=self.sigma, seed=self.seed)
        # the one solver there is; the key stays so configs name it
        if self.solver != "preconditioned-iterative":
            raise ValueError("solver must be 'preconditioned-iterative'")
        if self.profile not in (*PROFILE_BUILDERS, "image"):
            raise UsageError(f"unknown profile {self.profile!r} "
                             "(choose 1, 2, 3, or image)")
        if self.profile == "image" and not self.image_path:
            raise UsageError("profile=image requires image_path")
        # the grid before the window, so I=24, N_f=12 is a NyquistViolation
        check_z_grid(self.to_physical(), self.to_discretization())
        W = window_halfwidth(self.I)
        if not 0 <= self.N_window <= W:
            raise CutoffOutOfRange(
                f"N_window={self.N_window} outside 0..{W}, the coefficient "
                f"window of an I={self.I} grid")

    # -- conversions to the module-level configs --------------------------

    @property
    def omega(self) -> float:
        return TWO_PI / self.wavelength

    def to_physical(self) -> PhysicalConfig:
        return PhysicalConfig(omega=self.omega, period1=self.period1,
                              period2=self.period2, a=self.a, b=self.b,
                              rho=self.rho, kappa=self.kappa,
                              epsilon=self.epsilon)

    def to_discretization(self) -> Discretization:
        return Discretization(I=self.I, N_f=self.N_f, M=self.M,
                              fd_order=self.fd_order,
                              iter_tol=self.iter_tol, iter_max=self.iter_max)

    def to_profile(self) -> SurfaceProfile:
        check_unit_cell(self.period1, self.period2)
        if self.profile != "image":
            return PROFILE_BUILDERS[self.profile]()
        from .pnm import read_pgm
        pixels = read_pgm(self.image_path)
        return image_profile(pixels, threshold=self.image_threshold)

    def resolved_dict(self) -> dict:
        """JSON-ready view of every key (complex values as strings)."""
        d = {}
        for f in fields(self):
            if f.name == "defaulted":
                continue
            v = getattr(self, f.name)
            d[f.name] = str(v) if isinstance(v, complex) else v
        d["omega"] = self.omega
        d["defaulted_keys"] = sorted(self.defaulted)
        return d


#: one parser per field annotation; a key is declared once, as its field,
#: and a field whose type has no parser here fails at import
_BY_TYPE = {"float": _parse_float, "complex": _parse_complex, "int": int,
            "str": str.strip, "float | None": _parse_optional_float}
_PARSERS = {f.name: _BY_TYPE[f.type] for f in fields(ExperimentConfig)
            if f.name != "defaulted"}

FAST_OVERRIDES = {"I": 33, "N_f": 8, "M": 32}


def _parse_pairs(pairs: dict[str, str], base: dict, provided: set[str]) -> None:
    for key, raw in pairs.items():
        if key not in _PARSERS:
            raise UsageError(f"unknown config key: {key!r}")
        try:
            base[key] = _PARSERS[key](raw)
        except UsageError as exc:
            raise UsageError(f"{key}: {exc}") from None
        except (ValueError, TypeError):
            raise UsageError(f"cannot parse value for {key}: {raw!r}") from None
        provided.add(key)


def read_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; '#' starts a comment; blank lines ignored."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(config_file: str | None = None,
                 overrides: list[str] | None = None,
                 fast: bool = False) -> ExperimentConfig:
    """Assemble a config with precedence defaults < file < --fast < --set."""
    base: dict = {}
    provided: set[str] = set()
    if config_file:
        _parse_pairs(read_config_file(config_file), base, provided)
    if fast:
        for k, v in FAST_OVERRIDES.items():
            base[k] = v
            provided.add(k)
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _parse_pairs({key.strip(): value.strip()}, base, provided)
    base["defaulted"] = tuple(sorted(_PARSERS.keys() - provided))
    return ExperimentConfig(**base)

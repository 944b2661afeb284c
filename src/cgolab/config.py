"""Experiment configuration: a JSON-backed dataclass tree.

A config file is one JSON object; unknown keys are rejected with the
offending field named.  Frequencies are given as integer lattice mode
vectors (k = mode * 2*pi/L), which keeps every configured k exactly on
the lattice.  The canonical serialization (sorted keys, without the
output directory and format) is hashed and embedded in every output
file, so identical config + seed reproduces numeric output byte for
byte wherever it is written.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError

_DEF_BANDS = [8.0, 16.0, 32.0, 64.0]


@dataclass
class GridConfig:
    d: int = 3
    n: int = 32
    L: float = 6.283185307179586


@dataclass
class ProfileConfig:
    kind: str = "gaussian"
    amplitude: float = 0.05
    width: float = 0.3      # gaussian only
    radius: float = 1.1     # c1_cap / cone only
    path: str = ""          # kind == "file"

    def as_profile(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform"}
        if self.kind == "gaussian":
            return {"kind": "gaussian", "amplitude": self.amplitude, "width": self.width}
        if self.kind in ("c1_cap", "cone"):
            return {"kind": self.kind, "amplitude": self.amplitude, "radius": self.radius}
        raise ConfigError(f"profile kind {self.kind!r} has no inline parameters")


@dataclass
class ExperimentConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    profiles: list = field(default_factory=lambda: [ProfileConfig()])
    k_mode: list = field(default_factory=lambda: [0, 0, 1])
    k_modes: list = field(default_factory=list)  # recover / uniqueness-gap
    bands: list = field(default_factory=lambda: list(_DEF_BANDS))
    samples_per_band: int = 16
    trials: int = 16
    u_samples: int = 64
    seed: int = 0
    clamp_eps: float = 1e-6
    tol: float = 1e-10
    max_iter: int = 600
    quad_s: int = 8
    quad_eta: int = 8
    singbound_m: int = 6
    s_values: list = field(default_factory=lambda: list(_DEF_BANDS))
    s: float = 16.0          # solve-cgo
    angle: float = 0.0       # solve-cgo
    out_dir: str = "out"
    out_format: str = "both"  # json | csv | both

    def validate(self):
        _check_types(self, _SCALAR_FIELDS)
        _check_types(self.grid, GridConfig.__annotations__, "grid.")
        if not isinstance(self.profiles, list) or not self.profiles:
            raise ConfigError("profiles must be a nonempty list")
        for i, prof in enumerate(self.profiles):
            _check_types(prof, ProfileConfig.__annotations__, f"profiles[{i}].")
        if self.grid.d < 2:
            raise ConfigError("grid.d must be >= 2")
        if self.grid.n < 8 or self.grid.n % 2:
            raise ConfigError("grid.n must be even and >= 8")
        if not self.grid.L > 0:
            raise ConfigError(f"grid.L must be positive, got {self.grid.L!r}")
        if self.out_format not in ("json", "csv", "both"):
            raise ConfigError(f"unknown out_format {self.out_format!r}")
        if not _is_mode(self.k_mode, self.grid.d):
            raise ConfigError(f"k_mode must be a list of grid.d integers, got {self.k_mode!r}")
        if not isinstance(self.k_modes, list) or not all(
            _is_mode(km, self.grid.d) for km in self.k_modes
        ):
            raise ConfigError(
                f"k_modes must be a list of lists of grid.d integers, got {self.k_modes!r}"
            )
        half = self.grid.n // 2
        for name, modes in (("k_mode", [self.k_mode]), ("k_modes", self.k_modes)):
            for mode in modes:
                if not all(-half <= m < half for m in mode):
                    raise ConfigError(
                        f"{name} entries must lie in [-grid.n/2, grid.n/2) = [{-half}, {half}), "
                        f"got {mode!r}"
                    )
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not self.tol > 0:
            raise ConfigError(f"tol must be a positive number, got {self.tol!r}")
        if not self.clamp_eps > 0:
            raise ConfigError(f"clamp_eps must be a positive number, got {self.clamp_eps!r}")
        if not self.s > 0:
            raise ConfigError(f"s must be a positive number, got {self.s!r}")
        for name, least in {**_INT_MINIMUM, "singbound_m": self.grid.d + 2}.items():
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, increasing in (("bands", True), ("s_values", False)):
            values = getattr(self, name)
            if (
                not isinstance(values, list)
                or not values
                or not all(_is_real(v) and v > 0 for v in values)
                or (increasing and any(b <= a for a, b in zip(values, values[1:])))
            ):
                shape = "strictly increasing " if increasing else ""
                raise ConfigError(
                    f"{name} must be a nonempty {shape}list of positive numbers, got {values!r}"
                )
        if self.trials < len(self.s_values):
            raise ConfigError(
                f"trials must be at least one per s_values entry ({len(self.s_values)}), "
                f"got {self.trials!r}"
            )
        return self


# integer fields and their least value (singbound_m must be >= grid.d + 2)
_INT_MINIMUM = {
    "max_iter": 1,
    "samples_per_band": 1,
    "trials": 1,
    "u_samples": 1,
    "quad_s": 8,
    "quad_eta": 8,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or a finite float: json parses NaN and Infinity."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_mode(value, d: int) -> bool:
    return isinstance(value, list) and len(value) == d and all(_is_int(m) for m in value)


# the check for each scalar annotation: a bool is never a number, and an
# int stands for a float
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
}


def _check_types(obj, annotations: dict, prefix: str = ""):
    for name, annotation in annotations.items():
        check, kind = _TYPE_CHECKS[annotation]
        value = getattr(obj, name)
        if not check(value):
            raise ConfigError(f"{prefix}{name} must be {kind}, got {value!r}")


_SCALAR_FIELDS = {
    f: t
    for f, t in ExperimentConfig.__annotations__.items()
    if f not in ("grid", "profiles", "k_mode", "k_modes", "bands", "s_values")
}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    cfg = ExperimentConfig()
    if "grid" in data:
        gdata = data.pop("grid")
        if not isinstance(gdata, dict):
            raise ConfigError(f"grid must be an object, got {gdata!r}")
        unknown = set(gdata) - {"d", "n", "L"}
        if unknown:
            raise ConfigError(f"unknown grid field(s): {sorted(unknown)}")
        cfg.grid = GridConfig(**{**asdict(cfg.grid), **gdata})
    if "profiles" in data:
        profs = data.pop("profiles")
        if not isinstance(profs, list):
            raise ConfigError("profiles must be a list")
        parsed = []
        for i, p in enumerate(profs):
            if not isinstance(p, dict):
                raise ConfigError(f"profiles[{i}] must be an object, got {p!r}")
            unknown = set(p) - {"kind", "amplitude", "width", "radius", "path"}
            if unknown:
                raise ConfigError(f"profiles[{i}]: unknown field(s) {sorted(unknown)}")
            parsed.append(ProfileConfig(**{**asdict(ProfileConfig()), **p}))
        cfg.profiles = parsed
    for key in ("k_mode", "k_modes", "bands", "s_values"):
        if key in data:
            setattr(cfg, key, data.pop(key))
    for key, value in list(data.items()):
        if key not in _SCALAR_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, value)
    return cfg.validate()


def config_from_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


# where and in which format a run is written does not change what it computes
_UNHASHED_FIELDS = ("out_dir", "out_format")


def canonical_json(cfg: ExperimentConfig) -> str:
    data = config_to_dict(cfg)
    for key in _UNHASHED_FIELDS:
        del data[key]
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    import hashlib  # imported by the runs that write outputs, not at start-up
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]

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

import hashlib
import json
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
    dealias: bool = True
    quad_s: int = 8
    quad_eta: int = 8
    singbound_m: int = 6
    s_values: list = field(default_factory=lambda: list(_DEF_BANDS))
    s: float = 16.0          # solve-cgo
    angle: float = 0.0       # solve-cgo
    out_dir: str = "out"
    out_format: str = "both"  # json | csv | both

    def validate(self):
        if self.grid.d < 2:
            raise ConfigError("grid.d must be >= 2")
        if self.grid.n < 8 or self.grid.n % 2:
            raise ConfigError("grid.n must be even and >= 8")
        if self.grid.L <= 0:
            raise ConfigError("grid.L must be positive")
        if not self.profiles:
            raise ConfigError("at least one profile is required")
        if self.out_format not in ("json", "csv", "both"):
            raise ConfigError(f"unknown out_format {self.out_format!r}")
        if len(self.k_mode) != self.grid.d:
            raise ConfigError("k_mode must have grid.d entries")
        for km in self.k_modes:
            if len(km) != self.grid.d:
                raise ConfigError("every entry of k_modes must have grid.d entries")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not _is_real(self.tol) or not self.tol > 0:
            raise ConfigError(f"tol must be a positive number, got {self.tol!r}")
        if not _is_real(self.clamp_eps) or not self.clamp_eps >= 0:
            raise ConfigError(f"clamp_eps must be a number >= 0, got {self.clamp_eps!r}")
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ConfigError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        return self


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]

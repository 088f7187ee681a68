"""Run configuration: YAML in, validated dataclasses out.

A run config selects a built-in example system, a verification band and
grid, optional synthesis / oracle / weak-decrease stages, and the output
directory.  Parsing is strict: unknown keys, wrong types and
out-of-range numbers all raise ConfigError naming the offending field,
so a typo in a config file dies loudly instead of silently running with
a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from .certificates import GridSpec
from .library import EXAMPLES
from .synthesis import SynthesisConfig
from .systems import ConfigError

__all__ = [
    "SystemConfig",
    "VerifySection",
    "PetrovSection",
    "SynthesisSection",
    "KLSection",
    "OracleSection",
    "OutputSection",
    "RunConfig",
    "load_config",
    "config_from_dict",
]


# ----------------------------------------------------------------------
# field coercers.  Each takes (value, path) and returns the coerced
# value or raises ConfigError mentioning the dotted path.


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"config field '{path}': {msg}")


def _as_float(value, path: str, *, lo: Optional[float] = None, hi: Optional[float] = None,
              lo_open: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        # NaN compares false against every bound, and a NaN tolerance silently skips its check
        _fail(path, f"must be finite, got {v}")
    if lo is not None and (v < lo or (lo_open and v == lo)):
        _fail(path, f"must be {'>' if lo_open else '>='} {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return v


def _as_int(value, path: str, *, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _fail(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(path, f"must be <= {hi}, got {value}")
    return int(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true/false, got {value!r}")
    return bool(value)


def _as_str(value, path: str, *, choices: Optional[Sequence[str]] = None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _as_vector(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, f"expected a non-empty list of numbers, got {value!r}")
    out = []
    for i, v in enumerate(value):
        out.append(_as_float(v, f"{path}[{i}]"))
    return tuple(out)


def _as_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {value!r}")
    return value


def _check_keys(raw: dict, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")


# ----------------------------------------------------------------------
# sections


def _as_grid(value, path: str) -> GridSpec:
    raw = _as_mapping(value, path)
    _check_keys(raw, ("lower", "upper", "spacing"), path)
    for key in ("lower", "upper", "spacing"):
        if key not in raw:
            _fail(path, f"missing required key '{key}'")
    lower = _as_vector(raw["lower"], f"{path}.lower")
    upper = _as_vector(raw["upper"], f"{path}.upper")
    spacing = _as_float(raw["spacing"], f"{path}.spacing")
    try:
        return GridSpec(lower=lower, upper=upper, spacing=spacing)
    except ConfigError as exc:
        _fail(path, str(exc))


@dataclass(frozen=True)
class SystemConfig:
    name: str
    params: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, raw: dict, path: str) -> "SystemConfig":
        raw = _as_mapping(raw, path)
        _check_keys(raw, ("name", "params"), path)
        if "name" not in raw:
            _fail(path, "missing required key 'name'")
        name = _as_str(raw["name"], f"{path}.name")
        if name not in EXAMPLES:
            _fail(f"{path}.name", f"unknown system {name!r}; built-ins: {sorted(EXAMPLES)}")
        params = _as_mapping(raw.get("params"), f"{path}.params")
        for key in params:
            if not isinstance(key, str):
                _fail(f"{path}.params", f"parameter names must be strings, got {key!r}")
        return cls(name=name, params=dict(params))


@dataclass(frozen=True)
class VerifySection:
    delta: float
    sigma: float
    grid: GridSpec
    margin: float = 0.0
    d_tol: float = 1e-3
    u_tol: float = 0.05
    eta: float = 0.1
    n_levels: int = 9
    supersolution: bool = True
    max_points: int = 2_000_000

    @classmethod
    def parse(cls, raw: dict, path: str) -> "VerifySection":
        raw = _as_mapping(raw, path)
        allowed = ("delta", "sigma", "grid", "margin", "d_tol", "u_tol", "eta",
                   "n_levels", "supersolution", "max_points")
        _check_keys(raw, allowed, path)
        for key in ("delta", "sigma", "grid"):
            if key not in raw:
                _fail(path, f"missing required key '{key}'")
        delta = _as_float(raw["delta"], f"{path}.delta", lo=0.0, lo_open=True)
        sigma = _as_float(raw["sigma"], f"{path}.sigma", lo=0.0, lo_open=True)
        if not delta < sigma:
            _fail(path, f"delta={delta} must be < sigma={sigma}")
        kw = dict(
            delta=delta,
            sigma=sigma,
            grid=_as_grid(raw["grid"], f"{path}.grid"),
        )
        if "margin" in raw:
            kw["margin"] = _as_float(raw["margin"], f"{path}.margin", lo=0.0)
        if "d_tol" in raw:
            kw["d_tol"] = _as_float(raw["d_tol"], f"{path}.d_tol", lo=0.0, lo_open=True)
        if "u_tol" in raw:
            kw["u_tol"] = _as_float(raw["u_tol"], f"{path}.u_tol", lo=0.0)
        if "eta" in raw:
            kw["eta"] = _as_float(raw["eta"], f"{path}.eta", lo=0.0, lo_open=True, hi=0.9)
        if "n_levels" in raw:
            kw["n_levels"] = _as_int(raw["n_levels"], f"{path}.n_levels", lo=2, hi=4096)
        if "supersolution" in raw:
            kw["supersolution"] = _as_bool(raw["supersolution"], f"{path}.supersolution")
        if "max_points" in raw:
            kw["max_points"] = _as_int(raw["max_points"], f"{path}.max_points", lo=1000)
        return cls(**kw)


@dataclass(frozen=True)
class PetrovSection:
    enabled: bool = False
    profile: str = "sqrt"
    delta: float = 1.0
    p0_bar: float = 0.5

    @classmethod
    def parse(cls, raw: dict, path: str) -> "PetrovSection":
        raw = _as_mapping(raw, path)
        _check_keys(raw, ("enabled", "profile", "delta", "p0_bar"), path)
        kw = {}
        if "enabled" in raw:
            kw["enabled"] = _as_bool(raw["enabled"], f"{path}.enabled")
        if "profile" in raw:
            kw["profile"] = _as_str(raw["profile"], f"{path}.profile",
                                    choices=("sqrt", "linear", "constant"))
        if "delta" in raw:
            kw["delta"] = _as_float(raw["delta"], f"{path}.delta", lo=0.0, lo_open=True)
        if "p0_bar" in raw:
            kw["p0_bar"] = _as_float(raw["p0_bar"], f"{path}.p0_bar", lo=0.0, lo_open=True, hi=1.0)
        return cls(**kw)


@dataclass(frozen=True, kw_only=True)
class SynthesisSection(SynthesisConfig):
    """The integrator's tunables plus the start states and an optional band top.

    Each tunable is coerced by its ``SynthesisConfig`` field type here;
    its range is checked once, in ``SynthesisConfig.__post_init__``.
    """

    initial_states: tuple
    band_sigma: Optional[float] = None

    @classmethod
    def parse(cls, raw: dict, path: str) -> "SynthesisSection":
        raw = _as_mapping(raw, path)
        coercers = {"float": _as_float, "int": _as_int}
        tunables = {f.name: coercers[f.type] for f in fields(SynthesisConfig)}
        _check_keys(raw, (*tunables, "initial_states", "band_sigma"), path)
        if "initial_states" not in raw:
            _fail(path, "missing required key 'initial_states'")
        states_raw = raw["initial_states"]
        if not isinstance(states_raw, list) or not states_raw:
            _fail(f"{path}.initial_states", "expected a non-empty list of state vectors")
        states = tuple(_as_vector(s, f"{path}.initial_states[{i}]")
                       for i, s in enumerate(states_raw))
        dims = {len(s) for s in states}
        if len(dims) != 1:
            _fail(f"{path}.initial_states", f"states have mixed dimensions {sorted(dims)}")
        kw: dict = {"initial_states": states}
        for name, coerce in tunables.items():
            if name in raw:
                kw[name] = coerce(raw[name], f"{path}.{name}")
        if raw.get("band_sigma") is not None:
            kw["band_sigma"] = _as_float(raw["band_sigma"], f"{path}.band_sigma",
                                         lo=0.0, lo_open=True)
        try:
            return cls(**kw)
        except ConfigError as exc:
            # SynthesisConfig's range messages start with the field's name
            name, _, detail = str(exc).partition(" ")
            _fail(f"{path}.{name}", detail)


@dataclass(frozen=True)
class KLSection:
    enabled: bool = True
    n_knots: int = 33
    tol: float = 1e-9

    @classmethod
    def parse(cls, raw: dict, path: str) -> "KLSection":
        raw = _as_mapping(raw, path)
        _check_keys(raw, ("enabled", "n_knots", "tol"), path)
        kw = {}
        if "enabled" in raw:
            kw["enabled"] = _as_bool(raw["enabled"], f"{path}.enabled")
        if "n_knots" in raw:
            kw["n_knots"] = _as_int(raw["n_knots"], f"{path}.n_knots", lo=4, hi=100000)
        if "tol" in raw:
            kw["tol"] = _as_float(raw["tol"], f"{path}.tol", lo=0.0)
        return cls(**kw)


@dataclass(frozen=True)
class OracleSection:
    grid: GridSpec
    h: float
    iter_tol: float = 1e-8
    max_sweeps: int = 100000
    collar: float = 0.0
    target_radius: Optional[float] = None
    oracle_tol: Optional[float] = None

    @classmethod
    def parse(cls, raw: dict, path: str) -> "OracleSection":
        raw = _as_mapping(raw, path)
        allowed = ("grid", "h", "iter_tol", "max_sweeps", "collar", "target_radius",
                   "oracle_tol")
        _check_keys(raw, allowed, path)
        for key in ("grid", "h"):
            if key not in raw:
                _fail(path, f"missing required key '{key}'")
        kw: dict = {
            "grid": _as_grid(raw["grid"], f"{path}.grid"),
            "h": _as_float(raw["h"], f"{path}.h", lo=0.0, lo_open=True),
        }
        if "iter_tol" in raw:
            kw["iter_tol"] = _as_float(raw["iter_tol"], f"{path}.iter_tol", lo=0.0, lo_open=True)
        if "max_sweeps" in raw:
            kw["max_sweeps"] = _as_int(raw["max_sweeps"], f"{path}.max_sweeps", lo=1)
        if "collar" in raw:
            kw["collar"] = _as_float(raw["collar"], f"{path}.collar", lo=0.0)
        if "target_radius" in raw and raw["target_radius"] is not None:
            kw["target_radius"] = _as_float(raw["target_radius"], f"{path}.target_radius",
                                            lo=0.0, lo_open=True)
        if "oracle_tol" in raw and raw["oracle_tol"] is not None:
            kw["oracle_tol"] = _as_float(raw["oracle_tol"], f"{path}.oracle_tol",
                                         lo=0.0, lo_open=True)
        return cls(**kw)


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"

    @classmethod
    def parse(cls, raw: dict, path: str) -> "OutputSection":
        raw = _as_mapping(raw, path)
        _check_keys(raw, ("dir",), path)
        kw = {}
        if "dir" in raw:
            kw["dir"] = _as_str(raw["dir"], f"{path}.dir")
        return cls(**kw)


# ----------------------------------------------------------------------
# top level


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    verify: Optional[VerifySection] = None
    synthesis: Optional[SynthesisSection] = None
    kl: KLSection = field(default_factory=KLSection)
    oracle: Optional[OracleSection] = None
    petrov: PetrovSection = field(default_factory=PetrovSection)
    output: OutputSection = field(default_factory=OutputSection)
    seed: int = 0

    def digest(self) -> str:
        """Stable fingerprint of the parsed config, for report provenance."""
        blob = json.dumps(_as_plain(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def require(self, section: str) -> object:
        val = getattr(self, section)
        if val is None:
            raise ConfigError(f"config is missing the '{section}' section required "
                              f"by this command")
        return val


def _as_plain(obj):
    if is_dataclass(obj):
        return {k: _as_plain(v) for k, v in vars(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _as_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_plain(v) for v in obj]
    return obj


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a raw mapping (already YAML-parsed) into a RunConfig."""
    raw = _as_mapping(raw, "<root>")
    allowed = ("seed", "system", "verify", "synthesis", "kl", "oracle", "petrov", "output")
    _check_keys(raw, allowed, "<root>")
    if "system" not in raw:
        _fail("<root>", "missing required section 'system'")
    kw: dict = {"system": SystemConfig.parse(raw["system"], "system")}
    if "seed" in raw:
        kw["seed"] = _as_int(raw["seed"], "seed", lo=0)
    if "verify" in raw:
        kw["verify"] = VerifySection.parse(raw["verify"], "verify")
    if "synthesis" in raw:
        kw["synthesis"] = SynthesisSection.parse(raw["synthesis"], "synthesis")
    if "kl" in raw:
        kw["kl"] = KLSection.parse(raw["kl"], "kl")
    if "oracle" in raw:
        kw["oracle"] = OracleSection.parse(raw["oracle"], "oracle")
    if "petrov" in raw:
        kw["petrov"] = PetrovSection.parse(raw["petrov"], "petrov")
    if "output" in raw:
        kw["output"] = OutputSection.parse(raw["output"], "output")
    cfg = RunConfig(**kw)
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: RunConfig) -> None:
    """Checks that span sections: dimensions must agree with the system."""
    try:
        example = EXAMPLES[cfg.system.name](**cfg.system.params)
    except TypeError as exc:
        raise ConfigError(f"system.params: {exc}") from None
    dim = example.system.state_dim
    if cfg.verify is not None and cfg.verify.grid.dim != dim:
        _fail("verify.grid", f"grid is {cfg.verify.grid.dim}-d but system "
                             f"'{cfg.system.name}' has state dimension {dim}")
    if cfg.synthesis is not None:
        sdim = len(cfg.synthesis.initial_states[0])
        if sdim != dim:
            _fail("synthesis.initial_states",
                  f"states are {sdim}-d but system '{cfg.system.name}' has "
                  f"state dimension {dim}")
    if cfg.oracle is not None and cfg.oracle.grid.dim != dim:
        _fail("oracle.grid", f"grid is {cfg.oracle.grid.dim}-d but system "
                             f"'{cfg.system.name}' has state dimension {dim}")


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML run config."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {p} is not valid YAML: {exc}") from None
    if raw is None:
        raise ConfigError(f"config file {p} is empty")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {p} must contain a mapping at top level")
    return config_from_dict(raw)

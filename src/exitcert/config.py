"""Run configuration: YAML in, validated dataclasses out.

A run config selects a built-in example system, a verification band and
grid, optional synthesis / oracle / weak-decrease stages, and the output
directory.  Every section is a dataclass whose fields are its keys.
Parsing is strict: unknown keys, wrong types and out-of-range numbers
all raise ConfigError naming the offending field, so a typo in a config
file dies loudly instead of silently running with a default.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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
# field coercers.  Each takes (value, path, **bounds) and returns the
# coerced value or raises ConfigError mentioning the dotted path.


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


def _as_states(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of state vectors")
    states = tuple(_as_vector(s, f"{path}[{i}]") for i, s in enumerate(value))
    dims = {len(s) for s in states}
    if len(dims) != 1:
        _fail(path, f"states have mixed dimensions {sorted(dims)}")
    return states


def _as_params(value, path: str) -> dict:
    params = _as_mapping(value, path)
    for key, v in params.items():
        if not isinstance(key, str):
            _fail(path, f"parameter names must be strings, got {key!r}")
        if isinstance(v, float) and not math.isfinite(v):
            # the examples' own range checks compare false against NaN
            _fail(f"{path}.{key}", f"must be finite, got {v}")
    return dict(params)


# ----------------------------------------------------------------------
# sections.  Each parses from its dataclass fields: a field's name is a
# key, a field without a default is required, the field's type picks the
# coercer and the field's metadata holds the bounds passed to it.


def _bounded(default=MISSING, **bounds):
    """A section field whose value must meet ``bounds`` (lo, lo_open, hi, choices)."""
    return field(default=default, metadata=bounds)


_COERCERS = {
    float: _as_float,
    int: _as_int,
    bool: _as_bool,
    str: _as_str,
    np.ndarray: _as_vector,
    tuple: _as_states,
    dict: _as_params,
}


def _parse(cls, value, path: str):
    """Build the dataclass ``cls`` from a YAML mapping; the root has path ''.

    ``null`` stands for the default only where the field is Optional.
    Any other dataclass type is a nested section.
    """
    where = path or "<root>"
    raw = _as_mapping(value, where)
    specs = fields(cls)
    _check_keys(raw, [f.name for f in specs], where)
    kinds = typing.get_type_hints(cls)
    kw = {}
    for f in specs:
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                _fail(where, f"missing required key '{f.name}'")
            continue
        value, kind = raw[f.name], kinds[f.name]
        if type(None) in typing.get_args(kind):
            if value is None:
                continue
            kind = typing.get_args(kind)[0]
        sub = f"{path}.{f.name}" if path else f.name
        coerce = _COERCERS.get(kind)
        kw[f.name] = coerce(value, sub, **f.metadata) if coerce else _parse(kind, value, sub)
    try:
        return cls(**kw)
    except ConfigError as exc:
        # SynthesisConfig's range messages start with the field's name
        name, _, detail = str(exc).partition(" ")
        if name in kw:
            _fail(f"{path}.{name}", detail)
        _fail(where, str(exc))


@dataclass(frozen=True)
class SystemConfig:
    name: str = _bounded(choices=tuple(EXAMPLES))
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifySection:
    delta: float = _bounded(lo=0.0, lo_open=True)
    sigma: float = _bounded(lo=0.0, lo_open=True)
    grid: GridSpec
    margin: float = _bounded(0.0, lo=0.0)
    d_tol: float = _bounded(1e-3, lo=0.0, lo_open=True)
    u_tol: float = _bounded(0.05, lo=0.0)
    eta: float = _bounded(0.1, lo=0.0, lo_open=True, hi=0.9)
    n_levels: int = _bounded(9, lo=2, hi=4096)
    supersolution: bool = True
    max_points: int = _bounded(2_000_000, lo=1000)


@dataclass(frozen=True)
class PetrovSection:
    enabled: bool = False
    profile: str = _bounded("sqrt", choices=("sqrt", "linear", "constant"))
    delta: float = _bounded(1.0, lo=0.0, lo_open=True)
    p0_bar: float = _bounded(0.5, lo=0.0, lo_open=True, hi=1.0)


@dataclass(frozen=True, kw_only=True)
class SynthesisSection(SynthesisConfig):
    """The integrator's tunables plus the start states and an optional band top.

    Each tunable's range is checked once, in ``SynthesisConfig.__post_init__``.
    """

    initial_states: tuple
    band_sigma: Optional[float] = _bounded(None, lo=0.0, lo_open=True)


@dataclass(frozen=True)
class KLSection:
    enabled: bool = True
    n_knots: int = _bounded(33, lo=4, hi=100000)
    tol: float = _bounded(1e-9, lo=0.0)


@dataclass(frozen=True)
class OracleSection:
    grid: GridSpec
    h: float = _bounded(lo=0.0, lo_open=True)
    iter_tol: float = _bounded(1e-8, lo=0.0, lo_open=True)
    max_sweeps: int = _bounded(100000, lo=1)
    collar: float = _bounded(0.0, lo=0.0)
    target_radius: Optional[float] = _bounded(None, lo=0.0, lo_open=True)
    oracle_tol: Optional[float] = _bounded(None, lo=0.0, lo_open=True)


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"


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
    seed: int = _bounded(0, lo=0)

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
    cfg = _parse(RunConfig, raw, "")
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: RunConfig) -> None:
    """Checks that span fields: the band's order, and dimensions against the system."""
    if cfg.verify is not None and not cfg.verify.delta < cfg.verify.sigma:
        _fail("verify", f"delta={cfg.verify.delta} must be < sigma={cfg.verify.sigma}")
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

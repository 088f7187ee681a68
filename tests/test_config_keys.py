"""Every run-config key and every example is used by a bundled config or kept for a reason.

A key that no file in ``configs/`` sets has one value in use, its default,
and so is a constant in disguise; so is a key that the configs set only
to its default.  Such a key stays only with a reason in
``UNSET_BY_CONFIGS``; any other one fails here, naming the key.  Likewise
an example in ``library.EXAMPLES`` that no config names stays only with a
reason in ``UNNAMED_BY_CONFIGS``.
"""

import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import yaml

from exitcert.config import RunConfig
from exitcert.library import EXAMPLES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

UNSET_BY_CONFIGS = {
    "verify.margin": "the paper's strictness margin; the CLI tests' only route to "
                     "Hamiltonian records that carry p",
    "oracle.iter_tol": "the oracle's stopping rule, which ROADMAP items 9 and 10 revisit",
    "oracle.max_sweeps": "the CLI tests' only route to exit 3 (non-convergence)",
    "oracle.target_radius": "oracle numerics, which ROADMAP items 9 and 10 revisit",
    "oracle.oracle_tol": "the oracle's tolerance, which ROADMAP item 9 measures",
}

# example name -> why it stays although no bundled config names it
UNNAMED_BY_CONFIGS: dict = {}


def _configs() -> list:
    return [yaml.safe_load(p.read_text()) for p in sorted(CONFIGS.glob("*.yaml"))]


def _leaf_fields(cls, prefix: str = "") -> dict:
    """Dotted key -> field, for every leaf field of ``cls``, descending into nested sections."""
    kinds = typing.get_type_hints(cls)
    leaves = {}
    for f in fields(cls):
        kind = kinds[f.name]
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        key = prefix + f.name
        leaves |= _leaf_fields(kind, key + ".") if is_dataclass(kind) else {key: f}
    return leaves


def _set_values(tree: dict, prefix: str = "") -> dict:
    """Dotted key -> [value] for every key a YAML tree sets, at every depth: system.params too."""
    values: dict = {}
    for name, value in tree.items():
        key = prefix + name
        values[key] = [value]
        if isinstance(value, dict):
            values |= _set_values(value, key + ".")
    return values


def _values_in_configs() -> dict:
    """Dotted key -> every value the bundled configs set it to."""
    merged: dict = {}
    for tree in _configs():
        for key, values in _set_values(tree).items():
            merged.setdefault(key, []).extend(values)
    return merged


def test_every_key_is_set_by_a_config_or_allowlisted():
    set_by_configs = _values_in_configs()
    unset = [k for k in _leaf_fields(RunConfig) if k not in set_by_configs]
    assert sorted(unset) == sorted(UNSET_BY_CONFIGS), (
        "keys no bundled config sets, beyond the allowlist: "
        f"{sorted(set(unset) - set(UNSET_BY_CONFIGS))}; allowlisted but set or gone: "
        f"{sorted(set(UNSET_BY_CONFIGS) - set(unset))}"
    )


def test_every_default_is_overridden_by_a_config_or_allowlisted():
    """A key with a default that no config sets to another value has one value in use."""
    values = _values_in_configs()
    one_value = []
    for key, f in _leaf_fields(RunConfig).items():
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            continue  # required: any config with the section sets it
        if all(v == default for v in values.get(key, [])):
            one_value.append(key)
    assert sorted(one_value) == sorted(UNSET_BY_CONFIGS), (
        "keys no bundled config sets to a value other than their default, beyond the "
        f"allowlist: {sorted(set(one_value) - set(UNSET_BY_CONFIGS))}; allowlisted but "
        f"set to another value or gone: {sorted(set(UNSET_BY_CONFIGS) - set(one_value))}"
    )


def test_every_example_is_named_by_a_config_or_allowlisted():
    named = {tree["system"]["name"] for tree in _configs()}
    unnamed = [name for name in EXAMPLES if name not in named]
    assert sorted(unnamed) == sorted(UNNAMED_BY_CONFIGS), (
        f"examples no bundled config names, beyond the allowlist: "
        f"{sorted(set(unnamed) - set(UNNAMED_BY_CONFIGS))}; allowlisted but named or gone: "
        f"{sorted(set(UNNAMED_BY_CONFIGS) - set(unnamed))}"
    )

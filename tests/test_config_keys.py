"""Every run-config key and every example is used by a bundled config or kept for a reason.

A key that no file in ``configs/`` sets has one value in use, its default,
and so is a constant in disguise.  Such a key stays only with a reason in
``UNSET_BY_CONFIGS``; any other one fails here, naming the key.  Likewise
an example in ``library.EXAMPLES`` that no config names stays only with a
reason in ``UNNAMED_BY_CONFIGS``.
"""

import typing
from dataclasses import fields, is_dataclass
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
    "petrov.p0_bar": "the p0_bar of the weak-decrease check, a number the paper's runs choose",
}

# example name -> why it stays although no bundled config names it
UNNAMED_BY_CONFIGS: dict = {}


def _configs() -> list:
    return [yaml.safe_load(p.read_text()) for p in sorted(CONFIGS.glob("*.yaml"))]


def _leaf_keys(cls, prefix: str = "") -> list:
    """The dotted keys of ``cls``'s fields, descending into nested sections."""
    kinds = typing.get_type_hints(cls)
    keys = []
    for f in fields(cls):
        kind = kinds[f.name]
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        key = prefix + f.name
        keys += _leaf_keys(kind, key + ".") if is_dataclass(kind) else [key]
    return keys


def _set_keys(tree: dict, prefix: str = "") -> set:
    """The dotted keys a YAML tree sets, at every depth: system.params and its entries too."""
    keys = set()
    for name, value in tree.items():
        key = prefix + name
        keys.add(key)
        if isinstance(value, dict):
            keys |= _set_keys(value, key + ".")
    return keys


def test_every_key_is_set_by_a_config_or_allowlisted():
    keys = _leaf_keys(RunConfig)
    set_by_configs = set().union(*(_set_keys(tree) for tree in _configs()))
    unset = [k for k in keys if k not in set_by_configs]
    assert sorted(unset) == sorted(UNSET_BY_CONFIGS), (
        "keys no bundled config sets, beyond the allowlist: "
        f"{sorted(set(unset) - set(UNSET_BY_CONFIGS))}; allowlisted but set or gone: "
        f"{sorted(set(UNSET_BY_CONFIGS) - set(unset))}"
    )


def test_every_example_is_named_by_a_config_or_allowlisted():
    named = {tree["system"]["name"] for tree in _configs()}
    unnamed = [name for name in EXAMPLES if name not in named]
    assert sorted(unnamed) == sorted(UNNAMED_BY_CONFIGS), (
        f"examples no bundled config names, beyond the allowlist: "
        f"{sorted(set(unnamed) - set(UNNAMED_BY_CONFIGS))}; allowlisted but named or gone: "
        f"{sorted(set(UNNAMED_BY_CONFIGS) - set(unnamed))}"
    )

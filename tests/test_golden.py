"""Pinned golden runs: the four bundled configs, regenerated and digested.

Each ``golden/<config>.json`` holds the exit code of every CLI stage the
config runs through, the sha256 of every artifact those stages write
(JSON reports hashed after dropping every ``tool_version`` field, so a
version bump alone moves nothing), and the headline numbers of the run.
A change that moves a digest changes behaviour.  To accept such a
change, rewrite the manifests from fresh runs with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each config, the artifacts whose digests moved against
the manifest it overwrites; say in the change log which moved and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from exitcert.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# the CLI stages each bundled config runs through, in order
STAGES = {
    "minimum_time": ("verify", "synthesize", "oracle", "report"),
    "spiral_ring": ("verify", "synthesize", "oracle", "report"),
    "spiral": ("verify",),
    "power_law_reject": ("verify",),
}

# headline name -> (artifact, key path); recorded where the run has it
HEADLINES = {
    "verify_passed": ("verify_report.json", ("passed",)),
    "worst_h": ("verify_report.json", ("certificate", "worst_h")),
    "n_band": ("verify_report.json", ("certificate", "n_band")),
    "supersolution_n_checked": ("verify_report.json", ("supersolution", "n_checked")),
    "total_cost": ("synthesis_report.json", ("states", 0, "total_cost")),
    "cost_bound": ("synthesis_report.json", ("states", 0, "cost_bound")),
    "worst_gap": ("oracle_report.json", ("bound_comparison", "worst_gap")),
    "n_checked": ("oracle_report.json", ("bound_comparison", "n_checked")),
    "sweeps": ("oracle_report.json", ("sweeps",)),
}


def _strip_tool_version(tree):
    if isinstance(tree, dict):
        return {k: _strip_tool_version(v) for k, v in tree.items() if k != "tool_version"}
    if isinstance(tree, list):
        return [_strip_tool_version(v) for v in tree]
    return tree


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        tree = _strip_tool_version(json.loads(data))
        data = (json.dumps(tree, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def _moved(pinned: dict, fresh: dict) -> list:
    """The artifacts whose digests differ between two sha256 maps, or that only one has."""
    return sorted(f for f in pinned.keys() | fresh.keys() if pinned.get(f) != fresh.get(f))


def _headline(out: Path) -> dict:
    found = {}
    for name, (fname, keys) in HEADLINES.items():
        path = out / fname
        if not path.is_file():
            continue
        node = json.loads(path.read_text())
        for key in keys:
            node = node[key] if node is not None else None
        if node is not None:
            found[name] = node
    return found


def run_config(name: str, out: Path) -> dict:
    """Run one bundled config into out; returns its manifest."""
    cfg = str(ROOT / "configs" / f"{name}.yaml")
    codes = [
        main([stage, "-o", str(out)] if stage == "report" else [stage, "-c", cfg, "-o", str(out)])
        for stage in STAGES[name]
    ]
    return {
        "exit_codes": codes,
        "sha256": {p.name: _digest(p) for p in sorted(out.iterdir())},
        "headline": _headline(out),
    }


@pytest.mark.parametrize("name", sorted(STAGES))
def test_bundled_run_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run_config(name, tmp_path)
    moved = _moved(golden["sha256"], got["sha256"])
    assert not moved, (
        f"{name}: artifacts differ from tests/golden/{name}.json: {moved}; "
        f"headline pinned {golden['headline']}, fresh {got['headline']}"
    )
    assert got["headline"] == golden["headline"]
    assert got["exit_codes"] == golden["exit_codes"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for config in STAGES:
        path = GOLDEN / f"{config}.json"
        pinned = json.loads(path.read_text())["sha256"] if path.is_file() else {}
        with tempfile.TemporaryDirectory() as tmp:
            manifest = run_config(config, Path(tmp))
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        moved = _moved(pinned, manifest["sha256"])
        print(f"wrote tests/golden/{config}.json; moved: {', '.join(moved) or 'none'}")

"""The three workloads: which CLI calls each makes, and what each call must produce.

* ``ring``: ``configs/spiral_ring.yaml`` as bundled, verify -> synthesize
  -> oracle -> report.  The heaviest pinned run: 17 Gauss-Seidel sweeps
  over 28,561 oracle nodes and 2-D scalar synthesis, so oracle-kernel and
  2-D synthesis changes show here.
* ``line``: ``configs/minimum_time.yaml`` with ``synthesis.initial_states``
  replaced by four seeded starts, same four stages.  Synthesis is nearly
  the whole run and its four independent starts are the only fan-out a
  worker pool could use; an oracle change should not move it.
* ``wide_band``: verify on ``configs/spiral.yaml`` (674,041 grid points,
  batch path, the highest peak memory), then verify on
  ``configs/power_law_reject.yaml``, which must be rejected.  No synthesis
  and no oracle, so changes there should move nothing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

LINE_BASE = "configs/minimum_time.yaml"
LINE_STARTS = 4
LINE_ABS_X0 = (0.25, 1.45)

# bound-comparison node counts of the two pinned oracle grids
ORACLE_N_CHECKED = {"line": 400, "ring": 18280}


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload."""

    command: str  # verify | synthesize | oracle | report
    config: Path | None  # None for report
    out: str  # output subdirectory of the repetition
    metric: str | None  # end-to-end stage metric it feeds, if any
    expect_exit: int = 0


NAMES = ("ring", "line", "wide_band")


def line_config(root: Path, seed: int) -> dict:
    """minimum_time.yaml with only synthesis.initial_states drawn from the seed.

    Each start takes its own slice of the |x0| range (stratified
    sampling), so the starts still cover the range uniformly but the
    synthesis work, which grows with |x0|, varies little between seeds.
    """
    cfg = yaml.safe_load((root / LINE_BASE).read_text())
    rng = random.Random(seed)
    lo, hi = LINE_ABS_X0
    width = (hi - lo) / LINE_STARTS
    starts = []
    for k in range(LINE_STARTS):
        x = rng.uniform(lo + k * width, lo + (k + 1) * width)
        starts.append([x if rng.random() < 0.5 else -x])
    cfg["synthesis"]["initial_states"] = starts
    return cfg


def check_line_config(root: Path, cfg: dict) -> None:
    """Raise unless cfg differs from the base config only in the start states."""
    base = yaml.safe_load((root / LINE_BASE).read_text())
    ours = json.loads(json.dumps(cfg))
    if len(ours["synthesis"].pop("initial_states")) != LINE_STARTS:
        raise ValueError("line config must carry exactly the generated starts")
    base["synthesis"].pop("initial_states")
    if ours != base:
        raise ValueError("line config differs from the base beyond initial_states")


def calls(workload: str, root: Path, work: Path, seed: int) -> tuple[list[Call], list[str]]:
    """The workload's CLI calls and the extra CLI arguments every call gets."""
    if workload == "ring":
        cfg = root / "configs/spiral_ring.yaml"
        return _pipeline(cfg, "ring"), ["--seed", str(seed)]
    if workload == "line":
        cfg = line_config(root, seed)
        check_line_config(root, cfg)
        path = work / "line.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        # the seed shapes the config; the program sees only the file
        return _pipeline(path, "line"), []
    if workload == "wide_band":
        return [
            Call("verify", root / "configs/spiral.yaml", "spiral", "verify_s"),
            Call("verify", root / "configs/power_law_reject.yaml", "power_law", None,
                 expect_exit=1),
        ], ["--seed", str(seed)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def _pipeline(cfg: Path, out: str) -> list[Call]:
    return [
        Call("verify", cfg, out, "verify_s"),
        Call("synthesize", cfg, out, "synthesize_s"),
        Call("oracle", cfg, out, "oracle_s"),
        Call("report", None, out, "report_s"),
    ]


def argv(call: Call, out_dir: Path, extra: list[str]) -> list[str]:
    if call.command == "report":
        return ["report", "-o", str(out_dir)]
    return [call.command, "-c", str(call.config), "-o", str(out_dir), *extra]


# -- output checks ---------------------------------------------------------


def check(workload: str, call: Call, exit_code, out_dir: Path) -> tuple[list[str], dict]:
    """Problems with one call's outputs (empty when correct) and its headline numbers.

    Headline numbers are recorded, not gated: a change of method may move
    them legitimately.
    """
    if exit_code != call.expect_exit:
        return [f"exit code {exit_code}, expected {call.expect_exit}"], {}
    try:
        if call.command == "verify":
            return _check_verify(call, _load(out_dir / "verify_report.json"))
        if call.command == "synthesize":
            return _check_synthesize(_load(out_dir / "synthesis_report.json"))
        if call.command == "oracle":
            return _check_oracle(workload, _load(out_dir / "oracle_report.json"))
        rep = _load(out_dir / "report.json")
        return ([] if rep.get("passed") is True else ["report: overall not passed"]), {}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{call.command}: unreadable output: {type(exc).__name__}: {exc}"], {}


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_verify(call: Call, rep: dict):
    if call.expect_exit == 1:
        reason = (rep.get("rejection") or {}).get("reason")
        if reason != "positive_definiteness":
            return [f"verify: rejection reason {reason!r}, expected positive_definiteness"], {}
        return [], {}
    problems = []
    cert = rep.get("certificate") or {}
    if rep.get("passed") is not True:
        problems.append("verify: not passed")
    worst_h = cert.get("worst_h")
    if worst_h is None or not worst_h < 0:
        problems.append(f"verify: worst_h {worst_h!r} is not negative")
    return problems, {"worst_h": worst_h, "band_samples": cert.get("n_band"),
                      "grid_points": cert.get("n_grid")}


def _check_synthesize(rep: dict):
    problems = []
    if rep.get("passed") is not True:
        problems.append("synthesize: not passed")
    states = rep["states"]
    for st in states:
        i = st.get("index")
        if st.get("ok") is not True:
            problems.append(f"synthesize: state {i} not ok")
        if not st["total_cost"] <= st["cost_bound"]:
            problems.append(f"synthesize: state {i} cost {st['total_cost']} > {st['cost_bound']}")
        if (st.get("decay_audit") or {}).get("passed") is not True:
            problems.append(f"synthesize: state {i} decay audit not passed")
    return problems, {"total_cost": sum(st["total_cost"] for st in states),
                      "starts": len(states)}


def _check_oracle(workload: str, rep: dict):
    problems = []
    cmp_ = rep.get("bound_comparison") or {}
    if cmp_.get("passed") is not True:
        problems.append("oracle: bound comparison not passed")
    if cmp_.get("n_checked") != ORACLE_N_CHECKED[workload]:
        problems.append(f"oracle: n_checked {cmp_.get('n_checked')}, "
                        f"expected {ORACLE_N_CHECKED[workload]}")
    return problems, {"worst_gap": cmp_.get("worst_gap"), "sweeps": rep.get("sweeps"),
                      "oracle_nodes": rep.get("n_nodes")}

#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric, and check the output.

    python3 perfbench/check.py

For each workload this prints the benchmark's summary lines (every
end-to-end metric by name and unit, ``failed_ops``, headline numbers) and
then checks that:

* each run ends with the result object, ``correct`` and no failed call;
* every end-to-end and per-layer metric of BENCHMARK.json is present,
  and no end-to-end metric is 0;
* the ``line`` generator is deterministic in the seed and changes only
  ``synthesis.initial_states``;
* the wrappers are wired: every hook was applied (the ``trace_problems``
  line is empty), a per-layer metric is 0 exactly where ``NOT_RUN`` says
  its layer does not run, and on ``ring`` the sweeps are most of value
  iteration and bisection most of synthesis.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0
SECONDS = 1.0  # per run; one untraced and one traced repetition are always made

# per-layer metrics (names or name prefixes) that read 0 on a workload
# because the code they measure does not run there; the README's
# prediction table says the same.  Every other per-layer metric must be
# nonzero: a 0 means a wrapper no longer sits where the work is.
NOT_RUN = {
    "ring": ("certificates.check_weak_petrov.s",),  # its config leaves the Petrov check off
    "line": (),
    "wide_band": (  # verify only
        "stage.synthesize_s", "stage.oracle_s", "stage.report_s", "synthesis.", "pwl.",
        "oracle.", "kernels.", "systems.", "cli.write_trajectory_csv.s",
        "cli.write_value_table_csv.s", "certificates.check_weak_petrov.s",
    ),
}


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    a, b = workloads.line_config(ROOT, SEED), workloads.line_config(ROOT, SEED)
    workloads.check_line_config(ROOT, a)
    if a != b:
        problems.append("line: the same seed gave two different configs")
    if workloads.line_config(ROOT, SEED + 1) == a:
        problems.append("line: two seeds gave the same config")

    # every workload, also line, which BENCHMARK.json leaves out
    for wl in workloads.NAMES:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                summary, result = run(wl, trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(f"{wl} trace={trace}: {exc}")
                continue
            print(f"== {wl} (trace {trace})")
            for line in summary:
                if not line.startswith(("environment", "trace written")):
                    print("  " + line)
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{wl} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} stage calls failed")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{wl} trace={trace}: metric {m['name']} missing")
                elif trace == 0 and not got["value"] > 0:
                    problems.append(f"{wl}: end-to-end metric {m['name']} is {got['value']}")
            if trace == 1:
                problems += [f"{wl}: trace hook not applied: {p}"
                             for p in trace_problems(summary)]
                problems += wiring(wl, {k: v["value"] for k, v in metrics.items()})

    for p in problems:
        print("CHECK FAILED: " + p)
    print("check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def trace_problems(summary: list[str]) -> list[str]:
    lines = [line for line in summary if line.startswith("trace_problems ")]
    if len(lines) != 1:
        return ["no trace_problems line in the output"]
    return json.loads(lines[0].split(" ", 1)[1])


def wiring(wl: str, m: dict) -> list[str]:
    """The profile the wrappers must show if they are installed where the work is."""
    out = []
    not_run = NOT_RUN[wl]
    for name, value in m.items():
        if name.startswith(not_run) and value != 0:
            out.append(f"{wl}: {name} is {value}, expected 0 (NOT_RUN)")
        elif not name.startswith(not_run) and value == 0:
            out.append(f"{wl}: {name} is 0; its wrapper no longer sees the work, or the "
                       "work is gone and NOT_RUN needs updating")
    if wl == "ring":
        if not m["oracle.gs_sweep.s"] > 0.5 * m["oracle.hjb_value_iteration.s"]:
            out.append("ring: oracle.gs_sweep.s is not most of oracle.hjb_value_iteration.s")
        if not m["pwl.bisect_root.s"] > 0.5 * m["synthesis.synthesize.s"]:
            out.append("ring: pwl.bisect_root.s is not most of synthesis.synthesize.s")
    return out


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Pipeline benchmark for the exitcert CLI.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Runs the workload's CLI calls (see ``workloads.py``) in a closed loop
with one client: one repetition of the workload at a time.  Each
repetition starts a fresh interpreter (``call.py``) that pays the
``import exitcert.cli`` a user's ``exitcert`` call pays, and runs every
CLI call of the repetition in its own child forked from that freshly
imported state, one call at a time.  Repetitions continue until
``--seconds`` would be exceeded by one more.  Every call's exit code and
outputs are checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians
over the repetitions.  ``--trace 1`` alternates untraced repetitions with
traced ones (layer wrappers from ``tracing.py``, ``-X importtime``) and
reports the per-layer metrics; the trace is also written to
``.bench_out/``.  Outputs of the program go to ``.bench_work/``, which
is removed at exit.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (stage calls), and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads
from call import SETUP_DONE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# a run must end within 180 s; calls still running at this point are killed
DEADLINE_S = 165.0
THREADS = str(min(2, os.cpu_count() or 1))
STAGE_METRICS = ("verify_s", "synthesize_s", "oracle_s", "report_s")
IMPORT_PACKAGES = ("scipy", "numpy", "exitcert")


def child_env() -> dict:
    env = dict(os.environ)
    # bytecode is cached next to the sources, inside the checkout, as an
    # install would have it; without this every call would compile exitcert
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


# -- one repetition --------------------------------------------------------


class Deadline(Exception):
    pass


def run_call_py(plan: dict, rep_dir: Path, name: str, traced: bool, run_id: str, env: dict,
                t_end: float) -> str:
    """Run one ``call.py`` process on ``plan``; return its log.

    The process and the call children it forks share one session, so a
    deadline kills all of them.
    """
    plan_path = rep_dir / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan))
    log_path = rep_dir / f"{name}.log"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "call.py"), str(plan_path), "1" if traced else "0", run_id]
    remaining = t_end - time.monotonic()
    if remaining <= 1.0:
        raise Deadline("no time left for another repetition")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise Deadline("a repetition was still running at the deadline") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    return log_path.read_text(errors="replace")


def _load_json(path: Path, default: dict) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def import_times(log_text: str) -> dict:
    """Cumulative import time per package, in seconds, from ``-X importtime``.

    Sums the outermost entries of each package.  A package imported from
    inside another counts for both: the figures nest, they do not add up.
    """
    out = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    entries = []
    for line in log_text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative = parts[1].strip()
        if not cumulative.isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, name.strip().split(".", 1)[0], int(cumulative)))
    # a module is printed after the modules it imported, so walk backwards
    # to meet each parent before its children
    ancestors: list = []
    for depth, pkg, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if pkg in out and all(p != pkg for _, p in ancestors):
            out[pkg] += cumulative / 1e6
        ancestors.append((depth, pkg))
    return out


def run_rep(rep: int, traced: bool, wl: str, calls, extra, work: Path, env: dict,
            t_end: float, seed: int, fork: bool = True) -> dict:
    """One repetition of the workload.

    With ``fork`` (every timed repetition) one ``call.py`` process runs
    all calls; without it each call gets its own ``call.py`` process and
    runs in it unforked, which costs one import per call.
    """
    rep_dir = work / f"rep{rep}"
    run_id = f"{wl}-seed{seed}-rep{rep}"
    results = []
    try:
        plan_calls = []
        for idx, call in enumerate(calls):
            out_dir = rep_dir / call.out
            out_dir.mkdir(parents=True, exist_ok=True)
            plan_calls.append({"argv": workloads.argv(call, out_dir, extra),
                               "result": str(rep_dir / f"call{idx}.json")})
        if fork:
            plan = {"setup_result": str(rep_dir / "setup.json"), "fork": True,
                    "calls": plan_calls}
            log_text = run_call_py(plan, rep_dir, "rep", traced, run_id, env, t_end)
        else:
            log_text = "".join(
                run_call_py({"setup_result": str(rep_dir / f"setup{idx}.json"), "fork": False,
                             "calls": [c]}, rep_dir, f"call{idx}", traced, run_id, env, t_end)
                for idx, c in enumerate(plan_calls))
        setup_text, _, _ = log_text.partition(SETUP_DONE)
        for idx, call in enumerate(calls):
            res = _load_json(rep_dir / f"call{idx}.json",
                             {"exit_code": None, "error": "no result from the call process"})
            problems, headline = workloads.check(wl, call, res.get("exit_code"),
                                                 rep_dir / call.out)
            if res.get("error"):
                problems.insert(0, res["error"])
            res.update(call=call, problems=problems, headline=headline)
            results.append(res)
            if problems:
                print(f"FAILED {run_id} {call.command} {call.out}: {'; '.join(problems)}\n"
                      f"{log_text[-2000:]}", file=sys.stderr)
        setup = _load_json(rep_dir / "setup.json", {})
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    out = {"traced": traced, "run_id": run_id, "calls": results}
    if "setup_s" in setup:
        out["setup_s"] = setup["setup_s"]
    if traced:
        out["imports"] = import_times(setup_text)
    return out


# -- aggregation ------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}, too few for a tail percentile"
    pct = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"n={n}, p{pct} {q:.4f}"


def stage_sum(rep: dict, metric: str) -> float:
    return sum(c.get("stage_s", 0.0) for c in rep["calls"] if c["call"].metric == metric)


def pipeline_s(rep: dict) -> float:
    return sum(c.get("stage_s", 0.0) for c in rep["calls"])


def end_to_end(untraced: list, memory: dict) -> dict:
    """Every end-to-end figure, as lists of samples."""
    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "pipeline_s": [pipeline_s(r) for r in untraced],
        "peak_rss_mb": [max(c["maxrss_kb"] for c in memory["calls"]) / 1024.0],
    }
    for metric in STAGE_METRICS:
        if any(c["call"].metric == metric for c in untraced[0]["calls"]):
            samples[metric] = [stage_sum(r, metric) for r in untraced]
    return samples


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer figures: medians over the traced repetitions."""
    per_rep = []
    for rep in traced:
        acc: dict = defaultdict(float)
        for c in rep["calls"]:
            if "trace" in c:
                for k, v in tracing.summarize(c["trace"]).items():
                    acc[k] += v
        acc["synthesis.rk4_paths"] = acc.pop("synthesis.rk4_path.calls", 0.0)
        acc.pop("synthesis.rk4_path.s", None)
        paths = acc["synthesis.rk4_paths"]
        acc["synthesis.step_yield"] = acc["synthesis.accepted_steps"] / paths if paths else 0.0
        acc["trace.pipeline_s"] = pipeline_s(rep)
        per_rep.append(acc)
    names = set().union(*per_rep) if per_rep else set()
    out = {k: median([r.get(k, 0.0) for r in per_rep]) for k in names}
    for pkg in IMPORT_PACKAGES:
        out[f"setup.{pkg}_s"] = median(
            [r["imports"][pkg] for r in traced])
    for metric in STAGE_METRICS:
        out[f"stage.{metric}"] = median([stage_sum(r, metric) for r in untraced])
    out["trace.overhead_s"] = out["trace.pipeline_s"] - median([pipeline_s(r) for r in untraced])
    return out


# -- environment --------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    env = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            env[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            env[dist] = None
    env["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    cpuinfo = _read("/proc/cpuinfo") or ""
    env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                             if line.startswith("model name")), None)
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if size is not None:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    env["caches"] = caches
    env["threads_cap"] = THREADS
    try:
        from exitcert._kernels import BACKEND
    except ImportError:
        BACKEND = None
    env["backend"] = BACKEND
    return env


def input_sizes(calls, first_rep: dict) -> dict:
    """Grid points, band samples, oracle nodes x controls and starts per config."""
    sizes: dict = {}
    for call, res in zip(calls, first_rep["calls"]):
        if call.config is None:
            continue
        entry = sizes.setdefault(call.out, {})
        head = res["headline"]
        for key in ("grid_points", "band_samples", "starts"):
            if head.get(key) is not None:
                entry[key] = head[key]
        if head.get("oracle_nodes") is not None:
            entry["oracle_nodes_x_controls"] = f"{head['oracle_nodes']} x {n_controls(call.config)}"
    return sizes


def n_controls(config: Path):
    try:
        from exitcert.config import load_config
        from exitcert.library import get_example

        cfg = load_config(config)
        return get_example(cfg.system.name, **cfg.system.params).system.n_controls
    except (ImportError, AttributeError, ValueError) as exc:
        return f"unknown ({type(exc).__name__})"


# -- main ---------------------------------------------------------------------


def load_metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exitcert" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no exitcert sources under {ROOT}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    # the benchmark process imports exitcert only after the timed loop
    sys.path.insert(0, str(SRC))
    e2e_units, layer_units = load_metric_specs()
    t_end = time.monotonic() + DEADLINE_S
    env = child_env()

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    reps = []
    memory = None
    aborted = None
    try:
        calls, extra = workloads.calls(args.workload, ROOT, work, args.seed)
        # one untimed import fills the bytecode cache, as after any install
        try:
            warm = subprocess.run([sys.executable, "-c", "import exitcert.cli"], env=env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=120,
                                  check=False)
        except subprocess.TimeoutExpired:
            print("error: import exitcert.cli did not finish", file=sys.stderr)
            return 2
        if warm.returncode != 0:
            print(f"error: cannot import exitcert.cli:\n{warm.stderr}", file=sys.stderr)
            return 2
        # untimed: a user's peak memory, from calls that are not forked
        try:
            memory = run_rep("mem", False, args.workload, calls, extra, work, env, t_end,
                             args.seed, fork=False)
        except Deadline as exc:
            print(f"error: memory repetition: {exc}", file=sys.stderr)
            return 1

        t_measure = time.monotonic()
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = time.monotonic()
            try:
                reps.append(run_rep(len(reps), traced, args.workload, calls, extra, work, env,
                                    t_end, args.seed))
            except Deadline as exc:
                aborted = str(exc)
                break
            longest = max(longest, time.monotonic() - t0)
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and time.monotonic() - t_measure + longest > args.seconds:
                break
        # after the timed loop, while the generated configs still exist
        sizes = input_sizes(calls, reps[0]) if reps else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    all_calls = [c for r in [memory, *reps] if r is not None for c in r["calls"]]
    attempted = len(all_calls) + (1 if aborted else 0)
    failed = sum(1 for c in all_calls if c["problems"]) + (1 if aborted else 0)
    untraced = [r for r in reps if not r["traced"] and r["calls"]]
    traced = [r for r in reps if r["traced"]]
    if memory is None or any("maxrss_kb" not in c for c in memory["calls"]):
        print("error: the memory repetition did not complete", file=sys.stderr)
        return 1
    if not untraced or any("stage_s" not in c for r in untraced for c in r["calls"]) \
            or any("setup_s" not in r for r in untraced):
        print(f"error: no complete untraced repetition ({aborted or 'calls failed'})",
              file=sys.stderr)
        return 1
    if args.trace and not traced:
        print(f"error: no traced repetition ({aborted or 'out of time'})", file=sys.stderr)
        return 1
    if aborted:
        print(f"aborted: {aborted}", file=sys.stderr)

    samples = end_to_end(untraced, memory)
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps(sizes, sort_keys=True))
    headlines = {json.dumps({f"{c['call'].command}:{c['call'].out}": c["headline"]
                             for c in r["calls"]}, sort_keys=True) for r in reps}
    for line in sorted(headlines):
        print(f"headline ({len(headlines)} distinct over {len(reps)} repetitions) {line}")
    for name, values in samples.items():
        # the stage metrics outside BENCHMARK.json are seconds too
        print(f"{name:<14} {median(values):10.4f} {e2e_units.get(name, 's'):<4} median; "
              f"{tail(values)}; samples {' '.join(f'{v:.4f}' for v in values)}")
    print(f"{'failed_ops':<14} {failed:>5} / {attempted} stage calls")

    if args.trace:
        layers = per_layer(traced, untraced)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in layer_units.items()}
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:14.6g} {m['unit']}")
        # a hook that was not applied leaves its metrics at 0; check.py fails on this line
        print("trace_problems " + json.dumps(trace_problems(traced)))
        write_trace(args, reps)
    else:
        metrics = {name: {"value": median(samples.get(name, [])), "unit": unit}
                   for name, unit in e2e_units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_problems(traced: list) -> list:
    """Hooks that were missing or failed in any traced call, each listed once."""
    seen: dict = {}
    for r in traced:
        for c in r["calls"]:
            t = c.get("trace")
            if t is None:
                seen[f"{c['call'].command}: no trace from the call process"] = None
                continue
            for line in t["missing"]:
                seen[f"missing: {line}"] = None
            for line in t["hook_errors"]:
                seen[f"hook error: {line}"] = None
    return list(seen)


def write_trace(args, reps) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    spans, calls = [], []
    for r in reps:
        for i, c in enumerate(r["calls"]):
            t = c.get("trace")
            if t:
                calls.append({"run_id": t["run_id"], "call": i, "command": c["call"].command,
                              "tallies": t["tallies"], "counters": t["counters"],
                              "missing": t["missing"], "hook_errors": t["hook_errors"]})
                # span ids are "<call>.<index>" within the repetition's run id
                spans.extend({"run_id": t["run_id"], "id": f"{i}.{j}", "name": name,
                              "start": start, "end": end,
                              "parent": None if parent is None else f"{i}.{parent}"}
                             for j, (name, start, end, parent) in enumerate(t["spans"]))
    path = TRACE_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "calls": calls,
                                "spans": spans}, indent=1) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

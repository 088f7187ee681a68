"""Layer wrappers for the traced run, installed from outside the program.

``Tracer.install`` replaces attributes of the exitcert modules with
wrappers; nothing in ``src/`` knows about them.  A wrapper is installed
on the name the *calling* module looks up at call time: a function
imported with ``from .pwl import bisect_root`` is wrapped as
``exitcert.synthesis.bisect_root``, because rebinding ``exitcert.pwl``
would not reach the caller's copy of the name.

Two kinds of hook:

* span hooks record ``[name, start, end, parent]`` per call, so self
  time per layer can be computed (duration minus the child spans);
* tally hooks, on the scalar model calls that run tens of thousands of
  times per stage, only add to a call count and a summed time.

Some spans also add to counters taken from their arguments or results
(band samples, oracle nodes, bytes written...).  A hook whose attribute
no longer exists is skipped and listed under ``missing``: its metrics
then read 0 instead of breaking the run.  Everything stays in memory
until ``dump``.  The stages run single-threaded; spans opened in worker
threads or processes would not nest correctly.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute looked up by the caller, span name, layer)
SPANS = (
    ("exitcert.cli", "load_config", "config.load_config", "config"),
    ("exitcert.cli", "get_example", "library.get_example", "library"),
    ("exitcert.cli", "verify_mrf_band", "certificates.verify_mrf_band", "certificates"),
    ("exitcert.cli", "build_decrease_modulus", "certificates.build_decrease_modulus",
     "certificates"),
    ("exitcert.cli", "check_supersolution", "certificates.check_supersolution", "certificates"),
    ("exitcert.cli", "check_weak_petrov", "certificates.check_weak_petrov", "certificates"),
    ("exitcert.cli", "build_sigma_envelopes", "synthesis.build_sigma_envelopes", "synthesis"),
    ("exitcert.cli", "build_kl_bound", "synthesis.build_kl_bound", "synthesis"),
    ("exitcert.cli", "synthesize", "synthesis.synthesize", "synthesis"),
    ("exitcert.synthesis", "integrate_leg", "synthesis.integrate_leg", "synthesis"),
    ("exitcert.synthesis", "reparam_to_time", "synthesis.reparam_to_time", "synthesis"),
    ("exitcert.cli", "verify_kl", "synthesis.verify_kl", "synthesis"),
    ("exitcert.synthesis", "bisect_root", "pwl.bisect_root", "pwl"),
    ("exitcert.cli", "hjb_value_iteration", "oracle.hjb_value_iteration", "oracle"),
    ("exitcert.oracle", "build_stencils", "oracle.build_stencils", "oracle"),
    ("exitcert.oracle", "gs_sweep", "oracle.gs_sweep", "kernels"),
    ("exitcert.cli", "compare_bound", "oracle.compare_bound", "oracle"),
    ("exitcert.cli", "_write_json", "cli.write_json", "cli"),
    ("exitcert.cli", "write_trajectory_csv", "cli.write_trajectory_csv", "cli"),
    ("exitcert.cli", "write_value_table_csv", "cli.write_value_table_csv", "cli"),
)

# (module, attribute, tally name); "Class.method" patches the class
TALLIES = (
    ("exitcert.certificates", "CandidateMrf.u", "certificates.CandidateMrf.u"),
    ("exitcert.systems", "TargetSet.d", "systems.TargetSet.d"),
    ("exitcert.systems", "eval_dynamics", "systems.eval_dynamics"),
    ("exitcert.synthesis", "eval_dynamics", "systems.eval_dynamics"),
    ("exitcert.systems", "eval_lagrangian", "systems.eval_lagrangian"),
    ("exitcert.synthesis", "eval_lagrangian", "systems.eval_lagrangian"),
    ("exitcert.synthesis", "_rk4_path", "synthesis.rk4_path"),
)

LAYER = {name: layer for _, _, name, layer in SPANS}


def _band_samples(tr, args, result):
    tr.counters["certificates.band_samples"] += int(result.n_band)


def _oracle_nodes(tr, args, result):
    tr.counters["oracle.nodes"] += int(result.values.size)


def _sweep_bytes(tr, args, result):
    # bytes of every array the sweep reads or writes once, as computed
    # from the array sizes, not measured traffic
    tr.counters["oracle.sweep_bytes_computed"] += sum(
        int(a.nbytes) for a in args[:6] if hasattr(a, "nbytes")
    )


def _synthesis_work(tr, args, result):
    tr.counters["synthesis.accepted_steps"] += sum(len(leg.steps) for leg in result.legs)
    tr.counters["synthesis.nodes"] += int(result.trajectory.n_nodes)


def _bytes_written(tr, args, result):
    tr.counters["cli.bytes_written"] += Path(args[0]).stat().st_size


def _count_bisect_evals(tr, args):
    if not args:
        return args
    fn, rest = args[0], args[1:]
    counters = tr.counters

    def counted(*a, **k):
        counters["pwl.bisect_evals"] += 1
        return fn(*a, **k)

    return (counted,) + rest


BEFORE = {"pwl.bisect_root": _count_bisect_evals}

AFTER = {
    "certificates.verify_mrf_band": _band_samples,
    "oracle.hjb_value_iteration": _oracle_nodes,
    "oracle.gs_sweep": _sweep_bytes,
    "synthesis.synthesize": _synthesis_work,
    "cli.write_json": _bytes_written,
    "cli.write_trajectory_csv": _bytes_written,
    "cli.write_value_table_csv": _bytes_written,
}


class Tracer:
    """Spans, tallies and counters of one CLI call, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.tallies: dict = defaultdict(lambda: [0, 0.0])
        self.counters: dict = defaultdict(int)
        self.missing: list = []
        self.hook_errors: list = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    def _span(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError, OSError) as exc:
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def _tally(self, name: str, fn):
        slot = self.tallies[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf_counter() - t0
                slot[0] += 1

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            self.missing.append(f"{module}.{attr}")
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(fn))

    def install(self) -> None:
        for module, attr, name, _ in SPANS:
            self._patch(module, attr, functools.partial(self._span, name))
        for module, attr, name in TALLIES:
            self._patch(module, attr, functools.partial(self._tally, name))

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "tallies": {k: list(v) for k, v in self.tallies.items()},
            "counters": dict(self.counters),
            "missing": self.missing,
            "hook_errors": self.hook_errors,
        }


# -- aggregation (runs in the benchmark process, not in the CLI call) ------


def layer_of(span_name: str) -> str:
    return LAYER.get(span_name, span_name.split(".", 1)[0])


def summarize(dump: dict) -> dict:
    """Per-call metrics: span sums, self time per layer, tallies, counters."""
    out: dict = defaultdict(float)
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[i]
        out[f"{name}.s"] += dur
        out[f"{name}.calls"] += 1
        out[f"{layer_of(name)}.self_s"] += self_s
        if name == "oracle.hjb_value_iteration":
            out["oracle.pin_self_s"] += self_s
    for name, (calls, secs) in dump["tallies"].items():
        out[f"{name}.calls"] += calls
        out[f"{name}.s"] += secs
    for name, value in dump["counters"].items():
        out[name] += value
    return out

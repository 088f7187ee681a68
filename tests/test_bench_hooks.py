"""The benchmark's layer hooks still find the functions they time.

``perfbench/tracing.py`` wraps exitcert functions by the name their
callers look up (its ``SPANS`` and ``TALLIES`` tables).  A rename in
``src/`` detaches a hook silently: its metrics read 0 instead of failing
the run.  This test resolves every target the way the tracer does, and
reads ``perfbench/`` without changing it.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The Gauss-Seidel sweep was replaced by oracle.jacobi_sweep, and the
# crossing bisection by pwl.illinois_root; re-pointing their hooks is a
# change to the benchmark itself.
KNOWN_DETACHED = {"exitcert.oracle.gs_sweep", "exitcert.synthesis.bisect_root"}


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_every_benchmark_hook_resolves_in_src():
    tracing = runpy.run_path(str(TRACING))  # compiled from source, no bytecode written
    targets = [(m, a) for m, a, *_ in tracing["SPANS"] + tracing["TALLIES"]]
    detached = {f"{m}.{a}" for m, a in targets if not _resolves(m, a)}
    assert detached <= KNOWN_DETACHED

"""The package needs no scipy, and the CLI does not pay for numpy.ma or numpy.polynomial.

scipy serves only the reference flow the tests integrate with
(``tests/flow_reference.py``); no module of the package imports it.
``np.unique``, ``np.union1d`` and ``np.median`` import ``numpy.ma`` on
their first call, so the pipeline avoids them; the weak-Petrov gauge is
in closed form, so no quadrature rule loads ``numpy.polynomial``.  The run-time checks use
a fresh interpreter, because this test process has imported both long
before.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "exitcert"

PROBE = """
import json, sys
import exitcert.cli
ma_at_import = "numpy.ma" in sys.modules
for argv in json.loads(sys.argv[1]):
    rc = exitcert.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "ma_at_import": ma_at_import,
    "ma_at_exit": "numpy.ma" in sys.modules,
    "polynomial": "numpy.polynomial" in sys.modules,
}))
"""


def _probe(calls: list) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(calls)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + "\n" + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _imported_roots(tree: ast.AST) -> set:
    """Top-level package names of every import statement, at any depth."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_never_imports_scipy():
    importers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "scipy" in _imported_roots(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert importers == []


def test_cli_import_loads_no_scipy():
    assert _probe([])["scipy"] == []


def test_minimum_time_pipeline_loads_no_scipy_and_no_numpy_ma(tmp_path):
    # verify runs the weak-Petrov check (its gauge is in closed form), and
    # synthesize builds the distance envelopes and the pointwise minimum
    out = str(tmp_path)
    seen = _probe([
        ["verify", "-c", "configs/minimum_time.yaml", "-o", out],
        ["synthesize", "-c", "configs/minimum_time.yaml", "-o", out],
    ])
    assert seen["scipy"] == []
    assert not seen["polynomial"]
    # a numpy that loads numpy.ma on import leaves nothing to check here
    if not seen["ma_at_import"]:
        assert not seen["ma_at_exit"]

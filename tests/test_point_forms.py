"""Where the one-point forms of f, l and U may be called.

Grid work evaluates the model on (N, dim) blocks.  The point forms exist
for the synthesis integrator, which advances one state at a time.  This
test reads the package source and fails, naming the function, wherever
a point form is called from anywhere else.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "exitcert"

# eval_dynamics(...) / eval_lagrangian(...), and these attribute calls:
# system.dynamics(...), system.lagrangian(...), mrf.limiting_gradients(...)
# and mrf.u(...) (CandidateMrf.u)
POINT_FUNCTIONS = {"eval_dynamics", "eval_lagrangian"}
POINT_METHODS = POINT_FUNCTIONS | {"dynamics", "lagrangian", "limiting_gradients", "u"}

ALLOWED_FUNCTIONS = {
    # the synthesis integrator
    "_make_field",
    "feedback_select",
    "integrate_leg",
    "synthesize",
    # the checked point evaluators themselves
    "eval_dynamics",
    "eval_lagrangian",
}
ALLOWED_CLASSES = {"CandidateMrf"}


def _is_point_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in POINT_FUNCTIONS
    return isinstance(func, ast.Attribute) and func.attr in POINT_METHODS


def _point_calls(tree: ast.AST, scope: tuple = ()):
    """Yield (enclosing scope names, line) for every point-form call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, ast.Call) and _is_point_call(node):
            yield scope, node.lineno
        yield from _point_calls(node, inner)


def _offenders(src: Path) -> list[str]:
    found = []
    for path in sorted(src.glob("*.py")):
        for scope, line in _point_calls(ast.parse(path.read_text(), filename=str(path))):
            if ALLOWED_FUNCTIONS & set(scope) or ALLOWED_CLASSES & set(scope):
                continue
            found.append(f"{path.stem}.{'.'.join(scope) or '<module>'} (line {line})")
    return found


def test_point_forms_serve_only_the_integrator():
    offenders = _offenders(SRC)
    assert not offenders, "point-form calls outside the integrator: " + ", ".join(offenders)


def test_guard_sees_each_kind_of_point_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def sweep(system, mrf, x):\n"
        "    eval_dynamics(system, x, 0)\n"
        "    system.lagrangian(x, 0)\n"
        "    mrf.limiting_gradients(x)\n"
        "    return mrf.u(x)\n"
        "def synthesize(system, x):\n"
        "    def field(z):\n"
        "        return eval_lagrangian(system, z, 0)\n"
        "    return field(x)\n"
    )
    assert _offenders(tmp_path) == [f"mod.sweep (line {n})" for n in (2, 3, 4, 5)]

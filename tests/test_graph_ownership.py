"""Parameters are plain values: only the training step loop puts tensors in
the autodiff graph. A second place that sets `requires_grad` would let
forward-only passes build a graph again, so the package source is read with
`ast` and every site that can set the flag to True is checked against the
owner."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bytepatch"

OWNERS = {("training.py", "_train_loop")}
# sites that only pass membership on: the constructors store their argument,
# the Tensor property stores into its node, and an op's output is in the graph
# exactly when one of its inputs is
PROPAGATION = {("tensor.py", "Tensor.__init__"), ("tensor.py", "Node.__init__"),
               ("tensor.py", "Tensor.requires_grad"), ("tensor.py", "_make")}


def flag_sets() -> list[tuple[str, str, int, ast.expr]]:
    """(file, enclosing function, line, value) of every keyword argument,
    assignment or `setattr` that sets `requires_grad`."""
    found = []

    def visit(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            values = []
            if isinstance(child, ast.keyword) and child.arg == "requires_grad":
                values.append(child.value)
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "requires_grad" for t in targets):
                    values.append(child.value)
            elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "setattr"
                  and len(child.args) == 3 and getattr(child.args[1], "value", None) == "requires_grad"):
                values.append(child.args[2])
            found.extend((path, scope, child.lineno, v) for v in values)
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    return found


def may_set_true(value: ast.expr | None) -> bool:
    return not (isinstance(value, ast.Constant) and value.value is False)


def test_only_the_step_loop_sets_requires_grad():
    sets = [(path, scope, line) for path, scope, line, value in flag_sets() if may_set_true(value)]
    stray = [f"{path}:{line} in {scope or '<module>'}" for path, scope, line in sets
             if (path, scope) not in OWNERS | PROPAGATION]
    assert stray == []
    assert OWNERS <= {(path, scope) for path, scope, _ in sets}

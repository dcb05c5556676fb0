"""The benchmark's trace targets name real attributes of the package: a
rename would otherwise surface only as an AttributeError in a traced run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every TARGETS entry, read without importing
    the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS list in perfbench/tracing.py")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert len(targets) > 20
    missing = []
    for module_name, attr in targets:
        obj = importlib.import_module(f"bytepatch.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert missing == []

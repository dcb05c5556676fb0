"""What the benchmark reads from the package still exists: a rename would
otherwise surface only in `perfbench/test_perfbench.py` (outside tier 1) or
in a benchmark run.

This is the surface ROADMAP item 5 frees: the trace targets, the names the
workloads import and call, and the argument positions the trace hooks read.
Each is read with `ast`, without importing the benchmark."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = ast.parse((PERFBENCH / "tracing.py").read_text())
WORKLOADS = ast.parse((PERFBENCH / "workloads.py").read_text())

# the parameter each hook that reads a positional argument expects there
HOOK_PARAMETERS = {"_component": "prefix", "_count_step_bytes": "batch", "_count_prefill": "prompt"}


def trace_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every TARGETS entry."""
    return [(entry.elts[0].value, entry.elts[1].value) for entry in _targets_list().elts]


def _targets_list() -> ast.List:
    for node in TRACING.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return node.value
    raise AssertionError("no TARGETS list in perfbench/tracing.py")


def _resolve(module_name: str, attr: str):
    obj = importlib.import_module(f"bytepatch.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert len(targets) > 20
    missing = [f"{m}.{a}" for m, a in targets if not callable(_resolve(m, a))]
    assert missing == []


def _workload_imports() -> list[tuple[str, str, str]]:
    """(module, name, local name) of every `from bytepatch[.x] import y`
    in the workloads."""
    return [(node.module, alias.name, alias.asname or alias.name) for node in ast.walk(WORKLOADS)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("bytepatch") for alias in node.names]


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def test_every_name_the_workloads_import_resolves():
    imported = _workload_imports()
    assert len(imported) > 10
    missing = [f"{m}.{n}" for m, n, _ in imported
               if not hasattr(importlib.import_module(m), n) and not _is_module(f"{m}.{n}")]
    assert missing == []


def test_every_module_attribute_the_workloads_use_exists():
    modules = {local: f"{m}.{n}" for m, n, local in _workload_imports() if _is_module(f"{m}.{n}")}
    assert {"training", "inference"} <= set(modules)
    used = {(node.value.id, node.attr) for node in ast.walk(WORKLOADS)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {("training", "train_conversion"), ("training", "evaluate_bpb"), ("inference", "prefill")} <= used
    missing = [f"{m}.{a}" for m, a in sorted(used) if not hasattr(importlib.import_module(modules[m]), a)]
    assert missing == []


def _hook_indices() -> dict[str, set[int]]:
    """Hook function -> the indices of `args[i]` it reads."""
    out = {}
    for node in TRACING.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = {sub.slice.value for sub in ast.walk(node)
                              if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "args"
                              and isinstance(sub.slice, ast.Constant)}
    return {name: idx for name, idx in out.items() if idx}


def test_the_trace_hooks_read_the_parameters_they_expect():
    """`_component` reads a layer's prefix at index 1, `_count_step_bytes`
    a step's batch at index 4 and `_count_prefill` the prompt at index 3."""
    indices = _hook_indices()
    assert set(indices) == set(HOOK_PARAMETERS)
    checked, wrong = 0, []
    for entry in _targets_list().elts:
        module_name, attr = entry.elts[0].value, entry.elts[1].value
        label, hook = entry.elts[2], entry.elts[3]
        readers = [label.func.id] if isinstance(label, ast.Call) else []
        readers += [hook.id] if isinstance(hook, ast.Name) else []
        params = list(inspect.signature(_resolve(module_name, attr)).parameters)
        for reader in readers:
            for i in indices.get(reader, ()):
                checked += 1
                if i >= len(params) or params[i] != HOOK_PARAMETERS[reader]:
                    wrong.append(f"{module_name}.{attr}[{i}] is not {HOOK_PARAMETERS[reader]}")
    assert checked == 6 + 2 + 1  # six layers, two steps, prefill
    assert wrong == []

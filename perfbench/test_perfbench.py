"""Tests of the benchmark's own logic: the tail rule, self-time arithmetic,
patching, the BENCHMARK.json contract and a tiny run of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import stats  # noqa: E402

run._import_package()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- the tail rule ------------------------------------------------------------

def test_tail_has_ten_samples_beyond_it():
    value, pct = stats.tail([float(x) for x in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    value, pct = stats.tail([float(x) for x in range(1000, 0, -1)])
    assert (value, pct) == (990.0, 99.0)


def test_tail_of_smallest_sample_set_is_its_minimum():
    value, pct = stats.tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and pct == pytest.approx(100 / 11)


def test_tail_needs_more_samples_than_it_leaves_beyond():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_tail_counts_ties_by_rank():
    value, pct = stats.tail([1.0] * 5 + [2.0] * 20)
    assert value == 2.0 and pct == 60.0


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (1.5, 2.5, 1), (5.0, 9.0, 0)]
    assert stats.self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (6.0, 6.5, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [(2.0, 6.0, -1), (0.0, 3.0, 0), (5.0, 9.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(2.0)


def test_union_length_ignores_empty_intervals():
    assert stats.union_length([(4.0, 4.0), (1.0, 2.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(2.0)


# -- patching -------------------------------------------------------------------

def _references(obj):
    return [(name, attr) for name, m in sys.modules.items() if name.startswith("bytepatch")
            for attr, value in vars(m).items() if value is obj]


def test_patching_reaches_every_name_and_restores_it():
    import bytepatch.model as model
    import bytepatch.tensor as tensor

    orig = model.local_encode
    orig_backward = tensor.Tensor.backward
    assert len(_references(orig)) >= 2  # model.local_encode and training.local_encode
    with tracing.patched(tracing.Tracer()):
        assert _references(orig) == []
        assert tensor.Tensor.backward is not orig_backward
    assert len(_references(orig)) >= 2
    assert tensor.Tensor.backward is orig_backward


def test_spans_record_raising_calls_and_their_parent():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    outer = tracer.wrap(lambda: inner(), "outer", None, False)
    inner = tracer.wrap(boom, "inner", None, False)
    with pytest.raises(KeyError):
        outer()
    (l0, _, _, p0, _, r0), (l1, _, _, p1, _, r1) = tracer.spans
    assert (l0, p0, r0) == ("outer", -1, True)
    assert (l1, p1, r1) == ("inner", 0, True)


# -- the BENCHMARK.json contract --------------------------------------------------

def test_benchmark_json_keys_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_every_span_label_has_a_self_time_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    want = set()
    for label in tracing.span_labels():
        if "_step." in label:
            want.update(f"{label}.{phase}.self_ms" for phase in ("prefill", "decode"))
        else:
            want.add(f"{label}.self_ms")
    assert want - names == set()


# -- tiny runs ------------------------------------------------------------------

TINY = {
    "convert": wl.Plan(prep_docs=3, steps=11),
    "long-context": wl.Plan(eval_docs=11, steps=11, prompts=11, decode_bytes=2),
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, record, _ = run.measure(workload, 3, TINY[workload], 0, SPEC, setup_repeats=1,
                                    say=lambda line: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    slots = {m["slot"] for m in record["metrics"] if m["slot"]}
    assert slots == set(want) - {"setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_accounts_for_its_wall_time(workload):
    result, record, tracer = run.measure(workload, 3, TINY[workload], 1, SPEC, say=lambda line: None)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    values = {n: m["value"] for n, m in result["metrics"].items()}
    self_total = sum(v for n, v in values.items() if n.endswith(".self_ms"))
    assert self_total == pytest.approx(values["bench.timed_wall_ms"], rel=1e-9)
    assert 0 <= values["bench.uncovered.self_ms"] < 0.05 * values["bench.timed_wall_ms"]
    assert values["bench.raised_spans"] == 0
    assert {label for label, *_ in tracer.spans} <= tracing.span_labels()

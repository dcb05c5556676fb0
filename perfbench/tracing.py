"""Spans around the package's public functions, patched in from outside.

The package is not modified. `patched` replaces each target function with a
timing wrapper in every `bytepatch` module that holds a reference to it, so a
call is caught however its caller looks the name up (`model.local_encode` and
`training.local_encode` are the same function under two names). Methods are
patched on their class. Spans stay in memory until the run writes them out.

A span is (label, start, end, parent index, stream, raised). The stream is
the prompt or eval-document index the benchmark sets, or the step number
inside a training loop (each `WindowSampler.draw` starts a step).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import stats

COMPONENTS = {"encoder": "enc", "decoder": "dec", "global": "glob"}
STEP_PHASES = {"inference.prefill": "prefill", "inference.decode_step": "decode"}


def _component(base: str):
    """Label a layers.* call by the component its `prefix` argument names."""
    return lambda args: f"{base}.{COMPONENTS[args[1].split('.', 1)[0]]}"


def _count_tokens(counts, args, out):
    counts["teacher.tokens"] += len(out.token_ids)


def _count_windows(counts, args, out):
    counts["data.windows"] += len(out)


def _count_patch_fill(counts, args, out):
    _, valid = out
    counts["model.patch_fill.valid"] += int(valid.sum())
    counts["model.patch_fill.slots"] += valid.size


def _count_step_bytes(counts, args, out):
    counts["training.step.bytes"] += sum(len(w.model_bytes) - 1 for w in args[4])


def _count_prepared(counts, args, out):
    counts["training.prepare_windows.windows"] += len(out)


def _count_prefill(counts, args, out):
    counts["inference.prefill.bytes"] += len(args[3])
    counts["inference.prefill.patches"] += int(out[2].sum())


def _count_decoded(counts, args, out):
    counts["inference.decode.bytes"] += 1


# (module, attribute, label or label-from-args, counting hook, starts a step)
TARGETS = [
    ("teacher", "run_teacher", "teacher.run_teacher", _count_tokens, False),
    ("tokenizer", "encode", "tokenizer.encode", None, False),
    ("tokenizer", "suffix_ids", "tokenizer.suffix_ids", None, False),
    ("tokenizer", "longest_suffix_token", "tokenizer.longest_suffix_token", None, False),
    ("boundaries", "merge_bpe_per_example", "boundaries.merge_bpe_per_example", None, False),
    ("data", "make_windows", "data.make_windows", _count_windows, False),
    ("training", "WindowSampler.draw", "training.draw", None, True),
    ("training", "stage1_step", "training.step", _count_step_bytes, False),
    ("training", "stage2_step", "training.step", _count_step_bytes, False),
    ("training", "prepare_window", "training.prepare_window", None, False),
    ("training", "prepare_windows", "training.prepare_windows", _count_prepared, False),
    ("training", "evaluate_bpb", "training.evaluate_bpb", None, False),
    ("model", "forward_full", "model.forward_full", None, False),
    ("model", "embed_bytes", "model.embed_bytes", None, False),
    ("model", "local_encode", "model.local_encode", None, False),
    ("model", "local_decode", "model.local_decode", None, False),
    ("model", "predict_boundaries", "model.predict_boundaries", None, False),
    ("model", "pool_indices", "model.pool_indices", _count_patch_fill, False),
    ("model", "pool_last", "model.pool_last", None, False),
    ("model", "global_forward", "model.global_forward", None, False),
    ("model", "transformer_probe", "model.transformer_probe", None, False),
    ("model", "depool", "model.depool", None, False),
    ("model", "lm_head_fused", "model.lm_head_fused", None, False),
    ("layers", "mlstm_block", _component("layers.mlstm_block"), None, False),
    ("layers", "attention_block", _component("layers.attention_block"), None, False),
    ("layers", "ffn_block", _component("layers.ffn_block"), None, False),
    ("layers", "mlstm_step", _component("layers.mlstm_step"), None, False),
    ("layers", "attention_step", _component("layers.attention_step"), None, False),
    ("layers", "ffn_step", _component("layers.ffn_step"), None, False),
    ("losses", "boundary_bce", "losses.boundary_bce", None, False),
    ("losses", "encoder_match", "losses.encoder_match", None, False),
    ("losses", "decoder_distill", "losses.decoder_distill", None, False),
    ("losses", "ce_fused", "losses.ce_fused", None, False),
    ("tensor", "Tensor.backward", "tensor.backward", None, False),
    ("optim", "AdamW.step", "optim.step", None, False),
    ("optim", "AdamW.zero_grad", "optim.zero_grad", None, False),
    ("inference", "prefill", "inference.prefill", _count_prefill, False),
    ("inference", "decode_step", "inference.decode_step", _count_decoded, False),
    ("inference", "sample", "inference.sample", None, False),
]

# The untraced runs wrap only the calls whose durations are end-to-end
# metrics and that run inside train_conversion, out of the benchmark's reach.
PROBES = {"training.stage1_step", "training.stage2_step", "training.prepare_windows"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.stream = -1
        self._stack: list[int] = []

    def wrap(self, fn, label, hook, starts_step: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if starts_step:
                self.stream += 1
            name = label if isinstance(label, str) else label(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.stream, raised)
            if hook is not None:
                hook(self.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def durations(self, label: str, first: int = 0) -> list[float]:
        """Durations in seconds of the spans named `label` from index `first` on."""
        return [s[2] - s[1] for s in self.spans[first:] if s[0] == label]


@contextmanager
def patched(tracer: Tracer, only: set[str] | None = None):
    """Wrap every target (or those named module.attribute in `only`) for the
    duration of the block, then put the originals back."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "bytepatch" or name.startswith("bytepatch.")]
    undo = []
    try:
        for module_name, attr, label, hook, starts_step in TARGETS:
            if only is not None and f"{module_name}.{attr}" not in only:
                continue
            module = sys.modules[f"bytepatch.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                undo.append((cls, method, orig))
                setattr(cls, method, tracer.wrap(orig, label, hook, starts_step))
                continue
            orig = getattr(module, attr)
            wrapper = tracer.wrap(orig, label, hook, starts_step)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, name, orig))
                        setattr(m, name, wrapper)
        yield tracer
    finally:
        for obj, name, orig in reversed(undo):
            setattr(obj, name, orig)


def _phase(spans, i: int) -> str:
    parent = spans[i][3]
    while parent >= 0:
        phase = STEP_PHASES.get(spans[parent][0])
        if phase:
            return phase
        parent = spans[parent][3]
    return "other"


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float, names: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed by the requested names.

    `<label>.self_ms` sums self time, `<label>.calls` counts calls; step
    layers are split by the nearest prefill or decode_step ancestor. What no
    span covers is `bench.uncovered.self_ms`, so the self times and it add up
    to `bench.timed_wall_ms`.
    """
    spans = tracer.spans
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    self_ms: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for i, (span, own) in enumerate(zip(spans, selfs)):
        label = span[0]
        if label.startswith("layers.") and "_step." in label:
            label = f"{label}.{_phase(spans, i)}"
        self_ms[label] += own * 1e3
        calls[label] += 1
    counts = tracer.counts
    slots = counts["model.patch_fill.slots"]
    derived = {
        "bench.timed_wall_ms": wall_s * 1e3,
        "bench.uncovered.self_ms": wall_s * 1e3 - sum(self_ms.values()),
        "bench.trace_overhead": wall_s / untraced_wall_s,
        "bench.raised_spans": sum(1 for s in spans if s[5]),
        "model.patch_fill": counts["model.patch_fill.valid"] / slots if slots else 0.0,
    }
    labels = span_labels()
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        unsplit, _, phase = base.rpartition(".")
        known = base in labels or (unsplit in labels and phase in STEP_PHASES.values())
        if name in derived:
            out[name] = derived[name]
        elif kind == "self_ms" and known:
            out[name] = self_ms.get(base, 0.0)
        elif kind == "calls" and known:
            out[name] = calls.get(base, 0)
        elif name in COUNTERS:
            out[name] = counts.get(name, 0)
        else:
            raise KeyError(f"no measurement for per-layer metric {name!r}")
    return out


COUNTERS = {
    "teacher.tokens", "data.windows", "inference.prefill.bytes",
    "inference.prefill.patches", "inference.decode.bytes", "inference.decode.global_calls",
}


def span_labels() -> set[str]:
    """Every label a span can carry."""
    comps = {"attention": ("glob",), "ffn": ("enc", "dec", "glob"), "mlstm": ("enc", "dec")}
    out = set()
    for _, attr, label, _, _ in TARGETS:
        if isinstance(label, str):
            out.add(label)
        else:
            out.update(f"layers.{attr}.{c}" for c in comps[attr.split("_")[0]])
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span: id, parent, stream, raised, start and
    end in microseconds from the first span, label."""
    t_zero = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as f:
        f.write("id\tparent\tstream\traised\tstart_us\tend_us\tlabel\n")
        for i, (label, t0, t1, parent, stream, raised) in enumerate(tracer.spans):
            f.write(f"{i}\t{parent}\t{stream}\t{int(raised)}\t"
                    f"{(t0 - t_zero) * 1e6:.1f}\t{(t1 - t_zero) * 1e6:.1f}\t{label}\n")

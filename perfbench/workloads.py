"""The workloads: set-up, one timed pass, and the checks of its outputs.

Every pass is a closed loop: each call into the package starts when the
previous one returns, from one process and one BLAS thread. Inputs come from
the seed alone; the package only ever sees the generated bytes.

* convert: stage-1 window preparation (one teacher forward per window) and
  stage-1 steps, then stage-2 preparation with per-example BPE merging to 8
  bytes/patch and stage-2 steps on the same parameters, all at toy.cfg shape.
* long-context: forward-only evaluate_bpb on 512-byte documents, then stage-2
  steps on 512-byte windows, where the mLSTM's n x n matrices dominate, then
  generation: prefill of 512-byte held-out prompts and 64 decode steps each,
  paying `sample` every step but forcing the text's own next byte and subword
  boundary bit, so bytes, patches and backbone calls come from the input
  rather than from the weights. The generation figures are printed but not
  gated: decode is the most host-sensitive path and its run-to-run spread on
  a shared 2-core machine exceeds any bound the benchmark may set.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from bytepatch.cli import build_model_config, build_train_config, parse_config_file
from bytepatch.data import EOT, make_windows, markov_word_docs
from bytepatch import inference, training
from bytepatch.inference import SamplerConfig
from bytepatch.model import forward_full, fused_symbol, init_byte_model, init_teacher, split_fused
from bytepatch.tokenizer import SuffixIndex, subword_boundary_mask, suffix_ids, train_bpe, utf8_to_bytes

import stats
from tracing import Tracer

# Calls go through the module attributes (inference.prefill, not a local
# name) so that the wrappers `tracing.patched` installs there catch them.

CONFIG = "configs/toy.cfg"
WORKLOADS = ("convert", "long-context")

TRAIN_DOCS = 100  # corpus the BPE vocabulary is trained on
HELDOUT_SEED = 1_000_003  # added to --seed for text no model trains on
# The set-up stage 1 of long-context only shapes the boundary head, which
# decides its patch counts: untrained it closes a patch every ~1.9 B of this
# text, after these few steps every 5.5-6.5 B (subword tokens: ~4.6 B). A
# higher rate than toy.cfg's gets there in a dozen steps instead of hundreds.
BOOT = SimpleNamespace(docs=8, steps=12, batch_size=2, peak_lr=0.008, warmup_steps=2)
TARGET_COMPRESSION = 8.0  # the README's stage-2 target
LONG_BYTES = 512
LONG_SENTENCES = (13, 17)  # 490..800-byte documents, so nearly all fill 512 B
LONG_TRAIN_DOCS = 24
LONG_BATCH = 1
PROMPT_DOCS = 40
DECODE_BYTES = 64
SAMPLER = dict(temperature=0.6, top_p=0.6)
CHECKED_PROMPTS = (0, 1)  # streams replayed through forward_full
LOGPROB_ATOL = 1e-6  # as test_incremental_equals_batch_on_forced_continuations
MIN_SAMPLES = stats.MIN_BEYOND + 1


@dataclass
class Plan:
    """Closed-loop calls in one timed pass."""

    prep_docs: int = 0
    steps: int = 0
    eval_docs: int = 0
    prompts: int = 0
    decode_bytes: int = DECODE_BYTES


def plan_for(workload: str, seconds: float) -> Plan:
    """Size a pass from --seconds with per-call costs measured on a 2-core
    x86 machine with one BLAS thread: ~0.25 s a stage step at 8x88 B, ~22 ms
    to prepare one document's windows for both stages, ~0.15 s a 512-B
    evaluation, ~0.28 s a 512-B step and ~0.6 s a 512-B prompt with its
    continuation. The count depends on --seconds only, never on the clock, so
    every run of a seed does the same work and prints the same digest."""
    def n(per_second: float) -> int:
        return max(MIN_SAMPLES, round(per_second * seconds))

    if workload == "convert":
        return Plan(prep_docs=n(4.0), steps=n(1.6))
    if workload == "long-context":
        return Plan(eval_docs=n(2.0), steps=n(1.5), prompts=n(0.25))
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Setup:
    cfg: dict
    mc: object
    vocab: object
    teacher: object
    params: object
    docs: list[bytes]
    eval_docs: list[bytes] = field(default_factory=list)
    long_docs: list[bytes] = field(default_factory=list)
    prompts: list[tuple[bytes, list[int]]] = field(default_factory=list)


def _docs(seed: int, n: int, **kwargs) -> list[bytes]:
    return [utf8_to_bytes(t) + bytes([EOT]) for t in markov_word_docs(seed=seed, n_docs=n, **kwargs)]


def _train_config(cfg: dict, stage: int, seed: int, steps: int):
    args = SimpleNamespace(seed=seed, steps=steps, merge_strategy=None, target_compression=None)
    return build_train_config(cfg, stage=stage, args=args)


def set_up(workload: str, seed: int, plan: Plan, root: Path) -> Setup:
    """Corpus, BPE vocabulary, teacher and transplanted byte model, plus the
    workload's inputs. The teacher stays untrained: its quality changes no
    timed cost."""
    cfg = parse_config_file(str(root / CONFIG))
    docs = _docs(seed, max(TRAIN_DOCS, plan.prep_docs))
    vocab = train_bpe(docs[:TRAIN_DOCS], int(cfg["tokenizer.vocab_size"]))
    mc = build_model_config(cfg, vocab.size)
    rng = np.random.default_rng(seed)
    teacher = init_teacher(mc, rng)
    params = init_byte_model(mc, rng, teacher)
    s = Setup(cfg, mc, vocab, teacher, params, docs)
    if workload != "convert":
        tc = _train_config(cfg, 1, seed, BOOT.steps)
        tc.batch_size, tc.peak_lr, tc.warmup_steps = BOOT.batch_size, BOOT.peak_lr, BOOT.warmup_steps
        training.train_conversion(params, mc, vocab, teacher, docs[: BOOT.docs], tc)
    if workload == "long-context":
        held = _docs(seed + HELDOUT_SEED, plan.eval_docs + 2 * LONG_TRAIN_DOCS,
                     sentences_per_doc=LONG_SENTENCES)
        s.eval_docs = held[: plan.eval_docs]
        # one full window per document, so every step runs at 512 bytes
        full = [d[: LONG_BYTES - 1] for d in held[plan.eval_docs :] if len(d) >= LONG_BYTES - 1]
        s.long_docs = full[:LONG_TRAIN_DOCS]
        s.prompts = _prompts(vocab, seed, plan)
    return s


def _prompts(vocab, seed: int, plan: Plan) -> list[tuple[bytes, list[int]]]:
    """Held-out 512-byte slices, each with the fused symbols of the text's
    next bytes: byte plus subword-end bit."""
    held = _docs(seed + HELDOUT_SEED, PROMPT_DOCS)
    text = b"".join(held)
    bits = np.concatenate([subword_boundary_mask(vocab, d) for d in held])
    rng = np.random.default_rng(seed + HELDOUT_SEED)
    out = []
    for _ in range(plan.prompts):
        start = int(rng.integers(0, len(text) - LONG_BYTES - plan.decode_bytes))
        end = start + LONG_BYTES
        forced = [fused_symbol(text[j], bool(bits[j])) for j in range(end, end + plan.decode_bytes)]
        out.append((text[start:end], forced))
    return out


# -- timed passes -----------------------------------------------------------------

def timed_pass(workload: str, s: Setup, plan: Plan, seed: int, tracer: Tracer) -> dict:
    """One pass over the plan, starting from the set-up parameters, run while
    `tracer` is patched in. Returns the raw outputs the metrics and checks use."""
    return {"convert": _convert, "long-context": _long_context}[workload](s, plan, seed, tracer)


def _training_phase(tracer, s, params, docs, tc, teacher) -> dict:
    first, before = len(tracer.spans), dict(tracer.counts)
    tracer.stream = -1
    log = training.train_conversion(params, s.mc, s.vocab, teacher, docs, tc)
    delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    return {
        "records": log.records,
        "step_s": tracer.durations("training.step", first),
        "prep_s": sum(tracer.durations("training.prepare_windows", first)),
        "windows": int(delta.get("training.prepare_windows.windows", 0)),
        "step_bytes": int(delta.get("training.step.bytes", 0)),
        "docs": docs,
        "max_bytes": tc.max_bytes,
        "steps": tc.steps,
    }


def _convert(s, plan, seed, tracer):
    params = s.params.copy()
    docs = s.docs[: plan.prep_docs]
    tc1 = _train_config(s.cfg, 1, seed, plan.steps)
    stage1 = _training_phase(tracer, s, params, docs, tc1, s.teacher)
    tc2 = _train_config(s.cfg, 2, seed, plan.steps)
    tc2.merge_kind, tc2.target_compression = "bpe", TARGET_COMPRESSION
    stage2 = _training_phase(tracer, s, params, docs, tc2, None)
    return {"stage1": stage1, "stage2": stage2}


def _long_context(s, plan, seed, tracer):
    params = s.params.copy()
    evals = []
    for i, doc in enumerate(s.eval_docs):
        tracer.stream = i
        t0 = time.perf_counter()
        out = training.evaluate_bpb(params, s.mc, s.vocab, [doc], max_doc_bytes=LONG_BYTES)
        evals.append((time.perf_counter() - t0, out))
    tc = _train_config(s.cfg, 2, seed, plan.steps)
    tc.max_bytes, tc.batch_size = LONG_BYTES, LONG_BATCH
    train = _training_phase(tracer, s, params, s.long_docs, tc, None)
    return {"evals": evals, "train": train, "params": params,
            "streams": _generate(s, params, seed, tracer)}


def _generate(s, params, seed, tracer) -> list[dict]:
    clock = time.perf_counter
    sidx = SuffixIndex(s.vocab)
    sampler = SamplerConfig(seed=seed, **SAMPLER)
    streams = []
    for k, (prompt, forced) in enumerate(s.prompts):
        tracer.stream = k
        keep = k in CHECKED_PROMPTS
        t0 = clock()
        state, logprobs, mask = inference.prefill(params, s.mc, sidx, prompt, seed=seed + k)
        t_prefill = clock()
        prefill_calls = state.n_global_calls
        kept = [logprobs] if keep else None
        gaps, nll, sampled = [], [], []
        prev = t_prefill
        for sym in forced:
            nll.append(-float(state.last_logprobs[sym]))
            sampled.append(inference.sample(state.last_logprobs, sampler, state.rng))
            inference.decode_step(params, s.mc, state, sidx, sampler, forced_symbol=sym)
            now = clock()
            gaps.append(now - prev)
            prev = now
            if keep:
                kept.append(state.last_logprobs)
        tracer.counts["inference.decode.global_calls"] += state.n_global_calls - prefill_calls
        streams.append({
            "prompt": prompt, "forced": forced, "mask": mask, "prefill_s": t_prefill - t0,
            "gaps": gaps, "nll": nll, "sampled": sampled, "logprobs": kept,
            "n_global_calls": state.n_global_calls,
        })
    return streams


# -- metrics and checks (outside the timed region) --------------------------------

@dataclass
class Metric:
    name: str  # the workload's own name for it, e.g. stage1_step_ms.p50
    slot: str | None  # the BENCHMARK.json end-to-end metric it fills
    value: float
    unit: str
    n: int  # samples behind the value
    what: str  # what the samples are
    percentile: float | None = None


@dataclass
class Outcome:
    metrics: list[Metric]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _dist(name: str, slot: str | None, samples_s: list[float], what: str) -> list[Metric]:
    ms = [x * 1e3 for x in samples_s]
    value, pct = stats.tail(ms)
    return [
        Metric(f"{name}.p50", slot and f"{slot}.p50", stats.median(ms), "ms", len(ms), what, 50.0),
        Metric(f"{name}.tail", slot and f"{slot}.tail", value, "ms", len(ms), what, pct),
    ]


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


LOSS_KEYS = ("l_boundary", "l_encoder", "l_distill", "l_ce", "total", "grad_norm")


def _check_training(out: Outcome, phase: dict, label: str) -> list:
    recs = phase["records"]
    out.attempted += phase["windows"] + phase["steps"]
    bad = [r["step"] for r in recs if not all(math.isfinite(r[k]) for k in LOSS_KEYS)]
    out.failed += len(bad) + phase["steps"] - len(recs)
    if bad or len(recs) != phase["steps"]:
        out.problems.append(f"{label}: {len(recs)}/{phase['steps']} steps, non-finite at {bad[:5]}")
    expected = len(make_windows(phase["docs"], phase["max_bytes"] - 1))
    out.check(phase["windows"] == expected,
              f"{label}: prepared {phase['windows']} windows, make_windows gives {expected}")
    return [r[k] for r in recs for k in LOSS_KEYS]


def evaluate(workload: str, s: Setup, raw: dict) -> Outcome:
    return {"convert": _evaluate_convert, "long-context": _evaluate_long}[workload](s, raw)


def _evaluate_convert(s, raw) -> Outcome:
    st1, st2 = raw["stage1"], raw["stage2"]
    windows = st1["windows"] + st2["windows"]
    steps_s = st1["step_s"] + st2["step_s"]
    out = Outcome([
        Metric("prep_ms_per_window", "unit_cost_ms", (st1["prep_s"] + st2["prep_s"]) * 1e3 / windows,
               "ms", windows, "windows prepared, stage 1 and stage 2"),
        *_dist("stage1_step_ms", "phase1_ms", st1["step_s"], "stage-1 steps"),
        *_dist("stage2_step_ms", "phase2_ms", st2["step_s"], "stage-2 steps"),
        Metric("train_bytes_per_s", "bytes_per_s", (st1["step_bytes"] + st2["step_bytes"]) / sum(steps_s),
               "B/s", len(steps_s), "stage-1 and stage-2 steps"),
    ])
    losses = _check_training(out, st1, "stage 1") + _check_training(out, st2, "stage 2")
    out.digest = _digest(losses)
    return out


def _evaluate_long(s, raw) -> Outcome:
    evals, train = raw["evals"], raw["train"]
    scored = sum(o["n_positions"] for _, o in evals)
    eval_s = sum(t for t, _ in evals)
    out = Outcome([
        Metric("eval_bytes_per_s", None, scored / eval_s, "B/s", len(evals), "512-B documents scored"),
        Metric("eval_ms_per_byte", "unit_cost_ms", eval_s * 1e3 / scored, "ms/B", len(evals),
               "512-B documents scored"),
        *_dist("eval_doc_ms", "phase1_ms", [t for t, _ in evals], "512-B documents scored"),
        *_dist("long_step_ms", "phase2_ms", train["step_s"], "stage-2 steps at 512 B"),
        Metric("long_train_bytes_per_s", "bytes_per_s", train["step_bytes"] / sum(train["step_s"]),
               "B/s", len(train["step_s"]), "stage-2 steps at 512 B"),
    ])
    out.attempted += len(evals)
    for doc, (_, o) in zip(s.eval_docs, evals):
        want = min(len(doc), LONG_BYTES)
        out.check(o["n_positions"] == want and math.isfinite(o["ce_nats"]),
                  f"evaluate_bpb scored {o['n_positions']} of {want} bytes, ce {o['ce_nats']}")
    losses = _check_training(out, train, "long steps")
    out.digest = _digest([o["ce_nats"] for _, o in evals] + losses + _check_generation(out, s, raw))
    return out


def _expected_bits(forced: list[int], patch_cap: int) -> list[bool]:
    """Boundary bit of every forced byte, including patch-cap closures, the
    way decode_step applies them after a prefill that ends on a boundary."""
    bits, pending = [], 0
    for sym in forced:
        _, bit = split_fused(sym)
        bit = bit or pending + 1 >= patch_cap
        pending = 0 if bit else pending + 1
        bits.append(bit)
    return bits


def _check_generation(out: Outcome, s: Setup, raw: dict) -> list:
    """Adds the (ungated) generation figures and checks; returns what the
    digest covers."""
    streams = raw["streams"]
    prompt_bytes = sum(len(st["prompt"]) for st in streams)
    prefill_s = sum(st["prefill_s"] for st in streams)
    gaps = [g for st in streams for g in st["gaps"]]
    out.metrics += [
        Metric("prefill_ms_per_byte", None, prefill_s * 1e3 / prompt_bytes, "ms/B",
               len(streams), f"prompts, {prompt_bytes} B in all"),
        *_dist("ttfb_ms", None, [st["prefill_s"] + st["gaps"][0] for st in streams],
               "prompts, prefill plus first decoded byte"),
        *_dist("decode_gap_ms", None, gaps, "decoded bytes"),
        Metric("decode_bytes_per_s", None, len(gaps) / sum(gaps), "B/s", len(gaps), "decoded bytes"),
    ]
    out.attempted += len(streams) + len(gaps)
    digest = []
    for k, st in enumerate(streams):
        bits = _expected_bits(st["forced"], s.mc.patch_cap)
        want = int(st["mask"].sum()) + sum(bits)
        out.check(st["n_global_calls"] == want,
                  f"prompt {k}: {st['n_global_calls']} backbone calls, boundaries give {want}")
        out.check(all(math.isfinite(x) for x in st["nll"]), f"prompt {k}: non-finite log-prob")
        if st["logprobs"] is not None:
            out.check(*_replay(s, raw["params"], st, bits, k))
        digest += st["nll"] + st["sampled"] + [st["n_global_calls"]]
    return digest


def _replay(s, params, st, bits, k) -> tuple[bool, str]:
    """Batch forward over prompt plus continuation under the prefill mask
    and the forced bits must reproduce every incremental distribution."""
    full = st["prompt"] + bytes(split_fused(sym)[0] for sym in st["forced"])
    mask = np.concatenate([st["mask"], np.array(bits, dtype=bool)])
    ids = np.frombuffer(full, dtype=np.uint8).astype(np.int64)
    batch = forward_full(params, s.mc, ids[None, :], suffix_ids(SuffixIndex(s.vocab), full)[None, :],
                         mask[None, :])["logprobs"].data[0]
    first = len(st["prompt"]) - 1
    err = max(float(np.max(np.abs(lp - batch[first + j]))) for j, lp in enumerate(st["logprobs"]))
    return err <= LOGPROB_ATOL, f"prompt {k}: incremental log-probs differ from batch by {err:.2e}"

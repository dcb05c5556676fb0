"""In-process A/B of two copies of the package: training steps and an evaluation.

    python tools/ab_steps.py PARENT_SRC [--change CHANGE_SRC] [--rounds 30] [--seed 1]

PARENT_SRC and CHANGE_SRC are directories that hold a `bytepatch` package
(CHANGE_SRC defaults to this checkout's `src`). The parent's copy is imported
as `bytepatch_parent` beside `bytepatch`, which works because the package
imports itself only relatively. Each side builds the same seeded toy.cfg
inputs through its own public API: a BPE vocabulary, a teacher and a
transplanted byte model, 8 stage-1 windows and 8 stage-2 windows of 88 B,
and one 512-B document. Every round then times one `stage1_step`, one
`stage2_step` and one `evaluate_bpb` on each side, call by call, with the
side that goes first alternating between rounds. The learning rate stays 0,
so every round repeats the same work on the same weights.

It prints, per workload, each side's median `time.thread_time` per call, the
ratio of the medians, the quartiles of the per-round ratios (change over
parent), and the largest relative difference between the two sides' losses.
Run it with one BLAS thread (OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1) on an
otherwise idle machine; the two sides share the process, its heap and the
host's drift.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "toy.cfg"
DOCS = 40  # the BPE corpus; the windows come from its first documents
BATCH, WINDOW_BYTES, LONG_BYTES = 8, 88, 512
TARGET_COMPRESSION = 8.0
LOSS_RTOL = 1e-4  # two float32 sides whose kernels sum in other orders still agree to this
WORKLOADS = ("stage1_step", "stage2_step", "evaluate_bpb")


def load(src: Path, name: str):
    """The `bytepatch` package under `src`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "bytepatch" / "__init__.py", submodule_search_locations=[str(src / "bytepatch")])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Side:
    """One package's inputs and its three calls, each returning a loss."""

    def __init__(self, name: str, seed: int):
        mod = {m: importlib.import_module(f"{name}.{m}")
               for m in ("cli", "data", "model", "optim", "tokenizer", "training")}
        cli, data, model, tok, tr = (mod[m] for m in ("cli", "data", "model", "tokenizer", "training"))
        self.tr, self.optim = tr, mod["optim"]
        cfg = cli.parse_config_file(str(CONFIG))
        docs = [tok.utf8_to_bytes(t) + bytes([data.EOT])
                for t in data.markov_word_docs(seed=seed, n_docs=DOCS, sentences_per_doc=(13, 17))]
        self.vocab = tok.train_bpe(docs, int(cfg["tokenizer.vocab_size"]))
        self.mc = cli.build_model_config(cfg, self.vocab.size)
        rng = np.random.default_rng(seed)
        teacher = model.init_teacher(self.mc, rng)
        self.params = model.init_byte_model(self.mc, rng, teacher)
        windows = [w for w in data.make_windows(docs, WINDOW_BYTES - 1) if len(w) == WINDOW_BYTES - 1][:BATCH]
        self.tc1 = tr.TrainConfig(stage=1, steps=1, batch_size=BATCH, max_bytes=WINDOW_BYTES)
        self.tc2 = tr.TrainConfig(stage=2, steps=1, batch_size=BATCH, max_bytes=WINDOW_BYTES,
                                  merge_kind="bpe", target_compression=TARGET_COMPRESSION)
        self.batch1 = tr.prepare_windows(windows, self.vocab, self.mc, tr.compute_copy(teacher),
                                         self.tc1.strategy())
        self.batch2 = tr.prepare_windows(windows, self.vocab, self.mc, None, self.tc2.strategy())
        self.long_doc = next(d for d in docs if len(d) >= LONG_BYTES)
        # each stage's compute copy and optimizer, trained as train_conversion
        # groups them: stage 1 the byte-level modules, stage 2 everything
        local = [n for n in self.params if self.params.tag(n) in tr.LOCAL_COMPONENTS]
        self.stage1 = self.trainer(local)
        self.stage2 = self.trainer(list(self.params))

    def trainer(self, names: list[str]):
        """A compute copy with `names` in the graph, and their AdamW, whose
        learning rate stays 0."""
        work = self.tr.compute_copy(self.params)
        opt = self.optim.AdamW({"all": [work[n] for n in names]})
        for p in opt.params():
            p.requires_grad = True
        return work, opt

    def stage1_step(self) -> float:
        work, opt = self.stage1
        return self.tr.stage1_step(work, self.mc, self.tc1, opt, self.batch1)["total"]

    def stage2_step(self) -> float:
        work, opt = self.stage2
        return self.tr.stage2_step(work, self.mc, self.tc2, opt, self.batch2)["total"]

    def evaluate_bpb(self) -> float:
        return self.tr.evaluate_bpb(self.params, self.mc, self.vocab, [self.long_doc],
                                    max_doc_bytes=LONG_BYTES)["ce_nats"]


def timed(call) -> tuple[float, float]:
    t0 = time.thread_time()
    loss = call()
    return time.thread_time() - t0, loss


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run(parent_src: Path, change_src: Path, rounds: int, seed: int) -> dict:
    load(parent_src, "bytepatch_parent")
    load(change_src, "bytepatch")
    sides = {"parent": Side("bytepatch_parent", seed), "change": Side("bytepatch", seed)}
    times = {w: {s: [] for s in sides} for w in WORKLOADS}
    worst = {w: 0.0 for w in WORKLOADS}
    for side in sides.values():  # one untimed call each: first-call costs stay out
        for w in WORKLOADS:
            getattr(side, w)()
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for w in WORKLOADS:
            losses = {}
            for s in order:
                dt, losses[s] = timed(getattr(sides[s], w))
                times[w][s].append(dt)
            rel = abs(losses["change"] - losses["parent"]) / max(abs(losses["parent"]), 1e-30)
            worst[w] = max(worst[w], rel)
    report = {}
    for w in WORKLOADS:
        p, c = times[w]["parent"], times[w]["change"]
        ratios = [cc / pp for cc, pp in zip(c, p)]
        report[w] = {"parent_ms": 1e3 * statistics.median(p), "change_ms": 1e3 * statistics.median(c),
                     "ratio": statistics.median(c) / statistics.median(p),
                     "round_ratios": quartiles(ratios), "loss_rel_diff": worst[w],
                     "losses_agree": worst[w] <= LOSS_RTOL}
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="directory holding the parent's bytepatch package")
    ap.add_argument("--change", type=Path, default=ROOT / "src",
                    help="directory holding the changed bytepatch package (default: this checkout's src)")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    report = run(args.parent.resolve(), args.change.resolve(), args.rounds, args.seed)
    print(f"# {args.rounds} rounds, seed {args.seed}, thread_time per call")
    print(f"{'workload':<14} {'parent ms':>10} {'change ms':>10} {'ratio':>7}   round ratios q1/q2/q3   loss rel diff")
    for w, r in report.items():
        q1, q2, q3 = r["round_ratios"]
        print(f"{w:<14} {r['parent_ms']:>10.2f} {r['change_ms']:>10.2f} {r['ratio']:>7.3f}   "
              f"{q1:.3f}/{q2:.3f}/{q3:.3f}       {r['loss_rel_diff']:.1e} "
              f"({'agree' if r['losses_agree'] else 'DIFFER'})")
    return 0 if all(r["losses_agree"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

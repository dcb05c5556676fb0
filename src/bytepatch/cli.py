"""Command-line surface.

Subcommands cover the full pipeline: corpus synthesis, teacher training,
stage-1 distillation, stage-2 end-to-end training with merged boundary
supervision, evaluation, generation, checkpoint arithmetic, embedding spectrum
reports, and boundary-mask dumps. Every command takes --config (flat key=value
file with section prefixes) and --seed; metrics stream as line-delimited JSON.

Exit codes: 0 success, 2 usage, 3 invalid config, 4 missing file,
5 bad checkpoint, 1 other runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses as dc
import json
import sys
import time
from pathlib import Path

import numpy as np

from .boundaries import MergeStrategy, attained_compression, mask_to_rle
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import EOT, compound_docs, load_corpus, markov_word_docs, write_corpus
from .inference import SamplerConfig, generate
from .losses import LossWeights
from .merging import format_spectrum, reset_embeddings_check, spectrum_report, task_arithmetic_merge
from .model import (
    GlobalConfig,
    LOCAL_COMPONENTS,
    MlstmConfig,
    ModelConfig,
    forward_full,
    init_byte_model,
    init_teacher,
)
from .tokenizer import load_vocab, save_vocab, train_bpe, utf8_to_bytes
from .training import (
    TrainConfig,
    evaluate_alignment,
    evaluate_bpb,
    prepare_window,
    train_conversion,
    train_teacher,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_CHECKPOINT = 5


class ConfigFileError(ValueError):
    pass


def parse_config_file(path: str | None) -> dict[str, str]:
    """Flat `section.key=value` lines; '#' starts a comment."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file {path} not found")
    out: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(value: str, typ):
    if typ is bool:
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise ConfigFileError(f"bad boolean {value!r}")
    return typ(value)


def build_model_config(cfg: dict[str, str], vocab_size: int, base: ModelConfig | None = None) -> ModelConfig:
    """Overlay model.* keys onto `base` (the defaults when None) and construct
    once, so validation sees the final values. The base is the teacher's
    config when converting it: a key that would change the transplanted
    backbone (`d`, `global.*`) is then rejected."""
    if base is None:
        values = {f.name: f.default for f in dc.fields(ModelConfig) if f.default is not dc.MISSING}
        values["mlstm"] = dc.asdict(MlstmConfig())
        values["global_model"] = dc.asdict(GlobalConfig())
    else:
        values = base.to_dict()
    values["vocab_size"] = vocab_size  # always taken from the tokenizer
    groups = {"mlstm": values["mlstm"], "global": values["global_model"]}
    for key, value in cfg.items():
        if not key.startswith("model.") or key == "model.vocab_size":
            continue
        rest = key[len("model.") :]
        head, _, tail = rest.partition(".")
        group, name = (groups.get(head), tail) if tail else (values, rest)
        if group is None or name not in group or isinstance(group[name], dict):
            raise ConfigFileError(f"unknown config key {key!r}")
        new = _coerce(value, type(group[name]))
        if base is not None and new != group[name] and (rest == "d" or head == "global"):
            raise ConfigFileError(f"{key}={value} changes the teacher's backbone ({group[name]})")
        group[name] = new
    try:
        return ModelConfig.from_dict(values)
    except (TypeError, ValueError) as e:
        raise ConfigFileError(str(e)) from None


def build_train_config(cfg: dict[str, str], stage: int, args) -> TrainConfig:
    """Overlay train.* keys (lambda_* for loss weights) and the subcommand's
    flags onto the defaults and construct once, so validation sees them."""
    values = {f.name: f.default for f in dc.fields(TrainConfig) if f.default is not dc.MISSING}
    weights = dc.asdict(LossWeights())
    for key, value in cfg.items():
        if not key.startswith("train."):
            continue
        name = key[len("train.") :]
        group, field = (weights, name[len("lambda_") :]) if name.startswith("lambda_") else (values, name)
        # the subcommand sets the stage and --seed the seed
        if name in ("stage", "seed") or field not in group:
            raise ConfigFileError(f"unknown config key {key!r}")
        group[field] = _coerce(value, type(group[field]))
    if getattr(args, "steps", None) is not None:
        values["steps"] = args.steps
    if getattr(args, "merge_strategy", None):
        values["merge_kind"] = args.merge_strategy
    if getattr(args, "target_compression", None) is not None:
        values["target_compression"] = args.target_compression
    values.update(stage=stage, seed=args.seed, loss_weights=LossWeights(**weights))
    try:
        return TrainConfig(**values)
    except ValueError as e:
        raise ConfigFileError(str(e)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_corpus(args, cfg: dict[str, str]):
    holdout = float(cfg.get("data.holdout_frac", "0.1"))
    data_seed = int(cfg.get("data.seed", "0"))
    return load_corpus(args.data, seed=data_seed, holdout_frac=holdout)


def _load_ckpt(path: str):
    if not Path(path).exists():
        raise FileNotFoundError(f"checkpoint {path} not found")
    return load_checkpoint(path)


# -- subcommands ------------------------------------------------------------------

def cmd_make_corpus(args) -> int:
    if args.kind == "words":
        docs = markov_word_docs(seed=args.seed, n_docs=args.docs)
    elif args.kind == "shifted-words":
        docs = markov_word_docs(seed=args.seed, n_docs=args.docs, transition_seed=args.seed + 9001)
    else:
        docs = compound_docs(seed=args.seed, n_docs=args.docs)
    write_corpus(args.out, docs)
    print(f"wrote {len(docs)} documents to {args.out}")
    return EXIT_OK


def cmd_train_teacher(args) -> int:
    cfg = parse_config_file(args.config)
    corpus = _load_corpus(args, cfg)
    vocab_size = int(cfg.get("tokenizer.vocab_size", "420"))
    t0 = time.perf_counter()
    vocab = train_bpe(corpus.train, vocab_size)
    print(f"tokenizer: {len(vocab.merges)} merges from {sum(map(len, corpus.train))} corpus bytes "
          f"in {time.perf_counter() - t0:.2f} s{' (truncated)' if vocab.truncated else ''}", file=sys.stderr)
    if vocab.truncated:
        print(f"warning: corpus supports only {vocab.size} ids (asked {vocab_size})", file=sys.stderr)
    mc = build_model_config(cfg, vocab.size)
    tc = build_train_config(cfg, stage=1, args=args)
    rng = np.random.default_rng(args.seed)
    params = init_teacher(mc, rng)
    log = train_teacher(params, mc, vocab, corpus.train, tc, log_path=args.log)
    save_vocab(vocab, args.vocab_out)
    save_checkpoint(args.out, params, mc, kind="teacher",
                    metadata={"seed": args.seed, "steps": tc.steps})
    last = log.records[-1] if log.records else {}
    print(f"teacher saved to {args.out} (vocab {vocab.size}, final loss {last.get('total', float('nan')):.4f})")
    return EXIT_OK


def cmd_stage1(args) -> int:
    cfg = parse_config_file(args.config)
    corpus = _load_corpus(args, cfg)
    vocab = load_vocab(args.vocab)
    teacher, teacher_mc, _ = _load_ckpt(args.teacher)
    mc = build_model_config(cfg, teacher_mc.vocab_size, teacher_mc)
    tc = build_train_config(cfg, stage=1, args=args)
    rng = np.random.default_rng(args.seed)
    params = init_byte_model(mc, rng, teacher, fresh_suffix=args.fresh_suffix)
    n_local = params.n_params(LOCAL_COMPONENTS)
    print(f"byte-level parameters: {n_local} ({params.n_params():,} total)")
    train_conversion(params, mc, vocab, teacher, corpus.train, tc, log_path=args.log)
    save_checkpoint(args.out, params, mc, kind="byte_model",
                    metadata={"stage": 1, "seed": args.seed, "steps": tc.steps})
    print(f"stage-1 model saved to {args.out}")
    return EXIT_OK


def cmd_stage2(args) -> int:
    cfg = parse_config_file(args.config)
    corpus = _load_corpus(args, cfg)
    vocab = load_vocab(args.vocab)
    params, mc, header = _load_ckpt(args.model)
    tc = build_train_config(cfg, stage=2, args=args)
    teacher = None
    if tc.strategy().needs_teacher:
        if not args.teacher:
            print("error: entropy/xent supervision needs --teacher", file=sys.stderr)
            return EXIT_USAGE
        teacher, _, _ = _load_ckpt(args.teacher)
    train_conversion(params, mc, vocab, teacher, corpus.train, tc, log_path=args.log)
    save_checkpoint(args.out, params, mc, kind="byte_model",
                    metadata={"stage": 2, "seed": args.seed, "steps": tc.steps,
                              "merge": tc.merge_kind, "target_compression": tc.target_compression})
    print(f"stage-2 model saved to {args.out}")
    return EXIT_OK


def cmd_eval_bpb(args) -> int:
    cfg = parse_config_file(args.config)
    corpus = _load_corpus(args, cfg)
    vocab = load_vocab(args.vocab)
    params, mc, _ = _load_ckpt(args.model)
    strategy = MergeStrategy(args.merge_strategy, args.target_compression or 0.0)
    if strategy.needs_teacher and not args.teacher:
        print("error: entropy/xent supervision needs --teacher", file=sys.stderr)
        return EXIT_USAGE
    teacher = _load_ckpt(args.teacher)[0] if args.teacher else None
    docs = corpus.heldout or corpus.train
    out = evaluate_bpb(params, mc, vocab, docs, strategy, teacher, max_doc_bytes=args.max_doc_bytes)
    if teacher is not None and args.merge_strategy == "subword":
        out.update(evaluate_alignment(params, mc, vocab, teacher, docs, max_doc_bytes=args.max_doc_bytes))
    print(json.dumps(out))
    return EXIT_OK


def cmd_generate(args) -> int:
    vocab = load_vocab(args.vocab)
    params, mc, _ = _load_ckpt(args.model)
    prompt = bytes([EOT]) + (utf8_to_bytes(args.prompt) if args.prompt else b"")
    sampler = SamplerConfig(temperature=args.temperature, top_p=args.top_p, seed=args.seed)
    out = generate(params, mc, vocab.suffix_index, prompt, args.max_bytes, sampler)
    if args.out:
        Path(args.out).write_bytes(out)
    else:
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()
        if sys.stdout.isatty():
            print()
    return EXIT_OK


def cmd_merge(args) -> int:
    byte_model, mc, _ = _load_ckpt(args.model)
    base, _, _ = _load_ckpt(args.base)
    post, _, _ = _load_ckpt(args.posttrained)
    merged = task_arithmetic_merge(byte_model, base, post)
    save_checkpoint(args.out, merged, mc, kind="byte_model", metadata={"merged": True})
    print(f"merged checkpoint saved to {args.out}")
    return EXIT_OK


def cmd_reset_check(args) -> int:
    cfg = parse_config_file(args.config)
    corpus = _load_corpus(args, cfg)
    vocab = load_vocab(args.vocab)
    base, mc, _ = _load_ckpt(args.base)
    post, _, _ = _load_ckpt(args.posttrained)
    out = reset_embeddings_check(base, post, mc, vocab, corpus.heldout or corpus.train)
    print(json.dumps(out))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params, _, _ = _load_ckpt(args.model)
    name = args.tensor
    if name not in params:
        print(f"error: tensor {name!r} not in checkpoint "
              f"(try {', '.join(params.names()[:4])} ...)", file=sys.stderr)
        return EXIT_USAGE
    print(format_spectrum(spectrum_report(params[name].data), max_rows=args.max_rows))
    return EXIT_OK


def cmd_boundary_dump(args) -> int:
    cfg = parse_config_file(args.config)
    corpus = _load_corpus(args, cfg)
    vocab = load_vocab(args.vocab)
    teacher = None
    params = mc = None
    if args.model:
        params, mc, _ = _load_ckpt(args.model)
    if args.teacher:
        teacher, mc_t, _ = _load_ckpt(args.teacher)
        mc = mc or mc_t
    strategy = MergeStrategy(args.merge_strategy, args.target_compression or 0.0)
    if mc is None or (strategy.needs_teacher and teacher is None):
        print("error: need --model (and --teacher for entropy/xent) here", file=sys.stderr)
        return EXIT_USAGE
    if args.predicted and params is None:
        print("error: --predicted needs --model", file=sys.stderr)
        return EXIT_USAGE
    scorer = teacher if strategy.needs_teacher else None
    docs = (corpus.heldout or corpus.train)[: args.docs]
    masks = []
    for doc in docs:
        content = doc[: args.max_doc_bytes]
        w = prepare_window(content, vocab, mc, scorer, strategy)
        if args.predicted:
            out = forward_full(params, mc, w.model_bytes[None, :], w.suffix[None, :], mask=None)
            mask = out["mask"][0][1:]  # drop the BOS pseudo-patch position
        else:
            mask = w.mask[1:]
        masks.append(mask)
        print(mask_to_rle(mask))
    print(f"# attained compression: {attained_compression(masks):.4f}", file=sys.stderr)
    return EXIT_OK


# -- argument wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bytepatch", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, data=False):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        if data:
            p.add_argument("--data", required=True, help="corpus directory")

    p = sub.add_parser("make-corpus", help="write a synthetic corpus")
    common(p)
    p.add_argument("--kind", choices=["words", "shifted-words", "compounds"], default="words")
    p.add_argument("--docs", type=_positive_int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_corpus)

    p = sub.add_parser("train-teacher", help="train the toy subword LM and its tokenizer")
    common(p, data=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--log", default=None)
    p.set_defaults(fn=cmd_train_teacher)

    p = sub.add_parser("stage1", help="distill the teacher into a byte-level model")
    common(p, data=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--log", default=None)
    p.add_argument("--fresh-suffix", action="store_true",
                   help="random suffix table instead of copying the teacher's embeddings")
    p.set_defaults(fn=cmd_stage1)

    p = sub.add_parser("stage2", help="end-to-end training with merged supervision")
    common(p, data=True)
    p.add_argument("--model", required=True)
    p.add_argument("--teacher", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--log", default=None)
    p.add_argument("--merge-strategy", choices=MergeStrategy.KINDS, default="subword")
    p.add_argument("--target-compression", type=float, default=None)
    p.set_defaults(fn=cmd_stage2)

    p = sub.add_parser("eval-bpb", help="bits/byte, boundary accuracy, attained compression")
    common(p, data=True)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--teacher", default=None)
    p.add_argument("--merge-strategy", choices=MergeStrategy.KINDS, default="subword")
    p.add_argument("--target-compression", type=float, default=None)
    p.add_argument("--max-doc-bytes", type=_positive_int, default=512)
    p.set_defaults(fn=cmd_eval_bpb)

    p = sub.add_parser("generate", help="sample bytes from a trained model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--max-bytes", type=_positive_int, default=256)
    p.add_argument("--temperature", type=float, default=0.6)
    p.add_argument("--top-p", type=float, default=0.6)
    p.add_argument("--out", default=None, help="write raw bytes here instead of stdout")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("merge", help="add a post-training delta to the backbone")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--posttrained", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("reset-check", help="embedding resettability diagnostic")
    common(p, data=True)
    p.add_argument("--base", required=True)
    p.add_argument("--posttrained", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(fn=cmd_reset_check)

    p = sub.add_parser("spectrum", help="singular-value explained variance of a tensor")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tensor", default="subword_embed.table")
    p.add_argument("--max-rows", type=_positive_int, default=None, help="all rows when omitted")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("boundary-dump", help="emit supervision or predicted masks as RLE")
    common(p, data=True)
    p.add_argument("--model", default=None)
    p.add_argument("--teacher", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--merge-strategy", choices=MergeStrategy.KINDS, default="subword")
    p.add_argument("--target-compression", type=float, default=None)
    p.add_argument("--predicted", action="store_true", help="dump the model's own boundaries")
    p.add_argument("--docs", type=_positive_int, default=16)
    p.add_argument("--max-doc-bytes", type=_positive_int, default=512)
    p.set_defaults(fn=cmd_boundary_dump)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ConfigFileError,) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING
    except CheckpointError as e:
        print(f"error: bad checkpoint: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

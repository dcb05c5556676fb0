"""Command-line surface.

Subcommands cover the full pipeline: corpus synthesis, teacher training,
stage-1 distillation, stage-2 end-to-end training with merged boundary
supervision, evaluation, generation, checkpoint arithmetic, embedding spectrum
reports, and boundary-mask dumps. Every command takes --config (flat key=value
file with section prefixes) and --seed; metrics stream as line-delimited JSON.

Exit codes: 0 success, 2 usage, 3 invalid config, 4 missing file, 5 bad
checkpoint, one of the wrong kind for its flag or a teacher of another shape
than the model it meets, 1 other runtime failure.
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
from .merging import MergeError, format_spectrum, reset_embeddings_check, spectrum_report, task_arithmetic_merge
from .model import LOCAL_COMPONENTS, ModelConfig, forward_full, init_byte_model, init_teacher
from .tokenizer import load_vocab, save_vocab, train_bpe, utf8_to_bytes
from .training import (
    TrainConfig,
    compute_copy,
    evaluate_bpb,
    prepare_windows,
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


class UsageError(Exception):
    """Flags that no run of the command can honour (exit 2)."""


# sections a config file may set that no config class owns, at their defaults
DATA_DEFAULTS = {"holdout_frac": 0.1}  # load_corpus's keyword
TOKENIZER_DEFAULTS = {"vocab_size": 420}
# fields the code derives, never a file: the tokenizer's vocabulary size, the
# subcommand's stage and --seed
DERIVED = ("model.vocab_size", "train.stage", "train.seed")


def parse_config_file(path: str | None) -> dict[str, str]:
    """Flat `section.key=value` lines; '#' starts a comment. Every key must
    name a settable field of the model, train, data or tokenizer section,
    and appear on one line only."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file {path} not found")
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # each key's line
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first:
            raise ConfigFileError(f"{path}:{lineno}: {key} is already set at {path}:{first[key]}")
        first[key], out[key] = lineno, value
    sections = {"model": ModelConfig().to_dict(), "train": dc.asdict(TrainConfig()),
                "data": DATA_DEFAULTS, "tokenizer": TOKENIZER_DEFAULTS}
    for key in out:
        if key.partition(".")[0] not in sections:
            raise ConfigFileError(f"unknown config key {key!r}")
    for section, defaults in sections.items():
        _overlay(out, section, defaults)
    return out


def _overlay(cfg: dict[str, str], section: str, defaults: dict) -> dict:
    """A copy of `defaults` with each `section.name` key of `cfg` set on the
    field `name`, coerced to the default's type. Any other key of the
    section, or a derived one, is unknown."""
    values = dict(defaults)
    for key, text in cfg.items():
        prefix, _, name = key.partition(".")
        if prefix != section:
            continue
        if name not in values or key in DERIVED:
            raise ConfigFileError(f"unknown config key {key!r}")
        try:
            values[name] = type(values[name])(text)
        except ValueError as e:
            raise ConfigFileError(f"{key}={text}: {e}") from None
    return values


# the teacher's backbone, which a converted model transplants; ffn_hidden also
# sizes the backbone's FFNs
BACKBONE = ("d", "ffn_hidden", "global_layers", "global_heads", "global_head_dim")
# the fields that shape a teacher's tensors, which a teacher must share with
# the checkpoint it meets
TEACHER_FIELDS = ("vocab_size", *BACKBONE)


def build_model_config(cfg: dict[str, str], vocab_size: int, base: ModelConfig | None = None,
                       keep: tuple[str, ...] = BACKBONE) -> ModelConfig:
    """Overlay model.* keys onto `base` (the defaults when None) and construct
    once, so validation sees the final values. The base is a checkpoint's
    config, and a valid config that changes one of its `keep` fields is
    rejected, naming the key: the backbone when converting a teacher, every
    field when a command runs a saved model (`_open`)."""
    values = _overlay(cfg, "model", (base or ModelConfig()).to_dict())
    try:
        mc = ModelConfig.from_dict({**values, "vocab_size": vocab_size})
    except ValueError as e:
        raise ConfigFileError(str(e)) from None
    if base is not None:
        changed = [f"model.{k}={values[k]} differs from the checkpoint's {getattr(base, k)}"
                   for k in keep if values[k] != getattr(base, k)]
        if changed:
            raise ConfigFileError("; ".join(changed))
    return mc


def build_train_config(cfg: dict[str, str], stage: int, args) -> TrainConfig:
    """Overlay train.* keys and the subcommand's flags onto the defaults and
    construct once, so validation sees them."""
    values = _overlay(cfg, "train", dc.asdict(TrainConfig()))
    flags = {"steps": getattr(args, "steps", None), "merge_kind": getattr(args, "merge_strategy", None),
             "target_compression": getattr(args, "target_compression", None)}
    values.update({name: v for name, v in flags.items() if v is not None}, stage=stage, seed=args.seed)
    try:
        return TrainConfig(**values)
    except ValueError as e:
        raise ConfigFileError(str(e)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# the flags two or more commands take, each stated once as add_argument
# keywords; a command that takes one differently overrides it at its own call
SHARED_FLAGS = {
    "data": dict(required=True, help="corpus directory"),
    "model": dict(required=True),
    "teacher": {},
    "vocab": dict(required=True),
    "base": dict(required=True),
    "posttrained": dict(required=True),
    "out": dict(required=True),
    "steps": dict(type=int),
    "log": {},
    "merge-strategy": dict(choices=MergeStrategy.KINDS, default="subword"),
    "target-compression": dict(type=float),
    "max-doc-bytes": dict(type=_positive_int, default=512),
}


def _load_corpus(args):
    return load_corpus(args.data, **_overlay(args.cfg, "data", DATA_DEFAULTS))


def _open(path: str, kind: str | None, cfg: dict[str, str] | None = None,
          meets: tuple[str, ModelConfig] | None = None):
    """The params and config saved at `path`, a checkpoint of `kind` (either
    kind when None). Given the config file `cfg`, each of its model.* keys
    must agree with the saved config, since the weights fix every field.
    Given the path and config of the checkpoint it `meets`, the saved config
    must equal that one in each of TEACHER_FIELDS, naming the first that differs."""
    if not Path(path).exists():
        raise FileNotFoundError(f"checkpoint {path} not found")
    params, mc, header = load_checkpoint(path)
    if kind is not None and header["kind"] != kind:
        raise CheckpointError(f"{path} is a {header['kind']} checkpoint, not a {kind}")
    if cfg is not None:
        build_model_config(cfg, mc.vocab_size, base=mc, keep=tuple(mc.to_dict()))
    if meets is not None:
        ref_path, ref = meets
        for k in TEACHER_FIELDS:
            if getattr(mc, k) != getattr(ref, k):
                raise CheckpointError(f"{path} has {k}={getattr(mc, k)} where {ref_path} has {k}={getattr(ref, k)}")
    return params, mc


def _teacher(args, strategy: MergeStrategy, meets: tuple[str, ModelConfig] | None):
    """The params and config of --teacher, or (None, None) without the flag,
    which entropy/xent supervision requires. A teacher that meets no model is
    the only model the command runs, so the config file is checked against it."""
    if not args.teacher:
        if strategy.needs_teacher:
            raise UsageError("entropy/xent supervision needs --teacher")
        return None, None
    return _open(args.teacher, "teacher", None if meets else args.cfg, meets)


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
    corpus = _load_corpus(args)
    vocab_size = _overlay(args.cfg, "tokenizer", TOKENIZER_DEFAULTS)["vocab_size"]
    tc = build_train_config(args.cfg, stage=1, args=args)
    t0 = time.perf_counter()
    vocab = train_bpe(corpus.train, vocab_size)
    print(f"tokenizer: {len(vocab.merges)} merges from {sum(map(len, corpus.train))} corpus bytes "
          f"in {time.perf_counter() - t0:.2f} s{' (truncated)' if vocab.truncated else ''}", file=sys.stderr)
    if vocab.truncated:
        print(f"warning: corpus supports only {vocab.size} ids (asked {vocab_size})", file=sys.stderr)
    mc = build_model_config(args.cfg, vocab.size)
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
    corpus = _load_corpus(args)
    vocab = load_vocab(args.vocab)
    teacher, teacher_mc = _open(args.teacher, "teacher")
    mc = build_model_config(args.cfg, teacher_mc.vocab_size, teacher_mc)
    tc = build_train_config(args.cfg, stage=1, args=args)
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
    corpus = _load_corpus(args)
    vocab = load_vocab(args.vocab)
    params, mc = _open(args.model, "byte_model", args.cfg)
    tc = build_train_config(args.cfg, stage=2, args=args)
    teacher, _ = _teacher(args, tc.strategy(), (args.model, mc))
    train_conversion(params, mc, vocab, teacher, corpus.train, tc, log_path=args.log)
    save_checkpoint(args.out, params, mc, kind="byte_model",
                    metadata={"stage": 2, "seed": args.seed, "steps": tc.steps,
                              "merge": tc.merge_kind, "target_compression": tc.target_compression})
    print(f"stage-2 model saved to {args.out}")
    return EXIT_OK


def cmd_eval_bpb(args) -> int:
    corpus = _load_corpus(args)
    vocab = load_vocab(args.vocab)
    params, mc = _open(args.model, "byte_model", args.cfg)
    strategy = MergeStrategy(args.merge_strategy, args.target_compression or 0.0)
    teacher, _ = _teacher(args, strategy, (args.model, mc))
    out = evaluate_bpb(params, mc, vocab, corpus.heldout or corpus.train, strategy, teacher,
                       max_doc_bytes=args.max_doc_bytes)
    print(json.dumps(out))
    return EXIT_OK


def cmd_generate(args) -> int:
    vocab = load_vocab(args.vocab)
    params, mc = _open(args.model, "byte_model", args.cfg)
    prompt = bytes([EOT]) + (utf8_to_bytes(args.prompt) if args.prompt else b"")
    sampler = SamplerConfig(temperature=args.temperature, top_p=args.top_p, seed=args.seed)
    out = generate(params, mc, vocab.suffix_index, prompt, args.max_bytes, sampler)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_bytes(out)
    else:
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()
        if sys.stdout.isatty():
            print()
    return EXIT_OK


def cmd_merge(args) -> int:
    byte_model, mc = _open(args.model, "byte_model", args.cfg)
    base, _ = _open(args.base, "teacher", meets=(args.model, mc))
    post, _ = _open(args.posttrained, "teacher", meets=(args.model, mc))
    merged = task_arithmetic_merge(byte_model, base, post)
    save_checkpoint(args.out, merged, mc, kind="byte_model", metadata={"merged": True})
    print(f"merged checkpoint saved to {args.out}")
    return EXIT_OK


def cmd_reset_check(args) -> int:
    corpus = _load_corpus(args)
    vocab = load_vocab(args.vocab)
    base, mc = _open(args.base, "teacher", args.cfg)
    post, _ = _open(args.posttrained, "teacher", meets=(args.base, mc))
    out = reset_embeddings_check(base, post, mc, vocab, corpus.heldout or corpus.train)
    print(json.dumps(out))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params, _ = _open(args.model, None)
    name = args.tensor
    if name not in params:
        raise UsageError(f"tensor {name!r} not in checkpoint (try {', '.join(sorted(params)[:4])} ...)")
    if len(params[name].shape) != 2:
        raise UsageError(f"tensor {name!r} has shape {params[name].shape}, not a matrix")
    try:
        report = spectrum_report(params[name].data)
    except MergeError as e:  # an all-zero matrix has no spectrum
        raise UsageError(f"tensor {name!r}: {e}") from e
    print(format_spectrum(report, max_rows=args.max_rows))
    return EXIT_OK


def cmd_boundary_dump(args) -> int:
    corpus = _load_corpus(args)
    vocab = load_vocab(args.vocab)
    if args.predicted and not args.model:
        raise UsageError("--predicted needs --model")
    params, mc = _open(args.model, "byte_model", args.cfg) if args.model else (None, None)
    strategy = MergeStrategy(args.merge_strategy, args.target_compression or 0.0)
    if args.predicted:  # the dump prints the model's own boundaries, so no teacher merges a mask
        strategy = MergeStrategy("subword")
    teacher, teacher_mc = _teacher(args, strategy, (args.model, mc) if args.model else None)
    contents = [doc[: args.max_doc_bytes] for doc in (corpus.heldout or corpus.train)[: args.docs]]
    windows = prepare_windows(contents, vocab, teacher_mc,
                              compute_copy(teacher) if strategy.needs_teacher else None, strategy)
    # each mask leaves out the BOS pseudo-patch position
    if args.predicted:
        params = compute_copy(params)
        masks = [forward_full(params, mc, w.model_bytes[None, :], w.suffix[None, :])["mask"][0, 1:] for w in windows]
    else:
        masks = [w.mask[1:] for w in windows]
    for mask in masks:
        print(mask_to_rle(mask))
    print(f"# attained compression: {attained_compression(masks):.4f}", file=sys.stderr)
    return EXIT_OK


# -- argument wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bytepatch", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, shared, own=None, **overrides):
        """Subcommand `name`: --config, --seed, the SHARED_FLAGS in `shared`, each updated by
        the keyword of its dest in `overrides`, and its `own` flags, {flag: add_argument keywords}."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        for flag in shared:
            p.add_argument(f"--{flag}", **{**SHARED_FLAGS[flag], **overrides.get(flag.replace("-", "_"), {})})
        for flag, kwargs in (own or {}).items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(fn=fn)

    command("make-corpus", cmd_make_corpus, "write a synthetic corpus", ["out"], {
        "kind": dict(choices=["words", "shifted-words", "compounds"], default="words"),
        "docs": dict(type=_positive_int, default=200)})
    command("train-teacher", cmd_train_teacher, "train the toy subword LM and its tokenizer",
            ["data", "out", "steps", "log"], {"vocab-out": dict(required=True)})
    command("stage1", cmd_stage1, "distill the teacher into a byte-level model",
            ["data", "teacher", "vocab", "out", "steps", "log"], {
                "fresh-suffix": dict(action="store_true",
                                     help="random suffix table instead of copying the teacher's embeddings")},
            teacher=dict(required=True))
    command("stage2", cmd_stage2, "end-to-end training with merged supervision",
            ["data", "model", "teacher", "vocab", "out", "steps", "log", "merge-strategy", "target-compression"],
            merge_strategy=dict(default=None, help="overrides train.merge_kind"),
            target_compression=dict(help="overrides train.target_compression"))
    command("eval-bpb", cmd_eval_bpb, "bits/byte, boundary accuracy, attained compression",
            ["data", "model", "vocab", "teacher", "merge-strategy", "target-compression", "max-doc-bytes"])
    command("generate", cmd_generate, "sample bytes from a trained model", ["model", "vocab", "out"], {
        "prompt": dict(default=""),
        "max-bytes": dict(type=_positive_int, default=256),
        "temperature": dict(type=float, default=0.6),
        "top-p": dict(type=float, default=0.6)},
        out=dict(required=False, help="write raw bytes here instead of stdout"))
    command("merge", cmd_merge, "add a post-training delta to the backbone",
            ["model", "base", "posttrained", "out"])
    command("reset-check", cmd_reset_check, "embedding resettability diagnostic",
            ["data", "base", "posttrained", "vocab"])
    command("spectrum", cmd_spectrum, "singular-value explained variance of a tensor", ["model"], {
        "tensor": dict(default="subword_embed.table"),
        "max-rows": dict(type=_positive_int, default=None, help="all rows when omitted")})
    command("boundary-dump", cmd_boundary_dump, "emit supervision or predicted masks as RLE",
            ["data", "model", "teacher", "vocab", "merge-strategy", "target-compression", "max-doc-bytes"], {
                "predicted": dict(action="store_true", help="dump the model's own boundaries"),
                "docs": dict(type=_positive_int, default=16)},
            model=dict(required=False))
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.cfg = parse_config_file(args.config)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigFileError as e:
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

"""Two-stage conversion training plus the toy teacher's own training loop.

Stage 1 distills the frozen subword teacher into the byte-level modules: the
boundary head learns the teacher's token ends, pooled encoder states are
matched to teacher activations probed through the first n backbone layers, and
the decoder path is driven by the teacher's final-layer states through the
depooling so patch likelihoods can be compared exactly. The backbone is frozen
and the decoder path does not backpropagate into the encoder.

Stage 2 trains everything end-to-end with predicted-boundary pooling, keeping
only the boundary BCE and the fused cross-entropy, with the byte-level modules
on twice the backbone learning rate. Both stages weigh the boundary BCE by
`BOUNDARY_WEIGHT` and every other term by 1.

This module alone turns text into windows, and `prepare_windows` is the one
builder: each content is encoded once, the teacher (when given) runs over all
of them in batches of equal token count, and the subword mask is merged under
the strategy into the one supervision mask the window carries. Only subword
windows keep the teacher's outputs: a merged mask's patches are no longer the
teacher's tokens. `train_conversion` cuts documents with `make_windows` and
hands the teacher over only for stage 1 and scored merges; `evaluate_bpb` and
`boundary-dump` build the windows of all their documents in one call.
`prepare_window` is the same call on one content.
Both stages and the teacher's own training share one step loop; metrics
stream to a line-delimited log, one JSON record per step. The loop alone
puts tensors in the autodiff graph: every step runs forward and backward on
a float32 copy of the parameters (`compute_copy`), whose trained entries are
in the graph while the loop runs; AdamW updates them in place with float32
moments and drops each gradient once applied, so no step's gradients live
through the next step's forward, and the caller's float64 store takes the
trained values once, when the loop ends. The forward-only passes compute on
such copies too, made by their entry points and never in the graph:
`train_conversion` runs the teacher for its windows on one, and
`evaluate_bpb`, the one held-out scorer (one pass, one window per document),
runs the model and the teacher on theirs.
`prepare_windows` and `prepare_window` compute in the dtype of the store
they are given. Parameters at rest, checkpoints and decoding stay float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundaries import (MergeStrategy, attained_compression, check_target_compression, merge_bpe_per_example,
                         merge_by_score)
from .data import EOT, MIN_WINDOW_BYTES, make_windows
from .losses import (boundary_bce, bits_per_byte, ce_fused, decoder_distill, encoder_match, next_symbol_logprobs,
                     patch_logprobs)
from .model import (
    LOCAL_COMPONENTS,
    ModelConfig,
    ParamStore,
    embed_bytes,
    forward_full,
    fused_targets,
    local_decode,
    local_encode,
    depool,
    lm_head_fused,
    pad_rows,
    pool_indices,
    pool_last,
    predict_boundaries,
    predicted_mask,
    transformer_probe,
)
from .optim import AdamW
from .teacher import TeacherOutputs, run_teachers, teacher_nll
from .tensor import Tensor
from .tokenizer import SubwordVocab, encode, mask_from_token_ids, suffix_ids

COMPUTE_DTYPE = np.float32  # every training step, its AdamW moments and every forward-only pass
BOUNDARY_WEIGHT = 4.0  # the boundary BCE's weight in both stages' totals


def compute_copy(params: ParamStore) -> ParamStore:
    """A store of new COMPUTE_DTYPE arrays with `params`' values, outside the
    graph: what every training step and forward-only pass computes on."""
    return ParamStore({n: Tensor(t.data.astype(COMPUTE_DTYPE)) for n, t in params.items()})


@dataclass
class TrainConfig:
    stage: int = 1
    steps: int = 1000
    batch_size: int = 8
    max_bytes: int = 128  # window length including the BOS byte
    peak_lr: float = 1e-3  # byte-level modules; the backbone (stage 2) gets half
    warmup_steps: int = 0  # 0 -> steps // 10
    merge_kind: str = "subword"  # stage 2 only; stage 1 always distills subword ends
    target_compression: float = 0.0  # stage 2 only
    seed: int = 0

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        for name in ("steps", "peak_lr", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not np.isfinite(self.peak_lr):
            raise ValueError(f"peak_lr must be finite, got {self.peak_lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_bytes < 1 + MIN_WINDOW_BYTES:
            raise ValueError(f"max_bytes must be >= {1 + MIN_WINDOW_BYTES}, got {self.max_bytes}")
        if self.merge_kind not in MergeStrategy.KINDS:
            raise ValueError(f"merge_kind must be one of {', '.join(MergeStrategy.KINDS)}, got {self.merge_kind!r}")
        check_target_compression(self.target_compression)

    def strategy(self) -> MergeStrategy:
        """The boundary supervision this stage trains on: the teacher's own
        subword ends in stage 1, `merge_kind` at `target_compression` in stage 2."""
        if self.stage == 1:
            return MergeStrategy("subword")
        return MergeStrategy(self.merge_kind, self.target_compression)


def lr_at(config: TrainConfig, step: int) -> dict[str, float]:
    """Linear warmup to peak, then linear decay to zero at `steps`; the
    backbone's peak is half the byte-level modules'."""
    if step < 0:
        raise ValueError("step must be >= 0")
    warmup = config.warmup_steps or max(1, config.steps // 10)
    if step <= warmup:
        frac = step / warmup
    else:
        frac = max(0.0, (config.steps - step) / max(1, config.steps - warmup))
    return {"local": config.peak_lr * frac, "global": config.peak_lr / 2.0 * frac}


# -- cached training windows ----------------------------------------------------

@dataclass
class Window:
    """One fixed training sequence with everything the steps consume."""

    model_bytes: np.ndarray  # [EOT as BOS] + content bytes
    suffix: np.ndarray  # longest-suffix token id per model position
    mask: np.ndarray  # supervision boundaries over model positions; BOS flagged
    teacher: TeacherOutputs | None  # when a teacher ran and the mask is its token ends (subword)

    def __len__(self) -> int:
        return len(self.model_bytes)


def prepare_windows(
    contents: list[bytes],
    vocab: SubwordVocab,
    cfg: ModelConfig,
    teacher_params: ParamStore | None,
    strategy: MergeStrategy,
) -> list[Window]:
    """The window of each of `contents`: each is encoded once, the teacher
    (when given) runs over all of them in batches of equal token count, and
    the subword mask merged under `strategy` is the window's supervision. Only
    a subword window, whose patches are the teacher's tokens, keeps its outputs."""
    if strategy.needs_teacher and teacher_params is None:
        raise ValueError(f"{strategy.kind} supervision needs teacher scores")
    id_lists = [encode(vocab, c) for c in contents]
    teachers = ([None] * len(contents) if teacher_params is None
                else run_teachers(teacher_params, cfg, vocab, id_lists))
    t = strategy.target_compression
    windows = []
    for content, token_ids, teacher in zip(contents, id_lists, teachers):
        mask = mask_from_token_ids(vocab, token_ids)
        if strategy.kind == "bpe":
            mask = merge_bpe_per_example(mask, content, t)
        elif strategy.needs_teacher:
            scores = teacher.entropy if strategy.kind == "entropy" else -teacher.next_logp
            mask = merge_by_score(mask, len(content), scores, t)
        model_bytes = np.concatenate([[EOT], np.frombuffer(content, dtype=np.uint8)]).astype(np.int64)
        windows.append(Window(
            model_bytes=model_bytes,
            suffix=suffix_ids(vocab.suffix_index, bytes(model_bytes.tolist())),
            mask=np.concatenate([[True], mask]),
            teacher=teacher if strategy.kind == "subword" else None,
        ))
    return windows


def prepare_window(
    content: bytes,
    vocab: SubwordVocab,
    cfg: ModelConfig,
    teacher_params: ParamStore | None,
    strategy: MergeStrategy,
) -> Window:
    """`prepare_windows` on one content."""
    return prepare_windows([content], vocab, cfg, teacher_params, strategy)[0]


class WindowSampler:
    """Deterministic batches of equal-length windows (bucketed by length).
    Anything with a length samples: training windows, or teacher token rows."""

    def __init__(self, windows: list, batch_size: int, seed: int):
        self.buckets: dict[int, list] = {}
        for w in windows:
            self.buckets.setdefault(len(w), []).append(w)
        self.lengths = sorted(self.buckets)
        self.weights = np.array([len(self.buckets[k]) for k in self.lengths], dtype=np.float64)
        self.weights /= self.weights.sum()
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)

    def draw(self) -> list:
        length = self.lengths[int(self.rng.choice(len(self.lengths), p=self.weights))]
        bucket = self.buckets[length]
        take = min(self.batch_size, len(bucket))
        idx = self.rng.choice(len(bucket), size=take, replace=False)
        return [bucket[i] for i in idx]


def _stack_batch(batch: list[Window]) -> dict:
    y = np.stack([w.model_bytes for w in batch])
    sfx = np.stack([w.suffix for w in batch])
    mask = np.stack([w.mask for w in batch])
    targets = fused_targets(y[:, 1:], mask[:, 1:])
    ends, valid = pool_indices(mask)
    return {"y": y, "sfx": sfx, "mask": mask, "targets": targets, "ends": ends, "valid": valid}


# -- the two training steps -------------------------------------------------------

def stage1_step(
    params: ParamStore,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    opt: AdamW,
    batch: list[Window],
) -> dict:
    """One distillation step: boundary BCE + probed encoder match + patch
    distillation + fused CE, with the backbone frozen and the decoder path
    depooling the teacher's final-layer states."""
    arrays = _stack_batch(batch)
    p_max = arrays["ends"].shape[1]
    e = embed_bytes(params, arrays["y"], arrays["sfx"])
    # the teacher's targets take the compute dtype; t_valid counts the
    # teacher's own tokens, which decoder_distill checks against the patches
    t_probe, _ = pad_rows([w.teacher.probe for w in batch], p_max, e.dtype)
    t_z, _ = pad_rows([w.teacher.z for w in batch], p_max, e.dtype)
    t_logp, t_valid = pad_rows([w.teacher.next_logp for w in batch], p_max - 1, e.dtype)

    e_hat = local_encode(params, cfg, e)
    p_scores = predict_boundaries(params, cfg, e_hat)
    l_b = boundary_bce(p_scores, arrays["mask"])

    h = pool_last(e_hat, arrays["ends"])
    probe = transformer_probe(params, cfg, h)
    l_e = encoder_match(probe, t_probe, arrays["valid"])

    # decoder path: depool the teacher's final-layer states; the encoder
    # learns only through the boundary and encoder-match terms
    z = depool(params, cfg, e_hat.detach(), Tensor(t_z, _op="const"), arrays["mask"])
    z_hat = local_decode(params, cfg, z)
    picked = next_symbol_logprobs(lm_head_fused(params, cfg, z_hat), arrays["targets"])
    l_ce = ce_fused(picked)
    l_d = decoder_distill(picked, arrays["ends"], arrays["valid"], t_logp, t_valid)

    total = BOUNDARY_WEIGHT * l_b + l_e + l_d + l_ce
    total.backward()
    grad_norm = opt.step()
    return {"l_boundary": l_b.item(), "l_encoder": l_e.item(), "l_distill": l_d.item(),
            "l_ce": l_ce.item(), "total": total.item(),
            **_step_metrics(predicted_mask(p_scores.data, cfg.patch_cap), arrays["mask"], grad_norm)}


def stage2_step(
    params: ParamStore,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    opt: AdamW,
    batch: list[Window],
) -> dict:
    """One end-to-end step: boundary BCE + fused CE, pooling on the model's
    own thresholded boundaries, every parameter group trainable."""
    arrays = _stack_batch(batch)
    out = forward_full(params, cfg, arrays["y"], arrays["sfx"])
    l_b = boundary_bce(out["p"], arrays["mask"])
    l_ce = ce_fused(next_symbol_logprobs(out["logprobs"], arrays["targets"]))
    total = BOUNDARY_WEIGHT * l_b + l_ce
    total.backward()
    grad_norm = opt.step()
    return {"l_boundary": l_b.item(), "l_encoder": 0.0, "l_distill": 0.0,
            "l_ce": l_ce.item(), "total": total.item(),
            **_step_metrics(out["mask"], arrays["mask"], grad_norm)}


def _step_metrics(pred: np.ndarray, mask: np.ndarray, grad_norm: float) -> dict:
    """Boundary accuracy and attained compression of the predicted mask `pred`."""
    # boundary accuracy, here and in evaluate_bpb, leaves out the last byte,
    # which predicted_mask always flags
    acc = float((pred[:, :-1] == mask[:, :-1]).mean())
    content = list(pred[:, 1:])  # the BOS position is no byte of the text
    return {"boundary_acc": acc, "compression": attained_compression(content), "grad_norm": grad_norm}


# -- loops ------------------------------------------------------------------------

class MetricsLog:
    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)
        if self.path:
            with open(self.path, "a") as f:
                f.write(json.dumps(record) + "\n")


def _train_loop(
    params: ParamStore,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    groups: dict[str, list[str]],
    rows: list,
    step,
    log_path: str | Path | None,
) -> MetricsLog:
    """The one step loop, and the one place that casts to the compute dtype.
    It copies every entry of `params`, trained and frozen, to float32 once;
    then, per step, `lr_at` sets each group's learning rate, and one draw
    from `rows`, one `step(copy, cfg, tcfg, opt, batch)` and one JSONL record
    of its metrics follow (no step reads `tcfg`: it keeps the batch fifth,
    where perfbench counts its bytes). `groups` names the trained entries:
    AdamW updates their copies in place. Only the copies are ever in the
    autodiff graph, and the caller's tensors change once, when the loop
    returns or raises: each trained entry whose copy an update changed takes
    the copy's values, the last completed update, and every other entry keeps
    its float64 bits. They end as float64 plain values."""
    sampler = WindowSampler(rows, tcfg.batch_size, tcfg.seed)
    work = compute_copy(params)
    opt = AdamW({g: [work[n] for n in names] for g, names in groups.items()})
    log = MetricsLog(log_path)
    for p in opt.params():
        p.requires_grad = True
    try:
        for i in range(tcfg.steps):
            lrs = lr_at(tcfg, i + 1)
            for name in opt.groups:
                opt.lr[name] = lrs[name]
            metrics = step(work, cfg, tcfg, opt, sampler.draw())
            log.write({"step": i + 1, **metrics, "lr_local": lrs["local"],
                       "lr_global": lrs["global"] if "global" in opt.groups else 0.0})
    finally:
        # a traceback may keep the copy alive: let it hold no graph
        for p in opt.params():
            p.requires_grad = False
            p.grad = None
        for n in (n for names in groups.values() for n in names):
            if not np.array_equal(work[n].data, params[n].data.astype(COMPUTE_DTYPE)):
                np.copyto(params[n].data, work[n].data)
    return log


def train_conversion(
    params: ParamStore,
    cfg: ModelConfig,
    vocab: SubwordVocab,
    teacher_params: ParamStore | None,
    docs: list[bytes],
    tcfg: TrainConfig,
    log_path: str | Path | None = None,
) -> MetricsLog:
    """Run stage 1 or stage 2 for tcfg.steps over the documents. Stage 1
    trains the byte-level modules only; stage 2 adds the backbone as its own
    learning-rate group."""
    if tcfg.stage == 1 and teacher_params is None:
        raise ValueError("stage 1 needs the teacher")
    stage2 = tcfg.stage == 2
    strategy = tcfg.strategy()
    # stage 1 and scored merges read the teacher; its copy lives only while the windows are prepared
    reads_teacher = teacher_params is not None and (not stage2 or strategy.needs_teacher)
    windows = prepare_windows(make_windows(docs, tcfg.max_bytes - 1), vocab, cfg,
                              compute_copy(teacher_params) if reads_teacher else None, strategy)
    group_tags = {"global": ("global",)} if stage2 else {}
    group_tags["local"] = LOCAL_COMPONENTS
    # name order: the global gradient norm is a float sum in group order
    groups = {g: [n for n in sorted(params) if params.tag(n) in tags] for g, tags in group_tags.items()}
    return _train_loop(params, cfg, tcfg, groups, windows, stage2_step if stage2 else stage1_step, log_path)


# -- teacher training ---------------------------------------------------------------

def teacher_step(
    params: ParamStore,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    opt: AdamW,
    batch: list[np.ndarray],
) -> dict:
    """One next-token step of the teacher on a batch of equal-length token
    rows, with the conversion steps' signature."""
    loss = teacher_nll(params, cfg, np.stack(batch))
    loss.backward()
    grad_norm = opt.step()
    return {"total": loss.item(), "l_ce": loss.item(), "grad_norm": grad_norm}


def train_teacher(
    params: ParamStore,
    cfg: ModelConfig,
    vocab: SubwordVocab,
    docs: list[bytes],
    tcfg: TrainConfig,
    log_path: str | Path | None = None,
) -> MetricsLog:
    """Plain next-token training of the subword LM on the same windows the
    conversion will see."""
    chunks = make_windows(docs, tcfg.max_bytes - 1)
    token_rows = [np.array([vocab.bos_id] + encode(vocab, c), dtype=np.int64) for c in chunks]
    # sorted for the same reason as train_conversion's groups
    return _train_loop(params, cfg, tcfg, {"local": sorted(params)}, token_rows, teacher_step, log_path)


# -- evaluation ---------------------------------------------------------------------

def evaluate_bpb(
    params: ParamStore,
    cfg: ModelConfig,
    vocab: SubwordVocab,
    docs: list[bytes],
    strategy: MergeStrategy | None = None,
    teacher_params: ParamStore | None = None,
    max_doc_bytes: int = 512,
) -> dict:
    """Held-out metrics, one pass over the documents cut to `max_doc_bytes`,
    each encoded once. With the model pooling on its own boundaries: fused
    cross-entropy (reported as bits per byte against the supervision
    targets), boundary accuracy against the supervision mask, and the
    attained compression of the predicted boundaries over the content bytes.
    Given a teacher under subword supervision, it also reports how far the
    model's per-patch log-likelihoods, pooled on the teacher's token ends,
    lie from the teacher's per-token ones (`mean_abs_diff`, `max_abs_diff`,
    `n_patches`). The teacher runs only then or when the strategy scores
    with it; each store is cast once, to a float32 compute copy."""
    strategy = strategy or MergeStrategy("subword")
    contents = [c for c in (doc[:max_doc_bytes] for doc in docs) if len(c) >= 2]
    if not contents:
        raise ValueError("no document has the 2 bytes a prediction needs")
    params = compute_copy(params)
    # the teacher scores patches (entropy, xent) or is the alignment's reference (subword)
    reads_teacher = teacher_params is not None and strategy.kind != "bpe"
    windows = prepare_windows(contents, vocab, cfg, compute_copy(teacher_params) if reads_teacher else None, strategy)
    tot_ce = 0.0
    tot_pos = 0
    tot_correct = 0
    pred_masks = []
    diffs = []
    for w in windows:
        a = _stack_batch([w])
        out = forward_full(params, cfg, a["y"], a["sfx"], mask=None)
        ce = ce_fused(next_symbol_logprobs(out["logprobs"], a["targets"])).item()
        n_pred = len(w.model_bytes) - 1
        tot_ce += ce * n_pred
        tot_pos += n_pred
        pred = out["mask"][0]
        tot_correct += int((pred[:-1] == w.mask[:-1]).sum())  # n_pred bytes scored
        pred_masks.append(pred[1:])  # content bytes only, as boundary-dump counts
        if w.teacher is not None:  # w.mask holds the teacher's token ends
            pooled = forward_full(params, cfg, a["y"], a["sfx"], a["mask"])
            picked = next_symbol_logprobs(pooled["logprobs"], a["targets"])
            sums, _ = patch_logprobs(picked, a["ends"], a["valid"])
            diffs.append(np.abs(sums.data[0] - w.teacher.next_logp))
    ce_mean = tot_ce / tot_pos
    metrics = {
        "ce_nats": ce_mean,
        "bits_per_byte": bits_per_byte(ce_mean),
        "boundary_acc": tot_correct / tot_pos,
        "attained_compression": attained_compression(pred_masks),
        "n_positions": tot_pos,
    }
    if diffs:
        diffs = np.concatenate(diffs)
        metrics.update(mean_abs_diff=float(diffs.mean()), max_abs_diff=float(diffs.max()),
                       n_patches=int(diffs.size))
    return metrics

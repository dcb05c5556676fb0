"""Two-stage conversion training plus the toy teacher's own training loop.

Stage 1 distills the frozen subword teacher into the byte-level modules: the
boundary head learns the teacher's token ends, pooled encoder states are
matched to teacher activations probed through the first n backbone layers, and
the decoder path is driven by the teacher's final-layer states through the
depooling so patch likelihoods can be compared exactly. The backbone is frozen
and the decoder path does not backpropagate into the encoder.

Stage 2 trains everything end-to-end with predicted-boundary pooling, keeping
only the boundary BCE and the fused cross-entropy, with the byte-level modules
on twice the backbone learning rate.

This module alone turns a document into a training window: `TrainConfig.strategy`
picks the stage's boundary supervision, and `prepare_window` encodes the text
once, runs the teacher on those token ids and merges the subword mask into the
one supervision mask the window carries. Both stages and the teacher's own
training share one step loop; metrics stream to a line-delimited log, one
JSON record per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .boundaries import MergeStrategy, attained_compression, merge_bpe_per_example, merge_by_score
from .data import make_windows
from .losses import (
    LossBreakdown,
    LossWeights,
    boundary_bce,
    bits_per_byte,
    ce_fused,
    decoder_distill,
    encoder_match,
    patch_logprobs,
)
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
    pool_indices,
    pool_last,
    predict_boundaries,
    predicted_mask,
    scored_positions,
    transformer_probe,
)
from .optim import AdamW
from .teacher import TeacherOutputs, run_teacher, teacher_nll
from .tensor import Tensor
from .tokenizer import SubwordVocab, SuffixIndex, encode, mask_from_token_ids, suffix_ids


@dataclass
class TrainConfig:
    stage: int = 1
    steps: int = 1000
    batch_size: int = 8
    max_bytes: int = 128  # window length including the BOS byte
    peak_lr: float = 1e-3  # byte-level modules
    peak_lr_global: float = 0.0  # backbone in stage 2; 0 -> peak_lr / 2
    warmup_steps: int = 0  # 0 -> steps // 10
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.1
    grad_clip: float = 0.5
    tau: float = 5.0
    merge_kind: str = "subword"  # stage 2 only; stage 1 always distills subword ends
    target_compression: float = 0.0  # stage 2 only
    seed: int = 0
    use_oracle_pooling: bool = False  # stage 2 ablation: pool on supervision mask
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")

    def strategy(self) -> MergeStrategy:
        """The boundary supervision this stage trains on: the teacher's own
        subword ends in stage 1, `merge_kind` at `target_compression` in stage 2."""
        if self.stage == 1:
            return MergeStrategy("subword")
        return MergeStrategy(self.merge_kind, self.target_compression)


def lr_at(config: TrainConfig, step: int) -> dict[str, float]:
    """Linear warmup to peak, then linear decay to zero at `steps`."""
    if step < 0:
        raise ValueError("step must be >= 0")
    warmup = config.warmup_steps or max(1, config.steps // 10)
    if step <= warmup:
        frac = step / warmup
    else:
        frac = max(0.0, (config.steps - step) / max(1, config.steps - warmup))
    peak_global = config.peak_lr_global or config.peak_lr / 2.0
    return {"local": config.peak_lr * frac, "global": peak_global * frac}


# -- cached training windows ----------------------------------------------------

@dataclass
class Window:
    """One fixed training sequence with everything the steps consume."""

    model_bytes: np.ndarray  # [BOS] + content bytes
    suffix: np.ndarray  # longest-suffix token id per model position
    mask: np.ndarray  # supervision boundaries over model positions; BOS flagged
    teacher: TeacherOutputs | None  # prepare_windows keeps it for stage 1 only

    def __len__(self) -> int:
        return len(self.model_bytes)


def prepare_window(
    content: bytes,
    vocab: SubwordVocab,
    sidx: SuffixIndex,
    cfg: ModelConfig,
    teacher_params: ParamStore | None,
    strategy: MergeStrategy,
) -> Window:
    """Encode `content` once, run the teacher (when given) on those token ids,
    and merge the subword mask under `strategy` into the window's supervision."""
    token_ids = encode(vocab, content)
    teacher = run_teacher(teacher_params, cfg, vocab, token_ids) if teacher_params is not None else None
    mask = mask_from_token_ids(vocab, token_ids)
    t = strategy.target_compression
    if strategy.kind == "bpe":
        mask = merge_bpe_per_example(mask, content, t)
    elif strategy.needs_teacher:
        if teacher is None:
            raise ValueError(f"{strategy.kind} supervision needs teacher scores")
        scores = teacher.entropy if strategy.kind == "entropy" else teacher.xent
        mask = merge_by_score(mask, len(content), scores, t)
    model_bytes = np.concatenate([[0], np.frombuffer(content, dtype=np.uint8)]).astype(np.int64)
    return Window(
        model_bytes=model_bytes,
        suffix=suffix_ids(sidx, bytes(model_bytes.tolist())),
        mask=np.concatenate([[True], mask]),
        teacher=teacher,
    )


def prepare_windows(
    docs: list[bytes],
    vocab: SubwordVocab,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    teacher_params: ParamStore | None,
) -> list[Window]:
    strategy = tcfg.strategy()
    sidx = SuffixIndex(vocab)
    chunks = make_windows(docs, tcfg.max_bytes - 1)
    teacher = teacher_params if tcfg.stage == 1 or strategy.needs_teacher else None
    windows = (prepare_window(c, vocab, sidx, cfg, teacher, strategy) for c in chunks)
    # only stage 1 reads teacher activations; stage 2 needs just the masks
    return [w if tcfg.stage == 1 else replace(w, teacher=None) for w in windows]


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
        idx = self.rng.choice(len(bucket), size=take, replace=len(bucket) < self.batch_size)
        return [bucket[i] for i in idx]


def _stack_batch(batch: list[Window]) -> dict:
    y = np.stack([w.model_bytes for w in batch])
    sfx = np.stack([w.suffix for w in batch])
    mask = np.stack([w.mask for w in batch])
    targets = fused_targets(y[:, 1:], mask[:, 1:])
    ends, valid = pool_indices(mask)
    return {"y": y, "sfx": sfx, "mask": mask, "targets": targets, "ends": ends, "valid": valid}


def _pad_teacher(batch: list[Window], field_name: str, p_max: int, d: int | None) -> np.ndarray:
    if d is None:
        out = np.zeros((len(batch), p_max))
    else:
        out = np.zeros((len(batch), p_max, d))
    for i, w in enumerate(batch):
        arr = getattr(w.teacher, field_name)
        out[i, : arr.shape[0]] = arr
    return out


# -- the two training steps -------------------------------------------------------

def stage1_step(
    params: ParamStore,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    opt: AdamW,
    batch: list[Window],
) -> tuple[LossBreakdown, dict]:
    """One distillation step: boundary BCE + probed encoder match + patch
    distillation + fused CE, with the backbone frozen and the decoder path
    depooling the teacher's final-layer states."""
    arrays = _stack_batch(batch)
    b, n = arrays["y"].shape
    p_max = arrays["ends"].shape[1]
    t_probe = _pad_teacher(batch, "probe", p_max, cfg.d)
    t_z = _pad_teacher(batch, "z", p_max, cfg.d)
    t_logp = _pad_teacher(batch, "next_logp", p_max - 1, None)
    w = tcfg.loss_weights

    e = embed_bytes(params, arrays["y"], arrays["sfx"])
    e_hat = local_encode(params, cfg, e)
    p_scores = predict_boundaries(params, cfg, e_hat)
    l_b = boundary_bce(p_scores, arrays["mask"])

    h = pool_last(e_hat, arrays["ends"])
    probe = transformer_probe(params, cfg, h, cfg.n_probe)
    l_e = encoder_match(probe, t_probe, arrays["valid"])

    # decoder path: depool the teacher's final-layer states; the encoder
    # learns only through the boundary and encoder-match terms
    z = depool(params, cfg, e_hat.detach(), Tensor(t_z, _op="const"), arrays["mask"])
    z_hat = local_decode(params, cfg, z)
    logprobs = lm_head_fused(params, cfg, z_hat)
    l_ce = ce_fused(logprobs, arrays["targets"])
    l_d = decoder_distill(
        logprobs, arrays["targets"], arrays["ends"], arrays["valid"],
        t_logp, arrays["valid"][:, 1:], tau=tcfg.tau,
    )

    total = w.boundary * l_b + w.encoder * l_e + w.distill * l_d + w.ce * l_ce
    opt.zero_grad()
    total.backward()
    grad_norm = opt.step()

    breakdown = LossBreakdown(
        boundary=l_b.item(), encoder=l_e.item(), distill=l_d.item(),
        ce=l_ce.item(), total=total.item(),
    )
    extras = _step_metrics(p_scores.data, arrays["mask"], cfg, grad_norm)
    return breakdown, extras


def stage2_step(
    params: ParamStore,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    opt: AdamW,
    batch: list[Window],
) -> tuple[LossBreakdown, dict]:
    """One end-to-end step: boundary BCE + fused CE, pooling on the model's
    own thresholded boundaries (or the supervision mask under the oracle
    ablation), every parameter group trainable."""
    arrays = _stack_batch(batch)
    w = tcfg.loss_weights
    pool_mask = arrays["mask"] if tcfg.use_oracle_pooling else None
    out = forward_full(params, cfg, arrays["y"], arrays["sfx"], mask=pool_mask)
    l_b = boundary_bce(out["p"], arrays["mask"])
    l_ce = ce_fused(out["logprobs"], arrays["targets"])
    total = w.boundary * l_b + w.ce * l_ce
    opt.zero_grad()
    total.backward()
    grad_norm = opt.step()
    breakdown = LossBreakdown(boundary=l_b.item(), ce=l_ce.item(), total=total.item())
    extras = _step_metrics(out["p"].data, arrays["mask"], cfg, grad_norm)
    return breakdown, extras


def _step_metrics(p_scores: np.ndarray, mask: np.ndarray, cfg: ModelConfig, grad_norm: float) -> dict:
    pred = predicted_mask(p_scores, cfg.boundary_threshold)
    real = scored_positions(cfg)
    acc = float((pred[:, real] == mask[:, real]).mean())
    comp = mask.size / max(1, int(pred.sum()))
    return {"boundary_acc": acc, "compression": comp, "grad_norm": grad_norm}


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
    tcfg: TrainConfig,
    groups: dict[str, list[Tensor]],
    rows: list,
    step,
    log_path: str | Path | None,
) -> MetricsLog:
    """The one step loop: `lr_at` sets each group's learning rate, then one
    draw from `rows`, one `step(opt, batch)` and one JSONL record of its
    metrics."""
    sampler = WindowSampler(rows, tcfg.batch_size, tcfg.seed)
    opt = AdamW(
        groups,
        beta1=tcfg.beta1,
        beta2=tcfg.beta2,
        weight_decay=tcfg.weight_decay,
        grad_clip=tcfg.grad_clip,
    )
    log = MetricsLog(log_path)
    for i in range(tcfg.steps):
        lrs = lr_at(tcfg, i + 1)
        for name in opt.groups:
            opt.set_lr(name, lrs[name])
        metrics = step(opt, sampler.draw())
        log.write({"step": i + 1, **metrics, "lr_local": lrs["local"],
                   "lr_global": lrs["global"] if "global" in opt.groups else 0.0})
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
    windows = prepare_windows(docs, vocab, cfg, tcfg, teacher_params)
    stage2 = tcfg.stage == 2
    params.set_trainable(("global",), stage2)
    params.set_trainable(LOCAL_COMPONENTS, True)
    groups = {"global": params.trainable(("global",))} if stage2 else {}
    groups["local"] = params.trainable(LOCAL_COMPONENTS)
    step_fn = stage2_step if stage2 else stage1_step

    def step(opt: AdamW, batch: list[Window]) -> dict:
        breakdown, extras = step_fn(params, cfg, tcfg, opt, batch)
        return {**breakdown.as_dict(), **extras}

    return _train_loop(tcfg, groups, windows, step, log_path)


# -- teacher training ---------------------------------------------------------------

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
    params.set_trainable(tuple(params.component_tags()), True)

    def step(opt: AdamW, batch: list[np.ndarray]) -> dict:
        loss = teacher_nll(params, cfg, np.stack(batch))
        opt.zero_grad()
        loss.backward()
        grad_norm = opt.step()
        return {"total": loss.item(), "l_ce": loss.item(), "grad_norm": grad_norm}

    return _train_loop(tcfg, {"local": [t for _, t in params.items()]}, token_rows, step, log_path)


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
    """Held-out metrics with the model pooling on its own boundaries: fused
    cross-entropy (reported as bits per byte against the supervision targets),
    boundary accuracy against the supervision mask, and the attained
    compression of the predicted boundaries."""
    strategy = strategy or MergeStrategy("subword")
    scorer = teacher_params if strategy.needs_teacher else None
    sidx = SuffixIndex(vocab)
    real = scored_positions(cfg)
    tot_ce = 0.0
    tot_pos = 0
    tot_correct = 0
    tot_real = 0
    pred_masks = []
    for doc in docs:
        content = doc[:max_doc_bytes]
        if len(content) < 2:
            continue
        w = prepare_window(content, vocab, sidx, cfg, scorer, strategy)
        out = forward_full(params, cfg, w.model_bytes[None, :], w.suffix[None, :], mask=None)
        targets = fused_targets(w.model_bytes[1:], w.mask[1:])[None, :]
        ce = ce_fused(out["logprobs"], targets).item()
        n_pred = len(w.model_bytes) - 1
        tot_ce += ce * n_pred
        tot_pos += n_pred
        pred = out["mask"][0]
        tot_correct += int((pred[real] == w.mask[real]).sum())
        tot_real += pred[real].size
        pred_masks.append(pred)
    ce_mean = tot_ce / tot_pos
    return {
        "ce_nats": ce_mean,
        "bits_per_byte": bits_per_byte(ce_mean),
        "boundary_acc": tot_correct / tot_real,
        "attained_compression": attained_compression(pred_masks),
        "n_positions": tot_pos,
    }


def evaluate_alignment(
    params: ParamStore,
    cfg: ModelConfig,
    vocab: SubwordVocab,
    teacher_params: ParamStore,
    docs: list[bytes],
    max_doc_bytes: int = 512,
) -> dict:
    """Mean absolute difference between student per-patch log-likelihood and
    teacher per-token log-likelihood under teacher-mask pooling."""
    sidx = SuffixIndex(vocab)
    diffs = []
    for doc in docs:
        content = doc[:max_doc_bytes]
        if len(content) < 2:
            continue
        w = prepare_window(content, vocab, sidx, cfg, teacher_params, MergeStrategy("subword"))
        out = forward_full(params, cfg, w.model_bytes[None, :], w.suffix[None, :], w.mask[None, :])
        targets = fused_targets(w.model_bytes[1:], w.mask[1:])[None, :]
        sums, valid = patch_logprobs(out["logprobs"], targets, out["ends"], out["valid"])
        diffs.append(np.abs(sums.data[0] - w.teacher.next_logp))
    all_diffs = np.concatenate(diffs)
    return {"mean_abs_diff": float(all_diffs.mean()), "max_abs_diff": float(all_diffs.max()),
            "n_patches": int(all_diffs.size)}


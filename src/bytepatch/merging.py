"""Checkpoint arithmetic and embedding diagnostics.

Post-training transfer adds the weight difference between a post-trained and a
base subword checkpoint to the byte-level model's transformer backbone; every
tensor under the backbone component (including its norms) is part of the
delta, and nothing else is touched. The embedding-resettability check and the
singular-value spectrum report quantify when that transfer can work.
"""

from __future__ import annotations

import numpy as np

from .model import ModelConfig, ParamStore
from .teacher import teacher_nll
from .tensor import Tensor
from .tokenizer import SubwordVocab, encode


class MergeError(ValueError):
    pass


def weight_delta(base: ParamStore, posttrained: ParamStore) -> dict[str, np.ndarray]:
    """posttrained - base, restricted to the backbone component."""
    base_g = base.component("global")
    post_g = posttrained.component("global")
    if set(base_g) != set(post_g):
        raise MergeError("checkpoints disagree on backbone tensor names")
    delta = {}
    for name, t in base_g.items():
        if post_g[name].shape != t.shape:
            raise MergeError(f"shape mismatch for {name}")
        delta[name] = post_g[name].data - t.data
    return delta


def task_arithmetic_merge(
    byte_model: ParamStore, base: ParamStore, posttrained: ParamStore
) -> ParamStore:
    """merged backbone = byte model backbone + (posttrained - base); all other
    components are copied unchanged."""
    delta = weight_delta(base, posttrained)
    merged = byte_model.copy()
    for name, d in delta.items():
        if name not in merged:
            raise MergeError(f"byte model lacks backbone tensor {name}")
        if merged[name].shape != d.shape:
            raise MergeError(f"shape mismatch for {name}")
        merged[name].data += d
    return merged


def reset_embeddings_check(
    base: ParamStore,
    posttrained: ParamStore,
    cfg: ModelConfig,
    vocab: SubwordVocab,
    eval_docs: list[bytes],
    max_doc_bytes: int = 512,
) -> dict:
    """Cross-entropy ratio of (post-trained model with its input and output
    embeddings reset to the base model's) over the post-trained model itself.
    Reported, never asserted: near 1 means the embedding spaces stayed
    compatible and checkpoint arithmetic transfer is viable."""
    reset = posttrained.copy()
    for tag in ("subword_embed", "lm_head"):
        for name, t in base.component(tag).items():
            reset[name] = Tensor(t.data.copy())
    ce_post = _corpus_ce(posttrained, cfg, vocab, eval_docs, max_doc_bytes)
    ce_reset = _corpus_ce(reset, cfg, vocab, eval_docs, max_doc_bytes)
    return {"ce_posttrained": ce_post, "ce_reset": ce_reset, "ratio": ce_reset / ce_post}


def _corpus_ce(params: ParamStore, cfg: ModelConfig, vocab: SubwordVocab, docs: list[bytes], max_doc_bytes: int) -> float:
    total, count = 0.0, 0
    for doc in docs:
        ids = [vocab.bos_id] + encode(vocab, doc[:max_doc_bytes])
        if len(ids) < 2:
            continue
        row = np.array(ids, dtype=np.int64)[None, :]
        total += teacher_nll(params, cfg, row).item() * (len(ids) - 1)
        count += len(ids) - 1
    return total / count


def spectrum_report(matrix: np.ndarray) -> dict:
    """Explained-variance ratios of the singular values of an embedding
    matrix, descending, with the cumulative curve."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        raise MergeError("empty matrix")
    s = np.linalg.svd(matrix, compute_uv=False)
    var = s * s
    ratios = var / var.sum()
    return {"ratios": ratios, "cumulative": np.cumsum(ratios), "singular_values": s}


def format_spectrum(report: dict, max_rows: int | None = None) -> str:
    """Line-delimited table: index, explained-variance ratio, cumulative;
    the first `max_rows` ranks, or all when None."""
    ratios = report["ratios"]
    n = len(ratios) if max_rows is None else min(max_rows, len(ratios))
    lines = ["rank\tratio\tcumulative"]
    for i in range(n):
        lines.append(f"{i}\t{ratios[i]:.8e}\t{report['cumulative'][i]:.8f}")
    return "\n".join(lines)

"""The subword teacher LM: a token embedding, the shared transformer backbone,
and a linear head. It provides everything the byte-level conversion consumes:
token log-likelihoods, probe-depth activations, final-layer states, and
per-token entropy/cross-entropy scores for boundary supervision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ModelConfig, ParamStore, global_forward
from .tensor import Tensor
from .tokenizer import SubwordVocab


@dataclass
class TeacherOutputs:
    """Frozen-teacher activations for one document, BOS included.

    token_ids has m+1 entries ([BOS, t_1..t_m]); next_logp[i] is the teacher's
    log-likelihood of token i+1 given the prefix, so it has m entries. The
    activation matrices are cached in float32 to keep large window caches
    small; scalar log-likelihoods stay at full precision.
    """

    token_ids: np.ndarray  # (m+1,)
    next_logp: np.ndarray  # (m,)
    probe: np.ndarray  # (m+1, d) activations after n_probe layers
    z: np.ndarray  # (m+1, d) post-norm final states
    entropy: np.ndarray  # (m,) predictive entropy at each real token
    xent: np.ndarray  # (m,) data cross-entropy of each real token


def teacher_logits(params: ParamStore, cfg: ModelConfig, token_ids: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """(logits, probe, z) over a batch of token id rows."""
    token_ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    emb = T.take_rows(params["subword_embed.table"], token_ids)
    z, probe = global_forward(params, cfg, emb)
    logits = T.matmul(z, params["lm_head.w"])
    return logits, probe, z


def teacher_nll(params: ParamStore, cfg: ModelConfig, token_ids: np.ndarray, valid: np.ndarray | None = None) -> Tensor:
    """Mean next-token cross-entropy in nats over valid positions."""
    token_ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    logits, _, _ = teacher_logits(params, cfg, token_ids)
    logp = T.log_softmax(logits)
    picked = T.pick(logp[:, :-1, :], token_ids[:, 1:])
    if valid is None:
        return -picked.mean()
    w = np.asarray(valid[:, 1:], dtype=logp.dtype)
    total = float(w.sum())
    return -(picked * Tensor(w, _op="const")).sum() / total


def run_teacher(params: ParamStore, cfg: ModelConfig, vocab: SubwordVocab, ids: list[int]) -> TeacherOutputs:
    """Forward one document's token ids, as `encode` gives them (no gradients),
    and collect every teacher quantity the conversion needs. BOS is prepended
    here."""
    token_ids = np.array([vocab.bos_id] + ids, dtype=np.int64)
    logits, probe, z = teacher_logits(params, cfg, token_ids[None, :])
    logp = T.log_softmax(logits).data[0]  # (m+1, V)
    m = len(ids)
    next_logp = logp[np.arange(m), token_ids[1:]]
    probs = np.exp(logp[:m])
    entropy = -(probs * logp[:m]).sum(axis=-1)
    return TeacherOutputs(
        token_ids=token_ids,
        next_logp=next_logp,
        probe=probe.data[0].astype(np.float32),
        z=z.data[0].astype(np.float32),
        entropy=entropy,
        xent=-next_logp,
    )


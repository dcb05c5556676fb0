"""The subword teacher LM: a token embedding, the shared transformer backbone,
and a linear head. It provides everything the byte-level conversion consumes:
token log-likelihoods, probe-depth activations, final-layer states, and
per-token predictive entropies. Entropy and cross-entropy boundary
supervision score tokens by the entropies and the negated log-likelihoods.

`run_teachers` is the one place that collects them. It batches documents of
equal token count into one forward each, so no row is padded; `run_teacher`
is the same call on one document. Both compute in the dtype of the store they
are given: training, evaluation and the embedding-reset check give float32
copies, and the tests' float64 stores are their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import ce_fused, next_symbol_logprobs
from .model import ModelConfig, ParamStore, global_forward
from .tensor import Tensor
from .tokenizer import SubwordVocab


@dataclass
class TeacherOutputs:
    """Frozen-teacher activations for one document, BOS included.

    token_ids has m+1 entries ([BOS, t_1..t_m]); next_logp[i] is the teacher's
    log-likelihood of token i+1 given the prefix, so it has m entries. The
    activation matrices are cached in float32 to keep large window caches
    small; the per-token log-likelihoods and entropies take the dtype of the
    store the teacher ran on (float32 in training and evaluation, which run
    the teacher on a compute copy).
    """

    token_ids: np.ndarray  # (m+1,)
    next_logp: np.ndarray  # (m,)
    probe: np.ndarray  # (m+1, d) activations after n_probe layers
    z: np.ndarray  # (m+1, d) post-norm final states
    entropy: np.ndarray  # (m,) predictive entropy at each real token


def teacher_logits(params: ParamStore, cfg: ModelConfig, token_ids: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """(logits, probe, z) over a batch of token id rows."""
    token_ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    emb = T.take_rows(params["subword_embed.table"], token_ids)
    z, probe = global_forward(params, cfg, emb)
    logits = T.matmul(z, params["lm_head.w"])
    return logits, probe, z


def teacher_nll(params: ParamStore, cfg: ModelConfig, token_ids: np.ndarray) -> Tensor:
    """Mean next-token cross-entropy in nats: `ce_fused` over token ids."""
    token_ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
    logits, _, _ = teacher_logits(params, cfg, token_ids)
    return ce_fused(next_symbol_logprobs(T.log_softmax(logits), token_ids[:, 1:]))


BATCH_ROWS = 64  # rows per teacher forward; 16..64 cost the same per row


def run_teachers(
    params: ParamStore, cfg: ModelConfig, vocab: SubwordVocab, id_lists: list[list[int]]
) -> list[TeacherOutputs]:
    """Forward many documents' token ids, as `encode` gives them (no
    gradients), and collect every teacher quantity the conversion needs, in
    input order. BOS is prepended here. Rows are grouped by exact token count,
    so no row is padded, and each forward takes at most BATCH_ROWS of them."""
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(id_lists):
        groups.setdefault(len(ids), []).append(i)
    out: list[TeacherOutputs | None] = [None] * len(id_lists)
    for m, members in groups.items():
        for start in range(0, len(members), BATCH_ROWS):
            rows = members[start : start + BATCH_ROWS]
            token_ids = np.array([[vocab.bos_id, *id_lists[i]] for i in rows], dtype=np.int64)
            logits, probe, z = teacher_logits(params, cfg, token_ids)
            logp = T.log_softmax(logits)
            next_logp = next_symbol_logprobs(logp, token_ids[:, 1:]).data  # (b, m)
            entropy = -(np.exp(logp.data[:, :m]) * logp.data[:, :m]).sum(axis=-1)
            probe32 = probe.data.astype(np.float32, copy=False)
            z32 = z.data.astype(np.float32, copy=False)
            for r, i in enumerate(rows):
                out[i] = TeacherOutputs(
                    token_ids=token_ids[r],
                    next_logp=next_logp[r],
                    probe=probe32[r],
                    z=z32[r],
                    entropy=entropy[r],
                )
    return out


def run_teacher(params: ParamStore, cfg: ModelConfig, vocab: SubwordVocab, ids: list[int]) -> TeacherOutputs:
    """`run_teachers` on one document's token ids."""
    return run_teachers(params, cfg, vocab, [ids])[0]

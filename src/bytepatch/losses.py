"""Training losses.

Four terms drive the subword-to-byte conversion: a boundary BCE, an L2 match
of pooled byte representations to subword activations probed through the first
n backbone layers, a patch-likelihood distillation term using a
temperature-modulated binary cross-entropy computed in log space, and a plain
next-fused-symbol cross-entropy. Reductions: per-byte mean for the BCE terms,
per-patch mean for the encoder-match and distillation terms, so the loss
weights keep their meaning across sequence lengths.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

CLAMP_EPS = 1e-7  # probability floor/ceiling in all BCE-style terms
TAU = 5.0  # distillation temperature: decoder_distill compares likelihoods raised to 1/TAU


def boundary_bce(p: Tensor, mask: np.ndarray) -> Tensor:
    """Per-byte mean of -[m_t log p_t + (1 - m_t) log(1 - p_t)] with
    probabilities clamped to [CLAMP_EPS, 1-CLAMP_EPS]."""
    mask = np.asarray(mask, dtype=p.dtype)
    if mask.shape != p.shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {p.shape}")
    pc = T.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    m = Tensor(mask, _op="const")
    terms = -(m * T.log(pc) + (1.0 - m) * T.log(1.0 - pc))
    return terms.mean()


def encoder_match(student_probe: Tensor, teacher_probe: np.ndarray, valid: np.ndarray) -> Tensor:
    """Mean over the `valid` patches of the L2 distance between the
    pooled-and-probed student representations and the teacher's, both after
    the same frozen backbone prefix."""
    teacher = Tensor(np.asarray(teacher_probe, dtype=student_probe.dtype), _op="const")
    diff = student_probe - teacher
    sq = (diff * diff).sum(axis=-1)  # (B, P)
    norms = T.sqrt(sq)
    w = Tensor(np.asarray(valid, dtype=student_probe.dtype), _op="const")
    return (norms * w).sum() / float(np.sum(valid))


def f_temp_bce(student_logp: Tensor, teacher_logp: np.ndarray, tau: float) -> Tensor:
    """Temperature-modulated binary cross-entropy between two likelihoods
    given as log-probabilities, evaluated entirely in log space:

        f(yhat || y) = -(y^(1/tau) log yhat^(1/tau)
                         + (1 - y^(1/tau)) log(1 - yhat^(1/tau)))

    The student side is clamped to [CLAMP_EPS, 1-CLAMP_EPS] in probability
    space so the log(1 - .) branch stays finite; interior values pass through
    exactly.
    """
    teacher_logp = Tensor(np.asarray(teacher_logp, dtype=student_logp.dtype), _op="const")
    a = T.clip(student_logp * (1.0 / tau), np.log(CLAMP_EPS), np.log1p(-CLAMP_EPS))
    y_pow = T.exp(teacher_logp * (1.0 / tau))
    return -(y_pow * a + (1.0 - y_pow) * T.log1mexp(a))


def patch_logprobs(
    logprobs: Tensor,
    targets: np.ndarray,
    ends: np.ndarray,
    valid: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Student log-likelihood per patch.

    Position j of `logprobs` scores the fused symbol at j+1 (`targets[j]`),
    and a patch owns the predictions of its own symbols, so the patch ending
    at byte b_i sums positions b_{i-1}..b_i - 1. The first boundary (the BOS
    pseudo-patch) anchors the telescoping and has no likelihood of its own.

    Returns per-patch sums aligned with ends[:, 1:] plus their validity mask.
    """
    b, n, _ = logprobs.shape
    picked = T.pick(logprobs[:, :-1, :], np.asarray(targets, dtype=np.int64))  # (B, n-1)
    zero = Tensor(np.zeros((b, 1), dtype=logprobs.dtype), _op="const")
    cs = T.concat([zero, T.cumsum(picked, axis=1)], axis=1)  # (B, n); cs[j] = sum of picked[:j]
    gathered = T.gather_rows(cs.reshape((b, n, 1)), np.asarray(ends, dtype=np.int64)).reshape(
        (b, ends.shape[1])
    )
    sums = gathered[:, 1:] - gathered[:, :-1]
    return sums, np.asarray(valid, dtype=bool)[:, 1:]


def decoder_distill(
    logprobs: Tensor,
    targets: np.ndarray,
    ends: np.ndarray,
    valid: np.ndarray,
    teacher_logp: np.ndarray,
    teacher_valid: np.ndarray,
) -> Tensor:
    """Per-patch likelihood matching: `f_temp_bce` at `TAU` between each
    patch's student log-likelihood and the teacher's log-likelihood of the
    aligned token, mean-reduced over patches. Teacher-mask pooling makes
    misalignment impossible; this is asserted, not handled."""
    sums, sums_valid = patch_logprobs(logprobs, targets, ends, valid)
    teacher_valid = np.asarray(teacher_valid, dtype=bool)
    if sums_valid.shape != teacher_valid.shape or not np.array_equal(sums_valid, teacher_valid):
        raise AssertionError("patch/token misalignment between student and teacher")
    f = f_temp_bce(sums, np.where(teacher_valid, teacher_logp, -1.0), TAU)
    w = Tensor(teacher_valid.astype(logprobs.dtype), _op="const")
    return (f * w).sum() / float(teacher_valid.sum())


def ce_fused(logprobs: Tensor, targets: np.ndarray) -> Tensor:
    """Next-fused-symbol cross-entropy, mean per predicting byte position."""
    picked = T.pick(logprobs[:, :-1, :], np.asarray(targets, dtype=np.int64))
    return -picked.mean()


def bits_per_byte(ce_nats: float) -> float:
    return ce_nats / np.log(2.0)

"""Prefill and incremental decoding.

The prefill scores boundaries non-causally over the whole prompt with the
model's own boundary predictor (one byte of future context, forced boundary
at the end) and replays the bytes through the recurrent state. During decoding
the boundary predictor is never consulted: the fused output symbol carries the
boundary bit, closing a patch triggers one global-model step, and the
refreshed patch representation feeds every following byte until the next
boundary. Prefill and decoding close a patch the same way, so both also close
one that reaches `patch_cap` bytes. The recurrent and cached-attention state
math runs on raw numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from . import tensor as T
from .model import ModelConfig, ParamStore, predict_boundaries, predicted_mask, split_fused
from .tensor import Tensor
from .tokenizer import SuffixIndex, longest_suffix_token


class InferenceError(ValueError):
    pass


@dataclass
class SamplerConfig:
    temperature: float = 1.0
    top_p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.temperature < 0:
            raise InferenceError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise InferenceError("top_p must be in (0, 1]")


@dataclass
class DecodeState:
    enc: list[dict]
    dec: list[dict]
    kv: list[dict]
    h_latest: np.ndarray  # start vector until the first patch closes
    history: bytearray  # all consumed bytes (suffix lookup context)
    pending: int = 0  # bytes in the open patch
    n_global_calls: int = 0  # one per closed patch
    last_logprobs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def check(self) -> None:
        for cache in self.kv:
            if cache["pos"] != self.n_global_calls:
                raise InferenceError("KV length != closed patches")


def _fresh_state(params: ParamStore, cfg: ModelConfig, seed: int) -> DecodeState:
    m, g = cfg.mlstm, cfg.global_model
    dtype = params["byte_embed.table"].dtype
    return DecodeState(
        enc=[L.empty_mlstm_state(m.heads, m.qk_dim, m.v_dim, dtype) for _ in range(cfg.encoder_layers)],
        dec=[L.empty_mlstm_state(m.heads, m.qk_dim, m.v_dim, dtype) for _ in range(cfg.decoder_layers)],
        kv=[L.empty_attention_cache(g.heads, g.head_dim, dtype) for _ in range(g.layers)],
        h_latest=params["start_vector.v"].data.copy(),
        history=bytearray(),
        rng=np.random.default_rng(seed),
    )


def _step_stack(params: ParamStore, cfg: ModelConfig, x: np.ndarray, states: list[dict], stack: str) -> np.ndarray:
    """One position through the mLSTM + FFN layers of the encoder or decoder
    stack (the step form of `model._local_stack`)."""
    m = cfg.mlstm
    p = params.tensors()
    for l, st in enumerate(states):
        x = L.mlstm_step(p, f"{stack}.{l}.mlstm", x, st, m.heads, m.qk_dim, m.v_dim, m.gate_soft_cap, cfg.rms_eps)
        x = L.ffn_step(p, f"{stack}.{l}.ffn", x, cfg.rms_eps)
    return x


def _encode_byte(params: ParamStore, cfg: ModelConfig, state: DecodeState, sidx: SuffixIndex, byte: int) -> np.ndarray:
    state.history.append(byte)
    sfx = longest_suffix_token(sidx, bytes(state.history), len(state.history) - 1)
    e = params["byte_embed.table"].data[byte] + params["subword_embed.table"].data[sfx]
    return _step_stack(params, cfg, e, state.enc, "encoder")


def _advance_global(params: ParamStore, cfg: ModelConfig, state: DecodeState, e_hat: np.ndarray) -> None:
    g = cfg.global_model
    p = params.tensors()
    x = e_hat
    for l in range(g.layers):
        x = L.attention_step(p, f"global.{l}.attn", x, state.kv[l], g.heads, g.head_dim, cfg.rope_base, cfg.rms_eps)
        x = L.ffn_step(p, f"global.{l}.ffn", x, cfg.rms_eps)
    state.h_latest = x * T.rms_scale_np(x, cfg.rms_eps) * params["global.final_norm_g"].data
    state.n_global_calls += 1


def _decode_position(params: ParamStore, cfg: ModelConfig, state: DecodeState, e_hat: np.ndarray) -> np.ndarray:
    z = e_hat @ params["depool_proj.w"].data + state.h_latest
    x = _step_stack(params, cfg, z, state.dec, "decoder")
    x = x * T.rms_scale_np(x, cfg.rms_eps) * params["lm_head.norm_g"].data
    logits = x @ params["lm_head.w"].data
    if not np.all(np.isfinite(logits)):
        raise InferenceError("non-finite logits")
    return T.log_softmax_np(logits)


def _close_or_extend(params: ParamStore, cfg: ModelConfig, state: DecodeState, e_hat: np.ndarray, boundary: bool) -> bool:
    """Put an encoded byte into the open patch, closing the patch on a
    boundary bit or when it reaches `patch_cap` bytes, then score the next
    symbol. Returns whether the patch closed."""
    boundary = boundary or state.pending + 1 >= cfg.patch_cap
    if boundary:
        _advance_global(params, cfg, state, e_hat)
        state.pending = 0
    else:
        state.pending += 1
    state.last_logprobs = _decode_position(params, cfg, state, e_hat)
    return boundary


def prefill(
    params: ParamStore,
    cfg: ModelConfig,
    vocab_index: SuffixIndex,
    prompt: bytes,
    seed: int = 0,
) -> tuple[DecodeState, np.ndarray, np.ndarray]:
    """Consume a prompt: non-causal boundary scoring over all prompt bytes
    (forced final boundary), one global step per closed patch. Returns the
    ready-to-generate state, the next-symbol log-probabilities, and the
    boundary mask that was used, patch-cap closures included."""
    if len(prompt) == 0:
        raise InferenceError("empty prompt")
    state = _fresh_state(params, cfg, seed)
    e_hats = np.stack([_encode_byte(params, cfg, state, vocab_index, b) for b in prompt])
    scores = predict_boundaries(params, cfg, Tensor(e_hats[None]))
    predicted = predicted_mask(scores.data, cfg.boundary_threshold)[0]
    # replay: close patches and advance the decoder in byte order
    mask = np.array([_close_or_extend(params, cfg, state, e, b) for e, b in zip(e_hats, predicted)])
    state.check()
    return state, state.last_logprobs, mask


def sample(logprobs: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> int:
    """Temperature scaling, nucleus truncation (smallest prefix of the sorted
    distribution reaching top_p mass), renormalize, draw. Temperature 0 is
    argmax."""
    if cfg.temperature == 0.0:
        return int(np.argmax(logprobs))
    probs = T.softmax_np(logprobs / cfg.temperature)
    if cfg.top_p < 1.0:
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        keep = int(np.searchsorted(csum, cfg.top_p)) + 1
        trimmed = np.zeros_like(probs)
        trimmed[order[:keep]] = probs[order[:keep]]
        probs = trimmed / trimmed.sum()
    return int(rng.choice(len(probs), p=probs))


def decode_step(
    params: ParamStore,
    cfg: ModelConfig,
    state: DecodeState,
    sidx: SuffixIndex,
    sampler: SamplerConfig,
    forced_symbol: int | None = None,
) -> int:
    """Sample (or force) one fused symbol and advance the state. A boundary
    bit closes the patch; a patch hitting the length cap is closed anyway."""
    symbol = forced_symbol if forced_symbol is not None else sample(state.last_logprobs, sampler, state.rng)
    byte, boundary = split_fused(symbol)
    _close_or_extend(params, cfg, state, _encode_byte(params, cfg, state, sidx, byte), boundary)
    state.check()
    return symbol


def generate(
    params: ParamStore,
    cfg: ModelConfig,
    vocab_index: SuffixIndex,
    prompt: bytes,
    max_bytes: int,
    sampler: SamplerConfig,
) -> bytes:
    """Greedy/sampled continuation of `prompt`, stopping at the end-of-text
    byte or after max_bytes. Returns only the generated bytes."""
    if max_bytes <= 0:
        return b""
    state, _, _ = prefill(params, cfg, vocab_index, prompt, seed=sampler.seed)
    out = bytearray()
    for _ in range(max_bytes):
        symbol = decode_step(params, cfg, state, sidx=vocab_index, sampler=sampler)
        byte, _ = split_fused(symbol)
        if byte == cfg.eot_byte:
            break
        out.append(byte)
    return bytes(out)


"""Prefill and incremental decoding.

The prefill scores boundaries non-causally over the whole prompt with the
model's own boundary predictor (one byte of future context, forced boundary
at the end) and replays the bytes through the recurrent state. During decoding
the boundary predictor is never consulted: the fused output symbol carries the
boundary bit, closing a patch triggers one global-model step, and the
refreshed patch representation feeds every following byte until the next
boundary. Prefill pools on `model.predicted_mask`, as `forward_full` does
without a supervision mask, and decoding closes a patch by the same rule: on
a boundary bit, or when the patch reaches `patch_cap` bytes. The recurrent
and cached-attention state math runs on raw numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from . import tensor as T
from .data import EOT
from .model import ModelConfig, ParamStore, layer_plan, predict_boundaries, predicted_mask, split_fused
from .tensor import Tensor
from .tokenizer import SuffixIndex


class InferenceError(ValueError):
    pass


@dataclass
class SamplerConfig:
    temperature: float = 1.0
    top_p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.temperature < np.inf:
            raise InferenceError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise InferenceError("top_p must be in (0, 1]")


@dataclass
class DecodeState:
    layers: dict[str, dict]  # mLSTM state or attention cache, by layer prefix
    h_latest: np.ndarray  # start vector until the first patch closes
    suffix_state: int = 0  # SuffixIndex state after the consumed bytes
    pending: int = 0  # bytes in the open patch
    n_global_calls: int = 0  # one per closed patch
    last_logprobs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def check(self) -> None:
        for cache in self.layers.values():
            if "pos" in cache and cache["pos"] != self.n_global_calls:
                raise InferenceError("KV length != closed patches")


def _fresh_state(params: ParamStore, cfg: ModelConfig, seed: int) -> DecodeState:
    dtype = params["byte_embed.table"].dtype
    layers = {}
    for prefix, kind in layer_plan(cfg, "encoder") + layer_plan(cfg, "global") + layer_plan(cfg, "decoder"):
        if kind == "mlstm":
            layers[prefix] = L.empty_mlstm_state(cfg.mlstm_heads, cfg.mlstm_qk_dim, cfg.mlstm_v_dim, dtype)
        elif kind == "attn":
            layers[prefix] = L.empty_attention_cache(cfg.global_heads, cfg.global_head_dim, dtype)
    return DecodeState(
        layers=layers,
        h_latest=params["start_vector.v"].data.copy(),
        rng=np.random.default_rng(seed),
    )


def _run_steps(params: ParamStore, cfg: ModelConfig, x: np.ndarray, layers: dict[str, dict], stack: str) -> np.ndarray:
    """One position through the stack's layers in plan order: the step form
    of `model._run_blocks`, advancing each layer's entry in `layers`."""
    for prefix, kind in layer_plan(cfg, stack):
        if kind == "mlstm":
            x = L.mlstm_step(params, prefix, x, layers[prefix], cfg.mlstm_heads, cfg.mlstm_qk_dim, cfg.mlstm_v_dim)
        elif kind == "attn":
            x = L.attention_step(params, prefix, x, layers[prefix], cfg.global_heads, cfg.global_head_dim)
        else:
            x = L.ffn_step(params, prefix, x)
    return x


def _encode_byte(params: ParamStore, cfg: ModelConfig, state: DecodeState, sidx: SuffixIndex, byte: int) -> np.ndarray:
    state.suffix_state = sidx.step(state.suffix_state, byte)
    sfx = sidx.longest[state.suffix_state]
    e = params["byte_embed.table"].data[byte] + params["subword_embed.table"].data[sfx]
    return _run_steps(params, cfg, e, state.layers, "encoder")


def _advance_global(params: ParamStore, cfg: ModelConfig, state: DecodeState, e_hat: np.ndarray) -> None:
    x = _run_steps(params, cfg, e_hat, state.layers, "global")
    state.h_latest = L.rms_np(x, params["global.final_norm_g"].data)
    state.n_global_calls += 1


def _decode_position(params: ParamStore, cfg: ModelConfig, state: DecodeState, e_hat: np.ndarray) -> np.ndarray:
    z = e_hat @ params["depool_proj.w"].data + state.h_latest
    x = _run_steps(params, cfg, z, state.layers, "decoder")
    x = L.rms_np(x, params["lm_head.norm_g"].data)
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
    mask = predicted_mask(scores.data, cfg.patch_cap)[0]
    # replay: close patches and advance the decoder in byte order
    for e, b in zip(e_hats, mask):
        _close_or_extend(params, cfg, state, e, b)
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
    byte `data.EOT` or after max_bytes. Returns only the generated bytes."""
    if max_bytes <= 0:
        return b""
    state, _, _ = prefill(params, cfg, vocab_index, prompt, seed=sampler.seed)
    out = bytearray()
    for _ in range(max_bytes):
        symbol = decode_step(params, cfg, state, sidx=vocab_index, sampler=sampler)
        byte, _ = split_fused(symbol)
        if byte == EOT:
            break
        out.append(byte)
    return bytes(out)


"""Network building blocks, written as functions over named parameter dicts.

Two implementations exist for the recurrent byte-level layers:

* ``mlstm_block`` builds the training graph in chunkwise-parallel form
  (xLSTM, arXiv 2405.04517; Tiled Flash Linear Attention, arXiv 2503.14376).
  Its core is one ``tensor.mlstm_chunkwise`` node, whose graph of small ops
  lives in ``test_fused_nodes`` as its oracle: bit for bit in the forward,
  within 2^12 units in the last place in the derived backward. A chunk
  length L = n is the closed quadratic form over all position pairs, L = 1
  the recurrence; the default ``CHUNK`` bounds L, and so memory at L×n
  instead of n×n per head.
  The chunk rule, ``tensor.mlstm_chunk_split``: the n bytes split into nc
  chunks of one length L = ceil(n / nc) <= ``CHUNK``, the last one padded to
  nc·L bytes. Of the counts from the fewest, ceil(n / CHUNK), to a quarter
  more (rounded up), nc is the one that pads least, the fewer on a tie.
  ``CHUNK`` is sized for float32 steps: 32 B chunks make a 512-B step
  cheaper than 128 B ones, and no slower at 88 B.
* ``mlstm_step`` advances one byte at a time on raw numpy state, used for
  incremental decoding. ``test_layers`` pins the two to each other at
  several chunk lengths; the sequential form is the correctness oracle.

The attention stack mirrors a standard pre-norm decoder block: RMSNorm, rotary
positions, causal softmax attention, SwiGLU feed-forward. ``attention_step`` is
its cached one-position form, the oracle pinned to ``attention_block``.

Both pairs share their primitives: the step forms call the same
``tensor.*_np`` kernels (RMS scale, softcap, log-sigmoid, softmax, rotary
positions) that the graph ops compute with, and ``rms_np`` is ``rms``'s twin.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

NEG_MASK = -1e9
RMS_EPS = 1e-12  # every RMSNorm, shared with the transplanted backbone
ROPE_BASE = 10000.0  # rotary frequency base of the backbone's attention
GATE_SOFT_CAP = 15.0  # mLSTM input/forget gate pre-activations stay inside ±cap


# -- small shared pieces ------------------------------------------------------

def rms(x: Tensor, gain: Tensor) -> Tensor:
    return T.rmsnorm(x, gain, RMS_EPS)


def rms_np(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """`rms` on raw numpy arrays, for the step forms."""
    return x * T.rms_scale_np(x, RMS_EPS) * gain


def swiglu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    return T.silu_gated_matmul(T.matmul(x, w_gate), T.matmul(x, w_up), w_down)


def ffn_block(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    xn = rms(x, p[f"{prefix}.norm_g"])
    return x + swiglu(xn, p[f"{prefix}.w_gate"], p[f"{prefix}.w_up"], p[f"{prefix}.w_down"])


def _heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    """(B, n, H*hd) -> (B, H, n, hd)"""
    b, n, _ = x.shape
    return T.transpose(x.reshape((b, n, n_heads, head_dim)), (0, 2, 1, 3))


def _unheads(x: Tensor) -> Tensor:
    """(B, H, n, hd) -> (B, n, H*hd)"""
    b, h, n, hd = x.shape
    return T.transpose(x, (0, 2, 1, 3)).reshape((b, n, h * hd))


# -- rotary positions ---------------------------------------------------------

def rope_tables(positions: np.ndarray, head_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    freqs = ROPE_BASE ** (-np.arange(half, dtype=np.float64) / half)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


# -- causal attention block ---------------------------------------------------

def attention_block(
    p: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    n_heads: int,
    head_dim: int,
) -> Tensor:
    b, n, d = x.shape
    xn = rms(x, p[f"{prefix}.norm_g"])
    q = _heads(T.matmul(xn, p[f"{prefix}.w_q"]), n_heads, head_dim)
    k = _heads(T.matmul(xn, p[f"{prefix}.w_k"]), n_heads, head_dim)
    v = _heads(T.matmul(xn, p[f"{prefix}.w_v"]), n_heads, head_dim)
    cos, sin = rope_tables(np.arange(n), head_dim, x.dtype)
    q = T.rope(q, cos, sin)
    k = T.rope(k, cos, sin)
    att = T.matmul(q, k.swap_last()) * head_dim**-0.5
    causal = np.triu(np.full((n, n), NEG_MASK, dtype=x.dtype), k=1)
    att = T.softmax(att + Tensor(causal, _op="const"))
    out = _unheads(T.matmul(att, v))
    return x + T.matmul(out, p[f"{prefix}.w_o"])


def attention_step(
    p: dict[str, Tensor],
    prefix: str,
    x_t: np.ndarray,
    cache: dict,
    n_heads: int,
    head_dim: int,
) -> np.ndarray:
    """One position of cached attention on raw numpy state. cache holds
    'k'/'v' arrays shaped (H, t, hd) plus 'pos', and is mutated in place."""
    xn = rms_np(x_t, p[f"{prefix}.norm_g"].data)
    q = (xn @ p[f"{prefix}.w_q"].data).reshape(n_heads, head_dim)
    k = (xn @ p[f"{prefix}.w_k"].data).reshape(n_heads, head_dim)
    v = (xn @ p[f"{prefix}.w_v"].data).reshape(n_heads, head_dim)
    pos = cache["pos"]
    cos, sin = rope_tables(np.array([pos]), head_dim, x_t.dtype)
    q = T.rope_np(q, cos, sin)
    k = T.rope_np(k, cos, sin)
    cache["k"] = np.concatenate([cache["k"], k[:, None, :]], axis=1)
    cache["v"] = np.concatenate([cache["v"], v[:, None, :]], axis=1)
    cache["pos"] = pos + 1
    w = T.softmax_np(np.einsum("hd,htd->ht", q, cache["k"]) * head_dim**-0.5)
    out = np.einsum("ht,htd->hd", w, cache["v"]).reshape(-1)
    return x_t + out @ p[f"{prefix}.w_o"].data


def empty_attention_cache(n_heads: int, head_dim: int, dtype) -> dict:
    return {
        "k": np.zeros((n_heads, 0, head_dim), dtype=dtype),
        "v": np.zeros((n_heads, 0, head_dim), dtype=dtype),
        "pos": 0,
    }


# -- mLSTM block --------------------------------------------------------------

# most bytes per chunk of the mLSTM training form, sized for float32 steps.
# Under the chunk rule (tensor.mlstm_chunk_split), toy.cfg's 88-B windows run
# as four chunks of 22 B, 512-B documents as sixteen of 32 B, and 513
# positions (BOS + 512) as nineteen of 27, none padded
CHUNK = 32


def mlstm_block(
    p: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    heads: int,
    qk_dim: int,
    v_dim: int,
    chunk: int = CHUNK,
) -> Tensor:
    """Chunkwise-parallel mLSTM with exponential input gate, sigmoid forget
    gate, soft-capped gate pre-activations, matrix memory per head, per-head
    RMS normalization and a sigmoid output gate, wrapped pre-norm residually.
    `chunk` bounds the chunk length L: the n bytes split into chunks of at
    most `chunk`, all of one length L, as `tensor.mlstm_chunk_split` says.
    Per head, the in-chunk products grow as n·L·(qk_dim + v_dim) and the
    cross-chunk ones as (n/L)²·qk_dim·v_dim: at CHUNK and toy.cfg's head
    sizes the in-chunk part stays the larger up to about 3,000 bytes, at
    16-B chunks only to 384. Tests pass `chunk`, callers keep CHUNK."""
    b, n, d = x.shape
    xn = rms(x, p[f"{prefix}.norm_g"])
    q = _heads(T.matmul(xn, p[f"{prefix}.w_q"]), heads, qk_dim)
    k = _heads(T.matmul(xn, p[f"{prefix}.w_k"]), heads, qk_dim) * qk_dim**-0.5
    v = _heads(T.matmul(xn, p[f"{prefix}.w_v"]), heads, v_dim)

    i_pre = T.softcap(T.matmul(xn, p[f"{prefix}.w_i"]) + p[f"{prefix}.b_i"], GATE_SOFT_CAP)
    f_pre = T.softcap(T.matmul(xn, p[f"{prefix}.w_f"]) + p[f"{prefix}.b_f"], GATE_SOFT_CAP)
    i_pre = T.transpose(i_pre, (0, 2, 1))  # (B, NH, n)
    f_pre = T.transpose(f_pre, (0, 2, 1))

    h = T.mlstm_chunkwise(q, k, v, i_pre, f_pre, chunk)  # (B, NH, n, v)
    h = T.transpose(h, (0, 2, 1, 3))  # (B, n, NH, v)
    h = rms(h, p[f"{prefix}.mh_norm_g"].reshape((heads, v_dim))).reshape((b, n, heads * v_dim))
    og = T.sigmoid(T.matmul(xn, p[f"{prefix}.w_og"]))
    return x + T.gated_matmul(h, og, p[f"{prefix}.w_out"])


def empty_mlstm_state(heads: int, qk_dim: int, v_dim: int, dtype) -> dict:
    return {
        "C": np.zeros((heads, qk_dim, v_dim), dtype=dtype),
        "n": np.zeros((heads, qk_dim), dtype=dtype),
        "m": np.full((heads,), -1e30, dtype=dtype),
    }


def mlstm_step(
    p: dict[str, Tensor],
    prefix: str,
    x_t: np.ndarray,
    state: dict,
    heads: int,
    qk_dim: int,
    v_dim: int,
) -> np.ndarray:
    """Sequential mLSTM update on raw numpy state (mutated in place)."""
    xn = rms_np(x_t, p[f"{prefix}.norm_g"].data)
    q = (xn @ p[f"{prefix}.w_q"].data).reshape(heads, qk_dim)
    k = (xn @ p[f"{prefix}.w_k"].data).reshape(heads, qk_dim) * qk_dim**-0.5
    v = (xn @ p[f"{prefix}.w_v"].data).reshape(heads, v_dim)
    i_pre = T.softcap_np(xn @ p[f"{prefix}.w_i"].data + p[f"{prefix}.b_i"].data, GATE_SOFT_CAP)
    f_pre = T.softcap_np(xn @ p[f"{prefix}.w_f"].data + p[f"{prefix}.b_f"].data, GATE_SOFT_CAP)
    log_f = T.logsigmoid_np(f_pre)
    m_new = np.maximum(log_f + state["m"], i_pre)
    f_eff = np.exp(log_f + state["m"] - m_new)
    i_eff = np.exp(i_pre - m_new)
    state["C"] = f_eff[:, None, None] * state["C"] + i_eff[:, None, None] * (
        k[:, :, None] * v[:, None, :]
    )
    state["n"] = f_eff[:, None] * state["n"] + i_eff[:, None] * k
    state["m"] = m_new
    num = np.einsum("hkv,hk->hv", state["C"], q)
    dots = np.einsum("hk,hk->h", state["n"], q)
    den = np.maximum(np.abs(dots), np.exp(-m_new))
    h = num / den[:, None]
    h = rms_np(h, p[f"{prefix}.mh_norm_g"].data.reshape(heads, v_dim)).reshape(-1)
    og = T.sigmoid_np(xn @ p[f"{prefix}.w_og"].data)
    return x_t + (h * og) @ p[f"{prefix}.w_out"].data


def ffn_step(p: dict[str, Tensor], prefix: str, x_t: np.ndarray) -> np.ndarray:
    xn = rms_np(x_t, p[f"{prefix}.norm_g"].data)
    gate = xn @ p[f"{prefix}.w_gate"].data
    up = xn @ p[f"{prefix}.w_up"].data
    return x_t + (gate * T.sigmoid_np(gate) * up) @ p[f"{prefix}.w_down"].data


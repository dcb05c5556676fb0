"""Network building blocks, written as functions over named parameter dicts.

Two implementations exist for the recurrent byte-level layers:

* ``mlstm_block`` builds the training graph in a closed quadratic form: the
  exponential-gate recurrence unrolls into a decay matrix over all position
  pairs, stabilized by a running log-max that cancels exactly and is therefore
  computed in numpy, outside the gradient.
* ``mlstm_step`` advances one byte at a time on raw numpy state, used for
  incremental decoding. ``test_layers`` pins the two to each other; the
  sequential form is the correctness oracle.

The attention stack mirrors a standard pre-norm decoder block: RMSNorm, rotary
positions, causal softmax attention, SwiGLU feed-forward. ``attention_step`` is
its cached one-position form, the oracle pinned to ``attention_block``.

Both pairs share their primitives: the step forms call the same
``tensor.*_np`` kernels (RMS scale, softcap, log-sigmoid, softmax, rotary
positions) that the graph ops compute with.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

NEG_MASK = -1e9


# -- small shared pieces ------------------------------------------------------

def rms(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    return T.rmsnorm(x, eps) * gain


def swiglu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    return T.matmul(T.silu(T.matmul(x, w_gate)) * T.matmul(x, w_up), w_down)


def ffn_block(p: dict[str, Tensor], prefix: str, x: Tensor, eps: float) -> Tensor:
    xn = rms(x, p[f"{prefix}.norm_g"], eps)
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

def rope_tables(positions: np.ndarray, head_dim: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    freqs = base ** (-np.arange(half, dtype=np.float64) / half)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


# -- causal attention block ---------------------------------------------------

def attention_block(
    p: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    n_heads: int,
    head_dim: int,
    rope_base: float,
    eps: float,
) -> Tensor:
    b, n, d = x.shape
    xn = rms(x, p[f"{prefix}.norm_g"], eps)
    q = _heads(T.matmul(xn, p[f"{prefix}.w_q"]), n_heads, head_dim)
    k = _heads(T.matmul(xn, p[f"{prefix}.w_k"]), n_heads, head_dim)
    v = _heads(T.matmul(xn, p[f"{prefix}.w_v"]), n_heads, head_dim)
    cos, sin = rope_tables(np.arange(n), head_dim, rope_base, x.dtype)
    q = T.rope(q, cos, sin)
    k = T.rope(k, cos, sin)
    att = T.matmul(q, k.swap_last()) * Tensor(np.float64(head_dim) ** -0.5, _op="const")
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
    rope_base: float,
    eps: float,
) -> np.ndarray:
    """One position of cached attention on raw numpy state. cache holds
    'k'/'v' arrays shaped (H, t, hd) plus 'pos', and is mutated in place."""
    xn = x_t * T.rms_scale_np(x_t, eps) * p[f"{prefix}.norm_g"].data
    q = (xn @ p[f"{prefix}.w_q"].data).reshape(n_heads, head_dim)
    k = (xn @ p[f"{prefix}.w_k"].data).reshape(n_heads, head_dim)
    v = (xn @ p[f"{prefix}.w_v"].data).reshape(n_heads, head_dim)
    pos = cache["pos"]
    cos, sin = rope_tables(np.array([pos]), head_dim, rope_base, x_t.dtype)
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

def mlstm_block(
    p: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    heads: int,
    qk_dim: int,
    v_dim: int,
    soft_cap: float,
    eps: float,
    collect: dict | None = None,
) -> Tensor:
    """Parallel-form mLSTM with exponential input gate, sigmoid forget gate,
    soft-capped gate pre-activations, matrix memory per head, per-head RMS
    normalization and a sigmoid output gate, wrapped pre-norm residually."""
    b, n, d = x.shape
    xn = rms(x, p[f"{prefix}.norm_g"], eps)
    q = _heads(T.matmul(xn, p[f"{prefix}.w_q"]), heads, qk_dim)
    k = _heads(T.matmul(xn, p[f"{prefix}.w_k"]), heads, qk_dim) * Tensor(
        np.float64(qk_dim) ** -0.5, _op="const"
    )
    v = _heads(T.matmul(xn, p[f"{prefix}.w_v"]), heads, v_dim)

    i_pre = T.softcap(T.matmul(xn, p[f"{prefix}.w_i"]) + p[f"{prefix}.b_i"], soft_cap)
    f_pre = T.softcap(T.matmul(xn, p[f"{prefix}.w_f"]) + p[f"{prefix}.b_f"], soft_cap)
    if collect is not None:
        collect.setdefault("gate_preacts", []).extend([i_pre.data, f_pre.data])
    i_pre = T.transpose(i_pre, (0, 2, 1))  # (B, NH, n)
    f_pre = T.transpose(f_pre, (0, 2, 1))

    log_f = T.logsigmoid(f_pre)
    fcum = T.cumsum(log_f, axis=-1)  # F_t = sum_{s<=t} log f_s
    a = i_pre - fcum  # a_s = i_s - F_s
    # running stabilizer m_t = F_t + max_{s<=t} a_s; it rescales numerator and
    # denominator identically, so it is a constant for the gradient
    m = Tensor(fcum.data + np.maximum.accumulate(a.data, axis=-1), _op="const")
    # decay[t, s] = exp(F_t + a_s - m_t) for s <= t, 0 above the diagonal
    scores = T.outer_add(fcum - m, a)
    decay = T.exp_where(scores, np.tril(np.ones((n, n), dtype=bool)))

    w = decay * T.matmul(q, k.swap_last())
    num = T.matmul(w, v)  # (B, NH, n, v)
    den = T.maximum(
        T.absolute(w.sum(axis=-1, keepdims=True)),
        T.exp(-m).reshape((b, heads, n, 1)),
    )
    h = num / den  # (B, NH, n, v)

    h = T.transpose(h, (0, 2, 1, 3))  # (B, n, NH, v)
    h = T.rmsnorm(h, eps).reshape((b, n, heads * v_dim)) * p[f"{prefix}.mh_norm_g"]
    og = T.sigmoid(T.matmul(xn, p[f"{prefix}.w_og"]))
    return x + T.matmul(h * og, p[f"{prefix}.w_out"])


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
    soft_cap: float,
    eps: float,
) -> np.ndarray:
    """Sequential mLSTM update on raw numpy state (mutated in place)."""
    xn = x_t * T.rms_scale_np(x_t, eps) * p[f"{prefix}.norm_g"].data
    q = (xn @ p[f"{prefix}.w_q"].data).reshape(heads, qk_dim)
    k = (xn @ p[f"{prefix}.w_k"].data).reshape(heads, qk_dim) * qk_dim**-0.5
    v = (xn @ p[f"{prefix}.w_v"].data).reshape(heads, v_dim)
    i_pre = T.softcap_np(xn @ p[f"{prefix}.w_i"].data + p[f"{prefix}.b_i"].data, soft_cap)
    f_pre = T.softcap_np(xn @ p[f"{prefix}.w_f"].data + p[f"{prefix}.b_f"].data, soft_cap)
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
    h = (h * T.rms_scale_np(h, eps)).reshape(-1) * p[f"{prefix}.mh_norm_g"].data
    og = T.sigmoid_np(xn @ p[f"{prefix}.w_og"].data)
    return x_t + (h * og) @ p[f"{prefix}.w_out"].data


def ffn_step(p: dict[str, Tensor], prefix: str, x_t: np.ndarray, eps: float) -> np.ndarray:
    xn = x_t * T.rms_scale_np(x_t, eps) * p[f"{prefix}.norm_g"].data
    gate = xn @ p[f"{prefix}.w_gate"].data
    up = xn @ p[f"{prefix}.w_up"].data
    return x_t + (gate * T.sigmoid_np(gate) * up) @ p[f"{prefix}.w_down"].data


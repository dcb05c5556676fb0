"""Network building blocks, written as functions over named parameter dicts.

Two implementations exist for the recurrent byte-level layers:

* ``mlstm_block`` builds the training graph in chunkwise-parallel form
  (xLSTM, arXiv 2405.04517; Tiled Flash Linear Attention, arXiv 2503.14376).
  Inside each chunk of L bytes the exponential-gate recurrence unrolls into a
  decay matrix over the chunk's position pairs; each chunk's key-value state
  and normalizer reach the later chunks through one strictly-lower decay
  matmul over chunks. Every exponent is stabilized by a max of the gate
  log-sums that cancels exactly and is therefore computed in numpy, outside
  the gradient. L = n is the closed quadratic form over all position pairs,
  L = 1 the recurrence; the default ``CHUNK`` bounds memory at L×n instead
  of n×n per head.
* ``mlstm_step`` advances one byte at a time on raw numpy state, used for
  incremental decoding. ``test_layers`` pins the two to each other at
  several chunk lengths; the sequential form is the correctness oracle.

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
RMS_EPS = 1e-12  # every RMSNorm, shared with the transplanted backbone
ROPE_BASE = 10000.0  # rotary frequency base of the backbone's attention
GATE_SOFT_CAP = 15.0  # mLSTM input/forget gate pre-activations stay inside ±cap


# -- small shared pieces ------------------------------------------------------

def rms(x: Tensor, gain: Tensor) -> Tensor:
    return T.rmsnorm(x, RMS_EPS) * gain


def swiglu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    return T.matmul(T.silu(T.matmul(x, w_gate)) * T.matmul(x, w_up), w_down)


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
) -> np.ndarray:
    """One position of cached attention on raw numpy state. cache holds
    'k'/'v' arrays shaped (H, t, hd) plus 'pos', and is mutated in place."""
    xn = x_t * T.rms_scale_np(x_t, RMS_EPS) * p[f"{prefix}.norm_g"].data
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

# bytes per chunk of the mLSTM training form: toy.cfg's 88-B windows stay one
# chunk, 512-B documents take four
CHUNK = 128


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
    `chunk` is the chunk length L; tests pass it, callers keep CHUNK."""
    b, n, d = x.shape
    xn = rms(x, p[f"{prefix}.norm_g"])
    q = _heads(T.matmul(xn, p[f"{prefix}.w_q"]), heads, qk_dim)
    k = _heads(T.matmul(xn, p[f"{prefix}.w_k"]), heads, qk_dim) * Tensor(
        np.float64(qk_dim) ** -0.5, _op="const"
    )
    v = _heads(T.matmul(xn, p[f"{prefix}.w_v"]), heads, v_dim)

    i_pre = T.softcap(T.matmul(xn, p[f"{prefix}.w_i"]) + p[f"{prefix}.b_i"], GATE_SOFT_CAP)
    f_pre = T.softcap(T.matmul(xn, p[f"{prefix}.w_f"]) + p[f"{prefix}.b_f"], GATE_SOFT_CAP)
    i_pre = T.transpose(i_pre, (0, 2, 1))  # (B, NH, n)
    f_pre = T.transpose(f_pre, (0, 2, 1))

    log_f = T.logsigmoid(f_pre)
    fcum = T.cumsum(log_f, axis=-1)  # F_t = sum_{s<=t} log f_s
    a = i_pre - fcum  # a_s = i_s - F_s
    # running stabilizer m_t = F_t + max_{s<=t} a_s; it rescales numerator and
    # denominator identically, so it is a constant for the gradient, and so is
    # every other max of `a` below
    amax = np.maximum.accumulate(a.data, axis=-1)
    m = Tensor(fcum.data + amax, _op="const")
    # decay[t, s] = exp(u_t + a_s) for s <= t, where u_t = F_t - m_t is
    # -max_{s<=t} a_s, so no exponent is positive

    # split the time axis into nc chunks of L bytes; a ragged last chunk is
    # padded with zero q/k/v and with the last stabilizer as u and a, so its
    # exponents stay <= 0 too
    size = min(chunk, n)
    nc = -(-n // size)
    pad = nc * size - n
    last = amax[..., -1:]

    def chunks(t: Tensor, fill) -> Tensor:
        if pad:
            fill = np.broadcast_to(fill, t.shape[:2] + (pad,) + t.shape[3:])
            t = T.concat([t, Tensor(fill, _op="const")], axis=2)
        return t.reshape((b, heads, nc, size) + t.shape[3:])

    uc, ac = chunks(fcum - m, -last), chunks(a, last)
    qc, kc, vc = chunks(q, 0.0), chunks(k, 0.0), chunks(v, 0.0)

    # inside each chunk: the decay matrix over its position pairs
    scores = T.outer_add(uc, ac)  # (B, NH, nc, L, L)
    decay = T.exp_where(scores, np.tril(np.ones((size, size), dtype=bool)))
    w = decay * T.matmul(qc, kc.swap_last())
    num = T.matmul(w, vc)  # (B, NH, nc, L, v)
    den = w.sum(axis=-1, keepdims=True)

    if nc > 1:  # across chunks, an empty sum for one chunk
        # chunk c's state sum_s exp(a_s - M_c) k_s v_s^T and normalizer, with
        # M_c the chunk's max of a; chunk c reads the earlier states through
        # one strictly-lower decay exp(M_c' - R_c), R_c the max of a before c
        # (a_0 for c = 0, whose row is empty)
        cmax = ac.data.max(axis=-1)  # (B, NH, nc)
        ref = amax[..., np.maximum(np.arange(nc) * size - 1, 0)]
        cross = np.zeros((b, heads, nc, nc))
        np.exp(cmax[..., None, :] - ref[..., :, None], out=cross,
               where=np.tril(np.ones((nc, nc), dtype=bool), k=-1))
        cross = Tensor(cross, _op="const")
        kg = kc * T.exp(ac - Tensor(cmax[..., None], _op="const")).reshape((b, heads, nc, size, 1))
        states = T.matmul(kg.swap_last(), vc).reshape((b, heads, nc, qk_dim * v_dim))
        carry = T.matmul(cross, states).reshape((b, heads, nc, qk_dim, v_dim))
        carry_n = T.matmul(cross, kg.sum(axis=-2)).reshape((b, heads, nc, qk_dim, 1))
        # u_t + R_c <= 0, because R_c <= max_{s<=t} a_s = -u_t
        e = T.exp(uc + Tensor(ref[..., None], _op="const")).reshape((b, heads, nc, size, 1))
        num = num + T.matmul(qc, carry) * e
        den = den + T.matmul(qc, carry_n) * e

    num = num.reshape((b, heads, nc * size, v_dim))
    den = den.reshape((b, heads, nc * size, 1))
    if pad:
        num, den = num[:, :, :n], den[:, :, :n]
    den = T.maximum(T.absolute(den), T.exp(-m).reshape((b, heads, n, 1)))
    h = num / den  # (B, NH, n, v)

    h = T.transpose(h, (0, 2, 1, 3))  # (B, n, NH, v)
    h = T.rmsnorm(h, RMS_EPS).reshape((b, n, heads * v_dim)) * p[f"{prefix}.mh_norm_g"]
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
) -> np.ndarray:
    """Sequential mLSTM update on raw numpy state (mutated in place)."""
    xn = x_t * T.rms_scale_np(x_t, RMS_EPS) * p[f"{prefix}.norm_g"].data
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
    h = (h * T.rms_scale_np(h, RMS_EPS)).reshape(-1) * p[f"{prefix}.mh_norm_g"].data
    og = T.sigmoid_np(xn @ p[f"{prefix}.w_og"].data)
    return x_t + (h * og) @ p[f"{prefix}.w_out"].data


def ffn_step(p: dict[str, Tensor], prefix: str, x_t: np.ndarray) -> np.ndarray:
    xn = x_t * T.rms_scale_np(x_t, RMS_EPS) * p[f"{prefix}.norm_g"].data
    gate = xn @ p[f"{prefix}.w_gate"].data
    up = xn @ p[f"{prefix}.w_up"].data
    return x_t + (gate * T.sigmoid_np(gate) * up) @ p[f"{prefix}.w_down"].data


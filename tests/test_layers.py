"""Layer-level checks: the sequential mLSTM recurrence is the correctness
oracle for the parallel training form; attention caching must reproduce the
batch pass; every block passes a finite-difference gradient check."""

import numpy as np
import pytest

from bytepatch import layers as L
from bytepatch import tensor as T
from bytepatch.tensor import Tensor, finite_difference_check

HEADS, QK, VD, CAP, EPS = 2, 3, 4, 15.0, 1e-12
D = 8


def mlstm_params(rng, d=D, prefix="m"):
    p = {
        f"{prefix}.norm_g": Tensor(np.ones(d), requires_grad=True),
        f"{prefix}.w_q": Tensor(rng.normal(size=(d, HEADS * QK)) * 0.3, requires_grad=True),
        f"{prefix}.w_k": Tensor(rng.normal(size=(d, HEADS * QK)) * 0.3, requires_grad=True),
        f"{prefix}.w_v": Tensor(rng.normal(size=(d, HEADS * VD)) * 0.3, requires_grad=True),
        f"{prefix}.w_i": Tensor(rng.normal(size=(d, HEADS)) * 0.2, requires_grad=True),
        f"{prefix}.b_i": Tensor(rng.normal(size=HEADS), requires_grad=True),
        f"{prefix}.w_f": Tensor(rng.normal(size=(d, HEADS)) * 0.2, requires_grad=True),
        f"{prefix}.b_f": Tensor(np.linspace(1.0, 3.0, HEADS), requires_grad=True),
        f"{prefix}.w_og": Tensor(rng.normal(size=(d, HEADS * VD)) * 0.3, requires_grad=True),
        f"{prefix}.mh_norm_g": Tensor(np.ones(HEADS * VD), requires_grad=True),
        f"{prefix}.w_out": Tensor(rng.normal(size=(HEADS * VD, d)) * 0.3, requires_grad=True),
    }
    return p


def ffn_params(rng, d=D, hidden=12, prefix="f"):
    return {
        f"{prefix}.norm_g": Tensor(np.ones(d), requires_grad=True),
        f"{prefix}.w_gate": Tensor(rng.normal(size=(d, hidden)) * 0.3, requires_grad=True),
        f"{prefix}.w_up": Tensor(rng.normal(size=(d, hidden)) * 0.3, requires_grad=True),
        f"{prefix}.w_down": Tensor(rng.normal(size=(hidden, d)) * 0.3, requires_grad=True),
    }


def attn_params(rng, d=D, heads=2, prefix="a"):
    hd = d // heads
    return {
        f"{prefix}.norm_g": Tensor(np.ones(d), requires_grad=True),
        f"{prefix}.w_q": Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
        f"{prefix}.w_k": Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
        f"{prefix}.w_v": Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
        f"{prefix}.w_o": Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
    }


def test_mlstm_parallel_matches_sequential_oracle():
    rng = np.random.default_rng(0)
    p = mlstm_params(rng)
    x = rng.normal(size=(1, 9, D))
    batch = L.mlstm_block(p, "m", Tensor(x), HEADS, QK, VD, CAP, EPS).data[0]
    state = L.empty_mlstm_state(HEADS, QK, VD, np.float64)
    seq = np.stack([L.mlstm_step(p, "m", x[0, t], state, HEADS, QK, VD, CAP, EPS) for t in range(9)])
    np.testing.assert_allclose(batch, seq, rtol=1e-10, atol=1e-12)


def test_mlstm_length_one():
    rng = np.random.default_rng(1)
    p = mlstm_params(rng)
    x = rng.normal(size=(1, 1, D))
    out = L.mlstm_block(p, "m", Tensor(x), HEADS, QK, VD, CAP, EPS)
    assert out.shape == (1, 1, D)
    # a single step is independent of (absent) history: same as running the
    # same byte after a different prefix is NOT required, but the fresh-state
    # sequential step must agree
    state = L.empty_mlstm_state(HEADS, QK, VD, np.float64)
    seq = L.mlstm_step(p, "m", x[0, 0], state, HEADS, QK, VD, CAP, EPS)
    np.testing.assert_allclose(out.data[0, 0], seq, rtol=1e-10)


def test_mlstm_causality():
    rng = np.random.default_rng(2)
    p = mlstm_params(rng)
    x = rng.normal(size=(1, 8, D))
    base = L.mlstm_block(p, "m", Tensor(x), HEADS, QK, VD, CAP, EPS).data
    for t in [3, 6]:
        pert = x.copy()
        pert[0, t] += rng.normal(size=D)
        out = L.mlstm_block(p, "m", Tensor(pert), HEADS, QK, VD, CAP, EPS).data
        np.testing.assert_allclose(out[0, :t], base[0, :t], atol=1e-12)
        assert not np.allclose(out[0, t:], base[0, t:])


def test_mlstm_gradient_check():
    rng = np.random.default_rng(3)
    p = mlstm_params(rng, d=6)
    weights = Tensor(rng.normal(size=(1, 5, 6)))

    def loss(x):
        out = L.mlstm_block(p, "m", x, HEADS, QK, VD, CAP, EPS)
        return (out * weights).sum()

    # weights too: route a couple through the check
    err_x = finite_difference_check(loss, [rng.normal(size=(1, 5, 6))])
    assert err_x < 1e-4

    x_fixed = Tensor(rng.normal(size=(1, 5, 6)))

    def loss_w(wq, bi, wf):
        p2 = dict(p)
        p2["m.w_q"], p2["m.b_i"], p2["m.w_f"] = wq, bi, wf
        out = L.mlstm_block(p2, "m", x_fixed, HEADS, QK, VD, CAP, EPS)
        return (out * weights).sum()

    err_w = finite_difference_check(
        loss_w, [p["m.w_q"].data, p["m.b_i"].data, p["m.w_f"].data]
    )
    assert err_w < 1e-4


def test_mlstm_long_context_stability():
    # gate cumsums reach large magnitudes on long inputs; the stabilizer must
    # keep everything finite
    rng = np.random.default_rng(4)
    p = mlstm_params(rng)
    x = rng.normal(size=(1, 300, D))
    out = L.mlstm_block(p, "m", Tensor(x), HEADS, QK, VD, CAP, EPS)
    assert np.all(np.isfinite(out.data))


def test_ffn_gradient_check():
    rng = np.random.default_rng(5)
    p = ffn_params(rng, d=6, hidden=9)
    weights = Tensor(rng.normal(size=(1, 4, 6)))

    def loss(x, wg):
        p2 = dict(p)
        p2["f.w_gate"] = wg
        return (L.ffn_block(p2, "f", x, EPS) * weights).sum()

    err = finite_difference_check(loss, [rng.normal(size=(1, 4, 6)), p["f.w_gate"].data])
    assert err < 1e-4


def test_attention_causality_and_gradient():
    rng = np.random.default_rng(6)
    p = attn_params(rng, d=8, heads=2)
    x = rng.normal(size=(1, 6, 8))
    base = L.attention_block(p, "a", Tensor(x), 2, 4, 10000.0, EPS).data
    pert = x.copy()
    pert[0, 4] += 1.0
    out = L.attention_block(p, "a", Tensor(pert), 2, 4, 10000.0, EPS).data
    np.testing.assert_allclose(out[0, :4], base[0, :4], atol=1e-12)

    weights = Tensor(rng.normal(size=(1, 4, 8)))

    def loss(xx, wq):
        p2 = dict(p)
        p2["a.w_q"] = wq
        return (L.attention_block(p2, "a", xx, 2, 4, 10000.0, EPS) * weights).sum()

    err = finite_difference_check(loss, [rng.normal(size=(1, 4, 8)), p["a.w_q"].data])
    assert err < 1e-4


def test_attention_step_matches_batch():
    rng = np.random.default_rng(7)
    p = attn_params(rng, d=8, heads=2)
    x = rng.normal(size=(1, 7, 8))
    batch = L.attention_block(p, "a", Tensor(x), 2, 4, 10000.0, EPS).data[0]
    cache = L.empty_attention_cache(2, 4, np.float64)
    seq = np.stack([L.attention_step(p, "a", x[0, t], cache, 2, 4, 10000.0, EPS) for t in range(7)])
    np.testing.assert_allclose(seq, batch, rtol=1e-10, atol=1e-12)
    assert cache["k"].shape == (2, 7, 4)


def test_gate_preactivations_respect_soft_cap():
    rng = np.random.default_rng(8)
    p = mlstm_params(rng)
    # huge inputs would blow past the cap without the soft clamp
    x = rng.normal(size=(1, 10, D)) * 50
    collect = {}
    L.mlstm_block(p, "m", Tensor(x), HEADS, QK, VD, CAP, EPS, collect=collect)
    for arr in collect["gate_preacts"]:
        assert np.all(np.abs(arr) < CAP)


def test_rope_preserves_norm_and_relative_positions():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 1, 5, 8))
    cos, sin = L.rope_tables(np.arange(5), 8, 10000.0, np.float64)
    out = T.rope(Tensor(x), cos, sin).data
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-12
    )
    # dot products depend only on relative offset
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    def rot(v, pos):
        c, s = L.rope_tables(np.array([pos]), 8, 10000.0, np.float64)
        return T.rope_np(v, c[0], s[0])
    d1 = rot(q, 3) @ rot(k, 1)
    d2 = rot(q, 7) @ rot(k, 5)
    assert d1 == pytest.approx(d2, rel=1e-10)

from dataclasses import replace

import numpy as np
import pytest

from bytepatch import model as M
from bytepatch import tensor as T
from bytepatch.model import (
    ConfigError,
    ModelConfig,
    ParamStore,
    depool,
    embed_bytes,
    forward_full,
    fused_targets,
    global_forward,
    init_byte_model,
    init_teacher,
    lm_head_fused,
    pool_indices,
    pool_last,
    predict_boundaries,
    predicted_mask,
)
from bytepatch.losses import boundary_bce, ce_fused
from bytepatch.tensor import Tensor
from gradcheck import finite_difference_check


def tiny_config(**kw) -> ModelConfig:
    base = dict(
        d=8,
        vocab_size=300,
        encoder_layers=1,
        decoder_layers=1,
        ffn_hidden=12,
        n_probe=1,
        mlstm_heads=2, mlstm_qk_dim=2, mlstm_v_dim=4,
        global_layers=2, global_heads=2, global_head_dim=4,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    teacher = init_teacher(cfg, rng)
    params = init_byte_model(cfg, rng, teacher)
    return cfg, teacher, params


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(global_layers=2, global_heads=3, global_head_dim=4)
    with pytest.raises(ConfigError):
        tiny_config(n_probe=5)
    with pytest.raises(ConfigError):  # rotary positions rotate pairs of dims
        tiny_config(d=6, global_layers=2, global_heads=2, global_head_dim=3)
    for size in ("d", "encoder_layers", "decoder_layers", "ffn_hidden", "mlstm_heads", "mlstm_qk_dim",
                 "mlstm_v_dim", "global_layers", "global_heads", "global_head_dim", "patch_cap"):
        with pytest.raises(ConfigError, match=f"{size} must be >= 1, got 0"):
            tiny_config(**{size: 0})
    cfg = tiny_config()
    round_trip = ModelConfig.from_dict(cfg.to_dict())
    assert round_trip == cfg


def test_param_store_components(setup):
    _, teacher, params = setup
    assert {params.tag(n) for n in params} == set(M.COMPONENTS)
    assert {teacher.tag(n) for n in teacher} == {"subword_embed", "global", "lm_head"}
    # the transplanted backbone is bit-identical to the teacher's
    for name, t in teacher.component("global").items():
        assert np.array_equal(params[name].data, t.data)
    # local parameter count is stable across seeds for a fixed config
    cfg = tiny_config()
    a = init_byte_model(cfg, np.random.default_rng(1))
    b = init_byte_model(cfg, np.random.default_rng(2))
    local = M.LOCAL_COMPONENTS
    assert a.n_params(local) == b.n_params(local)
    assert a.n_params(("global",)) == b.n_params(("global",))


def test_copy_owns_its_arrays_and_the_constructor_shares_them(setup):
    _, _, params = setup
    before = {n: t.data.copy() for n, t in params.items()}
    deep, shallow = params.copy(), ParamStore(params)
    for t in deep.values():
        t.data += 1.0
    assert all(np.array_equal(params[n].data, a) for n, a in before.items())
    assert all(shallow[n] is t for n, t in params.items())


def test_embed_bytes_additive(setup):
    cfg, _, params = setup
    byte_ids = np.array([[65, 66, 65]])
    sfx = np.array([[0, 10, 20]])
    e = embed_bytes(params, byte_ids, sfx).data[0]
    bt = params["byte_embed.table"].data
    st = params["subword_embed.table"].data
    np.testing.assert_allclose(e, bt[[65, 66, 65]] + st[[0, 10, 20]], atol=0)
    # zero suffix table -> byte embedding alone
    zeroed = ParamStore(params)
    zeroed["subword_embed.table"] = Tensor(np.zeros_like(st))
    e2 = embed_bytes(zeroed, byte_ids, sfx).data[0]
    np.testing.assert_allclose(e2, bt[[65, 66, 65]], atol=0)
    # same byte, different suffixes -> different embeddings
    assert not np.allclose(e[0], e[2])
    with pytest.raises(ValueError):
        embed_bytes(params, np.array([[300]]), np.array([[0]]))
    with pytest.raises(ValueError):
        embed_bytes(params, np.array([[1]]), np.array([[cfg.vocab_size]]))


def test_boundary_predictor_trivial_geometry(setup):
    cfg, _, params = setup
    p = ParamStore(params)
    eye = Tensor(np.eye(cfg.d))
    p["boundary.w_q"] = eye
    p["boundary.w_k"] = eye
    v = np.zeros(cfg.d)
    v[0] = 1.0
    w = np.zeros(cfg.d)
    w[1] = 1.0
    e_hat = Tensor(np.stack([v, v, -v, w])[None, :, :])
    scores = predict_boundaries(p, cfg, e_hat).data[0]
    assert scores[0] == pytest.approx(0.0, abs=1e-7)  # parallel
    assert scores[1] == pytest.approx(1.0, abs=1e-7)  # antiparallel
    assert scores[2] == pytest.approx(0.5, abs=1e-7)  # orthogonal
    assert scores[3] == 1.0  # forced final


def test_causal_boundary_alignment(setup):
    cfg, _, params = setup
    ccfg = tiny_config(boundary_mode="causal")
    e_hat = Tensor(np.random.default_rng(1).normal(size=(1, 5, cfg.d)))
    nc = predict_boundaries(params, cfg, e_hat).data[0]
    c = predict_boundaries(params, ccfg, e_hat).data[0]
    # same pair scores, shifted by one position; forced ends differ
    np.testing.assert_allclose(c[1:], nc[:-1], atol=0)
    assert c[0] == 1.0 and nc[-1] == 1.0
    # neither mode scores the last byte, which `predicted_mask` always flags;
    # the causal mode also leaves out its forced first byte
    positions = np.arange(5)
    assert positions[M.scored_positions(cfg)].tolist() == [0, 1, 2, 3]
    assert positions[M.scored_positions(ccfg)].tolist() == [1, 2, 3]
    np.testing.assert_allclose(c[M.scored_positions(ccfg)], nc[:-2], atol=0)


def _capped_by_scan(mask: np.ndarray, cap: int) -> np.ndarray:
    """Decoding's rule, byte by byte: a boundary bit closes the open patch,
    and so does the byte that brings it to `cap` bytes."""
    out = mask.copy()
    for row in out:
        pending = 0
        for t in range(len(row)):
            row[t] = row[t] or pending + 1 >= cap
            pending = 0 if row[t] else pending + 1
    return out


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 64])
def test_predicted_mask_closes_every_capth_byte_of_an_open_run(cap):
    rng = np.random.default_rng(cap)
    scores = rng.random((6, 40)) ** 4  # sparse boundaries, so long runs occur
    scores[0] = 0.0  # one row with no predicted boundary at all
    uncapped = scores > M.BOUNDARY_THRESHOLD
    uncapped[:, -1] = True
    got = predicted_mask(scores, cap)
    np.testing.assert_array_equal(got, _capped_by_scan(uncapped, cap))
    assert got[0].tolist() == [(t + 1) % cap == 0 or t == 39 for t in range(40)]
    np.testing.assert_array_equal(predicted_mask(scores[1], cap), got[1])  # one unbatched row
    if cap == 64:
        np.testing.assert_array_equal(got[1:], uncapped[1:])


def test_pool_last(setup):
    cfg, _, _ = setup
    rng = np.random.default_rng(2)
    e_hat = Tensor(rng.normal(size=(1, 4, cfg.d)))
    ends, valid = pool_indices(np.array([[False, True, False, True]]))
    h = pool_last(e_hat, ends).data[0]
    np.testing.assert_allclose(h, e_hat.data[0][[1, 3]], atol=0)
    ends, _ = pool_indices(np.ones((1, 4), dtype=bool))
    np.testing.assert_allclose(pool_last(e_hat, ends).data[0], e_hat.data[0], atol=0)
    ends, _ = pool_indices(np.array([[False, False, False, True]]))
    np.testing.assert_allclose(pool_last(e_hat, ends).data[0], e_hat.data[0][[3]], atol=0)
    with pytest.raises(ValueError):
        pool_indices(np.zeros((1, 3), dtype=bool))


def test_depool_rule(setup):
    cfg, _, params = setup
    rng = np.random.default_rng(3)
    p = ParamStore(params)
    p["depool_proj.w"] = Tensor(np.zeros((cfg.d, cfg.d)))  # isolate the patch term
    start = rng.normal(size=cfg.d)
    p["start_vector.v"] = Tensor(start)
    e_hat = Tensor(rng.normal(size=(1, 4, cfg.d)))
    h_hat = Tensor(rng.normal(size=(1, 2, cfg.d)))
    mask = np.array([[False, True, False, True]])
    z = depool(p, cfg, e_hat, h_hat, mask).data[0]
    # last patch end <= j: j=0 none (start vector), j=1 patch 0 ends at 1,
    # j=2 still patch 0, j=3 patch 1
    np.testing.assert_allclose(z[0], start, atol=0)
    np.testing.assert_allclose(z[1], h_hat.data[0, 0], atol=0)
    np.testing.assert_allclose(z[2], h_hat.data[0, 0], atol=0)
    np.testing.assert_allclose(z[3], h_hat.data[0, 1], atol=0)
    # all-true mask: position j uses patch j
    mask = np.ones((1, 4), dtype=bool)
    h_all = Tensor(rng.normal(size=(1, 4, cfg.d)))
    z = depool(p, cfg, e_hat, h_all, mask).data[0]
    np.testing.assert_allclose(z, h_all.data[0], atol=0)


def test_depool_with_projection(setup):
    cfg, _, params = setup
    rng = np.random.default_rng(4)
    e_hat = Tensor(rng.normal(size=(1, 3, cfg.d)))
    h_hat = Tensor(rng.normal(size=(1, 1, cfg.d)))
    mask = np.array([[False, False, True]])
    z = depool(params, cfg, e_hat, h_hat, mask).data[0]
    w = params["depool_proj.w"].data
    sv = params["start_vector.v"].data
    expected = e_hat.data[0] @ w + np.stack([sv, sv, h_hat.data[0, 0]])
    np.testing.assert_allclose(z, expected, atol=1e-15)


def test_lm_head_fused_normalization(setup):
    cfg, _, params = setup
    rng = np.random.default_rng(5)
    z_hat = Tensor(rng.normal(size=(1, 3, cfg.d)))
    lp = lm_head_fused(params, cfg, z_hat).data
    np.testing.assert_allclose(np.exp(lp).sum(axis=-1), np.ones((1, 3)), atol=1e-9)
    # zero weights -> exactly uniform over the 512 fused symbols
    p = ParamStore(params)
    p["lm_head.w"] = Tensor(np.zeros((cfg.d, M.N_FUSED)))
    lp = lm_head_fused(p, cfg, z_hat).data
    np.testing.assert_allclose(lp, np.full_like(lp, -np.log(M.N_FUSED)), atol=1e-12)
    # marginal byte probability = sum over the boundary bit
    probs = np.exp(lm_head_fused(params, cfg, z_hat).data)
    marginal = probs[..., :256] + probs[..., 256:]
    np.testing.assert_allclose(marginal.sum(axis=-1), np.ones((1, 3)), atol=1e-9)


def test_fused_symbol_bijection():
    for v in [0, 7, 255, 256, 300, 511]:
        byte, bnd = M.split_fused(v)
        assert M.fused_symbol(byte, bnd) == v
    targets = fused_targets(np.array([65, 66]), np.array([False, True]))
    assert targets.tolist() == [65, 66 + 256]


def test_global_forward_probe_and_causality(setup):
    cfg, _, params = setup
    rng = np.random.default_rng(6)
    h = rng.normal(size=(1, 5, cfg.d))
    _, probe0 = global_forward(params, replace(cfg, n_probe=0), Tensor(h))
    np.testing.assert_allclose(probe0.data, h, atol=0)
    out, probe1 = global_forward(params, cfg, Tensor(h))  # n_probe=1
    assert not np.allclose(probe1.data, h)
    pert = h.copy()
    pert[0, 3] += 1.0
    out2, _ = global_forward(params, cfg, Tensor(pert))
    np.testing.assert_allclose(out2.data[0, :3], out.data[0, :3], atol=1e-12)


def test_forward_full_shapes_and_determinism(setup):
    cfg, _, params = setup
    rng = np.random.default_rng(7)
    n = 12
    byte_ids = rng.integers(0, 256, size=(2, n))
    sfx = byte_ids.copy()  # single-byte suffixes are always valid ids
    mask = rng.random((2, n)) < 0.4
    mask[:, -1] = True
    out1 = forward_full(params, cfg, byte_ids, sfx, mask)
    out2 = forward_full(params, cfg, byte_ids, sfx, mask)
    assert out1["logprobs"].shape == (2, n, M.N_FUSED)
    assert out1["h"].shape[1] == int(mask.sum(axis=1).max())
    assert np.array_equal(out1["logprobs"].data, out2["logprobs"].data)
    # predicted-mask path
    out3 = forward_full(params, cfg, byte_ids, sfx, mask=None)
    assert out3["mask"].shape == (2, n)
    assert out3["mask"][:, -1].all()


def test_forward_full_one_byte_lookahead_causality(setup):
    """Perturbing byte t may leak into logits at t-1 through the non-causal
    boundary at t-1 when pooling on predicted boundaries, but never earlier."""
    cfg, _, params = setup
    rng = np.random.default_rng(8)
    n = 10
    byte_ids = rng.integers(0, 256, size=(1, n))
    sfx = byte_ids.copy()
    base = forward_full(params, cfg, byte_ids, sfx, mask=None)["logprobs"].data
    for t in [4, 7]:
        pert = byte_ids.copy()
        pert[0, t] = (pert[0, t] + 97) % 256
        out = forward_full(params, cfg, pert, pert.copy(), mask=None)["logprobs"].data
        np.testing.assert_allclose(out[0, : t - 1], base[0, : t - 1], atol=1e-12)


def test_forward_full_gradient_end_to_end():
    cfg = tiny_config(d=8, global_layers=1, global_heads=2, global_head_dim=4, n_probe=1)
    rng = np.random.default_rng(9)
    params = init_byte_model(cfg, rng)
    byte_ids = rng.integers(0, 256, size=(1, 6))
    sfx = byte_ids.copy()
    mask = np.array([[False, True, False, False, True, True]])
    targets = fused_targets(byte_ids[0], mask[0])[None, :]
    names = ["byte_embed.table", "encoder.0.mlstm.w_v", "decoder.0.ffn.w_gate", "lm_head.w"]

    def loss(*tensors):
        p = ParamStore(params)
        for nm, tt in zip(names, tensors):
            p[nm] = tt
        out = forward_full(p, cfg, byte_ids, sfx, mask)
        lp = out["logprobs"]
        return -T.pick(lp[:, :-1, :], targets[:, 1:]).mean() + out["p"].mean()

    err = finite_difference_check(loss, [params[nm].data for nm in names], max_coords=60)
    assert err < 1e-4


@pytest.mark.parametrize("n", [12, 301, 512])
def test_float32_forward_and_backward_stay_float32(setup, n):
    """The whole model on a float32 copy of its parameters, under the engine's
    dtype guard: at 301 B the mLSTM's last chunk is padded, at 512 it is not,
    and four chunks carry state across. The log-probs and every parameter's
    gradient track the float64 pass's under the same pooling."""
    cfg, _, params = setup
    rng = np.random.default_rng(n)
    byte_ids = rng.integers(0, 256, size=(2 if n < 100 else 1, n))
    sfx = byte_ids.copy()
    p64 = ParamStore({name: Tensor(t.data, requires_grad=True) for name, t in params.items()})
    p32 = ParamStore({name: Tensor(t.data.astype(np.float32), requires_grad=True) for name, t in params.items()})
    ref = forward_full(p64, cfg, byte_ids, sfx)
    out = forward_full(p32, cfg, byte_ids, sfx, ref["mask"])
    assert out["logprobs"].dtype == np.float32
    np.testing.assert_allclose(out["logprobs"].data, ref["logprobs"].data, rtol=0, atol=1e-4)
    targets = fused_targets(byte_ids[:, 1:], ref["mask"][:, 1:])
    for o in (ref, out):
        (ce_fused(o["logprobs"], targets) + boundary_bce(o["p"], ref["mask"])).backward()
    assert {name: t.grad.dtype for name, t in p32.items()} == {name: np.float32 for name in p32}
    # relative to the float64 gradient's norm, so an exactly zero one must stay zero
    for name, t in p32.items():
        g64 = p64[name].grad
        assert np.linalg.norm(t.grad - g64) <= 1e-3 * np.linalg.norm(g64), name

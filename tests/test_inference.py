import itertools

import numpy as np
import pytest

from bytepatch import layers as L
from bytepatch.data import EOT
from bytepatch.inference import DecodeState, InferenceError, SamplerConfig, decode_step, generate, prefill, sample
from bytepatch.model import (
    BOUNDARY_THRESHOLD,
    ModelConfig,
    ParamStore,
    forward_full,
    fused_symbol,
    fused_targets,
    init_byte_model,
    layer_plan,
    split_fused,
    transformer_probe,
)
from bytepatch.tensor import Tensor
from bytepatch.tokenizer import SubwordVocab, SuffixIndex, longest_suffix_token, suffix_ids


def tiny_cfg(**kw):
    base = dict(
        d=16, vocab_size=258, encoder_layers=1, decoder_layers=2, ffn_hidden=24,
        n_probe=1, mlstm_heads=2, mlstm_qk_dim=4, mlstm_v_dim=8,
        global_layers=2, global_heads=2, global_head_dim=8,
    )
    base.update(kw)
    return ModelConfig(**base)


def _tiny_model(cfg):
    rng = np.random.default_rng(0)
    params = init_byte_model(cfg, rng)
    # suffix table: identity vocabulary plus one merge so lookups vary
    token_bytes = [bytes([i]) for i in range(256)] + [b"ab"]
    vocab = SubwordVocab(token_bytes, [(97, 98)])
    sidx = SuffixIndex(vocab)
    # make boundary scores non-degenerate
    params["boundary.w_q"].data *= 30
    params["boundary.w_k"].data *= 30
    return cfg, params, sidx


@pytest.fixture(scope="module")
def setup():
    return _tiny_model(tiny_cfg())


@pytest.fixture(scope="module")
def deep():
    """Several layers in each local stack, and no probe split of the backbone."""
    return _tiny_model(tiny_cfg(encoder_layers=2, decoder_layers=3, n_probe=0))


def test_prefill_matches_batch_forward(setup, deep):
    rng = np.random.default_rng(1)
    for (cfg, params, sidx), trial in itertools.product((setup, deep), range(5)):
        prompt = bytes(rng.integers(32, 127, size=rng.integers(4, 20)).tolist())
        state, logprobs, mask = prefill(params, cfg, sidx, prompt)
        out = forward_full(params, cfg,
                           np.frombuffer(prompt, dtype=np.uint8).astype(np.int64)[None, :],
                           suffix_ids(sidx, prompt)[None, :], mask[None, :])
        np.testing.assert_allclose(logprobs, out["logprobs"].data[0, -1], atol=1e-9)
        # prefill's own mask equals the batch predictor's thresholded scores
        # except the forced final position
        batch_mask = out["p"].data[0][:-1] > BOUNDARY_THRESHOLD
        np.testing.assert_array_equal(mask[:-1], batch_mask)


def test_single_byte_prompt_single_patch(setup):
    cfg, params, sidx = setup
    state, _, mask = prefill(params, cfg, sidx, b"A")
    assert mask.tolist() == [True]
    assert state.n_global_calls == 1


def test_decode_state_holds_the_suffix_of_all_consumed_bytes(setup):
    cfg, params, _ = setup
    # "abc" reaches three bytes back, so the state must carry that context
    vocab = SubwordVocab([bytes([i]) for i in range(256)] + [b"ab", b"abc"], [(97, 98), (256, 99)])
    sidx = SuffixIndex(vocab)
    rng = np.random.default_rng(4)
    consumed = bytearray(rng.integers(97, 100, size=30).tolist())
    state, _, _ = prefill(params, cfg, sidx, bytes(consumed))
    sampler = SamplerConfig(temperature=0.0)
    for step in range(31):
        if step:
            byte = int(rng.integers(97, 100))
            decode_step(params, cfg, state, sidx, sampler, forced_symbol=fused_symbol(byte, rng.random() < 0.3))
            consumed.append(byte)
        want = longest_suffix_token(sidx, bytes(consumed), len(consumed) - 1)
        assert sidx.longest[state.suffix_state] == suffix_ids(sidx, bytes(consumed))[-1] == want


def test_empty_prompt_rejected(setup):
    cfg, params, sidx = setup
    with pytest.raises(InferenceError):
        prefill(params, cfg, sidx, b"")


def test_incremental_equals_batch_on_forced_continuations(setup, deep):
    """Criterion-8 style: prefill + forced symbols must reproduce the batch
    forward logits at every generated position within 1e-6."""
    rng = np.random.default_rng(2)
    sampler = SamplerConfig(temperature=0.0)
    for (cfg, params, sidx), trial in itertools.product((setup, deep), range(5)):
        prompt = bytes(rng.integers(32, 127, size=rng.integers(3, 10)).tolist())
        n_gen = int(rng.integers(3, 12))
        forced = [
            int(rng.integers(32, 127)) + 256 * int(rng.random() < 0.3) for _ in range(n_gen)
        ]
        state, logprobs, mask = prefill(params, cfg, sidx, prompt)
        inc_logprobs = [logprobs]
        for sym in forced:
            decode_step(params, cfg, state, sidx, sampler, forced_symbol=sym)
            inc_logprobs.append(state.last_logprobs)
        full = prompt + bytes(s % 256 for s in forced)
        full_mask = np.concatenate([mask, np.array([s >= 256 for s in forced])])
        out = forward_full(
            params, cfg,
            np.frombuffer(full, dtype=np.uint8).astype(np.int64)[None, :],
            suffix_ids(sidx, full)[None, :],
            full_mask[None, :],
        )
        batch = out["logprobs"].data[0]
        for j, lp in enumerate(inc_logprobs):
            np.testing.assert_allclose(lp, batch[len(prompt) - 1 + j], atol=1e-6)


def test_global_invocations_equal_boundary_bits(setup):
    cfg, params, sidx = setup
    sampler = SamplerConfig(temperature=0.0)
    state, _, mask = prefill(params, cfg, sidx, b"hello world")
    base_calls = state.n_global_calls
    assert base_calls == int(mask.sum())
    forced = [ord("a"), ord("b") + 256, ord("c"), ord("d") + 256]
    for sym in forced:
        decode_step(params, cfg, state, sidx, sampler, forced_symbol=sym)
    assert state.n_global_calls - base_calls == 2
    caches = [state.layers[prefix] for prefix, kind in layer_plan(cfg, "global") if kind == "attn"]
    assert [c["pos"] for c in caches] == [state.n_global_calls] * cfg.global_layers
    caches[-1]["pos"] += 1  # a cache out of step with the closed patches is refused
    with pytest.raises(InferenceError):
        state.check()


def test_runners_call_the_layers_in_plan_order(monkeypatch):
    """The block and step runners reach the six `layers` functions through
    the module's attributes at call time, with each layer's plan prefix as
    the second positional argument, in plan order."""
    cfg, params, sidx = _tiny_model(tiny_cfg(encoder_layers=2, decoder_layers=3, global_layers=3, n_probe=2))
    calls = []
    for name in ("mlstm_block", "attention_block", "ffn_block", "mlstm_step", "attention_step", "ffn_step"):
        def record(*args, _name=name, _fn=getattr(L, name), **kw):
            calls.append((_name, args[1]))
            return _fn(*args, **kw)
        monkeypatch.setattr(L, name, record)
    fn = {"mlstm": "mlstm", "attn": "attention", "ffn": "ffn"}

    def planned(form, stack):
        return [(f"{fn[kind]}_{form}", prefix) for prefix, kind in layer_plan(cfg, stack)]

    prompt = b"hello world"
    forward_full(params, cfg, np.frombuffer(prompt, dtype=np.uint8).astype(np.int64)[None, :],
                 suffix_ids(sidx, prompt)[None, :])
    assert calls == planned("block", "encoder") + planned("block", "global") + planned("block", "decoder")
    calls.clear()
    transformer_probe(params, cfg, Tensor(np.zeros((1, 3, cfg.d))))
    assert calls == planned("block", "global")[: 2 * cfg.n_probe]
    calls.clear()
    state, _, mask = prefill(params, cfg, sidx, prompt)
    enc, glob, dec = (planned("step", stack) for stack in ("encoder", "global", "decoder"))
    assert calls == enc * len(prompt) + [c for closes in mask for c in (glob if closes else []) + dec]
    calls.clear()
    decode_step(params, cfg, state, sidx, SamplerConfig(temperature=0.0), forced_symbol=fused_symbol(33, True))
    assert calls == enc + glob + dec


def test_patch_cap_forces_boundary(setup):
    cfg_capped = tiny_cfg(patch_cap=4)
    _, params, sidx = setup
    sampler = SamplerConfig(temperature=0.0)
    state, _, _ = prefill(params, cfg_capped, sidx, b"x")
    before = state.n_global_calls
    for _ in range(8):  # force non-boundary symbols only
        decode_step(params, cfg_capped, state, sidx, sampler, forced_symbol=ord("a"))
    # every 4th byte closes a patch despite no sampled boundary bits
    assert state.n_global_calls - before == 2
    assert state.pending < 4
    # prefill closes capped patches too: a zero query projection scores every
    # pair 0.5, which is not above the threshold, so no interior boundary is
    # predicted and only the cap and the forced final byte close patches
    nopred = ParamStore(params)
    nopred["boundary.w_q"] = Tensor(np.zeros_like(params["boundary.w_q"].data))
    prompt = b"abcdefghij"
    state, logprobs, mask = prefill(nopred, cfg_capped, sidx, prompt)
    assert mask.tolist() == [False, False, False, True] * 2 + [False, True]
    assert state.n_global_calls == int(mask.sum())
    out = forward_full(nopred, cfg_capped,
                       np.frombuffer(prompt, dtype=np.uint8).astype(np.int64)[None, :],
                       suffix_ids(sidx, prompt)[None, :], mask[None, :])
    np.testing.assert_allclose(logprobs, out["logprobs"].data[0, -1], atol=1e-9)


def test_forward_full_pools_on_prefills_capped_mask(setup):
    # a zeroed query projection predicts no interior boundary, so only the
    # cap and the forced final byte close patches, in both paths
    cfg_capped = tiny_cfg(patch_cap=4)
    _, params, sidx = setup
    nopred = ParamStore(params)
    nopred["boundary.w_q"] = Tensor(np.zeros_like(params["boundary.w_q"].data))
    nopred["depool_proj.w"] = Tensor(np.random.default_rng(6).normal(size=params["depool_proj.w"].shape))
    prompt = b"abcdefghij"
    _, logprobs, mask = prefill(nopred, cfg_capped, sidx, prompt)
    out = forward_full(nopred, cfg_capped,
                       np.frombuffer(prompt, dtype=np.uint8).astype(np.int64)[None, :],
                       suffix_ids(sidx, prompt)[None, :], mask=None)
    np.testing.assert_array_equal(out["mask"][0], mask)
    np.testing.assert_allclose(logprobs, out["logprobs"].data[0, -1], atol=1e-9)


def test_sample_temperature_zero_is_argmax():
    rng = np.random.default_rng(3)
    logprobs = np.log(np.random.default_rng(0).dirichlet(np.ones(32)))
    assert sample(logprobs, SamplerConfig(temperature=0.0), rng) == int(np.argmax(logprobs))


def test_sample_top_p_limit_is_argmax():
    rng = np.random.default_rng(4)
    logprobs = np.log(np.random.default_rng(1).dirichlet(np.ones(32)))
    got = {sample(logprobs, SamplerConfig(temperature=1.0, top_p=1e-9), rng) for _ in range(20)}
    assert got == {int(np.argmax(logprobs))}


def test_sample_full_nucleus_matches_distribution_chi2():
    # top_p=1, temperature=1: exact categorical sampling; chi-square over 10k
    # draws against the true distribution (32 cells, all expected counts > 5)
    probs = np.random.default_rng(2).dirichlet(np.full(32, 10.0))
    logprobs = np.log(probs)
    rng = np.random.default_rng(5)
    scfg = SamplerConfig(temperature=1.0, top_p=1.0)
    n = 10000
    counts = np.zeros(32)
    for _ in range(n):
        counts[sample(logprobs, scfg, rng)] += 1
    expected = probs * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square critical value, 31 dof, alpha = 0.001
    assert chi2 < 61.1


def test_sample_validation():
    for temperature in (-1.0, float("nan"), float("inf")):  # NaN fails in rng.choice, inf samples uniformly
        with pytest.raises(InferenceError, match="temperature"):
            SamplerConfig(temperature=temperature)
    with pytest.raises(InferenceError):
        SamplerConfig(top_p=0.0)
    with pytest.raises(InferenceError):
        SamplerConfig(top_p=1.5)


def test_generate_zero_budget_and_determinism(setup):
    cfg, params, sidx = setup
    assert generate(params, cfg, sidx, b"abc", 0, SamplerConfig()) == b""
    g1 = generate(params, cfg, sidx, b"abc", 24, SamplerConfig(temperature=0.0))
    g2 = generate(params, cfg, sidx, b"abc", 24, SamplerConfig(temperature=0.0))
    assert g1 == g2
    s1 = generate(params, cfg, sidx, b"abc", 24, SamplerConfig(temperature=1.0, top_p=0.9, seed=7))
    s2 = generate(params, cfg, sidx, b"abc", 24, SamplerConfig(temperature=1.0, top_p=0.9, seed=7))
    assert s1 == s2


def test_generate_stops_at_eot(setup):
    cfg, params, sidx = setup
    # bias the head so the EOT fused symbol dominates immediately
    params2 = params.copy()
    params2["lm_head.w"].data[:, :] = 0.0
    params2["lm_head.w"].data[:, EOT] = 50.0
    out = generate(params2, cfg, sidx, b"abc", 50, SamplerConfig(temperature=0.0))
    assert out == b""


import numpy as np
import pytest

from bytepatch.data import EOT
from bytepatch.inference import DecodeState, InferenceError, SamplerConfig, decode_step, generate, prefill, sample
from bytepatch.model import (
    GlobalConfig,
    MlstmConfig,
    ModelConfig,
    forward_full,
    fused_targets,
    init_byte_model,
    split_fused,
)
from bytepatch.tokenizer import SubwordVocab, SuffixIndex


def tiny_cfg(**kw):
    base = dict(
        d=16, vocab_size=258, encoder_layers=1, decoder_layers=2, ffn_hidden=24,
        n_probe=1, mlstm=MlstmConfig(heads=2, qk_dim=4, v_dim=8),
        global_model=GlobalConfig(layers=2, heads=2, head_dim=8),
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_cfg()
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


def _suffix_ids_for(sidx, data: bytes) -> np.ndarray:
    from bytepatch.tokenizer import suffix_ids

    return suffix_ids(sidx, data)


def test_prefill_matches_batch_forward(setup):
    cfg, params, sidx = setup
    rng = np.random.default_rng(1)
    for trial in range(5):
        prompt = bytes(rng.integers(32, 127, size=rng.integers(4, 20)).tolist())
        state, logprobs, mask = prefill(params, cfg, sidx, prompt)
        out = forward_full(params, cfg,
                           np.frombuffer(prompt, dtype=np.uint8).astype(np.int64)[None, :],
                           _suffix_ids_for(sidx, prompt)[None, :], mask[None, :])
        np.testing.assert_allclose(logprobs, out["logprobs"].data[0, -1], atol=1e-9)
        # prefill's own mask equals the batch predictor's thresholded scores
        # except the forced final position
        batch_mask = out["p"].data[0][:-1] > cfg.boundary_threshold
        np.testing.assert_array_equal(mask[:-1], batch_mask)


def test_single_byte_prompt_single_patch(setup):
    cfg, params, sidx = setup
    state, _, mask = prefill(params, cfg, sidx, b"A")
    assert mask.tolist() == [True]
    assert state.n_global_calls == 1


def test_history_keeps_only_the_suffix_window(setup):
    cfg, params, sidx = setup
    prompt = bytes(np.random.default_rng(4).integers(97, 100, size=512).tolist())
    state, _, _ = prefill(params, cfg, sidx, prompt)
    assert len(state.history) <= sidx.max_len
    assert bytes(state.history) == prompt[-sidx.max_len:]


def test_empty_prompt_rejected(setup):
    cfg, params, sidx = setup
    with pytest.raises(InferenceError):
        prefill(params, cfg, sidx, b"")


def test_incremental_equals_batch_on_forced_continuations(setup):
    """Criterion-8 style: prefill + forced symbols must reproduce the batch
    forward logits at every generated position within 1e-6."""
    cfg, params, sidx = setup
    rng = np.random.default_rng(2)
    sampler = SamplerConfig(temperature=0.0)
    for trial in range(5):
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
            _suffix_ids_for(sidx, full)[None, :],
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
    assert state.kv[0]["pos"] == state.n_global_calls
    state.kv[0]["pos"] += 1  # a cache out of step with the closed patches is refused
    with pytest.raises(InferenceError):
        state.check()


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
    # prefill closes capped patches too: a threshold of 1 predicts no interior
    # boundary, so only the cap and the forced final byte close patches
    cfg_nopred = tiny_cfg(patch_cap=4, boundary_threshold=1.0)
    prompt = b"abcdefghij"
    state, logprobs, mask = prefill(params, cfg_nopred, sidx, prompt)
    ends = np.flatnonzero(mask)
    assert np.diff(np.concatenate([[-1], ends])).max() <= 4
    assert state.n_global_calls == int(mask.sum())
    out = forward_full(params, cfg_nopred,
                       np.frombuffer(prompt, dtype=np.uint8).astype(np.int64)[None, :],
                       _suffix_ids_for(sidx, prompt)[None, :], mask[None, :])
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
    with pytest.raises(InferenceError):
        SamplerConfig(temperature=-1.0)
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


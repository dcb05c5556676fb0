import numpy as np
import pytest

from bytepatch.merging import (
    MergeError,
    format_spectrum,
    reset_embeddings_check,
    spectrum_report,
    task_arithmetic_merge,
    weight_delta,
)
from bytepatch.model import (
    ModelConfig,
    ParamStore,
    init_byte_model,
    init_teacher,
)
from bytepatch.tensor import Tensor
from bytepatch.tokenizer import train_bpe


def cfg_small():
    return ModelConfig(
        d=8, vocab_size=280, encoder_layers=1, decoder_layers=1, ffn_hidden=12,
        n_probe=1, mlstm_heads=2, mlstm_qk_dim=2, mlstm_v_dim=4,
        global_layers=2, global_heads=2, global_head_dim=4,
    )


@pytest.fixture(scope="module")
def stores():
    cfg = cfg_small()
    base = init_teacher(cfg, np.random.default_rng(0))
    post = base.copy()
    rng = np.random.default_rng(1)
    for name, t in post.component("global").items():
        t.data += rng.normal(size=t.shape) * 0.01
    for name, t in post.component("subword_embed").items():
        t.data += rng.normal(size=t.shape) * 0.01
    byte_model = init_byte_model(cfg, np.random.default_rng(2), base)
    return cfg, base, post, byte_model


def test_zero_delta_is_bit_exact_identity(stores):
    cfg, base, _, byte_model = stores
    merged = task_arithmetic_merge(byte_model, base, base)
    for name, t in byte_model.items():
        assert np.array_equal(merged[name].data, t.data)


def test_merge_lands_on_posttrained_backbone(stores):
    cfg, base, post, byte_model = stores
    # byte model backbone == base backbone, so merged backbone == post's
    merged = task_arithmetic_merge(byte_model, base, post)
    for name, t in post.component("global").items():
        np.testing.assert_allclose(merged[name].data, t.data, atol=1e-15)


def test_merge_touches_only_backbone(stores):
    cfg, base, post, byte_model = stores
    def local_bytes(params):
        return {n: t.data.tobytes() for n, t in params.items() if params.tag(n) != "global"}

    before = local_bytes(byte_model)
    merged = task_arithmetic_merge(byte_model, base, post)
    assert local_bytes(merged) == before


def test_merge_is_invertible(stores):
    # (a + d) - d is not bit-exact in IEEE-754; the round trip is exact to
    # one ulp of the merged values, and non-backbone tensors are untouched
    cfg, base, post, byte_model = stores
    merged = task_arithmetic_merge(byte_model, base, post)
    restored = task_arithmetic_merge(merged, post, base)  # subtract the delta
    for name, t in byte_model.items():
        if restored.tag(name) == "global":
            np.testing.assert_allclose(restored[name].data, t.data, rtol=0, atol=1e-16)
        else:
            np.testing.assert_array_equal(restored[name].data, t.data)


def test_scalar_sanity():
    a = ParamStore({"global.w": Tensor(np.array([3.0]))})
    base = ParamStore({"global.w": Tensor(np.array([2.0]))})
    post = ParamStore({"global.w": Tensor(np.array([5.0]))})
    merged = task_arithmetic_merge(a, base, post)
    assert merged["global.w"].data[0] == 6.0


def test_delta_shape_mismatch_rejected(stores):
    cfg, base, post, byte_model = stores
    bad = post.copy()
    bad["global.0.attn.w_q"] = Tensor(np.zeros((3, 3)))
    with pytest.raises(MergeError):
        weight_delta(base, bad)
    bad2 = post.copy()
    bad2["global.extra"] = Tensor(np.zeros(2))
    with pytest.raises(MergeError):
        weight_delta(base, bad2)


def test_reset_embeddings_identity_ratio(stores):
    cfg, base, _, _ = stores
    docs = [b"the cat sat on the mat. the dog ran."] * 3
    vocab = train_bpe(docs, 280)
    out = reset_embeddings_check(base, base, cfg, vocab, docs)
    assert out["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_reset_embeddings_reports_for_perturbed(stores):
    cfg, base, post, _ = stores
    docs = [b"the cat sat on the mat. the dog ran."] * 3
    vocab = train_bpe(docs, 280)
    before = {(i, n): t.data.copy() for i, p in enumerate((base, post)) for n, t in p.items()}
    out = reset_embeddings_check(base, post, cfg, vocab, docs)
    # diagnostic contract: reported, finite, never asserted against a bound
    assert np.isfinite(out["ratio"]) and out["ratio"] > 0
    assert out["ce_reset"] != out["ce_posttrained"]  # post's perturbed embeddings were swapped out
    assert all(np.array_equal((base, post)[i][n].data, a) for (i, n), a in before.items())


def test_spectrum_rank_one():
    u = np.array([[1.0], [2.0], [3.0]])
    v = np.array([[2.0, 0.5, -1.0, 4.0]])
    rep = spectrum_report(u @ v)
    assert rep["ratios"][0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(rep["ratios"][1:] < 1e-12)


def test_spectrum_identity():
    rep = spectrum_report(np.eye(6))
    np.testing.assert_allclose(rep["ratios"], np.full(6, 1 / 6), atol=1e-15)


def test_spectrum_matches_gram_eigendecomposition():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(20, 8))
    rep = spectrum_report(m)
    evals = np.linalg.eigvalsh(m.T @ m)[::-1]
    evals = np.clip(evals, 0, None)
    np.testing.assert_allclose(rep["ratios"], evals / evals.sum(), atol=1e-8)


def test_spectrum_empty_rejected_and_format():
    with pytest.raises(MergeError):
        spectrum_report(np.zeros((0, 3)))
    text = format_spectrum(spectrum_report(np.eye(3)))
    lines = text.splitlines()
    assert lines[0].startswith("rank") and len(lines) == 4


def test_spectrum_all_zero_rejected():
    # no variance to explain: every ratio would be 0/0
    with pytest.raises(MergeError, match="all-zero"):
        spectrum_report(np.zeros((3, 2)))

import numpy as np
import pytest

from bytepatch import tensor as T
from bytepatch.losses import (
    CLAMP_EPS,
    TAU,
    boundary_bce,
    bits_per_byte,
    ce_fused,
    decoder_distill,
    encoder_match,
    f_temp_bce,
    patch_logprobs,
)
from bytepatch.model import ModelConfig, init_teacher, transformer_probe
from bytepatch.tensor import Tensor
from gradcheck import finite_difference_check


def test_boundary_bce_exact_match_is_clamp_floor():
    mask = np.array([[True, False, True]])
    p = Tensor(mask.astype(np.float64))
    val = boundary_bce(p, mask).item()
    assert val == pytest.approx(-np.log(1 - CLAMP_EPS), rel=1e-6)
    assert val < 1e-6


def test_boundary_bce_half_everywhere_is_n_log2():
    n = 13
    p = Tensor(np.full((1, n), 0.5))
    mask = np.zeros((1, n), dtype=bool)
    mask[0, -1] = True
    mean = boundary_bce(p, mask).item()
    assert mean * mask.size == pytest.approx(n * np.log(2), rel=1e-12)
    assert mean == pytest.approx(np.log(2), rel=1e-12)


def test_boundary_bce_matches_bruteforce():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.02, 0.98, size=(2, 9))
    mask = rng.random((2, 9)) < 0.4
    got = boundary_bce(Tensor(p), mask).item() * mask.size
    want = float(-np.sum(mask * np.log(p) + (1 - mask) * np.log(1 - p)))
    assert got == pytest.approx(want, rel=1e-12)


def test_boundary_bce_gradient():
    rng = np.random.default_rng(1)
    mask = rng.random((1, 8)) < 0.5

    def loss(scores):
        return boundary_bce(T.sigmoid(scores), mask)

    assert finite_difference_check(loss, [rng.normal(size=(1, 8))]) < 1e-4


def tiny_cfg():
    return ModelConfig(
        d=8, vocab_size=300, encoder_layers=1, decoder_layers=1, ffn_hidden=12,
        n_probe=2, mlstm_heads=2, mlstm_qk_dim=2, mlstm_v_dim=4,
        global_layers=2, global_heads=2, global_head_dim=4,
    )


def test_loss_encoder_n0_equals_direct_l2_exactly():
    cfg = tiny_cfg()
    rng = np.random.default_rng(2)
    params = init_teacher(cfg, rng)
    h = Tensor(rng.normal(size=(1, 5, cfg.d)))
    teacher = rng.normal(size=(1, 5, cfg.d))
    got = encoder_match(transformer_probe(params, cfg, h, 0), teacher, np.ones((1, 5), dtype=bool)).item()
    want = float(np.mean(np.linalg.norm(h.data - teacher, axis=-1)))
    assert got == pytest.approx(want, rel=4e-16)  # machine precision


def test_loss_encoder_identical_inputs_is_zero():
    cfg = tiny_cfg()
    rng = np.random.default_rng(3)
    params = init_teacher(cfg, rng)
    h = rng.normal(size=(1, 5, cfg.d))
    for n in [0, 1, 2]:
        probe = transformer_probe(params, cfg, Tensor(h), n)
        valid = np.ones((1, 5), dtype=bool)
        assert encoder_match(transformer_probe(params, cfg, Tensor(h), n), probe.data, valid).item() == 0.0


def test_loss_encoder_matches_bruteforce_recompute():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    params = init_teacher(cfg, rng)
    h = rng.normal(size=(2, 4, cfg.d))
    teacher_h = rng.normal(size=(2, 4, cfg.d))
    n = 2
    teacher_probe = transformer_probe(params, cfg, Tensor(teacher_h), n).data
    valid = np.ones((2, 4), dtype=bool)
    got = encoder_match(transformer_probe(params, cfg, Tensor(h), n), teacher_probe, valid).item()
    student_probe = transformer_probe(params, cfg, Tensor(h), n).data
    want = float(np.mean(np.linalg.norm(student_probe - teacher_probe, axis=-1)))
    assert got == pytest.approx(want, rel=1e-12)


def test_encoder_match_gradient():
    rng = np.random.default_rng(5)
    teacher = rng.normal(size=(1, 4, 6))

    def loss(h):
        return encoder_match(h, teacher, np.ones((1, 4), dtype=bool))

    assert finite_difference_check(loss, [rng.normal(size=(1, 4, 6))]) < 1e-4


def test_f_temp_bce_tau1_y1_is_nll_exactly():
    for lp in [-0.3, -1.0, -5.0]:
        got = f_temp_bce(Tensor(np.array(lp)), np.array(0.0), tau=1.0).item()
        assert got == -lp  # bitwise


def test_f_temp_bce_equal_inputs_is_zero_at_one():
    got = f_temp_bce(Tensor(np.array(0.0)), np.array(0.0), tau=1.0).item()
    assert got == pytest.approx(0.0, abs=1e-6)


def test_f_temp_bce_minimum_at_teacher():
    # scanning yhat, f is minimized at yhat = y (binary entropy of y^(1/tau))
    y_logp = np.log(0.35)
    tau = 5.0
    grid = np.log(np.linspace(0.01, 0.99, 197))
    vals = [f_temp_bce(Tensor(np.array(g)), np.array(y_logp), tau=tau).item() for g in grid]
    best = grid[int(np.argmin(vals))]
    assert best == pytest.approx(y_logp, abs=0.02)
    yt = np.exp(y_logp / tau)
    entropy = -(yt * np.log(yt) + (1 - yt) * np.log(1 - yt))
    assert f_temp_bce(Tensor(np.array(y_logp)), np.array(y_logp), tau=tau).item() == pytest.approx(
        entropy, rel=1e-9
    )


def test_f_temp_bce_gradient():
    rng = np.random.default_rng(6)
    teacher = -rng.exponential(size=(1, 5))

    def loss(x):
        return f_temp_bce(-T.exp(x), teacher, tau=5.0).mean()

    assert finite_difference_check(loss, [rng.normal(size=(1, 5))]) < 1e-4


def _toy_patch_setup(rng, b=1, n=9):
    logits = rng.normal(size=(b, n, 512))
    logprobs = T.log_softmax(Tensor(logits, requires_grad=True))
    targets = rng.integers(0, 512, size=(b, n - 1))
    mask = np.zeros((b, n), dtype=bool)
    mask[:, [0, 3, 5, n - 1]] = True
    ends = np.tile(np.array([[0, 3, 5, n - 1]]), (b, 1))
    valid = np.ones((b, 4), dtype=bool)
    return logprobs, targets, mask, ends, valid


def test_patch_logprobs_enumeration_oracle():
    rng = np.random.default_rng(7)
    logprobs, targets, mask, ends, valid = _toy_patch_setup(rng)
    sums, sv = patch_logprobs(logprobs, targets, ends, valid)
    lp = logprobs.data[0]
    picked = lp[np.arange(8), targets[0]]
    # patch i sums prediction positions b_{i-1} .. b_i - 1
    want = [picked[0:3].sum(), picked[3:5].sum(), picked[5:8].sum()]
    np.testing.assert_allclose(sums.data[0], want, rtol=1e-12)
    assert sv.all()


def test_decoder_distill_minimum_at_teacher_match():
    rng = np.random.default_rng(8)
    logprobs, targets, mask, ends, valid = _toy_patch_setup(rng)
    sums, _ = patch_logprobs(logprobs, targets, ends, valid)
    teacher_logp = sums.data.copy()  # student == teacher patch likelihoods
    got = decoder_distill(logprobs, targets, ends, valid, teacher_logp, np.ones_like(teacher_logp, dtype=bool))
    yt = np.exp(teacher_logp / TAU)
    entropies = -(yt * np.log(yt) + (1 - yt) * np.log1p(-yt))
    assert got.item() == pytest.approx(float(entropies.mean()), rel=1e-9)
    # any perturbation of one patch likelihood increases the loss
    worse = Tensor(logprobs.data * 1.02)
    got2 = decoder_distill(worse, targets, ends, valid, teacher_logp, np.ones_like(teacher_logp, dtype=bool))
    assert got2.item() > got.item()


def test_decoder_distill_single_byte_patches_reduces_to_nll():
    # teacher prob 1 on all-boundary masks: f = -log(yhat) / TAU per byte
    rng = np.random.default_rng(9)
    n = 6
    logprobs = T.log_softmax(Tensor(rng.normal(size=(1, n, 512))))
    targets = rng.integers(0, 512, size=(1, n - 1))
    ends = np.arange(n)[None, :]
    valid = np.ones((1, n), dtype=bool)
    teacher_logp = np.zeros((1, n - 1))
    got = decoder_distill(logprobs, targets, ends, valid, teacher_logp, np.ones((1, n - 1), dtype=bool))
    want = -logprobs.data[0, :-1][np.arange(n - 1), targets[0]].mean() / TAU
    assert got.item() == pytest.approx(float(want), rel=1e-12)


def test_decoder_distill_misalignment_asserted():
    rng = np.random.default_rng(10)
    logprobs, targets, mask, ends, valid = _toy_patch_setup(rng)
    with pytest.raises(AssertionError):
        decoder_distill(logprobs, targets, ends, valid, np.zeros((1, 3)), np.array([[True, True, False]]))


def test_decoder_distill_gradient():
    rng = np.random.default_rng(11)
    targets = rng.integers(0, 512, size=(1, 8))
    ends = np.array([[0, 3, 5, 8]])
    valid = np.ones((1, 4), dtype=bool)
    teacher_logp = -rng.exponential(size=(1, 3))

    def loss(logits):
        lp = T.log_softmax(logits)
        return decoder_distill(lp, targets, ends, valid, teacher_logp, np.ones((1, 3), dtype=bool))

    err = finite_difference_check(loss, [rng.normal(size=(1, 9, 16)).repeat(32, axis=-1)], max_coords=80)
    assert err < 1e-4


def test_ce_fused_uniform_and_onehot():
    n = 5
    uniform = np.full((1, n, 512), -np.log(512.0))
    targets = np.arange(n - 1)[None, :]
    got = ce_fused(Tensor(uniform), targets).item()
    assert got == pytest.approx(np.log(512.0), rel=1e-12)
    # one-hot correct logits -> ~0 after softmax saturation
    logits = np.zeros((1, n, 512))
    for j in range(n - 1):
        logits[0, j, targets[0, j]] = 200.0
    got = ce_fused(T.log_softmax(Tensor(logits)), targets).item()
    assert got == pytest.approx(0.0, abs=1e-12)


def test_ce_fused_matches_oracle():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(2, 7, 512))
    targets = rng.integers(0, 512, size=(2, 6))
    got = ce_fused(T.log_softmax(Tensor(logits)), targets).item()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    want = -np.mean([lp[b, j, targets[b, j]] for b in range(2) for j in range(6)])
    assert got == pytest.approx(float(want), rel=1e-12)
    assert bits_per_byte(got) == pytest.approx(got / np.log(2), rel=1e-15)


def test_ce_fused_gradient():
    rng = np.random.default_rng(13)
    targets = rng.integers(0, 24, size=(1, 4))

    def loss(logits):
        return ce_fused(T.log_softmax(logits), targets)

    assert finite_difference_check(loss, [rng.normal(size=(1, 5, 24))]) < 1e-4

import hashlib
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bytepatch import teacher as teacher_mod
from bytepatch import training as tr
from bytepatch.boundaries import MergeStrategy
from bytepatch.checkpoint import load_checkpoint, save_checkpoint
from bytepatch.cli import build_train_config, parse_config_file
from bytepatch.data import EOT, DataError, make_windows, markov_word_docs
from bytepatch.losses import LossWeights
from bytepatch.model import (
    GlobalConfig,
    LOCAL_COMPONENTS,
    MlstmConfig,
    ModelConfig,
    forward_full,
    init_byte_model,
    init_teacher,
)
from bytepatch.optim import AdamW
from bytepatch.tensor import NonFiniteError
from bytepatch.tokenizer import encode, train_bpe, utf8_to_bytes
from bytepatch.training import TrainConfig, lr_at, prepare_window, prepare_windows, train_conversion, train_teacher


def small_cfg():
    return ModelConfig(
        d=16, vocab_size=0, encoder_layers=1, decoder_layers=1, ffn_hidden=24,
        n_probe=1, mlstm=MlstmConfig(heads=2, qk_dim=4, v_dim=8),
        global_model=GlobalConfig(layers=2, heads=2, head_dim=8),
    )


@pytest.fixture(scope="module")
def toy():
    docs = [utf8_to_bytes(t) + b"\x00" for t in markov_word_docs(seed=5, n_docs=24)]
    vocab = train_bpe(docs, 330)
    cfg = small_cfg()
    cfg.vocab_size = vocab.size
    teacher = init_teacher(cfg, np.random.default_rng(0))
    return docs, vocab, cfg, teacher


def test_lr_at_examples():
    tc = TrainConfig(stage=1, steps=1000, warmup_steps=100, peak_lr=2e-3)
    assert lr_at(tc, 0) == {"local": 0.0, "global": 0.0}
    assert lr_at(tc, 100)["local"] == pytest.approx(2e-3)
    assert lr_at(tc, 1000)["local"] == 0.0
    assert lr_at(tc, 550)["local"] == pytest.approx(2e-3 * 0.5)
    with pytest.raises(ValueError):
        lr_at(tc, -1)


def test_stage2_lr_ratio_default():
    tc = TrainConfig(stage=2, steps=10, peak_lr=1e-3)
    lrs = lr_at(tc, tc.warmup_steps or 1)
    assert lrs["global"] == pytest.approx(5e-4)
    assert lrs["local"] == pytest.approx(2 * lrs["global"])
    # the halving follows a peak_lr set by a config file (toy.cfg: 1.5e-3)
    toy = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"
    tc = build_train_config(parse_config_file(str(toy)), stage=2, args=SimpleNamespace(seed=0))
    assert lr_at(tc, tc.warmup_steps)["global"] == pytest.approx(7.5e-4)


def test_prepare_window_alignment(toy):
    docs, vocab, cfg, teacher = toy
    content = docs[0][:60]
    w = prepare_window(content, vocab, cfg, teacher, MergeStrategy("subword"))
    # BOS pseudo-patch plus one patch per teacher token
    assert w.model_bytes[0] == EOT
    assert len(w.model_bytes) == len(content) + 1
    assert w.mask[0] and w.mask[-1]
    assert int(w.mask.sum()) == len(w.teacher.token_ids)
    assert len(w.teacher.next_logp) == len(w.teacher.token_ids) - 1
    # suffix ids are always valid vocabulary tokens
    assert w.suffix.min() >= 0 and w.suffix.max() < len(vocab.token_bytes)


def test_supervision_strategies_are_subsets(toy):
    docs, vocab, cfg, teacher = toy
    content = docs[1][:80]
    base = prepare_window(content, vocab, cfg, teacher, MergeStrategy("subword"))
    for kind in ("bpe", "entropy", "xent"):
        strat = MergeStrategy(kind, target_compression=8.0)
        w = prepare_window(content, vocab, cfg, teacher, strat)
        assert not np.any(w.mask & ~base.mask)
        assert w.mask[-1]
        assert w.mask.sum() <= base.mask.sum()
        assert len(content) / (w.mask.sum() - 1) >= 8.0 or w.mask.sum() <= 2


def test_stage1_freezes_global_bit_exact(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    tc = TrainConfig(stage=1, steps=6, batch_size=2, max_bytes=48, peak_lr=2e-3, seed=3)
    before = {
        n: hashlib.sha256(t.data.tobytes()).hexdigest()
        for n, t in student.component("global").items()
    }
    local_before = {
        n: hashlib.sha256(t.data.tobytes()).hexdigest()
        for n, t in student.items() if student.tag(n) != "global"
    }
    train_conversion(student, cfg, vocab, teacher, docs[:8], tc)
    after = {
        n: hashlib.sha256(t.data.tobytes()).hexdigest()
        for n, t in student.component("global").items()
    }
    local_after = {
        n: hashlib.sha256(t.data.tobytes()).hexdigest()
        for n, t in student.items() if student.tag(n) != "global"
    }
    assert before == after  # frozen backbone, bit-identical
    assert any(local_before[n] != local_after[n] for n in local_before)  # others moved


def test_stage1_leaves_no_gradient_on_frozen_tensors(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=3)
    local = [t for n, t in student.items() if student.tag(n) in LOCAL_COMPONENTS]
    local_before = [t.data.copy() for t in local]
    train_conversion(student, cfg, vocab, teacher, docs[:8], tc)
    assert [n for n, t in student.items() if t.grad is not None] == []
    assert any(not np.array_equal(b, t.data) for b, t in zip(local_before, local))


def test_parameters_are_plain_values_outside_the_step_loop(toy, tmp_path):
    docs, vocab, cfg, _ = toy
    w = prepare_window(docs[0][:40], vocab, cfg, None, MergeStrategy("subword"))
    token_ids = np.array([vocab.bos_id, *encode(vocab, docs[0][:40])])

    def assert_plain(student, teacher):
        for params in (student, teacher, student.copy()):
            assert [n for n, t in params.items() if t.requires_grad] == []
        logprobs = forward_full(student, cfg, w.model_bytes[None, :], w.suffix[None, :])["logprobs"]
        logits = teacher_mod.teacher_logits(teacher, cfg, token_ids)[0]
        for out in (logprobs, logits):
            assert out._vjps == () and not out.requires_grad

    teacher = init_teacher(cfg, np.random.default_rng(0))
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    assert_plain(student, teacher)
    save_checkpoint(tmp_path / "s.ckpt", student, cfg)
    save_checkpoint(tmp_path / "t.ckpt", teacher, cfg, kind="teacher")
    assert_plain(load_checkpoint(tmp_path / "s.ckpt")[0], load_checkpoint(tmp_path / "t.ckpt")[0])

    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=3)
    train_teacher(teacher, cfg, vocab, docs[:4], tc)
    train_conversion(student, cfg, vocab, teacher, docs[:4], tc)
    assert_plain(student, teacher)
    assert [n for n, t in student.component("global").items() if t.grad is not None] == []
    train_conversion(student, cfg, vocab, None, docs[:4], replace(tc, stage=2))
    assert_plain(student, teacher)


def test_a_raising_step_still_clears_every_flag(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    student["lm_head.w"].data[0, 0] = np.inf  # the first stage-2 forward turns non-finite
    tc = TrainConfig(stage=2, steps=2, batch_size=2, max_bytes=48, seed=3)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        train_conversion(student, cfg, vocab, None, docs[:4], tc)
    assert [n for n, t in student.items() if t.requires_grad] == []


def test_a_step_raising_after_backward_leaves_no_gradient(toy, monkeypatch):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)

    def failing_step(opt):
        assert any(p.grad is not None for p in opt.params())
        raise NonFiniteError("optimizer step failed")

    monkeypatch.setattr(AdamW, "step", failing_step)
    tc = TrainConfig(stage=2, steps=2, batch_size=2, max_bytes=48, seed=3)
    with pytest.raises(NonFiniteError):
        train_conversion(student, cfg, vocab, None, docs[:4], tc)
    assert [n for n, t in student.items() if t.requires_grad or t.grad is not None] == []


def test_evaluation_without_a_scorable_document_raises(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    with pytest.raises(ValueError, match="2 bytes"):
        tr.evaluate_bpb(student, cfg, vocab, docs[:2], max_doc_bytes=1)
    with pytest.raises(ValueError, match="2 bytes"):
        tr.evaluate_alignment(student, cfg, vocab, teacher, [b"a", b""])


def test_stage1_loss_decreases_smoke(toy):
    docs, vocab, cfg, teacher = toy
    # a lightly trained teacher makes the distillation target coherent
    ttc = TrainConfig(stage=1, steps=60, batch_size=8, max_bytes=48, peak_lr=3e-3, seed=0)
    train_teacher(teacher, cfg, vocab, docs, ttc)
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    tc = TrainConfig(stage=1, steps=50, batch_size=4, max_bytes=48, peak_lr=2e-3, seed=3)
    log = train_conversion(student, cfg, vocab, teacher, docs, tc)
    first = np.mean([r["total"] for r in log.records[:8]])
    last = np.mean([r["total"] for r in log.records[-8:]])
    assert np.isfinite([r["total"] for r in log.records]).all()
    assert last < first


def test_stage1_weights_zero_except_ce_reduces_to_ce(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(2), teacher)
    tc = TrainConfig(stage=1, steps=2, batch_size=2, max_bytes=48, seed=4,
                     loss_weights=LossWeights(boundary=0, encoder=0, distill=0, ce=1))
    log = train_conversion(student, cfg, vocab, teacher, docs[:6], tc)
    for r in log.records:
        assert r["total"] == pytest.approx(r["l_ce"], rel=1e-12)


def test_stage2_trains_all_groups(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(3), teacher)
    tc = TrainConfig(stage=2, steps=6, batch_size=2, max_bytes=48, peak_lr=1e-3, seed=5,
                     merge_kind="bpe", target_compression=6.0)
    before = hashlib.sha256(student["global.0.attn.w_q"].data.tobytes()).hexdigest()
    log = train_conversion(student, cfg, vocab, None, docs[:8], tc)
    after = hashlib.sha256(student["global.0.attn.w_q"].data.tobytes()).hexdigest()
    assert before != after
    assert all(np.isfinite(r["total"]) for r in log.records)
    assert all(r["l_distill"] == 0.0 and r["l_encoder"] == 0.0 for r in log.records)


def test_stage2_oracle_pooling_equals_full_stack_lm(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(4), teacher)
    tc = TrainConfig(stage=2, steps=3, batch_size=2, max_bytes=48, seed=6,
                     use_oracle_pooling=True,
                     loss_weights=LossWeights(boundary=0, encoder=0, distill=0, ce=1))
    log = train_conversion(student, cfg, vocab, None, docs[:6], tc)
    for r in log.records:
        assert r["total"] == pytest.approx(r["l_ce"], rel=1e-12)


def test_training_is_deterministic_per_seed(toy):
    docs, vocab, cfg, teacher = toy
    records = []
    for _ in range(2):
        student = init_byte_model(cfg, np.random.default_rng(7), teacher)
        tc = TrainConfig(stage=1, steps=5, batch_size=2, max_bytes=48, peak_lr=1e-3, seed=11)
        log = train_conversion(student, cfg, vocab, teacher, docs[:8], tc)
        records.append(log.records)
    assert records[0] == records[1]  # bit-identical metrics


def test_entropy_supervision_needs_teacher(toy):
    docs, vocab, cfg, _ = toy
    tc = TrainConfig(stage=2, steps=1, batch_size=2, max_bytes=48, seed=0,
                     merge_kind="entropy", target_compression=6.0)
    with pytest.raises(ValueError):
        prepare_windows(docs[:4], vocab, cfg, tc, None)


def test_stage2_scored_windows_keep_masks_not_teacher(toy):
    docs, vocab, cfg, teacher = toy
    tc = TrainConfig(stage=2, steps=1, batch_size=2, max_bytes=48, seed=0,
                     merge_kind="entropy", target_compression=6.0)
    windows = prepare_windows(docs[:4], vocab, cfg, tc, teacher)
    strategy = MergeStrategy("entropy", 6.0)
    for w in windows:
        assert w.teacher is None
        content = w.model_bytes[1:].astype(np.uint8).tobytes()
        ref = prepare_window(content, vocab, cfg, teacher, strategy)
        assert np.array_equal(w.mask, ref.mask)


def test_stage1_supervises_subword_ends_whatever_the_merge_keys(toy):
    docs, vocab, cfg, teacher = toy
    # stage 1 ignores the stage-2 merge keys, even ones stage 2 would reject
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=0,
                     merge_kind="bpe", target_compression=0.0)
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    log = train_conversion(student, cfg, vocab, teacher, docs[:4], tc)
    assert len(log.records) == 1 and np.isfinite(log.records[0]["total"])
    assert tc.strategy() == MergeStrategy("subword")
    windows = prepare_windows(docs[:4], vocab, cfg, tc, teacher)
    for w in windows:
        assert int(w.mask.sum()) == len(w.teacher.token_ids)  # BOS + one end per token


def test_stage1_windows_encode_each_window_once(toy, monkeypatch):
    docs, vocab, cfg, teacher = toy
    seen = []

    def counting_encode(v, data):
        seen.append(data)
        return encode(v, data)

    # every module that imported `encode` counts, whichever calls it
    for name, module in list(sys.modules.items()):
        if name.startswith("bytepatch.") and getattr(module, "encode", None) is encode:
            monkeypatch.setattr(module, "encode", counting_encode)
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=0)
    windows = prepare_windows(docs[:4], vocab, cfg, tc, teacher)
    assert seen == make_windows(docs[:4], tc.max_bytes - 1)
    assert len(seen) == len(windows)


def test_stage1_windows_equal_a_prepare_window_loop(toy):
    docs, vocab, cfg, teacher = toy
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=0)
    windows = prepare_windows(docs[:6], vocab, cfg, tc, teacher)
    chunks = make_windows(docs[:6], tc.max_bytes - 1)
    assert len(windows) == len(chunks)
    for w, chunk in zip(windows, chunks):
        ref = prepare_window(chunk, vocab, cfg, teacher, MergeStrategy("subword"))
        assert np.array_equal(w.model_bytes, ref.model_bytes)
        assert np.array_equal(w.mask, ref.mask)
        assert np.array_equal(w.suffix, ref.suffix)
        assert np.array_equal(w.teacher.token_ids, ref.teacher.token_ids)
        np.testing.assert_allclose(w.teacher.next_logp, ref.teacher.next_logp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.teacher.z, ref.teacher.z, rtol=0, atol=1e-6)


def test_stage1_windows_batch_the_teacher(toy, monkeypatch):
    docs, vocab, cfg, teacher = toy
    rows = []
    teacher_logits = teacher_mod.teacher_logits

    def counting_logits(params, cfg, token_ids):
        rows.append(len(token_ids))
        return teacher_logits(params, cfg, token_ids)

    monkeypatch.setattr(teacher_mod, "teacher_logits", counting_logits)
    monkeypatch.setattr(teacher_mod, "BATCH_ROWS", 4)
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=0)
    windows = prepare_windows(docs[:8], vocab, cfg, tc, teacher)
    groups = np.unique([len(encode(vocab, c)) for c in make_windows(docs[:8], tc.max_bytes - 1)],
                       return_counts=True)[1]
    # one forward per (token-count group, at most 4 rows), not one per window
    assert len(rows) == sum(-(-g // 4) for g in groups) < len(windows)
    assert sum(rows) == len(windows) and max(rows) <= 4


def test_window_sampler_short_bucket_draws_each_window_once():
    windows = [np.arange(5) + i for i in range(3)]
    sampler = tr.WindowSampler(windows, batch_size=8, seed=0)
    for _ in range(200):
        batch = sampler.draw()
        assert len(batch) == 3
        assert len({int(w[0]) for w in batch}) == 3


def test_make_windows_bounds():
    docs = [b"a" * 100, b"b" * 30, b"c" * 10]
    wins = make_windows(docs, 40)
    assert all(16 <= len(w) <= 40 for w in wins)
    assert sum(1 for w in wins if w[0:1] == b"a") == 3  # 40+40+20
    with pytest.raises(DataError, match="below the 16-byte minimum"):
        make_windows(docs, 15)

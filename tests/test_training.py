import hashlib
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bytepatch import teacher as teacher_mod
from bytepatch import training as tr
from bytepatch.boundaries import MergeStrategy, attained_compression
from bytepatch.checkpoint import load_checkpoint, save_checkpoint
from bytepatch.cli import build_train_config, parse_config_file
from bytepatch.data import EOT, DataError, make_windows, markov_word_docs
from bytepatch.model import (
    LOCAL_COMPONENTS,
    ModelConfig,
    ParamStore,
    forward_full,
    fused_targets,
    init_byte_model,
    init_teacher,
    scored_positions,
)
from bytepatch.losses import ce_fused
from bytepatch.optim import AdamW
from bytepatch.tensor import NonFiniteError, Tensor
from bytepatch.tokenizer import encode, train_bpe, utf8_to_bytes
from bytepatch.training import TrainConfig, lr_at, prepare_window, prepare_windows, train_conversion, train_teacher


def small_cfg():
    return ModelConfig(
        d=16, vocab_size=0, encoder_layers=1, decoder_layers=1, ffn_hidden=24,
        n_probe=1, mlstm_heads=2, mlstm_qk_dim=4, mlstm_v_dim=8,
        global_layers=2, global_heads=2, global_head_dim=8,
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


def test_parameter_insertion_order_changes_no_result(toy, tmp_path):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    tc = TrainConfig(stage=1, steps=2, batch_size=2, max_bytes=48, seed=3)
    runs = []
    for i, order in enumerate((list, lambda items: list(items)[::-1])):
        s, t = (ParamStore(order(p.copy().items())) for p in (student, teacher))
        records = [train_conversion(s, cfg, vocab, t, docs[:4], tc).records,
                   train_teacher(t, cfg, vocab, docs[:4], tc).records]
        save_checkpoint(tmp_path / f"{i}.ckpt", s, cfg)
        runs.append((list(s), records, (tmp_path / f"{i}.ckpt").read_bytes()))
    (names, *same), (reversed_names, *same_reversed) = runs
    assert names == reversed_names[::-1] != reversed_names
    assert same == same_reversed


def test_parameters_are_plain_values_outside_the_step_loop(toy, tmp_path):
    docs, vocab, cfg, _ = toy
    w = prepare_window(docs[0][:40], vocab, cfg, None, MergeStrategy("subword"))
    token_ids = np.array([vocab.bos_id, *encode(vocab, docs[0][:40])])

    def assert_plain(student, teacher):
        for params in (student, teacher, student.copy()):
            assert [n for n, t in params.items() if t.requires_grad] == []
            assert {t.dtype for t in params.values()} == {np.dtype(np.float64)}
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
    assert_at_rest(student)


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
    assert_at_rest(student)


def test_a_raising_step_leaves_the_last_completed_update(toy, monkeypatch):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    one_step = student.copy()
    tc = TrainConfig(stage=2, steps=1, batch_size=2, max_bytes=48, seed=3)
    train_conversion(one_step, cfg, vocab, None, docs[:4], tc)
    step = AdamW.step

    def second_step_fails(opt):
        if opt.step_count == 1:
            raise NonFiniteError("optimizer step failed")
        return step(opt)

    monkeypatch.setattr(AdamW, "step", second_step_fails)
    with pytest.raises(NonFiniteError):
        train_conversion(student, cfg, vocab, None, docs[:4], replace(tc, steps=2))
    assert_at_rest(student)
    assert all(np.array_equal(t.data, one_step[n].data) for n, t in student.items())


def assert_at_rest(params):
    """Float64 plain values: no gradient and outside the graph."""
    assert {t.dtype for t in params.values()} == {np.dtype(np.float64)}
    assert [n for n, t in params.items() if t.requires_grad or t.grad is not None] == []


def one_step(step, params, cfg, tc, trained, batch) -> dict:
    """`step` on the store itself with an AdamW at learning rate 0, so the
    values stay; on a float64 store, the reference the float32 steps track."""
    opt = AdamW({"all": [params[n] for n in trained]})
    for p in opt.params():
        p.requires_grad = True
    try:
        return step(params, cfg, tc, opt, batch)
    finally:
        for p in opt.params():
            p.requires_grad = False
            p.grad = None


@pytest.mark.parametrize("stage", [1, 2])
def test_float32_conversion_steps_track_the_float64_step(toy, stage):
    docs, vocab, cfg, teacher = toy
    scorer = teacher if stage == 1 else None
    reference = init_byte_model(cfg, np.random.default_rng(1), teacher)
    p32 = ParamStore({n: Tensor(t.data.astype(np.float32)) for n, t in reference.items()})
    tc = TrainConfig(stage=stage, steps=1, batch_size=2, max_bytes=48, seed=3)
    batch = tr.WindowSampler(prepare_windows(docs[:4], vocab, cfg, tc, scorer), tc.batch_size, tc.seed).draw()
    trained = [n for n in reference if stage == 2 or reference.tag(n) in LOCAL_COMPONENTS]
    step = tr.stage1_step if stage == 1 else tr.stage2_step
    got, ref = (one_step(step, params, cfg, tc, trained, batch) for params in (p32, reference))
    assert got["total"] == pytest.approx(ref["total"], rel=1e-5)
    assert got["grad_norm"] == pytest.approx(ref["grad_norm"], rel=1e-4)


def test_float32_teacher_step_tracks_the_float64_step(toy):
    docs, vocab, cfg, teacher = toy
    reference = teacher.copy()
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=3)
    log = train_teacher(teacher.copy(), cfg, vocab, docs[:4], tc)
    rows = [np.array([vocab.bos_id, *encode(vocab, c)]) for c in make_windows(docs[:4], tc.max_bytes - 1)]
    batch = tr.WindowSampler(rows, tc.batch_size, tc.seed).draw()
    ref = one_step(tr.teacher_step, reference, cfg, tc, list(reference), batch)
    assert log.records[0]["total"] == pytest.approx(ref["total"], rel=1e-5)
    assert log.records[0]["grad_norm"] == pytest.approx(ref["grad_norm"], rel=1e-4)


def test_steps_run_on_copies_of_float64_masters(toy, monkeypatch):
    """Stage-1, stage-2 and teacher steps all compute on float32 copies."""
    docs, vocab, cfg, teacher = toy
    student, teacher = init_byte_model(cfg, np.random.default_rng(1), teacher), teacher.copy()
    caller = {id(t) for params in (student, teacher) for t in params.values()}
    step = AdamW.step
    checked = []

    def checking_step(opt):
        norm = step(opt)
        masters = [m for ms in opt.masters.values() for m in ms]
        assert {id(m) for m in masters} <= caller and not {id(p) for p in opt.params()} & caller
        (dtype,) = {p.dtype for p in opt.params()}
        assert {a.dtype for a in [*masters, *opt.m.values(), *opt.v.values()]} == {np.dtype(np.float64)}
        # after the update, every copy holds its master's value in an array of its own
        assert all(np.array_equal(p.data, m.data.astype(dtype)) for p, m in zip(opt.params(), masters))
        assert not any(np.shares_memory(p.data, m.data) for p, m in zip(opt.params(), masters))
        checked.append((opt.step_count, dtype))
        return norm

    monkeypatch.setattr(AdamW, "step", checking_step)
    tc = TrainConfig(stage=1, steps=2, batch_size=2, max_bytes=48, seed=3)
    train_conversion(student, cfg, vocab, teacher, docs[:4], tc)
    train_conversion(student, cfg, vocab, None, docs[:4], replace(tc, stage=2))
    train_teacher(teacher, cfg, vocab, docs[:4], tc)
    assert checked == [(step, np.dtype(np.float32)) for step in (1, 2) * 3]
    assert_at_rest(student)
    assert_at_rest(teacher)


def test_float32_stage1_step_gives_float32_gradients(toy):
    """Probe, encoder-match and distillation terms included, every gradient
    of a float32 store is float32 under the engine's dtype guard."""
    docs, vocab, cfg, teacher = toy
    assert cfg.n_probe > 0
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    p32 = ParamStore({n: Tensor(t.data.astype(np.float32), requires_grad=True) for n, t in student.items()})
    tc = TrainConfig(stage=1, steps=1, batch_size=2, max_bytes=48, seed=3)
    batch = prepare_windows(docs[:4], vocab, cfg, tc, teacher)[:2]
    metrics = tr.stage1_step(p32, cfg, tc, AdamW({"all": list(p32.values())}), batch)
    assert metrics["l_encoder"] > 0 and metrics["l_distill"] > 0
    grads = {n: t.grad for n, t in p32.items() if t.grad is not None}
    # stage 1 reaches the backbone only through the probed layers
    assert {n for n in p32 if n.startswith("global.0.")} <= set(grads)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


def test_evaluation_without_a_scorable_document_raises(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    with pytest.raises(ValueError, match="2 bytes"):
        tr.evaluate_bpb(student, cfg, vocab, docs[:2], max_doc_bytes=1)
    with pytest.raises(ValueError, match="2 bytes"):
        tr.evaluate_alignment(student, cfg, vocab, teacher, [b"a", b""])


def test_step_metrics_count_capped_boundaries():
    cfg = replace(small_cfg(), patch_cap=4)
    p_scores = np.zeros((1, 10))  # no predicted boundary: the cap and the last byte close patches
    capped = np.array([[False, False, False, True] * 2 + [False, True]])
    m = tr._step_metrics(p_scores, capped, cfg, grad_norm=1.0)
    assert m["boundary_acc"] == 1.0
    assert m["compression"] == 3.0  # 9 content bytes, 3 boundaries


def test_evaluation_counts_capped_boundaries(toy):
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    student["boundary.w_q"].data[:] = 0.0  # scores every pair 0.5: no boundary is predicted
    long_docs = [d for d in docs if len(d) > 64][:3]
    uncapped = tr.evaluate_bpb(student, cfg, vocab, long_docs)
    capped_cfg = replace(cfg, patch_cap=4)
    capped = tr.evaluate_bpb(student, capped_cfg, vocab, long_docs)
    assert uncapped["attained_compression"] > 16
    # the BOS byte opens each document's first patch, and its last patch may be short
    assert 3 < capped["attained_compression"] <= 4
    assert capped["boundary_acc"] != uncapped["boundary_acc"]


def test_evaluation_and_training_leave_the_callers_stores_untouched(toy, monkeypatch):
    """Forward-only passes and steps compute on copies of their own: the
    stores passed in come back float64, outside the graph and without
    gradients, and only training's masters change."""
    docs, vocab, cfg, teacher = toy
    student, teacher = init_byte_model(cfg, np.random.default_rng(1), teacher), teacher.copy()
    caller = [t.data for params in (student, teacher) for t in params.values()]
    before = [a.copy() for a in caller]
    copies = []
    compute_copy = tr.compute_copy

    def recording_copy(params):
        copies.append(compute_copy(params))
        return copies[-1]

    monkeypatch.setattr(tr, "compute_copy", recording_copy)
    tr.evaluate_bpb(student, cfg, vocab, docs[:3], MergeStrategy("entropy", 3.0), teacher)
    tr.evaluate_alignment(student, cfg, vocab, teacher, docs[:3])
    assert len(copies) == 4  # model and scorer, model and teacher
    assert all(np.array_equal(a, b) for a, b in zip(caller, before, strict=True))
    train_conversion(student, cfg, vocab, teacher, docs[:4], TrainConfig(stage=1, steps=1, batch_size=2,
                                                                       max_bytes=48, seed=3))
    assert len(copies) == 6  # the teacher's for its windows, and the step loop's
    assert all(np.array_equal(t.data, b) for t, b in zip(teacher.values(), before[len(student):], strict=True))
    assert_at_rest(student)
    assert_at_rest(teacher)
    for copy in copies:
        assert {t.dtype for t in copy.values()} == {np.dtype(tr.COMPUTE_DTYPE)}
        assert not any(np.shares_memory(t.data, a) for t in copy.values() for a in caller)


def test_float32_evaluation_tracks_its_float64_oracle(toy):
    """`evaluate_bpb` computes on a float32 copy; the reference is the float64
    store's own `forward_full` and `ce_fused` over the same windows."""
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(1), teacher)
    real = scored_positions(cfg)
    ce = n = correct = scored = 0
    masks = []
    for doc in docs[:6]:
        w = prepare_window(doc[:512], vocab, cfg, None, MergeStrategy("subword"))
        out = forward_full(student, cfg, w.model_bytes[None, :], w.suffix[None, :])
        assert out["logprobs"].dtype == np.float64
        k = len(w.model_bytes) - 1
        ce += ce_fused(out["logprobs"], fused_targets(w.model_bytes[1:], w.mask[1:])[None, :]).item() * k
        n += k
        pred = out["mask"][0]
        correct += int((pred[real] == w.mask[real]).sum())
        scored += pred[real].size
        masks.append(pred[1:])
    got = tr.evaluate_bpb(student, cfg, vocab, docs[:6])
    assert got["n_positions"] == n
    assert got["ce_nats"] == pytest.approx(ce / n, rel=1e-5)
    assert got["boundary_acc"] == correct / scored
    assert got["attained_compression"] == attained_compression(masks)


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


@pytest.mark.parametrize("stage", [1, 2])
def test_total_is_the_weighted_sum_of_the_logged_terms(toy, stage):
    """Recomputed in float32 in the step's order, the sum is exact; stage 2
    logs its absent terms as 0, which leave a float32 sum unchanged."""
    docs, vocab, cfg, teacher = toy
    student = init_byte_model(cfg, np.random.default_rng(2), teacher)
    tc = TrainConfig(stage=stage, steps=3, batch_size=2, max_bytes=48, seed=4)
    log = train_conversion(student, cfg, vocab, teacher, docs[:6], tc)
    f = np.float32
    for r in log.records:
        want = f(tr.BOUNDARY_WEIGHT) * f(r["l_boundary"]) + f(r["l_encoder"]) + f(r["l_distill"]) + f(r["l_ce"])
        assert float(want) == r["total"]
    assert (log.records[0]["l_encoder"] > 0) == (stage == 1)


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

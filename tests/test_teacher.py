import numpy as np
import pytest

from bytepatch import tensor as T
from bytepatch.model import ModelConfig, init_teacher
from bytepatch import teacher as teacher_mod
from bytepatch.teacher import run_teacher, run_teachers, teacher_logits, teacher_nll
from bytepatch.tokenizer import encode, train_bpe
from bytepatch.training import compute_copy


@pytest.fixture(scope="module")
def setup():
    docs = [b"the cat sat on the mat. the dog sat on the log." for _ in range(3)]
    vocab = train_bpe(docs, 300)
    cfg = ModelConfig(
        d=16, vocab_size=vocab.size, encoder_layers=1, decoder_layers=1, ffn_hidden=24,
        n_probe=1, mlstm_heads=2, mlstm_qk_dim=4, mlstm_v_dim=8,
        global_layers=2, global_heads=2, global_head_dim=8,
    )
    params = init_teacher(cfg, np.random.default_rng(0))
    return docs, vocab, cfg, params


def test_teacher_logits_shapes(setup):
    docs, vocab, cfg, params = setup
    ids = np.array([vocab.bos_id] + encode(vocab, docs[0]), dtype=np.int64)
    logits, probe, z = teacher_logits(params, cfg, ids[None, :])
    m = len(ids)
    assert logits.shape == (1, m, vocab.size)
    assert probe.shape == z.shape == (1, m, cfg.d)


def test_teacher_nll_matches_manual(setup):
    docs, vocab, cfg, params = setup
    ids = np.array([vocab.bos_id] + encode(vocab, docs[0]), dtype=np.int64)
    nll = teacher_nll(params, cfg, ids[None, :]).item()
    logits, _, _ = teacher_logits(params, cfg, ids[None, :])
    lp = T.log_softmax(logits).data[0]
    manual = -np.mean([lp[i, ids[i + 1]] for i in range(len(ids) - 1)])
    assert nll == pytest.approx(float(manual), rel=1e-12)


def test_run_teacher_consistency(setup):
    docs, vocab, cfg, params = setup
    out = run_teacher(params, cfg, vocab, encode(vocab, docs[0]))
    m = len(out.token_ids) - 1
    assert out.token_ids[0] == vocab.bos_id
    assert out.next_logp.shape == (m,)
    assert np.all(out.next_logp <= 0)
    # entropy of a distribution upper-bounds nothing here, but must be
    # non-negative and at most log(vocab)
    assert np.all(out.entropy >= 0)
    assert np.all(out.entropy <= np.log(vocab.size) + 1e-9)
    # the mean negated log-likelihood (the xent score) agrees with the
    # training loss on the same row
    nll = teacher_nll(params, cfg, out.token_ids[None, :]).item()
    assert nll == pytest.approx(float(-out.next_logp.mean()), rel=1e-6)



@pytest.mark.parametrize("batch_rows", [2, teacher_mod.BATCH_ROWS])
def test_run_teachers_matches_run_teacher(setup, monkeypatch, batch_rows):
    docs, vocab, cfg, params = setup
    monkeypatch.setattr(teacher_mod, "BATCH_ROWS", batch_rows)  # 2: groups split
    texts = [docs[0][a:b] for a, b in [(0, 20), (5, 40), (0, 20), (3, 9), (10, 30), (0, 20), (1, 2), (5, 40)]]
    id_lists = [encode(vocab, t) for t in texts]
    assert len({len(ids) for ids in id_lists}) < len(id_lists)  # some rows share a group
    batched = run_teachers(params, cfg, vocab, id_lists)
    assert len(batched) == len(id_lists)
    for ids, got in zip(id_lists, batched):
        want = run_teacher(params, cfg, vocab, ids)
        assert np.array_equal(got.token_ids, [vocab.bos_id, *ids])
        assert np.array_equal(got.token_ids, want.token_ids)
        for name in ("next_logp", "entropy"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)
        for name in ("probe", "z"):
            assert getattr(got, name).dtype == np.float32
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-6)
    assert run_teachers(params, cfg, vocab, []) == []


def test_run_teachers_on_a_float32_copy_tracks_float64(setup):
    """Training and evaluation run the teacher on its compute copy; every
    output stays within 1e-5 of the float64 store's."""
    docs, vocab, cfg, params = setup
    id_lists = [encode(vocab, docs[0][:k]) for k in (7, 20, len(docs[0]))]
    ref = run_teachers(params, cfg, vocab, id_lists)
    got = run_teachers(compute_copy(params), cfg, vocab, id_lists)
    for g, r in zip(got, ref, strict=True):
        assert np.array_equal(g.token_ids, r.token_ids)
        for field in ("next_logp", "entropy", "probe", "z"):
            assert getattr(g, field).dtype == np.float32
            np.testing.assert_allclose(getattr(g, field), getattr(r, field), rtol=0, atol=1e-5)

import numpy as np
import pytest

from bytepatch import tensor as T
from bytepatch.model import GlobalConfig, MlstmConfig, ModelConfig, init_teacher
from bytepatch.teacher import run_teacher, teacher_logits, teacher_nll
from bytepatch.tokenizer import encode, train_bpe


@pytest.fixture(scope="module")
def setup():
    docs = [b"the cat sat on the mat. the dog sat on the log." for _ in range(3)]
    vocab = train_bpe(docs, 300)
    cfg = ModelConfig(
        d=16, vocab_size=vocab.size, encoder_layers=1, decoder_layers=1, ffn_hidden=24,
        n_probe=1, mlstm=MlstmConfig(heads=2, qk_dim=4, v_dim=8),
        global_model=GlobalConfig(layers=2, heads=2, head_dim=8),
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
    np.testing.assert_allclose(out.xent, -out.next_logp, atol=0)
    # entropy of a distribution upper-bounds nothing here, but must be
    # non-negative and at most log(vocab)
    assert np.all(out.entropy >= 0)
    assert np.all(out.entropy <= np.log(vocab.size) + 1e-9)
    # mean xent agrees with the training loss on the same row
    nll = teacher_nll(params, cfg, out.token_ids[None, :]).item()
    assert nll == pytest.approx(float(out.xent.mean()), rel=1e-6)


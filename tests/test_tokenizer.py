from collections.abc import Callable

import numpy as np
import pytest

from bytepatch import cli
from bytepatch import tokenizer as tok
from bytepatch.cli import EXIT_CONFIG
from bytepatch.data import markov_word_docs
from bytepatch.tokenizer import (
    SubwordVocab,
    SuffixIndex,
    TokenizerError,
    longest_suffix_token,
    subword_boundary_mask,
    train_bpe,
    utf8_to_bytes,
)


def test_utf8_ascii():
    assert list(utf8_to_bytes("A")) == [65]


def test_utf8_multibyte():
    assert list(utf8_to_bytes("é")) == [195, 169]


def test_utf8_empty_rejected():
    with pytest.raises(TokenizerError):
        utf8_to_bytes("")


def _train_bpe_by_recount(corpus: list[bytes], vocab_size: int) -> SubwordVocab:
    """Oracle for `train_bpe`: recount every adjacent pair of every document
    before each merge, take the most frequent with ties on (lower left id,
    then lower right id), replace it everywhere with `apply_merge`."""
    n_merges = vocab_size - 256 - 1
    seqs = [list(doc) for doc in corpus if len(doc) > 0]
    token_bytes = [bytes([i]) for i in range(256)]
    merges: list[tuple[int, int]] = []
    truncated = False
    for _ in range(n_merges):
        counts: dict[tuple[int, int], int] = {}
        for seq in seqs:
            for pair in zip(seq, seq[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            truncated = True
            break
        pair, freq = min(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        if freq < 2:
            truncated = True
            break
        new_id = len(token_bytes)
        token_bytes.append(token_bytes[pair[0]] + token_bytes[pair[1]])
        merges.append(pair)
        seqs = [tok.apply_merge(seq, pair, new_id) for seq in seqs]
    return SubwordVocab(token_bytes, merges, truncated=truncated)


def _assert_trains_like_recount(corpus: list[bytes], vocab_size: int) -> SubwordVocab:
    vocab, want = train_bpe(corpus, vocab_size), _train_bpe_by_recount(corpus, vocab_size)
    assert (vocab.merges, vocab.token_bytes, vocab.truncated) == (want.merges, want.token_bytes, want.truncated), corpus
    return vocab


def test_train_bpe_aaab():
    # adjacent-pair counting gives (a,a)=2, (a,b)=1 -> merge "aa"
    vocab = _assert_trains_like_recount([b"aaab"], 258)
    assert vocab.merges == [(ord("a"), ord("a"))]
    assert vocab.token_bytes[256] == b"aa"


def test_train_bpe_abab():
    vocab = _assert_trains_like_recount([b"abab"], 258)
    assert vocab.token_bytes[256] == b"ab"


def test_train_bpe_matches_recount_on_random_corpora():
    # 1-4 letter alphabets, long single-letter runs whose pairs overlap,
    # empty documents, and sizes past what the corpus supports (truncation)
    rng = np.random.default_rng(13)
    truncated = 0
    for _ in range(400):
        top = int(rng.integers(97, 101))
        corpus = []
        for _ in range(int(rng.integers(1, 8))):
            r = rng.random()
            if r < 0.15:
                corpus.append(b"")
            elif r < 0.35:
                corpus.append(bytes([top]) * int(rng.integers(1, 40)))
            else:
                corpus.append(bytes(rng.integers(97, top + 1, size=rng.integers(1, 50)).tolist()))
        if not any(corpus):
            corpus.append(b"aaaa")
        truncated += _assert_trains_like_recount(corpus, int(rng.integers(257, 330))).truncated
    assert 0 < truncated < 400


def test_train_bpe_matches_recount_on_toy_text():
    docs = [d.encode() for d in markov_word_docs(seed=4, n_docs=100)]
    vocab = _assert_trains_like_recount(docs, 420)
    assert not vocab.truncated and vocab.size == 420


def test_train_bpe_pairs_stop_at_document_ends():
    # "ab" spans the join of the two documents and must not be counted there
    vocab = _assert_trains_like_recount([b"xa", b"bx", b"ba", b"ba"], 258)
    assert vocab.merges == [(ord("b"), ord("a"))]


def test_train_bpe_minimum_size_is_identity():
    # smallest legal vocabulary: 256 bytes + BOS, no merges
    vocab = train_bpe([b"hello world"], 257)
    assert vocab.merges == []
    assert len(vocab.token_bytes) == 256
    with pytest.raises(TokenizerError):
        train_bpe([b"hello"], 256)


def test_train_bpe_truncates_on_small_corpus():
    vocab = _assert_trains_like_recount([b"ab"], 400)
    assert vocab.truncated
    assert vocab.size < 400
    # after "aa" no document has a pair left at all
    assert _assert_trains_like_recount([b"aa", b"aa"], 400).merges == [(ord("a"), ord("a"))]


def test_encode_single_merge():
    vocab = train_bpe([b"abab"], 258)
    assert tok.encode(vocab, b"ab") == [256]
    assert tok.encode(vocab, b"ba") == [ord("b"), ord("a")]


def decode(vocab: SubwordVocab, ids: list[int]) -> bytes:
    """The bytes that token ids spell, BOS dropped."""
    return b"".join(vocab.token_bytes[i] for i in ids if i != vocab.bos_id)


def test_encode_decode_roundtrip_random():
    rng = np.random.default_rng(7)
    corpus = [bytes(rng.integers(97, 105, size=rng.integers(5, 60)).tolist()) for _ in range(50)]
    vocab = train_bpe(corpus, 300)
    for _ in range(1000):
        data = bytes(rng.integers(0, 256, size=rng.integers(1, 40)).tolist())
        assert decode(vocab, tok.encode(vocab, data)) == data


def _encode_by_rescan(vocab: SubwordVocab, data: bytes) -> list[int]:
    """Oracle for `encode`: rescan the whole sequence for its lowest-rank
    pair, replace that pair everywhere left to right, repeat."""
    ids = list(data)
    ranks = vocab._ranks
    while len(ids) >= 2:
        best_rank = None
        best_pair = None
        for pair in zip(ids, ids[1:]):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = pair
        if best_pair is None:
            break
        ids = tok.apply_merge(ids, best_pair, 256 + best_rank)
    return ids


def test_encode_matches_rescan_oracle_on_random_vocabularies():
    rng = np.random.default_rng(5)
    for _ in range(300):
        top = int(rng.integers(98, 102))  # alphabet a..top, 2 to 5 letters

        def text(n):
            return bytes(rng.integers(97, top + 1, size=n).tolist())

        vocab = train_bpe([text(rng.integers(4, 40)) for _ in range(8)], int(rng.integers(258, 330)))
        inputs = [b"", b"a", b"aaaa", b"a" * int(rng.integers(5, 30)), b"ab" * 9 + b"a"]
        inputs += [text(rng.integers(1, 60)) for _ in range(15)]
        for data in inputs:
            assert tok.encode(vocab, data) == _encode_by_rescan(vocab, data), (vocab.merges, data)


def test_encode_matches_rescan_oracle_on_toy_text():
    docs = [d.encode() for d in markov_word_docs(seed=2, n_docs=40)]
    vocab = train_bpe(docs[:30], 420)
    for doc in docs[30:]:
        for data in (doc[:88], doc[:512]):
            assert tok.encode(vocab, data) == _encode_by_rescan(vocab, data)


def test_boundary_mask_ab_ab():
    vocab = train_bpe([b"ab ab ab"], 259)
    ids = tok.encode(vocab, b"ab ab")
    assert [vocab.token_bytes[i] for i in ids] == [b"ab", b" ab"]
    mask = subword_boundary_mask(vocab, b"ab ab")
    assert mask.tolist() == [False, True, False, False, True]


def test_boundary_mask_single_token():
    vocab = train_bpe([b"aaaa aaaa"], 260)
    assert tok.encode(vocab, b"aaaa") == [257]
    mask = subword_boundary_mask(vocab, b"aaaa")
    assert mask.tolist() == [False, False, False, True]


def test_boundary_mask_popcount_equals_token_count():
    rng = np.random.default_rng(11)
    words = [b"sun", b"flower", b"bed", b"rain", b"bow"]
    corpus = [b" ".join(rng.choice(words, size=20).tolist()) for _ in range(20)]
    vocab = train_bpe(corpus, 320)
    for _ in range(30):
        data = b" ".join(rng.choice(words, size=rng.integers(1, 10)).tolist())
        ids = tok.encode(vocab, data)
        mask = subword_boundary_mask(vocab, data)
        assert int(mask.sum()) == len(ids)
        # patch byte-lengths equal token byte-lengths
        ends = np.flatnonzero(mask)
        lengths = np.diff(np.concatenate([[-1], ends]))
        assert lengths.tolist() == tok.token_lengths(vocab, ids)


def _tiny_suffix_vocab() -> SubwordVocab:
    token_bytes = [bytes([i]) for i in range(256)] + [b"ab", b"bc"]
    return SubwordVocab(token_bytes, [(ord("a"), ord("b")), (ord("b"), ord("c"))])


def test_longest_suffix_hand_cases():
    vocab = _tiny_suffix_vocab()
    index = SuffixIndex(vocab)
    x = b"abc"
    assert vocab.token_bytes[longest_suffix_token(index, x, 0)] == b"a"
    assert vocab.token_bytes[longest_suffix_token(index, x, 1)] == b"ab"
    assert vocab.token_bytes[longest_suffix_token(index, x, 2)] == b"bc"


def test_suffix_index_rejects_a_vocabulary_without_every_byte():
    token_bytes = [bytes([i]) for i in range(256) if i != ord("z")] + [b"z!"]
    with pytest.raises(TokenizerError, match="single-byte"):
        SuffixIndex(SubwordVocab(token_bytes, []))


def _brute_longest_suffix(vocab: SubwordVocab, x: bytes, i: int) -> int:
    best, best_len = -1, 0
    prefix = x[: i + 1]
    for tid, tb in enumerate(vocab.token_bytes):
        if len(tb) > best_len and prefix.endswith(tb):
            best, best_len = tid, len(tb)
    return best


def _longest_suffix_by_trie(vocab: SubwordVocab) -> Callable[[bytes, int], int]:
    """Oracle for the suffix automaton: a trie of reversed token
    byte-strings, walked from the root backwards from position i."""
    children: list[dict[int, int]] = [{}]
    token = [-1]
    for tid, tb in enumerate(vocab.token_bytes):
        node = 0
        for b in reversed(tb):
            if b not in children[node]:
                children[node][b] = len(children)
                children.append({})
                token.append(-1)
            node = children[node][b]
        token[node] = tid

    def lookup(x: bytes, i: int) -> int:
        node, best = 0, -1
        for pos in range(i, -1, -1):
            node = children[node].get(x[pos])
            if node is None:
                break
            if token[node] >= 0:
                best = token[node]
        return best

    return lookup


def test_longest_suffix_matches_bruteforce():
    rng = np.random.default_rng(3)
    corpus = [bytes(rng.integers(97, 103, size=80).tolist()) for _ in range(10)]
    vocab = train_bpe(corpus, 300)
    index = SuffixIndex(vocab)
    for _ in range(100):
        x = bytes(rng.integers(97, 103, size=rng.integers(1, 30)).tolist())
        for i in range(len(x)):
            assert longest_suffix_token(index, x, i) == _brute_longest_suffix(vocab, x, i)


def test_suffix_automaton_matches_reversed_trie():
    docs = [d.encode() for d in markov_word_docs(seed=6, n_docs=40)]
    vocab = train_bpe(docs[:30], 420)
    index, oracle = vocab.suffix_index, _longest_suffix_by_trie(vocab)
    assert vocab.suffix_index is index  # built once per vocabulary
    rng = np.random.default_rng(8)
    texts = [doc[s : s + 88] for doc in docs[30:] for s in range(0, len(doc), 88)]
    texts += [bytes(rng.integers(0, 256, size=rng.integers(1, 20)).tolist()) for _ in range(50)]
    texts += [b"".join(rng.choice(vocab.token_bytes, size=rng.integers(1, 30)).tolist()) for _ in range(150)]
    for x in texts:
        want = [oracle(x, i) for i in range(len(x))]
        assert tok.suffix_ids(index, x).tolist() == want
        assert [longest_suffix_token(index, x, i) for i in range(len(x))] == want


def test_vocab_serialization_roundtrip(tmp_path):
    vocab = train_bpe([b"the cat sat on the mat, the cat sat"], 300)
    path = tmp_path / "vocab.txt"
    tok.save_vocab(vocab, str(path))
    loaded = tok.load_vocab(str(path))
    assert loaded.token_bytes == vocab.token_bytes
    assert loaded.merges == vocab.merges
    assert loaded.bos_id == vocab.bos_id
    data = b"the cat sat"
    assert tok.encode(loaded, data) == tok.encode(vocab, data)


def test_vocab_check_rejects_bad_merge():
    token_bytes = [bytes([i]) for i in range(256)] + [b"xy"]
    vocab = SubwordVocab.__new__(SubwordVocab)
    vocab.token_bytes = token_bytes
    vocab.merges = [(0, 1)]  # claims token 256 = \x00\x01, actually b"xy"
    with pytest.raises(TokenizerError):
        vocab.check()


def test_load_vocab_rejects_swapped_byte_ids(tmp_path):
    vocab = train_bpe([b"the cat sat on the mat, the cat sat"], 300)
    path = tmp_path / "vocab.txt"
    tok.save_vocab(vocab, str(path))
    lines = path.read_text().splitlines()
    lines[97], lines[98] = lines[98], lines[97]  # ids of b"a" and b"b"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TokenizerError, match="single bytes"):
        tok.load_vocab(str(path))


def test_vocab_check_rejects_merge_of_a_later_id():
    # token 256 claims to merge token 257, which merge 0 cannot have built yet
    token_bytes = [bytes([i]) for i in range(256)] + [b"aab", b"ab"]
    vocab = SubwordVocab(token_bytes, [(ord("a"), 257), (ord("a"), ord("b"))])
    with pytest.raises(TokenizerError, match="not below 256"):
        vocab.check()


@pytest.mark.parametrize("edit", [
    lambda lines: lines.__setitem__(256, " ".join(lines[256].split()[:2])),  # merged, no ids
    lambda lines: lines.__setitem__(100, lines[100] + " 7 8"),  # a byte with a merge's ids
    lambda lines: lines.__setitem__(-1, "bos 5"),  # would make byte 0x05 the BOS
    lambda lines: lines.__setitem__(-1, "bos 999"),  # past the vocabulary
    lambda lines: lines.__setitem__(-1, "bos"),
    lambda lines: lines.pop(),  # no bos line
    lambda lines: lines.append(lines[0]),  # a token after the bos line
    lambda lines: lines.__setitem__(65, "4g -1"),  # not hex
], ids=["merge-without-ids", "byte-with-ids", "bos-a-byte", "bos-past-vocab", "bos-without-id",
        "no-bos", "line-after-bos", "bad-hex"])
def test_load_vocab_rejects_malformed_files(tmp_path, capsys, edit):
    vocab = train_bpe([b"the cat sat on the mat, the cat sat"], 300)
    path = tmp_path / "vocab.txt"
    tok.save_vocab(vocab, str(path))
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TokenizerError):
        tok.load_vocab(str(path))
    # the vocabulary loads before the checkpoint, so the model need not exist
    assert cli.main(["generate", "--model", str(tmp_path / "none.ckpt"), "--vocab", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")

"""Byte-level ingestion and a small trainable BPE subword tokenizer.

The vocabulary always contains the 256 single bytes, then merged tokens in
rank order, then a BOS special id. Pair counting during training is plain
adjacent-pair counting; replacement is non-overlapping left-to-right, which is
the canonical BPE convention. Ties between equally frequent pairs break on
(lower left id, then lower right id) so training is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_BYTES = 256


class TokenizerError(ValueError):
    pass


def utf8_to_bytes(text: str) -> bytes:
    """Exact byte image of a text; empty input is rejected."""
    if not isinstance(text, str):
        raise TokenizerError("expected str input")
    if text == "":
        raise TokenizerError("empty text")
    return text.encode("utf-8")


@dataclass
class SubwordVocab:
    """id -> byte-string table plus the merge list that reconstructs it."""

    token_bytes: list[bytes]  # ids 0..255 are single bytes, then merges
    merges: list[tuple[int, int]]  # rank order; merge r creates id 256 + r
    bos_id: int = -1  # assigned after the merges
    truncated: bool = False  # corpus ran out of mergeable pairs

    def __post_init__(self):
        if self.bos_id < 0:
            self.bos_id = len(self.token_bytes)
        self._ranks = {pair: r for r, pair in enumerate(self.merges)}

    @property
    def size(self) -> int:
        """Total ids including BOS."""
        return len(self.token_bytes) + 1

    @property
    def n_tokens(self) -> int:
        """Ids with a byte-string (excludes BOS)."""
        return len(self.token_bytes)

    def check(self) -> None:
        seen = set()
        for i, tb in enumerate(self.token_bytes):
            if len(tb) == 0:
                raise TokenizerError(f"token {i} has empty byte-string")
            if tb in seen:
                raise TokenizerError(f"duplicate byte-string {tb!r}")
            seen.add(tb)
        for r, (a, b) in enumerate(self.merges):
            if self.token_bytes[256 + r] != self.token_bytes[a] + self.token_bytes[b]:
                raise TokenizerError(f"merge {r} does not reconstruct its token")


def apply_merge(ids: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    """Replace non-overlapping occurrences of pair left-to-right."""
    out: list[int] = []
    i = 0
    n = len(ids)
    while i < n:
        if i < n - 1 and ids[i] == pair[0] and ids[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def train_bpe(corpus: list[bytes], vocab_size: int) -> SubwordVocab:
    """Corpus-level BPE: repeatedly merge the globally most frequent adjacent
    pair until the vocabulary (256 bytes + merges + BOS) reaches vocab_size.
    Stops early with `truncated=True` when no pair occurs at least twice.
    """
    if vocab_size < N_BYTES + 1:
        raise TokenizerError(f"vocab_size must be >= {N_BYTES + 1}, got {vocab_size}")
    if not corpus or all(len(d) == 0 for d in corpus):
        raise TokenizerError("empty corpus")
    n_merges = vocab_size - N_BYTES - 1  # reserve one id for BOS
    seqs = [list(doc) for doc in corpus if len(doc) > 0]
    token_bytes = [bytes([i]) for i in range(N_BYTES)]
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
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        pair, freq = best
        if freq < 2:
            truncated = True
            break
        new_id = len(token_bytes)
        token_bytes.append(token_bytes[pair[0]] + token_bytes[pair[1]])
        merges.append(pair)
        seqs = [apply_merge(seq, pair, new_id) for seq in seqs]
    vocab = SubwordVocab(token_bytes, merges, truncated=truncated)
    vocab.check()
    return vocab


def encode(vocab: SubwordVocab, data: bytes) -> list[int]:
    """Canonical BPE encoding: apply merges greedily in rank order. Single
    bytes guarantee totality; no BOS is added here."""
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
        ids = apply_merge(ids, best_pair, 256 + best_rank)
    return ids


def decode(vocab: SubwordVocab, ids: list[int]) -> bytes:
    out = bytearray()
    for i in ids:
        if i == vocab.bos_id:
            continue
        out += vocab.token_bytes[i]
    return bytes(out)


def token_lengths(vocab: SubwordVocab, ids: list[int]) -> list[int]:
    return [len(vocab.token_bytes[i]) for i in ids]


def subword_boundary_mask(vocab: SubwordVocab, data: bytes) -> np.ndarray:
    """True at every byte that ends a token of encode(vocab, data)."""
    return mask_from_token_ids(vocab, encode(vocab, data))


def mask_from_token_ids(vocab: SubwordVocab, ids: list[int]) -> np.ndarray:
    """True at every byte that ends one of the tokens `ids` spell out."""
    mask = np.zeros(sum(token_lengths(vocab, ids)), dtype=bool)
    pos = -1
    for i in ids:
        pos += len(vocab.token_bytes[i])
        mask[pos] = True
    return mask


class SuffixIndex:
    """Trie over reversed token byte-strings for longest-suffix lookup."""

    def __init__(self, vocab: SubwordVocab):
        self.vocab = vocab
        self.max_len = max(len(tb) for tb in vocab.token_bytes)
        # children as dicts keyed by byte value; node payload = token id or -1
        self._children: list[dict[int, int]] = [{}]
        self._token: list[int] = [-1]
        for tid, tb in enumerate(vocab.token_bytes):
            node = 0
            for b in reversed(tb):
                nxt = self._children[node].get(b)
                if nxt is None:
                    nxt = len(self._children)
                    self._children.append({})
                    self._token.append(-1)
                    self._children[node][b] = nxt
                node = nxt
            self._token[node] = tid


def longest_suffix_token(index: SuffixIndex, data: bytes, i: int) -> int:
    """Id of the vocabulary token whose byte-string is the longest suffix of
    data[: i + 1]. Single-byte tokens make the result total."""
    if not 0 <= i < len(data):
        raise TokenizerError(f"position {i} out of range")
    node = 0
    best = -1
    children = index._children
    token = index._token
    pos = i
    while pos >= 0:
        nxt = children[node].get(data[pos])
        if nxt is None:
            break
        node = nxt
        if token[node] >= 0:
            best = token[node]
        pos -= 1
    assert best >= 0
    return best


def suffix_ids(index: SuffixIndex, data: bytes) -> np.ndarray:
    """Longest-suffix token id at every position of data."""
    return np.fromiter(
        (longest_suffix_token(index, data, i) for i in range(len(data))),
        dtype=np.int64,
        count=len(data),
    )


# -- serialization ------------------------------------------------------------
# One token per line: "<hex byte-string> <rank>", where rank is -1 for the 256
# base bytes and the merge rank for merged tokens; merged lines carry two extra
# columns with the left/right ids so the merge list round-trips exactly. The
# final line marks the BOS id.

def save_vocab(vocab: SubwordVocab, path: str) -> None:
    lines = []
    for i, tb in enumerate(vocab.token_bytes):
        if i < N_BYTES:
            lines.append(f"{tb.hex()} -1")
        else:
            r = i - N_BYTES
            a, b = vocab.merges[r]
            lines.append(f"{tb.hex()} {r} {a} {b}")
    lines.append(f"bos {vocab.bos_id}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_vocab(path: str) -> SubwordVocab:
    token_bytes: list[bytes] = []
    merges: list[tuple[int, int]] = []
    bos_id = -1
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "bos":
                bos_id = int(parts[1])
                continue
            token_bytes.append(bytes.fromhex(parts[0]))
            if int(parts[1]) >= 0:
                merges.append((int(parts[2]), int(parts[3])))
    vocab = SubwordVocab(token_bytes, merges, bos_id=bos_id)
    vocab.check()
    return vocab

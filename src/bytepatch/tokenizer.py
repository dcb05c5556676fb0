"""Byte-level ingestion and a small trainable BPE subword tokenizer.

The vocabulary always contains the 256 single bytes, then merged tokens in
rank order, then a BOS special id. Training counts adjacent pairs within each
document once and then updates the counts only around each applied merge;
replacement is non-overlapping left-to-right, which is the canonical BPE
convention. Ties between equally frequent pairs break on (lower left id, then
lower right id) so training is deterministic.
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial

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

    @cached_property
    def suffix_index(self) -> SuffixIndex:
        """The longest-suffix automaton over this vocabulary, built on first use."""
        return SuffixIndex(self)

    def check(self) -> None:
        """Ids 0..255 are the 256 single bytes, in order, so every byte
        string encodes; merge r builds id 256 + r from earlier ids."""
        if self.token_bytes[:N_BYTES] != [bytes([i]) for i in range(N_BYTES)]:
            raise TokenizerError("ids 0..255 must be the single bytes 0..255 in order")
        n_merged = len(self.token_bytes) - N_BYTES
        if len(self.merges) != n_merged:
            raise TokenizerError(f"{len(self.merges)} merges for {n_merged} merged tokens")
        seen = set()
        for tb in self.token_bytes:
            if tb in seen:
                raise TokenizerError(f"duplicate byte-string {tb!r}")
            seen.add(tb)
        for r, (a, b) in enumerate(self.merges):
            if not (0 <= a < N_BYTES + r and 0 <= b < N_BYTES + r):
                raise TokenizerError(f"merge {r} uses an id not below {N_BYTES + r}")
            if self.token_bytes[N_BYTES + r] != self.token_bytes[a] + self.token_bytes[b]:
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

    This is the incremental form of Sennrich et al.'s trainer; the tests keep
    the per-merge recount as its oracle. The documents sit end to end in one
    doubly linked list of live tokens whose links stop at each document's
    ends, so no pair crosses a document. A pair -> count table, a pair ->
    left-positions index and a lazy max-heap keyed (-count, left id, right
    id), the recount's tie order, replace the recount. A merge visits the
    stored positions of its pair in ascending order and skips stale ones, so
    runs like "aaaa" merge left to right without overlap, as `apply_merge`
    does. Each applied merge moves counts from the three pairs it destroys to
    the two it creates; every touched pair is then pushed once with its new
    count, and a popped entry whose count has since changed is skipped.
    """
    if vocab_size < N_BYTES + 1:
        raise TokenizerError(f"vocab_size must be >= {N_BYTES + 1}, got {vocab_size}")
    if not corpus or all(len(d) == 0 for d in corpus):
        raise TokenizerError("empty corpus")
    n_merges = vocab_size - N_BYTES - 1  # reserve one id for BOS
    # int32 arrays, not lists, keep the transient small; they cap the corpus
    # below 2**31 bytes (larger raises OverflowError)
    ids = array("i", iter(b"".join(corpus)))  # -1 once merged into its left neighbour
    nxt = array("i", range(1, len(ids) + 1))  # -1 ends a document
    prv = array("i", range(-1, len(ids) - 1))  # -1 starts one
    where: defaultdict[tuple[int, int], array] = defaultdict(partial(array, "i"))
    end = 0
    for doc in corpus:
        if doc:
            start, end = end, end + len(doc)
            nxt[end - 1] = prv[start] = -1
            for i, pair in enumerate(zip(doc, doc[1:]), start):
                where[pair].append(i)
    counts = {pair: len(at) for pair, at in where.items()}
    heap = [(-c, a, b) for (a, b), c in counts.items()]
    heapq.heapify(heap)
    token_bytes = [bytes([i]) for i in range(N_BYTES)]
    merges: list[tuple[int, int]] = []
    truncated = False
    for _ in range(n_merges):
        while heap and counts.get(heap[0][1:]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            truncated = True
            break
        _, a, b = heapq.heappop(heap)
        new = len(token_bytes)
        token_bytes.append(token_bytes[a] + token_bytes[b])
        merges.append((a, b))
        delta: defaultdict[tuple[int, int], int] = defaultdict(int)
        # ascending without a sort: a pair's positions are all appended in
        # order, at the start or in the round that made its newer id
        for i in where.pop((a, b)):
            j = nxt[i]
            if ids[i] != a or j < 0 or ids[j] != b:
                continue  # an earlier merge of this round took i or its neighbour
            p, k = prv[i], nxt[j]
            ids[i], ids[j], nxt[i] = new, -1, k
            delta[a, b] -= 1
            if p >= 0:
                x = ids[p]
                delta[x, a] -= 1
                delta[x, new] += 1
                where[x, new].append(p)
            if k >= 0:
                prv[k] = i
                y = ids[k]
                delta[b, y] -= 1
                delta[new, y] += 1
                where[new, y].append(i)
        for pair, d in delta.items():
            if c := counts.get(pair, 0) + d:
                counts[pair] = c
                heapq.heappush(heap, (-c, *pair))
            else:
                counts.pop(pair, None)
                where.pop(pair, None)
    vocab = SubwordVocab(token_bytes, merges, truncated=truncated)
    vocab.check()
    return vocab


def encode(vocab: SubwordVocab, data: bytes) -> list[int]:
    """Canonical BPE encoding: apply merges greedily in rank order. Single
    bytes guarantee totality; no BOS is added here.

    A min-heap of (rank, position) over a linked list of live tokens pops the
    pairs in rank order, equal ranks left to right. A merge only creates pairs
    of higher rank (`check` requires merge r to use ids below 256 + r), so the
    pops reproduce the rank-by-rank non-overlapping left-to-right replacement.
    Entries whose pair has since changed are skipped when popped.
    """
    ids = list(data)
    n = len(ids)
    ranks = vocab._ranks
    nxt = list(range(1, n + 1))  # n ends the list
    prv = list(range(-1, n - 1))
    heap = [(r, i) for i, pair in enumerate(zip(ids, ids[1:])) if (r := ranks.get(pair)) is not None]
    heapq.heapify(heap)
    while heap:
        r, i = heapq.heappop(heap)
        j = nxt[i]
        if ids[i] < 0 or j == n or ranks.get((ids[i], ids[j])) != r:
            continue
        ids[i], ids[j] = N_BYTES + r, -1
        k = nxt[j]
        nxt[i] = k
        if k < n:
            prv[k] = i
            if (rk := ranks.get((ids[i], ids[k]))) is not None:
                heapq.heappush(heap, (rk, i))
        p = prv[i]
        if p >= 0 and (rp := ranks.get((ids[p], ids[i]))) is not None:
            heapq.heappush(heap, (rp, p))
    return [t for t in ids if t >= 0]


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
    """Aho–Corasick automaton over the token byte-strings for longest-suffix
    lookup. State s spells a prefix of some token; reading byte c moves to
    the longest such prefix that is a suffix of s's string + c, so after
    data[: i + 1] the state spells the longest suffix of it that starts a
    token, and `_longest[s]` names the longest token ending there."""

    def __init__(self, vocab: SubwordVocab):
        self.vocab = vocab
        self.max_len = max(len(tb) for tb in vocab.token_bytes)
        # sparse goto: state -> {byte: state}; the root must have every
        # byte, or a scan would fall back to it forever
        goto: list[dict[int, int]] = [{}]
        longest = [-1]
        for tid, tb in enumerate(vocab.token_bytes):
            s = 0
            for c in tb:
                t = goto[s].get(c)
                if t is None:
                    t = goto[s][c] = len(goto)
                    goto.append({})
                    longest.append(-1)
                s = t
            longest[s] = tid
        if any(longest[goto[0].get(c, 0)] < 0 for c in range(N_BYTES)):
            raise TokenizerError("suffix lookup needs the 256 single-byte tokens")
        fail = [0] * len(goto)
        queue = deque(goto[0].values())  # depth-1 states fail to the root
        while queue:
            s = queue.popleft()
            if longest[s] < 0:
                longest[s] = longest[fail[s]]
            for c, t in goto[s].items():
                f = fail[s]
                while c not in goto[f]:
                    f = fail[f]
                fail[t] = goto[f][c]
                queue.append(t)
        self._goto, self._fail, self._longest = goto, fail, longest


def _scan(index: SuffixIndex, data: bytes) -> Iterator[int]:
    """Longest-suffix token id after each byte of data, in one pass."""
    goto, fail, longest = index._goto, index._fail, index._longest
    s = 0
    for c in data:
        while (t := goto[s].get(c)) is None:
            s = fail[s]
        s = t
        yield longest[s]


def longest_suffix_token(index: SuffixIndex, data: bytes, i: int) -> int:
    """Id of the vocabulary token whose byte-string is the longest suffix of
    data[: i + 1]. The 256 single-byte tokens `check` guarantees make the
    result total. No token is longer than `index.max_len`, so the automaton
    reads only the last that many bytes."""
    if not 0 <= i < len(data):
        raise TokenizerError(f"position {i} out of range")
    *_, best = _scan(index, data[max(0, i - index.max_len + 1) : i + 1])
    return best


def suffix_ids(index: SuffixIndex, data: bytes) -> np.ndarray:
    """Longest-suffix token id at every position of data."""
    return np.fromiter(_scan(index, data), dtype=np.int64, count=len(data))


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

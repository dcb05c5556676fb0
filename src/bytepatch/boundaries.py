"""Supervision masks for patch boundaries.

The starting point is always the subword boundary mask of a document. The
merge strategies below remove boundaries (i.e. merge adjacent patches) until a
target compression ratio t of average bytes-per-patch is reached, producing a
mask whose true positions are a subset of the input's. The final byte stays a
boundary throughout.

Tie-breaking is leftmost-pair everywhere, and a merged patch's score is the
sum of its parts without re-scoring, which keeps the entropy and
cross-entropy merges at O(p log p) with a lazy heap. Their per-patch scores
are the teacher's cached per-token entropies and cross-entropies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


class BoundaryError(ValueError):
    pass


@dataclass
class MergeStrategy:
    kind: str  # subword | bpe | entropy | xent
    target_compression: float = 0.0

    KINDS = ("subword", "bpe", "entropy", "xent")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise BoundaryError(f"unknown merge strategy {self.kind!r}")
        if self.kind != "subword" and not self.target_compression > 0:
            raise BoundaryError("merging strategies need target_compression > 0")

    @property
    def needs_teacher(self) -> bool:
        """Whether the merge scores patches with the teacher's cached outputs."""
        return self.kind in ("entropy", "xent")


def mask_to_ends(mask: np.ndarray) -> np.ndarray:
    ends = np.flatnonzero(np.asarray(mask, dtype=bool))
    if ends.size == 0 or ends[-1] != len(mask) - 1:
        raise BoundaryError("mask must flag the final byte")
    return ends


def ends_to_mask(ends: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(ends, dtype=int)] = True
    return mask


def merge_bpe_per_example(mask: np.ndarray, data: bytes, t: float) -> np.ndarray:
    """Per-example BPE over patches: merge every non-overlapping occurrence of
    the most frequent adjacent patch-content pair, repeating until average
    bytes-per-patch >= t or a single patch remains."""
    ends = list(mask_to_ends(mask))
    n = len(data)
    while len(ends) > 1 and n / len(ends) < t:
        spans = _spans(ends)
        pieces = [bytes(data[a : b + 1]) for a, b in spans]
        counts: dict[tuple[bytes, bytes], int] = {}
        first_at: dict[tuple[bytes, bytes], int] = {}
        for i in range(len(pieces) - 1):
            pair = (pieces[i], pieces[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
            first_at.setdefault(pair, i)
        best = min(counts.items(), key=lambda kv: (-kv[1], first_at[kv[0]]))[0]
        new_ends = []
        i = 0
        while i < len(pieces):
            if i < len(pieces) - 1 and (pieces[i], pieces[i + 1]) == best:
                new_ends.append(ends[i + 1])  # drop the boundary at ends[i]
                i += 2
            else:
                new_ends.append(ends[i])
                i += 1
        ends = new_ends
    return ends_to_mask(np.array(ends), n)


def _spans(ends: list[int]) -> list[tuple[int, int]]:
    starts = [0] + [e + 1 for e in ends[:-1]]
    return list(zip(starts, ends))


def merge_by_score(mask: np.ndarray, n_bytes: int, scores: np.ndarray, t: float) -> np.ndarray:
    """Merge the adjacent patch pair with the smallest summed score until
    bytes-per-patch >= t or one patch remains. Scores are per-patch entropies
    or cross-entropies in nats, so never negative. Merged patches keep the sum
    of their parts as their score; ties break on the leftmost pair."""
    ends = mask_to_ends(mask)
    p = len(ends)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (p,):
        raise BoundaryError(f"need one score per patch, got {scores.shape} for {p} patches")
    if np.any(scores < 0):
        raise BoundaryError("merge scores must be non-negative")
    score = scores.copy()
    starts = np.concatenate([[0], ends[:-1] + 1])
    nxt = list(range(1, p)) + [-1]
    prv = [-1] + list(range(p - 1))
    alive = [True] * p
    heap: list[tuple[float, int, int, int]] = []
    for i in range(p - 1):
        heapq.heappush(heap, (score[i] + score[i + 1], int(starts[i]), i, i + 1))
    remaining = p
    while remaining > 1 and n_bytes / remaining < t:
        while True:
            s, _, left, right = heapq.heappop(heap)
            if alive[left] and alive[right] and nxt[left] == right:
                if s == score[left] + score[right]:
                    break
        # merge right into left
        score[left] = score[left] + score[right]
        alive[right] = False
        nxt[left] = nxt[right]
        if nxt[left] >= 0:
            prv[nxt[left]] = left
        remaining -= 1
        if prv[left] >= 0:
            heapq.heappush(heap, (score[prv[left]] + score[left], int(starts[prv[left]]), prv[left], left))
        if nxt[left] >= 0:
            heapq.heappush(heap, (score[left] + score[nxt[left]], int(starts[left]), left, nxt[left]))
    # surviving boundaries: the end of every alive patch
    out_ends = []
    i = 0
    while i >= 0:
        if not alive[i]:
            raise AssertionError("walk hit a dead patch")
        # the end of patch i is the original end of its last constituent,
        # which is ends[next alive start - 1]; track via linked list
        j = nxt[i]
        out_ends.append(int(ends[j - 1]) if j >= 0 else int(ends[-1]))
        i = j
    return ends_to_mask(np.array(out_ends), len(mask))


def attained_compression(masks: list[np.ndarray]) -> float:
    """Average bytes per patch over a corpus of masks."""
    if not masks:
        raise BoundaryError("empty corpus")
    total_bytes = sum(len(m) for m in masks)
    total_patches = sum(int(np.count_nonzero(m)) for m in masks)
    if total_patches == 0:
        raise BoundaryError("no patches")
    return total_bytes / total_patches


# -- RLE serialization --------------------------------------------------------

def mask_to_rle(mask: np.ndarray) -> str:
    """'<first bit>:<run lengths>' with alternating runs."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) == 0:
        return "0:"
    edges = np.flatnonzero(np.diff(mask.astype(np.int8))) + 1
    bounds = np.concatenate([[0], edges, [len(mask)]])
    runs = np.diff(bounds)
    return f"{int(mask[0])}:{','.join(str(int(r)) for r in runs)}"


def rle_to_mask(text: str) -> np.ndarray:
    first, _, runs = text.partition(":")
    bit = bool(int(first))
    out: list[np.ndarray] = []
    if runs:
        for r in runs.split(","):
            out.append(np.full(int(r), bit))
            bit = not bit
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)

import numpy as np
import pytest

from bytepatch import boundaries as bd
from bytepatch.boundaries import (
    BoundaryError,
    MergeStrategy,
    attained_compression,
    merge_bpe_per_example,
    merge_by_score,
)


def rle_to_mask(text: str) -> np.ndarray:
    """Inverse of `mask_to_rle`."""
    first, _, runs = text.partition(":")
    bit = bool(int(first))
    out: list[np.ndarray] = []
    if runs:
        for r in runs.split(","):
            out.append(np.full(int(r), bit))
            bit = not bit
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


def all_true(n):
    return np.ones(n, dtype=bool)


def test_bpe_merge_example():
    # patches [a, b, a, b, c]; (a,b) occurs twice -> both merged in one step
    data = b"ababc"
    out = merge_bpe_per_example(all_true(5), data, t=1.5)
    assert out.tolist() == [False, True, False, True, True]


def test_bpe_merge_noop_when_target_met():
    data = b"ababc"
    mask = np.array([False, True, False, True, True])
    out = merge_bpe_per_example(mask, data, t=5 / 3)
    assert out.tolist() == mask.tolist()


def test_bpe_merge_infinite_target_single_patch():
    data = b"hello world"
    mask = np.zeros(11, dtype=bool)
    mask[4] = mask[10] = True
    out = merge_bpe_per_example(mask, data, t=np.inf)
    expected = np.zeros(11, dtype=bool)
    expected[10] = True
    assert out.tolist() == expected.tolist()


def test_entropy_merge_picks_min_sum():
    data = b"wxyz"
    out = merge_by_score(all_true(4), len(data), np.array([1.0, 0.1, 0.2, 5.0]), t=4 / 3)
    # pair sums {1.1, 0.3, 5.2} -> merge patches 1&2 (0-indexed)
    assert out.tolist() == [True, False, True, True]


def test_entropy_merge_leftmost_tie():
    data = b"wxyz"
    out = merge_by_score(all_true(4), len(data), np.ones(4), t=4 / 3)
    assert out.tolist() == [False, True, True, True]


def test_entropy_merge_patch_count_strictly_decreases():
    rng = np.random.default_rng(0)
    data = bytes(rng.integers(97, 123, size=24).tolist())
    scores = rng.exponential(size=24)
    counts = []
    for t in [1.0, 1.5, 2.0, 3.0, 6.0, np.inf]:
        out = merge_by_score(all_true(24), len(data), scores, t=t)
        counts.append(int(out.sum()))
    assert counts[0] == 24
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 1


def test_cross_entropy_merge_example():
    data = b"abc"
    out = merge_by_score(all_true(3), len(data), np.array([0.5, 0.4, 3.0]), t=1.5)
    # sums {0.9, 3.4} -> merge patches 0&1
    assert out.tolist() == [False, True, True]


def test_cross_entropy_rejects_negative():
    with pytest.raises(BoundaryError):
        merge_by_score(all_true(3), 3, np.array([0.1, -0.2, 0.3]), 2.0)


def test_xent_equals_entropy_when_calibrated():
    # a perfectly calibrated scorer on a deterministic-rate corpus assigns
    # CE == entropy per patch, so the two merges coincide
    rng = np.random.default_rng(5)
    data = bytes(rng.integers(97, 123, size=16).tolist())
    scores = np.full(16, np.log(4.0))
    a = merge_by_score(all_true(16), len(data), scores, t=2.7)
    b = merge_by_score(all_true(16), len(data), scores.copy(), t=2.7)
    assert a.tolist() == b.tolist()


def test_attained_compression_trivial():
    assert attained_compression([all_true(5), all_true(3)]) == 1.0
    m = np.zeros(12, dtype=bool)
    m[[3, 7, 11]] = True
    assert attained_compression([m]) == 4.0


def test_attained_compression_matches_recount():
    rng = np.random.default_rng(2)
    masks = []
    for _ in range(20):
        n = int(rng.integers(4, 50))
        m = rng.random(n) < 0.3
        m[-1] = True
        masks.append(m)
    total_b = sum(len(m) for m in masks)
    total_p = sum(m.sum() for m in masks)
    assert attained_compression(masks) == pytest.approx(total_b / total_p)


def test_attained_compression_empty_rejected():
    with pytest.raises(BoundaryError):
        attained_compression([])


def test_merge_strategy_validation():
    with pytest.raises(BoundaryError):
        MergeStrategy("nope")
    with pytest.raises(BoundaryError):
        MergeStrategy("bpe")  # missing target
    for kind in MergeStrategy.KINDS:
        for t in (float("inf"), float("nan")):  # inf would merge every window into one patch
            with pytest.raises(BoundaryError, match="target_compression must be finite"):
                MergeStrategy(kind, t)
        with pytest.raises(BoundaryError, match="target_compression must be >= 0, got -3.0"):
            MergeStrategy(kind, -3.0)  # subword reads no target, yet its range holds
    MergeStrategy("entropy", target_compression=4.0)  # scores come from the teacher
    MergeStrategy("subword")


# -- brute-force oracles (the independent O(p^2) re-implementations) ---------

def brute_merge_score(mask, n_bytes, scores, t):
    ends = list(np.flatnonzero(mask))
    starts = [0] + [e + 1 for e in ends[:-1]]
    score = list(np.asarray(scores, dtype=float))
    while len(ends) > 1 and n_bytes / len(ends) < t:
        sums = [score[i] + score[i + 1] for i in range(len(ends) - 1)]
        i = int(np.argmin(sums))  # argmin takes the first (leftmost) minimum
        score[i] += score[i + 1]
        del score[i + 1], ends[i], starts[i + 1]
    out = np.zeros(len(mask), dtype=bool)
    out[ends] = True
    return out


def brute_merge_bpe(mask, data, t):
    ends = list(np.flatnonzero(mask))
    while len(ends) > 1 and len(data) / len(ends) < t:
        starts = [0] + [e + 1 for e in ends[:-1]]
        pieces = [bytes(data[s : e + 1]) for s, e in zip(starts, ends)]
        pairs = list(zip(pieces, pieces[1:]))
        best, best_count, best_pos = None, 0, 0
        for pos, pr in enumerate(pairs):
            c = pairs.count(pr)
            if c > best_count:
                best, best_count, best_pos = pr, c, pos
        keep, i = [], 0
        while i < len(pieces):
            if i < len(pieces) - 1 and (pieces[i], pieces[i + 1]) == best:
                keep.append(ends[i + 1])
                i += 2
            else:
                keep.append(ends[i])
                i += 1
        ends = keep
    out = np.zeros(len(data), dtype=bool)
    out[ends] = True
    return out


def random_doc(rng):
    n = int(rng.integers(6, 120))
    data = bytes(rng.integers(97, 102, size=n).tolist())
    mask = rng.random(n) < 0.35
    mask[-1] = True
    return data, mask


def test_merges_match_bruteforce_oracle_200_docs():
    rng = np.random.default_rng(99)
    for _ in range(200):
        data, mask = random_doc(rng)
        p = int(mask.sum())
        scores = rng.exponential(size=p) + 0.01
        t = float(rng.uniform(1.0, 12.0))
        fast_e = merge_by_score(mask, len(data), scores, t)
        slow_e = brute_merge_score(mask, len(data), scores, t)
        assert fast_e.tolist() == slow_e.tolist()
        fast_b = merge_bpe_per_example(mask, data, t)
        slow_b = brute_merge_bpe(mask, data, t)
        assert fast_b.tolist() == slow_b.tolist()
        for out in (fast_e, fast_b):
            # subset of the input boundaries, final flag intact
            assert not np.any(out & ~mask)
            assert out[-1]
            # compression target reached or degenerate
            assert len(data) / out.sum() >= t or out.sum() == 1


def test_rle_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 64))
        mask = rng.random(n) < 0.4
        text = bd.mask_to_rle(mask)
        back = rle_to_mask(text)
        assert back.tolist() == mask.tolist()
    assert rle_to_mask(bd.mask_to_rle(np.zeros(0, dtype=bool))).size == 0

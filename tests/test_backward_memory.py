"""What a backward sweep holds: the forward graph plus one gradient frontier.

`Tensor.backward` frees each non-leaf node right after its VJPs have run, so
the memory a sweep adds on top of the forward graph stays a small fraction
of what the forward retains. A sweep that keeps every intermediate gradient
and VJP until its end adds about as much again as the forward retains.

What the forward retains is only what its VJPs read: a node links to its
parents' nodes and holds no values, so an intermediate no VJP reads is freed
as soon as the model code drops it. A graph whose VJPs hold their input
tensors keeps every intermediate, 74 MB at (1, 512) and 107 MB at (8, 88),
which `MAX_RETAINED_MB` rejects. So does a graph of smaller nodes where one
node stands today: a norm and a separate gain `mul` keep the normalized x
twice, a SwiGLU of `silu`, `mul` and `matmul` keeps silu's sigmoid and the
gated product too (51.8 MB at (1, 512), 73.0 MB at (8, 88)), and an mLSTM
core of small ops keeps its chunk matrices, which the one node recomputes
(38.2 and 53.6 MB)."""

import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from bytepatch import layers as L
from bytepatch import tensor as T
from bytepatch.cli import build_model_config, parse_config_file
from bytepatch.losses import boundary_bce, ce_fused, next_symbol_logprobs
from bytepatch.model import ParamStore, forward_full, fused_targets, init_byte_model
from bytepatch.tensor import Tensor

# the shapes the benchmark trains on: toy.cfg's model, 512-B and 8 x 88-B batches
TOY = parse_config_file(str(Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"))
CFG = build_model_config(TOY, int(TOY["tokenizer.vocab_size"]))
MAX_BACKWARD_SHARE = 0.25  # backward's peak increment over the forward's retained memory
MAX_RETAINED_MB = {(1, 512): 31, (8, 88): 43}  # what the forward graph may hold, float64
MAX_STAGE2_NODES = 280  # graph nodes of the (8, 88) loss: one node per fused chain
SHAPES = sorted(MAX_RETAINED_MB)


def _graph_params(seed: int = 0) -> ParamStore:
    """The model's parameters as leaves in the graph, as the step loop has them."""
    params = init_byte_model(CFG, np.random.default_rng(seed))
    return ParamStore({n: Tensor(t.data, requires_grad=True) for n, t in params.items()})


def _loss(params: ParamStore, batch: int, n: int, seed: int = 1) -> Tensor:
    """A stage-2 loss (boundary BCE + fused CE) pooled on a random mask."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 256, size=(batch, n))
    sfx = rng.integers(0, CFG.vocab_size, size=(batch, n))
    mask = rng.random((batch, n)) < 0.2
    mask[:, -1] = True
    out = forward_full(params, CFG, ids, sfx, mask)
    targets = fused_targets(ids[:, 1:], mask[:, 1:])
    return boundary_bce(out["p"], mask) + ce_fused(next_symbol_logprobs(out["logprobs"], targets))


@lru_cache(maxsize=None)
def _traced(batch: int, n: int) -> tuple[int, int]:
    """Bytes the forward of `_loss` retains, and bytes its backward adds at peak."""
    params = _graph_params()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        loss = _loss(params, batch, n)
        graph, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph - base, peak - graph


@pytest.mark.parametrize("batch, n", SHAPES)
def test_backward_adds_a_small_share_of_the_forward_graph(batch, n):
    retained, added = _traced(batch, n)
    assert added <= MAX_BACKWARD_SHARE * retained, (added / 2**20, retained / 2**20)


@pytest.mark.parametrize("batch, n", SHAPES)
def test_the_forward_graph_keeps_only_what_its_vjps_read(batch, n):
    retained, _ = _traced(batch, n)
    assert retained <= MAX_RETAINED_MB[batch, n] * 2**20, retained / 2**20


def test_backward_leaves_no_intermediate_in_the_graph():
    params = _graph_params()
    loss = _loss(params, 2, 24)
    inner = [node for node in T._toposort(loss._node) if node.vjps]
    loss.backward()
    assert inner and all(n.grad is None and n.vjps == () and not n.requires_grad for n in inner)
    assert all(t.grad is not None for t in params.values())


def test_the_stage2_loss_builds_one_node_per_fused_chain():
    """The mLSTM core, SwiGLU, the norms with their gains and the gated
    down-projections are one node each: a composed rewrite of any of them
    adds nodes (the loss had 421 with the core of small ops)."""
    loss = _loss(_graph_params(), 8, 88)
    assert len(T._toposort(loss._node)) <= MAX_STAGE2_NODES


def _retained_by_block(kind: str) -> int:
    """Bytes a float32 (8, 88) block of toy.cfg's encoder keeps in the graph."""
    prefix = f"encoder.0.{kind}"
    params = init_byte_model(CFG, np.random.default_rng(0))
    p = {k: Tensor(t.data.astype(np.float32), requires_grad=True) for k, t in params.items()
         if k.startswith(prefix + ".")}
    x = Tensor(np.random.default_rng(1).normal(size=(8, 88, CFG.d)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        if kind == "ffn":
            out = L.ffn_block(p, prefix, x)
        else:
            out = L.mlstm_block(p, prefix, x, CFG.mlstm_heads, CFG.mlstm_qk_dim, CFG.mlstm_v_dim)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return retained


def test_an_ffn_block_keeps_two_model_wide_and_two_hidden_wide_arrays():
    """A float32 (8, 88) FFN block retains its output and the normed input
    (B, n, d), and the gate's pre-activation and the up projection
    (B, n, ffn_hidden): the norm recomputes x·r for its gain's gradient, and
    SwiGLU's node recomputes silu and the gated product. The slack is for
    the norm's (B, n, 1) scale and Python objects, well below one (B, n, d)
    array."""
    bound = (2 * CFG.d + 2 * CFG.ffn_hidden) * 8 * 88 * np.dtype(np.float32).itemsize + 64 * 2**10
    retained = _retained_by_block("ffn")
    assert retained <= bound, (retained, bound)


def test_an_mlstm_block_keeps_no_chunk_matrix():
    """A float32 (8, 88) mLSTM block retains seven (B, n, d)-sized arrays:
    its output, the normed input, the heads' output and its norm, the output
    gate and, in chunks, q, k and v (half, half and one each). The core
    recomputes its (·, L, L) and (·, L, v) chunk matrices in its backward;
    a core of small ops kept twelve and a half arrays. The slack is for its
    O(n) gate vectors, the norms' scales and Python objects."""
    bound = 7 * CFG.d * 8 * 88 * np.dtype(np.float32).itemsize + 128 * 2**10
    retained = _retained_by_block("mlstm")
    assert retained <= bound, (retained, bound)

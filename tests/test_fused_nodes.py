"""The fused graph nodes against the composed graphs they stand for, bit for bit.

`rmsnorm` takes its gain, `gated_matmul` is `(u * v) @ w` in one node, `silu`
keeps only its input, `log_softmax`'s backward reuses one scratch buffer, and
the losses pick over all n rows before they cut the last one. Each holds fewer
arrays than the graph it replaces, and none may change a bit: every test here
builds the composed graph (from plain ops, or from the node as it was, rebuilt
on `T._make`) and compares the forward value and every input gradient with
`np.array_equal`, in float32 and in float64. The composed forms live only here.
"""

from pathlib import Path

import numpy as np
import pytest

from bytepatch import layers as L
from bytepatch import losses
from bytepatch import tensor as T
from bytepatch.cli import build_model_config, parse_config_file
from bytepatch.model import ParamStore, forward_full, fused_targets, init_byte_model
from bytepatch.tensor import Tensor

DTYPES = [np.float32, np.float64]
TOY = parse_config_file(str(Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"))
CFG = build_model_config(TOY, int(TOY["tokenizer.vocab_size"]))


# -- the composed forms -----------------------------------------------------------

def norm_without_gain(x: Tensor, eps: float) -> Tensor:
    """The norm node as it was before it took its gain."""
    xd = x.data
    r = T.rms_scale_np(xd, eps)
    n = x.shape[-1]

    def vjp(g):
        dot = (g * xd).sum(axis=-1, keepdims=True)
        return r * g - (r ** 3 / n) * dot * xd

    return T._make(xd * r, "rmsnorm", (x, vjp))


def norm_then_gain(x: Tensor, gain: Tensor, eps: float = 0.0) -> Tensor:
    return norm_without_gain(x, eps) * gain


def silu_keeping_its_sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    s = T.sigmoid_np(xd)
    return T._make(xd * s, "silu", (x, lambda g: g * (s + xd * s * (1.0 - s))))


def log_softmax_with_temporaries(x: Tensor) -> Tensor:
    out = T.log_softmax_np(x.data)
    return T._make(out, "log_softmax", (x, lambda g: g - np.exp(out) * g.sum(axis=-1, keepdims=True)))


def matmul_of_product(u: Tensor, v: Tensor, w: Tensor) -> Tensor:
    return T.matmul(u * v, w)


def cut_then_pick(logprobs: Tensor, targets: np.ndarray) -> Tensor:
    return T.pick(logprobs[:, :-1, :], np.asarray(targets, dtype=np.int64))


def per_head_norm_then_gain(h: Tensor, gain: Tensor, eps: float) -> Tensor:
    """mlstm_block's per-head norm as it was: the gainless norm over
    (B, n, H, v), flattened to (B, n, H·v), then the flat gain."""
    b, n, heads, v = h.shape
    return norm_without_gain(h, eps).reshape((b, n, heads * v)) * gain


@pytest.fixture
def composed(monkeypatch):
    """A call that swaps every fused node, and the losses' pick-then-cut, for
    its composed graph. mlstm_block's per-head norm reshapes its gain to (H, v) first, so
    the composed norm recognises that call and applies the flat gain after
    the flattening, as the block did."""
    def rmsnorm(x, gain, eps=0.0):
        if gain.ndim == 2:  # the per-head gain, viewed as (H, v): undo the view
            b, n, heads, v = x.shape
            flat = per_head_norm_then_gain(x, gain.reshape((heads * v,)), eps)
            return flat.reshape((b, n, heads, v))
        return norm_then_gain(x, gain, eps)

    def swap():
        monkeypatch.setattr(T, "rmsnorm", rmsnorm)
        monkeypatch.setattr(T, "silu", silu_keeping_its_sigmoid)
        monkeypatch.setattr(T, "log_softmax", log_softmax_with_temporaries)
        monkeypatch.setattr(T, "gated_matmul", matmul_of_product)
        monkeypatch.setattr(losses, "next_symbol_logprobs", cut_then_pick)

    return swap


# -- helpers ----------------------------------------------------------------------

def run(build, arrays: dict, dtype, seed: int = 99):
    """`build(leaves)`'s value and every leaf's gradient, under a random
    output weighting so that no gradient is uniform."""
    ts = {k: Tensor(np.asarray(a, dtype=dtype), requires_grad=True) for k, a in arrays.items()}
    out = build(ts)
    weights = np.random.default_rng(seed).normal(size=out.shape).astype(dtype)
    (out * Tensor(weights)).sum().backward()
    return out.data, {k: t.grad for k, t in ts.items()}


def assert_bit_identical(got, want):
    (out, grads), (ref_out, ref_grads) = got, want
    assert out.dtype == ref_out.dtype and np.array_equal(out, ref_out)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert grads[k] is not None and grads[k].dtype == ref_grads[k].dtype, k
        assert np.array_equal(grads[k], ref_grads[k]), k


def compare(build, composed_build, arrays, dtype):
    assert_bit_identical(run(build, arrays, dtype), run(composed_build, arrays, dtype))


# -- one node at a time ---------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
def test_rmsnorm_with_a_vector_gain_equals_norm_then_gain(dtype):
    rng = np.random.default_rng(0)
    arrays = {"x": rng.normal(size=(8, 88, 128)), "g": rng.uniform(0.5, 1.5, size=128)}
    compare(lambda t: T.rmsnorm(t["x"], t["g"], L.RMS_EPS),
            lambda t: norm_then_gain(t["x"], t["g"], L.RMS_EPS), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_rmsnorm_with_a_per_head_gain_equals_norm_reshape_then_gain(dtype):
    """The per-head norm over a transposed (B, n, H, v) view, as mlstm_block
    has it: the flat gain viewed as (H, v), against the gain applied after
    the flattening."""
    rng = np.random.default_rng(1)
    b, n, heads, v = 2, 30, 4, 32
    arrays = {"h": rng.normal(size=(b, heads, n, v)), "g": rng.uniform(0.5, 1.5, size=heads * v)}

    def fused(t):
        h = T.transpose(t["h"], (0, 2, 1, 3))
        return T.rmsnorm(h, t["g"].reshape((heads, v)), L.RMS_EPS).reshape((b, n, heads * v))

    compare(fused, lambda t: per_head_norm_then_gain(T.transpose(t["h"], (0, 2, 1, 3)), t["g"], L.RMS_EPS),
            arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_silu_keeping_its_input_equals_silu_keeping_its_sigmoid(dtype):
    rng = np.random.default_rng(2)
    compare(lambda t: T.silu(t["a"]), lambda t: silu_keeping_its_sigmoid(t["a"]),
            {"a": rng.normal(size=(8, 88, 256)) * 3.0}, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_log_softmax_with_one_scratch_buffer_equals_its_temporaries(dtype):
    rng = np.random.default_rng(3)
    compare(lambda t: T.log_softmax(t["z"]), lambda t: log_softmax_with_temporaries(t["z"]),
            {"z": rng.normal(size=(8, 88, 512)) * 4.0}, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gated_matmul_at_the_swiglu_site_equals_the_matmul_of_the_product(dtype):
    """u = silu(x @ w_gate), v = x @ w_up, w = w_down."""
    rng = np.random.default_rng(4)
    arrays = {"x": rng.normal(size=(8, 88, 128)), "wg": rng.normal(size=(128, 256)) * 0.1,
              "wu": rng.normal(size=(128, 256)) * 0.1, "wd": rng.normal(size=(256, 128)) * 0.1}

    def build(gated):
        return lambda t: gated(T.silu(t["x"] @ t["wg"]), t["x"] @ t["wu"], t["wd"])

    compare(build(T.gated_matmul), build(matmul_of_product), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gated_matmul_at_the_output_gate_site_equals_the_matmul_of_the_product(dtype):
    """u = the normed heads, flattened; v = sigmoid(xn @ w_og); w = w_out."""
    rng = np.random.default_rng(5)
    b, n, heads, v = 8, 88, 4, 32
    arrays = {"h": rng.normal(size=(b, n, heads * v)), "xn": rng.normal(size=(b, n, 128)),
              "wog": rng.normal(size=(128, heads * v)) * 0.1, "wo": rng.normal(size=(heads * v, 128)) * 0.1}

    def build(gated):
        return lambda t: gated(t["h"], T.sigmoid(t["xn"] @ t["wog"]), t["wo"])

    compare(build(T.gated_matmul), build(matmul_of_product), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, n", [(8, 88), (1, 512), (3, 17)])
def test_pick_then_cut_equals_cut_then_pick(dtype, b, n):
    """Through what the losses compute from the picks: the fused CE's mean
    and the patch sums' cumulative sum."""
    rng = np.random.default_rng(b * n)
    targets = rng.integers(0, 512, size=(b, n - 1))
    ends = np.sort(rng.choice(np.arange(1, n - 1), size=(b, 4)), axis=1)
    ends[:, -1] = n - 1

    def build(pick):
        def loss(t):
            picked = pick(t["lp"], targets)
            ce = -picked.mean()
            cs = T.cumsum(picked, axis=1)
            return ce + T.gather_rows(cs.reshape((b, n - 1, 1)), ends - 1).sum()
        return loss

    arrays = {"lp": rng.normal(size=(b, n, 512))}
    compare(build(losses.next_symbol_logprobs), build(cut_then_pick), arrays, dtype)
    # a strided (B, n-1) view would sum in another grouping than the picked
    # rows did, and differ in the last bits on some inputs
    assert losses.next_symbol_logprobs(Tensor(arrays["lp"].astype(dtype)), targets).data.flags.c_contiguous


# -- both call sites, in whole blocks and the whole model -------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["ffn", "mlstm"])
def test_blocks_equal_their_composed_graphs(composed, kind, dtype):
    """ffn_block (rmsnorm, silu, gated_matmul) and mlstm_block (rmsnorm twice,
    gated_matmul): the output and the gradient of the input and of every
    parameter, at toy.cfg's sizes and an (8, 88) batch."""
    rng = np.random.default_rng(6)
    params = init_byte_model(CFG, rng)
    prefix = f"encoder.0.{kind}"
    arrays = {"x": rng.normal(size=(8, 88, CFG.d)),
              **{k: t.data for k, t in params.items() if k.startswith(prefix + ".")}}
    for k in arrays:  # gains other than the initial ones
        if k.endswith("norm_g"):
            arrays[k] = rng.uniform(0.5, 1.5, size=arrays[k].shape)

    def block(t):
        if kind == "ffn":
            return L.ffn_block(t, prefix, t["x"])
        return L.mlstm_block(t, prefix, t["x"], CFG.mlstm_heads, CFG.mlstm_qk_dim, CFG.mlstm_v_dim)

    fused = run(block, arrays, dtype)
    composed()
    assert_bit_identical(fused, run(block, arrays, dtype))


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_stage2_loss_equals_its_composed_graph(composed, dtype):
    """forward_full, the boundary BCE and the fused CE at toy.cfg's sizes:
    the loss and every parameter's gradient."""
    rng = np.random.default_rng(7)
    params = init_byte_model(CFG, rng)
    for k, t in params.items():  # gains other than the initial ones
        if k.endswith("norm_g"):
            t.data[...] = rng.uniform(0.5, 1.5, size=t.shape)
    ids = rng.integers(0, 256, size=(8, 88))
    sfx = rng.integers(0, CFG.vocab_size, size=(8, 88))

    def loss():
        p = ParamStore({k: Tensor(t.data.astype(dtype), requires_grad=True) for k, t in params.items()})
        out = forward_full(p, CFG, ids, sfx)
        targets = fused_targets(ids[:, 1:], out["mask"][:, 1:])
        total = losses.boundary_bce(out["p"], out["mask"]) + losses.ce_fused(out["logprobs"], targets)
        total.backward()
        return total.data, {k: t.grad for k, t in p.items()}

    fused = loss()
    composed()
    assert_bit_identical(fused, loss())

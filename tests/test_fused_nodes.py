"""The fused graph nodes against the composed graphs they stand for.

`mlstm_chunkwise` is the mLSTM's whole chunkwise core in one node,
`silu_gated_matmul` is SwiGLU's `(silu(a) * up) @ w`, `rmsnorm` takes its
gain, `gated_matmul` is `(u * v) @ w`, `log_softmax`'s backward reuses one
scratch buffer, the gathers' backward adds rows through one flat
`np.add.at`, and the losses gather each position's score as one flat row
of the log-probs, not by a cut and a pick along the last axis. Each holds
fewer arrays than the graph it replaces. Every test here builds the
composed graph (from plain ops, or from the node as it was, rebuilt on
`T._make`) and compares the forward value and every input gradient, in
float32 and in float64.

Most nodes keep every bit: `np.array_equal`. Two sum in other orders than
their composed graphs and are held to a relative bound instead, `RTOL`:
`rmsnorm`, whose last-axis sums are dot products, and `mlstm_chunkwise`,
whose backward is derived rather than replayed (its forward keeps every
bit). So are the blocks, losses and steps that contain them. The composed
forms, and the ops only they use, live only here.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bytepatch import layers as L
from bytepatch import losses
from bytepatch import tensor as T
from bytepatch import training
from bytepatch.cli import build_model_config, parse_config_file
from bytepatch.data import markov_word_docs
from bytepatch.model import ParamStore, forward_full, fused_targets, init_byte_model, init_teacher
from bytepatch.optim import AdamW
from bytepatch.tensor import NonFiniteError, Tensor
from bytepatch.tokenizer import train_bpe, utf8_to_bytes

DTYPES = [np.float32, np.float64]
# the shapes every rewritten VJP is checked at: toy.cfg's training batch, a
# short one, and a 512-B document with and without its BOS position
SHAPES = [(8, 88), (2, 17), (1, 512), (1, 513)]
# a node that sums in another order than its composed graph stays within 2^12
# units in the last place of the dtype, relative to the largest magnitude of
# each compared array: 9.1e-13 in float64, 4.9e-4 in float32
RTOL = {np.dtype(dt): 2.0 ** 12 * np.finfo(dt).eps for dt in DTYPES}
TOY = parse_config_file(str(Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"))
CFG = build_model_config(TOY, int(TOY["tokenizer.vocab_size"]))


# -- the ops that only the composed forms use, rebuilt on the engine ---------------

def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    T._binary(a, b, "maximum")
    take_a = a.data >= b.data
    sa, sb = a.shape, b.shape
    return T._make(np.where(take_a, a.data, b.data), "maximum",
                   (a, lambda g: T._unbroadcast(g * take_a, sa)),
                   (b, lambda g: T._unbroadcast(g * ~take_a, sb)))


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.data)
    return T._make(np.abs(x.data), "abs", (x, lambda g: g * sign))


def logsigmoid(x: Tensor) -> Tensor:
    xd = x.data
    return T._make(T.logsigmoid_np(xd), "logsigmoid", (x, lambda g: g * T.sigmoid_np(-xd)))


def rms_scale_composed(x: np.ndarray, eps: float) -> np.ndarray:
    """The RMS scale as the norm node computed it, through `np.mean`."""
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), keeping only x: the backward recomputes the sigmoid."""
    xd = x.data

    def vjp(g):
        s = T.sigmoid_np(xd)
        return g * (s + xd * s * (1.0 - s))

    return T._make(xd * T.sigmoid_np(xd), "silu", (x, vjp))


def exp_where(x: Tensor, keep: np.ndarray) -> Tensor:
    """exp(x) where `keep` (a constant boolean mask broadcast over trailing
    axes), exactly 0 elsewhere."""
    keep_b = np.broadcast_to(keep, x.shape)
    out_data = np.zeros(x.shape, dtype=x.data.dtype)
    np.exp(x.data, out=out_data, where=keep_b)
    return T._make(out_data, "exp_where", (x, lambda g: g * out_data))


def outer_add(u: Tensor, v: Tensor) -> Tensor:
    """Pairwise sum over the last axes: u (..., n), v (..., m) -> (..., n, m)
    with out[..., i, j] = u[..., i] + v[..., j]. Leading dims must match."""
    if u.shape[:-1] != v.shape[:-1]:
        raise T.ShapeError(f"outer_add: leading dims differ, {u.shape} vs {v.shape}")
    return T._make(u.data[..., :, None] + v.data[..., None, :], "outer_add",
                   (u, lambda g: g.sum(axis=-1)),
                   (v, lambda g: g.sum(axis=-2)))


# one build per op above, every input in the graph; test_tensor audits these too
COMPOSED_OPS = {
    "maximum": lambda u: maximum(u(2, 3, 4), u(2, 3, 4)),
    "logsigmoid": lambda u: logsigmoid(u(2, 3)),
    "silu": lambda u: silu(u(2, 3)),
    "absolute": lambda u: absolute(u(2, 3)),
    "exp_where": lambda u: exp_where(u(2, 3, 3), np.tri(3, dtype=bool)),
    "outer_add": lambda u: outer_add(u(2, 3), u(2, 4)),
    "take_rows_adding_at": lambda u: take_rows_adding_at(u(5, 4), np.array([[0, 3], [3, 1]])),
    "gather_rows_adding_at": lambda u: gather_rows_adding_at(u(2, 3, 4), np.array([[0, 2], [1, 1]])),
    "pick": lambda u: pick(u(2, 3, 4), np.array([[0, 3, 1], [2, 2, 0]])),
}


# -- the composed forms -----------------------------------------------------------

def mlstm_core_composed(q: Tensor, k: Tensor, v: Tensor, i_pre: Tensor, f_pre: Tensor, chunk: int) -> Tensor:
    """`T.mlstm_chunkwise` as the graph of small ops that mlstm_block built
    before the core became one node: the oracle for its values and gradients."""
    b, heads, n, qk_dim = q.shape
    v_dim = v.shape[-1]
    log_f = logsigmoid(f_pre)
    fcum = T.cumsum(log_f, axis=-1)  # F_t = sum_{s<=t} log f_s
    a = i_pre - fcum  # a_s = i_s - F_s
    # running stabilizer m_t = F_t + max_{s<=t} a_s; it rescales numerator and
    # denominator identically, so it is a constant for the gradient, and so is
    # every other max of `a` below
    amax = np.maximum.accumulate(a.data, axis=-1)
    m = Tensor(fcum.data + amax, _op="const")
    nc, size = T.mlstm_chunk_split(n, chunk)
    pad = nc * size - n
    last = amax[..., -1:]

    def chunks(t: Tensor, fill) -> Tensor:
        if pad:
            fill = np.broadcast_to(np.asarray(fill, dtype=t.dtype), t.shape[:2] + (pad,) + t.shape[3:])
            t = T.concat([t, Tensor(fill, _op="const")], axis=2)
        return t.reshape((b, heads, nc, size) + t.shape[3:])

    uc, ac = chunks(fcum - m, -last), chunks(a, last)
    qc, kc, vc = chunks(q, 0.0), chunks(k, 0.0), chunks(v, 0.0)
    scores = outer_add(uc, ac)  # (B, NH, nc, L, L)
    decay = exp_where(scores, np.tril(np.ones((size, size), dtype=bool)))
    w = decay * T.matmul(qc, kc.swap_last())
    num = T.matmul(w, vc)  # (B, NH, nc, L, v)
    den = w.sum(axis=-1, keepdims=True)
    if nc > 1:
        cmax = ac.data.max(axis=-1)  # (B, NH, nc)
        ref = amax[..., np.maximum(np.arange(nc) * size - 1, 0)]
        cross = np.zeros((b, heads, nc, nc), dtype=amax.dtype)
        np.exp(cmax[..., None, :] - ref[..., :, None], out=cross,
               where=np.tril(np.ones((nc, nc), dtype=bool), k=-1))
        cross = Tensor(cross, _op="const")
        kg = kc * T.exp(ac - Tensor(cmax[..., None], _op="const")).reshape((b, heads, nc, size, 1))
        states = T.matmul(kg.swap_last(), vc).reshape((b, heads, nc, qk_dim * v_dim))
        carry = T.matmul(cross, states).reshape((b, heads, nc, qk_dim, v_dim))
        carry_n = T.matmul(cross, kg.sum(axis=-2)).reshape((b, heads, nc, qk_dim, 1))
        e = T.exp(uc + Tensor(ref[..., None], _op="const")).reshape((b, heads, nc, size, 1))
        num = num + T.matmul(qc, carry) * e
        den = den + T.matmul(qc, carry_n) * e
    num = num.reshape((b, heads, nc * size, v_dim))
    den = den.reshape((b, heads, nc * size, 1))
    if pad:
        num, den = num[:, :, :n], den[:, :, :n]
    den = maximum(absolute(den), T.exp(-m).reshape((b, heads, n, 1)))
    return num / den


def silu_then_gated_matmul(a: Tensor, up: Tensor, w: Tensor) -> Tensor:
    """SwiGLU's gate and down-projection as the two nodes it was."""
    return T.gated_matmul(silu(a), up, w)


# -- the older forms of the fused nodes ------------------------------------------

def norm_without_gain(x: Tensor, eps: float) -> Tensor:
    """The norm node as it was before it took its gain."""
    xd = x.data
    r = rms_scale_composed(xd, eps)
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


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row selection along the last axis, as the engine had it:
    x (..., n, V), idx (..., n) -> (..., n)."""
    idx = np.asarray(idx)
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return full

    return T._make(np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0], "pick", (x, vjp))


def take_rows_adding_at(table: Tensor, idx: np.ndarray) -> Tensor:
    """The embedding lookup as it was: its VJP adds row by row, `np.add.at`."""
    idx = np.asarray(idx)
    shape, dtype = table.shape, table.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        return full

    return T._make(table.data[idx], "take_rows", (table, vjp))


def gather_rows_adding_at(x: Tensor, idx: np.ndarray) -> Tensor:
    """The batched row gather as it was: its VJP adds row by row, `np.add.at`."""
    idx = np.asarray(idx)
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, (np.arange(shape[0])[:, None], idx), g)
        return full

    return T._make(np.take_along_axis(x.data, idx[:, :, None], axis=1), "gather_rows", (x, vjp))


def matmul_of_product(u: Tensor, v: Tensor, w: Tensor) -> Tensor:
    return T.matmul(u * v, w)


def cut_then_pick(logprobs: Tensor, targets: np.ndarray) -> Tensor:
    """The losses' scores as a cut of the last position and a pick."""
    return pick(logprobs[:, :-1, :], np.asarray(targets, dtype=np.int64))


def per_head_norm_then_gain(h: Tensor, gain: Tensor, eps: float) -> Tensor:
    """mlstm_block's per-head norm as it was: the gainless norm over
    (B, n, H, v), flattened to (B, n, H·v), then the flat gain."""
    b, n, heads, v = h.shape
    return norm_without_gain(h, eps).reshape((b, n, heads * v)) * gain


@pytest.fixture
def composed(monkeypatch):
    """A call that swaps every fused node, and the losses' flat gather, for
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
        monkeypatch.setattr(T, "silu_gated_matmul", silu_then_gated_matmul)
        monkeypatch.setattr(T, "log_softmax", log_softmax_with_temporaries)
        monkeypatch.setattr(T, "gated_matmul", matmul_of_product)
        monkeypatch.setattr(T, "mlstm_chunkwise", mlstm_core_composed)
        monkeypatch.setattr(T, "take_rows", take_rows_adding_at)
        monkeypatch.setattr(T, "gather_rows", gather_rows_adding_at)
        monkeypatch.setattr(losses, "next_symbol_logprobs", cut_then_pick)
        monkeypatch.setattr(training, "next_symbol_logprobs", cut_then_pick)

    return swap


# -- helpers ----------------------------------------------------------------------

def trained_like(name: str, value: np.ndarray, rng) -> np.ndarray:
    """Gains other than the initial ones, and mLSTM gate weights other than
    their initial zeros, whose gradients would otherwise add nothing to the
    normed input's and so hide the order in which the sweep adds them."""
    if name.endswith("norm_g"):
        return rng.uniform(0.5, 1.5, size=value.shape)
    if name.endswith((".w_i", ".w_f")):
        return rng.normal(size=value.shape) * 0.1
    return value


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


def assert_within_rtol(got, want):
    """The value and every gradient within `RTOL` of the composed graph's,
    relative to the largest magnitude of the composed array."""
    (out, grads), (ref_out, ref_grads) = got, want
    assert grads.keys() == ref_grads.keys()
    for k, a, ref in [("out", out, ref_out), *((k, grads[k], ref_grads[k]) for k in grads)]:
        assert a is not None and a.dtype == ref.dtype and a.shape == ref.shape, k
        err = np.max(np.abs(a - ref), initial=0.0)
        assert err <= RTOL[ref.dtype] * np.max(np.abs(ref), initial=0.0), (k, err / np.max(np.abs(ref)))


def compare(build, composed_build, arrays, dtype, exact: bool = True):
    check = assert_bit_identical if exact else assert_within_rtol
    check(run(build, arrays, dtype), run(composed_build, arrays, dtype))


# -- one node at a time ---------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
def test_rmsnorm_with_a_vector_gain_equals_norm_then_gain(dtype):
    for b, n in SHAPES:
        rng = np.random.default_rng(b * n)
        arrays = {"x": rng.normal(size=(b, n, 128)), "g": rng.uniform(0.5, 1.5, size=128)}
        compare(lambda t: T.rmsnorm(t["x"], t["g"], L.RMS_EPS),
                lambda t: norm_then_gain(t["x"], t["g"], L.RMS_EPS), arrays, dtype, exact=False)


@pytest.mark.parametrize("dtype", DTYPES)
def test_rmsnorm_with_a_per_head_gain_equals_norm_reshape_then_gain(dtype):
    """The per-head norm over a transposed (B, n, H, v) view, as mlstm_block
    has it: the flat gain viewed as (H, v), against the gain applied after
    the flattening."""
    heads, v = 4, 32
    for b, n in SHAPES:
        rng = np.random.default_rng(b * n + 1)
        arrays = {"h": rng.normal(size=(b, heads, n, v)), "g": rng.uniform(0.5, 1.5, size=heads * v)}

        def fused(t):
            h = T.transpose(t["h"], (0, 2, 1, 3))
            return T.rmsnorm(h, t["g"].reshape((heads, v)), L.RMS_EPS).reshape((b, n, heads * v))

        compare(fused, lambda t: per_head_norm_then_gain(T.transpose(t["h"], (0, 2, 1, 3)), t["g"], L.RMS_EPS),
                arrays, dtype, exact=False)


@pytest.mark.parametrize("dtype", DTYPES)
def test_silu_keeping_its_input_equals_silu_keeping_its_sigmoid(dtype):
    rng = np.random.default_rng(2)
    compare(lambda t: silu(t["a"]), lambda t: silu_keeping_its_sigmoid(t["a"]),
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

    def build(gated):
        return lambda t: gated(silu(t["x"] @ t["wg"]), t["x"] @ t["wu"], t["wd"])

    for b, n in SHAPES:
        arrays = {"x": rng.normal(size=(b, n, 128)), "wg": rng.normal(size=(128, 256)) * 0.1,
                  "wu": rng.normal(size=(128, 256)) * 0.1, "wd": rng.normal(size=(256, 128)) * 0.1}
        compare(build(T.gated_matmul), build(matmul_of_product), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gated_matmul_at_the_output_gate_site_equals_the_matmul_of_the_product(dtype):
    """u = the normed heads, flattened; v = sigmoid(xn @ w_og); w = w_out."""
    rng = np.random.default_rng(5)
    heads, v = 4, 32

    def build(gated):
        return lambda t: gated(t["h"], T.sigmoid(t["xn"] @ t["wog"]), t["wo"])

    for b, n in SHAPES:
        arrays = {"h": rng.normal(size=(b, n, heads * v)), "xn": rng.normal(size=(b, n, 128)),
                  "wog": rng.normal(size=(128, heads * v)) * 0.1, "wo": rng.normal(size=(heads * v, 128)) * 0.1}
        compare(build(T.gated_matmul), build(matmul_of_product), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_silu_gated_matmul_equals_silu_then_gated_matmul(dtype):
    """a = x @ w_gate, up = x @ w_up, w = w_down, at toy.cfg's sizes."""
    rng = np.random.default_rng(16)

    def build(swiglu):
        return lambda t: swiglu(t["x"] @ t["wg"], t["x"] @ t["wu"], t["wd"])

    for b, n in SHAPES:
        arrays = {"x": rng.normal(size=(b, n, 128)), "wg": rng.normal(size=(128, 256)) * 0.1,
                  "wu": rng.normal(size=(128, 256)) * 0.1, "wd": rng.normal(size=(256, 128)) * 0.1}
        compare(build(T.silu_gated_matmul), build(silu_then_gated_matmul), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, n", SHAPES)
def test_take_rows_equals_its_row_by_row_scatter(dtype, b, n):
    """The byte and suffix embeddings' lookups: ids repeat within and
    across rows, and some table rows are never read."""
    rng = np.random.default_rng(b * n + 19)
    ids = rng.integers(0, 256, size=(b, n))
    compare(lambda t: T.take_rows(t["table"], ids), lambda t: take_rows_adding_at(t["table"], ids),
            {"table": rng.normal(size=(420, 128))}, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, n", SHAPES)
def test_gather_rows_equals_its_row_by_row_scatter(dtype, b, n):
    """Depooling's gather, one patch per byte (sorted, each patch read by
    several bytes), and pooling's, one byte per patch end."""
    rng = np.random.default_rng(b * n + 20)
    patches = max(2, n // 5)
    depool = np.sort(rng.integers(0, patches, size=(b, n)), axis=1)
    ends = np.stack([np.sort(rng.choice(n, size=patches, replace=False)) for _ in range(b)])
    for idx, rows in ((depool, patches), (ends, n)):
        compare(lambda t: T.gather_rows(t["x"], idx), lambda t: gather_rows_adding_at(t["x"], idx),
                {"x": rng.normal(size=(b, rows, 128))}, dtype)


def core_arrays(rng, b: int, n: int, heads: int = 4, saturated: bool = False) -> dict:
    """The chunkwise core's inputs at toy.cfg's head sizes, in the (B, n, NH, ·)
    layout the block's projections have: `core` transposes them, so the node
    sees the block's strided views. The gates are soft-capped as the block
    caps them; saturated, the forget gates sit at ±15 by head and the input
    gates reach 14, so the gate sums run to thousands over 300 bytes."""
    gates = rng.normal(size=(2, b, n, heads))
    if saturated:
        gates[0] = np.linspace(6.0, 14.0, heads) + gates[0]
        gates[1] = np.where(np.arange(heads) % 2, 50.0, -50.0) + gates[1]
    else:
        gates[0], gates[1] = 3.0 * gates[0], 2.0 * gates[1] + 3.0
    i_pre, f_pre = L.GATE_SOFT_CAP * np.tanh(gates / L.GATE_SOFT_CAP)
    return {"q": rng.normal(size=(b, n, heads, 16)), "k": rng.normal(size=(b, n, heads, 16)) * 0.25,
            "v": rng.normal(size=(b, n, heads, 32)), "i": i_pre, "f": f_pre}


def core_inputs(t: dict) -> tuple[Tensor, ...]:
    """q, k, v, i_pre, f_pre as (B, NH, n, ·) views, as mlstm_block has them."""
    return (*(T.transpose(t[name], (0, 2, 1, 3)) for name in "qkv"),
            *(T.transpose(t[name], (0, 2, 1)) for name in "if"))


def core(mlstm, chunk: int):
    return lambda t: mlstm(*core_inputs(t), chunk)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 7, 30, 88, 513])
@pytest.mark.parametrize("chunk", [1, 7, 32, "n"])
def test_mlstm_chunkwise_equals_the_composed_core(dtype, n, chunk):
    """One chunk of n, n chunks of 1, and the splits in between, with and
    without a padded last chunk (88 B in chunks of at most 7 are fifteen of
    6 with 2 padded; 513 B eighty-six of 6 with 3 padded)."""
    chunk = n if chunk == "n" else chunk
    arrays = core_arrays(np.random.default_rng(n * 100 + chunk), 1 if n == 513 else 3, n)
    compare(core(T.mlstm_chunkwise, chunk), core(mlstm_core_composed, chunk), arrays, dtype, exact=False)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, n", SHAPES)
def test_mlstm_chunkwise_equals_the_composed_core_at_the_block_shapes(dtype, b, n):
    arrays = core_arrays(np.random.default_rng(b * n + 21), b, n)
    compare(core(T.mlstm_chunkwise, L.CHUNK), core(mlstm_core_composed, L.CHUNK), arrays, dtype, exact=False)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("chunk, n", [(7, 300), (L.CHUNK, 300), (L.CHUNK, 301), (300, 300)])
def test_mlstm_chunkwise_equals_the_composed_core_with_saturated_gates(dtype, chunk, n):
    arrays = core_arrays(np.random.default_rng(n + chunk), 2, n, saturated=True)
    compare(core(T.mlstm_chunkwise, chunk), core(mlstm_core_composed, chunk), arrays, dtype, exact=False)


@pytest.mark.parametrize("dtype", DTYPES)
def test_mlstm_chunkwise_forward_keeps_every_bit_of_the_composed_core(dtype):
    """Only the backward is derived: with saturated gates, where the
    denominator's rounding moves h the most, the outputs are equal."""
    for chunk, n in [(L.CHUNK, 88), (L.CHUNK, 301), (7, 300)]:
        arrays = core_arrays(np.random.default_rng(n + chunk), 2, n, saturated=True)
        ts = {k: Tensor(np.asarray(a, dtype=dtype)) for k, a in arrays.items()}
        assert np.array_equal(core(T.mlstm_chunkwise, chunk)(ts).data, core(mlstm_core_composed, chunk)(ts).data)


@pytest.mark.parametrize("n, chunk, split", [(88, 32, (4, 22)), (513, 32, (19, 27)), (512, 32, (16, 32)),
                                             (89, 32, (3, 30)), (17, 32, (1, 17)), (300, 7, (50, 6))])
def test_the_chunk_split_pads_least(n, chunk, split):
    """Among ceil(n / chunk) chunks to a quarter more, the count that pads
    least, and the fewest chunks on a tie (89 B: three of 30 with one padded)."""
    assert T.mlstm_chunk_split(n, chunk) == split
    fewest = -(-n // chunk)
    nc, size = split
    assert size <= chunk and nc * size >= n
    assert all(nc * size - n <= c * -(-n // c) - n for c in range(fewest, fewest + -(-fewest // 4) + 1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["q", "k", "v", "i", "f"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_core_input_raises_naming_the_node(dtype, name, value):
    """Also where the output would stay finite: a forget gate at +inf has a
    log-sigmoid of 0."""
    arrays = core_arrays(np.random.default_rng(17), 2, 40)
    inputs = core_inputs({k: Tensor(np.asarray(a, dtype=dtype)) for k, a in arrays.items()})
    inputs["qkvif".index(name)].data[1, 2, 20] = value  # (B, NH, n, ·): head 2, byte 20
    with pytest.raises(NonFiniteError, match="mlstm_chunkwise"):
        T.mlstm_chunkwise(*inputs, L.CHUNK)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, n", [(8, 88), (1, 512), (3, 17)])
def test_pick_then_cut_equals_cut_then_pick(dtype, b, n):
    """The losses' flat gather of the scores (it was a pick over all n rows
    and then a cut) against a cut and a pick, through what the losses compute
    from the scores: the fused CE's mean and the patch sums' cumulative sum."""
    rng = np.random.default_rng(b * n)
    targets = rng.integers(0, 512, size=(b, n - 1))
    ends = np.sort(rng.choice(np.arange(1, n - 1), size=(b, 4)), axis=1)
    ends[:, -1] = n - 1

    def build(pick):
        def loss(t):
            picked = pick(t["lp"], targets)
            ce = losses.ce_fused(picked)
            cs = T.cumsum(picked, axis=1)
            return ce + T.gather_rows(cs.reshape((b, n - 1, 1)), ends - 1).sum()
        return loss

    arrays = {"lp": rng.normal(size=(b, n, 512))}
    compare(build(losses.next_symbol_logprobs), build(cut_then_pick), arrays, dtype)
    # a strided (B, n-1) view would sum in another grouping than the cut
    # rows' picks do, and differ in the last bits on some inputs
    assert losses.next_symbol_logprobs(Tensor(arrays["lp"].astype(dtype)), targets).data.flags.c_contiguous


# nodes built from constants, at toy.cfg's (8, 88) shapes: the forward-only
# passes (evaluation, the teacher's window preparation) build them this way
CONSTANT_NODES = {
    "rmsnorm": lambda c: T.rmsnorm(c(8, 88, 128), c(128), L.RMS_EPS),
    "gated_matmul": lambda c: T.gated_matmul(c(8, 88, 128), c(8, 88, 128), c(128, 128)),
    "silu_gated_matmul": lambda c: T.silu_gated_matmul(c(8, 88, 256), c(8, 88, 256), c(256, 128)),
    "mlstm_chunkwise": lambda c: T.mlstm_chunkwise(c(8, 4, 88, 16), c(8, 4, 88, 16), c(8, 4, 88, 32),
                                                   c(8, 4, 88), c(8, 4, 88), L.CHUNK),
    "take_rows": lambda c: T.take_rows(c(420, 128), np.arange(8 * 88).reshape(8, 88) % 420),
    "gather_rows": lambda c: T.gather_rows(c(8, 88, 128), np.sort(np.arange(8 * 88).reshape(8, 88) % 88)),
    "log_softmax": lambda c: T.log_softmax(c(8, 88, 512)),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_NODES))
def test_a_node_with_no_input_in_the_graph_keeps_no_vjp_state(name):
    """Out of the graph, a node keeps its output and nothing for a backward:
    no VJP, and no array beyond the output's own."""
    rng = np.random.default_rng(22)
    made = []

    def const(*shape):
        made.append(Tensor(np.tanh(rng.normal(size=shape)).astype(np.float32)))
        return made[-1]

    CONSTANT_NODES[name](const)  # the inputs, made before the count starts
    made, inputs = [], iter(made)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = CONSTANT_NODES[name](lambda *shape: next(inputs))
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert not out.requires_grad and out._node.vjps == ()
    assert retained <= out.data.nbytes + 2 * 2**10, (retained, out.data.nbytes)


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
    for k in arrays:
        arrays[k] = trained_like(k, arrays[k], rng)

    def block(t):
        if kind == "ffn":
            return L.ffn_block(t, prefix, t["x"])
        return L.mlstm_block(t, prefix, t["x"], CFG.mlstm_heads, CFG.mlstm_qk_dim, CFG.mlstm_v_dim)

    fused = run(block, arrays, dtype)
    composed()
    assert_within_rtol(fused, run(block, arrays, dtype))


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_stage2_loss_equals_its_composed_graph(composed, dtype):
    """forward_full, the boundary BCE and the fused CE at toy.cfg's sizes:
    the loss and every parameter's gradient."""
    rng = np.random.default_rng(7)
    params = init_byte_model(CFG, rng)
    for k, t in params.items():
        t.data[...] = trained_like(k, t.data, rng)
    ids = rng.integers(0, 256, size=(8, 88))
    sfx = rng.integers(0, CFG.vocab_size, size=(8, 88))

    def loss():
        p = ParamStore({k: Tensor(t.data.astype(dtype), requires_grad=True) for k, t in params.items()})
        out = forward_full(p, CFG, ids, sfx)
        targets = fused_targets(ids[:, 1:], out["mask"][:, 1:])
        picked = losses.next_symbol_logprobs(out["logprobs"], targets)
        total = losses.boundary_bce(out["p"], out["mask"]) + losses.ce_fused(picked)
        total.backward()
        return total.data, {k: t.grad for k, t in p.items()}

    fused = loss()
    composed()
    assert_within_rtol(fused, loss())


@pytest.fixture(scope="module")
def conversion():
    """toy.cfg's byte model, its teacher, and a BPE vocabulary of toy.cfg's
    size trained on generated text."""
    docs = [utf8_to_bytes(t) + b"\x00" for t in markov_word_docs(seed=5, n_docs=40)]
    vocab = train_bpe(docs, int(TOY["tokenizer.vocab_size"]))
    cfg = build_model_config(TOY, vocab.size)
    rng = np.random.default_rng(18)
    teacher = init_teacher(cfg, rng)
    params = init_byte_model(cfg, rng, teacher)
    for k, t in params.items():
        t.data[...] = trained_like(k, t.data, rng)
    return docs, vocab, cfg, teacher, params


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("b, n", [(8, 88), (2, 17)])
def test_steps_equal_their_composed_graphs(composed, conversion, stage, b, n, dtype):
    """A whole stage-1 step (probe, encoder match, distillation) and a whole
    stage-2 step, over three chunks of 30 B and over one chunk of 17 B: the
    loss and every parameter's gradient."""
    docs, vocab, cfg, teacher, params = conversion
    tc = training.TrainConfig(stage=stage, steps=1, max_bytes=n)
    contents = [d[: n - 1] for d in docs if len(d) >= n - 1][:b]
    batch = training.prepare_windows(contents, vocab, cfg, teacher if stage == 1 else None, tc.strategy())
    step = training.stage1_step if stage == 1 else training.stage2_step

    def loss():
        p = ParamStore({k: Tensor(t.data.astype(dtype), requires_grad=True) for k, t in params.items()})
        grads = {}

        class Recording(AdamW):  # the step drops the gradients it applies: read them first
            def step(self):
                grads.update({k: t.grad for k, t in p.items() if t.grad is not None})
                return 0.0

        total = step(p, cfg, tc, Recording({"all": list(p.values())}), batch)["total"]
        return np.asarray(total, dtype=dtype), grads

    fused = loss()
    composed()
    assert_within_rtol(fused, loss())

"""Engine-level checks: forward values, backward correctness against central
finite differences, shape policing, the non-finite guard and the malloc
thresholds the engine fixes at import."""

import ctypes
import gc
import inspect
import re
import weakref
from functools import partial

import numpy as np
import pytest

from bytepatch import tensor as T
from bytepatch.tensor import DtypeError, GraphError, NonFiniteError, ShapeError, Tensor
from gradcheck import finite_difference_check
from test_fused_nodes import COMPOSED_OPS, absolute, logsigmoid, maximum, outer_add, pick, silu

RNG = np.random.default_rng(0)
ANGLES = np.linspace(0.3, 2.5, 6).reshape(3, 2)  # rotary angles: 3 positions x 2 pairs


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def test_softmax_uniform():
    out = T.softmax(t([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(7, 11)) * 10
    out = T.softmax(t(x))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-12)


def test_matmul_identity():
    a = RNG.normal(size=(3, 4))
    out = T.matmul(t(np.eye(3)), t(a))
    np.testing.assert_allclose(out.data, a, atol=0)


def test_rmsnorm_hand_value():
    out = T.rmsnorm(t([3.0, 4.0]), t([2.0, 0.5]))
    np.testing.assert_allclose(out.data, np.array([6.0, 2.0]) / np.sqrt(12.5), rtol=1e-15)


def test_rmsnorm_unit_mean_square():
    x = RNG.normal(size=(5, 16)) * 3
    out = T.rmsnorm(t(x), t(np.ones(16)))
    ms = (out.data**2).mean(axis=-1)
    np.testing.assert_allclose(ms, np.ones(5), atol=1e-10)


def test_rmsnorm_gain_must_be_the_trailing_axes_of_x():
    """A gain spans x's trailing axes and broadcasts over the leading ones,
    like the per-head (H, v) gain on a (B, n, H, v) x; a gain that x would
    broadcast along one of its own axes raises."""
    x = t(RNG.normal(size=(2, 3, 4)))
    for shape in [(1, 4), (3, 1)]:
        with pytest.raises(ShapeError, match="trailing axes"):
            T.rmsnorm(x, t(np.ones(shape)))
    h = t(RNG.normal(size=(2, 5, 3, 4)))
    gain = t(RNG.uniform(0.5, 1.5, size=(3, 4)))
    out = T.rmsnorm(h, gain)
    out.sum().backward()
    normed = h.data / np.sqrt((h.data ** 2).mean(axis=-1, keepdims=True))
    np.testing.assert_allclose(out.data, normed * gain.data, rtol=1e-12)
    np.testing.assert_allclose(gain.grad, normed.sum(axis=(0, 1)), rtol=1e-12)


def test_backward_square():
    x = t(3.0)
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_log_sigmoid_at_zero():
    x = t(0.0)
    y = T.log(T.sigmoid(x))
    y.backward()
    assert x.grad == pytest.approx(0.5)


def test_backward_fanout_accumulates():
    x = t(1.5)
    y = x + x
    y.backward()
    assert x.grad == pytest.approx(2.0)


def test_non_scalar_backward_rejected():
    x = t([1.0, 2.0])
    with pytest.raises(ShapeError):
        (x * x).backward()


def test_backward_needs_a_tensor_in_the_graph():
    x = t([1.0, 2.0])
    y = (x * x).sum()
    y.backward()
    first = x.grad.copy()
    with pytest.raises(GraphError):  # the sweep took y out of the graph
        y.backward()
    np.testing.assert_array_equal(x.grad, first)
    with pytest.raises(GraphError):
        Tensor(np.array(1.0)).backward()


def _sweep_keeping_the_graph(root: Tensor) -> None:
    """The reference sweep, which frees nothing: every VJP in reverse
    topological order, every intermediate gradient kept to the end."""
    order = T._toposort(root._node)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        for parent, vjp in node.vjps:
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g


def _fan_out(x: Tensor, w: Tensor) -> tuple[Tensor, Tensor]:
    """The loss and its intermediate h: x feeds a mul twice and an add; h
    feeds three ops; a keepdims sum, whose VJP hands back a read-only
    broadcast view, feeds an add."""
    h = x * x + x
    s = h.sum(axis=-1, keepdims=True)
    y = T.exp(h * 0.1) * h + (h @ w) + s
    return (y * y).sum(), h


def test_freeing_sweep_gives_bit_identical_leaf_grads():
    xv, wv = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 4))
    x0, w0 = t(xv), t(wv)
    _sweep_keeping_the_graph(_fan_out(x0, w0)[0])
    x1, w1 = t(xv), t(wv)
    _fan_out(x1, w1)[0].backward()
    np.testing.assert_array_equal(x1.grad, x0.grad)
    np.testing.assert_array_equal(w1.grad, w0.grad)


def test_backward_releases_every_intermediate():
    x, w = t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(4, 4)))
    loss, h = _fan_out(x, w)
    nodes = T._toposort(loss._node)
    inner = [n for n in nodes if n.vjps]
    assert h._node in inner
    loss.backward()
    assert len(inner) > 5 and all(n.grad is None and n.vjps == () and not n.requires_grad for n in inner)
    assert x.grad is not None and w.grad is not None and x.requires_grad and w.requires_grad
    # an intermediate reused after the sweep is a constant: it records no VJP
    reused = h * 2.0
    assert reused._node.vjps == () and not reused.requires_grad
    assert [p for p, _ in (h * x)._node.vjps] == [x._node]


def test_an_intermediate_no_vjp_reads_is_freed_when_dropped():
    """A matmul output feeding an add is read by no VJP, so the graph does not
    keep it: once the caller drops it, its array is collected, and the sweep
    still gives the reference sweep's leaf gradients bit for bit."""
    xv, wv = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 4))

    def loss_dropping_h(x, w):
        h = x @ w
        freed = weakref.ref(h.data)
        s = h + x
        del h
        gc.collect()
        return (s * s).sum(), freed

    x0, w0 = t(xv), t(wv)
    loss, _ = loss_dropping_h(x0, w0)
    _sweep_keeping_the_graph(loss)
    x1, w1 = t(xv), t(wv)
    loss, freed = loss_dropping_h(x1, w1)
    assert freed() is None
    loss.backward()
    np.testing.assert_array_equal(x1.grad, x0.grad)
    np.testing.assert_array_equal(w1.grad, w0.grad)


def _u(*shape):
    return t(RNG.uniform(0.5, 1.5, size=shape))


# one build per graph op, every input in the graph, and per op that only the
# composed oracles in test_fused_nodes use
GRAPH_OPS = {
    "add": lambda: T.add(_u(2, 3, 4), _u(4)),
    "sub": lambda: T.sub(_u(2, 3, 4), _u(4)),
    "mul": lambda: T.mul(_u(2, 3, 4), _u(4)),
    "div": lambda: T.div(_u(2, 3, 4), _u(4)),
    "exp": lambda: T.exp(_u(2, 3)),
    "log": lambda: T.log(_u(2, 3)),
    "sqrt": lambda: T.sqrt(_u(2, 3)),
    "sigmoid": lambda: T.sigmoid(_u(2, 3)),
    "clip": lambda: T.clip(_u(2, 3), 0.7, 1.2),
    "log1mexp": lambda: T.log1mexp(T.sub(_u(2, 3), _u(2, 3) + 2.0)),
    "softcap": lambda: T.softcap(_u(2, 3), 2.0),
    "reduce_sum": lambda: T.reduce_sum(_u(2, 3, 4), 1),
    "reduce_mean": lambda: T.reduce_mean(_u(2, 3, 4), 1),
    "cumsum": lambda: T.cumsum(_u(2, 3), 1),
    "reshape": lambda: T.reshape(_u(2, 3, 4), (6, 4)),
    "transpose": lambda: T.transpose(_u(2, 3, 4), (0, 2, 1)),
    "index": lambda: T.index(_u(2, 3, 4), (slice(None), np.array([0, 2]))),
    "concat": lambda: T.concat([_u(2, 3), _u(2, 1)], axis=1),
    "matmul": lambda: T.matmul(_u(2, 3, 4), _u(4, 5)) + T.matmul(_u(3, 4), _u(2, 4, 5)).sum(axis=0),
    "take_rows": lambda: T.take_rows(_u(5, 4), np.array([[0, 3], [3, 1]])),
    "gather_rows": lambda: T.gather_rows(_u(2, 3, 4), np.array([[0, 2], [1, 1]])),
    "softmax": lambda: T.softmax(_u(2, 3)),
    "log_softmax": lambda: T.log_softmax(_u(2, 3)),
    "rmsnorm": lambda: T.rmsnorm(_u(2, 3), _u(3)),
    "gated_matmul": lambda: T.gated_matmul(_u(2, 3, 4), _u(2, 3, 4), _u(4, 5)),
    "silu_gated_matmul": lambda: T.silu_gated_matmul(_u(2, 3, 4), _u(2, 3, 4), _u(4, 5)),
    "mlstm_chunkwise": lambda: T.mlstm_chunkwise(_u(2, 2, 5, 3), _u(2, 2, 5, 3), _u(2, 2, 5, 4),
                                                 _u(2, 2, 5), _u(2, 2, 5), 2),
    "rope": lambda: T.rope(_u(2, 3, 4), np.cos(ANGLES), np.sin(ANGLES)),
    **{name: partial(build, _u) for name, build in COMPOSED_OPS.items()},
}


def _tensors_held_by(vjp) -> list[Tensor]:
    """The Tensors a VJP can reach through its closure cells and defaults,
    following nested functions and containers."""
    found, seen, stack = [], set(), [vjp]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


def test_every_graph_op_is_audited():
    """Every op built by either node constructor, `_make` or `_make_shared`,
    has a GRAPH_OPS entry."""
    makers = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and name not in ("_make", "_make_shared")
              and re.search(r"_make(_shared)?\(", inspect.getsource(fn))}
    assert makers <= set(GRAPH_OPS), sorted(makers - set(GRAPH_OPS))


def _input_grads_in_order(name: str, reverse: bool, monkeypatch) -> tuple[list, list[int]]:
    """A fresh GRAPH_OPS[name] output node's input gradients from one output
    gradient, its VJPs called in input order or in reverse, and the inputs
    whose returned gradient changed once every VJP had run. The inputs come
    from a reseeded RNG, so both orders see the same node."""
    monkeypatch.setitem(globals(), "RNG", np.random.default_rng(5))
    out = GRAPH_OPS[name]()
    vjps = [vjp for _, vjp in out._node.vjps]
    g = np.random.default_rng(6).uniform(-1.0, 1.0, out.shape).astype(out.dtype)
    grads, kept = [None] * len(vjps), [None] * len(vjps)
    for i in reversed(range(len(vjps))) if reverse else range(len(vjps)):
        grads[i] = vjps[i](g)
        kept[i] = np.array(grads[i], copy=True)
    return grads, [i for i in range(len(vjps)) if grads[i].tobytes() != kept[i].tobytes()]


def test_vjps_give_the_same_gradients_in_either_order(monkeypatch):
    """Every node with two or more inputs in the graph gives each input the
    same gradient bits whichever of its VJPs runs first, and no VJP changes
    a gradient that a sibling handed out."""
    checked, failures = [], []
    for name in sorted(GRAPH_OPS):
        forward, changed = _input_grads_in_order(name, False, monkeypatch)
        if len(forward) < 2:
            continue
        checked.append(name)
        backward, changed_backward = _input_grads_in_order(name, True, monkeypatch)
        failures += [(name, i, "changed by a sibling") for i in changed + changed_backward]
        failures += [(name, i, "differs between orders") for i, (a, b) in enumerate(zip(forward, backward))
                     if a.shape != b.shape or a.tobytes() != b.tobytes()]
    assert {"gated_matmul", "silu_gated_matmul", "mlstm_chunkwise", "rmsnorm", "add"} <= set(checked)
    assert failures == []


@pytest.mark.parametrize("name", sorted(GRAPH_OPS))
def test_no_vjp_holds_a_tensor(name):
    """A VJP closes over the arrays and shapes it reads, never over a Tensor,
    so the graph keeps no value alive that its VJPs do not read."""
    out = GRAPH_OPS[name]()
    assert out.requires_grad
    pairs = [pair for node in T._toposort(out._node) for pair in node.vjps]
    assert pairs and all(isinstance(parent, T.Node) for parent, _ in pairs)
    assert [_tensors_held_by(vjp) for _, vjp in pairs if _tensors_held_by(vjp)] == []


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def test_blocks_below_the_mmap_threshold_stay_on_the_heap():
    """A 16-MiB array, far above glibc's default 128-KiB mmap threshold,
    comes from the heap, and freeing it leaves the heap its pages."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version
        mallinfo2 = libc.mallinfo2  # glibc 2.33 and later
    except (OSError, TypeError, AttributeError):
        pytest.skip("needs glibc 2.33 or later")
    mallinfo2.restype = _Mallinfo2
    mapped = mallinfo2().hblkhd
    a = np.ones(T.MMAP_THRESHOLD // 2 // 8)
    during = mallinfo2()
    del a
    after = mallinfo2()
    assert during.hblkhd == mapped
    assert after.arena == during.arena


def test_nonfinite_surfaces():
    with pytest.raises(NonFiniteError):
        T.log(t([0.0]))
    with pytest.raises(NonFiniteError):
        T.div(t([1.0]), t([0.0]))


# operand shapes and whether trailing-axis broadcasting allows them
BROADCASTS = [
    ((2, 3, 4), (4,), True),  # a trailing suffix
    ((2, 3, 4), (2, 3, 1), True),  # trailing size-1 expansion
    ((3, 4), (2, 3, 4), True),
    ((), (2, 3), True),
    ((2, 1, 1), (2, 3, 4), True),
    ((4, 1), (4, 5), True),
    ((3, 1, 5), (3, 4, 5), False),  # interior size-1 expansion
    ((1, 3, 4), (2, 3, 4), False),
    ((2, 1, 4), (2, 3, 1), False),
    ((2, 3), (3, 2), False),
]


def test_broadcast_policy():
    for sa, sb, allowed in BROADCASTS:
        a, b = t(RNG.normal(size=sa)), t(RNG.normal(size=sb))
        for x, y in ((a, b), (b, a)):
            if allowed:
                assert (x + y).shape == (x * y).shape == np.broadcast_shapes(sa, sb)
            else:
                for op in (T.add, T.mul):
                    with pytest.raises(ShapeError):
                        op(x, y)


def test_broadcast_backward_shapes():
    a = t(RNG.normal(size=(2, 3, 4)))
    b = t(RNG.normal(size=(4,)))
    ((a * b).sum()).backward()
    assert a.grad.shape == (2, 3, 4)
    assert b.grad.shape == (4,)


MIXABLE = {
    "add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div, "maximum": maximum, "matmul": T.matmul,
    "outer_add": outer_add, "concat": lambda a, b: T.concat([a, b], axis=-1),
}


@pytest.mark.parametrize("name", MIXABLE)
def test_mixed_float32_float64_operands_raise(name):
    op = MIXABLE[name]
    x = RNG.uniform(1.0, 2.0, size=(3, 3))
    x32, x64 = Tensor(x.astype(np.float32)), Tensor(x)
    for a, b in ((x32, x64), (x64, x32)):
        with pytest.raises(DtypeError):
            op(a, b)
    assert op(x32, x32).dtype == np.float32 and op(x64, x64).dtype == np.float64


def test_values_keep_float32_and_python_numbers_take_their_partners_dtype():
    x = Tensor(RNG.uniform(1.0, 2.0, size=(2, 3)).astype(np.float32), requires_grad=True)
    outs = [x + 1, 2 - x, x * 0.5, 1.0 / x, x / 3, -x, x.mean(), T.clip(x, np.float64(1.2), 1.8),
            x * np.float64(0.5)]
    assert [o.dtype for o in outs] == [np.float32] * len(outs)
    sum(o.sum() for o in outs).backward()
    assert x.grad.dtype == np.float32
    # non-float values still become float64, and a float64 array stays one
    assert Tensor(np.array([True, False])).dtype == np.float64
    with pytest.raises(DtypeError):
        x * Tensor(np.float64(0.5))


def test_float32_norm_of_zero_has_a_finite_gradient():
    # the sqrt clamp is the dtype's smallest normal: a float64 1e-150 is 0 in float32
    for dtype in (np.float32, np.float64):
        x = Tensor(np.zeros(4, dtype=dtype), requires_grad=True)
        T.sqrt((x * x).sum()).backward()
        assert x.grad.dtype == dtype and np.array_equal(x.grad, np.zeros(4))


@pytest.mark.parametrize("b, n", [(8, 88), (1, 512)])
def test_matmul_against_a_weight_matches_the_batched_form(b, n):
    """A batched operand against a 2-D weight: np.matmul's forward bits, and
    gradients from GEMMs over the (B·n, d) rows within 1e-12 of the per-batch
    products."""
    rng = np.random.default_rng(b)
    a, w, g = rng.normal(size=(b, n, 128)), rng.normal(size=(128, 256)), rng.normal(size=(b, n, 256))
    ta, tw = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
    out = T.matmul(ta, tw)
    assert np.array_equal(out.data, np.matmul(a, w))
    (out * Tensor(g)).sum().backward()
    ref_a = np.matmul(g, w.T)
    ref_w = np.matmul(np.swapaxes(a, -1, -2), g).sum(axis=0)
    for got, ref in ((ta.grad, ref_a), (tw.grad, ref_w)):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_matmul_requires_matching_batch():
    with pytest.raises(ShapeError):
        T.matmul(t(RNG.normal(size=(2, 3, 4))), t(RNG.normal(size=(3, 4, 5))))


def test_gated_matmul_needs_equal_gates_and_a_weight():
    u = t(RNG.normal(size=(2, 3, 4)))
    for v, w in (((2, 3, 1), (4, 5)), ((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (3, 5))):
        with pytest.raises(ShapeError):
            T.gated_matmul(u, t(RNG.normal(size=v)), t(RNG.normal(size=w)))


def test_cumsum_value_and_grad():
    x = RNG.normal(size=(4, 5))

    def loss(v):
        return (T.cumsum(v, axis=0) * Tensor(np.arange(20.0).reshape(4, 5))).sum()

    assert finite_difference_check(loss, [x]) < 1e-8


@pytest.mark.parametrize(
    "name,fn,shapes",
    [
        ("add", lambda a, b: (a + b).sum(), [(3, 4), (3, 4)]),
        ("mul_bcast", lambda a, b: (a * b).sum(), [(3, 4), (4,)]),
        ("div", lambda a, b: (a / (b * b + 1.0)).sum(), [(3, 4), (3, 4)]),
        ("matmul", lambda a, b: T.matmul(a, b).sum(), [(3, 4), (4, 5)]),
        ("matmul_batched", lambda a, b: T.matmul(a, b).sum(), [(2, 3, 4), (2, 4, 5)]),
        ("matmul_weight", lambda a, b: T.matmul(a, b).sum(), [(2, 3, 4), (4, 5)]),
        ("exp", lambda a: T.exp(a).sum(), [(3, 3)]),
        ("log", lambda a: T.log(a * a + 0.5).sum(), [(3, 3)]),
        ("sqrt", lambda a: T.sqrt(a * a + 0.3).sum(), [(3, 3)]),
        ("rope", lambda a: (T.rope(a, np.cos(ANGLES), np.sin(ANGLES)) * a * a).sum(), [(3, 4)]),
        ("sigmoid", lambda a: T.sigmoid(a).sum(), [(3, 3)]),
        ("logsigmoid", lambda a: logsigmoid(a).sum(), [(3, 3)]),
        ("silu", lambda a: silu(a).sum(), [(3, 3)]),
        ("abs", lambda a: absolute(a + 0.1).sum(), [(3, 3)]),
        ("softcap", lambda a: T.softcap(a * 5.0, 15.0).sum(), [(3, 3)]),
        ("maximum", lambda a, b: maximum(a, b).sum(), [(3, 4), (3, 4)]),
        ("softmax", lambda a: (T.softmax(a) * T.softmax(a)).sum(), [(4, 6)]),
        ("log_softmax", lambda a: (T.log_softmax(a)[..., 0]).sum(), [(4, 6)]),
        ("rmsnorm", lambda a, g: (T.rmsnorm(a, g) * T.rmsnorm(a * 2.0 + 0.3, g)).sum(), [(4, 6), (6,)]),
        ("mean", lambda a: a.mean(axis=-1).sum(), [(4, 6)]),
        ("index", lambda a: (a[1:, 2:4] * a[:-1, :2]).sum(), [(4, 6)]),
        ("concat", lambda a, b: T.concat([a, b], axis=1).sum(), [(3, 2), (3, 4)]),
        ("transpose", lambda a: T.matmul(a, a.swap_last()).sum(), [(3, 4)]),
        ("reshape", lambda a: (a.reshape(2, 6) * a.reshape(2, 6)).sum(), [(3, 4)]),
        ("clip", lambda a: T.clip(a, -0.5, 0.5).sum(), [(4, 4)]),
        ("rmsnorm_head_gain", lambda a, g: (T.rmsnorm(a, g) * a).sum(), [(2, 3, 4), (3, 4)]),
        ("gated_matmul", lambda u, v, w: (lambda y: (y * y).sum())(T.gated_matmul(u, v, w)),
         [(2, 3, 4), (2, 3, 4), (4, 5)]),
        ("silu_gated_matmul", lambda a, u, w: (lambda y: (y * y).sum())(T.silu_gated_matmul(a, u, w)),
         [(2, 3, 4), (2, 3, 4), (4, 5)]),
        # three chunks of 2, the last one padded, and one chunk of 5
        ("mlstm_chunkwise", lambda q, k, v, i, f: (lambda y: (y * y).sum())(T.mlstm_chunkwise(q, k, v, i, f, 2)),
         [(2, 2, 5, 3), (2, 2, 5, 3), (2, 2, 5, 4), (2, 2, 5), (2, 2, 5)]),
        ("mlstm_one_chunk", lambda q, k, v, i, f: (lambda y: (y * y).sum())(T.mlstm_chunkwise(q, k, v, i, f, 5)),
         [(2, 2, 5, 3), (2, 2, 5, 3), (2, 2, 5, 4), (2, 2, 5), (2, 2, 5)]),
    ],
)
def test_primitive_gradients(name, fn, shapes):
    rng = np.random.default_rng(hash(name) % 2**32)
    points = [rng.normal(size=s) for s in shapes]
    assert finite_difference_check(fn, points) < 1e-5, name


def test_log1mexp_value_and_grad():
    x = np.array([-0.05, -0.5, -2.0, -20.0])
    out = T.log1mexp(t(x))
    # extended-precision reference (the naive float64 form cancels at -20)
    ref = np.log1p(-np.exp(x.astype(np.longdouble))).astype(np.float64)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)

    def loss(v):
        return T.log1mexp(v - 3.0).sum()

    assert finite_difference_check(loss, [RNG.normal(size=(5,))]) < 1e-7


def test_take_rows_grad():
    table = t(RNG.normal(size=(6, 3)))
    idx = np.array([[0, 2], [2, 5]])
    out = T.take_rows(table, idx)
    assert out.shape == (2, 2, 3)
    out.sum().backward()
    expected = np.zeros((6, 3))
    np.add.at(expected, idx, np.ones((2, 2, 3)))
    np.testing.assert_allclose(table.grad, expected)


def test_gather_rows_grad():
    x = t(RNG.normal(size=(2, 5, 3)))
    idx = np.array([[0, 0, 4], [1, 2, 3]])
    out = T.gather_rows(x, idx)
    assert out.shape == (2, 3, 3)
    (out * out).sum().backward()
    assert x.grad.shape == (2, 5, 3)
    # duplicate index (0,0) must accumulate
    assert np.all(x.grad[0, 0] != 0)


def test_gathers_reject_indices_outside_their_rows():
    """An index outside [0, R) raises, naming the range: a negative one would
    wrap to the last rows, and one past an entry's R would read the next
    entry's rows of gather_rows' flat (B·R, d) view, as would indices for
    fewer entries than x has."""
    for idx in ([[3, 0]], [[0, -1]]):
        with pytest.raises(ShapeError, match=r"\[0, 3\)"):
            T.take_rows(_u(3, 1), np.array(idx))
    for idx in ([[3], [0]], [[0], [-1]]):
        with pytest.raises(ShapeError, match=r"\[0, 3\)"):
            T.gather_rows(_u(2, 3, 1), np.array(idx))
    with pytest.raises(ShapeError, match=r"idx \(B, P\)"):  # one row of indices for two entries
        T.gather_rows(_u(2, 3, 1), np.array([[0]]))


def test_detach_blocks_gradient():
    x = t(2.0)
    y = x.detach() * x
    y.backward()
    assert x.grad == pytest.approx(2.0)  # only the live branch


def test_backward_skips_inputs_outside_the_graph():
    x = t([[1.0, -2.0]])
    w = t([[1.0, 2.0], [3.0, 4.0]], grad=False)  # frozen weight
    c = Tensor(np.array([10.0, 20.0]), _op="const")
    (x @ w + c).sum().backward()
    assert w.grad is None and c.grad is None
    np.testing.assert_array_equal(x.grad, [[3.0, 7.0]])  # row sums of w


def test_evaluate_deterministic():
    x = RNG.normal(size=(8, 8))
    w = RNG.normal(size=(8, 8))

    def run():
        return T.softmax(T.matmul(T.rmsnorm(t(x, grad=False), t(np.ones(8), grad=False)), t(w, grad=False))).data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_finite_difference_check_matmul_tight():
    rng = np.random.default_rng(3)
    weights = Tensor(rng.normal(size=(3, 5)))

    def loss(a, b):
        return (T.matmul(a, b) * weights).sum()

    err = finite_difference_check(loss, [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))])
    assert err < 1e-6


def test_softmax_cross_entropy_composite():
    rng = np.random.default_rng(4)
    targets = rng.integers(0, 5, size=4)

    def loss(logits):
        lp = T.log_softmax(logits)
        return -pick(lp, targets).mean()

    assert finite_difference_check(loss, [rng.normal(size=(4, 5))]) < 1e-5

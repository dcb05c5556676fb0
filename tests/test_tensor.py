"""Engine-level checks: forward values, backward correctness against central
finite differences, shape policing, the non-finite guard and the malloc
thresholds the engine fixes at import."""

import ctypes

import numpy as np
import pytest

from bytepatch import tensor as T
from bytepatch.tensor import DtypeError, GraphError, NonFiniteError, ShapeError, Tensor
from gradcheck import finite_difference_check

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
    out = T.rmsnorm(t([3.0, 4.0]))
    np.testing.assert_allclose(out.data, np.array([3.0, 4.0]) / np.sqrt(12.5), rtol=1e-15)


def test_rmsnorm_unit_mean_square():
    x = RNG.normal(size=(5, 16)) * 3
    out = T.rmsnorm(t(x))
    ms = (out.data**2).mean(axis=-1)
    np.testing.assert_allclose(ms, np.ones(5), atol=1e-10)


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
    order = T._toposort(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        for parent, vjp in node._vjps:
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g


def _fan_out(x: Tensor, w: Tensor) -> Tensor:
    """x feeds a mul twice and an add; h feeds three ops; a keepdims sum,
    whose VJP hands back a read-only broadcast view, feeds an add."""
    h = x * x + x
    s = h.sum(axis=-1, keepdims=True)
    y = T.exp(h * 0.1) * h + (h @ w) + s
    return (y * y).sum()


def test_freeing_sweep_gives_bit_identical_leaf_grads():
    xv, wv = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 4))
    x0, w0 = t(xv), t(wv)
    _sweep_keeping_the_graph(_fan_out(x0, w0))
    x1, w1 = t(xv), t(wv)
    _fan_out(x1, w1).backward()
    np.testing.assert_array_equal(x1.grad, x0.grad)
    np.testing.assert_array_equal(w1.grad, w0.grad)


def test_backward_releases_every_intermediate():
    x, w = t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(4, 4)))
    loss = _fan_out(x, w)
    nodes = T._toposort(loss)
    inner = [n for n in nodes if n._vjps]
    loss.backward()
    assert len(inner) > 5 and all(n.grad is None and n._vjps == () and not n.requires_grad for n in inner)
    assert x.grad is not None and w.grad is not None and x.requires_grad and w.requires_grad
    # an intermediate reused after the sweep is a constant: it records no VJP
    reused = inner[-2] * 2.0
    assert reused._vjps == () and not reused.requires_grad
    assert [p for p, _ in (inner[-2] * x)._vjps] == [x]


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


def test_broadcast_policy():
    # trailing suffix and trailing size-1 expansion are allowed
    a = t(RNG.normal(size=(2, 3, 4)))
    b = t(RNG.normal(size=(4,)))
    assert (a + b).shape == (2, 3, 4)
    c = t(RNG.normal(size=(2, 3, 1)))
    assert (a * c).shape == (2, 3, 4)
    # interior size-1 expansion is not
    with pytest.raises(ShapeError):
        T.add(t(RNG.normal(size=(3, 1, 5))), t(RNG.normal(size=(3, 4, 5))))


def test_broadcast_backward_shapes():
    a = t(RNG.normal(size=(2, 3, 4)))
    b = t(RNG.normal(size=(4,)))
    ((a * b).sum()).backward()
    assert a.grad.shape == (2, 3, 4)
    assert b.grad.shape == (4,)


MIXABLE = {
    "add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div, "maximum": T.maximum, "matmul": T.matmul,
    "outer_add": T.outer_add, "concat": lambda a, b: T.concat([a, b], axis=-1),
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
        ("logsigmoid", lambda a: T.logsigmoid(a).sum(), [(3, 3)]),
        ("silu", lambda a: T.silu(a).sum(), [(3, 3)]),
        ("abs", lambda a: T.absolute(a + 0.1).sum(), [(3, 3)]),
        ("softcap", lambda a: T.softcap(a * 5.0, 15.0).sum(), [(3, 3)]),
        ("maximum", lambda a, b: T.maximum(a, b).sum(), [(3, 4), (3, 4)]),
        ("softmax", lambda a: (T.softmax(a) * T.softmax(a)).sum(), [(4, 6)]),
        ("log_softmax", lambda a: (T.log_softmax(a)[..., 0]).sum(), [(4, 6)]),
        ("rmsnorm", lambda a: (T.rmsnorm(a) * T.rmsnorm(a * 2.0 + 0.3)).sum(), [(4, 6)]),
        ("mean", lambda a: a.mean(axis=-1).sum(), [(4, 6)]),
        ("index", lambda a: (a[1:, 2:4] * a[:-1, :2]).sum(), [(4, 6)]),
        ("concat", lambda a, b: T.concat([a, b], axis=1).sum(), [(3, 2), (3, 4)]),
        ("transpose", lambda a: T.matmul(a, a.swap_last()).sum(), [(3, 4)]),
        ("reshape", lambda a: (a.reshape(2, 6) * a.reshape(2, 6)).sum(), [(3, 4)]),
        ("clip", lambda a: T.clip(a, -0.5, 0.5).sum(), [(4, 4)]),
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


def test_pick_grad():
    x = t(RNG.normal(size=(2, 4, 6)))
    idx = RNG.integers(0, 6, size=(2, 4))
    out = T.pick(x, idx)
    assert out.shape == (2, 4)
    out.sum().backward()
    assert x.grad.sum() == pytest.approx(8.0)


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
        return T.softmax(T.matmul(T.rmsnorm(t(x, grad=False)), t(w, grad=False))).data

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
        return -T.pick(lp, targets).mean()

    assert finite_difference_check(loss, [rng.normal(size=(4, 5))]) < 1e-5

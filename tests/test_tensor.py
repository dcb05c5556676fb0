"""Engine-level checks: forward values, backward correctness against central
finite differences, shape policing, and the non-finite guard."""

import numpy as np
import pytest

from bytepatch import tensor as T
from bytepatch.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    finite_difference_check,
)

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

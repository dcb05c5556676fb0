"""Dense tensor engine with reverse-mode autodiff on top of numpy arrays.

The graph is built define-by-run: every op records its parents and a closure
that routes the output gradient back to them. Calling ``backward()`` on a
scalar walks the recorded graph once in reverse topological order. Values
are float64 throughout.

Where the graph-free code (the decode step path, the sampler) needs an op's
forward, the op's arithmetic is a public ``*_np`` kernel, so both paths
compute the same values.

Every op checks its output for NaN/Inf and raises ``NonFiniteError`` instead
of propagating silently. Broadcasting is restricted to trailing-axis
expansion (suffix alignment plus size-1 expansion of trailing axes); anything
else requires an explicit reshape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _broadcast_ok(sa: tuple[int, ...], sb: tuple[int, ...]) -> bool:
    """Trailing-axis broadcasting: right-aligned axes must match, and any
    size-1 expansion must sit in a trailing block of that operand's axes."""
    ra, rb = sa[::-1], sb[::-1]
    n = max(len(ra), len(rb))
    exp_a: list[bool] = []
    exp_b: list[bool] = []
    for i in range(n):
        da = ra[i] if i < len(ra) else None
        db = rb[i] if i < len(rb) else None
        if da is None or db is None:
            continue
        if da != db and da != 1 and db != 1:
            return False
        exp_a.append(da == 1 and db != 1)
        exp_b.append(db == 1 and da != 1)
    # expanded axes (from the right) must be contiguous from position 0
    for exp in (exp_a, exp_b):
        seen_real = False
        for e in exp:
            if not e:
                seen_real = True
            elif seen_real:
                return False
    return True


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Tensor:
    """A dense array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "leaf",
    ):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        arr = np.asarray(data)
        if arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._op = _op
        _check_finite(arr, _op)

    # -- introspection ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """A view of the same values cut off from the graph."""
        return Tensor(self.data, requires_grad=False, _op="detach")

    # -- backward -----------------------------------------------------------
    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # free intermediate grads/closures so the graph can be collected
        for node in order:
            if node._backward is not None:
                node.grad = None
                node._backward = None
                node._parents = ()

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    # method-style aliases used heavily by the model code
    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def swap_last(self):
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return transpose(self, tuple(axes))

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64), _op="const")


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS topological order (graphs outgrow the recursion limit)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(t: Tensor, g: np.ndarray) -> None:
    # accumulation allocates a fresh array, so sharing g across parents is safe
    t.grad = g if t.grad is None else t.grad + g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    req = any(p.requires_grad or p._backward is not None for p in parents)
    if not req:
        backward = None
        parents = ()
    return Tensor(data, _parents=tuple(parents), _backward=backward, _op=op)


# -- elementwise binary -----------------------------------------------------

def _binary(a: Tensor, b: Tensor, op: str):
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} need an explicit reshape")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "div")
    with np.errstate(all="ignore"):
        out_data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * out_data / b.data, b.shape))

    return _make(out_data, (a, b), backward, "div")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    _binary(a, b, "maximum")
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(g):
        _accum(a, _unbroadcast(g * take_a, a.shape))
        _accum(b, _unbroadcast(g * ~take_a, b.shape))

    return _make(out_data, (a, b), backward, "maximum")


# -- elementwise unary ------------------------------------------------------

def exp(x: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.exp(x.data)

    def backward(g):
        _accum(x, g * out_data)

    return _make(out_data, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.log(x.data)

    def backward(g):
        _accum(x, g / x.data)

    return _make(out_data, (x,), backward, "log")


def sqrt(x: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.sqrt(x.data)

    def backward(g):
        # guard the 0.5/sqrt singularity at exactly 0: upstream grads there
        # are themselves 0 in every use we have (L2 norms), so clamp is safe
        _accum(x, g * 0.5 / np.maximum(out_data, 1e-150))

    return _make(out_data, (x,), backward, "sqrt")


def sigmoid(x: Tensor) -> Tensor:
    out_data = sigmoid_np(x.data)

    def backward(g):
        _accum(x, g * out_data * (1.0 - out_data))

    return _make(out_data, (x,), backward, "sigmoid")


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function through the tanh identity: one pass, no overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def logsigmoid(x: Tensor) -> Tensor:
    out_data = logsigmoid_np(x.data)

    def backward(g):
        _accum(x, g * sigmoid_np(-x.data))

    return _make(out_data, (x,), backward, "logsigmoid")


def logsigmoid_np(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)), computed as -softplus(-x) for stability."""
    return -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))


def silu(x: Tensor) -> Tensor:
    s = sigmoid_np(x.data)
    out_data = x.data * s

    def backward(g):
        _accum(x, g * (s + x.data * s * (1.0 - s)))

    return _make(out_data, (x,), backward, "silu")


def absolute(x: Tensor) -> Tensor:
    out_data = np.abs(x.data)
    sign = np.sign(x.data)

    def backward(g):
        _accum(x, g * sign)

    return _make(out_data, (x,), backward, "abs")


def clip(x: Tensor, lo: float | None, hi: float | None) -> Tensor:
    """Clamp to [lo, hi]; gradient passes where the input is inside the bounds
    (inclusive), so values already at a bound keep their gradient."""
    out_data = np.clip(x.data, lo, hi)
    inside = np.ones(x.shape, dtype=bool)
    if lo is not None:
        inside &= x.data >= lo
    if hi is not None:
        inside &= x.data <= hi

    def backward(g):
        _accum(x, g * inside)

    return _make(out_data, (x,), backward, "clip")


def log1mexp(x: Tensor) -> Tensor:
    """log(1 - exp(x)) for x < 0, with the standard two-branch evaluation."""
    xd = x.data
    if np.any(xd >= 0):
        raise NonFiniteError("log1mexp requires strictly negative input")
    out_data = np.where(xd > -np.log(2.0), np.log(-np.expm1(xd)), np.log1p(-np.exp(xd)))

    def backward(g):
        # d/dx log(1-e^x) = -1/expm1(-x)
        _accum(x, -g / np.expm1(-xd))

    return _make(out_data, (x,), backward, "log1mexp")


def softcap(x: Tensor, cap: float) -> Tensor:
    # softcap_np's arithmetic, inline to keep tanh for the backward:
    # recovering it as out / cap is not bit-identical
    t = np.tanh(x.data / cap)
    out_data = cap * t

    def backward(g):
        _accum(x, g * (1.0 - t * t))

    return _make(out_data, (x,), backward, "softcap")


def softcap_np(x: np.ndarray, cap: float) -> np.ndarray:
    """cap * tanh(x / cap): smooth clamp of pre-activations into (-cap, cap)."""
    return cap * np.tanh(x / cap)


# -- reductions -------------------------------------------------------------

def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape))

    return _make(np.asarray(out_data), (x,), backward, "sum")


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        denom = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        denom = int(np.prod([x.shape[a] for a in axes]))
    return mul(reduce_sum(x, axis, keepdims), _as_tensor(1.0 / denom))


def cumsum(x: Tensor, axis: int) -> Tensor:
    out_data = np.cumsum(x.data, axis=axis)

    def backward(g):
        _accum(x, np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis))

    return _make(out_data, (x,), backward, "cumsum")


# -- shape ops --------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)
    in_shape = x.shape

    def backward(g):
        _accum(x, g.reshape(in_shape))

    return _make(out_data, (x,), backward, "reshape")


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = np.transpose(x.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(x, np.transpose(g, inv))

    return _make(out_data, (x,), backward, "transpose")


def index(x: Tensor, key) -> Tensor:
    out_data = x.data[key]

    def backward(g):
        full = np.zeros_like(x.data)
        full[key] = g
        _accum(x, full)

    return _make(out_data, (x,), backward, "index")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            key = [slice(None)] * g.ndim
            key[axis] = slice(lo, hi)
            _accum(t, g[tuple(key)])

    return _make(out_data, tuple(tensors), backward, "concat")


# -- matmul -----------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dims {sa} @ {sb}")
    if len(sa) > 2 and len(sb) > 2 and sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul: batch dims must match exactly, got {sa} @ {sb}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        bt = np.swapaxes(b.data, -1, -2)
        at = np.swapaxes(a.data, -1, -2)
        ga = np.matmul(g, bt)
        if ga.ndim > len(sa):  # b batched, a plain: sum over batch
            ga = ga.sum(axis=tuple(range(ga.ndim - len(sa))))
        _accum(a, ga)
        gb = np.matmul(at, g)
        if gb.ndim > len(sb):  # a batched, b plain (weight): sum over batch
            gb = gb.sum(axis=tuple(range(gb.ndim - len(sb))))
        _accum(b, gb)

    return _make(out_data, (a, b), backward, "matmul")


# -- gathers ----------------------------------------------------------------

def take_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Embedding lookup: table (R, d), idx int array of any shape -> idx.shape + (d,)."""
    idx = np.asarray(idx)
    out_data = table.data[idx]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)

    return _make(out_data, (table,), backward, "take_rows")


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Batched row gather: x (B, R, d), idx (B, P) -> (B, P, d)."""
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.ndim != 2:
        raise ShapeError("gather_rows expects x (B, R, d) and idx (B, P)")
    out_data = np.take_along_axis(x.data, idx[:, :, None], axis=1)

    def backward(g):
        full = np.zeros_like(x.data)
        rows = np.arange(x.shape[0])[:, None]
        np.add.at(full, (rows, idx), g)
        _accum(x, full)

    return _make(out_data, (x,), backward, "gather_rows")


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row selection along the last axis: x (..., n, V), idx (..., n) -> (..., n)."""
    idx = np.asarray(idx)
    if idx.shape != x.shape[:-1]:
        raise ShapeError(f"pick: idx shape {idx.shape} must equal {x.shape[:-1]}")
    out_data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        _accum(x, full)

    return _make(out_data, (x,), backward, "pick")


def exp_where(x: Tensor, keep: np.ndarray) -> Tensor:
    """exp(x) where `keep` (a constant boolean mask broadcast over trailing
    axes), exactly 0 elsewhere. Fused so causal decay matrices pay for the
    exponential only on the kept half."""
    keep_b = np.broadcast_to(keep, x.shape)
    out_data = np.zeros(x.shape, dtype=x.data.dtype)
    np.exp(x.data, out=out_data, where=keep_b)

    def backward(g):
        _accum(x, g * out_data)

    return _make(out_data, (x,), backward, "exp_where")


def outer_add(u: Tensor, v: Tensor) -> Tensor:
    """Pairwise sum over the last axes: u (..., n), v (..., m) -> (..., n, m)
    with out[..., i, j] = u[..., i] + v[..., j]. Leading dims must match."""
    if u.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"outer_add: leading dims differ, {u.shape} vs {v.shape}")
    out_data = u.data[..., :, None] + v.data[..., None, :]

    def backward(g):
        _accum(u, g.sum(axis=-1))
        _accum(v, g.sum(axis=-2))

    return _make(out_data, (u, v), backward, "outer_add")


# -- fused normalizers ------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    out_data = softmax_np(x.data)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, (g - dot) * out_data)

    return _make(out_data, (x,), backward, "softmax")


def softmax_np(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (max-shifted; the shift cancels exactly)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x: Tensor) -> Tensor:
    out_data = log_softmax_np(x.data)

    def backward(g):
        _accum(x, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), backward, "log_softmax")


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis (max-shifted)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def rmsnorm(x: Tensor, eps: float = 0.0) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps); gain is applied by the caller."""
    r = rms_scale_np(x.data, eps)
    out_data = x.data * r
    n = x.shape[-1]

    def backward(g):
        dot = (g * x.data).sum(axis=-1, keepdims=True)
        _accum(x, r * g - (r ** 3 / n) * dot * x.data)

    return _make(out_data, (x,), backward, "rmsnorm")


def rms_scale_np(x: np.ndarray, eps: float) -> np.ndarray:
    """1 / sqrt(mean(x^2, last axis) + eps), kept as a size-1 last axis;
    `x * rms_scale_np(x, eps)` is the RMS-normalized x."""
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


# -- rotary positions -------------------------------------------------------

def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary positions on the last axis. A rotation, so the backward is the
    inverse rotation of the output gradient."""
    out_data = rope_np(x.data, cos, sin)

    def backward(g):
        _accum(x, rope_np(g, cos, -sin))

    return _make(out_data, (x,), backward, "rope")


def rope_np(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each (x[i], x[i + half]) pair of the last axis by the angle
    whose cosine and sine are given, broadcast over the leading axes."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)


# -- gradient checking ------------------------------------------------------

def finite_difference_check(
    fn: Callable[..., Tensor],
    points: Sequence[np.ndarray],
    eps: float = 1e-5,
    max_coords: int | None = None,
) -> float:
    """Compare analytic gradients of the scalar `fn(*leaves)` against central
    differences at the given points. Returns the max relative error across all
    inputs, where each input's error is ||analytic - numeric||_inf normalized
    by max(||numeric||_inf, 1e-12). With `max_coords`, only an evenly spaced
    deterministic subset of each input's coordinates is probed.
    """
    leaves = [Tensor(np.array(p, dtype=np.float64), requires_grad=True) for p in points]
    loss = fn(*leaves)
    loss.backward()
    worst = 0.0
    for leaf in leaves:
        analytic = (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)).ravel()
        flat = leaf.data.ravel()
        if max_coords is None or flat.size <= max_coords:
            coords = range(flat.size)
        else:
            coords = np.linspace(0, flat.size - 1, max_coords).astype(int)
        a_sel = []
        n_sel = []
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn(*leaves).data)
            flat[i] = orig - eps
            lo = float(fn(*leaves).data)
            flat[i] = orig
            n_sel.append((hi - lo) / (2.0 * eps))
            a_sel.append(analytic[i])
        a_sel = np.array(a_sel)
        n_sel = np.array(n_sel)
        scale = max(float(np.max(np.abs(n_sel))), 1e-12)
        err = float(np.max(np.abs(a_sel - n_sel))) / scale
        worst = max(worst, err)
    return worst

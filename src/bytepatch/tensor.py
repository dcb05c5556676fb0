"""Dense tensor engine with reverse-mode autodiff on top of numpy arrays.

The graph is built define-by-run: every op hands `_make` its output and one
vector-Jacobian product (VJP) per input, a function from the output's
gradient to that input's. Each `Tensor` pairs its array with a `Node`, its
place in the graph: the node holds the gradient and the VJPs, links to its
inputs' nodes, and holds no values. A VJP closes over exactly the arrays and
shapes it reads and never over a Tensor, so the graph keeps alive only what
the backward reads: an intermediate that no VJP reads (an `add` operand, a
matmul's output) is freed as soon as the code that made it drops it.
`_make` keeps only the VJPs of inputs in the graph (`requires_grad`), so
constants and frozen weights get no gradient computed or stored. Parameters
are plain float64 values outside the graph, and so are the float32 copies
that evaluation and window preparation compute on, so forward-only passes
record nothing; only the training step loop puts tensors in it, float32
copies of the parameters, while it runs. Calling ``backward()`` on a scalar
walks the recorded nodes once in reverse topological order and is the one
place gradients accumulate. The sweep frees each intermediate node as soon
as its VJPs have run (its gradient, its VJPs with the arrays they read, and
its place in the graph), so its peak is the forward graph plus one frontier
of gradients not yet consumed, and a swept graph cannot be swept again.

Where a chain of small ops would keep an array only for one gradient, one
node stands for the chain and recomputes that array in its backward:
`rmsnorm` takes its gain and keeps x, its (..., 1) scale and the gain, not
the normalized x; `gated_matmul(u, v, w)`, which is (u * v) @ w, keeps u, v
and w, not their product; `silu_gated_matmul(a, up, w)`, SwiGLU's
(silu(a) * up) @ w, keeps a, up and w, not silu(a) or the product; and
`mlstm_chunkwise`, the mLSTM's whole chunkwise core, keeps q, k and v in
chunks, O(n) gate and denominator vectors, and recomputes every (·, L, L)
and (·, L, v) chunk matrix in its backward. The last three build their
input gradients together, through `_make_shared`: one call gives every
input's gradient from the output's and each VJP hands out its own, so the
VJPs may run in any order and none changes a gradient another handed out.
The nodes' VJPs work in place, in as few full-size arrays as the arithmetic
allows. Each computes the chain's values and gradients bit for bit, but
for two nodes whose sums run in other orders: `rmsnorm` takes its last-axis
sums as dot products, and `mlstm_chunkwise`'s backward is derived rather
than replayed (its forward keeps every bit). Their values and gradients
stay within 2^12 units in the last place of the dtype of the composed
graph's, relative to each array's largest magnitude (9.1e-13 in float64,
4.9e-4 in float32); `test_fused_nodes` holds every node to its composed
graph. `log_softmax`'s backward builds its gradient in one scratch array.

`take_rows` is the one row gather, and its VJP adds rows with one flat
`np.add.at`: `gather_rows` and the losses' fused-symbol scores are
`take_rows` over flat views, and an index outside the rows raises.

Values are float32 or float64, and every op's output has its inputs' dtype:
`_make` rejects an op whose inputs and output disagree, so no float64
constant can silently widen a float32 graph, and a Python number operand
takes its partner's dtype. Other inputs (bool, integer) become float64.

Where the graph-free code (the decode step path, the sampler) needs an op's
forward, the op's arithmetic is a public ``*_np`` kernel, so both paths
compute the same values.

Importing the module fixes glibc malloc's mmap and trim thresholds for the
process (see ``_fix_malloc_thresholds``), so that a training step reuses
resident heap pages rather than faulting in fresh ones.

Every op checks its output for NaN/Inf and raises ``NonFiniteError`` instead
of propagating silently. Broadcasting is restricted to trailing-axis
expansion (suffix alignment plus size-1 expansion of trailing axes); anything
else requires an explicit reshape.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

Vjp = Callable[[np.ndarray], np.ndarray]  # output gradient -> one input's gradient


# glibc malloc serves blocks above its mmap threshold from fresh mappings and
# gives the heap's free top back to the system once it exceeds the trim
# threshold. By default both move at run time (the mmap threshold rises to the
# largest mapped block freed so far, the trim threshold to twice that), so
# whether a step's freed temporaries end up on the heap's top depends on the
# heap's layout: the same toy.cfg stage-2 step re-faulted a median of 2 to
# 37 MB of fresh pages and spent 4 to 21 ms in the kernel, from one process
# to the next. Fixed at the ceiling the moving mmap threshold can reach on
# 64-bit, the two thresholds keep every step on pages the last step touched.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _fix_malloc_thresholds() -> None:
    """Set glibc's mmap and trim thresholds for this process; elsewhere a no-op."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # present in glibc only
    except (OSError, TypeError, AttributeError):
        return
    libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_fix_malloc_thresholds()


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DtypeError(TypeError):
    """An op mixed float32 and float64 values."""


class GraphError(RuntimeError):
    """backward() was called on a tensor outside the autodiff graph."""


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _broadcast_ok(sa: tuple[int, ...], sb: tuple[int, ...]) -> bool:
    """Trailing-axis broadcasting: on the right-aligned common axes, each pair
    of sizes matches or holds a 1, and each operand's expanded axes (its 1s
    against a larger size) form a trailing block of them."""
    n = min(len(sa), len(sb))
    was_a = was_b = False
    for da, db in zip(sa[len(sa) - n:], sb[len(sb) - n:]):
        exp_a, exp_b = da == 1 and db != 1, db == 1 and da != 1
        if (da != db and not (exp_a or exp_b)) or (was_a and not exp_a) or (was_b and not exp_b):
            return False
        was_a, was_b = exp_a, exp_b
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


class Node:
    """A tensor's place in the autodiff graph: its gradient, whether it is in
    the graph, and one `(parent node, VJP)` pair per input in the graph. It
    holds no values, and its links point to nodes, not tensors, so the graph
    keeps a value alive only while some VJP reads it."""

    __slots__ = ("grad", "vjps", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.vjps: tuple[tuple[Node, Vjp], ...] = ()
        self.requires_grad = requires_grad


class Tensor:
    """A dense array and its node in the autodiff graph."""

    __slots__ = ("data", "_node", "_op")

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf"):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        arr = np.asarray(data)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(np.float64)  # bool and integer values
        self.data = arr
        self._node = Node(requires_grad=requires_grad)
        self._op = _op
        _check_finite(arr, _op)

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self._node.requires_grad = flag

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
        return Tensor(self.data, _op="detach")

    # -- backward -----------------------------------------------------------
    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the recorded graph:
        each node's gradient goes through its VJPs into its parents' `grad`.
        Every consumer of a node runs before it, so once its VJPs have run
        an intermediate node drops its gradient and its VJPs, with the arrays
        they read, and leaves the graph; leaves keep their `.grad`. Raises
        `GraphError` on a tensor outside the graph, such as a loss already
        swept."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        if not self.requires_grad:
            raise GraphError("backward() needs a tensor in the graph: this one is a constant, "
                             "or a backward() already swept its graph")
        root = self._node
        order = _toposort(root)
        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            for parent, vjp in node.vjps:
                g = vjp(node.grad)
                # accumulation allocates a fresh array, so sharing g across inputs is safe
                parent.grad = g if parent.grad is None else parent.grad + g
            if node.vjps:  # every consumer has run: free its gradient and VJPs, leave the graph
                node.grad = None
                node.vjps = ()
                node.requires_grad = False

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self))

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self))

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


def _as_tensor(x, like: Tensor) -> Tensor:
    """`x` as an operand of `like`: a Tensor as it is, a Python number as a
    constant of `like`'s dtype. An array keeps its own dtype, so a float64
    array next to a float32 Tensor still raises."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.dtype), _op="const")
    return Tensor(x, _op="const")


def _toposort(root: Node) -> list[Node]:
    """Iterative DFS topological order (graphs outgrow the recursion limit)."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node.vjps:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, op: str, *inputs: tuple[Tensor, Vjp]) -> Tensor:
    """The op's output. `inputs` pairs each input with its VJP, which must
    close over the arrays it reads and never over a Tensor; the output's node
    keeps the pairs whose input is in the graph, linked to that input's node."""
    out = Tensor(data, _op=op)
    if any(t.data.dtype != out.data.dtype for t, _ in inputs):
        raise DtypeError(f"{op}: operands {[str(t.dtype) for t, _ in inputs]} give {out.dtype}")
    node = out._node
    node.vjps = tuple((t._node, vjp) for t, vjp in inputs if t._node.requires_grad)
    node.requires_grad = bool(node.vjps)
    return out


def _make_shared(data: np.ndarray, op: str, inputs: Sequence[Tensor],
                 grads: Callable[[np.ndarray, tuple[bool, ...]], Sequence[np.ndarray | None]]) -> Tensor:
    """The output of an op whose input gradients share work. `grads(g, wanted)`
    returns every input's gradient from the output gradient g at once (None
    where `wanted`, each input's `requires_grad`, is False) and may build one
    in a buffer that another read. The first VJP to run calls it and the
    others reuse its result, so the VJPs may run in any order and none
    changes a gradient that another handed out. Otherwise it is `_make`."""
    wanted = tuple(t.requires_grad for t in inputs)
    memo: list = []  # [output gradient, the input gradients from it]

    def vjp(i: int) -> Vjp:
        def grad(g):
            if not memo or memo[0] is not g:
                memo[:] = [g, grads(g, wanted)]
            return memo[1][i]
        return grad

    return _make(data, op, *((t, vjp(i)) for i, t in enumerate(inputs)))


# -- elementwise binary -----------------------------------------------------

def _binary(a: Tensor, b: Tensor, op: str):
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} need an explicit reshape")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "add")
    sa, sb = a.shape, b.shape
    return _make(a.data + b.data, "add",
                 (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "sub")
    sa, sb = a.shape, b.shape
    return _make(a.data - b.data, "sub",
                 (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "mul")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _make(ad * bd, "mul",
                 (a, lambda g: _unbroadcast(g * bd, sa)),
                 (b, lambda g: _unbroadcast(g * ad, sb)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b, "div")
    bd, sa, sb = b.data, a.shape, b.shape
    with np.errstate(all="ignore"):
        out_data = a.data / bd
    return _make(out_data, "div",
                 (a, lambda g: _unbroadcast(g / bd, sa)),
                 (b, lambda g: _unbroadcast(-g * out_data / bd, sb)))


# -- elementwise unary ------------------------------------------------------

def exp(x: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.exp(x.data)
    return _make(out_data, "exp", (x, lambda g: g * out_data))


def log(x: Tensor) -> Tensor:
    xd = x.data
    with np.errstate(all="ignore"):
        out_data = np.log(xd)
    return _make(out_data, "log", (x, lambda g: g / xd))


def sqrt(x: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.sqrt(x.data)
    # guard the 0.5/sqrt singularity at exactly 0: upstream grads there
    # are themselves 0 in every use we have (L2 norms), so clamp is safe
    tiny = np.finfo(out_data.dtype).tiny
    return _make(out_data, "sqrt", (x, lambda g: g * 0.5 / np.maximum(out_data, tiny)))


def sigmoid(x: Tensor) -> Tensor:
    out_data = sigmoid_np(x.data)
    return _make(out_data, "sigmoid", (x, lambda g: g * out_data * (1.0 - out_data)))


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function through the tanh identity, 0.5 * (1 + tanh(0.5 * x)),
    computed in one new array: no overflow, no temporaries."""
    s = np.asarray(np.multiply(x, 0.5))  # an array for a 0-d x too
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def logsigmoid_np(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)), computed as -softplus(-x) for stability."""
    return -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes where the input is inside the bounds
    (inclusive), so values already at a bound keep their gradient."""
    lo, hi = float(lo), float(hi)  # a numpy float64 bound would widen float32 values
    inside = (x.data >= lo) & (x.data <= hi)
    return _make(np.clip(x.data, lo, hi), "clip", (x, lambda g: g * inside))


def log1mexp(x: Tensor) -> Tensor:
    """log(1 - exp(x)) for x < 0, with the standard two-branch evaluation."""
    xd = x.data
    if np.any(xd >= 0):
        raise NonFiniteError("log1mexp requires strictly negative input")
    out_data = np.where(xd > -np.log(2.0), np.log(-np.expm1(xd)), np.log1p(-np.exp(xd)))
    # d/dx log(1-e^x) = -1/expm1(-x)
    return _make(out_data, "log1mexp", (x, lambda g: -g / np.expm1(-xd)))


def softcap(x: Tensor, cap: float) -> Tensor:
    # softcap_np's arithmetic, inline to keep tanh for the backward:
    # recovering it as out / cap is not bit-identical
    t = np.tanh(x.data / cap)
    return _make(cap * t, "softcap", (x, lambda g: g * (1.0 - t * t)))


def softcap_np(x: np.ndarray, cap: float) -> np.ndarray:
    """cap * tanh(x / cap): smooth clamp of pre-activations into (-cap, cap)."""
    return cap * np.tanh(x / cap)


# -- reductions -------------------------------------------------------------

def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)
    kept = axis is None or keepdims  # g already broadcasts against x
    shape = x.shape
    return _make(np.asarray(out_data), "sum",
                 (x, lambda g: np.broadcast_to(g if kept else np.expand_dims(g, axis), shape)))


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    total = reduce_sum(x, axis, keepdims)
    return mul(total, _as_tensor(total.size / x.size, x))


def cumsum(x: Tensor, axis: int) -> Tensor:
    return _make(np.cumsum(x.data, axis=axis), "cumsum",
                 (x, lambda g: np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis)))


# -- shape ops --------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    in_shape = x.shape
    return _make(x.data.reshape(shape), "reshape", (x, lambda g: g.reshape(in_shape)))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = np.argsort(axes)
    return _make(np.transpose(x.data, axes), "transpose", (x, lambda g: np.transpose(g, inv)))


def index(x: Tensor, key) -> Tensor:
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        full[key] = g
        return full

    return _make(x.data[key], "index", (x, vjp))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def part(lo, hi):
        key = [slice(None)] * out_data.ndim
        key[axis] = slice(lo, hi)
        return lambda g: g[tuple(key)]

    return _make(out_data, "concat",
                 *((t, part(lo, hi)) for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])))


# -- matmul -----------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dims {sa} @ {sb}")
    if len(sa) > 2 and len(sb) > 2 and sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul: batch dims must match exactly, got {sa} @ {sb}")
    # the forward keeps np.matmul's GEMM per batch entry: a BLAS row's sum
    # order can depend on the row count, so one (B·n, d) GEMM need not give
    # the same bits
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)
    if len(sa) > 2 and len(sb) == 2:
        # a batched operand against a weight: each gradient is one GEMM over
        # the (B·n, d) rows, reshaped inside the VJP so that no closure holds a copy
        d, m = sb
        return _make(out, "matmul",
                     (a, lambda g: (g.reshape(-1, m) @ bd.T).reshape(sa)),
                     (b, lambda g: ad.reshape(-1, d).T @ g.reshape(-1, m)))
    # a plain operand against a batched one sums its gradient over the batch axes
    return _make(out, "matmul",
                 (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)),
                 (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb)))


def _gated_shapes(op: str, a: Tensor, b: Tensor, w: Tensor) -> tuple[tuple[int, ...], int, int]:
    """The gated nodes' shape check: equal gates a and b against a 2-D weight
    w (d, m). Returns the gates' shape, d and m."""
    if a.shape != b.shape:
        raise ShapeError(f"{op}: gate shapes {a.shape} and {b.shape} differ")
    if a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: {a.shape} @ {w.shape} needs a 2-D weight")
    return a.shape, *w.shape


def gated_matmul(u: Tensor, v: Tensor, w: Tensor) -> Tensor:
    """(u * v) @ w for a weight w, as one node: it keeps u, v and w, not their
    product, and recomputes the product for w's gradient. u's and v's
    gradients share the product's (see `_make_shared`), and v's is made in its
    buffer. Each value is `matmul(u * v, w)`'s, bit for bit."""
    shape, d, m = _gated_shapes("gated_matmul", u, v, w)
    ud, vd, wd = u.data, v.data, w.data

    def grads(g, wanted):
        g_w = (ud * vd).reshape(-1, d).T @ g.reshape(-1, m) if wanted[2] else None
        product_grad = (g.reshape(-1, m) @ wd.T).reshape(shape) if wanted[0] or wanted[1] else None
        g_u = product_grad * vd if wanted[0] else None
        g_v = np.multiply(product_grad, ud, out=product_grad) if wanted[1] else None
        return g_u, g_v, g_w

    return _make_shared(np.matmul(ud * vd, wd), "gated_matmul", (u, v, w), grads)


def silu_gated_matmul(a: Tensor, up: Tensor, w: Tensor) -> Tensor:
    """(silu(a) * up) @ w for a weight w, SwiGLU's gate and down-projection
    as one node, with silu(x) = x * sigmoid(x). It keeps a, up and w, and its
    input gradients (see `_make_shared`) come from sigmoid(a), silu(a) and
    the product's gradient, in four arrays and mostly in place. Each value is
    `gated_matmul(u, up, w)`'s with u the silu of a, bit for bit."""
    shape, d, m = _gated_shapes("silu_gated_matmul", a, up, w)
    ad, ud, wd = a.data, up.data, w.data

    def grads(g, wanted):
        s = sigmoid_np(ad)
        silu_a = ad * s
        scratch = silu_a * ud
        out = [None, None, None]
        if wanted[2]:
            out[2] = scratch.reshape(-1, d).T @ g.reshape(-1, m)
        # silu's derivative s + silu(a) * (1 - s), in the scratch array
        np.subtract(1.0, s, out=scratch)
        scratch *= silu_a
        scratch += s
        product_grad = (g.reshape(-1, m) @ wd.T).reshape(shape)
        if wanted[1]:
            out[1] = np.multiply(product_grad, silu_a, out=silu_a)
        if wanted[0]:
            product_grad *= ud
            out[0] = np.multiply(product_grad, scratch, out=product_grad)
        return out

    gated = sigmoid_np(ad)
    gated *= ad
    gated *= ud
    return _make_shared(np.matmul(gated, wd), "silu_gated_matmul", (a, up, w), grads)


# -- gathers ----------------------------------------------------------------

def take_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """The engine's row gather: table (R, d), idx an int array of any shape
    in [0, R) -> idx.shape + (d,). Its VJP adds each row's gradient back
    into the table row it came from."""
    idx = np.asarray(idx)
    rows, d = table.shape
    _check_rows("take_rows", idx, rows)
    flat = idx.reshape(-1)
    return _make(table.data[idx], "take_rows",
                 (table, lambda g: _scatter_rows(g.reshape(-1, d), flat, rows)))


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Batched row gather: x (B, R, d), idx (B, P) in [0, R) -> (B, P, d),
    `take_rows` over x viewed as (B·R, d)."""
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ShapeError("gather_rows expects x (B, R, d) and idx (B, P)")
    b, rows, d = x.shape
    _check_rows("gather_rows", idx, rows)
    return take_rows(reshape(x, (b * rows, d)), idx + rows * np.arange(b)[:, None])


def _check_rows(op: str, idx: np.ndarray, rows: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"{op}: row indices must lie in [0, {rows})")


def _scatter_rows(g: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """(rows, d) zeros plus each row of g (N, d) at its row idx (N,):
    `take_rows`' VJP. It is `np.add.at` over the flattened arrays, element by
    element in the same order, so the same bits, but on numpy's fast
    one-dimensional path: a row-indexed `np.add.at` is four times slower."""
    d = g.shape[1]
    full = np.zeros(rows * d, g.dtype)
    np.add.at(full, (idx[:, None] * d + np.arange(d)).reshape(-1), g.reshape(-1))
    return full.reshape(rows, d)


# -- fused normalizers ------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    out_data = softmax_np(x.data)
    return _make(out_data, "softmax",
                 (x, lambda g: (g - (g * out_data).sum(axis=-1, keepdims=True)) * out_data))


def softmax_np(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (max-shifted; the shift cancels exactly)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x: Tensor) -> Tensor:
    out_data = log_softmax_np(x.data)

    def vjp(g):  # g - exp(out) * sum(g), in one scratch array
        s = g.sum(axis=-1, keepdims=True)
        scratch = np.exp(out_data)
        np.multiply(scratch, s, out=scratch)
        return np.subtract(g, scratch, out=scratch)

    return _make(out_data, "log_softmax", (x, vjp))


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis (max-shifted)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 0.0) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + eps) * gain, the gain spanning x's
    trailing axes and broadcast over its leading ones. The node keeps x, the
    scale and the gain, and recomputes the normalized x for the gain's
    gradient. Its last-axis sums are dot products, and each VJP works in
    place in two new arrays."""
    xd, gd, sg = x.data, gain.data, gain.shape
    if len(sg) > x.ndim or x.shape[x.ndim - len(sg):] != sg:
        raise ShapeError(f"rmsnorm: gain {sg} must be the trailing axes of x {x.shape}")
    r = rms_scale_np(xd, eps)
    n = x.shape[-1]

    def vjp_x(g):  # r * g·gain - (r³ / n) * (g·gain · x) * x
        out = np.multiply(g, gd)
        dot = np.einsum("...i,...i->...", out, xd)[..., None]
        scratch = np.multiply(xd, (r ** 3 / n) * dot, out=np.empty_like(out))
        out *= r
        return np.subtract(out, scratch, out=out)

    def vjp_gain(g):  # over the leading axes, one matrix-vector product
        scaled = np.multiply(xd, r, out=np.empty(xd.shape, xd.dtype))
        scaled *= g
        rows = scaled.size // gd.size
        return (np.ones(rows, scaled.dtype) @ scaled.reshape(rows, gd.size)).reshape(sg)

    out = np.multiply(xd, r)
    out *= gd
    return _make(out, "rmsnorm", (x, vjp_x), (gain, vjp_gain))


def rms_scale_np(x: np.ndarray, eps: float) -> np.ndarray:
    """1 / sqrt(mean(x^2, last axis) + eps), kept as a size-1 last axis;
    `x * rms_scale_np(x, eps)` is the RMS-normalized x. The sum of squares
    is a dot product, one pass with no temporary."""
    squares = np.einsum("...i,...i->...", x, x)[..., None]
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(squares / x.shape[-1] + eps)


# -- rotary positions -------------------------------------------------------

def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary positions on the last axis. A rotation, so the VJP is the
    inverse rotation of the output gradient."""
    return _make(rope_np(x.data, cos, sin), "rope", (x, lambda g: rope_np(g, cos, -sin)))


def rope_np(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each (x[i], x[i + half]) pair of the last axis by the angle
    whose cosine and sine are given, broadcast over the leading axes."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)


# -- the chunkwise mLSTM core -----------------------------------------------

def mlstm_chunk_split(n: int, chunk: int) -> tuple[int, int]:
    """The chunk count and length (nc, L) for n bytes in chunks of at most
    `chunk` bytes. Of the counts from the fewest, ceil(n / chunk), to a
    quarter more (rounded up), it takes the one that pads least, nc * L - n
    bytes with L = ceil(n / nc), and the fewer chunks on a tie: at most 32,
    88 bytes run as four chunks of 22, not three of 30, 513 as nineteen of
    27, not seventeen of 31, and 512 as sixteen of 32."""
    fewest = -(-n // chunk)
    nc = min(range(fewest, fewest + -(-fewest // 4) + 1), key=lambda c: c * -(-n // c) - n)
    return nc, -(-n // nc)


def mlstm_chunkwise(q: Tensor, k: Tensor, v: Tensor, i_pre: Tensor, f_pre: Tensor, chunk: int) -> Tensor:
    """The mLSTM's chunkwise-parallel core as one node: queries and keys
    (B, NH, n, qk), values (B, NH, n, v) and the input and forget gates'
    pre-activations (B, NH, n) give the heads' outputs h (B, NH, n, v).

    The n bytes split into chunks as `mlstm_chunk_split` says, all of one
    length L, the last one padded. Inside a chunk the exponential-gate
    recurrence unrolls into a decay matrix over the chunk's position pairs;
    each chunk's key-value state and normalizer reach the later chunks
    through one strictly-lower decay matmul over chunks. Every exponent is
    shifted by a running max of the gate log-sums, which cancels between
    numerator and denominator, and no shifted exponent is positive. The one
    other exp, the denominator's floor exp(-m_t), stays below e^15 because
    m_t >= i_t >= -15 under the gates' soft cap. So no intermediate can
    overflow unseen, and the output's finite check sees the rest; the inputs
    are checked too, since a forget gate at +inf would give a finite output.

    In the graph, the node keeps q, k and v and the gate vectors in chunks,
    the forget gates' pre-activations, the floored denominator, its sign and
    the carried normalizers, and no chunk matrix: its five input gradients
    (see `_make_shared`) come from one recomputation of the chunk matrices.
    Out of the graph it keeps nothing.

    Its forward is the composed graph's, op for op; its backward is derived
    rather than replayed (TFLA, arXiv 2503.14376, derives its own the same
    way). One array holds the gradient of every pair's exponent u_t + a_s,
    and its row and column sums give u's and a's in-chunk parts, so that
    their difference, the forget gates' gradient, stays as accurate as the
    composed graph's where the two nearly cancel. Through the carried
    states, a_s only scales key s and u_t only scales what row t reads
    through q_t, so their parts there are k_s·dk_s and q_t·dq_t.
    `test_fused_nodes` holds values and gradients to the composed graph."""
    inputs = (q, k, v, i_pre, f_pre)
    core = _MlstmChunks(*(t.data for t in inputs), chunk)
    h = core.forward()
    return _make_shared(h, "mlstm_chunkwise", inputs, lambda g, wanted: core.input_grads(g, h))


class _MlstmChunks:
    """`mlstm_chunkwise`'s inputs: q, k and v in zero-padded chunks, the gate
    vectors u and a in chunks, each chunk's R, and the forget gates'
    pre-activations. The chunk matrices are recomputed from them for the
    forward and for the backward."""

    def __init__(self, q, k, v, i_pre, f_pre, chunk: int):
        self.n = n = q.shape[2]
        self.nc, self.size = mlstm_chunk_split(n, chunk)
        self.f_pre = f_pre
        self.qc, self.kc, self.vc = (self.chunks(x) for x in (q, k, v))
        # the C-ordered copies check faster than the inputs' strided views
        for x in (self.qc, self.kc, self.vc, i_pre, f_pre):
            _check_finite(x, "mlstm_chunkwise")
        self.uc, self.ac, self.ref, self.m = self.gates(i_pre, f_pre)  # m: for the forward only
        self.carry_n = None  # the carried normalizers, once a forward has kept them

    def chunks(self, x: np.ndarray, divisor: np.ndarray | float = 1.0) -> np.ndarray:
        """x / divisor, (B, NH, n, d), as a new C-ordered (B, NH, nc, L, d),
        zero on the padding."""
        b, heads, n, d = x.shape
        out = np.empty((b, heads, self.nc * self.size, d), dtype=x.dtype)
        np.divide(x, divisor, out=out[:, :, :n])
        out[:, :, n:] = 0.0
        return out.reshape((b, heads, self.nc, self.size, d))

    def uncut(self, x: np.ndarray) -> np.ndarray:
        """A chunked value, or its gradient, as the n bytes it came from."""
        b, heads, nc, size = x.shape[:4]
        x = x.reshape((b, heads, nc * size) + x.shape[4:])
        return x[:, :, : self.n] if nc * size > self.n else x

    def gates(self, i_pre: np.ndarray, f_pre: np.ndarray) -> tuple[np.ndarray, ...]:
        """u and a in chunks (B, NH, nc, L), R (B, NH, nc) and m (B, NH, n)."""
        n, nc, size = self.n, self.nc, self.size
        # C-ordered, like every gate vector below, so that the decay's
        # broadcast sum is C-ordered and fast; F_t = sum_{s<=t} log f_s
        fcum = np.cumsum(logsigmoid_np(np.ascontiguousarray(f_pre)), axis=-1)
        a = np.ascontiguousarray(i_pre) - fcum  # a_s = i_s - F_s
        # running stabilizer m_t = F_t + max_{s<=t} a_s, a constant for the
        # gradient like every other max of `a` below; u_t = F_t - m_t
        amax = np.maximum.accumulate(a, axis=-1)
        last = amax[..., -1:]
        # R_c, the max of a before chunk c (a_0 for c = 0)
        ref = amax[..., np.maximum(np.arange(nc) * size - 1, 0)]

        # a ragged last chunk gets the last stabilizer as u and as a, so that
        # its exponents stay <= 0 too
        def chunked(x, fill):
            if nc * size > n:
                x = np.concatenate([x, np.broadcast_to(fill, x.shape[:2] + (nc * size - n,))], axis=-1)
            return x.reshape(x.shape[:2] + (nc, size))

        m = fcum + amax
        return chunked(fcum - m, -last), chunked(a, last), ref, m

    def decay(self) -> np.ndarray:
        """decay[t, s] = exp(u_t + a_s) inside each chunk for s <= t, else 0.
        The pairs s > t get -inf added, whose exp is 0: one elementwise exp
        over all pairs is three times faster than a masked one on rows of 30."""
        decay = self.uc[..., :, None] + self.ac[..., None, :]
        decay += _upper(self.size, 1, decay.dtype)
        return np.exp(decay, out=decay)

    def carry(self) -> SimpleNamespace:
        """Over two or more chunks, what each chunk reads of the earlier ones.
        Chunk c's state sum_s exp(a_s - M_c) k_s v_sᵀ and its normalizer, with
        M_c the chunk's max of a, reach chunk c' > c through the strictly-lower
        decay exp(M_c - R_c') (row 0 is empty), and row t of chunk c' reads
        them, through q_t, scaled by e_t = exp(u_t + R_c'), whose exponent is
        <= 0 since R_c' <= max_{s<=t} a_s = -u_t."""
        kc, vc, ac, ref = self.kc, self.vc, self.ac, self.ref
        b, heads, nc, size, dk = kc.shape
        cmax = ac.max(axis=-1)  # (B, NH, nc)
        cross = np.subtract(cmax[..., None, :], ref[..., :, None])
        cross += _upper(nc, 0, cross.dtype)
        np.exp(cross, out=cross)
        key_gate = np.exp(ac - cmax[..., None])[..., None]
        kg = kc * key_gate
        states = np.matmul(np.swapaxes(kg, -1, -2), vc).reshape((b, heads, nc, -1))
        carry = np.matmul(cross, states).reshape((b, heads, nc, dk, -1))
        carry_n = self.carry_n
        if carry_n is None:  # a short-axis sum, which the backward need not repeat
            carry_n = np.matmul(cross, kg.sum(axis=-2))[..., None]
        return SimpleNamespace(cross=cross, key_gate=key_gate, kg=kg, carry=carry, carry_n=carry_n,
                               e=np.exp(self.uc + ref[..., None])[..., None])

    def forward(self) -> np.ndarray:
        """h, (B, NH, n, v). For the backward, it keeps the floored
        denominator, its sign where the floor does not hold it (0 where it
        does), and the carried normalizers (B, NH, nc, qk, 1)."""
        w = self.decay()
        w *= np.matmul(self.qc, np.swapaxes(self.kc, -1, -2))
        num = np.matmul(w, self.vc)  # (B, NH, nc, L, v)
        den = w.sum(axis=-1, keepdims=True)
        # one chunk carries nothing: running the carry anyway cost this node's
        # forward and backward 1.9x at (B=8, 4 heads, n=17) and 1.6x at n=32 on
        # one BLAS thread, same bits; such are convert's tail windows (phase*_ms.tail)
        if self.nc > 1:
            cx = self.carry()
            num += np.matmul(self.qc, cx.carry) * cx.e
            den += np.matmul(self.qc, cx.carry_n) * cx.e
            self.carry_n = cx.carry_n
        den = self.uncut(den)
        floor = np.exp(-self.m)[..., None]
        self.m = None
        self.den_max = den_max = np.maximum(np.abs(den), floor)
        self.sign = np.where(np.abs(den) >= floor, np.sign(den), 0.0).astype(np.int8)
        h = self.uncut(num)
        return np.divide(h, den_max, out=h)

    def input_grads(self, g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
        """The gradients of (q, k, v, i_pre, f_pre) from h's gradient g."""
        qc, kc, vc, swap = self.qc, self.kc, self.vc, np.swapaxes
        decay = self.decay()
        w = np.matmul(qc, swap(kc, -1, -2))
        w *= decay
        # the gradients of the numerator, g / den_max, and of the denominator,
        # -(g·h) / den_max times its sign (0 where the floor holds it)
        g_num = self.chunks(g, self.den_max)
        g_den = self.chunks(-np.einsum("...v,...v->...", g, h)[..., None] * self.sign, self.den_max)
        grad_w = np.matmul(g_num, swap(vc, -1, -2))
        grad_w += g_den
        g_v = np.matmul(swap(w, -1, -2), g_num)
        grad_qk = np.multiply(decay, grad_w, out=decay)
        g_q = np.matmul(grad_qk, kc)
        g_k = np.matmul(swap(grad_qk, -1, -2), qc)
        # each pair's exponent u_t + a_s: its gradient goes to u by rows and
        # to a by columns, as one array, so that their difference, the forget
        # gates' gradient, stays accurate where the two nearly cancel
        grad_w *= w
        g_u = np.einsum("...ts->...t", grad_w)
        g_a = np.einsum("...ts->...s", grad_w)
        if self.nc > 1:  # see forward for why one chunk skips the carry
            cx = self.carry()
            b, heads, nc, _, dk = qc.shape
            g_num *= cx.e
            g_den *= cx.e
            # q's gradient through the carried states; q_t times it is the
            # carried part of u_t's, which scales what row t reads
            g_q_carried = np.matmul(g_num, swap(cx.carry, -1, -2))
            g_q_carried += g_den * swap(cx.carry_n, -1, -2)
            g_u += np.einsum("...d,...d->...", qc, g_q_carried)
            g_q += g_q_carried
            grad_carry = np.matmul(swap(qc, -1, -2), g_num).reshape((b, heads, nc, -1))
            grad_states = np.matmul(swap(cx.cross, -1, -2), grad_carry).reshape(cx.carry.shape)
            grad_carry_n = np.matmul(swap(qc, -1, -2), g_den)[..., 0]
            grad_kg = np.matmul(vc, swap(grad_states, -1, -2))
            grad_kg += np.matmul(swap(cx.cross, -1, -2), grad_carry_n)[..., None, :]
            g_v += np.matmul(cx.kg, grad_states)
            grad_kg *= cx.key_gate
            g_k += grad_kg
            g_a += np.einsum("...d,...d->...", kc, grad_kg)
        g_a = self.uncut(g_a)
        g_f = np.flip(np.cumsum(np.flip(self.uncut(g_u) - g_a, -1), axis=-1), -1) * sigmoid_np(-self.f_pre)
        return self.uncut(g_q), self.uncut(g_k), self.uncut(g_v), g_a, g_f


def _upper(size: int, k: int, dtype) -> np.ndarray:
    """(size, size): -inf on and above the k-th diagonal, 0 below it. Added
    to exponents, it gives the exps of a lower-triangular mask."""
    return np.triu(np.full((size, size), -np.inf, dtype=dtype), k=k)

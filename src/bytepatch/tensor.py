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
chunks, O(n) gate vectors and its output, and recomputes every (·, L, L)
and (·, L, v) chunk matrix in its backward. Each computes the chain's values
and gradients bit for bit, and `log_softmax`'s backward builds its gradient
in one scratch array.

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
    """Logistic function through the tanh identity: one pass, no overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    if axis is None:
        denom = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        denom = int(np.prod([x.shape[a] for a in axes]))
    return mul(reduce_sum(x, axis, keepdims), _as_tensor(1.0 / denom, x))


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


def gated_matmul(u: Tensor, v: Tensor, w: Tensor) -> Tensor:
    """(u * v) @ w for a weight w, as one node: it keeps u, v and w, not their
    product, and recomputes the product for w's gradient. The gradient that
    reaches the product is computed once, for u's and v's VJPs both. Each
    value is `matmul(u * v, w)`'s, bit for bit."""
    if u.shape != v.shape:
        raise ShapeError(f"gated_matmul: gate shapes {u.shape} and {v.shape} differ")
    if u.ndim < 2 or w.ndim != 2 or u.shape[-1] != w.shape[0]:
        raise ShapeError(f"gated_matmul: {u.shape} @ {w.shape} needs a 2-D weight")
    ud, vd, wd = u.data, v.data, w.data
    shape, (d, m) = u.shape, w.shape
    product_grad: list[np.ndarray] = []  # [output gradient, the product's gradient from it]

    def grad_product(g):
        if not product_grad or product_grad[0] is not g:
            product_grad[:] = [g, (g.reshape(-1, m) @ wd.T).reshape(shape)]
        return product_grad[1]

    return _make(np.matmul(ud * vd, wd), "gated_matmul",
                 (u, lambda g: grad_product(g) * vd),
                 (v, lambda g: grad_product(g) * ud),
                 (w, lambda g: (ud * vd).reshape(-1, d).T @ g.reshape(-1, m)))


def silu_gated_matmul(a: Tensor, up: Tensor, w: Tensor) -> Tensor:
    """(silu(a) * up) @ w for a weight w, SwiGLU's gate and down-projection
    as one node, with silu(x) = x * sigmoid(x). It keeps a, up and w; its
    first VJP to run recomputes sigmoid(a), silu(a) and the product's
    gradient once for all three. Each value is `gated_matmul(u, up, w)`'s
    with u the silu of a, bit for bit."""
    if a.shape != up.shape:
        raise ShapeError(f"silu_gated_matmul: gate shapes {a.shape} and {up.shape} differ")
    if a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"silu_gated_matmul: {a.shape} @ {w.shape} needs a 2-D weight")
    ad, ud, wd = a.data, up.data, w.data
    shape, (d, m) = a.shape, w.shape
    memo: list[np.ndarray] = []  # [output gradient, the product's gradient from it, sigmoid(a), silu(a)]

    def recompute(g):
        if not memo or memo[0] is not g:
            s = sigmoid_np(ad)
            memo[:] = [g, (g.reshape(-1, m) @ wd.T).reshape(shape), s, ad * s]
        return memo[1:]

    def vjp_a(g):
        product_grad, s, _ = recompute(g)
        return product_grad * ud * (s + ad * s * (1.0 - s))

    def vjp_up(g):
        product_grad, _, silu_a = recompute(g)
        return product_grad * silu_a

    def vjp_w(g):
        silu_a = recompute(g)[2]
        return (silu_a * ud).reshape(-1, d).T @ g.reshape(-1, m)

    return _make(np.matmul(ad * sigmoid_np(ad) * ud, wd), "silu_gated_matmul",
                 (a, vjp_a), (up, vjp_up), (w, vjp_w))


# -- gathers ----------------------------------------------------------------

def take_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Embedding lookup: table (R, d), idx int array of any shape -> idx.shape + (d,)."""
    idx = np.asarray(idx)
    shape, dtype = table.shape, table.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        return full

    return _make(table.data[idx], "take_rows", (table, vjp))


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Batched row gather: x (B, R, d), idx (B, P) -> (B, P, d)."""
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.ndim != 2:
        raise ShapeError("gather_rows expects x (B, R, d) and idx (B, P)")
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, (np.arange(shape[0])[:, None], idx), g)
        return full

    return _make(np.take_along_axis(x.data, idx[:, :, None], axis=1), "gather_rows", (x, vjp))


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row selection along the last axis: x (..., n, V), idx (..., n) -> (..., n)."""
    idx = np.asarray(idx)
    if idx.shape != x.shape[:-1]:
        raise ShapeError(f"pick: idx shape {idx.shape} must equal {x.shape[:-1]}")
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return full

    return _make(np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0], "pick", (x, vjp))


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
    """x / sqrt(mean(x^2, last axis) + eps) * gain, the gain broadcast over
    x's leading axes. The node keeps x, the scale and the gain, and
    recomputes the normalized x for the gain's gradient."""
    _binary(x, gain, "rmsnorm")
    xd, gd, sg = x.data, gain.data, gain.shape
    r = rms_scale_np(xd, eps)
    n = x.shape[-1]

    def vjp_x(g):
        g = g * gd
        dot = (g * xd).sum(axis=-1, keepdims=True)
        return r * g - (r ** 3 / n) * dot * xd

    return _make(xd * r * gd, "rmsnorm",
                 (x, vjp_x),
                 (gain, lambda g: _unbroadcast(g * (xd * r), sg)))


def rms_scale_np(x: np.ndarray, eps: float) -> np.ndarray:
    """1 / sqrt(mean(x^2, last axis) + eps), kept as a size-1 last axis;
    `x * rms_scale_np(x, eps)` is the RMS-normalized x."""
    with np.errstate(all="ignore"):
        return 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


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

def mlstm_chunkwise(q: Tensor, k: Tensor, v: Tensor, i_pre: Tensor, f_pre: Tensor, chunk: int) -> Tensor:
    """The mLSTM's chunkwise-parallel core as one node: queries and keys
    (B, NH, n, qk), values (B, NH, n, v) and the input and forget gates'
    pre-activations (B, NH, n) give the heads' outputs h (B, NH, n, v).

    The n bytes split into the fewest chunks of at most `chunk` bytes, all of
    one length L, the last one padded. Inside a chunk the exponential-gate
    recurrence unrolls into a decay matrix over the chunk's position pairs;
    each chunk's key-value state and normalizer reach the later chunks
    through one strictly-lower decay matmul over chunks. Every exponent is
    shifted by a running max of the gate log-sums, which cancels between
    numerator and denominator, and no shifted exponent is positive. The one
    other exp, the denominator's floor exp(-m_t), stays below e^15 because
    m_t >= i_t >= -15 under the gates' soft cap. So no intermediate can
    overflow unseen, and the output's finite check sees the rest; the inputs
    are checked too, since a forget gate at +inf would give a finite output.

    The node keeps q, k and v in chunks, O(n) gate vectors and h, and no
    chunk matrix: the first of its VJPs to run recomputes them and all five
    input gradients, and the others hand theirs out. Its values and
    gradients are those of the composed graph that the tests keep as its
    oracle, bit for bit: `_MlstmChunks` does that graph's arithmetic op by
    op, on arrays of the same layouts, and accumulates each gradient in the
    order that graph's sweep did."""
    arrays = (q.data, k.data, v.data, i_pre.data, f_pre.data)
    for arr in arrays:
        _check_finite(arr, "mlstm_chunkwise")
    core = _MlstmChunks(*arrays, chunk)
    h = core.forward()
    grads: list = []  # [output gradient, the five input gradients from it]

    def vjp(i: int) -> Vjp:
        def grad(g):
            if not grads or grads[0] is not g:
                grads[:] = [g, core.input_grads(g, h)]
            return grads[1][i]
        return grad

    # the inputs in the order in which the composed graph's sweep finished
    # their branches, so that the sweep outside adds their gradients into
    # the block's normed input in the same order
    order = (2, 0, 1, 3, 4) if core.nc > 1 else (2, 3, 4, 0, 1)
    inputs = (q, k, v, i_pre, f_pre)
    return _make(h, "mlstm_chunkwise", *((inputs[i], vjp(i)) for i in order))


class _MlstmChunks:
    """`mlstm_chunkwise`'s inputs in chunks and its gate vectors; the chunk
    matrices are recomputed from them for the forward and for the backward."""

    def __init__(self, q, k, v, i_pre, f_pre, chunk: int):
        b, heads, n, _ = q.shape
        fcum = np.cumsum(logsigmoid_np(f_pre), axis=-1)  # F_t = sum_{s<=t} log f_s
        a = i_pre - fcum  # a_s = i_s - F_s
        # running stabilizer m_t = F_t + max_{s<=t} a_s, a constant for the
        # gradient like every other max of `a` below
        amax = np.maximum.accumulate(a, axis=-1)
        self.m = m = fcum + amax
        # nc chunks of L = ceil(n / nc) bytes, so padding stays below nc
        # bytes; a ragged last chunk is padded with zero q/k/v and with the
        # last stabilizer as u and a, so its exponents stay <= 0 too
        self.nc = nc = -(-n // chunk)
        self.size = size = -(-n // nc)
        self.pad = pad = nc * size - n
        self.cut = (slice(None), slice(None), slice(0, n))  # the n bytes of a padded axis
        last = amax[..., -1:]
        # R_c, the max of a before chunk c (a_0 for c = 0)
        self.ref = amax[..., np.maximum(np.arange(nc) * size - 1, 0)]

        def chunks(x, fill):
            if pad:
                fill = np.broadcast_to(np.asarray(fill, dtype=x.dtype), x.shape[:2] + (pad,) + x.shape[3:])
                x = np.concatenate([x, fill], axis=2)
            return x.reshape((b, heads, nc, size) + x.shape[3:])

        # u_t = F_t - m_t is -max_{s<=t} a_s
        self.uc, self.ac = chunks(fcum - m, -last), chunks(a, last)
        self.qc, self.kc, self.vc = chunks(q, 0.0), chunks(k, 0.0), chunks(v, 0.0)
        self.f_pre = f_pre

    def matrices(self) -> SimpleNamespace:
        """The chunk matrices: the in-chunk decay, q·kᵀ and their product w,
        and over two or more chunks the cross-chunk decay, key gates, gated
        keys, carried states and normalizers, and their products with q."""
        uc, ac, qc, kc, vc, nc, size = self.uc, self.ac, self.qc, self.kc, self.vc, self.nc, self.size
        b, heads, _, _, dk = qc.shape
        dv = vc.shape[-1]
        # inside each chunk: decay[t, s] = exp(u_t + a_s) for s <= t. u and a
        # have the gates' strided layout, so C-ordered copies make the sum
        # C-ordered, as the composed graph's decay was, and fast. The pairs
        # s > t get -inf added, whose exp is the composed graph's 0: one
        # elementwise exp over all pairs gives the kept ones the same bits
        # as a masked exp, at a third of its time on rows of 30
        decay = np.ascontiguousarray(uc)[..., :, None] + np.ascontiguousarray(ac)[..., None, :]
        decay += _upper(size, 1, decay.dtype)
        np.exp(decay, out=decay)
        qk = np.matmul(qc, np.swapaxes(kc, -1, -2))
        mx = SimpleNamespace(decay=decay, qk=qk, w=decay * qk)
        if nc > 1:  # across chunks, an empty sum for one chunk
            # chunk c's state sum_s exp(a_s - M_c) k_s v_s^T and normalizer,
            # with M_c the chunk's max of a; chunk c reads the earlier states
            # through one strictly-lower decay exp(M_c' - R_c) (row 0 is empty)
            cmax, ref = ac.max(axis=-1), self.ref  # (B, NH, nc)
            mx.cross = cross = np.empty((b, heads, nc, nc), dtype=qk.dtype)  # C-ordered, as composed
            np.subtract(cmax[..., None, :], ref[..., :, None], out=cross)
            cross += _upper(nc, 0, cross.dtype)
            np.exp(cross, out=cross)
            mx.key_gate = np.exp(ac - cmax[..., None])
            mx.kg = kg = kc * mx.key_gate.reshape((b, heads, nc, size, 1))
            states = np.matmul(np.swapaxes(kg, -1, -2), vc).reshape((b, heads, nc, dk * dv))
            mx.carry = np.matmul(cross, states).reshape((b, heads, nc, dk, dv))
            mx.carry_n = np.matmul(cross, kg.sum(axis=-2)).reshape((b, heads, nc, dk, 1))
            # u_t + R_c <= 0, because R_c <= max_{s<=t} a_s = -u_t
            mx.e0 = np.exp(uc + ref[..., None])
            mx.e = mx.e0.reshape((b, heads, nc, size, 1))
            mx.q_carry = np.matmul(qc, mx.carry)
            mx.q_carry_n = np.matmul(qc, mx.carry_n)
        return mx

    def forward(self) -> np.ndarray:
        """h, (B, NH, n, v)."""
        mx = self.matrices()
        num = np.matmul(mx.w, self.vc)  # (B, NH, nc, L, v)
        if self.nc > 1:
            num = np.add(num, mx.q_carry * mx.e, out=num)
        num = self.uncut(num)
        den = self.denominator(mx)
        floor = np.exp(-self.m).reshape(den.shape)
        with np.errstate(all="ignore"):
            return num / np.where(np.abs(den) >= floor, np.abs(den), floor)

    def denominator(self, mx: SimpleNamespace) -> np.ndarray:
        """The (B, NH, n, 1) denominator before its floor."""
        den = mx.w.sum(axis=-1, keepdims=True)
        if self.nc > 1:
            den = den + mx.q_carry_n * mx.e
        return self.uncut(den)

    def uncut(self, x: np.ndarray) -> np.ndarray:
        """A chunked value, or its gradient, as the n bytes it came from."""
        b, heads, nc, size = x.shape[:4]
        x = x.reshape((b, heads, nc * size) + x.shape[4:])
        return x[self.cut] if self.pad else x

    def input_grads(self, g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
        """The gradients of (q, k, v, i_pre, f_pre) from h's gradient g: the
        composed graph's VJPs, in the order its sweep ran them."""
        mx = self.matrices()
        qc, kc, vc, w, cut, uncut = self.qc, self.kc, self.vc, mx.w, self.cut, self.uncut
        b, heads, nc, size, dk = qc.shape
        dv = vc.shape[-1]
        swap = np.swapaxes

        def unpad(x):  # a cut value's gradient, chunked and zero on the padding
            if self.pad:
                full = np.zeros((b, heads, nc * size) + x.shape[3:], dtype=x.dtype)
                full[cut] = x
                x = full
            return x.reshape((b, heads, nc, size) + x.shape[3:])

        den = self.denominator(mx)
        floor = np.exp(-self.m).reshape(den.shape)
        above = np.abs(den) >= floor
        den_max = np.where(above, np.abs(den), floor)
        g_num = unpad(g / den_max)
        g_w = np.matmul(g_num, swap(vc, -1, -2))
        g_vc = np.matmul(swap(w, -1, -2), g_num)
        if nc > 1:
            g_q_carry = g_num * mx.e
            g_e = _unbroadcast(g_num * mx.q_carry, mx.e.shape)
            g_qc = np.matmul(g_q_carry, swap(mx.carry, -1, -2))
            g_carry = np.matmul(swap(qc, -1, -2), g_q_carry).reshape((b, heads, nc, dk * dv))
            g_states = np.matmul(swap(mx.cross, -1, -2), g_carry).reshape((b, heads, nc, dk, dv))
            g_kg = swap(np.matmul(g_states, swap(vc, -1, -2)), -1, -2)
            g_vc += np.matmul(mx.kg, g_states)
        g_v = uncut(g_vc)
        g_den_max = np.negative(g)  # -g * h / den_max, in one buffer
        g_den_max *= h
        g_den_max /= den_max
        g_den = unpad(_unbroadcast(g_den_max, den_max.shape) * above * np.sign(den))
        g_w += g_den
        g_scores = g_w * mx.qk
        g_scores *= mx.decay
        g_qk = np.multiply(g_w, mx.decay, out=g_w)
        g_uc, g_ac = g_scores.sum(axis=-1), g_scores.sum(axis=-2)
        if nc > 1:
            g_qc += np.matmul(g_qk, kc)
        else:
            g_qc = np.matmul(g_qk, kc)
        g_kc = swap(np.matmul(swap(qc, -1, -2), g_qk), -1, -2)
        if nc > 1:
            key_gate5 = mx.key_gate.reshape((b, heads, nc, size, 1))
            g_q_carry_n = g_den * mx.e
            g_e = g_e + _unbroadcast(g_den * mx.q_carry_n, mx.e.shape)
            g_qc += np.matmul(g_q_carry_n, swap(mx.carry_n, -1, -2))
            g_carry_n = np.matmul(swap(qc, -1, -2), g_q_carry_n).reshape((b, heads, nc, dk))
            g_kgs = np.matmul(swap(mx.cross, -1, -2), g_carry_n)
            g_kg = g_kg + np.broadcast_to(np.expand_dims(g_kgs, -2), mx.kg.shape)
            g_kc = g_kc + g_kg * key_gate5
            g_ac = g_ac + _unbroadcast(g_kg * kc, key_gate5.shape).reshape(mx.key_gate.shape) * mx.key_gate
            g_uc = g_uc + g_e.reshape(mx.e0.shape) * mx.e0
        g_a = uncut(g_ac)
        g_fcum = -g_a + uncut(g_uc)
        g_f = np.flip(np.cumsum(np.flip(g_fcum, -1), axis=-1), -1) * sigmoid_np(-self.f_pre)
        return uncut(g_qc), uncut(g_kc), g_v, g_a, g_f


def _upper(size: int, k: int, dtype) -> np.ndarray:
    """(size, size): -inf on and above the k-th diagonal, 0 below it. Added
    to exponents, it gives the exps of a lower-triangular mask."""
    return np.triu(np.full((size, size), -np.inf, dtype=dtype), k=k)

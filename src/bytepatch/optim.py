"""AdamW with global gradient-norm clipping and decoupled weight decay.

Parameters are organized into named groups so the two-rate schedule used in
end-to-end training (slower backbone, faster byte-level modules) can set a
different learning rate per group each step.

The update runs in each tensor's own dtype and lands on the tensor in place:
the training steps' float32 copies keep float32 moments and no float64
masters, since mixed-precision training (Micikevicius et al., arXiv
1710.03740) needs those only for a half-precision compute dtype. Only the
gradient norm adds up its squares in float64. On float64 tensors the same
class is the float64 oracle.
"""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, Tensor

BETA1 = 0.9  # first-moment decay
BETA2 = 0.95  # second-moment decay
EPS = 1e-8  # added to the root of the second moment
WEIGHT_DECAY = 0.1  # decoupled, times the group's learning rate
GRAD_CLIP = 0.5  # global gradient-norm ceiling


class AdamW:
    def __init__(self, groups: dict[str, list[Tensor]]):
        """`groups` holds the tensors whose `.grad` the steps fill and `step`
        empties, and whose values the updates change in place."""
        self.groups = {name: list(params) for name, params in groups.items()}
        self.step_count = 0
        self.lr = {name: 0.0 for name in self.groups}
        self.m = {}
        self.v = {}
        for p in self.params():
            self.m[id(p)] = np.zeros_like(p.data)
            self.v[id(p)] = np.zeros_like(p.data)

    def params(self) -> list[Tensor]:
        return [p for params in self.groups.values() for p in params]

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad = None

    def grad_norm(self) -> float:
        total = 0.0
        for p in self.params():
            if p.grad is not None:
                total += float(np.sum(np.square(p.grad, dtype=np.float64)))
        return float(np.sqrt(total))

    def step(self) -> float:
        """Apply one update and drop each gradient it applies, so no step's
        gradients outlive it; returns the pre-clip global gradient norm.

        Raises `NonFiniteError`, before any state changes, when that norm is
        not finite. For float32 gradients this is exactly a NaN or Inf in
        some gradient: a float32 value squared cannot overflow float64. A
        float64 gradient with an entry above about 1e154 overflows the sum of
        squares and raises too, rather than being clipped to a zero gradient."""
        norm = self.grad_norm()
        if not np.isfinite(norm):
            raise NonFiniteError("non-finite gradient in optimizer step")
        scale = GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        root_bc2 = (1.0 - BETA2 ** t) ** 0.5
        for name, params in self.groups.items():
            lr = self.lr[name]
            step_size = lr * root_bc2 / bc1
            for p in params:
                if p.grad is None:
                    continue
                # m = β1·m + (1-β1)·g;  v = β2·v + ((1-β2)·g)·g
                # w -= (m / (√v + ε·√bc2))·step_size, i.e. lr·(m/bc1) / (√(v/bc2) + ε)
                # (arXiv 1412.6980, sec. 2);  w *= 1 - lr·WEIGHT_DECAY;  each in that order,
                # in p's dtype, in a new `g` (two tensors may share one) and one scratch array
                g = np.multiply(p.grad, scale, dtype=p.dtype)
                s = np.empty_like(g)
                m, v = self.m[id(p)], self.v[id(p)]
                m *= BETA1
                m += np.multiply(g, 1.0 - BETA1, out=s)
                v *= BETA2
                v += np.multiply(np.multiply(g, 1.0 - BETA2, out=s), g, out=s)
                np.sqrt(v, out=s)
                s += EPS * root_bc2
                update = np.divide(m, s, out=g)
                update *= step_size
                p.data -= update
                p.data *= 1.0 - lr * WEIGHT_DECAY
                p.grad = None  # applied: the next backward starts from none
        return norm

"""AdamW with global gradient-norm clipping and decoupled weight decay.

Parameters are organized into named groups so the two-rate schedule used in
end-to-end training (slower backbone, faster byte-level modules) can set a
different learning rate per group each step.

The tensors the training steps differentiate are float32 copies of float64
master weights, as in mixed-precision training (Micikevicius et al., arXiv
1710.03740): the gradient norm adds up its squares in float64, the moments
and the update are float64, the update lands on the master, and each master
is then written back into its copy. A tensor without a master is its own.
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
    def __init__(self, groups: dict[str, list[Tensor]], masters: dict[str, list[Tensor]] | None = None):
        """`groups` holds the tensors whose `.grad` the steps fill and `step`
        empties; `masters`, in the same layout, the float64 tensors the
        updates land on."""
        self.groups = {name: list(params) for name, params in groups.items()}
        self.masters = {name: list(ts) for name, ts in (masters or groups).items()}
        self.step_count = 0
        self.lr = {name: 0.0 for name in self.groups}
        self.m = {}
        self.v = {}
        for p in self.params():
            self.m[id(p)] = np.zeros(p.shape)
            self.v[id(p)] = np.zeros(p.shape)

    def params(self) -> list[Tensor]:
        return [p for params in self.groups.values() for p in params]

    def set_lr(self, name: str, lr: float) -> None:
        self.lr[name] = lr

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
        bc2 = 1.0 - BETA2 ** t
        for name, params in self.groups.items():
            lr = self.lr[name]
            for p, master in zip(params, self.masters[name], strict=True):
                if p.grad is None:
                    continue
                # m = β1·m + (1-β1)·g;  v = β2·v + ((1-β2)·g)·g
                # w -= lr·(m/bc1) / (√(v/bc2) + ε);  w -= (lr·WEIGHT_DECAY)·w
                # computed in `g` and one scratch array, each in that order
                g = np.multiply(p.grad, scale, dtype=np.float64)
                s = np.empty_like(g)
                m = self.m[id(p)]
                v = self.v[id(p)]
                m *= BETA1
                m += np.multiply(g, 1.0 - BETA1, out=s)
                v *= BETA2
                v += np.multiply(np.multiply(g, 1.0 - BETA2, out=s), g, out=s)
                np.sqrt(np.divide(v, bc2, out=s), out=s)
                s += EPS
                update = np.divide(np.divide(m, bc1, out=g), s, out=g)
                master.data -= np.multiply(update, lr, out=update)
                master.data -= np.multiply(master.data, lr * WEIGHT_DECAY, out=s)
                if p.data is not master.data:
                    np.copyto(p.data, master.data, casting="same_kind")
                p.grad = None  # applied: the next backward starts from none
        return norm

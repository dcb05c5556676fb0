"""AdamW with global gradient-norm clipping and decoupled weight decay.

Parameters are organized into named groups so the two-rate schedule used in
end-to-end training (slower backbone, faster byte-level modules) can set a
different learning rate per group each step.
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
        self.groups = {name: list(params) for name, params in groups.items()}
        self.step_count = 0
        self.lr = {name: 0.0 for name in self.groups}
        self.m = {}
        self.v = {}
        for params in self.groups.values():
            for p in params:
                self.m[id(p)] = np.zeros_like(p.data)
                self.v[id(p)] = np.zeros_like(p.data)

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
                total += float(np.sum(p.grad * p.grad))
        return float(np.sqrt(total))

    def step(self) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        for p in self.params():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteError("non-finite gradient in optimizer step")
        norm = self.grad_norm()
        scale = GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, params in self.groups.items():
            lr = self.lr[name]
            for p in params:
                if p.grad is None:
                    continue
                g = p.grad * scale
                m = self.m[id(p)]
                v = self.v[id(p)]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
                p.data -= lr * update
                p.data -= lr * WEIGHT_DECAY * p.data
        return norm

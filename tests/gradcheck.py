"""Central finite differences against the engine's analytic gradients; the
test suite's oracle for every op and layer VJP."""

from collections.abc import Callable, Sequence

import numpy as np

from bytepatch.tensor import Tensor


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

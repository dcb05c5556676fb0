"""AdamW's in-place update against the formula it computes, in the
parameter's own dtype; float32 against its float64 oracle; and its refusal
of a non-finite gradient."""

import numpy as np
import pytest

from bytepatch.optim import BETA1, BETA2, EPS, GRAD_CLIP, WEIGHT_DECAY, AdamW
from bytepatch.tensor import NonFiniteError, Tensor

SHAPES = [(16, 24), (24,), (3, 5, 7), (1,)]
DTYPES = [np.float32, np.float64]


def formula_step(opt: AdamW) -> float:
    """The update written as plain expressions, one temporary per term, in
    each tensor's own dtype."""
    norm = opt.grad_norm()
    scale = GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0
    opt.step_count += 1
    bc1 = 1.0 - BETA1 ** opt.step_count
    root_bc2 = (1.0 - BETA2 ** opt.step_count) ** 0.5
    for name, params in opt.groups.items():
        lr = opt.lr[name]
        for p in params:
            g = p.grad * scale
            m, v = opt.m[id(p)], opt.v[id(p)]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= (m / (np.sqrt(v) + EPS * root_bc2)) * (lr * root_bc2 / bc1)
            p.data *= 1.0 - lr * WEIGHT_DECAY
            p.grad = None
    return norm


def textbook_step(opt: AdamW) -> float:
    """Decoupled AdamW as usually written: bias-corrected moments, ε added
    to the root of the corrected second moment, decay after the update."""
    norm = opt.grad_norm()
    scale = GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0
    opt.step_count += 1
    for name, params in opt.groups.items():
        lr = opt.lr[name]
        for p in params:
            g = p.grad * scale
            m, v = opt.m[id(p)], opt.v[id(p)]
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat, v_hat = m / (1.0 - BETA1 ** opt.step_count), v / (1.0 - BETA2 ** opt.step_count)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
            p.data -= lr * WEIGHT_DECAY * p.data
            p.grad = None
    return norm


def run(step, dtype=np.float32, n_steps: int = 6, start_dtype=None):
    """Tensors of `dtype` in two groups, fed float32 gradients (cast to
    `dtype`); the first steps clip, the later ones do not. The start values
    and the gradients depend on the seed only, so two runs of any dtypes see
    the same values (`start_dtype` rounds the start values first)."""
    rng = np.random.default_rng(0)
    start = [rng.normal(size=s).astype(start_dtype or dtype) for s in SHAPES]
    work = [Tensor(w.astype(dtype)) for w in start]
    opt = AdamW({"a": work[:2], "b": work[2:]})
    norms = []
    for i in range(n_steps):
        opt.lr["a"] = 1e-2 * (i + 1)
        opt.lr["b"] = 3e-3
        for p in work:
            p.grad = (rng.normal(size=p.shape) * 0.3 ** i).astype(np.float32).astype(dtype)
        norms.append(step(opt))
    return opt, work, norms


def test_in_place_step_is_bit_identical_to_the_formula():
    for dtype in DTYPES:
        (opt, work, norms), (ref, ref_work, ref_norms) = run(AdamW.step, dtype), run(formula_step, dtype)
        assert norms == ref_norms and norms[0] > GRAD_CLIP > norms[-1]
        for p, r in zip(work, ref_work, strict=True):
            assert {p.dtype, opt.m[id(p)].dtype, opt.v[id(p)].dtype} == {np.dtype(dtype)}
            assert np.array_equal(p.data, r.data), dtype
            assert np.array_equal(opt.m[id(p)], ref.m[id(r)]) and np.array_equal(opt.v[id(p)], ref.v[id(r)]), dtype


def test_the_update_is_textbook_adamw_in_float64():
    """Folding the bias corrections into the step size and ε, and the decay
    into one product, changes only the rounding."""
    (_, work, _), (_, ref_work, _) = run(AdamW.step, np.float64), run(textbook_step, np.float64)
    for p, r in zip(work, ref_work, strict=True):
        assert np.allclose(p.data, r.data, rtol=1e-13, atol=1e-15)


def test_float32_update_tracks_its_float64_oracle():
    """From the same start values and fed the same gradients, float32 AdamW
    stays within float32 rounding of float64 AdamW over 6 steps: weights,
    first and second moments each lie within 8 units of float32 roundoff
    (2**-24) of their tensor's largest magnitude (of at least 1, for the
    weights) apart. The worst seen is 4.2 units, on a second moment."""
    (opt, work, norms), (ref, ref_work, ref_norms) = (
        run(AdamW.step, dtype, start_dtype=np.float32) for dtype in DTYPES)
    # the norm sums the same float32 values' squares in float64 on both sides
    assert norms == ref_norms and norms[0] > GRAD_CLIP > norms[-1]
    bound = 8 * 2.0 ** -24
    for p, r in zip(work, ref_work, strict=True):
        assert np.abs(p.data - r.data).max() <= bound * max(1.0, np.abs(r.data).max())
        for got, want in ((opt.m[id(p)], ref.m[id(r)]), (opt.v[id(p)], ref.v[id(r)])):
            assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_tensors_sharing_one_gradient_array_update_as_if_each_had_a_copy():
    """`add`'s VJP hands one array to both operands of equal shape, so two
    leaves may hold the same gradient: no step may scale or overwrite it in
    place. The first step clips, the second does not."""
    rng = np.random.default_rng(1)
    start = [rng.normal(size=(8, 6)).astype(np.float32) for _ in range(2)]
    shared, copied = ([Tensor(w.copy()) for w in start] for _ in range(2))
    opts = AdamW({"all": shared}), AdamW({"all": copied})
    for opt in opts:
        opt.lr["all"] = 1e-2
    for scale in (1.0, 1e-3):
        grad = (rng.normal(size=(8, 6)) * scale).astype(np.float32)
        before = grad.copy()
        shared[0].grad = shared[1].grad = grad
        copied[0].grad, copied[1].grad = grad.copy(), grad.copy()
        norms = [opt.step() for opt in opts]
        assert norms[0] == norms[1] and (norms[0] > GRAD_CLIP) == (scale == 1.0)
        assert np.array_equal(grad, before)
        for p, q in zip(shared, copied, strict=True):
            assert np.array_equal(p.data, q.data)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_gradient_raises_before_any_state_changes(bad):
    opt, work, _ = run(AdamW.step, n_steps=2)
    state = [(p.data.copy(), opt.m[id(p)].copy(), opt.v[id(p)].copy()) for p in work]
    for i, p in enumerate(work):
        for q in work:
            q.grad = np.full(q.shape, 0.1, dtype=np.float32)
        p.grad.flat[-1] = bad
        with pytest.raises(NonFiniteError):
            opt.step()
        assert opt.step_count == 2, i
        for (p0, mo, vo), q in zip(state, work, strict=True):
            assert np.array_equal(q.data, p0), i
            assert np.array_equal(opt.m[id(q)], mo) and np.array_equal(opt.v[id(q)], vo), i


def test_every_gradient_is_dropped_once_applied():
    """A step leaves no gradient behind, so the next backward starts from none;
    a tensor that got no gradient is skipped and stays without one."""
    opt, work, _ = run(AdamW.step, n_steps=1)
    assert [p.grad for p in work] == [None] * len(work)
    for p in work[1:]:
        p.grad = np.full(p.shape, 0.1, dtype=np.float32)
    before = work[0].data.copy()
    opt.step()
    assert [p.grad for p in work] == [None] * len(work)
    # skipped whole, weight decay included
    assert np.array_equal(work[0].data, before)

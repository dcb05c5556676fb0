"""AdamW's in-place update against the formula it computes, and its refusal
of a non-finite gradient."""

import numpy as np
import pytest

from bytepatch.optim import BETA1, BETA2, EPS, GRAD_CLIP, WEIGHT_DECAY, AdamW
from bytepatch.tensor import NonFiniteError, Tensor

SHAPES = [(16, 24), (24,), (3, 5, 7), (1,)]


def formula_step(opt: AdamW) -> float:
    """The update written as plain expressions, one temporary per term."""
    norm = opt.grad_norm()
    scale = GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0
    opt.step_count += 1
    bc1 = 1.0 - BETA1 ** opt.step_count
    bc2 = 1.0 - BETA2 ** opt.step_count
    for name, params in opt.groups.items():
        lr = opt.lr[name]
        for p, master in zip(params, opt.masters[name], strict=True):
            g = np.multiply(p.grad, scale, dtype=np.float64)
            m, v = opt.m[id(p)], opt.v[id(p)]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            master.data -= lr * update
            master.data -= lr * WEIGHT_DECAY * master.data
            np.copyto(p.data, master.data, casting="same_kind")
    return norm


def run(step, n_steps: int = 6):
    """Float32 copies over float64 masters in two groups, fed the same
    gradients; the first steps clip, the later ones do not."""
    rng = np.random.default_rng(0)
    masters = [Tensor(rng.normal(size=s)) for s in SHAPES]
    work = [Tensor(m.data.astype(np.float32)) for m in masters]
    opt = AdamW({"a": work[:2], "b": work[2:]}, masters={"a": masters[:2], "b": masters[2:]})
    norms = []
    for i in range(n_steps):
        opt.set_lr("a", 1e-2 * (i + 1))
        opt.set_lr("b", 3e-3)
        for p in work:
            p.grad = (rng.normal(size=p.shape) * 0.3 ** i).astype(np.float32)
        norms.append(step(opt))
    return opt, masters, work, norms


def test_in_place_step_is_bit_identical_to_the_formula():
    got, want = run(AdamW.step), run(formula_step)
    assert got[3] == want[3] and want[3][0] > GRAD_CLIP > want[3][-1]
    (opt, masters, work, _), (ref, ref_masters, ref_work, _) = got, want
    for p, r, m, rm in zip(work, ref_work, masters, ref_masters, strict=True):
        assert p.data.dtype == np.float32 and m.data.dtype == np.float64
        assert np.array_equal(p.data, r.data) and np.array_equal(m.data, rm.data)
        assert np.array_equal(opt.m[id(p)], ref.m[id(r)]) and np.array_equal(opt.v[id(p)], ref.v[id(r)])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_gradient_raises_before_any_state_changes(bad):
    opt, masters, work, _ = run(AdamW.step, n_steps=2)
    state = [(m.data.copy(), p.data.copy(), opt.m[id(p)].copy(), opt.v[id(p)].copy())
             for m, p in zip(masters, work, strict=True)]
    for i, p in enumerate(work):
        for q in work:
            q.grad = np.full(q.shape, 0.1, dtype=np.float32)
        p.grad.flat[-1] = bad
        with pytest.raises(NonFiniteError):
            opt.step()
        assert opt.step_count == 2, i
        for (m0, p0, mo, vo), m, q in zip(state, masters, work, strict=True):
            assert np.array_equal(m.data, m0) and np.array_equal(q.data, p0), i
            assert np.array_equal(opt.m[id(q)], mo) and np.array_equal(opt.v[id(q)], vo), i


def test_every_gradient_is_dropped_once_applied():
    """A step leaves no gradient behind, so the next backward starts from none;
    a tensor that got no gradient is skipped and stays without one."""
    opt, _, work, _ = run(AdamW.step, n_steps=1)
    assert [p.grad for p in work] == [None] * len(work)
    for p in work[1:]:
        p.grad = np.full(p.shape, 0.1, dtype=np.float32)
    before = work[0].data.copy()
    opt.step()
    assert [p.grad for p in work] == [None] * len(work)
    # skipped whole, weight decay included
    assert np.array_equal(work[0].data, before)

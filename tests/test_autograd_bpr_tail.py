"""``ops.bpr_tail`` against the op chain it replaces.

The fused BPR loss must be a pure refactor of
``neg(mean(log_sigmoid(sub(pos, neg))))``: the loss value and both
input gradients are asserted bitwise equal, on the loop-oracle and the
vectorized backend, in both engine dtypes, for a single pair and a
production-sized batch, under a unit upstream gradient (the plain BPR
loss) and a non-unit one (a weighted auxiliary term such as MHCN's
self-supervised loss).
"""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.engine import use_backend, use_dtype


def _chain(a, b):
    return ops.neg(ops.mean(ops.log_sigmoid(ops.sub(a, b))))


def _loss_and_grads(loss_fn, pos, neg, weight):
    a = Tensor(pos, requires_grad=True)
    b = Tensor(neg, requires_grad=True)
    loss = loss_fn(a, b)
    if weight is None:
        loss.backward()
    else:
        ops.mul(Tensor(np.array(weight)), loss).backward()
    return loss.data, a.grad, b.grad


@pytest.mark.parametrize("weight", [None, 0.37], ids=["unit", "weighted"])
@pytest.mark.parametrize("n", [1, 4096])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("backend", ["naive", "fast"])
def test_bpr_tail_bitwise_against_eager_chain(backend, dtype, n, weight):
    rng = np.random.default_rng(n)
    # Scaled so both branches of the stable softplus/sigmoid are hit.
    pos = (rng.standard_normal(n) * 4.0).astype(dtype)
    neg = (rng.standard_normal(n) * 4.0).astype(dtype)
    with use_backend(backend), use_dtype(dtype):
        fused = _loss_and_grads(ops.bpr_tail, pos, neg, weight)
        chain = _loss_and_grads(_chain, pos, neg, weight)
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)


def test_bpr_tail_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="equal score shapes"):
        ops.bpr_tail(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

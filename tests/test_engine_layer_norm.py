"""The fused ``layer_norm`` op and its backend kernels.

* naive / fast kernels agree forward and backward at both engine
  dtypes, on DGNN's shapes (d = 16 per layer, d = 48 for the final
  norm) and for every combination of requested gradients;
* finite-difference gradcheck of the op w.r.t. x, scale and shift;
* the op is one autograd node, instrumented, and is what
  ``nn.LayerNorm`` dispatches.
"""

import itertools

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, ops
from repro.engine import (
    instrument,
    tolerances,
    use_backend,
    use_dtype,
)
from repro.nn import LayerNorm

ALL_BACKENDS = ("naive", "fast")
NEEDS = list(itertools.product((True, False), repeat=3))


def _inputs(rng, n, dim, dtype):
    x = (rng.normal(size=(n, dim)) * 3.0 + 1.5).astype(dtype)
    scale = rng.normal(size=dim).astype(dtype)
    shift = rng.normal(size=dim).astype(dtype)
    grad_out = rng.normal(size=(n, dim)).astype(dtype)
    return x, scale, shift, grad_out


def _assert_close(ref, other, tol, what):
    if ref is None:
        assert other is None, what
        return
    assert other.dtype == ref.dtype, what
    np.testing.assert_allclose(ref, other, atol=tol.atol, rtol=tol.rtol,
                               err_msg=what)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n", [1, 7, 4000])
@pytest.mark.parametrize("dim", [16, 48])
def test_kernel_parity(dtype, n, dim, rng):
    tol = tolerances(dtype)
    x, scale, shift, grad_out = _inputs(rng, n, dim, np.dtype(dtype))
    results = {}
    with use_dtype(dtype):
        for name in ALL_BACKENDS:
            with use_backend(name) as backend:
                out, normed, inv_std = backend.layer_norm(x, scale, shift,
                                                          1e-5)
                grads = backend.layer_norm_backward(grad_out, normed,
                                                    inv_std, scale)
            assert out.dtype == np.dtype(dtype)
            assert inv_std.shape == (n, 1)
            results[name] = (out, normed, inv_std) + tuple(grads)
    labels = ("out", "normed", "inv_std", "grad_x", "grad_scale",
              "grad_shift")
    for label, ref, other in zip(labels, results["naive"], results["fast"]):
        _assert_close(ref, other, tol, f"{label} n={n} d={dim}")


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("needs", NEEDS)
def test_backward_honours_needs(dtype, needs, rng):
    tol = tolerances(dtype)
    x, scale, shift, grad_out = _inputs(rng, 7, 16, np.dtype(dtype))
    grads = {}
    with use_dtype(dtype):
        for name in ALL_BACKENDS:
            with use_backend(name) as backend:
                _, normed, inv_std = backend.layer_norm(x, scale, shift, 1e-5)
                grads[name] = backend.layer_norm_backward(
                    grad_out, normed, inv_std, scale, needs=needs)
    for flag, ref, other in zip(needs, grads["naive"], grads["fast"]):
        assert (ref is not None) == flag
        _assert_close(ref, other, tol, f"needs={needs}")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_gradcheck_wrt_x_scale_shift(backend, rng):
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    scale = Tensor(rng.normal(size=6), requires_grad=True)
    shift = Tensor(rng.normal(size=6), requires_grad=True)
    weights = Tensor(rng.normal(size=(4, 6)))
    with use_backend(backend):
        assert gradcheck(
            lambda a, s, h: ops.sum(ops.mul(ops.layer_norm(a, s, h), weights)),
            [x, scale, shift])


def test_forward_matches_float64_reference(rng):
    tol = tolerances()
    x, scale, shift, _ = _inputs(rng, 9, 16, np.float64)
    out = ops.layer_norm(Tensor(x), Tensor(scale), Tensor(shift), eps=1e-5)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = (x - mean) / np.sqrt(var + 1e-5) * scale + shift
    np.testing.assert_allclose(out.data, expected, atol=tol.atol,
                               rtol=tol.rtol)


def test_shape_validation(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    with pytest.raises(ValueError):
        ops.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(4)))
    with pytest.raises(ValueError):
        ops.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros((1, 4))))


def test_single_graph_node_and_instrumented(rng):
    x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    layer = LayerNorm(8)
    instrument.reset_counters()
    out = layer(x)
    # x, scale, shift and the fused output; the old chain added nine op
    # nodes.
    assert len(out._topological_order()) == 4
    ops.sum(ops.mul(out, Tensor(rng.normal(size=(5, 8))))).backward()
    stats = instrument.snapshot()
    assert stats["calls.layer_norm"] == 1
    assert stats["calls.layer_norm_backward"] == 1
    assert x.grad is not None and layer.scale.grad is not None


def test_constant_input_gets_no_gradient(rng):
    layer = LayerNorm(6)
    x = Tensor(rng.normal(size=(3, 6)))  # constant
    ops.sum(layer(x)).backward()
    assert x.grad is None
    assert layer.shift.grad is not None


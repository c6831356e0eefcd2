"""Gradient-buffer ownership and the work skipped for constant operands.

``Tensor._accumulate(grad, owned=True)`` keeps a buffer a backward
closure just allocated instead of copying it.  These tests pin down the
two ways that can go wrong — a gradient buffer shared between tensors,
or a pass-through gradient adopted and later mutated — and prove that
honouring ``owned`` changes no bit of a DGNN step's gradients.  They
also check that constant operands get no gradient product and that
``leaky_relu`` and ``dropout`` stay in the engine dtype.
"""

import numpy as np
import pytest

import repro.autograd.tensor as tensor_module
from repro.autograd import Tensor, ops
from repro.engine import arena, get_dtype, use_dtype
from repro.models.dgnn import DGNN


def _grads(tensors):
    return [t.grad for t in tensors]


class TestOwnedContract:
    def test_owned_buffer_is_kept(self, rng):
        t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        buf = np.ones((3, 4), dtype=t.data.dtype)
        t._accumulate(buf, owned=True)
        assert t.grad is buf

    def test_unowned_buffer_is_copied(self, rng):
        t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        buf = np.ones((3, 4), dtype=t.data.dtype)
        t._accumulate(buf)
        assert t.grad is not buf
        assert not np.shares_memory(t.grad, buf)

    def test_owned_buffer_of_another_dtype_is_cast(self, rng):
        t = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        other = np.float32 if t.data.dtype == np.float64 else np.float64
        buf = np.ones((2, 2), dtype=other)
        t._accumulate(buf, owned=True)
        assert t.grad is not buf
        assert t.grad.dtype == t.data.dtype


class TestNoAliasing:
    def test_add_same_operand_twice(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = ops.add(a, a)
        upstream = rng.normal(size=(3, 4)).astype(get_dtype())
        out.backward(upstream.copy())
        assert not np.shares_memory(a.grad, out.grad)
        np.testing.assert_array_equal(out.grad, upstream)
        np.testing.assert_array_equal(a.grad, upstream + upstream)

    def test_add_two_operands(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = ops.add(a, b)
        out.backward(np.ones((3, 4)))
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)
        assert not np.shares_memory(b.grad, out.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(out.grad, np.ones((3, 4)))

    @pytest.mark.parametrize("op", [ops.mul, ops.matmul])
    def test_owned_product_of_same_operand(self, op, rng):
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        out = op(a, a)
        upstream = rng.normal(size=(4, 4)).astype(get_dtype())
        out.backward(upstream.copy())
        data = a.data.astype(np.float64)
        up = upstream.astype(np.float64)
        if op is ops.mul:
            expected = 2.0 * up * data
        else:
            expected = up @ data.T + data.T @ up
        np.testing.assert_allclose(a.grad, expected, rtol=1e-5, atol=1e-5)
        np.testing.assert_array_equal(out.grad, upstream)


def _dgnn_step_grads(graph, owned: bool, monkeypatch):
    """Gradients of one DGNN training step, copied out of the arena."""
    if not owned:
        original = Tensor._accumulate

        def never_owned(self, grad, owned=False):
            return original(self, grad, owned=False)

        monkeypatch.setattr(Tensor, "_accumulate", never_owned)
    copies = []
    real_copy = tensor_module._grad_copy

    def counting_copy(grad, dtype):
        copies.append(1)
        return real_copy(grad, dtype)

    monkeypatch.setattr(tensor_module, "_grad_copy", counting_copy)
    try:
        model = DGNN(graph, embed_dim=16, num_layers=2, num_memory_units=8,
                     seed=0, message_dropout=0.1)
        rng = np.random.default_rng(7)
        users = rng.integers(0, graph.num_users, 64)
        positives = rng.integers(0, graph.num_items, 64)
        negatives = rng.integers(0, graph.num_items, 64)
        with arena.step_scope():
            loss = model.bpr_loss(users, positives, negatives, l2=1e-4)
            loss.backward()
            grads = {name: np.array(p.grad, copy=True)
                     for name, p in model.named_parameters()}
    finally:
        monkeypatch.undo()
    return grads, len(copies)


def test_dgnn_step_gradients_bitwise_with_and_without_ownership(
        tiny_graph, monkeypatch):
    honoured, copies_honoured = _dgnn_step_grads(tiny_graph, True,
                                                 monkeypatch)
    ignored, copies_ignored = _dgnn_step_grads(tiny_graph, False,
                                               monkeypatch)
    assert set(honoured) == set(ignored)
    for name in honoured:
        assert honoured[name].dtype == ignored[name].dtype, name
        np.testing.assert_array_equal(honoured[name], ignored[name],
                                      err_msg=name)
    assert copies_honoured < copies_ignored


class TestConstantOperands:
    """A constant operand's gradient product is never built."""

    @pytest.mark.parametrize("build", [
        lambda a, c: ops.mul(a, c),
        lambda a, c: ops.mul(c, a),
        lambda a, c: ops.div(a, c),
        lambda a, c: ops.div(c, a),
        lambda a, c: ops.sub(a, c),
        lambda a, c: ops.matmul(a, c),
        lambda a, c: ops.matmul(c, a),
        lambda a, c: ops.maximum(a, c),
        lambda a, c: ops.where(np.eye(3, dtype=bool), c, a),
    ])
    def test_constant_side_skipped(self, build, rng, monkeypatch):
        a = Tensor(rng.normal(size=(3, 3)) + 5.0, requires_grad=True)
        constant = Tensor(rng.normal(size=(3, 3)) + 5.0)
        calls = []
        original = Tensor._accumulate

        def recording(self, grad, owned=False):
            calls.append(self)
            return original(self, grad, owned=owned)

        out = build(a, constant)
        monkeypatch.setattr(Tensor, "_accumulate", recording)
        ops.sum(out).backward()
        assert not any(t is constant for t in calls)
        assert a.grad is not None


class TestEngineDtype:
    def test_leaky_relu_backward_stays_in_input_dtype(self, rng,
                                                      monkeypatch):
        with use_dtype("float32"):
            a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
            out = ops.leaky_relu(a, 0.2)
            seen = []
            original = Tensor._accumulate

            def recording(self, grad, owned=False):
                if self is a:
                    seen.append(np.asarray(grad).dtype)
                return original(self, grad, owned=owned)

            monkeypatch.setattr(Tensor, "_accumulate", recording)
            out.backward(np.ones((5, 4), dtype=np.float32))
        assert seen == [np.dtype(np.float32)]
        expected = np.where(a.data > 0, 1.0, np.float32(0.2))
        np.testing.assert_array_equal(a.grad, expected.astype(np.float32))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_dropout_mask_bitwise_equal_to_float64_mask(self, dtype, rng):
        rate = 0.3
        with use_dtype(dtype):
            x = Tensor(rng.normal(size=(40, 16)))
            out = ops.dropout(x, rate, np.random.default_rng(11))
            draw = np.random.default_rng(11).random(x.shape)
            legacy = ((draw >= rate) / (1.0 - rate)).astype(dtype)
        assert out.data.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out.data, x.data * legacy)

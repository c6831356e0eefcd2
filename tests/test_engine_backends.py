"""Parity suite: every backend must match the naive loop oracle.

Three levels: raw kernels (forward values), autograd ops built on them
(gradients, including finite-difference checks), and end-to-end models
(final embeddings, loss values and one full Adam step for DGNN plus four
baselines).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, no_grad, ops
from repro.engine import (
    KernelBackend,
    instrument,
    available_backends,
    get_backend,
    set_backend,
    tolerances,
    use_backend,
)
from repro.models import create_model
from repro.nn.optim import Adam

ALL_BACKENDS = ("naive", "fast")
PARITY_MODELS = ("dgnn", "lightgcn", "ngcf", "diffnet", "mhcn")


def _parity_atol():
    """Cross-backend disagreement is pure accumulation-order noise, so the
    bar scales with the active engine precision: 1e-8 under the default
    float64, the policy atol (1e-4) under the float32 CI leg."""
    return max(1e-8, tolerances().atol)


def _random_csr(rng, rows, cols, density=0.2):
    matrix = sp.random(rows, cols, density=density, format="csr",
                       random_state=np.random.RandomState(int(rng.integers(2**31))))
    return sp.csr_matrix(matrix, dtype=np.float64)


class TestKernelParity:
    def test_registry_contains_all(self):
        names = set(available_backends())
        assert {"naive", "fast"} <= names

    def test_use_backend_restores(self):
        before = get_backend().name
        with use_backend("naive"):
            assert get_backend().name == "naive"
        assert get_backend().name == before

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            set_backend("does-not-exist")

    def test_spmm_forward_parity(self, rng):
        matrix = _random_csr(rng, 17, 11)
        dense = rng.normal(size=(11, 5))
        outputs = {}
        for name in ALL_BACKENDS:
            with use_backend(name):
                outputs[name] = get_backend().spmm(matrix, dense)
        for name in ALL_BACKENDS[1:]:
            np.testing.assert_allclose(outputs["naive"], outputs[name],
                                       atol=1e-12, err_msg=name)

    def test_gathered_rowwise_dot_parity(self, rng):
        a = rng.normal(size=(9, 6))
        b = rng.normal(size=(13, 6))
        ai = rng.integers(0, 9, size=25).astype(np.int64)
        bi = rng.integers(0, 13, size=25).astype(np.int64)
        outputs = {}
        for name in ALL_BACKENDS:
            with use_backend(name):
                outputs[name] = get_backend().gathered_rowwise_dot(a, ai, b, bi)
        expected = np.sum(a[ai] * b[bi], axis=1)
        for name in ALL_BACKENDS:
            np.testing.assert_allclose(outputs[name], expected, atol=1e-12,
                                       err_msg=name)

    def test_segment_reductions_parity(self, rng):
        values = rng.normal(size=(20, 4))
        ids = rng.integers(0, 6, size=20).astype(np.int64)
        for method in ("segment_sum", "segment_mean"):
            outputs = {}
            for name in ALL_BACKENDS:
                with use_backend(name):
                    outputs[name] = getattr(get_backend(), method)(values, ids, 6)
            for name in ALL_BACKENDS[1:]:
                np.testing.assert_allclose(outputs["naive"], outputs[name],
                                           atol=1e-12, err_msg=f"{method}/{name}")


class TestScatterBitwise:
    """The fast scatter kernels equal ``np.add.at`` bit for bit."""

    @staticmethod
    def _grads(rng, shape, dtype):
        # Magnitudes over 16 decades make every summation order show.
        scale = 10.0 ** rng.integers(-8, 8, size=shape)
        return (rng.standard_normal(shape) * scale).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("trailing", [(), (6,), (3, 4)])
    def test_scatter_add_rows_matches_add_at(self, rng, dtype, index_dtype,
                                             trailing):
        # 400 rows into 7 targets: every target is hit dozens of times.
        indices = rng.integers(0, 7, size=400).astype(index_dtype)
        grad = self._grads(rng, (400,) + trailing, dtype)
        expected = np.zeros((7,) + trailing, dtype)
        np.add.at(expected, indices, grad)
        with use_backend("fast"):
            result = get_backend().scatter_add_rows(grad, indices, 7)
        assert result.dtype == expected.dtype
        assert result.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_sum_matches_add_at(self, rng, dtype):
        ids = rng.integers(0, 5, size=300).astype(np.int64)
        values = self._grads(rng, (300, 4), dtype)
        expected = np.zeros((9, 4), dtype)
        np.add.at(expected, ids, values)
        with use_backend("fast"):
            result = get_backend().segment_sum(values, ids, 9)
        assert result.tobytes() == expected.tobytes()

    def test_empty_indices_give_zeros(self):
        grad = np.zeros((0, 3))
        with use_backend("fast"):
            result = get_backend().scatter_add_rows(
                grad, np.zeros(0, np.int64), 4)
        assert result.tobytes() == np.zeros((4, 3)).tobytes()

    def test_out_buffer_is_zeroed_then_filled(self, rng):
        indices = rng.integers(0, 5, size=60).astype(np.int32)
        grad = self._grads(rng, (60, 3), np.float32)
        expected = np.zeros((5, 3), np.float32)
        np.add.at(expected, indices, grad)
        out = np.full((5, 3), 7.0, np.float32)
        with use_backend("fast"):
            result = get_backend().scatter_add_rows(grad, indices, 5, out=out)
        assert result is out
        assert out.tobytes() == expected.tobytes()

    def test_multidimensional_indices(self, rng):
        indices = rng.integers(0, 4, size=(5, 6)).astype(np.int64)
        grad = self._grads(rng, (5, 6, 2), np.float64)
        expected = np.zeros((4, 2))
        np.add.at(expected, indices, grad)
        with use_backend("fast"):
            result = get_backend().scatter_add_rows(grad, indices, 4)
        assert result.tobytes() == expected.tobytes()


class TestOpGradParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_spmm_gradcheck(self, backend, rng):
        matrix = _random_csr(rng, 7, 5)
        dense = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with use_backend(backend):
            assert gradcheck(lambda d: ops.sum(ops.spmm(matrix, d)), [dense])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_gathered_rowwise_dot_gradcheck(self, backend, rng):
        a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        ai = rng.integers(0, 6, size=10).astype(np.int64)
        bi = rng.integers(0, 8, size=10).astype(np.int64)
        with use_backend(backend):
            assert gradcheck(
                lambda x, y: ops.sum(ops.gathered_rowwise_dot(x, y, ai, bi)),
                [a, b])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_gathered_rowwise_dot_backward_scatters_through_backend(
            self, backend, rng):
        """The backward's scatter is the backend's counted kernel.

        Unsorted BPR-style indices with repeats: the gradients equal the
        literal ``np.add.at`` formulas bit for bit, and each operand's
        scatter shows up as one ``scatter_add_rows`` call.
        """
        a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        ai = np.array([5, 0, 3, 0, 5, 1, 2, 0], dtype=np.int64)
        bi = np.array([7, 2, 2, 6, 0, 1, 7, 3], dtype=np.int64)
        upstream = rng.normal(size=len(ai)).astype(a.data.dtype)
        with use_backend(backend):
            before = instrument.snapshot()
            out = ops.gathered_rowwise_dot(a, b, ai, bi)
            out.backward(upstream)
            after = instrument.snapshot()
        calls = after.get("calls.scatter_add_rows", 0.0) - before.get(
            "calls.scatter_add_rows", 0.0)
        assert calls == 2
        column = upstream.reshape(-1, 1)
        expected_a = np.zeros_like(a.data)
        np.add.at(expected_a, ai, column * b.data[bi])
        expected_b = np.zeros_like(b.data)
        np.add.at(expected_b, bi, column * a.data[ai])
        assert a.grad.tobytes() == expected_a.tobytes()
        assert b.grad.tobytes() == expected_b.tobytes()

    def test_gathered_rowwise_dot_squared_norm(self, rng):
        emb = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 4], dtype=np.int64)
        out = ops.gathered_rowwise_dot(emb, emb, idx, idx)
        np.testing.assert_allclose(out.data,
                                   np.sum(emb.data[idx] ** 2, axis=1),
                                   atol=1e-12)
        ops.sum(out).backward()
        expected = np.zeros_like(emb.data)
        expected[idx] = 2.0 * emb.data[idx]
        np.testing.assert_allclose(emb.grad, expected, atol=1e-12)

    def test_spmm_grad_parity_across_backends(self, rng):
        matrix = _random_csr(rng, 12, 9)
        values = rng.normal(size=(9, 4))
        grads = {}
        for name in ALL_BACKENDS:
            dense = Tensor(values.copy(), requires_grad=True)
            with use_backend(name):
                ops.sum(ops.spmm(matrix, dense)).backward()
            grads[name] = dense.grad
        for name in ALL_BACKENDS[1:]:
            np.testing.assert_allclose(grads["naive"], grads[name],
                                       atol=1e-12, err_msg=name)


def _batch(graph, rng, size=12):
    return (rng.integers(0, graph.num_users, size).astype(np.int64),
            rng.integers(0, graph.num_items, size).astype(np.int64),
            rng.integers(0, graph.num_items, size).astype(np.int64))


class TestModelParity:
    """Final embeddings, loss and one Adam step agree across backends."""

    @pytest.mark.parametrize("model_name", PARITY_MODELS)
    def test_final_embeddings_parity(self, model_name, tiny_graph):
        embeddings = {}
        for backend in ALL_BACKENDS:
            with use_backend(backend):
                model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
                with no_grad():
                    users, items = model.propagate()
                embeddings[backend] = (users.data.copy(), items.data.copy())
        for backend in ALL_BACKENDS[1:]:
            for side in (0, 1):
                np.testing.assert_allclose(embeddings["naive"][side],
                                           embeddings[backend][side],
                                           atol=_parity_atol(),
                                           err_msg=backend)

    @pytest.mark.parametrize("model_name", PARITY_MODELS)
    def test_one_training_step_parity(self, model_name, tiny_graph):
        snapshots = {}
        for backend in ALL_BACKENDS:
            rng = np.random.default_rng(3)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_backend(backend):
                model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
                optimizer = Adam(model.parameters(), lr=0.01)
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                optimizer.step()
                snapshots[backend] = (float(loss.data), model.state_dict())
        loss_naive, state_naive = snapshots["naive"]
        for backend in ALL_BACKENDS[1:]:
            loss_other, state_other = snapshots[backend]
            assert abs(loss_naive - loss_other) < _parity_atol()
            assert set(state_naive) == set(state_other)
            for name in state_naive:
                np.testing.assert_allclose(state_naive[name], state_other[name],
                                           atol=_parity_atol(),
                                           err_msg=f"{backend}/{name}")

    def test_dgnn_sampled_loss_parity(self, tiny_graph):
        losses = {}
        for backend in ALL_BACKENDS:
            rng = np.random.default_rng(5)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_backend(backend):
                model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
                loss = model.bpr_loss_sampled(users, positives, negatives,
                                              seed=11)
                losses[backend] = float(loss.data)
        for backend in ALL_BACKENDS[1:]:
            assert abs(losses["naive"] - losses[backend]) < _parity_atol()


# The private kernels pipebench's traced backend delegates (its
# ``tracing.KERNEL_SPANS``): a backend written against them must keep
# running every model as new kernels are added, so new kernels need a
# working default on ``KernelBackend`` itself.
DELEGATED_KERNELS = (
    "_spmm", "_memory_mixture", "_memory_mixture_backward",
    "_gathered_rowwise_dot", "_gather_rows", "_scatter_add_rows",
    "_segment_sum", "_bpr_tail", "_bpr_tail_backward",
)


def _delegating_backend(inner):
    def delegate(kernel):
        target = getattr(inner, kernel)
        return lambda self, *args, **kwargs: target(*args, **kwargs)

    attrs = {"name": f"delegating-{inner.name}"}
    for kernel in DELEGATED_KERNELS:
        attrs[kernel] = delegate(kernel)
    return type("DelegatingBackend", (KernelBackend,), attrs)()


def _dgnn_train_step(graph):
    model = create_model("dgnn", graph, embed_dim=16, seed=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    users, positives, negatives = _batch(graph, np.random.default_rng(4))
    loss = model.bpr_loss(users, positives, negatives)
    loss.backward()
    optimizer.step()
    return float(loss.data), model.state_dict()


class TestDelegatingBackend:
    def test_nine_kernel_backend_runs_a_dgnn_step(self, tiny_graph):
        with use_backend("fast"):
            loss_ref, state_ref = _dgnn_train_step(tiny_graph)
        with use_backend(_delegating_backend(get_backend())):
            loss, state = _dgnn_train_step(tiny_graph)
        assert loss == loss_ref
        for name in state_ref:
            np.testing.assert_array_equal(state[name], state_ref[name],
                                          err_msg=name)

    def test_pipebench_traced_backend_runs_a_dgnn_step(self, tiny_graph):
        from pipebench.tracing import Tracer, make_traced_backend

        tracer = Tracer()
        with use_backend(make_traced_backend(tracer, get_backend())):
            loss, _ = _dgnn_train_step(tiny_graph)
        assert np.isfinite(loss)
        assert any(span.name == "engine.memory_mixture_backward"
                   for span in tracer.spans)

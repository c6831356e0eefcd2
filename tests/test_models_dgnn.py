"""Tests for the DGNN model (Eqs. 1-10)."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.engine import instrument, tolerances
from repro.engine.propagate import bpr_terms
from repro.graph import CollaborativeHeteroGraph
from repro.graph.adjacency import add_self_loops, row_normalize
from repro.graph.sampling import sample_subgraph_view
from repro.models.dgnn import DGNN


@pytest.fixture(scope="module")
def model(tiny_graph):
    return DGNN(tiny_graph, embed_dim=8, num_layers=2, num_memory_units=4, seed=0)


class TestShapes:
    def test_propagate_shapes(self, model, tiny_graph):
        users, items = model.propagate()
        concat_dim = 8 * 3  # (L+1) * d
        assert users.shape == (tiny_graph.num_users, concat_dim)
        assert items.shape == (tiny_graph.num_items, concat_dim)

    def test_propagate_all_returns_relations(self, model, tiny_graph):
        users, items, relations = model.propagate_all()
        assert relations.shape == (tiny_graph.num_relations, 8 * 3)

    def test_zero_layers(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_layers=0, seed=0)
        users, items = model.propagate()
        assert users.shape == (tiny_graph.num_users, 8)

    def test_negative_layers_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            DGNN(tiny_graph, num_layers=-1)


class TestDeterminism:
    def test_same_seed_same_output(self, tiny_graph):
        a = DGNN(tiny_graph, embed_dim=8, seed=7)
        b = DGNN(tiny_graph, embed_dim=8, seed=7)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        np.testing.assert_allclose(ua.data, ub.data)

    def test_different_seed_differs(self, tiny_graph):
        a = DGNN(tiny_graph, embed_dim=8, seed=0)
        b = DGNN(tiny_graph, embed_dim=8, seed=1)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        assert not np.allclose(ua.data, ub.data)


class TestTauRecalibration:
    def test_tau_matches_manual_average(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_layers=1, seed=0)
        model.eval()  # disable message dropout for exact comparison
        with no_grad():
            user_all, _, _ = model.propagate_all()
            users_with_tau, _ = model.propagate()
        tau_matrix = row_normalize(add_self_loops(tiny_graph.social))
        expected = user_all.data + tau_matrix @ user_all.data
        np.testing.assert_allclose(users_with_tau.data, expected, atol=1e-10)

    def test_use_tau_false_skips(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_layers=1, seed=0, use_tau=False)
        model.eval()  # disable message dropout for exact comparison
        with no_grad():
            user_all, _, _ = model.propagate_all()
            users, _ = model.propagate()
        np.testing.assert_allclose(users.data, user_all.data)


class TestAblationSwitches:
    @pytest.mark.parametrize("kwargs", [
        {"use_memory": False},
        {"use_layernorm": False},
        {"literal_eq4": True},
    ])
    def test_variants_change_output(self, tiny_graph, kwargs):
        base = DGNN(tiny_graph, embed_dim=8, seed=0)
        variant = DGNN(tiny_graph, embed_dim=8, seed=0, **kwargs)
        with no_grad():
            ub, _ = base.propagate()
            uv, _ = variant.propagate()
        assert not np.allclose(ub.data, uv.data)

    def test_no_memory_has_fewer_parameters(self, tiny_graph):
        base = DGNN(tiny_graph, embed_dim=8, num_memory_units=8, seed=0)
        plain = DGNN(tiny_graph, embed_dim=8, num_memory_units=8, seed=0,
                     use_memory=False)
        assert plain.num_parameters() < base.num_parameters()

    def test_relation_ablation_changes_output(self, tiny_dataset, tiny_split):
        full = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs)
        no_social = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs,
                                             use_social=False)
        a = DGNN(full, embed_dim=8, seed=0)
        b = DGNN(no_social, embed_dim=8, seed=0)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        assert not np.allclose(ua.data, ub.data)


class TestTraining:
    def test_bpr_loss_finite_and_backward(self, model, tiny_split):
        users = tiny_split.train_pairs[:32, 0]
        positives = tiny_split.train_pairs[:32, 1]
        negatives = np.zeros(32, dtype=np.int64)
        model.zero_grad()
        loss = model.bpr_loss(users, positives, negatives, l2=1e-4)
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "no gradients flowed"
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_embedding_gradients_reach_all_tables(self, model, tiny_split):
        users = tiny_split.train_pairs[:64, 0]
        positives = tiny_split.train_pairs[:64, 1]
        negatives = (positives + 1) % model.graph.num_items
        model.zero_grad()
        model.bpr_loss(users, positives, negatives).backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None
        assert model.relation_embedding.weight.grad is not None
        assert float(np.abs(model.relation_embedding.weight.grad).sum()) > 0


_COUNTED_KERNELS = ("calls.spmm", "calls.memory_mixture",
                    "calls.gathered_rowwise_dot")


def _dropout_states(model):
    return [layer.dropout._rng.bit_generator.state for layer in model.layers]


def _training_step(model, states, loss_fn):
    """Loss, dense parameter grads, counted kernel calls, dropout states."""
    for layer, state in zip(model.layers, states):
        layer.dropout._rng.bit_generator.state = state
    model.zero_grad()
    before = instrument.snapshot()
    loss = loss_fn()
    loss.backward()
    calls = instrument.delta(before, instrument.snapshot())
    grads = {name: (None if param.grad is None else
                    np.array(getattr(param.grad, "to_dense",
                                     lambda: param.grad)()))
             for name, param in model.named_parameters()}
    return (loss.item(), grads, {key: calls.get(key, 0.0)
                                 for key in _COUNTED_KERNELS},
            _dropout_states(model))


class TestPrunedLossParity:
    """The BPR losses compute the last layer on the scored item rows only.

    The oracle is the unpruned composition: full propagation, then
    ``bpr_terms`` on global (or subgraph-local) item ids.
    """

    VARIANTS = [
        pytest.param({}, id="paper"),
        pytest.param({"use_memory": False}, id="-M"),
        pytest.param({"use_layernorm": False}, id="-LN"),
        pytest.param({"use_tau": False}, id="-tau"),
        pytest.param({"literal_eq4": True}, id="literal_eq4"),
        pytest.param({"num_layers": 0}, id="L0"),
        pytest.param({"num_layers": 1}, id="L1"),
        pytest.param({"num_layers": 3}, id="L3"),
    ]

    @staticmethod
    def _batch(split, graph):
        users = split.train_pairs[:48, 0]
        positives = split.train_pairs[:48, 1]
        # Repeated negatives: local index mapping must handle duplicates.
        negatives = (positives * 7 + 3) % 11
        return users, positives, negatives

    @staticmethod
    def _model(graph, kwargs):
        params = dict(embed_dim=8, num_layers=2, num_memory_units=4, seed=0,
                      message_dropout=0.3)
        params.update(kwargs)
        model = DGNN(graph, **params)
        model.train()  # dropout on: both paths must draw the same masks
        return model

    def _assert_same_step(self, pruned, oracle):
        tol = tolerances()
        loss, grads, calls, states = pruned
        oracle_loss, oracle_grads, oracle_calls, oracle_states = oracle
        np.testing.assert_allclose(loss, oracle_loss, rtol=tol.rtol,
                                   atol=tol.atol)
        assert grads.keys() == oracle_grads.keys()
        for name, grad in grads.items():
            expected = oracle_grads[name]
            assert (grad is None) == (expected is None), name
            if expected is not None:
                np.testing.assert_allclose(grad, expected, rtol=tol.rtol,
                                           atol=tol.atol, err_msg=name)
        assert calls == oracle_calls
        assert states == oracle_states

    @pytest.mark.parametrize("kwargs", VARIANTS)
    def test_full_graph_matches_unpruned(self, kwargs, tiny_graph,
                                         tiny_split):
        model = self._model(tiny_graph, kwargs)
        users, positives, negatives = self._batch(tiny_split, tiny_graph)
        states = _dropout_states(model)
        pruned = _training_step(model, states, lambda: model.bpr_loss(
            users, positives, negatives, l2=1e-3))
        oracle = _training_step(model, states, lambda: bpr_terms(
            *model.propagate(), users, positives, negatives, l2=1e-3))
        self._assert_same_step(pruned, oracle)

    @pytest.mark.parametrize("kwargs", VARIANTS)
    def test_subgraph_view_matches_unpruned(self, kwargs, tiny_graph,
                                            tiny_split):
        model = self._model(tiny_graph, kwargs)
        users, positives, negatives = self._batch(tiny_split, tiny_graph)
        view = sample_subgraph_view(
            tiny_graph, users, np.concatenate([positives, negatives]),
            hops=model.minibatch_hops(), fanout=None, seed=0)
        states = _dropout_states(model)
        pruned = _training_step(model, states, lambda: model.bpr_loss_on(
            view, users, positives, negatives, l2=1e-3))
        oracle = _training_step(model, states, lambda: bpr_terms(
            *model.propagate_on(view), view.local_users(users),
            view.local_items(positives), view.local_items(negatives),
            l2=1e-3))
        self._assert_same_step(pruned, oracle)

    def test_last_layer_runs_on_scored_items_only(self, tiny_graph,
                                                  tiny_split):
        model = self._model(tiny_graph, {})
        users, positives, negatives = self._batch(tiny_split, tiny_graph)
        scored = len(np.unique(np.concatenate([positives, negatives])))
        assert scored < tiny_graph.num_items
        rows = []
        original = model.final_norm.forward

        def recording(x):
            rows.append(x.shape[0])
            return original(x)

        model.final_norm.forward = recording
        model.bpr_loss(users, positives, negatives)
        # The final LayerNorm sees all users, only the scored items, and
        # the relation nodes, which stay whole.
        assert rows == [tiny_graph.num_users, scored,
                        tiny_graph.num_relations]


class TestMemoryAttention:
    def test_attention_shapes(self, model, tiny_graph):
        attention = model.memory_attention("social")
        assert attention.shape == (tiny_graph.num_users, 4)
        attention = model.memory_attention("item_from_user")
        assert attention.shape == (tiny_graph.num_items, 4)

    def test_user_side_helper_validates(self, model):
        with pytest.raises(ValueError):
            model.user_memory_attention("item_from_user")

    def test_requires_memory(self, tiny_graph):
        plain = DGNN(tiny_graph, embed_dim=8, seed=0, use_memory=False)
        with pytest.raises(RuntimeError):
            plain.memory_attention("social")

    def test_requires_layers(self, tiny_graph):
        shallow = DGNN(tiny_graph, embed_dim=8, num_layers=0, seed=0)
        with pytest.raises(RuntimeError):
            shallow.memory_attention("social")


class TestScoring:
    def test_score_candidates_is_dot_product(self, model):
        users = np.array([0, 1])
        items = np.array([[0, 1, 2], [3, 4, 5]])
        scores = model.score_candidates(users, items)
        user_emb, item_emb = model.final_embeddings()
        # The reference dot products run in float64 from the same
        # embeddings; the kernel's own summation order may differ from
        # it by a few float32 ulps, so the bound is the dtype's.
        user64, item64 = (user_emb.astype(np.float64),
                          item_emb.astype(np.float64))
        expected = np.array([[user64[0] @ item64[j] for j in items[0]],
                             [user64[1] @ item64[j] for j in items[1]]])
        tol = tolerances(user_emb.dtype)
        np.testing.assert_allclose(scores, expected, atol=tol.atol,
                                   rtol=tol.rtol)

    def test_cache_invalidation_after_update(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, seed=0)
        before = model.final_embeddings()[0].copy()
        model.user_embedding.weight.data += 1.0
        model.invalidate_cache()
        after = model.final_embeddings()[0]
        assert not np.allclose(before, after)

    def test_recommend_excludes_training_items(self, model, tiny_graph):
        user = 0
        seen = set(tiny_graph.interaction[user].indices)
        recommended = model.recommend(user, top_n=10)
        assert not (set(recommended) & seen)

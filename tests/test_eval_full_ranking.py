"""Serving-facing full-ranking contracts: ties, masking, subsampling."""

import numpy as np
import pytest

from repro.eval.full_ranking import (
    _scores_may_be_nan,
    evaluate_full_ranking,
    full_ranking_ranks,
    full_ranking_topk,
)
from repro.eval.metrics import top_k_indices
from repro.models import BprMF
from repro.models.dgnn import DGNN
from repro.models.lightgcn import LightGCN


@pytest.fixture(scope="module")
def model(tiny_graph):
    return LightGCN(tiny_graph, embed_dim=16, num_layers=2, seed=0)


class TestTopKTieBreaking:
    def test_ties_break_by_ascending_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [1, 2, 4])

    def test_2d_rows_independent(self):
        scores = np.array([[5.0, 5.0, 1.0, 5.0],
                           [0.0, 2.0, 2.0, 2.0]])
        np.testing.assert_array_equal(top_k_indices(scores, 2),
                                      [[0, 1], [1, 2]])

    def test_all_equal_returns_first_k(self):
        scores = np.ones(7)
        np.testing.assert_array_equal(top_k_indices(scores, 4), [0, 1, 2, 3])

    def test_descending_score_order(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((5, 30))
        top = top_k_indices(scores, 10)
        picked = np.take_along_axis(scores, top, axis=-1)
        assert (np.diff(picked, axis=-1) <= 0).all()

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(1)
        # Quantized scores force plenty of exact ties.
        scores = np.round(rng.standard_normal((8, 40)), 1)
        first = top_k_indices(scores, 6)
        second = top_k_indices(scores.copy(), 6)
        np.testing.assert_array_equal(first, second)


class TestTrainMasking:
    def test_masked_items_never_in_topk(self, model, tiny_split):
        users = tiny_split.test_users
        top = full_ranking_topk(model, tiny_split, users=users, top_n=20)
        train = tiny_split.train_matrix().tocsr()
        for row, user in enumerate(users):
            seen = set(train.indices[train.indptr[user]:
                                     train.indptr[user + 1]].tolist())
            assert not seen & set(top[row].tolist())

    def test_unmasked_can_return_train_items(self, model, tiny_split):
        users = tiny_split.test_users
        masked = full_ranking_topk(model, tiny_split, users=users, top_n=20)
        unmasked = full_ranking_topk(model, tiny_split, users=users,
                                     top_n=20, mask_train=False)
        assert not np.array_equal(masked, unmasked)


class TestMaxUsersDeterminism:
    def test_same_seed_same_subsample(self, model, tiny_split):
        a = full_ranking_ranks(model, tiny_split, max_users=10, seed=3)
        b = full_ranking_ranks(model, tiny_split, max_users=10, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_subsample(self, model, tiny_split):
        a = full_ranking_ranks(model, tiny_split, max_users=10, seed=3)
        b = full_ranking_ranks(model, tiny_split, max_users=10, seed=4)
        assert not np.array_equal(a, b)


class TestNanScores:
    def test_nan_scores_raise_with_row_count(self, tiny_graph, tiny_split):
        # One NaN LayerNorm shift puts a NaN in every final embedding, so
        # every score is NaN.  Every comparison against NaN is false, so
        # the ranks used to come out as -0.5 (full-hr@10 1.0).
        model = DGNN(tiny_graph, embed_dim=8, num_layers=1,
                     num_memory_units=4, seed=0)
        model.final_norm.shift.data[2] = np.nan
        model.invalidate_cache()
        users = len(tiny_split.test_users)
        with pytest.raises(ValueError,
                           match=f"NaN item scores in {users} of {users} "):
            full_ranking_ranks(model, tiny_split)
        with pytest.raises(ValueError, match="NaN item scores in 7 of 7 "):
            evaluate_full_ranking(model, tiny_split, max_users=7)

    def test_finite_embeddings_overflowing_to_nan_raise(self, tiny_graph,
                                                        tiny_split):
        # Finite tables whose products overflow: +inf and -inf terms meet
        # in one user's dot products.  Whether that gives NaN depends on
        # the BLAS (a fused multiply-add keeps +inf), so the expected
        # count comes from the same matmul; the scan must run either way.
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        huge = np.sqrt(np.finfo(model.item_embedding.weight.data.dtype).max)
        user = int(tiny_split.test_users[0])
        model.user_embedding.weight.data[user, :2] = 4 * huge
        model.item_embedding.weight.data[:, 0] = huge
        model.item_embedding.weight.data[:, 1] = -huge
        model.invalidate_cache()
        user_emb, item_emb = model.final_embeddings()
        assert np.isfinite(user_emb).all() and np.isfinite(item_emb).all()
        assert _scores_may_be_nan(user_emb, item_emb)
        users = len(tiny_split.test_users)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = user_emb[tiny_split.test_users] @ item_emb.T
            nan_rows = int(np.isnan(scores).any(axis=1).sum())
            if nan_rows:
                with pytest.raises(ValueError, match=(
                        f"NaN item scores in {nan_rows} of {users} ")):
                    full_ranking_ranks(model, tiny_split)
            else:
                assert len(full_ranking_ranks(model, tiny_split)) == users

    def test_healthy_embeddings_skip_the_scan(self, model):
        user_emb, item_emb = model.final_embeddings()
        assert not _scores_may_be_nan(user_emb, item_emb)

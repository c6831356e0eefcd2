"""Tests for ranking metrics and the evaluation protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import (
    evaluate_scores,
    group_users_by_quantile,
    hit_rate_at,
    ndcg_at,
    ranking_metrics,
    ranks_of_positives,
)


class TestRanks:
    def test_positive_best_gets_rank_zero(self):
        scores = np.array([[10.0, 1.0, 2.0, 3.0]])
        assert ranks_of_positives(scores)[0] == 0

    def test_positive_worst(self):
        scores = np.array([[0.0, 1.0, 2.0, 3.0]])
        assert ranks_of_positives(scores)[0] == 3

    def test_ties_count_half(self):
        scores = np.array([[1.0, 1.0, 1.0, 0.0]])
        assert ranks_of_positives(scores)[0] == 1.0  # two ties -> +0.5 each

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            ranks_of_positives(np.array([1.0, 2.0]))

    def test_nan_scores_raise_naming_the_row_count(self):
        # NaN compares false both ways, so without the check these rows
        # would rank their positive first and report a perfect hit.
        scores = np.array([[np.nan, 1.0, 2.0],
                           [3.0, 1.0, 2.0],
                           [0.5, np.nan, 2.0]])
        with pytest.raises(ValueError, match="2 of 3 rows"):
            ranks_of_positives(scores)

    def test_diverged_model_does_not_score_perfectly(self, tiny_graph,
                                                     tiny_candidates):
        from repro.eval import evaluate_model
        from repro.models import create_model

        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
        model.user_embedding.weight.data[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN candidate scores"):
            evaluate_model(model, tiny_candidates, ks=(10,))


class TestHitRate:
    def test_exact_fraction(self):
        ranks = np.array([0, 4, 9, 10, 50])
        assert hit_rate_at(ranks, 10) == pytest.approx(3 / 5)

    def test_empty_returns_zero(self):
        assert hit_rate_at(np.array([]), 10) == 0.0

    def test_monotone_in_n(self):
        ranks = np.array([1, 3, 7, 15, 40])
        values = [hit_rate_at(ranks, n) for n in (1, 5, 10, 20, 50)]
        assert values == sorted(values)


class TestNdcg:
    def test_rank_zero_gives_one(self):
        assert ndcg_at(np.array([0]), 10) == pytest.approx(1.0)

    def test_rank_one_discount(self):
        assert ndcg_at(np.array([1]), 10) == pytest.approx(1.0 / np.log2(3))

    def test_miss_gives_zero(self):
        assert ndcg_at(np.array([15]), 10) == 0.0

    def test_never_exceeds_hit_rate(self):
        ranks = np.array([0, 2, 5, 12, 30])
        for n in (5, 10, 20):
            assert ndcg_at(ranks, n) <= hit_rate_at(ranks, n) + 1e-12


class TestRankingMetrics:
    def test_keys_present(self):
        scores = np.random.default_rng(0).normal(size=(10, 21))
        metrics = ranking_metrics(scores, ks=(5, 10))
        assert set(metrics) == {"hr@5", "ndcg@5", "hr@10", "ndcg@10"}

    def test_perfect_model(self):
        scores = np.zeros((6, 11))
        scores[:, 0] = 1.0
        metrics = ranking_metrics(scores, ks=(1,))
        assert metrics["hr@1"] == 1.0
        assert metrics["ndcg@1"] == 1.0

    def test_evaluate_scores_alias(self):
        scores = np.random.default_rng(1).normal(size=(4, 6))
        assert evaluate_scores(scores, ks=(3,)) == ranking_metrics(scores, ks=(3,))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40), st.integers(5, 30), st.integers(0, 1000))
    def test_property_bounds(self, num_users, num_candidates, seed):
        scores = np.random.default_rng(seed).normal(
            size=(num_users, num_candidates))
        metrics = ranking_metrics(scores, ks=(5, 10))
        for value in metrics.values():
            assert 0.0 <= value <= 1.0
        assert metrics["hr@5"] <= metrics["hr@10"]
        assert metrics["ndcg@5"] <= metrics["ndcg@10"]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_property_random_scores_near_uniform(self, seed):
        # With 100 negatives and random scores, HR@10 ≈ 10/101.
        scores = np.random.default_rng(seed).normal(size=(400, 101))
        metrics = ranking_metrics(scores, ks=(10,))
        assert abs(metrics["hr@10"] - 10 / 101) < 0.08


class TestSparsityGrouping:
    def test_equal_group_sizes(self):
        groups = group_users_by_quantile(np.arange(20), num_groups=4)
        assert [len(g) for g in groups] == [5, 5, 5, 5]

    def test_sorted_from_sparsest(self):
        values = np.array([10, 1, 5, 7, 2, 8])
        groups = group_users_by_quantile(values, num_groups=2)
        assert values[groups[0]].max() <= values[groups[1]].min()

    def test_positions_cover_everything(self):
        groups = group_users_by_quantile(np.random.default_rng(0).normal(size=17),
                                         num_groups=4)
        combined = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(combined, np.arange(17))

    def test_bad_group_count(self):
        with pytest.raises(ValueError):
            group_users_by_quantile(np.arange(4), num_groups=0)

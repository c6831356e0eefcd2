"""Tests for the minibatch planner, prefetch pipeline, and trainer wiring."""

import threading
import time

import numpy as np
import pytest

from repro.models import create_model
from repro.train import TrainConfig, Trainer
from repro.train.pipeline import MinibatchPlanner, PrefetchPipeline

PREFETCH_THREAD = "repro-prefetch"


def _prefetch_threads():
    return [t for t in threading.enumerate() if PREFETCH_THREAD in t.name]


def _minibatch_config(**overrides):
    settings = dict(epochs=2, batch_size=64, batches_per_epoch=2,
                    learning_rate=0.05, propagation="minibatch", fanout=5,
                    eval_every=10, patience=None, seed=0)
    settings.update(overrides)
    return TrainConfig(**settings)


class TestPrefetchEnabled:
    def test_explicit_setting_wins(self, tiny_graph, tiny_split,
                                   tiny_candidates, monkeypatch):
        """``TrainConfig.prefetch`` alone decides; the environment does not."""
        import repro.train.trainer as trainer_module

        built = []

        def recording_pipeline(steps):
            built.append(True)
            return PrefetchPipeline(steps)

        monkeypatch.setattr(trainer_module, "PrefetchPipeline",
                            recording_pipeline)
        for env, prefetch in (("1", False), ("0", True)):
            monkeypatch.setenv("REPRO_PREFETCH", env)
            built.clear()
            model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0,
                                 num_memory_units=2)
            config = _minibatch_config(prefetch=prefetch, epochs=1)
            Trainer(model, tiny_split, config, tiny_candidates).fit()
            assert bool(built) is prefetch


class TestPrefetchPipeline:
    def test_yields_items_in_order(self):
        pipeline = PrefetchPipeline(iter(range(10)), depth=2)
        assert list(pipeline) == list(range(10))
        assert not pipeline.worker_alive

    def test_producer_exception_reraises_in_consumer(self):
        def boom():
            yield 1
            raise RuntimeError("producer died")

        pipeline = PrefetchPipeline(boom())
        assert next(pipeline) == 1
        with pytest.raises(RuntimeError, match="producer died"):
            for _ in pipeline:
                pass
        pipeline.close()
        assert not pipeline.worker_alive

    def test_close_is_idempotent_and_stops_worker(self):
        def slow():
            for i in range(1000):
                time.sleep(0.001)
                yield i

        pipeline = PrefetchPipeline(slow(), depth=2)
        assert next(pipeline) == 0
        pipeline.close()
        pipeline.close()
        assert not pipeline.worker_alive
        with pytest.raises(StopIteration):
            next(pipeline)

    def test_context_manager_joins_worker(self):
        with PrefetchPipeline(iter(range(100)), depth=1) as pipeline:
            assert next(pipeline) == 0
        assert not pipeline.worker_alive


class TestMinibatchPlanner:
    def test_batch_seed_is_pure_function(self, tiny_graph, tiny_split):
        from repro.data.sampling import BprSampler

        sampler = BprSampler(tiny_split, batch_size=16, seed=0)
        planner = MinibatchPlanner(tiny_graph, sampler, hops=1, fanout=3)
        assert planner.batch_seed(0, 1) == planner.batch_seed(0, 1)
        assert planner.batch_seed(0, 1) != planner.batch_seed(1, 1)

    def test_plan_emits_timed_steps_covering_batch(self, tiny_graph,
                                                   tiny_split):
        from repro.data.sampling import BprSampler

        sampler = BprSampler(tiny_split, batch_size=16, seed=0)
        planner = MinibatchPlanner(tiny_graph, sampler, hops=1, fanout=3)
        steps = list(planner.plan(num_batches=2, epoch=0))
        assert len(steps) == 2
        for step in steps:
            assert step.sample_seconds >= 0.0
            assert np.isin(step.users, step.subgraph.user_ids).all()
            assert np.isin(step.positives, step.subgraph.item_ids).all()
            assert np.isin(step.negatives, step.subgraph.item_ids).all()


class TestTrainerMinibatch:
    def test_rejects_models_without_sampled_path(self, tiny_graph,
                                                 tiny_split,
                                                 tiny_candidates):
        model = create_model("bpr-mf", tiny_graph, embed_dim=8, seed=0)
        with pytest.raises(ValueError, match="minibatch"):
            Trainer(model, tiny_split, _minibatch_config(), tiny_candidates)

    def test_prefetch_toggle_does_not_change_results(self, tiny_graph,
                                                     tiny_split,
                                                     tiny_candidates):
        histories = []
        for prefetch in (False, True):
            model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0,
                                 num_memory_units=2)
            config = _minibatch_config(prefetch=prefetch)
            trainer = Trainer(model, tiny_split, config, tiny_candidates)
            histories.append(trainer.fit())
        np.testing.assert_array_equal(histories[0].losses,
                                      histories[1].losses)
        assert not _prefetch_threads()

    def test_no_leaked_threads_after_fit(self, tiny_graph, tiny_split,
                                         tiny_candidates):
        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0,
                             num_memory_units=2)
        config = _minibatch_config(prefetch=True)
        trainer = Trainer(model, tiny_split, config, tiny_candidates)
        history = trainer.fit()
        assert not _prefetch_threads()
        assert history.epochs_run == config.epochs
        # The sample/compute split is recorded for every epoch.
        assert len(history.sample_seconds) == config.epochs
        assert len(history.compute_seconds) == config.epochs
        assert history.mean_sample_seconds() > 0.0
        assert history.mean_compute_seconds() > 0.0

    def test_no_leaked_threads_when_fit_raises(self, tiny_graph, tiny_split,
                                               tiny_candidates,
                                               monkeypatch):
        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0,
                             num_memory_units=2)
        config = _minibatch_config(prefetch=True, batches_per_epoch=4)
        trainer = Trainer(model, tiny_split, config, tiny_candidates)

        calls = {"count": 0}
        original = model.bpr_loss_on

        def explode(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] >= 2:
                raise RuntimeError("mid-epoch failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "bpr_loss_on", explode)
        with pytest.raises(RuntimeError, match="mid-epoch failure"):
            trainer.fit()
        assert not _prefetch_threads()

    def test_full_mode_records_sample_compute_split(self, tiny_graph,
                                                    tiny_split,
                                                    tiny_candidates):
        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0,
                             num_memory_units=2)
        config = TrainConfig(epochs=1, batch_size=64, batches_per_epoch=2,
                             eval_every=10, patience=None, seed=0)
        trainer = Trainer(model, tiny_split, config, tiny_candidates)
        history = trainer.fit()
        assert len(history.sample_seconds) == 1
        assert len(history.compute_seconds) == 1
        assert history.compute_seconds[0] > 0.0

"""Buffer-reuse arena: pooling mechanics, bypass threshold, cap, parity.

Five layers of coverage:

* checkout mechanics — size-class reuse across scopes (any shape or
  dtype in a class reuses the same memory), zero-clearing of dirty
  recycled buffers, early ``release`` reuse, exact-shape C-contiguous
  views, and no pooling outside a step scope;
* shape churn — minibatch-like row counts keep misses and pooled bytes
  bounded instead of filling the pool with one-off shapes;
* threads — scopes are per thread, so a thread without a scope never
  receives a buffer another thread's step recycles;
* small-buffer bypass and capacity — checkouts below ``min_bytes``
  never touch the pool, and the LRU cap bounds pooled bytes;
* parity — short full-graph and minibatch DGNN training runs with
  pooling forced on for every buffer are bitwise identical to the
  allocate-fresh run, the property that makes ``arena=False`` a usable
  oracle.
"""

import threading

import numpy as np
import pytest

from repro.autograd.sparse import use_sparse_grads
from repro.engine import arena as arena_mod
from repro.engine import use_backend
from repro.engine.arena import BufferArena, size_class
from repro.graph import CollaborativeHeteroGraph
from repro.graph.sampling import sample_subgraph_view
from repro.models import create_model
from repro.nn.optim import Adam
from repro.train import TrainConfig, Trainer

# 512 KB in float64 — comfortably above the default 64 KB bypass.
BIG = (256, 256)


class TestSizeClasses:
    def test_floor_and_exact_powers(self):
        assert size_class(1) == size_class(4096) == 4096
        assert size_class(1 << 20) == 1 << 20

    def test_slack_below_one_eighth(self):
        for nbytes in list(range(4097, 70000, 97)) + [10**6 + 3, 3 * 2**27]:
            cls = size_class(nbytes)
            assert nbytes <= cls < nbytes * 9 / 8, nbytes
            assert size_class(cls) == cls  # classes are fixed points


class TestPoolingMechanics:
    def test_no_pooling_outside_scope(self):
        pool = BufferArena(min_bytes=0)
        buf = pool.empty(BIG, np.float64)
        assert buf.shape == BIG
        assert pool.stats()["checked_out"] == 0
        pool.release(buf)  # no-op on buffers the arena does not own
        assert pool.stats()["free_bytes"] == 0

    def test_recycle_and_hit_across_scopes(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            first = pool.empty(BIG, np.float64)
        with pool.step_scope():
            second = pool.empty(BIG, np.float64)
        assert np.shares_memory(second, first)
        assert pool.hits == 1 and pool.misses == 1

    def test_zeros_clears_recycled_garbage(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            buf = pool.zeros(BIG, np.float64)
            buf[...] = 7.0
        with pool.step_scope():
            again = pool.zeros(BIG, np.float64)
            assert np.shares_memory(again, buf)
            assert not again.any()

    def test_release_enables_reuse_within_step(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            buf = pool.empty(BIG, np.float64)
            pool.release(buf)
            assert np.shares_memory(pool.empty(BIG, np.float64), buf)

    def test_any_shape_or_dtype_in_a_class_reuses(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            first = pool.empty(BIG, np.float64)
        # Same byte size as a different shape and dtype, then a slightly
        # smaller request that rounds up to the same class.
        for shape, dtype in (((512, 256), np.float32),
                             ((BIG[0] - 3, BIG[1]), np.float64),
                             ((BIG[0] * BIG[1],), np.int64)):
            with pool.step_scope():
                again = pool.empty(shape, dtype)
                assert np.shares_memory(again, first), (shape, dtype)
        assert pool.misses == 1 and pool.hits == 3
        # Two live checkouts of one class never alias each other.
        with pool.step_scope():
            a = pool.empty(BIG, np.float64)
            b = pool.empty(BIG, np.float64)
            assert not np.shares_memory(a, b)
        # A different class does not reuse.
        with pool.step_scope():
            other = pool.empty((BIG[0] * 2, BIG[1]), np.float64)
            assert not np.shares_memory(other, first)

    def test_views_are_contiguous_with_exact_shape_and_dtype(self):
        pool = BufferArena(min_bytes=0)
        for shape, dtype in ((BIG, np.float64), ((7, 3, 5), np.float32),
                             (1000, np.int32), ((0, 16), np.float32)):
            with pool.step_scope():
                for buf in (pool.empty(shape, dtype), pool.zeros(shape, dtype)):
                    expected = (shape,) if isinstance(shape, int) else shape
                    assert buf.shape == expected
                    assert buf.dtype == np.dtype(dtype)
                    assert buf.flags.c_contiguous and buf.flags.writeable

    def test_nested_scopes_recycle_at_outermost_exit(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            with pool.step_scope():
                buf = pool.empty(BIG, np.float64)
            # Inner exit must not recycle: the outer scope still holds it.
            assert pool.stats()["checked_out"] == 1
            assert buf.shape == BIG
        assert pool.stats()["checked_out"] == 0

    def test_lru_cap_bounds_pooled_bytes(self):
        one_buffer = int(np.prod(BIG)) * 8
        double = (BIG[0] * 2, BIG[1])
        pool = BufferArena(cap_bytes=2 * one_buffer, min_bytes=0)
        with pool.step_scope():
            pool.empty(BIG, np.float64)
            pool.empty(double, np.float64)
        # Over the cap at exit: the least recently stashed class goes.
        assert pool.stats()["free_bytes"] == 2 * one_buffer
        with pool.step_scope():
            pool.empty(BIG, np.float64)
        assert pool.stats()["free_bytes"] == one_buffer
        assert pool.misses == 3

    def test_clear_drops_pooled_buffers(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            pool.empty(BIG, np.float64)
        pool.clear()
        assert pool.stats()["free_bytes"] == 0


class TestShapeChurn:
    def test_varying_row_counts_keep_misses_and_pool_bounded(self):
        """Minibatch subgraphs change row counts every step.

        Row counts within ±5% of 1,000 at width 64 (float32) span three
        size classes, and each step holds at most three buffers, so the
        pool settles at a handful of buffers no matter how many distinct
        shapes the steps draw.
        """
        pool = BufferArena(min_bytes=0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            with pool.step_scope():
                for rows in rng.integers(950, 1051, size=3):
                    pool.empty((int(rows), 64), np.float32)
        largest = size_class(1050 * 64 * 4)
        assert pool.misses <= 9
        assert pool.hits >= 600 - 9
        assert pool.stats()["free_bytes"] <= 9 * largest


class TestThreadScopes:
    def test_scopeless_thread_is_not_pooled_by_another_threads_scope(self):
        """A serving thread's buffer must not alias a training step's.

        While the main thread's scope is open, a second thread without a
        scope of its own checks out a buffer.  The main scope's exit must
        not recycle it into the next step.
        """
        pool = BufferArena(min_bytes=0)
        served = {}

        def serve():
            served["buf"] = pool.empty(BIG, np.float64)
            served["buf"][...] = 1.0

        with pool.step_scope():
            worker = threading.Thread(target=serve)
            worker.start()
            worker.join()
        assert pool.stats()["checked_out"] == 0
        with pool.step_scope():
            step = pool.empty(BIG, np.float64)
            step[...] = 2.0
            assert not np.shares_memory(step, served["buf"])
        assert (served["buf"] == 1.0).all()

    def test_scope_exit_recycles_only_its_own_thread(self):
        pool = BufferArena(min_bytes=0)
        opened, closed = threading.Event(), threading.Event()
        held = {}

        def other_step():
            with pool.step_scope():
                held["buf"] = pool.empty(BIG, np.float64)
                opened.set()
                closed.wait(timeout=10)

        worker = threading.Thread(target=other_step)
        worker.start()
        assert opened.wait(timeout=10)
        with pool.step_scope():
            mine = pool.empty(BIG, np.float64)
        # Main's exit recycled its own buffer, not the worker's live one.
        assert pool.stats()["checked_out"] == 1
        with pool.step_scope():
            again = pool.empty(BIG, np.float64)
            assert np.shares_memory(again, mine)
            assert not np.shares_memory(again, held["buf"])
        closed.set()
        worker.join()
        assert pool.stats()["checked_out"] == 0


class TestSmallBufferBypass:
    def test_small_checkouts_bypass_pool(self):
        pool = BufferArena(min_bytes=64 * 1024)
        with pool.step_scope():
            assert not pool.pools((4, 4), np.float64)
            pool.empty((4, 4), np.float64)
            pool.zeros((4, 4), np.float64)
        assert pool.hits == 0 and pool.misses == 0
        assert pool.stats()["free_bytes"] == 0

    def test_large_checkouts_pool(self):
        pool = BufferArena(min_bytes=64 * 1024)
        with pool.step_scope():
            assert pool.pools(BIG, np.float64)

    def test_threshold_counts_bytes_not_elements(self):
        pool = BufferArena(min_bytes=1024)
        with pool.step_scope():
            assert pool.pools((128,), np.float64)      # 1024 B, inclusive
            assert not pool.pools((128,), np.float32)  # 512 B
            assert not pool.pools((64,), np.float64)   # 512 B

    def test_pools_false_outside_scope(self):
        pool = BufferArena(min_bytes=0)
        assert not pool.pools(BIG, np.float64)


class TestToggles:
    """The arena has no environment switches: the cap and floor are
    module constants and ``TrainConfig.arena`` is the only on/off."""

    def test_env_knobs(self, monkeypatch):
        # The variables that once set the cap and floor are inert.
        monkeypatch.setenv("REPRO_ENGINE_ARENA_MB", "2")
        monkeypatch.setenv("REPRO_ENGINE_ARENA_MIN_KB", "8")
        pool = BufferArena()
        assert pool.cap_bytes == arena_mod.CAP_BYTES == 1024 * 1024 * 1024
        assert pool.min_bytes == arena_mod.MIN_BYTES == 64 * 1024

    def test_env_flag_off_values(self, tiny_graph, tiny_split,
                                 tiny_candidates, monkeypatch):
        # The off values of the former arena flag leave pooling on.
        pooled = BufferArena(min_bytes=0)
        monkeypatch.setattr(arena_mod, "_ARENA", pooled)
        for raw in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_ENGINE_ARENA", raw)
            config = TrainConfig(epochs=1, batch_size=64,
                                 batches_per_epoch=2, patience=None)
            assert config.arena is True
            model = create_model("lightgcn", tiny_graph, embed_dim=8,
                                 seed=0)
            hits = pooled.hits
            Trainer(model, tiny_split, config, tiny_candidates).fit()
            assert pooled.hits > hits, raw


def _train_run(dataset, split, steps=3):
    """Fixed-batch DGNN BPR/Adam steps; returns (losses, named params)."""
    with use_backend("fast"):
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        model = create_model("dgnn", graph, embed_dim=8, seed=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(5)
        losses = []
        for _ in range(steps):
            users = rng.integers(0, graph.num_users, 16)
            positives = rng.integers(0, graph.num_items, 16)
            negatives = rng.integers(0, graph.num_items, 16)
            with arena_mod.step_scope():
                model.zero_grad()
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                optimizer.step()
            losses.append(float(loss.data))
    return losses, {name: param.data.copy()
                    for name, param in model.named_parameters()}


def _minibatch_run(dataset, split, steps=4):
    """The production recipe in miniature: sampled subgraphs of varying
    size, row-sparse gradients and lazy Adam."""
    with use_backend("fast"), use_sparse_grads(True):
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        model = create_model("dgnn", graph, embed_dim=8, seed=0)
        optimizer = Adam(model.parameters(), lr=0.01, sparse_mode="lazy")
        rng = np.random.default_rng(7)
        losses = []
        for step in range(steps):
            pairs = split.train_pairs[rng.integers(0, len(split.train_pairs),
                                                   12 + 4 * step)]
            users, positives = pairs[:, 0], pairs[:, 1]
            negatives = rng.integers(0, graph.num_items, len(users))
            view = sample_subgraph_view(
                graph, users, np.concatenate([positives, negatives]),
                hops=2, fanout=10, seed=step)
            with arena_mod.step_scope():
                model.zero_grad()
                loss = model.bpr_loss_on(view, users, positives, negatives)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
    return losses, {name: param.data.copy()
                    for name, param in model.named_parameters()}


def _assert_pooled_run_is_bitwise_fresh(run, dataset, split, monkeypatch):
    """Run once pooling every buffer, once allocate-fresh; compare bitwise.

    The pooled arm swaps in an arena with ``min_bytes=0`` so even the
    tiny-scale buffers of these tests route through the pool; the
    oracle arm never opens a scope (a zero-capacity pool with the
    bypass threshold at infinity would also work, but a fresh default
    arena outside any scope is exactly the ``arena=False`` production
    configuration).
    """
    eager = BufferArena(min_bytes=0)
    monkeypatch.setattr(arena_mod, "_ARENA", eager)
    pooled_losses, pooled_params = run(dataset, split)
    assert eager.hits > 0  # pooling actually engaged

    monkeypatch.setattr(arena_mod, "_ARENA", BufferArena(cap_bytes=0))
    fresh_losses, fresh_params = run(dataset, split)

    assert pooled_losses == fresh_losses
    assert pooled_params.keys() == fresh_params.keys()
    for name in pooled_params:
        assert np.array_equal(pooled_params[name], fresh_params[name]), name


class TestAllocateFreshParity:
    def test_pooled_training_is_bitwise_identical(self, tiny_dataset,
                                                  tiny_split, monkeypatch):
        """Pooling forced on for *every* buffer changes nothing, bitwise."""
        _assert_pooled_run_is_bitwise_fresh(_train_run, tiny_dataset,
                                            tiny_split, monkeypatch)

    def test_pooled_minibatch_training_is_bitwise_identical(
            self, tiny_dataset, tiny_split, monkeypatch):
        """The same for the minibatch recipe, whose subgraph changes size
        every step, so recycled buffers serve other shapes of their
        size class."""
        _assert_pooled_run_is_bitwise_fresh(_minibatch_run, tiny_dataset,
                                            tiny_split, monkeypatch)

    @pytest.mark.parametrize("propagation", ["full", "minibatch"])
    def test_train_config_arena_false_is_the_bitwise_oracle(
            self, tiny_graph, tiny_split, tiny_candidates, monkeypatch,
            propagation):
        """``TrainConfig(arena=False)`` trains bitwise like the pooled
        default — with every buffer pooled, so the pool really engages."""
        pooled = BufferArena(min_bytes=0)
        monkeypatch.setattr(arena_mod, "_ARENA", pooled)
        runs = {}
        for arena in (True, False):
            model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
            config = TrainConfig(epochs=2, batch_size=64, batches_per_epoch=3,
                                 propagation=propagation, arena=arena,
                                 patience=None)
            hits = pooled.hits
            history = Trainer(model, tiny_split, config, tiny_candidates).fit()
            assert (pooled.hits > hits) is arena
            runs[arena] = (history.losses,
                           {name: param.data.copy()
                            for name, param in model.named_parameters()})
        assert runs[True][0] == runs[False][0]
        for name, value in runs[True][1].items():
            assert np.array_equal(value, runs[False][1][name]), name


class TestStepScopeExceptionSafety:
    def test_clean_exit_recycles_checkouts(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            pool.empty(BIG, np.float64)
        assert pool.stats()["checked_out"] == 0
        assert pool.stats()["free_bytes"] > 0

    def test_exception_forgets_instead_of_recycling(self):
        """A dying step must not donate aliased buffers to the next one.

        The traceback (and the half-built graph it references) may still
        hold the checkouts, so on an exception the scope forgets them —
        the next scope's checkout is a fresh allocation, never an alias
        of a buffer the failed step can still see.
        """
        pool = BufferArena(min_bytes=0)
        with pytest.raises(RuntimeError, match="boom"):
            with pool.step_scope():
                leaked = pool.empty(BIG, np.float64)
                raise RuntimeError("boom")
        stats = pool.stats()
        assert stats["checked_out"] == 0  # not leaked into bookkeeping
        assert stats["free_bytes"] == 0   # and not recycled either
        with pool.step_scope():
            fresh = pool.empty(BIG, np.float64)
            assert not np.shares_memory(fresh, leaked)

    def test_exception_in_nested_scope_unwinds_all_depths(self):
        pool = BufferArena(min_bytes=0)
        with pytest.raises(ValueError):
            with pool.step_scope():
                with pool.step_scope():
                    pool.empty(BIG, np.float64)
                    raise ValueError("inner")
        assert pool.stats()["checked_out"] == 0
        # The pool still works normally afterwards.
        with pool.step_scope():
            first = pool.empty(BIG, np.float64)
        with pool.step_scope():
            assert np.shares_memory(pool.empty(BIG, np.float64), first)

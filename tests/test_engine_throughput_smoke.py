"""Smoke-scale engine throughput run — validates the bench harness end to end.

The full-size comparison lives in ``benchmarks/test_engine_throughput.py``
and writes the repository-root ``BENCH_engine.json``; this test runs the
identical harness at tiny scale into a temporary file, so every tier-1 run
re-validates the naive/fast plumbing and the per-preset
merge-on-write semantics of the artifact without touching the committed
numbers.  The minibatch harness gets the same treatment, plus the one
medium-scale check worth its build time: the vectorized neighbourhood
expansion must beat the per-node loop oracle by a wide margin.
"""

import json
import time

import numpy as np
import pytest

from repro.experiments.engine_bench import (
    run_engine_throughput,
    run_minibatch_bench,
)


@pytest.mark.engine_throughput
def test_engine_throughput_smoke(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    results = run_engine_throughput(
        preset="tiny", epochs=1, batches_per_epoch=2, batch_size=128,
        embed_dim=8, num_layers=1, output_path=output)

    # Every sweep section carries the recording host context alongside
    # its per-backend stats.
    assert set(results.backends) == {"naive", "fast", "host_env"}
    assert "numpy" in results.backends["host_env"]
    for name in ("naive", "fast"):
        stats = results.backends[name]
        assert stats["epochs_per_sec"] > 0
        assert stats["calls.spmm"] > 0
        assert stats["calls.memory_mixture"] > 0
    # Identical workload under all backends: same kernel call counts.
    for key in ("calls.spmm", "calls.memory_mixture"):
        assert (results.backends["naive"][key]
                == results.backends["fast"][key])

    payload = json.loads(output.read_text())
    assert set(payload["presets"]) == {"tiny"}
    section = payload["presets"]["tiny"]
    assert section["dataset"] == "tiny"
    assert section["speedup_fast_over_naive"] == pytest.approx(results.speedup)


@pytest.mark.engine_throughput
def test_bench_artifact_merges_per_preset(tmp_path):
    """Writing one preset must not clobber another preset's section."""
    from repro.experiments.engine_bench import EngineBenchResults

    output = tmp_path / "BENCH_engine.json"
    first = EngineBenchResults(dataset_name="medium", epochs=2,
                               backends={"fast": {"epochs_per_sec": 10.0,
                                                  "seconds_per_epoch": 0.1}})
    first.write_json(output, preset="medium")
    second = EngineBenchResults(dataset_name="tiny", epochs=1,
                                backends={"fast": {"epochs_per_sec": 50.0,
                                                   "seconds_per_epoch": 0.02}})
    second.write_json(output, preset="tiny")

    payload = json.loads(output.read_text())
    assert set(payload["presets"]) == {"medium", "tiny"}
    assert (payload["presets"]["medium"]["backends"]["fast"]["epochs_per_sec"]
            == 10.0)


@pytest.mark.engine_throughput
def test_bench_artifact_merges_per_sweep(tmp_path):
    """A minibatch-only write must not clobber the preset's full suite."""
    from repro.experiments.engine_bench import EngineBenchResults

    output = tmp_path / "BENCH_engine.json"
    suite = EngineBenchResults(dataset_name="tiny", epochs=1,
                               backends={"fast": {"epochs_per_sec": 50.0,
                                                  "seconds_per_epoch": 0.02}})
    suite.write_json(output, preset="tiny")
    minibatch_only = EngineBenchResults(
        dataset_name="tiny", epochs=1,
        minibatch={"full": {"epochs_per_sec": 40.0}})
    minibatch_only.write_json(output, preset="tiny")

    section = json.loads(output.read_text())["presets"]["tiny"]
    assert section["backends"]["fast"]["epochs_per_sec"] == 50.0
    assert section["minibatch"]["full"]["epochs_per_sec"] == 40.0


@pytest.mark.engine_throughput
def test_minibatch_bench_smoke(tmp_path):
    """The minibatch sweep runs end to end at tiny scale."""
    section = run_minibatch_bench(
        preset="tiny", epochs=1, batches_per_epoch=2, batch_size=128,
        embed_dim=8, num_layers=1, fanouts=(5,), expand_repeats=1)

    assert set(section) == {"full", "fanout_5", "expand", "peak_rss_mb",
                            "host_env"}
    assert section["full"]["epochs_per_sec"] > 0
    assert section["fanout_5"]["epochs_per_sec"] > 0
    assert section["fanout_5"]["speedup_over_full"] > 0
    assert section["fanout_5"]["sample_seconds_per_epoch"] > 0
    assert section["expand"]["speedup"] > 0


@pytest.mark.engine_throughput
def test_vectorized_expand_beats_loop_oracle_on_medium():
    """Acceptance bar: >=5x over the per-node loop at medium scale.

    Measured at a fan-out tight enough that most nodes subsample (the
    loop oracle pays a per-node ``rng.choice`` there); the vectorized
    path runs one composite-key argsort for all nodes at once.  Typical
    margin is ~10x, so the 5x floor leaves room for timer noise.
    """
    from repro.data import leave_one_out, medium
    from repro.graph import CollaborativeHeteroGraph
    from repro.graph.sampling import (
        expand_neighborhood,
        expand_neighborhood_loop,
    )

    dataset = medium(seed=0)
    split = leave_one_out(dataset, seed=0)
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    rng = np.random.default_rng(0)
    users = rng.integers(0, graph.num_users, size=512)
    items = rng.integers(0, graph.num_items, size=1024)

    def best_of(expand, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            expand(graph, users, items, hops=2, fanout=5, seed=0)
            best = min(best, time.perf_counter() - start)
        return best

    fast = best_of(expand_neighborhood)
    loop = best_of(expand_neighborhood_loop)
    assert loop / fast >= 5.0, (
        f"vectorized expansion only {loop / fast:.1f}x over the loop "
        f"oracle (fast {fast * 1e3:.2f} ms, loop {loop * 1e3:.2f} ms)")

"""One pipeline run: paper-config DGNN train → evaluate → publish → serve.

Run by ``run.py`` in a child process (so peak RSS is per workload run)::

    python3 -m pipebench.pipeline --workload train-full --seed 1 \\
        --seconds 24 --trace 0 --out result.json

Every stage goes through the library's public API:
``PRESETS`` → ``leave_one_out`` → ``build_eval_candidates`` →
``CollaborativeHeteroGraph`` → ``create_model("dgnn")`` →
``Trainer.fit`` → ``evaluate_model`` / ``evaluate_full_ranking`` →
``EmbeddingSnapshot.from_model`` → ``SnapshotStore.publish/load`` →
``RecommendService.recommend/refresh``.  The result (end-to-end
metrics, correctness checks, and per-layer metrics when traced) is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy

import repro.data as data_api
import repro.eval as eval_api
from repro.engine import arena, get_dtype, get_index_dtype, instrument
from repro.graph import CollaborativeHeteroGraph
from repro.models import create_model
from repro.models.dgnn import DGNN
from repro.serve import (EmbeddingSnapshot, RecommendService, SnapshotStore,
                         topk_recall)
from repro.train import TrainConfig, Trainer

from pipebench import loadgen, tracing
from pipebench.stats import median, percentile, union_length

# -- the paper's configuration and the shipped default stack -------------
PRESET = "large"
# The dataset is the preset itself, generated once per set-up from its
# canonical seed, like a fixed real dataset; ``--seed`` drives everything
# drawn around it: the split, the evaluation negatives, initialization,
# BPR and fan-out sampling, the IVF k-means and the request schedule.
DATASET_SEED = 0
PAPER_MODEL = dict(embed_dim=16, num_layers=2, num_memory_units=8)
BATCH_SIZE = 1024
BATCHES_PER_EPOCH = 50
WORKLOADS = {
    "train-full": dict(propagation="full"),
    "train-minibatch": dict(propagation="minibatch", fanout=10),
}
# ``--seconds`` buys whole timed epochs (about 10 s each on the reference
# 2-CPU host) and a request count, so the quality metrics stay a pure
# function of the seed and the run length.
SECONDS_PER_EPOCH = 12.0
# Requests per open-loop phase per second of run: 42 × 24 = 1,008, enough
# for a p99 with 10 samples beyond it.
REQUESTS_PER_RUN_SECOND = 42
REPLAY_STEPS = 2
EVAL_REPEATS = 5
CHECK_USERS = 256
TOP_K = 20
# Open-loop ladder (requests/s) and the middle rate the latency metrics
# are read at; the p99 limit is fixed from the baseline (README.md).
RATES = (250.0, 500.0, 1000.0, 4000.0)
MIDDLE_RATE = 500.0
MIN_PHASE_S = 1.0     # a rung lasts at least this long, so overload shows
SWAP_EVERY = 100      # swap-phase requests between two publishes
LATENCY_LIMIT_S = 0.100


def train_config(workload: str, seed: int, epochs: int,
                 batches: int) -> TrainConfig:
    """Alg. 1's BPR training on the shipped stack, every knob explicit."""
    spec = WORKLOADS[workload]
    minibatch = spec["propagation"] == "minibatch"
    return TrainConfig(
        epochs=epochs, batch_size=BATCH_SIZE, batches_per_epoch=batches,
        propagation=spec["propagation"], fanout=spec.get("fanout", 20),
        prefetch=True, workers=0, sparse_grads=minibatch,
        sparse_adam_mode="lazy", arena=True, compile=False,
        reorder="identity", spmm_block=0, eval_every=epochs,
        eval_ks=(10,), patience=None, seed=seed)


@dataclass
class Built:
    dataset: object
    split: object
    candidates: object
    model: object
    trainer: Trainer


def build(seed: int, config: TrainConfig, tracer) -> tuple:
    """Everything before the first training step; returns (built, phases)."""
    phases: Dict[str, float] = {}

    def timed(name, fn, *args, **kwargs):
        with tracer.span(name):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            phases[name] = time.perf_counter() - start
        return out

    dataset = timed("data.generate", data_api.PRESETS[PRESET],
                    seed=DATASET_SEED)
    split = timed("data.split", data_api.leave_one_out, dataset, seed=seed)
    candidates = timed("data.candidates", data_api.build_eval_candidates,
                       split, num_negatives=100, seed=seed)
    graph = timed("graph.build", CollaborativeHeteroGraph, dataset,
                  split.train_pairs)
    model = timed("models.build", create_model, "dgnn", graph, seed=seed,
                  **PAPER_MODEL)
    trainer = timed("train.build", Trainer, model, split, config,
                    candidates=candidates)
    return Built(dataset, split, candidates, model, trainer), phases


class StepClock:
    """Stamps every optimizer step at exit: one ``perf_counter`` per step.

    It also snapshots the engine counters at the two window edges (end
    of warm-up, last step) so per-step ratios cover the timed window only.
    """

    def __init__(self, optimizer, tracer, warm_steps: int, total_steps: int):
        self.stamps: List[float] = []
        self.edges: List[dict] = []
        inner = optimizer.step
        stamps = self.stamps

        def step():
            inner()
            stamps.append(time.perf_counter())
            count = len(stamps)
            tracer.key = count
            if count == warm_steps or count == total_steps:
                self.edges.append({
                    "kernels": instrument.snapshot(),
                    "arena": arena.get_arena().stats(),
                    "ops": dict(getattr(tracer, "counts", {})),
                })

        optimizer.step = step


def train_stage(built: Built, warm_steps: int, total_steps: int, tracer,
                counts: dict) -> dict:
    clock = StepClock(built.trainer.optimizer, tracer, warm_steps, total_steps)
    start = time.perf_counter()
    history = built.trainer.fit()
    stamps = np.asarray(clock.stamps)
    counts["attempted"] += len(stamps)
    bad_losses = int(np.count_nonzero(~np.isfinite(history.losses)))
    counts["failed"] += bad_losses
    timed = np.diff(stamps[warm_steps - 1:])
    window = (float(stamps[warm_steps - 1]), float(stamps[-1]))
    return {
        "losses_finite": bad_losses == 0 and len(stamps) == total_steps,
        "step_s": timed,
        "window": window,
        "step_bounds": list(zip(stamps[warm_steps - 1:-1], stamps[warm_steps:])),
        "triples_per_s": len(timed) * BATCH_SIZE / (window[1] - window[0]),
        "warmup_s": float(stamps[warm_steps - 1] - start),
        "edges": clock.edges,
        "touched": float(np.mean(history.touched_row_fractions[1:])),
    }


def evaluate_stage(built: Built) -> dict:
    """Sampled + full-ranking evaluation, repeated; the time is a median."""
    seconds = []
    for _ in range(EVAL_REPEATS):
        built.model.invalidate_cache()
        start = time.perf_counter()
        sampled = eval_api.evaluate_model(built.model, built.candidates,
                                          ks=(10,))
        eval_api.evaluate_full_ranking(built.model, built.split, ks=(10,))
        seconds.append(time.perf_counter() - start)
    return {"eval_s": median(seconds), "hr": sampled["hr@10"],
            "ndcg": sampled["ndcg@10"]}


def fine_tune_step(built: Built) -> None:
    """One more full-graph BPR step: the next published model version."""
    trainer = built.trainer
    with arena.step_scope():
        trainer.optimizer.zero_grad()
        users, positives, negatives = trainer.sampler.sample()
        loss = built.model.bpr_loss(users, positives, negatives,
                                    l2=trainer.config.l2)
        loss.backward()
        trainer.optimizer.step()
    built.model.invalidate_cache()


def replay(workload: str, seed: int, tracer, counts: dict) -> tuple:
    """A fresh pipeline from the same seed for ``REPLAY_STEPS`` steps."""
    config = train_config(workload, seed, epochs=1, batches=REPLAY_STEPS)
    built, phases = build(seed, config, tracer)
    history = built.trainer.fit()
    counts["attempted"] += REPLAY_STEPS
    bad = int(np.count_nonzero(~np.isfinite(history.losses)))
    counts["failed"] += bad
    metrics = history.metrics[-1]
    return phases, (metrics["hr@10"], metrics["ndcg@10"]), bad == 0


# -- serving ------------------------------------------------------------
def _caller(service: RecommendService):
    def call(kind: str, payload: np.ndarray) -> np.ndarray:
        with arena.step_scope():
            if kind == "cold":
                return service.recommend_cold_user(payload, k=TOP_K)
            return service.recommend(payload, k=TOP_K)
    return call


def _responses_valid(record: loadgen.LoopRecord, payloads: list,
                     snapshot) -> bool:
    """Every id in range; no warm user is shown one of their train items."""
    num_items = snapshot.num_items
    train_keys = (np.repeat(np.arange(snapshot.num_users, dtype=np.int64),
                            np.diff(snapshot.train_indptr))
                  * num_items + snapshot.train_indices.astype(np.int64))
    for i, result in enumerate(record.results):
        if result is None:
            continue
        if result.min() < 0 or result.max() >= num_items:
            return False
        if loadgen.KINDS[record.kinds[i]] == "cold":
            continue
        users = np.asarray(payloads[i], dtype=np.int64)
        keys = users[:, None] * num_items + result.reshape(len(users), -1)
        pos = np.clip(np.searchsorted(train_keys, keys), 0,
                      len(train_keys) - 1)
        if np.any(train_keys[pos] == keys):
            return False
    return True


def serve_stage(seed: int, seconds: int, snapshots: list,
                check_users: np.ndarray, reference: np.ndarray,
                work: Path, tracer, counts: dict, checks: dict) -> dict:
    """Open-loop phases against exact and IVF retrieval, then live swaps.

    The latency phases serve one snapshot version.  In the last phase,
    exact traffic keeps arriving while the publisher thread publishes
    the other version every ``SWAP_EVERY`` requests and refreshes both
    services (exact first, then IVF with its index rebuild).
    """
    store = SnapshotStore(work / "store")
    store.publish(snapshots[0])
    first = store.load(store.latest_version())
    exact = RecommendService(first, retrieval="exact")
    ivf = RecommendService(first, retrieval="ivf", seed=seed)
    with arena.step_scope():
        served = exact.recommend(check_users, k=TOP_K)
    checks["exact_recommend_equals_full_ranking_topk"] = bool(
        np.array_equal(served, reference))

    rng = np.random.default_rng([seed, 7])
    warm = np.flatnonzero(np.diff(first.train_indptr) > 0)
    friends = [np.array(first.social_row(u))
               for u in np.flatnonzero(np.diff(first.social_indptr) > 0)]
    count = REQUESTS_PER_RUN_SECOND * seconds
    schedule = loadgen.make_schedule(
        rng, max(count, int(max(RATES) * MIN_PHASE_S)), warm, friends)
    phases: Dict[str, loadgen.LoopRecord] = {}

    swapper = None

    def on_issue(name):
        def issue(i):
            tracer.key = f"{name}/{i}"  # spans carry the request id
            if swapper is not None and i % SWAP_EVERY == SWAP_EVERY // 2:
                swapper.signal()
        return issue

    def phase(name, service, rate):
        record = loadgen.run_open_loop(
            _caller(service), schedule, rate,
            max(count, int(rate * MIN_PHASE_S)), on_issue=on_issue(name),
            abort_lag=2 * LATENCY_LIMIT_S)
        counts["attempted"] += len(record.due)
        counts["failed"] += int(np.count_nonzero(~record.ok))
        phases[name] = record
        return record

    gc.collect()
    mid = phase("exact-mid", exact, MIDDLE_RATE)
    ladder = {MIDDLE_RATE: mid}
    passes = mid.meets(LATENCY_LIMIT_S)
    rungs = ([r for r in RATES if r > MIDDLE_RATE] if passes
             else [r for r in RATES if r < MIDDLE_RATE][::-1])
    for rate in rungs:
        ladder[rate] = phase(f"exact-{rate:g}", exact, rate)
        if ladder[rate].meets(LATENCY_LIMIT_S) != passes:
            break
    ivf_mid = phase("ivf-mid", ivf, MIDDLE_RATE)

    # IVF recall against exact top-k for the same users, same version.
    served = [i for i, result in enumerate(ivf_mid.results)
              if result is not None and loadgen.KINDS[ivf_mid.kinds[i]] != "cold"]
    users = np.concatenate([schedule.payloads[i] for i in served])
    with arena.step_scope():
        truth = exact.recommend(users, k=TOP_K)
    recall = topk_recall(np.concatenate([ivf_mid.results[i] for i in served]),
                         truth)

    swapper = loadgen.Swapper(store, snapshots[1:] + snapshots[:1],
                              [exact, ivf])
    try:
        swaps = phase("swap", exact, MIDDLE_RATE)
        swapper.drain()
    finally:
        swapper.close()
    counts["attempted"] += swapper.attempted
    counts["failed"] += swapper.failed
    latest = store.latest_version()
    checks["served_version_is_latest"] = (
        swapper.attempted > 0 and exact.snapshot.version == latest
        and ivf.snapshot.version == latest)
    checks["responses_in_range_and_unseen"] = all(
        _responses_valid(record, schedule.payloads, first)
        for record in phases.values())

    passing = [rate for rate, record in ladder.items()
               if record.meets(LATENCY_LIMIT_S)]
    ladder_note = ", ".join(
        f"{rate:g}/s p99={1e3 * percentile(r.latency, 99).value:.1f}ms"
        f"{'' if r.meets(LATENCY_LIMIT_S) else ' miss'}"
        for rate, r in sorted(ladder.items()))
    return {
        "p50": percentile(mid.latency, 50), "p99": percentile(mid.latency, 99),
        "ivf_p50": percentile(ivf_mid.latency, 50),
        "ivf_p99": percentile(ivf_mid.latency, 99),
        "max_rps": max(passing) if passing else 0.0,
        "ladder": ladder_note,
        "recall": recall,
        "staleness": swapper.staleness,
        "mid": mid,
        "swap_p99": percentile(swaps.latency, 99).value,
        "fallback_frac": ivf.stats["fallback_rows"] / max(ivf.stats["users"], 1),
        "service_ms": {kind: 1e3 * median(mid.service[mid.kinds == index])
                       for index, kind in enumerate(loadgen.KINDS)},
    }


# -- per-layer metrics from the traced run ------------------------------
def layer_metrics(tracer: tracing.Tracer, train: dict, serve: dict,
                  setups: List[Dict[str, float]]) -> Dict[str, float]:
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    t0, t1 = train["window"]
    steps = len(train["step_s"])
    window = [s for s in spans if t0 <= s.start < t1]
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def per_step_ms(name: str, own: bool = False) -> float:
        total = sum(selfs[id(s)] if own else s.duration
                    for s in window if s.name == name)
        return 1e3 * total / steps

    def med(name: str, scale: float = 1.0) -> float:
        return scale * median([s.duration for s in by_name.get(name, [])])

    before, after = train["edges"]
    kernels = instrument.delta(before["kernels"], after["kernels"])
    arena_hits = after["arena"]["hits"] - before["arena"]["hits"]
    arena_misses = after["arena"]["misses"] - before["arena"]["misses"]
    cache_hits = kernels.get("cache_hits", 0.0)
    cache_lookups = cache_hits + kernels.get("cache_misses", 0.0)
    ops = (after["ops"].get("autograd.op_calls", 0)
           - before["ops"].get("autograd.op_calls", 0))
    engine_total = sum(s.duration for s in window
                       if s.name.startswith("engine."))
    attributed = sum(
        union_length(
            [(s.start, s.end) for s in window
             if s.parent is None and s.thread == tracer.main_thread],
            lo, hi)
        for lo, hi in train["step_bounds"])
    subgraphs = [s.value for s in window if s.name == "graph.subgraph"]
    mid = serve["mid"]
    service_ms = serve["service_ms"]

    layers = {
        "data.generate_s": median([p["data.generate"] for p in setups]),
        "data.split_s": median([p["data.split"] for p in setups]),
        "data.candidates_s": median([p["data.candidates"] for p in setups]),
        "graph.build_s": median([p["graph.build"] for p in setups]),
        "data.bpr_sample_ms": per_step_ms("data.bpr_sample"),
        "graph.subgraph_ms": per_step_ms("graph.subgraph"),
        "graph.subgraph_nodes": float(np.mean(subgraphs)) if subgraphs else 0.0,
        "train.prefetch_wait_ms": per_step_ms("train.prefetch_wait"),
        "models.forward_ms": per_step_ms("models.forward"),
        "models.memory_bank_ms": per_step_ms("models.memory_bank", own=True),
        "models.final_embeddings_s": med("models.final_embeddings"),
        "autograd.backward_ms": per_step_ms("autograd.backward", own=True),
        "autograd.op_calls": ops / steps,
        "engine.spmm_ms": per_step_ms("engine.spmm"),
        "engine.spmm_calls": sum(s.name == "engine.spmm" for s in window) / steps,
        "engine.memory_mixture_ms": per_step_ms("engine.memory_mixture"),
        "engine.memory_mixture_backward_ms":
            per_step_ms("engine.memory_mixture_backward"),
        "engine.gathered_rowwise_dot_ms":
            per_step_ms("engine.gathered_rowwise_dot"),
        "engine.gather_rows_ms": per_step_ms("engine.gather_rows"),
        "engine.flops_per_step": sum(v for k, v in kernels.items()
                                     if k.startswith("flops.")) / steps,
        "engine.bytes_per_step": sum(v for k, v in kernels.items()
                                     if k.startswith("bytes.")) / steps,
        "engine.kernel_frac": engine_total / (t1 - t0),
        "engine.adjcache_hit_ratio":
            cache_hits / cache_lookups if cache_lookups else 1.0,
        "engine.arena_reuse_ratio":
            arena_hits / max(arena_hits + arena_misses, 1),
        "nn.optimizer_step_ms": per_step_ms("nn.optimizer_step"),
        "nn.touched_row_frac": train["touched"],
        "nn.clip_ms": per_step_ms("nn.clip"),
        "nn.zero_grad_ms": per_step_ms("nn.zero_grad"),
        "train.step_ms": 1e3 * (t1 - t0) / steps,
        "train.attributed_frac": attributed / (t1 - t0),
        "train.warmup_s": train["warmup_s"],
        "eval.sampled_s": med("eval.sampled"),
        "eval.full_ranking_s": med("eval.full_ranking"),
        "eval.topk_ms": 1e3 * float(np.mean(
            [s.duration for s in by_name.get("eval.topk", [])] or [0.0])),
        "serve.recommend_ms.single": service_ms["single"],
        "serve.recommend_ms.batch": service_ms["batch"],
        "serve.cold_ms": service_ms["cold"],
        "serve.queue_wait_ms": 1e3 * float(np.mean(mid.lag)),
        "serve.generator_lag_ms": 1e3 * float(np.max(mid.lag)),
        "serve.probe_ms": 1e3 * float(np.mean(
            [s.duration for s in by_name.get("serve.probe", [])] or [0.0])),
        "serve.ann_fallback_frac": serve["fallback_frac"],
        "serve.publish_ms": med("serve.publish", 1e3),
        "serve.load_ms": med("serve.load", 1e3),
        "serve.swap_ms": med("serve.swap", 1e3),
        "serve.swap_phase_p99_ms": 1e3 * serve["swap_p99"],
        "serve.index_build_ms": med("serve.index_build", 1e3),
        "serve.snapshot_build_s": med("serve.snapshot_build"),
    }
    return layers


# -- the whole run --------------------------------------------------------
def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use (None if it cannot be asked)."""
    import ctypes
    import glob
    import os

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run(workload: str, seed: int, seconds: int, traced: bool,
        work: Path) -> dict:
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    counts = {"attempted": 0, "failed": 0}
    checks: Dict[str, bool] = {}
    timed_epochs = max(1, round(seconds / SECONDS_PER_EPOCH))
    warm_steps = BATCHES_PER_EPOCH
    total_steps = BATCHES_PER_EPOCH * (1 + timed_epochs)
    stages = [("start", time.perf_counter())]

    def stage(name):
        stages.append((name, time.perf_counter()))

    if traced:
        tracing.install(tracer, DGNN)
    try:
        config = train_config(workload, seed, 1 + timed_epochs,
                              BATCHES_PER_EPOCH)
        built, first_setup = build(seed, config, tracer)
        stage("setup")
        train = train_stage(built, warm_steps, total_steps, tracer, counts)
        stage("train")
        evaluation = evaluate_stage(built)
        rng = np.random.default_rng([seed, 3])
        warm_users = np.flatnonzero(
            np.diff(built.split.train_matrix().tocsr().indptr) > 0)
        check_users = np.sort(rng.choice(warm_users, CHECK_USERS,
                                         replace=False))
        reference = eval_api.full_ranking_topk(
            built.model, built.split, users=check_users, top_n=TOP_K)
        current = EmbeddingSnapshot.from_model(built.model, built.split)
        fine_tune_step(built)
        following = EmbeddingSnapshot.from_model(built.model, built.split)
        del built
        gc.collect()
        stage("evaluate+snapshot")

        setups = [first_setup]
        replayed = []
        for _ in range(2):
            phases, quality, finite = replay(workload, seed, tracer, counts)
            setups.append(phases)
            replayed.append(quality)
            train["losses_finite"] &= finite
        gc.collect()
        checks["training_losses_finite"] = train["losses_finite"]
        checks["replay_hr_ndcg_bitwise_equal"] = replayed[0] == replayed[1]
        stage("replays")
        serve = serve_stage(seed, seconds, [current, following], check_users,
                            reference, work, tracer, counts, checks)
        stage("serve")
    finally:
        if traced:
            tracer.uninstall()
    counts["attempted"] += len(checks)
    counts["failed"] += sum(not ok for ok in checks.values())

    setup_totals = [sum(p.values()) for p in setups]
    step_ms = 1e3 * train["step_s"]
    p50, p90 = percentile(step_ms, 50), percentile(step_ms, 90)
    staleness = percentile(serve["staleness"], 50)
    metrics = {
        "setup_s": (median(setup_totals), f"median of {len(setups)} setups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "this run's process"),
        "train_triples_per_s": (train["triples_per_s"],
                                f"over n={len(step_ms)} timed steps"),
        "train_step_ms_p50": (p50.value, p50.label()),
        "train_step_ms_p90": (p90.value, p90.label()),
        "eval_s": (evaluation["eval_s"], f"median of {EVAL_REPEATS} passes"),
        "hr_at_10": (evaluation["hr"], f"after {total_steps} steps"),
        "ndcg_at_10": (evaluation["ndcg"], f"after {total_steps} steps"),
        "serve_p50_ms": (1e3 * serve["p50"].value,
                         f"{serve['p50'].label()}; service ms " + "/".join(
                             f"{k} {v:.2f}"
                             for k, v in serve["service_ms"].items())),
        "serve_p99_ms": (1e3 * serve["p99"].value, serve["p99"].label()),
        "serve_max_rps": (serve["max_rps"], serve["ladder"]),
        "serve_ivf_p50_ms": (1e3 * serve["ivf_p50"].value,
                             serve["ivf_p50"].label()),
        "serve_ivf_p99_ms": (1e3 * serve["ivf_p99"].value,
                             serve["ivf_p99"].label()),
        "ivf_recall_at_20": (serve["recall"], "IVF vs exact, same requests"),
        "staleness_ms": (1e3 * staleness.value, staleness.label()),
    }
    result = {
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "samples": {name: note for name, (_, note) in metrics.items()},
        "checks": checks,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "context": {"numpy": np.__version__, "scipy": scipy.__version__,
                    "python": platform.python_version(),
                    "value_dtype": np.dtype(get_dtype()).name,
                    "index_dtype": np.dtype(get_index_dtype()).name,
                    "blas_threads": blas_threads(),
                    "timed_epochs": timed_epochs,
                    "stage_s": "/".join(
                        f"{name} {end - begin:.1f}" for (_, begin), (name, end)
                        in zip(stages, stages[1:]))},
    }
    if traced:
        result["layers"] = layer_metrics(tracer, train, serve, setups)
        # The latest traced run's spans, kept beside the results.
        tracer.write(work.parent / f"{workload}.spans.jsonl")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    work = args.out.parent / f"work-{args.out.stem}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

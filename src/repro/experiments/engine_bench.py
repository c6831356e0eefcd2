"""Propagation-engine benchmarks: backends, fused kernels, dtypes, serving.

Nine sweeps, each answering one question about the engine's hot path:

* :func:`run_engine_throughput` — DGNN epochs/sec per kernel backend
  (``naive`` loop oracle vs ``fast`` vectorized CSR), with the engine's
  own instrumentation for the operation-level numbers.
* :func:`run_memory_kernel_bench` — forward+backward seconds of the
  fused ``memory_mixture`` kernel against the generic five-op
  composition it replaced, on the full DGNN BPR step.
* :func:`run_dtype_sweep` — epochs/sec under the ``float64`` default vs
  the opt-in ``float32`` precision policy.
* :func:`run_minibatch_bench` — full-graph vs sampled-minibatch training
  throughput at several fan-outs (prefetch on), plus a micro-benchmark
  of the vectorized ``expand_neighborhood`` against its loop oracle.
* :func:`run_optimizer_bench` — dense vs lazy (row-sparse) optimizer
  updates: an end-to-end minibatch training A/B in the optimizer-bound
  regime (small batch closure against the full embedding tables), plus
  an Adam step-rate micro-benchmark across touched-row fractions.
* :func:`run_memory_bench` — sweep 7, the memory-scale A/B: peak RSS of
  the production configuration (``float32`` + ``int32`` indices +
  buffer arena) against the allocate-fresh ``float64``/``int64`` parity
  oracle, each measured in its own subprocess so ``ru_maxrss`` isolates
  one arm; at the ``xlarge`` preset it instead runs the 1M+ node
  end-to-end training leg and records epoch time and peak RSS.
* :func:`run_serving_bench` — sweep 8, the online-serving A/B: publish
  an :class:`repro.serve.EmbeddingSnapshot`, reload it memory-mapped,
  and drive batched ``recommend`` requests through each retrieval mode
  (``exact`` / ``ivf``), recording queries/sec, block-level
  p50/p99 latency and recall@k against the exact arm.  At ``xlarge``
  the entry is timing-only (untrained embeddings carry no cluster
  structure for ANN recall to exploit).
* :func:`run_locality_bench` — sweep 10, the cache-locality pass: node
  reordering (identity / degree / RCM via :mod:`repro.graph.reorder`)
  crossed with the flat-vs-cache-blocked spmm of
  :mod:`repro.engine.locality`, recording composite-pass propagation
  throughput (with roofline GFLOP/s / GB/s per arm), end-to-end epoch
  rate and exact serving queries/sec — while asserting in-bench that
  blocked results are bitwise equal to flat and that top-k id sets are
  invariant under relabeling.
* :func:`run_parallel_bench` — sweep 9, multi-process shared-memory
  training: epoch rate and fleet-wide peak PSS vs worker count for both
  ``hogwild`` and ``sync`` update modes, each arm in its own subprocess,
  with a single-process :class:`~repro.train.Trainer` reference arm and
  an end-to-end snapshot-publish leg.  The section records
  ``host_cpus`` so timing floors only bind on hosts with real
  parallelism; the sublinear-PSS (one shared table copy) floor binds
  everywhere.

The *recorded production configuration* is ``float32``: every sweep
except the explicit dtype A/B runs under ``use_dtype("float32")``, and
``float64`` survives as the parity arm inside ``dtype_sweep`` and the
memory oracle.  Every sweep section also records ``peak_rss_mb``, the
process high-water mark when the sweep finished (monotonic within one
process — per-arm isolation is exactly why sweep 7 forks).

:func:`run_engine_suite` runs the sweeps and persists them under one
preset key in ``BENCH_engine.json``.  The artifact groups results by
preset — ``{"presets": {"tiny": {...}, "medium": {...}}}`` — and writes
merge on top of the existing file, so a tiny-scale smoke refresh never
clobbers the committed medium-scale numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence
from unittest import mock

import numpy as np

from repro.engine import (get_cache, get_dtype, get_index_dtype, instrument,
                          use_backend, use_dtype)
from repro.engine.precision import tolerances
from repro.experiments.common import ExperimentContext, default_train_config
from repro.models import create_model
from repro.models.memory import MemoryBank, mixture_transform_reference
from repro.train import Trainer

BACKENDS = ("naive", "fast")

PRODUCTION_DTYPE = "float32"

# The two sweep-7 arms: the benchmarked production path and the
# allocate-fresh double-precision parity oracle.  The precision policy
# reaches the child through its environment (read at import); the arena
# switch travels in the child's JSON config as ``TrainConfig.arena``.
_MEMORY_ARMS = {
    "production": {"env": {"REPRO_ENGINE_DTYPE": "float32",
                           "REPRO_ENGINE_INDEX_DTYPE": "int32"},
                   "arena": True},
    "oracle": {"env": {"REPRO_ENGINE_DTYPE": "float64",
                       "REPRO_ENGINE_INDEX_DTYPE": "int64"},
               "arena": False},
}


def _peak_rss_mb() -> float:
    """Process peak resident set size in MiB (0.0 if unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0  # kilobytes on Linux


@dataclass
class EngineBenchResults:
    """Throughput, kernel, dtype and serving numbers for one preset."""

    dataset_name: str
    epochs: int
    backends: Dict[str, Dict[str, float]] = field(default_factory=dict)
    memory_kernel: Dict[str, float] = field(default_factory=dict)
    dtype_sweep: Dict[str, Dict[str, float]] = field(default_factory=dict)
    minibatch: Dict[str, Dict[str, float]] = field(default_factory=dict)
    optimizer: Dict[str, Dict[str, float]] = field(default_factory=dict)
    memory: Dict[str, object] = field(default_factory=dict)
    serving: Dict[str, object] = field(default_factory=dict)
    parallel: Dict[str, object] = field(default_factory=dict)
    locality: Dict[str, object] = field(default_factory=dict)
    production_dtype: str = PRODUCTION_DTYPE

    @property
    def speedup(self) -> float:
        """Fast-over-naive throughput ratio (>1 means fast is faster)."""
        naive = self.backends.get("naive", {}).get("epochs_per_sec", 0.0)
        fast = self.backends.get("fast", {}).get("epochs_per_sec", 0.0)
        if naive <= 0:
            return float("inf") if fast > 0 else 0.0
        return fast / naive

    @property
    def fused_speedup(self) -> float:
        """Fused-over-unfused memory-mixture ratio on forward+backward."""
        return self.memory_kernel.get("fused_speedup", 0.0)

    def render(self) -> str:
        lines = [f"Engine throughput — {self.dataset_name}, "
                 f"{self.epochs} epoch(s) per backend"]
        header = (f"{'backend':<10}{'epochs/sec':>12}{'s/epoch':>10}"
                  f"{'spmm calls':>12}{'cache hits':>12}{'normalize':>11}")
        lines.append(header)
        lines.append("-" * len(header))
        for backend, stats in self.backends.items():
            if backend == "host_env":
                continue
            lines.append(
                f"{backend:<10}{stats['epochs_per_sec']:>12.3f}"
                f"{stats['seconds_per_epoch']:>10.3f}"
                f"{stats.get('calls.spmm', 0.0):>12.0f}"
                f"{stats.get('cache_hits', 0.0):>12.0f}"
                f"{stats.get('normalizations', 0.0):>11.0f}")
        lines.append(f"speedup (fast/naive): {self.speedup:.2f}x")
        if self.memory_kernel:
            lines.append(
                f"memory kernel (fwd+bwd): fused "
                f"{self.memory_kernel['fused_seconds']*1e3:.2f} ms, unfused "
                f"{self.memory_kernel['unfused_seconds']*1e3:.2f} ms — "
                f"{self.fused_speedup:.2f}x")
        if self.dtype_sweep:
            pieces = [f"{name} {stats['epochs_per_sec']:.2f} ep/s"
                      for name, stats in self.dtype_sweep.items()
                      if name != "host_env"]
            lines.append("dtype sweep: " + ", ".join(pieces))
        if self.minibatch:
            full = self.minibatch.get("full", {})
            if full:
                lines.append(
                    f"minibatch: full-graph {full['epochs_per_sec']:.3f} ep/s")
            for name, stats in self.minibatch.items():
                if not name.startswith("fanout_"):
                    continue
                lines.append(
                    f"  {name}: {stats['epochs_per_sec']:.3f} ep/s "
                    f"({stats.get('speedup_over_full', 0.0):.2f}x over full)")
            expand = self.minibatch.get("expand")
            if expand:
                lines.append(
                    f"  expand_neighborhood fast-over-loop: "
                    f"{expand['speedup']:.1f}x")
        if self.optimizer:
            lazy = self.optimizer.get("training_lazy", {})
            dense = self.optimizer.get("training_dense", {})
            if lazy and dense:
                lines.append(
                    f"optimizer: dense {dense['epochs_per_sec']:.3f} ep/s, "
                    f"lazy {lazy['epochs_per_sec']:.3f} ep/s "
                    f"({lazy.get('speedup_over_dense', 0.0):.2f}x, "
                    f"touched {lazy.get('touched_row_fraction', 1.0):.3f})")
            for name in sorted(self.optimizer):
                if not name.startswith("rows_"):
                    continue
                stats = self.optimizer[name]
                lines.append(
                    f"  {name}: dense {stats['dense_steps_per_sec']:.0f} "
                    f"steps/s, lazy {stats['lazy_steps_per_sec']:.0f} steps/s "
                    f"({stats['speedup']:.2f}x)")
        if self.memory:
            production = self.memory.get("production", {})
            oracle = self.memory.get("oracle", {})
            if isinstance(production, dict) and production:
                lines.append(
                    f"memory: production {production.get('peak_rss_mb', 0.0):.0f} MB peak RSS")
            if isinstance(oracle, dict) and oracle:
                reduction = self.memory.get("rss_reduction_vs_oracle", 0.0)
                lines.append(
                    f"  oracle {oracle.get('peak_rss_mb', 0.0):.0f} MB "
                    f"({100.0 * float(reduction):.1f}% reduction, loss parity "
                    f"{'ok' if self.memory.get('loss_parity_ok') else 'FAILED'})")
        if self.serving:
            k = self.serving.get("k", 0)
            lines.append(f"serving (top-{k}):")
            for arm in ("exact", "ivf"):
                stats = self.serving.get(arm)
                if not isinstance(stats, dict) or not stats:
                    continue
                extra = ""
                if "recall_at_k" in stats:
                    extra = (f", recall@{k} {stats['recall_at_k']:.3f}, "
                             f"{stats.get('speedup_over_exact', 0.0):.2f}x "
                             f"over exact")
                lines.append(
                    f"  {arm}: {stats['queries_per_sec']:.0f} q/s "
                    f"(p50 {stats['p50_ms']:.2f} ms, "
                    f"p99 {stats['p99_ms']:.2f} ms{extra})")
            best = self.serving.get("best")
            if isinstance(best, dict) and best:
                lines.append(
                    f"  best ANN: {best.get('arm')} "
                    f"{best.get('speedup_over_exact', 0.0):.2f}x over exact "
                    f"at recall@{k} {best.get('recall_at_k', 0.0):.3f}")
        if self.parallel:
            lines.append(
                f"parallel training (host_cpus="
                f"{self.parallel.get('host_cpus', 0)}):")
            for mode in ("hogwild", "sync"):
                mode_section = self.parallel.get(mode)
                if not isinstance(mode_section, dict):
                    continue
                pieces = []
                for name in sorted(mode_section):
                    stats = mode_section[name]
                    if not isinstance(stats, dict):
                        continue
                    workers = name.split("_", 1)[-1]
                    pieces.append(
                        f"{workers}w {stats.get('epochs_per_sec', 0.0):.3f} "
                        f"ep/s / {stats.get('peak_pss_mb', 0.0):.0f} MB PSS")
                if pieces:
                    lines.append(f"  {mode}: " + ", ".join(pieces))
            lines.append(
                f"  at {self.parallel.get('max_workers', 0)} workers: best "
                f"speedup {self.parallel.get('best_speedup_at_max_workers', 0.0):.2f}x, "
                f"PSS growth "
                f"{self.parallel.get('pss_growth_at_max_workers', 0.0):.2f}x")
        if self.locality:
            lines.append(
                f"locality (d={self.locality.get('embed_dim', 0)}, "
                f"{self.locality.get('num_layers', 0)} layers):")
            arms = self.locality.get("arms", {})
            if isinstance(arms, dict):
                for name in sorted(arms):
                    stats = arms[name]
                    if not isinstance(stats, dict):
                        continue
                    lines.append(
                        f"  {name}: {stats.get('propagation_per_sec', 0.0):.1f} "
                        f"passes/s ({stats.get('propagation_speedup_over_flat', 0.0):.2f}x "
                        f"over identity_flat), "
                        f"{stats.get('epochs_per_sec', 0.0):.3f} ep/s, "
                        f"{stats.get('serving_queries_per_sec', 0.0):.0f} q/s")
            best = self.locality.get("best")
            if isinstance(best, dict):
                lines.append(
                    f"  best: {best.get('arm')} "
                    f"{best.get('propagation_speedup_over_flat', 0.0):.2f}x "
                    f"propagation over the flat identity oracle")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset_name,
            "epochs": self.epochs,
            "production_dtype": self.production_dtype,
            "backends": self.backends,
            "speedup_fast_over_naive": self.speedup,
            "memory_kernel": self.memory_kernel,
            "dtype_sweep": self.dtype_sweep,
            "minibatch": self.minibatch,
            "optimizer": self.optimizer,
            "memory": self.memory,
            "serving": self.serving,
            "parallel": self.parallel,
            "locality": self.locality,
        }

    def write_json(self, path: Path, preset: Optional[str] = None) -> Path:
        """Persist under ``presets[preset]``, merging with the existing file.

        Other presets' sections are preserved, so refreshing the tiny
        smoke numbers leaves the committed medium numbers intact.  Within
        a preset, sweeps this result did not run (empty dicts) keep their
        existing values — a minibatch-only run updates just that section.
        """
        path = Path(path)
        preset = preset or self.dataset_name
        payload: Dict[str, object] = {"presets": {}}
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except json.JSONDecodeError:
                existing = {}
            if isinstance(existing.get("presets"), dict):
                payload["presets"] = existing["presets"]
        section = self.to_dict()
        previous = payload["presets"].get(preset)
        if isinstance(previous, dict):
            for key, value in list(section.items()):
                not_run = (
                    (isinstance(value, dict) and not value)
                    or (key == "speedup_fast_over_naive" and not self.backends))
                if not_run and key in previous:
                    section[key] = previous[key]
        payload["presets"][preset] = section
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path


def run_engine_throughput(
        preset: str = "medium",
        epochs: int = 2,
        batches_per_epoch: Optional[int] = 4,
        batch_size: int = 512,
        embed_dim: int = 16,
        num_layers: int = 2,
        seed: int = 0,
        backends: Sequence[str] = BACKENDS,
        context: Optional[ExperimentContext] = None,
        output_path: Optional[Path] = None) -> EngineBenchResults:
    """Train DGNN under each backend and record throughput + counters.

    Each backend gets a freshly seeded model and trainer, so both run the
    identical workload; evaluation is held to a single pass at the end
    and excluded from the timing (``mean_train_seconds``).  Pass
    ``output_path`` to also persist the result as JSON
    (``BENCH_engine.json`` by convention; merged per preset).
    """
    if context is None:
        context = ExperimentContext.build(preset, seed=seed, num_negatives=50)
    config = default_train_config(
        epochs=epochs, batch_size=batch_size,
        batches_per_epoch=batches_per_epoch, eval_every=max(epochs, 1),
        patience=None, seed=seed)
    results = EngineBenchResults(dataset_name=context.dataset.name,
                                 epochs=epochs)
    for backend in backends:
        # Cold start per backend: fresh graph (its normalized views are
        # cached_property attributes) and a cleared adjacency cache, so
        # all backends pay — and count — identical normalization work.
        graph = context.variant_graph()
        get_cache().clear()
        instrument.reset_counters()
        with use_backend(backend):
            model = create_model("dgnn", graph, embed_dim=embed_dim,
                                 seed=seed, num_layers=num_layers)
            trainer = Trainer(model, context.split, config, context.candidates)
            start = time.perf_counter()
            history = trainer.fit()
            total = time.perf_counter() - start
        seconds_per_epoch = history.mean_train_seconds()
        stats: Dict[str, float] = {
            "seconds_per_epoch": seconds_per_epoch,
            "epochs_per_sec": (1.0 / seconds_per_epoch
                               if seconds_per_epoch > 0 else 0.0),
            "total_seconds": total,
            "peak_rss_mb": _peak_rss_mb(),
        }
        stats.update(history.total_kernel_counters())
        results.backends[backend] = stats
    results.backends["host_env"] = _host_env()
    if output_path is not None:
        results.write_json(Path(output_path), preset=preset)
    return results


def _bpr_step_seconds(model, users, positives, negatives,
                      repeats: int, l2: float = 1e-4) -> float:
    """Best-of-``repeats`` wall time of one full BPR forward+backward."""
    best = float("inf")
    for _ in range(repeats):
        model.zero_grad()
        start = time.perf_counter()
        loss = model.bpr_loss(users, positives, negatives, l2=l2)
        loss.backward()
        best = min(best, time.perf_counter() - start)
    return best


def run_memory_kernel_bench(
        preset: str = "medium",
        batch_size: int = 512,
        embed_dim: int = 16,
        num_layers: int = 2,
        repeats: int = 3,
        seed: int = 0,
        context: Optional[ExperimentContext] = None) -> Dict[str, float]:
    """Fused vs unfused memory-mixture on the DGNN forward+backward.

    The same model instance and triple batch run under both paths (the
    unfused arm patches
    :func:`~repro.models.memory.mixture_transform_reference` in as
    ``MemoryBank.mixture_transform``), so the only difference is the
    mixture implementation.  Returns best-of-N seconds per step for each
    path plus their ratio.
    """
    from repro.data.sampling import BprSampler

    if context is None:
        context = ExperimentContext.build(preset, seed=seed, num_negatives=50)
    model = create_model("dgnn", context.graph, embed_dim=embed_dim,
                         seed=seed, num_layers=num_layers)
    sampler = BprSampler(context.split, batch_size=batch_size, seed=seed)
    users, positives, negatives = sampler.sample()
    with mock.patch.object(
            MemoryBank, "mixture_transform",
            lambda bank, embeddings, gates: mixture_transform_reference(
                embeddings, gates, bank.transforms)):
        unfused = _bpr_step_seconds(model, users, positives, negatives, repeats)
    fused = _bpr_step_seconds(model, users, positives, negatives, repeats)
    return {
        "fused_seconds": fused,
        "unfused_seconds": unfused,
        "fused_speedup": unfused / fused if fused > 0 else float("inf"),
        "peak_rss_mb": _peak_rss_mb(),
        "host_env": _host_env(),
    }


def run_dtype_sweep(
        preset: str = "medium",
        epochs: int = 1,
        batches_per_epoch: Optional[int] = 4,
        batch_size: int = 512,
        embed_dim: int = 16,
        num_layers: int = 2,
        seed: int = 0,
        dtypes: Sequence[str] = ("float64", "float32"),
        context: Optional[ExperimentContext] = None,
) -> Dict[str, Dict[str, float]]:
    """DGNN training throughput under each engine dtype (fast backend).

    The graph is rebuilt inside each dtype context so normalized
    adjacencies, parameters and optimizer state all carry that dtype.
    """
    if context is None:
        context = ExperimentContext.build(preset, seed=seed, num_negatives=50)
    config = default_train_config(
        epochs=epochs, batch_size=batch_size,
        batches_per_epoch=batches_per_epoch, eval_every=max(epochs, 1),
        patience=None, seed=seed)
    sweep: Dict[str, Dict[str, float]] = {}
    for dtype in dtypes:
        with use_dtype(dtype), use_backend("fast"):
            graph = context.variant_graph()
            get_cache().clear()
            instrument.reset_counters()
            model = create_model("dgnn", graph, embed_dim=embed_dim,
                                 seed=seed, num_layers=num_layers)
            trainer = Trainer(model, context.split, config, context.candidates)
            history = trainer.fit()
        seconds_per_epoch = history.mean_train_seconds()
        sweep[dtype] = {
            "seconds_per_epoch": seconds_per_epoch,
            "epochs_per_sec": (1.0 / seconds_per_epoch
                               if seconds_per_epoch > 0 else 0.0),
            "best_hr": max((m.get("hr@10", 0.0) for m in history.metrics),
                           default=0.0),
            "peak_rss_mb": _peak_rss_mb(),
        }
    sweep["host_env"] = _host_env()
    return sweep


def run_minibatch_bench(
        preset: str = "medium",
        epochs: int = 2,
        batches_per_epoch: Optional[int] = 4,
        batch_size: int = 512,
        embed_dim: int = 16,
        num_layers: int = 2,
        fanouts: Sequence[int] = (5, 10, 20),
        hops: Optional[int] = None,
        expand_repeats: int = 3,
        seed: int = 0,
        context: Optional[ExperimentContext] = None,
) -> Dict[str, Dict[str, float]]:
    """Full-graph vs sampled-minibatch DGNN training throughput.

    The identical workload (fast backend, same seeds, same triple
    stream) trains once with ``propagation="full"`` and once per fan-out
    with ``propagation="minibatch"`` (prefetch on), recording per-epoch
    throughput plus the sample/compute time split that shows how much of
    the subgraph-build cost the prefetch worker hides.  A final
    micro-benchmark times the vectorized :func:`expand_neighborhood`
    against its per-node loop oracle on one real training batch.
    """
    from repro.data.sampling import BprSampler
    from repro.graph.sampling import (
        expand_neighborhood,
        expand_neighborhood_loop,
    )

    if context is None:
        context = ExperimentContext.build(preset, seed=seed, num_negatives=50)

    def _train(**overrides) -> Dict[str, float]:
        graph = context.variant_graph()
        get_cache().clear()
        instrument.reset_counters()
        config = default_train_config(
            epochs=epochs, batch_size=batch_size,
            batches_per_epoch=batches_per_epoch, eval_every=max(epochs, 1),
            patience=None, seed=seed, **overrides)
        with use_backend("fast"):
            model = create_model("dgnn", graph, embed_dim=embed_dim,
                                 seed=seed, num_layers=num_layers)
            trainer = Trainer(model, context.split, config, context.candidates)
            history = trainer.fit()
        seconds_per_epoch = history.mean_train_seconds()
        return {
            "seconds_per_epoch": seconds_per_epoch,
            "epochs_per_sec": (1.0 / seconds_per_epoch
                               if seconds_per_epoch > 0 else 0.0),
            "sample_seconds_per_epoch": history.mean_sample_seconds(),
            "compute_seconds_per_epoch": history.mean_compute_seconds(),
        }

    section: Dict[str, Dict[str, float]] = {"full": _train()}
    full_seconds = section["full"]["seconds_per_epoch"]
    for fanout in fanouts:
        stats = _train(propagation="minibatch", hops=hops, fanout=int(fanout))
        stats["speedup_over_full"] = (
            full_seconds / stats["seconds_per_epoch"]
            if stats["seconds_per_epoch"] > 0 else float("inf"))
        section[f"fanout_{int(fanout)}"] = stats

    sampler = BprSampler(context.split, batch_size=batch_size, seed=seed)
    users, positives, negatives = sampler.sample()
    items = np.concatenate([positives, negatives])
    # The tightest fan-out stresses the per-node subsampling, which is
    # where the loop oracle pays a per-node rng.choice.
    expand_fanout = int(min(fanouts)) if fanouts else 10
    timings: Dict[str, float] = {}
    for name, expand in (("fast", expand_neighborhood),
                         ("loop", expand_neighborhood_loop)):
        best = float("inf")
        for _ in range(max(1, expand_repeats)):
            start = time.perf_counter()
            expand(context.graph, users, items, hops=2,
                   fanout=expand_fanout, seed=seed)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    section["expand"] = {
        "fast_seconds": timings["fast"],
        "loop_seconds": timings["loop"],
        "speedup": (timings["loop"] / timings["fast"]
                    if timings["fast"] > 0 else float("inf")),
    }
    section["peak_rss_mb"] = {"value": _peak_rss_mb()}
    section["host_env"] = _host_env()
    return section


def run_optimizer_bench(
        preset: str = "medium",
        epochs: int = 2,
        batches_per_epoch: Optional[int] = 12,
        batch_size: int = 32,
        embed_dim: int = 64,
        num_layers: int = 1,
        fanout: int = 5,
        repeats: int = 3,
        row_fractions: Sequence[float] = (0.01, 0.05, 0.25, 1.0),
        step_repeats: int = 20,
        seed: int = 0,
        context: Optional[ExperimentContext] = None,
) -> Dict[str, Dict[str, float]]:
    """Dense vs lazy (row-sparse) optimizer updates — sweep 6.

    Two measurements:

    * **Training A/B** — the identical LightGCN minibatch workload (fast
      backend, same seeds, same triple stream, prefetch off) trains once
      with dense gradients and once with the row-sparse path
      (``sparse_grads=True``, lazy Adam).  The defaults put the run in
      the optimizer-bound regime the sweep exists to measure: a small
      batch whose 1-hop closure touches a few percent of the embedding
      tables, so the dense arm's per-step cost is dominated by the
      O(N·d) scatter + clip + Adam update that lazy replaces with
      O(touched·d).  Per arm the best epoch time over ``repeats``
      interleaved trainings is kept (single-host timer noise).
    * **Step-rate micro-benchmark** — one Adam step on an ``(N, d)``
      table (``N`` = the preset's user+item count) at several
      touched-row fractions, timing the full per-step gradient cost of
      each path: dense scatter + dense clip + dense update vs
      ``RowSparseGrad`` build + sparse clip + lazy update.
    """
    from repro.autograd.sparse import RowSparseGrad
    from repro.nn.module import Parameter
    from repro.nn.optim import Adam, clip_grad_norm

    if context is None:
        context = ExperimentContext.build(preset, seed=seed, num_negatives=50)

    def _train(sparse: bool) -> Dict[str, float]:
        graph = context.variant_graph()
        get_cache().clear()
        config = default_train_config(
            epochs=epochs, batch_size=batch_size,
            batches_per_epoch=batches_per_epoch, eval_every=max(epochs, 1),
            patience=None, seed=seed, prefetch=False,
            propagation="minibatch", fanout=fanout, sparse_grads=sparse)
        with use_backend("fast"):
            model = create_model("lightgcn", graph, embed_dim=embed_dim,
                                 seed=seed, num_layers=num_layers)
            trainer = Trainer(model, context.split, config, context.candidates)
            history = trainer.fit()
        return {
            "seconds_per_epoch": min(history.train_seconds),
            "touched_row_fraction": history.mean_touched_row_fraction(),
        }

    # Interleave the arms so drift on a shared host hits both equally.
    best: Dict[str, Dict[str, float]] = {}
    for _ in range(max(1, repeats)):
        for name, sparse in (("training_dense", False), ("training_lazy", True)):
            stats = _train(sparse)
            if (name not in best
                    or stats["seconds_per_epoch"]
                    < best[name]["seconds_per_epoch"]):
                best[name] = stats
    section: Dict[str, Dict[str, float]] = {}
    for name, stats in best.items():
        seconds = stats["seconds_per_epoch"]
        section[name] = {
            "seconds_per_epoch": seconds,
            "epochs_per_sec": 1.0 / seconds if seconds > 0 else 0.0,
            "touched_row_fraction": stats["touched_row_fraction"],
        }
    dense_seconds = section["training_dense"]["seconds_per_epoch"]
    lazy_seconds = section["training_lazy"]["seconds_per_epoch"]
    section["training_lazy"]["speedup_over_dense"] = (
        dense_seconds / lazy_seconds if lazy_seconds > 0 else float("inf"))

    num_rows = context.dataset.num_users + context.dataset.num_items
    rng = np.random.default_rng(seed)
    for fraction in row_fractions:
        k = max(1, int(round(num_rows * float(fraction))))
        k = min(k, num_rows)
        rows = np.sort(rng.choice(num_rows, size=k, replace=False))
        values = rng.standard_normal((k, embed_dim))

        def _steps_per_sec(lazy: bool) -> float:
            param = Parameter(rng.standard_normal((num_rows, embed_dim)))
            optim = Adam([param], lr=0.01)
            best_step = float("inf")
            for _ in range(max(1, step_repeats)):
                start = time.perf_counter()
                if lazy:
                    param.grad = RowSparseGrad(rows, values.copy(), num_rows,
                                               coalesced=True)
                else:
                    dense = np.zeros((num_rows, embed_dim))
                    np.add.at(dense, rows, values)
                    param.grad = dense
                clip_grad_norm([param], 5.0)
                optim.step()
                best_step = min(best_step, time.perf_counter() - start)
            return 1.0 / best_step if best_step > 0 else 0.0

        dense_rate = _steps_per_sec(lazy=False)
        lazy_rate = _steps_per_sec(lazy=True)
        section[f"rows_{fraction:g}"] = {
            "rows": float(k),
            "dense_steps_per_sec": dense_rate,
            "lazy_steps_per_sec": lazy_rate,
            "speedup": (lazy_rate / dense_rate if dense_rate > 0
                        else float("inf")),
        }
    section["peak_rss_mb"] = {"value": _peak_rss_mb()}
    section["host_env"] = _host_env()
    return section


def _memory_workload(cfg: Dict) -> Dict[str, object]:
    """The sweep-7 training workload, run inside one arm's subprocess.

    At the standard presets: a big-embedding LightGCN full-propagation
    training run — dense gradients against the whole table put the
    array footprint (parameters, Adam moments, activations, gradient
    buffers) well above the interpreter baseline, which is what makes
    the peak-RSS A/B meaningful.  At ``xlarge``: the 1M+ node end-to-end
    leg — chunked generation, vectorized last-item holdout, sampled
    minibatch propagation with row-sparse gradients.
    """
    from repro.data.sampling import build_eval_candidates
    from repro.data.split import leave_last_out, leave_one_out
    from repro.data.synthetic import PRESETS
    from repro.graph.hetero import CollaborativeHeteroGraph
    from repro.train.config import TrainConfig

    preset = cfg["preset"]
    seed = int(cfg.get("seed", 0))
    epochs = int(cfg.get("epochs", 2))
    arena = bool(cfg.get("arena", True))
    dataset = PRESETS[preset](seed)
    if preset == "xlarge":
        split = leave_last_out(dataset, max_test_users=2000, seed=seed)
        config = TrainConfig(
            epochs=epochs, batch_size=int(cfg.get("batch_size", 1024)),
            batches_per_epoch=int(cfg.get("batches_per_epoch", 8)),
            propagation="minibatch", fanout=10, prefetch=False,
            arena=arena, eval_every=max(epochs, 1), patience=None,
            seed=seed)
    else:
        split = leave_one_out(dataset, seed=seed)
        config = TrainConfig(
            epochs=epochs, batch_size=int(cfg.get("batch_size", 2048)),
            batches_per_epoch=int(cfg.get("batches_per_epoch", 6)),
            propagation="full", arena=arena, eval_every=max(epochs, 1),
            patience=None, seed=seed)
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    candidates = build_eval_candidates(split, num_negatives=50, seed=seed)
    with use_backend("fast"):
        model = create_model("lightgcn", graph,
                             embed_dim=int(cfg.get("embed_dim", 256)),
                             seed=seed,
                             num_layers=int(cfg.get("num_layers", 2)))
        trainer = Trainer(model, split, config, candidates)
        history = trainer.fit()
    seconds_per_epoch = history.mean_train_seconds()
    return {
        "losses": [float(l) for l in history.losses],
        "seconds_per_epoch": seconds_per_epoch,
        "epochs_per_sec": (1.0 / seconds_per_epoch
                           if seconds_per_epoch > 0 else 0.0),
        "num_nodes": int(dataset.num_users + dataset.num_items
                         + dataset.num_relations),
        "num_interactions": int(len(dataset.interactions)),
        "dtype": get_dtype().name,
        "index_dtype": get_index_dtype().name,
        "arena": "1" if arena else "0",
        "peak_rss_mb": _peak_rss_mb(),
    }


def _memory_child() -> None:  # pragma: no cover - exercised via subprocess
    """Subprocess entry point: read config from env, write result JSON."""
    cfg = json.loads(os.environ["REPRO_MEMBENCH_CONFIG"])
    result = _memory_workload(cfg)
    Path(cfg["output"]).write_text(json.dumps(result))


def _run_memory_arm(cfg: Dict, arm: Dict[str, object],
                    timeout: float) -> Dict[str, object]:
    """Run one sweep-7 arm in a fresh subprocess and return its report.

    A child process per arm is what makes ``ru_maxrss`` usable: the
    counter is a monotonic per-process high-water mark, so arms sharing
    a process would all report the largest one's footprint.
    """
    import repro

    with tempfile.TemporaryDirectory(prefix="repro-membench-") as tmpdir:
        output = Path(tmpdir) / "result.json"
        env = dict(os.environ)
        env.update(arm["env"])
        env["REPRO_MEMBENCH_CONFIG"] = json.dumps(
            {**cfg, "arena": arm["arena"], "output": str(output)})
        package_root = str(Path(repro.__file__).resolve().parents[1])
        previous = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not previous
                             else os.pathsep.join([package_root, previous]))
        subprocess.run(
            [sys.executable, "-c",
             "from repro.experiments.engine_bench import _memory_child; "
             "_memory_child()"],
            env=env, check=True, timeout=timeout)
        return json.loads(output.read_text())


def run_memory_bench(
        preset: str = "large",
        epochs: int = 2,
        batches_per_epoch: int = 6,
        batch_size: int = 2048,
        embed_dim: int = 256,
        num_layers: int = 2,
        seed: int = 0,
        timeout: float = 3600.0) -> Dict[str, object]:
    """Sweep 7 — peak RSS of the production path vs the parity oracle.

    At the standard presets both arms run the identical workload in
    separate subprocesses — ``production`` (``float32`` values,
    ``int32`` indices, buffer arena on) and ``oracle`` (``float64``,
    ``int64``, allocate-fresh) — and the section records the fractional
    peak-RSS reduction plus training-loss-trajectory parity under the
    float32 tolerances of :mod:`repro.engine.precision`.  At ``xlarge``
    only the production arm runs (the end-to-end 1M+ node leg).
    """
    cfg = {"preset": preset, "epochs": epochs,
           "batches_per_epoch": batches_per_epoch, "batch_size": batch_size,
           "embed_dim": embed_dim, "num_layers": num_layers, "seed": seed}
    if preset == "xlarge":
        cfg.update(embed_dim=32, num_layers=2, batch_size=1024,
                   batches_per_epoch=8)
        arms = {"production": _MEMORY_ARMS["production"]}
    else:
        arms = _MEMORY_ARMS
    section: Dict[str, object] = {}
    for name, arm in arms.items():
        section[name] = _run_memory_arm(cfg, arm, timeout)
    production = section.get("production")
    oracle = section.get("oracle")
    if isinstance(production, dict) and isinstance(oracle, dict):
        oracle_rss = float(oracle.get("peak_rss_mb", 0.0))
        production_rss = float(production.get("peak_rss_mb", 0.0))
        section["rss_reduction_vs_oracle"] = (
            1.0 - production_rss / oracle_rss if oracle_rss > 0 else 0.0)
        prod_losses = np.asarray(production.get("losses", []), dtype=np.float64)
        oracle_losses = np.asarray(oracle.get("losses", []), dtype=np.float64)
        tol = tolerances(np.float32)
        if len(prod_losses) == len(oracle_losses) and len(prod_losses):
            rel = np.abs(prod_losses - oracle_losses) / np.maximum(
                np.abs(oracle_losses), 1.0)
            max_rel = float(rel.max())
        else:
            max_rel = float("inf")
        section["max_rel_loss_diff"] = max_rel
        section["loss_parity_ok"] = bool(max_rel <= tol.grad_rtol)
    section["host_env"] = _host_env()
    return section


def _host_cpus() -> int:
    """Usable CPU count (affinity-aware): context for timing-based gates."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _host_env() -> Dict[str, object]:
    """Recording-host context stamped into every sweep section.

    Timing numbers only mean something next to the host that produced
    them: CPU budget, the BLAS/OMP thread caps in force, and the
    numpy/scipy builds doing the work.  Thread variables report their
    raw environment value (``None`` = unset, library default).
    """
    import platform

    import scipy

    return {
        "host_cpus": _host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mkl_num_threads": os.environ.get("MKL_NUM_THREADS"),
    }


def _host_l3_mb() -> Optional[float]:
    """Size of the host's last-level cache in MiB (``None`` if unknown).

    The locality floor in ``check_regression.py`` only binds when a
    sweep's embedding working set exceeds this — on hosts whose LLC
    swallows the whole preset, every node ordering is equally hot and
    the reordering claim has nothing to say.
    """
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best_level, best_bytes = -1, None
    try:
        for entry in base.glob("index*"):
            try:
                level = int((entry / "level").read_text())
                text = (entry / "size").read_text().strip().upper()
            except (OSError, ValueError):
                continue
            units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
            scale = units.get(text[-1:], 1)
            digits = text[:-1] if text[-1:] in units else text
            if not digits.isdigit():
                continue
            if level > best_level:
                best_level, best_bytes = level, int(digits) * scale
    except OSError:  # pragma: no cover - sysfs unavailable
        return None
    if best_bytes is None:
        return None
    return best_bytes / 2 ** 20


def _pss_mb(pid: int) -> float:
    """Proportional set size of one process in MiB (0.0 if unreadable).

    PSS divides each shared page's cost among the processes mapping it,
    so summing PSS over a worker fleet counts the shared embedding
    tables **once** — exactly the accounting the shared-memory claim
    needs (plain RSS charges every worker the full table and would grow
    linearly no matter what).
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):  # pragma: no cover - races / non-Linux
        return 0.0
    return 0.0


class _PssSampler:
    """Background sampler of the training fleet's total PSS high-water."""

    def __init__(self, pids_fn, interval: float = 0.05):
        import threading

        self._pids_fn = pids_fn
        self._interval = interval
        self._stop = threading.Event()
        self.peak_mb = 0.0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-pss-sampler")

    def _run(self) -> None:
        while not self._stop.is_set():
            total = _pss_mb(os.getpid())
            total += sum(_pss_mb(pid) for pid in self._pids_fn())
            self.peak_mb = max(self.peak_mb, total)
            self._stop.wait(self._interval)

    def __enter__(self) -> "_PssSampler":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _parallel_workload(cfg: Dict) -> Dict[str, object]:
    """One sweep-9 arm, run inside its own subprocess.

    Trains LightGCN on the sampled-minibatch path with the requested
    worker count and mode (``workers=0`` is the single-process
    :class:`Trainer` reference), sampling the fleet's total PSS
    throughout, and optionally publishes the trained model as a serving
    snapshot (the end-to-end leg).
    """
    from repro.data.sampling import build_eval_candidates
    from repro.data.split import leave_one_out
    from repro.data.synthetic import PRESETS
    from repro.graph.hetero import CollaborativeHeteroGraph
    from repro.train import ParallelTrainer, Trainer, TrainConfig

    preset = cfg["preset"]
    seed = int(cfg.get("seed", 0))
    epochs = int(cfg.get("epochs", 2))
    arena = bool(cfg.get("arena", True))
    workers = int(cfg.get("workers", 1))
    dataset = PRESETS[preset](seed)
    split = leave_one_out(dataset, seed=seed)
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    candidates = build_eval_candidates(split, num_negatives=50, seed=seed)
    config = TrainConfig(
        epochs=epochs, batch_size=int(cfg.get("batch_size", 512)),
        batches_per_epoch=int(cfg.get("batches_per_epoch", 4)),
        propagation="minibatch", fanout=int(cfg.get("fanout", 10)),
        workers=workers, parallel_mode=str(cfg.get("mode", "hogwild")),
        eval_every=max(epochs, 1), patience=None, seed=seed)
    with use_backend("fast"):
        model = create_model("lightgcn", graph,
                             embed_dim=int(cfg.get("embed_dim", 32)),
                             seed=seed,
                             num_layers=int(cfg.get("num_layers", 2)))
        if workers > 0:
            trainer = ParallelTrainer(model, split, config, candidates)
            pids_fn = trainer.worker_pids
        else:
            trainer = Trainer(model, split, config, candidates)
            pids_fn = list
        with _PssSampler(pids_fn) as sampler:
            history = trainer.fit()
    seconds_per_epoch = history.mean_train_seconds()
    result: Dict[str, object] = {
        "workers": workers,
        "losses": [float(l) for l in history.losses],
        "seconds_per_epoch": seconds_per_epoch,
        "epochs_per_sec": (1.0 / seconds_per_epoch
                           if seconds_per_epoch > 0 else 0.0),
        "peak_pss_mb": sampler.peak_mb,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if cfg.get("publish"):
        from repro.serve.snapshot import EmbeddingSnapshot, SnapshotStore

        with tempfile.TemporaryDirectory(prefix="repro-parbench-") as tmpdir:
            start = time.perf_counter()
            snapshot = EmbeddingSnapshot.from_model(model, split)
            version = SnapshotStore(Path(tmpdir) / "store").publish(snapshot)
            result["snapshot"] = {
                "published_version": str(version),
                "publish_seconds": time.perf_counter() - start,
                "num_users": int(snapshot.num_users),
                "num_items": int(snapshot.num_items),
            }
    return result


def _parallel_child() -> None:  # pragma: no cover - exercised via subprocess
    """Subprocess entry point: read config from env, write result JSON."""
    cfg = json.loads(os.environ["REPRO_PARBENCH_CONFIG"])
    result = _parallel_workload(cfg)
    Path(cfg["output"]).write_text(json.dumps(result))


def _run_parallel_arm(cfg: Dict, timeout: float) -> Dict[str, object]:
    """Run one sweep-9 arm in a fresh subprocess and return its report.

    Isolation serves the memory claim: the arm's PSS baseline is a
    fresh interpreter, not whatever the earlier sweeps left resident,
    so arms at different worker counts are directly comparable.
    """
    import repro

    with tempfile.TemporaryDirectory(prefix="repro-parbench-") as tmpdir:
        output = Path(tmpdir) / "result.json"
        env = dict(os.environ)
        env["REPRO_ENGINE_DTYPE"] = cfg.get("dtype", PRODUCTION_DTYPE)
        env["REPRO_PARBENCH_CONFIG"] = json.dumps({**cfg,
                                                   "output": str(output)})
        package_root = str(Path(repro.__file__).resolve().parents[1])
        previous = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not previous
                             else os.pathsep.join([package_root, previous]))
        subprocess.run(
            [sys.executable, "-c",
             "from repro.experiments.engine_bench import _parallel_child; "
             "_parallel_child()"],
            env=env, check=True, timeout=timeout)
        return json.loads(output.read_text())


def run_parallel_bench(
        preset: str = "large",
        epochs: int = 2,
        batches_per_epoch: int = 4,
        batch_size: int = 512,
        embed_dim: int = 32,
        num_layers: int = 2,
        fanout: int = 10,
        modes: Sequence[str] = ("hogwild", "sync"),
        worker_counts: Sequence[int] = (1, 2),
        seed: int = 0,
        dtype: str = PRODUCTION_DTYPE,
        timeout: float = 3600.0) -> Dict[str, object]:
    """Sweep 9 — epoch rate and memory vs worker count, per update mode.

    Each (mode, workers) arm trains the identical minibatch workload in
    its own subprocess; a single-process :class:`Trainer` arm is the
    absolute reference.  Per arm the section records epochs/sec and the
    fleet's peak total **PSS** — proportional set size counts the
    shared embedding tables once across the fleet, which is what proves
    the workers share one copy (``pss_growth_at_max_workers`` staying
    far below the worker count is the shared-memory signature;
    per-process RSS would multiple-count shared pages).

    Speedup claims are only meaningful with real cores to run on, so
    the section records ``host_cpus`` and ``check_regression.py``
    enforces the ≥2x-at-4-workers floor only on hosts with at least
    four usable CPUs — the memory floor binds everywhere.
    """
    base_cfg = {"preset": preset, "epochs": epochs,
                "batches_per_epoch": batches_per_epoch,
                "batch_size": batch_size, "embed_dim": embed_dim,
                "num_layers": num_layers, "fanout": fanout, "seed": seed,
                "dtype": dtype}
    worker_counts = sorted(set(int(w) for w in worker_counts))
    max_workers = worker_counts[-1]
    section: Dict[str, object] = {
        "host_cpus": _host_cpus(),
        "max_workers": max_workers,
        "production_dtype": dtype,
    }
    single = _run_parallel_arm({**base_cfg, "workers": 0}, timeout)
    section["single_process"] = single
    best_speedup = 0.0
    worst_growth = 0.0
    for mode in modes:
        mode_section: Dict[str, object] = {}
        base_arm: Optional[Dict[str, object]] = None
        for workers in worker_counts:
            publish = mode == modes[-1] and workers == max_workers
            arm = _run_parallel_arm(
                {**base_cfg, "workers": workers, "mode": mode,
                 "publish": publish}, timeout)
            if base_arm is None:
                base_arm = arm
            base_rate = float(base_arm.get("epochs_per_sec", 0.0))
            base_pss = float(base_arm.get("peak_pss_mb", 0.0))
            arm["speedup_over_1"] = (float(arm["epochs_per_sec"]) / base_rate
                                     if base_rate > 0 else 0.0)
            arm["pss_growth_over_1"] = (float(arm["peak_pss_mb"]) / base_pss
                                        if base_pss > 0 else 0.0)
            mode_section[f"workers_{workers}"] = arm
        section[mode] = mode_section
        top = mode_section.get(f"workers_{max_workers}", {})
        best_speedup = max(best_speedup,
                           float(top.get("speedup_over_1", 0.0)))
        worst_growth = max(worst_growth,
                           float(top.get("pss_growth_over_1", 0.0)))
    section["best_speedup_at_max_workers"] = best_speedup
    section["pss_growth_at_max_workers"] = worst_growth
    section["peak_rss_mb"] = _peak_rss_mb()
    section["host_env"] = _host_env()
    return section


# Sweep-9 overrides per preset: the large arm uses wide tables and a
# worker ladder reaching the acceptance point (4 workers); the modest
# batch/fanout keeps each worker's private subgraph-closure temporaries
# from drowning the shared footprint the sweep is measuring.
_PARALLEL_TUNED = {
    "large": dict(embed_dim=256, batch_size=512, batches_per_epoch=8,
                  fanout=5, worker_counts=(1, 2, 4)),
}

# Sweep-10 overrides per preset.  At ``large``, 512-dim tables put the
# composite working set (~70 MB) past the L3 of most commodity hosts,
# where the reordered+blocked floor binds; on recording hosts whose LLC
# swallows it the section records that fact (``working_set_mb`` vs
# ``host_l3_mb``) and check_regression skips the floor — every arm ties
# inside a cache, and the sweep says so rather than manufacturing a
# separation.  The DRAM-bound acceptance run lives at ``xlarge``
# (timing-only, ~1 GB working set).  Other presets fall back to a cheap
# smoke shape chosen at the call site.
_LOCALITY_TUNED = {
    "large": dict(embed_dim=512, repeats=5),
}


class _FixedEmbeddings:
    """A minimal model stand-in: frozen tables + the graph they index.

    The locality sweep's serving and top-k legs need *corresponding*
    model state across arms — the same per-node vectors under every
    relabeling — which training from scratch per arm cannot give (the
    initializer streams rows in internal order).  Freezing one
    original-id table set and permuting its rows into each arm's layout
    isolates exactly the property under test: id layout, nothing else.
    """

    def __init__(self, user_emb: np.ndarray, item_emb: np.ndarray, graph):
        self._user_emb = user_emb
        self._item_emb = item_emb
        self.graph = graph
        self.name = "fixed-embeddings"

    def final_embeddings(self):
        return self._user_emb, self._item_emb


def _propagation_pass(backend, graph, user_emb: np.ndarray,
                      item_emb: np.ndarray, num_layers: int,
                      buffers) -> "tuple":
    """One composite heterogeneous propagation pass (the sweep workload).

    Per layer: social joint × users + interaction joint × items feed the
    next user table, and the transposed interaction joint × users feeds
    the next item table — the three spmm shapes every layered model in
    the repository streams.  The user-side sum is fused: the social
    product lands in a user buffer and the interaction product
    accumulates into it (``spmm(..., accumulate=True)``), which skips a
    zeroing pass, a separate elementwise add, and a fresh allocation
    per layer.  The two user buffers ping-pong across layers so the
    write target never aliases the user table the same layer reads.
    """
    social = graph.user_social_joint
    user_item = graph.user_item_joint
    item_user = graph.item_user_joint
    user_buf_a, user_buf_b, item_buf = buffers
    users, items = user_emb, item_emb
    for _ in range(num_layers):
        target = user_buf_b if users is user_buf_a else user_buf_a
        next_users = backend.spmm(social, users, out=target)
        backend.spmm(user_item, items, out=target, accumulate=True)
        items = backend.spmm(item_user, users, out=item_buf)
        users = next_users
    return users, items


def run_locality_bench(
        preset: str = "large",
        embed_dim: int = 256,
        num_layers: int = 2,
        strategies: Sequence[str] = ("identity", "degree", "rcm"),
        kernels: Sequence[str] = ("flat", "blocked"),
        repeats: int = 7,
        epochs: int = 2,
        batches_per_epoch: int = 2,
        batch_size: int = 1024,
        num_queries: int = 2048,
        serve_block_size: int = 512,
        k: int = 20,
        check_users: int = 64,
        seed: int = 0,
        timing_only: Optional[bool] = None) -> Dict[str, object]:
    """Sweep 10 — node reordering × blocked-vs-flat spmm (cache locality).

    Every (strategy, kernel) arm measures the same three things on the
    same underlying data:

    * **propagation throughput** — best-of-``repeats`` wall time of an
      ``num_layers``-layer composite pass over the real normalized
      joints (social × users, interactions × items accumulated into
      the same user buffer, interactionsᵀ × users), the hot loop every
      layered model runs per batch.  The recorded speedup-over-flat is
      the *median of paired per-round ratios* (all arms run
      interleaved, so each round's ratio cancels host drift);
    * **end-to-end epoch rate** — a short full-propagation LightGCN
      training run with ``TrainConfig.spmm_block`` matching the arm;
    * **serving throughput** — the arm's snapshot (published through
      the :class:`~repro.graph.reorder.NodePermutation` boundary, so
      it is byte-identical across arms) driving exact batched
      ``recommend`` requests.

    In-bench invariants: every blocked arm's propagation output is
    **bitwise identical** to its flat sibling, and every arm's top-k id
    sets (mapped back to original ids) equal the identity arm's.  The
    ``best`` summary reports the strongest reordered+blocked arm's
    propagation speedup over the flat identity oracle — the number
    ``check_regression.py`` holds to per-preset floors (1.25x at
    ``large``, 1.10x at ``xlarge``) whenever the recorded
    ``working_set_mb`` exceeds the recording host's ``host_l3_mb``
    (cache-resident runs record the tie and skip the floor).  At
    ``xlarge`` the sweep is timing-only: propagation arms only, no
    training or serving legs.
    """
    from repro.data.sampling import build_eval_candidates
    from repro.data.split import leave_last_out, leave_one_out
    from repro.data.synthetic import PRESETS
    from repro.engine import arena, get_backend
    from repro.engine.locality import clear_block_cache, use_spmm_block
    from repro.engine.precision import get_dtype
    from repro.eval.full_ranking import full_ranking_topk
    from repro.graph.hetero import CollaborativeHeteroGraph
    from repro.graph.reorder import build_permutation
    from repro.serve import EmbeddingSnapshot, RecommendService
    from repro.train.config import TrainConfig

    if timing_only is None:
        timing_only = preset == "xlarge"
    dataset = PRESETS[preset](seed)
    if preset == "xlarge":
        base_split = leave_last_out(dataset, max_test_users=2000, seed=seed)
    else:
        base_split = leave_one_out(dataset, seed=seed)
    dtype = np.dtype(get_dtype())
    rng = np.random.default_rng(seed)
    orig_users = rng.standard_normal(
        (dataset.num_users, embed_dim)).astype(dtype)
    orig_items = rng.standard_normal(
        (dataset.num_items, embed_dim)).astype(dtype)
    query_rng = np.random.default_rng(seed + 1)
    queries = query_rng.integers(0, dataset.num_users, size=num_queries,
                                 dtype=np.int64)
    check_ids = query_rng.choice(dataset.num_users,
                                 size=min(check_users, dataset.num_users),
                                 replace=False).astype(np.int64)

    # The dense traffic one composite pass streams: the two embedding
    # tables plus the three propagation buffers (two user-shaped, one
    # item-shaped).  check_regression.py compares this against
    # host_l3_mb to decide whether the speedup floor binds — reordering
    # only pays once these tables spill out of the last cache level.
    row_bytes = embed_dim * dtype.itemsize
    working_set_mb = ((3 * dataset.num_users + 2 * dataset.num_items)
                      * row_bytes) / 2 ** 20
    section: Dict[str, object] = {
        "embed_dim": int(embed_dim),
        "num_layers": int(num_layers),
        "repeats": int(repeats),
        "timing_only": bool(timing_only),
        "dtype": dtype.name,
        "working_set_mb": working_set_mb,
        "host_l3_mb": _host_l3_mb(),
        "arms": {},
    }
    reference_topk: Optional[np.ndarray] = None
    flat_reference: Dict[str, object] = {}

    with use_backend("fast"):
        backend = get_backend()
        contexts: List[Dict[str, object]] = []
        for strategy in strategies:
            start = time.perf_counter()
            permutation = build_permutation(dataset, strategy,
                                            train_pairs=base_split.train_pairs)
            split = (base_split if permutation.is_identity
                     else permutation.permute_split(base_split))
            reorder_seconds = time.perf_counter() - start
            graph = CollaborativeHeteroGraph(split.dataset, split.train_pairs)
            get_cache().clear()
            user_emb = permutation.permute_user_rows(orig_users)
            item_emb = permutation.permute_item_rows(orig_items)
            buffers = (np.empty_like(user_emb), np.empty_like(user_emb),
                       np.empty_like(item_emb))
            # Normalize the joints outside the timed region — adjacency
            # normalization is a one-time cost every arm shares (the
            # joints live on the graph via cached_property, so they
            # survive for the interleaved timing rounds below).
            _propagation_pass(backend, graph, user_emb, item_emb, 1, buffers)

            fixed = _FixedEmbeddings(user_emb, item_emb, graph)
            arm_topk: Optional[np.ndarray] = None
            topk_matches: Optional[bool] = None
            if not timing_only:
                arm_topk = full_ranking_topk(fixed, split, users=check_ids,
                                             top_n=10,
                                             permutation=permutation)
                if reference_topk is None:
                    reference_topk = arm_topk
                    topk_matches = True
                else:
                    topk_matches = all(
                        set(row) == set(ref) for row, ref
                        in zip(arm_topk, reference_topk))
            contexts.append(dict(
                strategy=strategy, permutation=permutation, split=split,
                graph=graph, user_emb=user_emb, item_emb=item_emb,
                buffers=buffers, fixed=fixed,
                reorder_seconds=reorder_seconds, topk_matches=topk_matches))

        # First pass per arm, strategy-major: builds each blocked arm's
        # block decompositions (kept cached for the timing rounds) and
        # captures the outputs for the bitwise cross-check.
        clear_block_cache()
        arm_states: Dict[Tuple[str, str], Dict[str, object]] = {}
        for ctx in contexts:
            for kernel in kernels:
                with use_spmm_block("auto" if kernel == "blocked" else 0):
                    start = time.perf_counter()
                    final = _propagation_pass(
                        backend, ctx["graph"], ctx["user_emb"],
                        ctx["item_emb"], num_layers, ctx["buffers"])
                    first_pass_seconds = time.perf_counter() - start
                arm_states[(ctx["strategy"], kernel)] = dict(
                    ctx=ctx, kernel=kernel,
                    final=(final[0].copy(), final[1].copy()),
                    first_pass_seconds=first_pass_seconds,
                    best=first_pass_seconds, counters={})

        # Timing rounds are interleaved across ALL arms: every arm sees
        # the same slice of whatever slow drift the host is under
        # (clock, page placement, competing load), so the per-arm
        # best-of ratios measure layout, not measurement order.
        for _ in range(max(1, repeats)):
            for state in arm_states.values():
                ctx = state["ctx"]
                with use_spmm_block(
                        "auto" if state["kernel"] == "blocked" else 0):
                    before = instrument.snapshot()
                    start = time.perf_counter()
                    _propagation_pass(backend, ctx["graph"], ctx["user_emb"],
                                      ctx["item_emb"], num_layers,
                                      ctx["buffers"])
                    elapsed = time.perf_counter() - start
                    after = instrument.snapshot()
                state["best"] = min(state["best"], elapsed)
                state.setdefault("rounds", []).append(elapsed)
                for key, value in instrument.delta(before, after).items():
                    state["counters"][key] = (
                        state["counters"].get(key, 0.0) + value)

        for (strategy, kernel), state in arm_states.items():
            ctx = state["ctx"]
            permutation = ctx["permutation"]
            split = ctx["split"]
            fixed = ctx["fixed"]
            best = state["best"]
            spmm_roofline = instrument.roofline(
                state["counters"]).get("spmm", {})
            stats: Dict[str, object] = {
                "strategy": strategy,
                "kernel": kernel,
                "reorder_seconds": ctx["reorder_seconds"],
                "propagation_seconds": best,
                "propagation_per_sec": 1.0 / best if best > 0 else 0.0,
                "round_seconds": [round(value, 6)
                                  for value in state.get("rounds", [])],
                "first_pass_seconds": state["first_pass_seconds"],
                "spmm_gflops_per_sec": spmm_roofline.get(
                    "gflops_per_sec", 0.0),
                "spmm_gbytes_per_sec": spmm_roofline.get(
                    "gbytes_per_sec", 0.0),
                "spmm_flops_per_byte": spmm_roofline.get(
                    "flops_per_byte", 0.0),
            }
            final = state["final"]
            if kernel == "flat":
                flat_reference[strategy] = final
            else:
                reference = flat_reference.get(strategy)
                stats["blocked_bitwise_ok"] = bool(
                    reference is not None
                    and np.array_equal(final[0], reference[0])
                    and np.array_equal(final[1], reference[1]))
            if ctx["topk_matches"] is not None:
                stats["topk_matches_identity"] = bool(ctx["topk_matches"])

            if not timing_only:
                config = TrainConfig(
                    epochs=epochs, batch_size=batch_size,
                    batches_per_epoch=batches_per_epoch,
                    propagation="full", eval_every=max(epochs, 1),
                    patience=None, seed=seed,
                    reorder=strategy,
                    spmm_block=(1 if kernel == "blocked" else 0))
                train_graph = CollaborativeHeteroGraph(split.dataset,
                                                       split.train_pairs)
                get_cache().clear()
                candidates = build_eval_candidates(split,
                                                   num_negatives=50,
                                                   seed=seed)
                model = create_model("lightgcn", train_graph,
                                     embed_dim=embed_dim, seed=seed,
                                     num_layers=num_layers)
                history = Trainer(model, split, config, candidates).fit()
                epoch_seconds = min(history.train_seconds)
                stats["seconds_per_epoch"] = epoch_seconds
                stats["epochs_per_sec"] = (1.0 / epoch_seconds
                                           if epoch_seconds > 0 else 0.0)

                snapshot = EmbeddingSnapshot.from_model(
                    fixed, split, permutation=permutation)
                service = RecommendService(snapshot,
                                           retrieval="exact",
                                           block_size=serve_block_size,
                                           seed=seed)
                blocks = [queries[s:s + serve_block_size]
                          for s in range(0, num_queries, serve_block_size)]
                service.recommend(blocks[0], k)  # warm-up
                block_seconds = []
                with arena.step_scope():
                    for block in blocks:
                        best_block = float("inf")
                        for _ in range(2):
                            start = time.perf_counter()
                            service.recommend(block, k)
                            best_block = min(
                                best_block, time.perf_counter() - start)
                        block_seconds.append(best_block)
                total = float(sum(block_seconds))
                stats["serving_queries_per_sec"] = (
                    num_queries / total if total > 0 else 0.0)
            section["arms"][f"{strategy}_{kernel}"] = stats

    arms = section["arms"]
    oracle = arms.get("identity_flat", {})
    oracle_seconds = float(oracle.get("propagation_seconds", 0.0))
    oracle_rounds = list(oracle.get("round_seconds", []))
    best_arm: Optional[str] = None
    best_speedup = 0.0
    for name, stats in arms.items():
        rounds = list(stats.get("round_seconds", []))
        if oracle_rounds and len(rounds) == len(oracle_rounds):
            # Paired per-round ratio: round r of every arm ran adjacent
            # in time (the interleaved loop above), so dividing within
            # a round cancels whatever slow drift the host was under.
            # The median over rounds is then a drift-robust estimate of
            # the layout effect, where a ratio of independent best-of
            # minima would inherit the worst single-round noise of
            # either side.
            ratios = sorted(o / r for o, r
                            in zip(oracle_rounds, rounds) if r > 0)
            speedup = (float(np.median(ratios)) if ratios else 0.0)
        else:
            seconds = float(stats.get("propagation_seconds", 0.0))
            speedup = oracle_seconds / seconds if seconds > 0 else 0.0
        stats["propagation_speedup_over_flat"] = speedup
        if (stats.get("strategy") != "identity"
                and stats.get("kernel") == "blocked"
                and speedup > best_speedup):
            best_arm, best_speedup = name, speedup
    if best_arm is not None:
        section["best"] = {
            "arm": best_arm,
            "propagation_speedup_over_flat": best_speedup,
        }
    section["peak_rss_mb"] = _peak_rss_mb()
    section["host_env"] = _host_env()
    return section


def merge_preset_section(path: Path, preset: str, name: str,
                         section: Dict[str, object]) -> Path:
    """Write one named section into ``presets[preset]`` of the artifact.

    Unlike :meth:`EngineBenchResults.write_json` — which replaces a
    preset's scalar fields (``epochs``, ``dataset``) wholesale — this
    touches *only* ``presets[preset][name]``, so a single-sweep re-bench
    never disturbs the other committed numbers.
    """
    path = Path(path)
    payload: Dict[str, object] = {"presets": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
        if isinstance(existing.get("presets"), dict):
            payload["presets"] = existing["presets"]
    entry = payload["presets"].setdefault(preset, {"dataset": preset})
    entry[name] = section
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def merge_serving_section(path: Path, preset: str,
                          section: Dict[str, object]) -> Path:
    """Write one preset's ``serving`` section into ``BENCH_engine.json``."""
    return merge_preset_section(path, preset, "serving", section)


# Tuned ANN knobs per preset, found by sweeping (num_cells, nprobe) on
# briefly trained large-preset embeddings: fewer cells than this miss
# the 3x-over-exact floor, more probes than this pay candidate volume
# for recall the gate does not need.  Presets not listed use the
# sqrt(n)-cells defaults.
_SERVING_TUNED = {"large": {"num_cells": 200, "nprobe": 6}}


def _latency_stats(block_seconds: Sequence[float],
                   num_queries: int) -> Dict[str, float]:
    """qps + block-level latency percentiles from per-block wall times."""
    seconds = np.asarray(block_seconds, dtype=np.float64)
    total = float(seconds.sum())
    return {
        "queries_per_sec": num_queries / total if total > 0 else 0.0,
        "p50_ms": float(np.percentile(seconds, 50) * 1e3),
        "p99_ms": float(np.percentile(seconds, 99) * 1e3),
        "total_seconds": total,
    }


def run_serving_bench(
        preset: str = "medium",
        k: int = 20,
        block_size: int = 512,
        num_queries: int = 4096,
        train_epochs: int = 0,
        embed_dim: int = 16,
        num_layers: int = 2,
        nprobe: int = 8,
        num_cells: Optional[int] = None,
        repeats: int = 3,
        seed: int = 0,
        timing_only: Optional[bool] = None,
        context: Optional[ExperimentContext] = None) -> Dict[str, object]:
    """Sweep 8 — the online-serving A/B over one published snapshot.

    One model's final embeddings are published through a
    :class:`repro.serve.SnapshotStore`, reloaded memory-mapped, and
    served through each retrieval mode.  Per arm the same ``num_queries``
    users (drawn uniformly with ``seed``) stream through
    ``recommend(block, k)`` in ``block_size`` blocks under an arena
    step scope, best-of-``repeats`` per block; the section records
    queries/sec, block p50/p99 latency, and — for the IVF arm — the
    index build time, recall@k against the exact arm and the
    exact-fallback row count.  The ``best`` entry summarizes the IVF
    arm for the serving floors in ``check_regression.py``.

    ``train_epochs`` matters for the IVF arm: k-means cells only align
    with user preferences once training has pulled co-consumed items
    together, so the recall floor at ``large`` is
    benched on briefly trained embeddings — the serving-realistic
    setting, since nobody snapshots an untrained model.  At ``xlarge``
    the sweep is timing-only (untrained 1M-node embeddings, recall
    recorded but not gated) and skips training.
    """
    from repro.data.sampling import build_eval_candidates
    from repro.data.split import leave_last_out
    from repro.data.synthetic import PRESETS
    from repro.engine import arena
    from repro.graph.hetero import CollaborativeHeteroGraph
    from repro.serve import EmbeddingSnapshot, RecommendService, SnapshotStore
    from repro.serve.service import topk_recall
    from repro.train.config import TrainConfig

    if timing_only is None:
        timing_only = preset == "xlarge"
    if preset == "xlarge":
        dataset = PRESETS[preset](seed)
        split = leave_last_out(dataset, max_test_users=2000, seed=seed)
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        model = create_model("lightgcn", graph, embed_dim=32, seed=seed,
                             num_layers=num_layers)
    else:
        if context is None:
            context = ExperimentContext.build(preset, seed=seed,
                                              num_negatives=50)
        split = context.split
        graph = context.variant_graph()
        get_cache().clear()
        with use_backend("fast"):
            model = create_model("lightgcn", graph, embed_dim=embed_dim,
                                 seed=seed, num_layers=num_layers)
            if train_epochs > 0:
                config = default_train_config(
                    epochs=train_epochs, batch_size=2048,
                    batches_per_epoch=None, eval_every=max(train_epochs, 1),
                    patience=None, seed=seed)
                candidates = build_eval_candidates(split, num_negatives=50,
                                                   seed=seed)
                Trainer(model, split, config, candidates).fit()

    section: Dict[str, object] = {
        "k": int(k), "block_size": int(block_size),
        "num_queries": int(num_queries), "train_epochs": int(train_epochs),
        "timing_only": bool(timing_only),
    }

    start = time.perf_counter()
    snapshot = EmbeddingSnapshot.from_model(model, split)
    with tempfile.TemporaryDirectory(prefix="repro-servebench-") as tmpdir:
        store = SnapshotStore(tmpdir)
        version = store.publish(snapshot)
        publish_seconds = time.perf_counter() - start
        start = time.perf_counter()
        served = store.load_latest()
        load_seconds = time.perf_counter() - start
        section["snapshot"] = {
            "version": version,
            "publish_seconds": publish_seconds,
            "load_seconds": load_seconds,
            "bytes": float(sum(a.nbytes for a in served.arrays().values())),
            "dtype": served.user_emb.dtype.name,
        }

        rng = np.random.default_rng(seed)
        queries = rng.integers(0, served.num_users, size=num_queries,
                               dtype=np.int64)
        blocks = [queries[s:s + block_size]
                  for s in range(0, num_queries, block_size)]

        arm_kwargs = {
            "exact": {},
            "ivf": {"nprobe": nprobe, "num_cells": num_cells},
        }
        topk: Dict[str, np.ndarray] = {}
        for arm, kwargs in arm_kwargs.items():
            start = time.perf_counter()
            service = RecommendService(served, retrieval=arm,
                                       block_size=block_size, seed=seed,
                                       **kwargs)
            build_seconds = time.perf_counter() - start
            service.recommend(blocks[0], k)  # warm-up: arena + page cache
            block_seconds = []
            results = []
            with arena.step_scope():
                for block in blocks:
                    best = float("inf")
                    for _ in range(max(1, repeats)):
                        start = time.perf_counter()
                        top = service.recommend(block, k)
                        best = min(best, time.perf_counter() - start)
                    block_seconds.append(best)
                    results.append(top)
            topk[arm] = np.concatenate(results)
            stats = _latency_stats(block_seconds, num_queries)
            stats["build_seconds"] = build_seconds
            if arm == "ivf":
                stats["num_cells"] = float(service.index.num_cells)
                stats["nprobe"] = float(service.nprobe)
                stats["fallback_rows"] = float(
                    service.stats["fallback_rows"]
                    / max(1, service.stats["users"]) * num_queries)
                stats["recall_at_k"] = topk_recall(topk[arm], topk["exact"])
                exact_qps = section["exact"]["queries_per_sec"]
                stats["speedup_over_exact"] = (
                    stats["queries_per_sec"] / exact_qps
                    if exact_qps > 0 else float("inf"))
            section[arm] = stats

    ivf = section["ivf"]
    section["best"] = {
        "arm": "ivf",
        "speedup_over_exact": ivf["speedup_over_exact"],
        "recall_at_k": ivf["recall_at_k"],
    }
    section["peak_rss_mb"] = _peak_rss_mb()
    section["host_env"] = _host_env()
    return section


def run_engine_suite(
        preset: str = "medium",
        epochs: int = 2,
        batches_per_epoch: Optional[int] = 4,
        batch_size: int = 512,
        embed_dim: int = 16,
        num_layers: int = 2,
        seed: int = 0,
        backends: Sequence[str] = BACKENDS,
        minibatch_fanouts: Sequence[int] = (5, 10, 20),
        dtype: str = PRODUCTION_DTYPE,
        memory: Optional[bool] = None,
        serving: bool = True,
        serving_train_epochs: Optional[int] = None,
        parallel: bool = True,
        locality: bool = True,
        output_path: Optional[Path] = None) -> EngineBenchResults:
    """All engine sweeps on one shared context; optionally persisted.

    Every sweep except the dtype A/B runs under ``dtype`` — float32 by
    default, the recorded production configuration.  ``memory`` controls
    sweep 7 (subprocess peak-RSS arms); default: on for the ``large``
    and ``xlarge`` presets only, since the A/B needs an array footprint
    that dwarfs the interpreter baseline to be meaningful.  ``serving``
    controls sweep 8; ``serving_train_epochs`` defaults to a brief
    training run at ``large`` (ANN recall needs trained structure) and
    none at the smoke presets.  ``parallel`` controls sweep 9 (worker
    subprocess arms; skipped at ``xlarge``, where a per-arm training run
    would take hours).  ``locality`` controls sweep 10 (reorder ×
    blocked-spmm arms; full legs at the standard presets, a timing-only
    propagation leg at ``xlarge``).
    """
    if memory is None:
        memory = preset in ("large", "xlarge")
    if serving_train_epochs is None:
        serving_train_epochs = 6 if preset == "large" else 0
    if preset == "xlarge":
        # The 1M+ node preset exists for the memory and serving legs
        # alone; the in-process sweeps would take hours at that scale.
        results = EngineBenchResults(dataset_name="xlarge", epochs=epochs,
                                     production_dtype=dtype)
        results.memory = run_memory_bench(preset=preset, epochs=epochs,
                                          seed=seed)
        if serving:
            with use_dtype(dtype):
                results.serving = run_serving_bench(
                    preset=preset, num_queries=1024, seed=seed)
        if locality:
            # 128-dim tables put the composite working set (~1 GB) past
            # any realistic LLC, so this is the DRAM-bound section whose
            # reordered+blocked floor check_regression enforces.
            with use_dtype(dtype):
                results.locality = run_locality_bench(
                    preset=preset, embed_dim=128, repeats=5, seed=seed)
        if output_path is not None:
            results.write_json(Path(output_path), preset=preset)
        return results
    with use_dtype(dtype):
        context = ExperimentContext.build(preset, seed=seed, num_negatives=50)
        results = run_engine_throughput(
            preset=preset, epochs=epochs, batches_per_epoch=batches_per_epoch,
            batch_size=batch_size, embed_dim=embed_dim, num_layers=num_layers,
            seed=seed, backends=backends, context=context)
        results.production_dtype = dtype
        results.memory_kernel = run_memory_kernel_bench(
            preset=preset, batch_size=batch_size, embed_dim=embed_dim,
            num_layers=num_layers, seed=seed, context=context)
        results.dtype_sweep = run_dtype_sweep(
            preset=preset, epochs=1, batches_per_epoch=batches_per_epoch,
            batch_size=batch_size, embed_dim=embed_dim, num_layers=num_layers,
            seed=seed, context=context)
        results.minibatch = run_minibatch_bench(
            preset=preset, epochs=epochs, batches_per_epoch=batches_per_epoch,
            batch_size=batch_size, embed_dim=embed_dim, num_layers=num_layers,
            fanouts=minibatch_fanouts, seed=seed, context=context)
        results.optimizer = run_optimizer_bench(
            preset=preset, epochs=epochs, seed=seed, context=context)
        if serving:
            results.serving = run_serving_bench(
                preset=preset, train_epochs=serving_train_epochs,
                embed_dim=embed_dim, num_layers=num_layers, seed=seed,
                context=context, **_SERVING_TUNED.get(preset, {}))
    if memory:
        results.memory = run_memory_bench(preset=preset, seed=seed)
    if parallel:
        results.parallel = run_parallel_bench(
            preset=preset, seed=seed, dtype=dtype,
            **_PARALLEL_TUNED.get(preset, {}))
    if locality:
        with use_dtype(dtype):
            results.locality = run_locality_bench(
                preset=preset, seed=seed,
                **_LOCALITY_TUNED.get(preset,
                                      dict(embed_dim=64, repeats=3,
                                           num_queries=1024)))
    if output_path is not None:
        results.write_json(Path(output_path), preset=preset)
    return results

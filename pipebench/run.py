"""Pipeline benchmark launcher: one workload run, one JSON result line.

Usage (from the repository root)::

    python3 pipebench/run.py --workload train-full --seed 1 --seconds 24 --trace 0

The launcher pins the engine stack (float32 values, int32 indices, the
``fast`` backend, arena on, compile off, identity reorder) and the BLAS
thread count through the environment, then runs the pipeline
(``pipebench/pipeline.py``) in a child process.  With ``--trace 1`` it
runs the pipeline twice, untraced and traced, and reports the per-layer
metrics plus the tracing overhead on every end-to-end metric.

It prints one line per metric with its unit and sample count, the host
context, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when a
correctness check fails, and 2 or 3 (without a result line) when the
library is missing or the pipeline crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".pipebench_work"
DEADLINE_S = 175.0

# name -> (unit, better, bound); the same table as BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.2),
    "train_triples_per_s": ("1/s", "higher", 0.25),
    "train_step_ms_p50": ("ms", "lower", 0.25),
    "train_step_ms_p90": ("ms", "lower", 0.25),
    "eval_s": ("s", "lower", 0.25),
    "hr_at_10": ("ratio", "higher", 0.15),
    "ndcg_at_10": ("ratio", "higher", 0.15),
    "ivf_recall_at_20": ("ratio", "higher", 0.15),
}
# Serving timings: printed by every run and reported as per-layer metrics
# (taken from the untraced run), but not gated — their run-to-run spread
# on the reference host exceeds the largest bound a gated metric may have
# (README.md, "Serving timings are not gated").
UNGATED = {
    "serve_p50_ms": ("serve.exact_p50_ms", "ms"),
    "serve_p99_ms": ("serve.exact_p99_ms", "ms"),
    "serve_ivf_p50_ms": ("serve.ivf_p50_ms", "ms"),
    "serve_ivf_p99_ms": ("serve.ivf_p99_ms", "ms"),
    "serve_max_rps": ("serve.max_rps", "1/s"),
    "staleness_ms": ("serve.staleness_ms", "ms"),
}

# name -> (unit, better)
PER_LAYER = {
    "data.generate_s": ("s", "lower"),
    "data.split_s": ("s", "lower"),
    "data.candidates_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "data.bpr_sample_ms": ("ms", "lower"),
    "graph.subgraph_ms": ("ms", "lower"),
    "graph.subgraph_nodes": ("count", "lower"),
    "train.prefetch_wait_ms": ("ms", "lower"),
    "models.forward_ms": ("ms", "lower"),
    "models.memory_bank_ms": ("ms", "lower"),
    "models.final_embeddings_s": ("s", "lower"),
    "autograd.backward_ms": ("ms", "lower"),
    "autograd.op_calls": ("count", "lower"),
    "engine.spmm_ms": ("ms", "lower"),
    "engine.spmm_calls": ("count", "lower"),
    "engine.memory_mixture_ms": ("ms", "lower"),
    "engine.memory_mixture_backward_ms": ("ms", "lower"),
    "engine.gathered_rowwise_dot_ms": ("ms", "lower"),
    "engine.gather_rows_ms": ("ms", "lower"),
    "engine.flops_per_step": ("count", "lower"),
    "engine.bytes_per_step": ("bytes", "lower"),
    "engine.kernel_frac": ("ratio", "higher"),
    "engine.adjcache_hit_ratio": ("ratio", "higher"),
    "engine.arena_reuse_ratio": ("ratio", "higher"),
    "nn.optimizer_step_ms": ("ms", "lower"),
    "nn.touched_row_frac": ("ratio", "higher"),
    "nn.clip_ms": ("ms", "lower"),
    "nn.zero_grad_ms": ("ms", "lower"),
    "train.step_ms": ("ms", "lower"),
    "train.attributed_frac": ("ratio", "higher"),
    "train.warmup_s": ("s", "lower"),
    "eval.sampled_s": ("s", "lower"),
    "eval.full_ranking_s": ("s", "lower"),
    "eval.topk_ms": ("ms", "lower"),
    "serve.exact_p50_ms": ("ms", "lower"),
    "serve.exact_p99_ms": ("ms", "lower"),
    "serve.ivf_p50_ms": ("ms", "lower"),
    "serve.ivf_p99_ms": ("ms", "lower"),
    "serve.max_rps": ("1/s", "higher"),
    "serve.staleness_ms": ("ms", "lower"),
    "serve.recommend_ms.single": ("ms", "lower"),
    "serve.recommend_ms.batch": ("ms", "lower"),
    "serve.cold_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.generator_lag_ms": ("ms", "lower"),
    "serve.probe_ms": ("ms", "lower"),
    "serve.ann_fallback_frac": ("ratio", "lower"),
    "serve.publish_ms": ("ms", "lower"),
    "serve.load_ms": ("ms", "lower"),
    "serve.swap_ms": ("ms", "lower"),
    "serve.swap_phase_p99_ms": ("ms", "lower"),
    "serve.index_build_ms": ("ms", "lower"),
    "serve.snapshot_build_s": ("s", "lower"),
}
# Tracing overhead: traced / untraced - 1, per end-to-end metric.
for _name in END_TO_END:
    PER_LAYER[f"trace_overhead.{_name}"] = ("ratio", "lower")

WORKLOADS = ("train-full", "train-minibatch")


def pinned_env(threads: int) -> dict:
    """The child's environment: library path, engine stack, BLAS threads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "REPRO_ENGINE_DTYPE": "float32",
        "REPRO_ENGINE_INDEX_DTYPE": "int32",
        "REPRO_ENGINE_BACKEND": "fast",
        "REPRO_ENGINE_ARENA": "1",
        "REPRO_COMPILE": "0",
        "REPRO_REORDER": "identity",
        "REPRO_PREFETCH": "1",
        "REPRO_WORKERS": "0",
        "REPRO_ENGINE_SPMM_BLOCK": "off",
    })
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def l3_bytes() -> int:
    """Last-level cache size from ``getconf`` (0 when unknown)."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return 0


def run_child(args, traced: bool, env: dict, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{int(traced)}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, "-m", "pipebench.pipeline",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced)),
               "--out", str(out)]
    remaining = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=remaining,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"pipeline run timed out after {remaining:.0f} s\n")
        raise SystemExit(3)
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        sys.stderr.write(f"pipeline run failed (exit {proc.returncode})\n")
        raise SystemExit(3)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        sys.stderr.write(f"library sources not found under {ROOT / 'src'}; "
                         "run from a full checkout of the repository\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    env = pinned_env(threads)
    base = run_child(args, False, env, deadline)
    traced = run_child(args, True, env, deadline) if args.trace else None

    context = dict(base["context"], nproc=threads, l3_bytes=l3_bytes(),
                   seed=args.seed, workload=args.workload,
                   seconds=args.seconds)
    print("pipebench " + " ".join(f"{k}={v}" for k, v in context.items()))
    for name, (unit, _, _) in END_TO_END.items():
        print(f"  {name:<22} {base['metrics'][name]:>14.6g} {unit:<6} "
              f"({base['samples'][name]})")
    for name, (_, unit) in UNGATED.items():
        print(f"  {name:<22} {base['metrics'][name]:>14.6g} {unit:<6} "
              f"({base['samples'][name]}; not gated)")
    runs = [base] + ([traced] if traced else [])
    checks = {}
    for run in runs:
        for name, ok in run["checks"].items():
            checks[name] = checks.get(name, True) and ok
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} attempted)")

    if traced:
        values = dict(traced["layers"])
        for name, (layer_name, _) in UNGATED.items():
            values[layer_name] = base["metrics"][name]
        for name in END_TO_END:
            untraced = base["metrics"][name]
            values[f"trace_overhead.{name}"] = (
                traced["metrics"][name] / untraced - 1.0 if untraced else 0.0)
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<40} {values[name]:>14.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": base["metrics"][name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}
    correct = all(checks.values()) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

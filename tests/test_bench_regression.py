"""Tier-1 wrapper around ``benchmarks/check_regression.py``.

Generates a fresh tiny-scale engine benchmark and diffs it against the
committed ``BENCH_engine.json`` with the same comparison logic the CLI
uses.  Throughput on a shared CI box is noisy, so the fresh run retries a
couple of times before a >30% drop is treated as a real regression; the
exact-workload counters (kernel call counts) must match on every run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.engine_bench import run_engine_throughput

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_engine.json"

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def test_compare_flags_throughput_drop():
    baseline = {"presets": {"tiny": {"backends": {
        "fast": {"epochs_per_sec": 100.0, "calls.spmm": 8.0}}}}}
    fresh_ok = {"presets": {"tiny": {"backends": {
        "fast": {"epochs_per_sec": 80.0, "calls.spmm": 8.0}}}}}
    fresh_bad = {"presets": {"tiny": {"backends": {
        "fast": {"epochs_per_sec": 50.0, "calls.spmm": 8.0}}}}}
    assert check_regression.compare(baseline, fresh_ok) == []
    problems = check_regression.compare(baseline, fresh_bad)
    assert problems and "regressed" in problems[0]


def test_compare_flags_workload_drift():
    baseline = {"presets": {"tiny": {"backends": {
        "fast": {"epochs_per_sec": 100.0, "calls.spmm": 8.0}}}}}
    drifted = {"presets": {"tiny": {"backends": {
        "fast": {"epochs_per_sec": 100.0, "calls.spmm": 12.0}}}}}
    problems = check_regression.compare(baseline, drifted)
    assert problems and "workload drift" in problems[0]


def test_compare_ignores_disjoint_presets():
    baseline = {"presets": {"medium": {"backends": {
        "fast": {"epochs_per_sec": 5.0}}}}}
    fresh = {"presets": {"tiny": {"backends": {
        "fast": {"epochs_per_sec": 1.0}}}}}
    problems = check_regression.compare(baseline, fresh)
    assert problems == ["no shared presets between baseline (['medium']) "
                        "and fresh (['tiny'])"]


@pytest.mark.engine_throughput
def test_fresh_tiny_bench_within_regression_budget(tmp_path):
    """Fresh tiny run must stay within 30% of the committed numbers."""
    baseline = json.loads(BASELINE.read_text())

    problems = None
    for attempt in range(3):  # absorb timer noise: regress only if persistent
        output = tmp_path / f"fresh_{attempt}.json"
        run_engine_throughput(
            preset="tiny", epochs=1, batches_per_epoch=2, batch_size=128,
            embed_dim=8, num_layers=1, output_path=output)
        fresh = json.loads(output.read_text())
        problems = check_regression.compare(baseline, fresh)
        # Workload drift is deterministic — never retry it away.
        assert not any("workload drift" in p for p in problems), problems
        if not problems:
            break
    assert problems == [], f"persistent regression after retries: {problems}"


def _baseline_with_optimizer(speedup=2.5, preset="large"):
    return {"presets": {preset: {
        "backends": {"fast": {"epochs_per_sec": 100.0}},
        "optimizer": {
            "training_dense": {"epochs_per_sec": 10.0},
            "training_lazy": {"epochs_per_sec": 25.0,
                              "speedup_over_dense": speedup},
            "rows_0.01": {"dense_steps_per_sec": 100.0,
                          "lazy_steps_per_sec": 5000.0,
                          "speedup": 50.0},
        },
    }}}


def test_compare_flags_optimizer_step_rate_regression():
    baseline = _baseline_with_optimizer()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["optimizer"]["rows_0.01"][
        "lazy_steps_per_sec"] = 1000.0
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("lazy_steps_per_sec" in p for p in problems)


def test_compare_enforces_lazy_speedup_floor_on_large():
    baseline = _baseline_with_optimizer(speedup=2.5)
    fresh = _baseline_with_optimizer(speedup=1.5)
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("floor" in p for p in problems)
    # The floor binds the committed baseline too.
    problems = check_regression.compare(_baseline_with_optimizer(1.5),
                                        _baseline_with_optimizer(2.5))
    assert problems and any("floor" in p for p in problems)


def test_compare_floor_only_applies_to_large():
    baseline = _baseline_with_optimizer(speedup=1.1, preset="tiny")
    fresh = _baseline_with_optimizer(speedup=1.05, preset="tiny")
    assert check_regression.compare(baseline, fresh) == []


def test_compare_reports_missing_section_clearly():
    baseline = _baseline_with_optimizer()
    fresh = {"presets": {"large": {
        "backends": {"fast": {"epochs_per_sec": 100.0}}}}}
    problems = check_regression.compare(baseline, fresh)
    assert problems
    assert any("expected section 'optimizer' is missing" in p
               for p in problems)


def test_compare_skips_empty_section_as_not_run():
    # An empty dict means "sweep not run" (e.g. the tiny smoke run in
    # tier-1) and must not trip the missing-section check.
    baseline = _baseline_with_optimizer()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["optimizer"] = {}
    assert check_regression.compare(baseline, fresh) == []


def _baseline_with_memory(reduction=0.5, parity=True, preset="large"):
    return {"presets": {preset: {
        "backends": {"fast": {"epochs_per_sec": 100.0}},
        "memory": {
            "production": {"peak_rss_mb": 500.0},
            "oracle": {"peak_rss_mb": 1000.0},
            "rss_reduction_vs_oracle": reduction,
            "max_rel_loss_diff": 1e-8 if parity else 0.5,
            "loss_parity_ok": parity,
        },
    }}}


def test_compare_enforces_memory_rss_floor_on_large():
    problems = check_regression.compare(_baseline_with_memory(0.5),
                                        _baseline_with_memory(0.2))
    assert problems and any("peak-RSS reduction" in p for p in problems)
    # The floor binds the committed baseline too.
    problems = check_regression.compare(_baseline_with_memory(0.2),
                                        _baseline_with_memory(0.5))
    assert problems and any("baseline" in p for p in problems)


def test_compare_flags_memory_loss_parity_failure():
    problems = check_regression.compare(_baseline_with_memory(),
                                        _baseline_with_memory(parity=False))
    assert problems and any("diverged" in p for p in problems)


def test_compare_memory_floor_only_applies_to_large():
    low = _baseline_with_memory(0.05, preset="tiny")
    assert check_regression.compare(low, json.loads(json.dumps(low))) == []


def test_compare_skips_empty_memory_section():
    baseline = _baseline_with_memory(0.5)
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["memory"] = {}
    assert check_regression.compare(baseline, fresh) == []


def _baseline_with_serving(speedup=4.0, recall=0.97, preset="large",
                           timing_only=False):
    return {"presets": {preset: {
        "backends": {"fast": {"epochs_per_sec": 100.0}},
        "serving": {
            "k": 20,
            "timing_only": timing_only,
            "exact": {"queries_per_sec": 8000.0},
            "ivf": {"queries_per_sec": 8000.0 * speedup,
                    "speedup_over_exact": speedup,
                    "recall_at_k": recall},
            "best": {"arm": "ivf", "speedup_over_exact": speedup,
                     "recall_at_k": recall},
        },
    }}}


def test_compare_flags_serving_throughput_regression():
    baseline = _baseline_with_serving()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["serving"]["exact"][
        "queries_per_sec"] = 4000.0
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("serving/exact" in p for p in problems)


def test_compare_enforces_serving_speedup_floor_on_large():
    problems = check_regression.compare(_baseline_with_serving(speedup=4.0),
                                        _baseline_with_serving(speedup=2.0))
    assert problems and any("speedup_over_exact" in p and "floor" in p
                            for p in problems)
    # The floor binds the committed baseline too.
    problems = check_regression.compare(_baseline_with_serving(speedup=2.0),
                                        _baseline_with_serving(speedup=4.0))
    assert problems and any("baseline" in p for p in problems)


def test_compare_enforces_serving_recall_floor_on_large():
    problems = check_regression.compare(_baseline_with_serving(recall=0.97),
                                        _baseline_with_serving(recall=0.90))
    assert problems and any("recall_at_k" in p and "floor" in p
                            for p in problems)


def test_compare_serving_floor_skips_timing_only_sections():
    weak = _baseline_with_serving(speedup=1.0, recall=0.1, timing_only=True)
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []


def test_compare_serving_floor_only_applies_to_large():
    weak = _baseline_with_serving(speedup=1.0, recall=0.5, preset="tiny")
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []


def test_compare_reports_missing_best_summary():
    baseline = _baseline_with_serving()
    fresh = json.loads(json.dumps(baseline))
    del fresh["presets"]["large"]["serving"]["best"]
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("no 'best' ANN summary" in p for p in problems)


def test_compare_reports_missing_serving_section():
    baseline = _baseline_with_serving()
    fresh = {"presets": {"large": {
        "backends": {"fast": {"epochs_per_sec": 100.0}}}}}
    problems = check_regression.compare(baseline, fresh)
    assert any("expected section 'serving' is missing" in p for p in problems)


def test_compare_skips_empty_serving_section():
    baseline = _baseline_with_serving()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["serving"] = {}
    assert check_regression.compare(baseline, fresh) == []


def _baseline_with_parallel(speedup=2.5, pss_growth=1.3, host_cpus=8,
                            preset="large"):
    return {"presets": {preset: {
        "backends": {"fast": {"epochs_per_sec": 100.0}},
        "parallel": {
            "host_cpus": host_cpus,
            "max_workers": 4,
            "single_process": {"epochs_per_sec": 1.0,
                               "peak_pss_mb": 400.0},
            "hogwild": {
                "workers_1": {"epochs_per_sec": 1.0, "peak_pss_mb": 420.0,
                              "speedup_over_1": 1.0, "pss_growth_over_1": 1.0},
                "workers_4": {"epochs_per_sec": speedup,
                              "peak_pss_mb": 420.0 * pss_growth,
                              "speedup_over_1": speedup,
                              "pss_growth_over_1": pss_growth},
            },
            "best_speedup_at_max_workers": speedup,
            "pss_growth_at_max_workers": pss_growth,
        },
    }}}


def test_compare_flags_parallel_epoch_rate_regression():
    baseline = _baseline_with_parallel()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["parallel"]["hogwild"]["workers_4"][
        "epochs_per_sec"] = 1.0
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("parallel/hogwild/workers_4" in p
                            for p in problems)


def test_compare_flags_parallel_single_process_regression():
    baseline = _baseline_with_parallel()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["parallel"]["single_process"][
        "epochs_per_sec"] = 0.4
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("single_process" in p for p in problems)


def test_compare_enforces_parallel_pss_growth_cap_on_large():
    # Near-linear PSS growth means the workers copied the tables.
    problems = check_regression.compare(
        _baseline_with_parallel(pss_growth=1.3),
        _baseline_with_parallel(pss_growth=3.5))
    assert problems and any("not sharing" in p for p in problems)
    # The cap binds the committed baseline too, and on single-CPU hosts.
    problems = check_regression.compare(
        _baseline_with_parallel(pss_growth=3.5, host_cpus=1),
        _baseline_with_parallel(pss_growth=1.3, host_cpus=1))
    assert problems and any("baseline" in p and "not sharing" in p
                            for p in problems)


def test_compare_parallel_speedup_floor_requires_multicore_host():
    # On a multi-core recording host the >=2x floor binds...
    problems = check_regression.compare(
        _baseline_with_parallel(speedup=2.5, host_cpus=8),
        _baseline_with_parallel(speedup=1.2, host_cpus=8))
    assert problems and any("below the required 2x floor" in p
                            for p in problems)
    # ...but a single-core host cannot speed up wall-clock at all, so
    # the floor is skipped there (the PSS cap still applies).
    weak = _baseline_with_parallel(speedup=0.9, host_cpus=1)
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []


def test_compare_parallel_floors_only_apply_to_large():
    weak = _baseline_with_parallel(speedup=0.8, pss_growth=3.9,
                                   preset="tiny")
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []


def test_compare_reports_missing_parallel_section():
    baseline = _baseline_with_parallel()
    fresh = {"presets": {"large": {
        "backends": {"fast": {"epochs_per_sec": 100.0}}}}}
    problems = check_regression.compare(baseline, fresh)
    assert any("expected section 'parallel' is missing" in p
               for p in problems)


def test_compare_skips_empty_parallel_section():
    baseline = _baseline_with_parallel()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["parallel"] = {}
    assert check_regression.compare(baseline, fresh) == []


def _baseline_with_locality(speedup=1.4, bitwise=True, topk=True,
                            preset="large", working_set_mb=128.0,
                            host_l3_mb=32.0):
    return {"presets": {preset: {
        "backends": {"fast": {"epochs_per_sec": 100.0}},
        "locality": {
            "embed_dim": 256,
            "working_set_mb": working_set_mb,
            "host_l3_mb": host_l3_mb,
            "arms": {
                "identity_flat": {"propagation_per_sec": 10.0,
                                  "epochs_per_sec": 1.0,
                                  "serving_queries_per_sec": 5000.0,
                                  "topk_matches_identity": True,
                                  "propagation_speedup_over_flat": 1.0},
                "rcm_blocked": {"propagation_per_sec": 10.0 * speedup,
                                "epochs_per_sec": 1.1,
                                "serving_queries_per_sec": 5100.0,
                                "blocked_bitwise_ok": bitwise,
                                "topk_matches_identity": topk,
                                "propagation_speedup_over_flat": speedup},
            },
            "best": {"arm": "rcm_blocked",
                     "propagation_speedup_over_flat": speedup},
        },
    }}}


def test_compare_flags_locality_throughput_regression():
    baseline = _baseline_with_locality()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["locality"]["arms"]["identity_flat"][
        "propagation_per_sec"] = 4.0
    problems = check_regression.compare(baseline, fresh)
    assert problems and any("locality/identity_flat" in p for p in problems)


def test_compare_enforces_locality_speedup_floor_on_large():
    problems = check_regression.compare(_baseline_with_locality(speedup=1.4),
                                        _baseline_with_locality(speedup=1.1))
    assert problems and any("flat identity oracle" in p and "floor" in p
                            for p in problems)
    # The floor binds the committed baseline too.
    problems = check_regression.compare(_baseline_with_locality(speedup=1.1),
                                        _baseline_with_locality(speedup=1.4))
    assert problems and any("baseline" in p and "floor" in p
                            for p in problems)


def test_compare_locality_floor_only_applies_to_floor_presets():
    weak = _baseline_with_locality(speedup=1.05, preset="tiny")
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []
    weak = _baseline_with_locality(speedup=1.05, preset="xlarge")
    problems = check_regression.compare(weak, json.loads(json.dumps(weak)))
    assert problems and any("floor" in p for p in problems)


def test_compare_locality_floor_skipped_when_cache_resident():
    # Working set fits inside the recording host's L3: every ordering is
    # equally hot, so the speedup floor must not bind.
    weak = _baseline_with_locality(speedup=1.05, working_set_mb=128.0,
                                   host_l3_mb=260.0)
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []


def test_compare_locality_floor_skipped_when_l3_unknown():
    weak = _baseline_with_locality(speedup=1.05, host_l3_mb=None)
    assert check_regression.compare(weak, json.loads(json.dumps(weak))) == []


def test_compare_flags_locality_bitwise_failure():
    bad = _baseline_with_locality(bitwise=False)
    problems = check_regression.compare(_baseline_with_locality(), bad)
    assert problems and any("bitwise" in p for p in problems)


def test_compare_flags_locality_topk_invariance_failure():
    bad = _baseline_with_locality(topk=False)
    problems = check_regression.compare(_baseline_with_locality(), bad)
    assert problems and any("relabeling" in p for p in problems)


def test_compare_reports_missing_locality_section():
    baseline = _baseline_with_locality()
    fresh = {"presets": {"large": {
        "backends": {"fast": {"epochs_per_sec": 100.0}}}}}
    problems = check_regression.compare(baseline, fresh)
    assert any("expected section 'locality' is missing" in p
               for p in problems)


def test_compare_skips_empty_locality_section():
    baseline = _baseline_with_locality()
    fresh = json.loads(json.dumps(baseline))
    fresh["presets"]["large"]["locality"] = {}
    assert check_regression.compare(baseline, fresh) == []


def test_compare_messages_carry_artifact_paths_when_given():
    baseline = {"presets": {"large": {
        "backends": {"fast": {"epochs_per_sec": 100.0}}}}}
    fresh = {"presets": {"large": {
        "backends": {"fast": {"epochs_per_sec": 50.0}}}}}
    problems = check_regression.compare(
        baseline, fresh,
        baseline_path="BENCH_engine.json", fresh_path="/tmp/fresh.json")
    assert problems
    for problem in problems:
        assert problem.endswith(
            "[baseline=BENCH_engine.json, fresh=/tmp/fresh.json]")
    # Without paths the messages stay exactly as before.
    assert all("[baseline=" not in p
               for p in check_regression.compare(baseline, fresh))

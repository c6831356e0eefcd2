import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pipebench import tracing

ROOT = Path(__file__).resolve().parents[2]


def _tiny_step(seed=0):
    """One full-graph BPR step of DGNN on the tiny preset; returns params."""
    from repro.data import PRESETS, build_eval_candidates, leave_one_out
    from repro.graph import CollaborativeHeteroGraph
    from repro.models import create_model
    from repro.train import TrainConfig, Trainer

    dataset = PRESETS["tiny"](seed=seed)
    split = leave_one_out(dataset, seed=seed)
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    model = create_model("dgnn", graph, embed_dim=8, seed=seed, num_layers=2,
                         num_memory_units=4)
    config = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=64,
                         eval_ks=(10,), patience=None, seed=seed,
                         compile=False)
    Trainer(model, split, config,
            candidates=build_eval_candidates(split, seed=seed)).fit()
    return [p.data.copy() for p in model.parameters()]


def _repro_namespaces():
    """Every loaded repro module and class, with a copy of its namespace."""
    spaces = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        spaces[name] = (module, dict(vars(module)))
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                spaces[f"{value.__module__}.{value.__qualname__}"] = (
                    value, dict(vars(value)))
    return spaces


def test_traced_backend_is_bitwise_equal_to_fast():
    from repro.engine import available_backends, use_backend

    with use_backend("fast"):
        reference = _tiny_step()
        tracer = tracing.Tracer()
        traced_backend = tracing.make_traced_backend(
            tracer, available_backends()["fast"])
        with use_backend(traced_backend):
            traced = _tiny_step()
    assert len(reference) == len(traced)
    for a, b in zip(reference, traced):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    names = {span.name for span in tracer.spans}
    assert {"engine.spmm", "engine.memory_mixture",
            "engine.memory_mixture_backward",
            "engine.gathered_rowwise_dot"} <= names


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    from repro.autograd.tensor import Tensor
    from repro.engine import get_backend, use_backend
    from repro.models.dgnn import DGNN

    # Import every module the traced run touches, so the snapshot below
    # differs from the final state only by what the patches leave behind.
    import repro.models.coldstart  # noqa: F401
    import repro.serve  # noqa: F401

    with use_backend("fast"):
        _tiny_step()
        before = _repro_namespaces()
        backend = get_backend()
        tracer = tracing.Tracer()
        tracing.install(tracer, DGNN)
        try:
            assert Tensor.backward is not before[
                "repro.autograd.tensor.Tensor"][1]["backward"]
            assert get_backend() is not backend
            _tiny_step()
        finally:
            tracer.uninstall()
        after = _repro_namespaces()
        assert get_backend() is backend
    for key, (owner, namespace) in before.items():
        current = after[key][1]
        assert current.keys() == namespace.keys(), key
        changed = [attr for attr, value in namespace.items()
                   if current[attr] is not value]
        assert not changed, (key, changed)
    # The traced run saw every layer of a training step.
    names = {span.name for span in tracer.spans}
    assert {"data.bpr_sample", "models.forward", "models.memory_bank",
            "autograd.backward", "nn.optimizer_step", "nn.zero_grad",
            "nn.clip", "eval.sampled", "engine.spmm"} <= names
    assert tracer.counts["autograd.op_calls"] > 0
    # Spans are written as JSON lines with parent links.
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert any(row["parent"] is not None for row in rows)


def test_self_times_subtract_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert all(s.parent is outer for s in inner)
    selfs = tracing.self_times(tracer.spans)
    assert selfs[id(outer)] == pytest.approx(
        outer.duration - sum(s.duration for s in inner))


def test_benchmark_json_matches_the_launcher_tables():
    from pipebench import pipeline, run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(pipeline.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER

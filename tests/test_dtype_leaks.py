"""Float32 dtype-leak detection across every registered model.

One training step per model runs under the float32 engine policy with
:mod:`repro.engine.dtypecheck` wrapping the active backend: any float64
array crossing a kernel boundary — a silent numpy promotion somewhere
upstream — fails the test by raising ``DtypeLeakError``.
"""

import numpy as np
import pytest

from repro.engine import use_dtype
from repro.engine.dtypecheck import (
    DtypeCheckingBackend,
    DtypeLeakError,
    detect_leaks,
)
from repro.graph import CollaborativeHeteroGraph
from repro.models import available_models, create_model
from repro.nn import Adam

TRAINABLE = [name for name in available_models() if name != "most-popular"]


def _one_step(model, split, rng):
    users = split.train_pairs[:32, 0]
    positives = split.train_pairs[:32, 1]
    negatives = rng.integers(0, split.dataset.num_items, size=32)
    optimizer = Adam(model.parameters(), lr=0.01)
    optimizer.zero_grad()
    loss = model.bpr_loss(users, positives, negatives, l2=1e-4)
    loss.backward()
    optimizer.step()
    return float(loss.item())


@pytest.mark.parametrize("name", TRAINABLE)
def test_no_float64_leaks_in_float32_train_step(name, tiny_dataset,
                                                tiny_split):
    with use_dtype(np.float32):
        # The graph is rebuilt inside the policy so cached normalized
        # adjacencies carry float32 data.
        graph = CollaborativeHeteroGraph(tiny_dataset,
                                         tiny_split.train_pairs)
        model = create_model(name, graph, embed_dim=8, seed=0)
        with detect_leaks():
            loss = _one_step(model, tiny_split, np.random.default_rng(0))
    assert np.isfinite(loss)


def test_checker_raises_on_planted_float64():
    from repro.engine.backends import get_backend

    checker = DtypeCheckingBackend(get_backend())
    with use_dtype(np.float32):
        table = np.ones((4, 3), dtype=np.float64)  # the planted leak
        with pytest.raises(DtypeLeakError, match="gather_rows"):
            checker.gather_rows(table, np.array([0, 1], dtype=np.int32))


def test_checker_passes_clean_float32_call():
    from repro.engine.backends import get_backend

    checker = DtypeCheckingBackend(get_backend())
    with use_dtype(np.float32):
        table = np.ones((4, 3), dtype=np.float32)
        out = checker.gather_rows(table, np.array([0, 1], dtype=np.int32))
    assert out.dtype == np.float32


def test_checker_wraps_every_private_kernel():
    """A kernel the checker does not override would run unchecked."""
    from repro.engine.backends import KernelBackend

    kernels = {name for name, value in vars(KernelBackend).items()
               if name.startswith("_") and not name.startswith("__")
               and callable(value)}
    assert {"_layer_norm", "_layer_norm_backward",
            "_memory_mixture", "_memory_mixture_backward"} <= kernels
    unchecked = {name for name in kernels
                 if name not in vars(DtypeCheckingBackend)}
    assert not unchecked


@pytest.mark.parametrize("kernel", ["layer_norm", "layer_norm_backward",
                                    "memory_mixture",
                                    "memory_mixture_backward"])
def test_checker_catches_planted_float64_in_new_kernels(kernel):
    from repro.engine.backends import get_backend

    checker = DtypeCheckingBackend(get_backend())
    f32 = np.ones((4, 3), dtype=np.float32)
    f64 = np.ones((4, 3), dtype=np.float64)  # the planted leak
    row32 = np.ones(3, dtype=np.float32)
    calls = {
        "layer_norm": lambda: checker.layer_norm(f64, row32, row32, 1e-5),
        "layer_norm_backward": lambda: checker.layer_norm_backward(
            f32, f64, np.ones((4, 1), dtype=np.float32), row32),
        "memory_mixture": lambda: checker.memory_mixture(
            f32, f64[:, :2], np.ones((2, 3, 3), dtype=np.float32)),
        "memory_mixture_backward": lambda: checker.memory_mixture_backward(
            f64, f32, f32[:, :2], np.ones((2, 3, 3), dtype=np.float32)),
    }
    with use_dtype(np.float32):
        with pytest.raises(DtypeLeakError, match=kernel):
            calls[kernel]()

"""Shared fixtures: a tiny dataset/split/graph reused across the suite.

``--pool-every-buffer`` drops the process arena's small-buffer bypass
(``min_bytes = 0``) for the whole test run.  Test presets are too small
to reach the default 64 KiB floor, so without it aliasing bugs in
pooled op outputs would go unseen.
"""

import numpy as np
import pytest

from repro.data import build_eval_candidates, leave_one_out, tiny
from repro.engine import arena
from repro.graph import CollaborativeHeteroGraph


def pytest_addoption(parser):
    parser.addoption(
        "--pool-every-buffer", action="store_true",
        help="route every arena checkout through the pool (min_bytes=0)")


def pytest_configure(config):
    if config.getoption("--pool-every-buffer"):
        arena.get_arena().min_bytes = 0


@pytest.fixture(scope="session")
def tiny_dataset():
    return tiny(seed=0)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return leave_one_out(tiny_dataset, seed=0)


@pytest.fixture(scope="session")
def tiny_candidates(tiny_split):
    return build_eval_candidates(tiny_split, num_negatives=50, seed=0)


@pytest.fixture(scope="session")
def tiny_graph(tiny_dataset, tiny_split):
    return CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)

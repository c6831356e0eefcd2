"""Shared numerically-stable sigmoid/softplus primitives.

The stable formulations below were historically re-derived in place in
three spots — the ``sigmoid`` forward, the ``softplus`` backward, and the
BPR loss tail — with identical math.  They live here once so the autograd
ops and the fused :mod:`repro.engine.backends` kernels evaluate
bit-for-bit the same expressions.

Bitwise contract: each helper computes exactly the expression the ops
historically inlined (same numpy calls, same order), so switching a call
site to the helper cannot change results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_sigmoid", "stable_softplus"]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid without overflow for large ``|x|``.

    For ``x >= 0`` uses ``1 / (1 + e^-x)``; for ``x < 0`` the equivalent
    ``e^x / (1 + e^x)`` — both expressed through ``exp(-|x|)`` so the
    exponential never overflows.
    """
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softplus(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` via ``max(x, 0) + log1p(exp(-|x|))``."""
    x = np.asarray(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


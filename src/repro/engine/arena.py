"""Buffer-reuse arena for autograd temporaries.

Steady-state training repeats the same kernel shapes every step: layer
activations, gathered batch rows, scatter targets, gradient buffers.
Allocating each of those fresh per step costs allocator time and —
worse at scale — lets peak RSS creep as the C allocator fragments and
uncollected backward closures pin garbage between gc cycles.  This
module provides a small pool of reusable flat byte buffers keyed by
**size class**, so a checkout is served whatever its shape or dtype:

* Sizes round up to eighth-octave classes (``2**k · (1 + j/8)`` bytes,
  with a 4 KiB floor), so a pooled buffer wastes at most 12.5% of its
  bytes.  Minibatch subgraphs change row counts every step; exact
  ``(shape, dtype)`` keys would miss on most of them and fill the pool
  with shapes never seen again, while a size class reuses them.
* :func:`empty` / :func:`zeros` return a C-contiguous
  ``flat[:nbytes].view(dtype).reshape(shape)`` of a pooled buffer.
* :func:`step_scope` marks one optimizer step.  Buffers checked out
  inside the scope are recycled to the free lists when the scope
  exits — by then the step's gradients have been consumed by
  ``optimizer.step()`` and the loss scalar has been read, so nothing
  reachable still reads them.
* Scopes are per thread: a thread only pools while its *own* scope is
  open, and a scope's exit recycles only that thread's checkouts.  A
  serving or prefetch thread therefore never receives a buffer that
  another thread's step will hand out again.  The free lists are
  shared between threads under a lock.
* Outside any scope, :func:`empty` / :func:`zeros` degrade to plain
  ``np.empty`` / ``np.zeros`` — library users who never open a scope
  see stock allocation behaviour.
* :func:`release` hands a buffer back *within* a step for immediate
  reuse (kernel-internal temporaries).

Every pooled buffer is fully overwritten before it is read (``zeros``
clears; ``empty`` callers write every element), so pooled and
allocate-fresh runs are bitwise identical — the allocate-fresh path
(``TrainConfig(arena=False)``) is kept as the parity oracle.

The pool is capped at :data:`CAP_BYTES` (1 GiB); when the cap is
exceeded at scope exit the least-recently-used size classes are dropped
back to the allocator.

Buffers below :data:`MIN_BYTES` (64 KiB) bypass the pool even inside a
scope: at tiny shapes the allocator is already ~free and the
per-checkout bookkeeping would dominate, while the RSS the arena exists
to save lives entirely in the large buffers.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Tuple

import numpy as np

# Smallest size class; every pooled buffer is at least this many bytes.
_CLASS_FLOOR = 4096

#: Pooled bytes kept across steps before LRU size classes are dropped.
CAP_BYTES = 1024 * 1024 * 1024

#: Checkouts smaller than this bypass the pool.
MIN_BYTES = 64 * 1024


def _nbytes(shape: Tuple[int, ...], dtype) -> int:
    nbytes = np.dtype(dtype).itemsize
    for dim in shape:
        nbytes *= dim
    return nbytes


def size_class(nbytes: int) -> int:
    """The pooled byte size serving a request of ``nbytes``.

    Eighth-octave classes above a 4 KiB floor: ``nbytes`` rounds up to
    the next multiple of ``2**(k-3)`` where ``2**k <= nbytes``, so the
    slack is below one eighth of the request.
    """
    if nbytes <= _CLASS_FLOOR:
        return _CLASS_FLOOR
    step = 1 << (nbytes.bit_length() - 4)
    return -(-nbytes // step) * step


class _ThreadScope(threading.local):
    """One thread's scope depth and its ``id(view) -> (view, flat)`` checkouts."""

    def __init__(self):
        self.depth = 0
        self.out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


class BufferArena:
    """A size-class-keyed pool of reusable flat buffers."""

    def __init__(self, cap_bytes: int = CAP_BYTES, min_bytes: int = MIN_BYTES):
        self._free: Dict[int, List[np.ndarray]] = {}
        self._lru: Dict[int, int] = {}
        self._scope = _ThreadScope()
        self._clock = 0
        self._free_bytes = 0
        self._checked_out = 0
        self._lock = threading.Lock()
        self.cap_bytes = cap_bytes
        self.min_bytes = min_bytes
        self.hits = 0
        self.misses = 0

    # -- scope lifecycle ----------------------------------------------
    def active(self) -> bool:
        """Whether this thread has a step scope open (pooling engaged)."""
        return self._scope.depth > 0

    def pools(self, shape, dtype) -> bool:
        """Whether a checkout of ``(shape, dtype)`` would be pooled.

        False outside this thread's scope or below the small-buffer
        threshold — kernels use this to keep their allocation-free fast
        paths when pooling would not engage anyway.
        """
        if self._scope.depth <= 0:
            return False
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return _nbytes(shape, dtype) >= self.min_bytes

    @contextlib.contextmanager
    def step_scope(self) -> Iterator["BufferArena"]:
        """One optimizer step: recycle checked-out buffers on clean exit.

        On an exception the step's checkouts are *forgotten* instead of
        recycled: the dying graph (and the traceback's frames) may still
        reference them, so stashing them in the free lists would hand
        aliased buffers to the next step.  Forgotten buffers fall back
        to the allocator when their last reference dies.
        """
        scope = self._scope
        scope.depth += 1
        try:
            yield self
        except BaseException:
            scope.depth -= 1
            if scope.depth == 0:
                with self._lock:
                    self._checked_out -= len(scope.out)
                scope.out.clear()
            raise
        else:
            scope.depth -= 1
            if scope.depth == 0:
                self._recycle(scope)

    # -- checkout -----------------------------------------------------
    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialized buffer; pooled when a scope is active.

        Callers must overwrite every element before reading — the same
        contract as ``np.empty``, and what keeps pooled runs bitwise
        identical to allocate-fresh runs.  A pooled result is a
        C-contiguous view of a larger flat buffer.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if not self.pools(shape, dtype):
            return np.empty(shape, dtype=dtype)
        nbytes = _nbytes(shape, dtype)
        cls = size_class(nbytes)
        with self._lock:
            stack = self._free.get(cls)
            if stack:
                flat = stack.pop()
                self._free_bytes -= cls
                self.hits += 1
            else:
                flat = None
                self.misses += 1
            self._checked_out += 1
        if flat is None:
            flat = np.empty(cls, dtype=np.uint8)
        view = flat[:nbytes].view(dtype).reshape(shape)
        self._scope.out[id(view)] = (view, flat)
        return view

    def zeros(self, shape, dtype) -> np.ndarray:
        """A zero-filled buffer; pooled when a scope is active."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if not self.pools(shape, dtype):
            # np.zeros is calloc-backed: untouched pages stay virtual,
            # which matters for large mostly-sparse gradient targets.
            return np.zeros(shape, dtype=dtype)
        buf = self.empty(shape, dtype)
        buf[...] = 0
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` to the pool early for reuse within the step.

        A no-op for arrays this thread's scope did not check out, so
        kernels can call it unconditionally on buffers that may have
        come from ``np.empty`` outside a scope.
        """
        owned = self._scope.out.pop(id(buf), None)
        if owned is None:
            return
        with self._lock:
            self._checked_out -= 1
            self._stash_locked(owned[1])

    # -- internals ----------------------------------------------------
    def _stash_locked(self, flat: np.ndarray) -> None:
        cls = flat.nbytes
        self._free.setdefault(cls, []).append(flat)
        self._free_bytes += cls
        self._clock += 1
        self._lru[cls] = self._clock

    def _recycle(self, scope: _ThreadScope) -> None:
        with self._lock:
            for _, flat in scope.out.values():
                self._stash_locked(flat)
            self._checked_out -= len(scope.out)
            scope.out.clear()
            if self._free_bytes > self.cap_bytes:
                for cls in sorted(self._lru, key=self._lru.get):
                    stack = self._free.pop(cls, [])
                    self._free_bytes -= cls * len(stack)
                    del self._lru[cls]
                    if self._free_bytes <= self.cap_bytes:
                        break

    def clear(self) -> None:
        """Drop every pooled buffer (checked-out buffers are unaffected)."""
        with self._lock:
            self._free.clear()
            self._lru.clear()
            self._free_bytes = 0

    def stats(self) -> Dict[str, int]:
        """Pool counters: checkout hits/misses, pooled and checked-out counts.

        ``checked_out`` counts the open checkouts of every thread.
        """
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "free_bytes": self._free_bytes,
                    "checked_out": self._checked_out}

    def __repr__(self) -> str:
        s = self.stats()
        return (f"BufferArena(hits={s['hits']}, misses={s['misses']}, "
                f"free_bytes={s['free_bytes']})")


_ARENA = BufferArena()


def get_arena() -> BufferArena:
    """The process-wide arena instance."""
    return _ARENA


def step_scope():
    """Shorthand for ``get_arena().step_scope()``."""
    return _ARENA.step_scope()


def empty(shape, dtype) -> np.ndarray:
    """Checkout shorthand; plain ``np.empty`` outside a step scope."""
    return _ARENA.empty(shape, dtype)


def zeros(shape, dtype) -> np.ndarray:
    """Checkout shorthand; plain ``np.zeros`` outside a step scope."""
    return _ARENA.zeros(shape, dtype)


def release(buf: np.ndarray) -> None:
    """Return a buffer early; safe on arrays the arena does not own."""
    _ARENA.release(buf)

"""Spans recorded from outside the library, and the wrappers that make them.

The traced run patches the public functions at each module boundary on
the measured path (data → graph → models → autograd → engine → nn →
train → eval → serve), records one :class:`Span` per call, and removes
every patch again when it ends.  Nothing here edits the library: the
wrappers live in this file and are installed with ``setattr`` on the
library's modules and classes, and the engine kernels are timed by a
delegating backend activated through the public ``set_backend``.

Spans are kept in memory (one list append per call) and written out by
:meth:`Tracer.write` when the run ends.  Parents come from a per-thread
stack, so a span opened inside another span on the same thread is its
child, and :func:`self_times` subtracts covered child time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

from pipebench.stats import self_time

_MISSING = object()


class Span:
    """One timed call: name, interval, parent span, step/request id, thread."""

    __slots__ = ("name", "start", "end", "parent", "key", "thread", "value")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 key, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key
        self.thread = thread
        self.value = None  # optional per-call count (e.g. subgraph nodes)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the registry of installed patches."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.key = None  # current step or request id, set by the run loop
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None,
                    self.key, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``on_call(span, args, result)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_call is not None:
                on_call(span, args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str,
              on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        self._replace(owner, attr,
                      lambda current: self.wrap(name, current, on_call))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        counts = self.counts

        def make(current):
            @functools.wraps(current)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return current(*args, **kwargs)
            return counted

        self._replace(owner, attr, make)

    def _replace(self, owner, attr: str, make: Callable) -> None:
        # For classes, remember the class's *own* attribute (it may be
        # inherited, or a staticmethod/classmethod descriptor) so that
        # removal restores exactly what was there.
        own = vars(owner).get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        replacement = make(getattr(owner, attr))
        if isinstance(own, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)

        def undo():
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

        self._undo.append(undo)

    def on_exit(self, undo: Callable[[], None]) -> None:
        """Register extra clean-up to run in :meth:`uninstall`."""
        self._undo.append(undo)

    def uninstall(self) -> None:
        """Remove every patch, newest first (idempotent)."""
        while self._undo:
            self._undo.pop()()

    # -- output -----------------------------------------------------------
    def write(self, path) -> None:
        """Write all spans as JSON lines (times relative to the first span)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name,
                    "start": span.start - origin, "end": span.end - origin,
                    "parent": ids.get(id(span.parent)) if span.parent else None,
                    "key": span.key, "thread": span.thread,
                    "value": span.value}) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one attribute lookup."""

    key = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``id(span) -> self time`` (duration minus child-covered time)."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return {id(span): self_time(span.start, span.end,
                                [(c.start, c.end) for c in children[id(span)]])
            for span in spans}


def make_traced_backend(tracer: Tracer, inner):
    """A kernel backend that times every kernel of ``inner`` as a span.

    It subclasses the engine's ``KernelBackend`` so the public entry
    points (and their counters) are unchanged; only the private kernel
    implementations are wrapped, each delegating to ``inner``.
    """
    from repro.engine.backends import KernelBackend

    def delegate(kernel: str, span_name: str):
        target = getattr(inner, kernel)
        return tracer.wrap(span_name, lambda self, *a, **kw: target(*a, **kw))

    attrs = {"name": f"traced-{inner.name}"}
    for kernel, span_name in KERNEL_SPANS.items():
        attrs[kernel] = delegate(kernel, span_name)
    return type("TracedBackend", (KernelBackend,), attrs)()


# Private kernel method -> span name.  Every kernel must delegate (the
# base class raises NotImplementedError); DGNN with the compiler off never
# calls the segment reductions or the fused BPR tail.
KERNEL_SPANS = {
    "_spmm": "engine.spmm",
    "_memory_mixture": "engine.memory_mixture",
    "_memory_mixture_backward": "engine.memory_mixture_backward",
    "_gathered_rowwise_dot": "engine.gathered_rowwise_dot",
    "_gather_rows": "engine.gather_rows",
    "_scatter_add_rows": "engine.scatter_add_rows",
    "_segment_sum": "engine.segment",
    "_bpr_tail": "engine.bpr_tail",
    "_bpr_tail_backward": "engine.bpr_tail",
}


def install(tracer: Tracer, model_cls) -> None:
    """Patch every layer boundary on the measured path.

    ``model_cls`` is the trained model's class (the loss and embedding
    entry points are patched on it, so inherited methods are covered
    and removal restores inheritance).
    """
    import repro.data.sampling as data_sampling
    import repro.eval as eval_api
    import repro.eval.full_ranking as full_ranking
    import repro.eval.metrics as eval_metrics
    import repro.models.base as models_base
    import repro.models.coldstart as coldstart
    import repro.serve.ann as serve_ann
    import repro.serve.service as serve_service
    import repro.train.pipeline as train_pipeline
    import repro.train.trainer as train_trainer
    from repro.autograd.tensor import Tensor
    from repro.engine import backends
    from repro.models.memory import MemoryBank
    from repro.nn.optim import Adam
    from repro.serve.ann import CoarseIndex
    from repro.serve.snapshot import EmbeddingSnapshot, SnapshotStore

    patch = tracer.patch
    # data / graph / train
    patch(data_sampling.BprSampler, "sample", "data.bpr_sample")

    def subgraph_size(span, args, view):
        span.value = int(view.user_ids.size + view.item_ids.size)

    patch(train_pipeline, "sample_subgraph_view", "graph.subgraph", subgraph_size)
    patch(train_pipeline.PrefetchPipeline, "__next__", "train.prefetch_wait")
    # models
    patch(model_cls, "bpr_loss", "models.forward")
    patch(model_cls, "bpr_loss_on", "models.forward")
    original_final = model_cls.final_embeddings

    def final_embeddings(self):
        # Only cache misses compute anything; hits are not spans.
        if getattr(self, "_cached_embeddings", None) is not None:
            return original_final(self)
        with tracer.span("models.final_embeddings"):
            return original_final(self)

    tracer._replace(model_cls, "final_embeddings", lambda current: final_embeddings)
    for method in ("encode_target_gated", "encode_source_gated", "encode_self"):
        patch(MemoryBank, method, "models.memory_bank")
    # autograd
    patch(Tensor, "backward", "autograd.backward")
    tracer.count_calls(Tensor, "_make", "autograd.op_calls")
    # nn
    patch(Adam, "step", "nn.optimizer_step")
    patch(Adam, "zero_grad", "nn.zero_grad")
    patch(train_trainer, "clip_grad_norm", "nn.clip")
    # eval (the package attribute is what the benchmark calls; the
    # trainer holds its own imported reference)
    patch(eval_api, "evaluate_model", "eval.sampled")
    patch(train_trainer, "evaluate_model", "eval.sampled")
    patch(eval_api, "evaluate_full_ranking", "eval.full_ranking")
    for module in (eval_metrics, eval_api, full_ranking, serve_service,
                   serve_ann, models_base, coldstart):
        patch(module, "top_k_indices", "eval.topk")
    # serve
    Service = serve_service.RecommendService
    patch(Service, "recommend", "serve.recommend")
    patch(Service, "recommend_cold_user", "serve.cold")
    patch(Service, "swap", "serve.swap")
    patch(CoarseIndex, "probe", "serve.probe")
    patch(serve_service, "build_ivf_index", "serve.index_build")
    patch(SnapshotStore, "publish", "serve.publish")
    patch(SnapshotStore, "load", "serve.load")
    patch(EmbeddingSnapshot, "from_model", "serve.snapshot_build")
    # engine: a delegating backend, switched in through the public
    # set_backend (not registered: the registry has no public removal,
    # and the traced run must leave nothing behind)
    previous = backends.get_backend()
    backends.set_backend(make_traced_backend(tracer, previous))
    tracer.on_exit(lambda: backends.set_backend(previous))

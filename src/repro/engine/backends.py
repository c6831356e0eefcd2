"""Pluggable kernel backends for all sparse propagation math.

Every neighbourhood aggregation in the repository bottoms out in four
kernel families — sparse-matrix × dense-matrix products (``spmm``),
gathered row-wise dot products (the SDDMM-style kernel behind BPR
scoring), segment reductions over explicit edge lists, and the fused
memory-mixture transform behind DGNN's Eq. 3
(``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``) — plus
the dense kernels of DGNN's training step: Eq. 7's LayerNorm and the
fused BPR loss tail.  This module owns those kernels behind a
:class:`KernelBackend` interface so there is exactly one place to
optimize every model's hot path:

* ``"naive"`` — transparent Python-loop reference implementations; the
  correctness oracle the parity test suite checks the others against.
* ``"fast"``  — vectorized CSR kernels (scipy's compiled spmm, fused
  einsum gather+dot, scatter reductions as stable CSR row sums, the memory
  mixture as one wide ``(n, d) × (d, |M|·d)`` GEMM plus a batched gate
  contraction, LayerNorm with its row means as BLAS GEMVs).

The active backend (``"fast"`` unless changed) is selected with
:func:`set_backend` or the :func:`use_backend` context manager;
:mod:`repro.autograd.ops` routes
``spmm`` / ``segment_sum`` / ``gathered_rowwise_dot`` /
``memory_mixture`` / ``layer_norm`` / ``bpr_tail`` through it.  Each
dispatch records call counts, nonzeros, dense-FLOP and bytes-moved
estimates in :mod:`repro.engine.instrument`.  Kernels compute in the
dtype of their inputs; the engine-wide precision policy lives in
:mod:`repro.engine.precision`.

Orthogonally to backend choice, :mod:`repro.engine.locality` supplies a
cache-blocked spmm (plus chunked gather and coalescing scatter) that the
``fast`` backend switches to when an spmm block budget is active
(``set_spmm_block`` / ``TrainConfig.spmm_block``); the blocked
spmm is bitwise identical to the flat kernel.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.engine import arena, locality
from repro.engine.instrument import counters
from repro.engine.stable_math import stable_sigmoid, stable_softplus

try:  # pragma: no cover - import guard for exotic scipy builds
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None


def _mean_column(dim: int, dtype) -> np.ndarray:
    """A ``(dim, 1)`` column of ``1/dim``: ``x @ col`` is the row mean."""
    return np.full((dim, 1), 1.0 / dim, dtype=dtype)


def _side_by_side(transforms: np.ndarray) -> np.ndarray:
    """``(M, d, k)`` unit matrices as one ``(d, M·k)`` block row."""
    units, dim, width = transforms.shape
    return transforms.transpose(1, 0, 2).reshape(dim, units * width)


def _out_buffer(shape, dtype, out: Optional[np.ndarray],
                zero: bool) -> np.ndarray:
    """Resolve an ``out=`` argument: caller buffer, arena, or fresh."""
    if out is None:
        return arena.zeros(shape, dtype) if zero else arena.empty(shape, dtype)
    if zero:
        out[...] = 0
    return out


_ROW_SUM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _row_sum_into(out: np.ndarray, indices: np.ndarray,
                  rows: np.ndarray) -> None:
    """``np.add.at(out, indices, rows)``, bit for bit, as a CSR row sum.

    The scatter runs as a row sum: an ``indptr`` from ``bincount``,
    the gradient rows ordered by a stable ``argsort`` of their targets,
    and ``csr_matvecs`` with unit weights summing them into ``out``.
    Stability keeps each target's terms in index order, and ``1 · x``
    is exact, so every output row is the same left-to-right sum
    ``np.add.at`` forms.  Anything the kernel cannot take as is — a
    dtype other than float32/float64 or a mismatch, a non-contiguous
    ``out``, broadcast ``rows``, indices outside
    ``[0, len(out))`` — goes to ``np.add.at``, which keeps its own
    semantics (negative indices wrap, others raise).
    """
    flat = indices.reshape(-1)
    num_rows = out.shape[0]
    width = int(np.prod(out.shape[1:], dtype=np.int64))
    if flat.size == 0 or width == 0:
        return
    if (_csr_tools is None or out.dtype not in _ROW_SUM_DTYPES
            or rows.dtype != out.dtype
            or not out.flags.c_contiguous
            or rows.shape != indices.shape + out.shape[1:]
            or int(flat.min()) < 0 or int(flat.max()) >= num_rows):
        np.add.at(out, indices, rows)
        return
    order = np.argsort(flat, kind="stable")
    indptr = np.zeros(num_rows + 1, dtype=order.dtype)
    np.cumsum(np.bincount(flat, minlength=num_rows), out=indptr[1:])
    values = np.ascontiguousarray(rows).reshape(flat.size, width)
    _csr_tools.csr_matvecs(num_rows, flat.size, width, indptr, order,
                           np.ones(flat.size, dtype=out.dtype),
                           values.ravel(), out.reshape(-1))


class KernelBackend:
    """Interface + instrumentation shell for the sparse kernel set.

    Subclasses implement the ``_``-prefixed kernels on plain numpy
    arrays (the LayerNorm pair has a vectorized default here); the
    public methods time each call and feed the global counters.
    Kernels preserve the floating dtype of their inputs
    (``float64`` by default, ``float32`` under the opt-in precision
    policy of :mod:`repro.engine.precision`).
    """

    name = "abstract"

    # -- public, instrumented entry points -----------------------------
    def spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
             out: Optional[np.ndarray] = None,
             accumulate: bool = False) -> np.ndarray:
        """``matrix @ dense`` for a CSR matrix and an ``(n, d)`` array.

        ``out``, when given, receives the product in place (it is fully
        overwritten).  When omitted and an arena step scope is active,
        the result buffer is checked out of the pool.  ``accumulate``
        requires ``out`` and computes ``out += matrix @ dense`` instead
        — the fused form of a propagation sum like ``social·U + Y·I``,
        which skips one zeroing pass and the separate elementwise add.
        Per output element the new terms extend the existing value in
        ascending column order, so flat and blocked paths stay bitwise
        identical to each other under ``accumulate`` as well.
        """
        if accumulate and out is None:
            raise ValueError("spmm(accumulate=True) requires an out= buffer")
        start = time.perf_counter()
        out = self._spmm(matrix, dense, out=out, accumulate=accumulate)
        width = dense.shape[1] if dense.ndim > 1 else 1
        item = dense.dtype.itemsize
        index_bytes = matrix.indices.dtype.itemsize + matrix.data.dtype.itemsize
        counters().record_kernel(
            "spmm", time.perf_counter() - start,
            nnz=matrix.nnz,
            flops=2.0 * matrix.nnz * width,
            # one dense-row read per nonzero, CSR structure once, the
            # output tile zeroed + accumulated once
            bytes_moved=(matrix.nnz * (width * item + index_bytes)
                         + 2.0 * matrix.shape[0] * width * item))
        return out

    def gathered_rowwise_dot(self, a: np.ndarray, a_indices: np.ndarray,
                             b: np.ndarray,
                             b_indices: np.ndarray) -> np.ndarray:
        """Fused gather + row-wise dot: ``sum(a[ai] * b[bi], axis=1)``.

        The BPR scoring kernel: computes per-pair scores without
        materializing the gathered ``(batch, d)`` copies.
        """
        start = time.perf_counter()
        out = self._gathered_rowwise_dot(a, a_indices, b, b_indices)
        counters().record_kernel(
            "gathered_rowwise_dot", time.perf_counter() - start,
            flops=2.0 * len(a_indices) * a.shape[1],
            bytes_moved=(2.0 * len(a_indices) * a.shape[1] * a.dtype.itemsize
                         + len(a_indices) * out.dtype.itemsize))
        return out

    def gather_rows(self, table: np.ndarray, indices: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Row gather ``table[indices]`` — the embedding-lookup kernel.

        The forward half of minibatch seed gathering: sampled paths pull
        the subgraph's rows out of the global embedding tables through
        this kernel so the engine counters see lookup traffic alongside
        spmm traffic.
        """
        start = time.perf_counter()
        out = self._gather_rows(table, indices, out=out)
        width = int(np.prod(table.shape[1:])) if table.ndim > 1 else 1
        counters().record_kernel(
            "gather_rows", time.perf_counter() - start,
            flops=float(indices.size) * width,
            bytes_moved=2.0 * indices.size * width * table.dtype.itemsize)
        return out

    def scatter_add_rows(self, grad: np.ndarray, indices: np.ndarray,
                         num_rows: int,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
        """Scatter-add rows into a zeroed ``(num_rows, ...)`` array.

        The backward half of :meth:`gather_rows`: duplicated indices
        accumulate, which routes subgraph gradients back to the global
        embedding tables.  ``out``, when given, is zeroed then
        accumulated into.
        """
        start = time.perf_counter()
        out = self._scatter_add_rows(grad, indices, num_rows, out=out)
        width = int(np.prod(grad.shape[indices.ndim:])) if grad.ndim else 1
        counters().record_kernel(
            "scatter_add_rows", time.perf_counter() - start,
            flops=float(indices.size) * width,
            # each gradient row read once, its target row read + written,
            # plus the zeroing pass over the output table
            bytes_moved=(3.0 * indices.size * width * grad.dtype.itemsize
                         + float(num_rows) * width * grad.dtype.itemsize))
        return out

    def segment_sum(self, values: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Sum rows of ``values`` sharing a segment id."""
        start = time.perf_counter()
        out = self._segment_sum(values, segment_ids, num_segments)
        width = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
        counters().record_kernel("segment_sum", time.perf_counter() - start,
                                 flops=float(values.shape[0]) * width)
        return out

    def segment_mean(self, values: np.ndarray, segment_ids: np.ndarray,
                     num_segments: int) -> np.ndarray:
        """Mean of rows of ``values`` sharing a segment id (empty → 0)."""
        start = time.perf_counter()
        sums = self._segment_sum(values, segment_ids, num_segments)
        sizes = np.bincount(segment_ids,
                            minlength=num_segments).astype(values.dtype)
        scale = np.divide(1.0, sizes, out=np.zeros_like(sizes),
                          where=sizes > 0)
        out = sums * scale.reshape((num_segments,) + (1,) * (sums.ndim - 1))
        width = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
        counters().record_kernel("segment_mean", time.perf_counter() - start,
                                 flops=float(values.shape[0]) * width)
        return out

    def memory_mixture(self, embeddings: np.ndarray, gates: np.ndarray,
                       transforms: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fused gated mixture-of-transforms (DGNN Eq. 3 forward).

        ``embeddings`` is ``(n, d)``, ``gates`` is ``(n, M)`` and
        ``transforms`` is ``(M, d, d)``; the result is
        ``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``,
        computed without materializing ``(n, M, d)`` per-unit
        temporaries.
        """
        start = time.perf_counter()
        out = self._memory_mixture(embeddings, gates, transforms, out=out)
        units, dim = transforms.shape[0], transforms.shape[1]
        counters().record_kernel(
            "memory_mixture", time.perf_counter() - start,
            flops=2.0 * embeddings.shape[0] * units * dim * dim)
        return out

    def memory_mixture_backward(
            self, grad_out: np.ndarray, embeddings: np.ndarray,
            gates: np.ndarray, transforms: np.ndarray,
            needs: Tuple[bool, bool, bool] = (True, True, True),
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Hand-written backward of :meth:`memory_mixture`.

        Returns ``(grad_embeddings, grad_gates, grad_transforms)``;
        entries whose ``needs`` flag is ``False`` are skipped and
        returned as ``None``.
        """
        start = time.perf_counter()
        grads = self._memory_mixture_backward(grad_out, embeddings, gates,
                                              transforms, needs)
        units, dim = transforms.shape[0], transforms.shape[1]
        counters().record_kernel(
            "memory_mixture_backward", time.perf_counter() - start,
            flops=2.0 * sum(needs) * embeddings.shape[0] * units * dim * dim)
        return grads

    def layer_norm(self, x: np.ndarray, scale: np.ndarray,
                   shift: np.ndarray, eps: float
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """LayerNorm over the last axis with an affine map (DGNN Eq. 7).

        Returns ``(out, normed, inv_std)``: ``normed = (x - mean) ·
        inv_std`` with ``inv_std = 1 / sqrt(var + eps)`` of shape
        ``x.shape[:-1] + (1,)`` (biased variance), and ``out = normed ·
        scale + shift``.  ``normed`` and ``inv_std`` are what
        :meth:`layer_norm_backward` consumes.
        """
        start = time.perf_counter()
        out, normed, inv_std = self._layer_norm(x, scale, shift, eps)
        size = float(x.size)
        counters().record_kernel(
            "layer_norm", time.perf_counter() - start,
            flops=9.0 * size, bytes_moved=6.0 * size * x.dtype.itemsize)
        return out, normed, inv_std

    def layer_norm_backward(
            self, grad_out: np.ndarray, normed: np.ndarray,
            inv_std: np.ndarray, scale: np.ndarray,
            needs: Tuple[bool, bool, bool] = (True, True, True),
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Backward of :meth:`layer_norm`.

        Returns ``(grad_x, grad_scale, grad_shift)``; entries whose
        ``needs`` flag is ``False`` are skipped and returned as ``None``.
        """
        start = time.perf_counter()
        grads = self._layer_norm_backward(grad_out, normed, inv_std, scale,
                                          needs)
        size = float(grad_out.size)
        counters().record_kernel(
            "layer_norm_backward", time.perf_counter() - start,
            flops=10.0 * size,
            bytes_moved=7.0 * size * grad_out.dtype.itemsize)
        return grads

    def bpr_tail(self, pos_scores: np.ndarray, neg_scores: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused BPR loss tail: ``-mean(log_sigmoid(pos - neg))``.

        Collapses the ``sub → neg → softplus → neg → mean → neg`` op
        chain into one kernel, bitwise-identical to the chain (IEEE
        negation commutes exactly with pairwise summation and division,
        so ``mean(softplus(neg - pos))`` equals the doubly-negated chain
        value bit for bit).  Returns ``(loss, diff)`` where ``loss`` is
        a 0-d array and ``diff = pos - neg`` is retained for
        :meth:`bpr_tail_backward`.
        """
        start = time.perf_counter()
        loss, diff = self._bpr_tail(pos_scores, neg_scores)
        n = float(pos_scores.size)
        item = pos_scores.dtype.itemsize
        counters().record_kernel(
            "bpr_tail", time.perf_counter() - start,
            flops=8.0 * n, bytes_moved=4.0 * n * item)
        return loss, diff

    def bpr_tail_backward(self, diff: np.ndarray, upstream: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Backward of :meth:`bpr_tail`.

        ``upstream`` is the (0-d) gradient flowing into the loss value.
        Returns ``(grad_pos, grad_neg) = (-ga, ga)`` with
        ``ga = (upstream / diff.size) · sigmoid(neg - pos)`` — the
        ``sigmoid·(1−sigmoid)``-family tail collapsed to a single stable
        sigmoid, bitwise-identical to the op chain's backward closures.
        """
        start = time.perf_counter()
        grads = self._bpr_tail_backward(diff, upstream)
        n = float(diff.size)
        item = diff.dtype.itemsize
        counters().record_kernel(
            "bpr_tail_backward", time.perf_counter() - start,
            flops=6.0 * n, bytes_moved=3.0 * n * item)
        return grads

    # -- kernels to implement ------------------------------------------
    def _spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
              out=None, accumulate: bool = False) -> np.ndarray:
        raise NotImplementedError

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices) -> np.ndarray:
        raise NotImplementedError

    def _gather_rows(self, table, indices, out=None) -> np.ndarray:
        raise NotImplementedError

    def _scatter_add_rows(self, grad, indices, num_rows,
                          out=None) -> np.ndarray:
        raise NotImplementedError

    def _segment_sum(self, values, segment_ids, num_segments) -> np.ndarray:
        raise NotImplementedError

    def _memory_mixture(self, embeddings, gates, transforms,
                        out=None) -> np.ndarray:
        raise NotImplementedError

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        raise NotImplementedError

    def _bpr_tail(self, pos_scores, neg_scores):
        raise NotImplementedError

    def _bpr_tail_backward(self, diff, upstream):
        raise NotImplementedError

    # LayerNorm has a working default here (the vectorized kernel the
    # ``fast`` backend uses), so a backend that delegates only the
    # kernels above still runs every model.
    def _layer_norm(self, x, scale, shift, eps):
        dtype = x.dtype
        # Row means as BLAS GEMVs: a reduction along a 16-wide last axis
        # is all per-row loop overhead in numpy, a GEMV is not.
        col = _mean_column(x.shape[-1], dtype)
        mean = x @ col
        normed = arena.empty(x.shape, dtype)
        np.subtract(x, mean, out=normed)
        squares = arena.empty(x.shape, dtype)
        np.multiply(normed, normed, out=squares)
        inv_std = squares @ col
        arena.release(squares)
        inv_std += dtype.type(eps)
        np.sqrt(inv_std, out=inv_std)
        np.reciprocal(inv_std, out=inv_std)
        normed *= inv_std
        out = arena.empty(x.shape, dtype)
        np.multiply(normed, scale, out=out)
        out += shift
        return out, normed, inv_std

    def _layer_norm_backward(self, grad_out, normed, inv_std, scale, needs):
        dtype = normed.dtype
        dim = normed.shape[-1]
        rows = grad_out.reshape(-1, dim)
        grad_x = grad_scale = grad_shift = None
        if needs[1]:
            prod = arena.empty(rows.shape, dtype)
            np.multiply(rows, normed.reshape(-1, dim), out=prod)
            grad_scale = prod.sum(axis=0)
            arena.release(prod)
        if needs[2]:
            grad_shift = rows.sum(axis=0)
        if needs[0]:
            # dx = inv_std · (ĝ - mean(ĝ) - x̂ · mean(ĝ · x̂)),  ĝ = g · scale
            col = _mean_column(dim, dtype)
            grad_x = arena.empty(normed.shape, dtype)
            np.multiply(grad_out, scale, out=grad_x)
            mean_g = grad_x @ col
            work = arena.empty(normed.shape, dtype)
            np.multiply(grad_x, normed, out=work)
            mean_gn = work @ col
            np.multiply(normed, mean_gn, out=work)
            grad_x -= mean_g
            grad_x -= work
            grad_x *= inv_std
            arena.release(work)
        return grad_x, grad_scale, grad_shift

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NaiveBackend(KernelBackend):
    """Loop-based reference kernels — slow, obviously correct."""

    name = "naive"

    def _spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
              out=None, accumulate: bool = False) -> np.ndarray:
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        out = _out_buffer((matrix.shape[0],) + dense.shape[1:],
                          np.result_type(matrix.dtype, dense.dtype),
                          out, zero=not accumulate)
        for row in range(matrix.shape[0]):
            start, stop = indptr[row], indptr[row + 1]
            for position in range(start, stop):
                out[row] += data[position] * dense[indices[position]]
        return out

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices) -> np.ndarray:
        out = np.zeros(len(a_indices), dtype=np.result_type(a.dtype, b.dtype))
        for position in range(len(a_indices)):
            out[position] = np.dot(a[a_indices[position]],
                                   b[b_indices[position]])
        return out

    def _gather_rows(self, table, indices, out=None) -> np.ndarray:
        flat = indices.reshape(-1)
        out = _out_buffer(indices.shape + table.shape[1:], table.dtype,
                          out, zero=False)
        flat_out = out.reshape((len(flat),) + table.shape[1:])
        for position in range(len(flat)):
            flat_out[position] = table[flat[position]]
        return out

    def _scatter_add_rows(self, grad, indices, num_rows,
                          out=None) -> np.ndarray:
        flat = indices.reshape(-1)
        rows = grad.reshape((len(flat),) + grad.shape[indices.ndim:])
        out = _out_buffer((num_rows,) + rows.shape[1:], grad.dtype,
                          out, zero=True)
        for position in range(len(flat)):
            out[flat[position]] += rows[position]
        return out

    def _segment_sum(self, values, segment_ids, num_segments) -> np.ndarray:
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        for position in range(values.shape[0]):
            out[segment_ids[position]] += values[position]
        return out

    def _memory_mixture(self, embeddings, gates, transforms,
                        out=None) -> np.ndarray:
        num_nodes = embeddings.shape[0]
        num_units = transforms.shape[0]
        out = _out_buffer(embeddings.shape, embeddings.dtype, out, zero=True)
        for node in range(num_nodes):
            mixed = np.zeros_like(transforms[0])
            for unit in range(num_units):
                mixed += gates[node, unit] * transforms[unit]
            out[node] = embeddings[node] @ mixed
        return out

    def _bpr_tail(self, pos_scores, neg_scores):
        # Literal transcription of the op chain — the oracle the fast
        # kernel is parity-checked against.
        diff = np.subtract(pos_scores, neg_scores)
        neg_diff = np.negative(diff)
        softplus_val = stable_softplus(neg_diff)
        log_sig = np.negative(softplus_val)
        loss = np.negative(np.mean(log_sig))
        return np.asarray(loss), diff

    def _bpr_tail_backward(self, diff, upstream):
        # One op-chain backward closure per line, in closure order.
        mean_grad = np.negative(upstream)                    # final neg
        log_sig_grad = np.broadcast_to(mean_grad / diff.size,  # mean
                                       diff.shape)
        softplus_grad = np.negative(log_sig_grad)            # inner neg
        neg_diff = np.negative(diff)
        neg_diff_grad = softplus_grad * stable_sigmoid(neg_diff)  # softplus
        diff_grad = np.negative(neg_diff_grad)               # first neg
        grad_pos = diff_grad                                 # sub, a side
        grad_neg = np.negative(diff_grad)                    # sub, b side
        return grad_pos, grad_neg

    def _layer_norm(self, x, scale, shift, eps):
        # Literal transcription of the nine-op chain the fused op
        # replaced — the oracle the vectorized kernel is checked against.
        mu = np.mean(x, axis=-1, keepdims=True)
        centered = np.subtract(x, mu)
        var = np.mean(np.multiply(centered, centered), axis=-1, keepdims=True)
        sd = np.sqrt(np.add(var, x.dtype.type(eps)))
        normed = np.divide(centered, sd)
        out = np.add(np.multiply(normed, scale), shift)
        return out, normed, np.divide(x.dtype.type(1.0), sd)

    def _layer_norm_backward(self, grad_out, normed, inv_std, scale, needs):
        # The chain's backward closures in reverse order; its retained
        # ``sd`` and ``centered`` are rebuilt from the kernel's outputs.
        dim = normed.shape[-1]
        sd = np.divide(normed.dtype.type(1.0), inv_std)
        centered = np.multiply(normed, sd)
        rows = grad_out.reshape(-1, dim)
        grad_shift = rows.sum(axis=0) if needs[2] else None      # add
        grad_scale = (np.multiply(rows, normed.reshape(-1, dim)).sum(axis=0)
                      if needs[1] else None)                     # mul
        if not needs[0]:
            return None, grad_scale, grad_shift
        g_normed = np.multiply(grad_out, scale)                  # mul
        g_centered = np.divide(g_normed, sd)                     # div, a
        g_sd = np.sum(-g_normed * centered / (sd * sd), axis=-1,
                      keepdims=True)                             # div, b
        g_var = g_sd * 0.5 / sd                                  # sqrt, add
        g_squares = np.broadcast_to(g_var / dim, normed.shape)   # mean
        g_centered = g_centered + g_squares * centered           # mul, a
        g_centered = g_centered + g_squares * centered           # mul, b
        g_mu = np.sum(-g_centered, axis=-1, keepdims=True)       # sub, b
        grad_x = g_centered + np.broadcast_to(g_mu / dim,
                                              normed.shape)      # mean
        return grad_x, grad_scale, grad_shift

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        num_nodes = embeddings.shape[0]
        num_units = transforms.shape[0]
        grad_emb = np.zeros_like(embeddings) if needs[0] else None
        grad_gates = np.zeros_like(gates) if needs[1] else None
        grad_transforms = np.zeros_like(transforms) if needs[2] else None
        for node in range(num_nodes):
            if needs[0]:
                mixed = np.zeros_like(transforms[0])
                for unit in range(num_units):
                    mixed += gates[node, unit] * transforms[unit]
                grad_emb[node] = mixed @ grad_out[node]
            for unit in range(num_units):
                if needs[1]:
                    grad_gates[node, unit] = (
                        embeddings[node] @ transforms[unit] @ grad_out[node])
                if needs[2]:
                    grad_transforms[unit] += gates[node, unit] * np.outer(
                        embeddings[node], grad_out[node])
        return grad_emb, grad_gates, grad_transforms


class FastBackend(KernelBackend):
    """Vectorized CSR kernels (scipy spmm, einsum, scatter-add)."""

    name = "fast"

    def _spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
              out=None, accumulate: bool = False) -> np.ndarray:
        dtype = np.result_type(matrix.dtype, dense.dtype)
        out_shape = (matrix.shape[0],) + dense.shape[1:]
        block_bytes = locality.get_spmm_block()
        if (out is None and block_bytes is None
                and not arena.get_arena().pools(out_shape, dtype)):
            return matrix @ dense
        out = _out_buffer(out_shape, dtype, out, zero=False)
        if (block_bytes is not None
                and locality.can_block_spmm(matrix, dense, out)):
            # Row-block CSC streaming: the output tile stays
            # cache-resident while the dense operand is read in
            # ascending column order.  Per-element accumulation order
            # matches csr_matvecs on sorted indices, so the result is
            # bitwise identical to the flat path below.
            return locality.blocked_spmm(matrix, dense, out,
                                         block_bytes=block_bytes,
                                         accumulate=accumulate)
        if (_csr_tools is not None and dense.ndim == 2
                and matrix.dtype == dense.dtype == out.dtype
                and matrix.indices.dtype == matrix.indptr.dtype
                and dense.flags.c_contiguous and out.flags.c_contiguous):
            # scipy's own __matmul__ bottoms out in csr_matvecs on a
            # zeroed result, so writing through it is bitwise identical
            # to `matrix @ dense` — minus the fresh allocation.  The
            # kernel sums into its output, which is exactly the
            # ``accumulate`` contract when the zeroing is skipped.
            if not accumulate:
                out[...] = 0
            _csr_tools.csr_matvecs(
                matrix.shape[0], matrix.shape[1], dense.shape[1],
                matrix.indptr, matrix.indices, matrix.data,
                dense.ravel(), out.ravel())
        elif accumulate:
            out += matrix @ dense
        else:
            out[...] = matrix @ dense
        return out

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices) -> np.ndarray:
        return np.einsum("nd,nd->n", a[a_indices], b[b_indices])

    def _gather_rows(self, table, indices, out=None) -> np.ndarray:
        out_shape = indices.shape + table.shape[1:]
        block_bytes = locality.get_spmm_block()
        if (out is None and block_bytes is None
                and not arena.get_arena().pools(out_shape, table.dtype)):
            return table[indices]
        out = _out_buffer(out_shape, table.dtype, out, zero=False)
        if block_bytes is not None and table.ndim > 1:
            return locality.gather_rows_blocked(table, indices, out,
                                                block_bytes=block_bytes)
        np.take(table, indices, axis=0, out=out)
        return out

    def _scatter_add_rows(self, grad, indices, num_rows,
                          out=None) -> np.ndarray:
        out = _out_buffer((num_rows,) + grad.shape[indices.ndim:],
                          grad.dtype, out, zero=True)
        if (locality.get_spmm_block() is not None
                and locality.scatter_add_rows_clustered(grad, indices, out)):
            return out
        _row_sum_into(out, indices, grad)
        return out

    def _segment_sum(self, values, segment_ids, num_segments) -> np.ndarray:
        out = arena.zeros((num_segments,) + values.shape[1:], values.dtype)
        _row_sum_into(out, segment_ids, values)
        return out

    def _memory_mixture(self, embeddings, gates, transforms,
                        out=None) -> np.ndarray:
        # One (n, d) × (d, M·d) GEMM against the unit transforms side by
        # side, then one batched matmul contracting each row's gates
        # with its M per-unit rows.  At d = 16 the |M| narrow GEMMs this
        # replaces were mostly per-call overhead.
        n, dim = embeddings.shape
        units = transforms.shape[0]
        dtype = np.result_type(embeddings.dtype, gates.dtype,
                               transforms.dtype)
        out = _out_buffer((n, dim), dtype, out, zero=False)
        wide = arena.empty((n, units * dim), dtype)
        np.matmul(embeddings, _side_by_side(transforms), out=wide)
        np.matmul(gates[:, None, :], wide.reshape(n, units, dim),
                  out=out[:, None, :])
        arena.release(wide)
        return out

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        n, dim = embeddings.shape
        units = transforms.shape[0]
        dtype = np.result_type(grad_out.dtype, embeddings.dtype,
                               gates.dtype, transforms.dtype)
        grad_emb = grad_gates = grad_transforms = None
        # One (n, M·d) workspace, released before returning.
        work = arena.empty((n, units * dim), dtype)
        if needs[0] or needs[1]:
            # dP = G @ [W_1ᵀ|…|W_Mᵀ]: row n holds W_m @ G[n] for every m.
            np.matmul(grad_out, _side_by_side(transforms.transpose(0, 2, 1)),
                      out=work)
            per_unit = work.reshape(n, units, dim)
            if needs[0]:
                grad_emb = arena.empty((n, dim), dtype)
                np.matmul(gates[:, None, :], per_unit,
                          out=grad_emb[:, None, :])
            if needs[1]:
                grad_gates = arena.empty((n, units), dtype)
                np.matmul(per_unit, embeddings[:, :, None],
                          out=grad_gates[:, :, None])
        if needs[2]:
            # grad_W[m] = Σ_n gates[n, m] · E[n]ᵀ G[n]: one (M·d, n) ×
            # (n, d) GEMM over the gate-scaled embeddings.  They are built
            # in (M, d, n) layout so the broadcast product runs along n,
            # not along a 16-wide last axis.
            emb_t = arena.empty((dim, n), dtype)
            np.copyto(emb_t, embeddings.T)
            gates_t = arena.empty((units, n), dtype)
            np.copyto(gates_t, gates.T)
            scaled = work.reshape(units, dim, n)
            np.multiply(gates_t[:, None, :], emb_t[None, :, :], out=scaled)
            grad_transforms = arena.empty(transforms.shape, dtype)
            np.matmul(work.reshape(units * dim, n), grad_out,
                      out=grad_transforms.reshape(units * dim, dim))
            arena.release(emb_t)
            arena.release(gates_t)
        arena.release(work)
        return grad_emb, grad_gates, grad_transforms

    def _bpr_tail(self, pos_scores, neg_scores):
        diff = np.subtract(pos_scores, neg_scores)
        # softplus(-diff) = max(-diff, 0) + log1p(exp(-|diff|)), built
        # in place (|−d| ≡ |d| bitwise).
        work = np.abs(diff)
        np.negative(work, out=work)
        np.exp(work, out=work)
        np.log1p(work, out=work)
        hinge = np.negative(diff)
        np.maximum(hinge, 0.0, out=hinge)
        np.add(hinge, work, out=work)
        # mean(softplus(-d)) == -mean(-softplus(-d)) bit for bit: IEEE
        # negation distributes exactly over pairwise sums and division.
        loss = work.mean()
        return np.asarray(loss), diff

    def _bpr_tail_backward(self, diff, upstream):
        sig = stable_sigmoid(np.negative(diff))
        # (upstream / n) == -((-upstream) / n) bitwise, so the chain's
        # double negation collapses to one scalar division.
        scale = np.true_divide(upstream, diff.size)
        grad_neg = np.multiply(sig, scale, out=sig)
        return np.negative(grad_neg), grad_neg


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (keyed by ``backend.name``)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NaiveBackend())
register_backend(FastBackend())


def available_backends() -> Dict[str, KernelBackend]:
    """Copy of the backend registry."""
    return dict(_REGISTRY)


def _resolve(backend: Union[str, KernelBackend]) -> KernelBackend:
    if isinstance(backend, KernelBackend):
        return backend
    if backend not in _REGISTRY:
        raise KeyError(f"unknown engine backend {backend!r}; "
                       f"known: {sorted(_REGISTRY)}")
    return _REGISTRY[backend]


_ACTIVE: KernelBackend = _REGISTRY["fast"]


def get_backend() -> KernelBackend:
    """The currently active kernel backend."""
    return _ACTIVE


def set_backend(backend: Union[str, KernelBackend]) -> KernelBackend:
    """Select the active backend by name or instance; returns it."""
    global _ACTIVE
    _ACTIVE = _resolve(backend)
    return _ACTIVE


@contextlib.contextmanager
def use_backend(backend: Union[str, KernelBackend]) -> Iterator[KernelBackend]:
    """Temporarily switch the active backend inside a ``with`` block."""
    previous = get_backend()
    active = set_backend(backend)
    try:
        yield active
    finally:
        set_backend(previous)

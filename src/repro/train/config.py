"""Training configuration.

Defaults mirror the paper's hyperparameter settings (Section V-A4):
Adam with learning rate 0.01, embedding dimension 16, batch size in the
[512, 4096] range, L2 coefficient 1e-4, 8 memory units, 2 graph layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

_PARALLEL_MODES = ("hogwild", "sync")


@dataclass
class TrainConfig:
    """Hyperparameters for :class:`repro.train.Trainer`."""

    epochs: int = 30
    batch_size: int = 1024
    learning_rate: float = 0.01
    l2: float = 1e-4
    weight_decay: float = 0.0  # Eq. 11's λ||Θ||², applied through Adam
    optimizer: str = "adam"  # "adam" (Section V-A4) or "sgd" (Alg. 1 box)
    momentum: float = 0.0  # SGD momentum (ignored by Adam)
    batches_per_epoch: Optional[int] = None  # None -> cover the training set once
    propagation: str = "full"  # "full" (Alg. 1) or "minibatch" (sampled)
    hops: Optional[int] = None  # minibatch closure depth; None -> model's exact depth
    fanout: Optional[int] = 20  # per-node neighbour cap; None -> keep all
    prefetch: bool = True  # build the next minibatch's subgraph on a worker thread
    sparse_grads: Optional[bool] = None  # None -> on for minibatch, off for full
    sparse_adam_mode: str = "lazy"  # "lazy" (O(batch) steps) or "dense_correct"
    arena: bool = True  # False -> allocate-fresh parity oracle
    compile: Optional[bool] = None  # removed step compiler; only None/False accepted
    workers: int = 0  # 0 -> in-process Trainer; >= 1 -> ParallelTrainer
    parallel_mode: str = "hogwild"  # "hogwild" or "sync"
    reorder: str = "identity"  # node relabeling the run's context was built with
    spmm_block: Optional[int] = None  # None -> engine setting; 0 off, 1 auto, else bytes
    eval_every: int = 1
    eval_ks: Tuple[int, ...] = (5, 10, 20)
    early_stopping_metric: str = "hr@10"
    patience: Optional[int] = 10
    clip_norm: Optional[float] = 5.0
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.propagation not in ("full", "minibatch"):
            raise ValueError("propagation must be 'full' or 'minibatch'")
        if self.hops is not None and self.hops < 0:
            raise ValueError("hops must be >= 0")
        if self.fanout is not None and self.fanout <= 0:
            raise ValueError("fanout must be positive (or None to keep all)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.sparse_adam_mode not in ("lazy", "dense_correct"):
            raise ValueError(
                "sparse_adam_mode must be 'lazy' or 'dense_correct'")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = single-process)")
        if self.workers > 0 and self.propagation != "minibatch":
            raise ValueError(
                f"workers={self.workers} requires propagation='minibatch': "
                f"full-graph steps touch every row, which defeats both "
                f"sharding and row-sparse hogwild writes")
        if self.parallel_mode not in _PARALLEL_MODES:
            raise ValueError(
                f"parallel_mode must be one of {_PARALLEL_MODES}")
        from repro.graph.reorder import REORDER_STRATEGIES
        if self.reorder not in REORDER_STRATEGIES:
            raise ValueError(f"reorder must be one of {REORDER_STRATEGIES}")
        if self.spmm_block is not None and self.spmm_block < 0:
            raise ValueError("spmm_block must be >= 0 (0 = flat kernels)")
        if self.compile:
            raise ValueError("compile=True is not supported: the step "
                             "compiler was removed and training always "
                             "runs eagerly; pass compile=None or False")

    def resolved_sparse_grads(self) -> bool:
        """Whether this run produces row-sparse embedding gradients.

        Defaults to on exactly when the sampled propagation path is
        selected — that is where embedding lookups touch O(batch) rows
        and the lazy optimizers pay off.  Full-graph propagation updates
        every row anyway, so sparse carriers would only add overhead.
        """
        if self.sparse_grads is not None:
            return bool(self.sparse_grads)
        return self.propagation == "minibatch"

    def resolved_spmm_block(self):
        """Blocked-spmm byte budget for this run (``None`` = flat kernels).

        An explicit ``spmm_block`` goes through
        :func:`repro.engine.locality.parse_block_setting` (``0`` off,
        ``1`` the auto per-call budget, else bytes); otherwise the
        engine-wide setting (:func:`~repro.engine.locality.set_spmm_block`)
        applies.
        """
        from repro.engine import locality
        if self.spmm_block is not None:
            return locality.parse_block_setting(self.spmm_block)
        return locality.get_spmm_block()


@dataclass
class PaperHyperparameters:
    """The model-side settings of Section V-A4, for reference and sweeps."""

    embed_dim: int = 16
    num_layers: int = 2
    num_memory_units: int = 8
    embed_dim_grid: Tuple[int, ...] = (4, 8, 16, 32)
    layer_grid: Tuple[int, ...] = (0, 1, 2, 3)
    memory_grid: Tuple[int, ...] = (2, 4, 8, 16)
    l2_grid: Tuple[float, ...] = field(default=(1e-3, 1e-4, 1e-5))

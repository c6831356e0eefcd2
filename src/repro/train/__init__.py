"""Training: BPR loop (Alg. 1 / Eq. 11), configuration, early stopping."""

from repro.train.config import TrainConfig
from repro.train.trainer import Trainer, TrainingHistory
from repro.train.early_stopping import EarlyStopping
from repro.train.parallel import (
    ParallelTrainer,
    SharedParamStore,
    fit_model,
    train_and_publish,
)
from repro.train.pipeline import MinibatchPlanner, MinibatchStep, PrefetchPipeline
from repro.train.checkpoint import (
    save_checkpoint,
    load_checkpoint,
    restore_model,
    restore_optimizer,
)
from repro.train.search import grid_search, GridSearchReport, SearchResult, paper_tuning_grid
from repro.train.pretrain import PretrainConfig, pretrain_embeddings, apply_pretrained

__all__ = [
    "TrainConfig",
    "Trainer",
    "TrainingHistory",
    "EarlyStopping",
    "ParallelTrainer",
    "SharedParamStore",
    "fit_model",
    "train_and_publish",
    "MinibatchPlanner",
    "MinibatchStep",
    "PrefetchPipeline",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model",
    "restore_optimizer",
    "grid_search",
    "GridSearchReport",
    "SearchResult",
    "paper_tuning_grid",
    "PretrainConfig",
    "pretrain_embeddings",
    "apply_pretrained",
]

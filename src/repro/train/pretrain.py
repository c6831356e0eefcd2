"""Self-supervised embedding pre-training (the paper's future-work item).

The conclusion proposes exploring "heterogeneous relational data under a
pre-trained framework to augment the side knowledge learning".  This
module implements that direction with two structure-level contrastive
objectives that need no interaction labels:

* **social proximity** — users joined by a tie score higher together than
  random user pairs;
* **relation proximity** — items sharing a relation node score higher
  together than random item pairs.

:func:`pretrain_embeddings` optimizes fresh user/item tables on these
objectives; :func:`apply_pretrained` copies them into any recommender
whose embedding tables match, after which normal BPR fine-tuning
proceeds.  The warm start is most valuable exactly where the paper
motivates it: sparse-interaction regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.autograd import ops
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.nn.layers import Embedding
from repro.nn.optim import Adam


@dataclass
class PretrainConfig:
    """Hyperparameters for structural pre-training."""

    epochs: int = 20
    batch_size: int = 1024
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


def _contrastive_loss(table, anchors, positives, randoms):
    """BPR-style proximity loss on embedding rows."""
    anchor_emb = ops.gather_rows(table, anchors)
    tie = ops.sum(ops.mul(anchor_emb, ops.gather_rows(table, positives)), axis=1)
    non_tie = ops.sum(ops.mul(anchor_emb, ops.gather_rows(table, randoms)), axis=1)
    return ops.bpr_tail(tie, non_tie)


def pretrain_embeddings(graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                        config: Optional[PretrainConfig] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Learn user/item tables from the side structure alone.

    Returns ``(user_table, item_table)`` numpy arrays; all learning signal
    comes from ``S`` (social ties) and ``T`` (shared relation nodes), so
    the result is interaction-free and safe against test leakage.
    """
    config = config or PretrainConfig()
    rng = np.random.default_rng(config.seed)
    init_rng = np.random.default_rng(config.seed)
    users = Embedding(graph.num_users, embed_dim, rng=init_rng)
    items = Embedding(graph.num_items, embed_dim, rng=init_rng)

    social = graph.edges("social")
    # item pairs sharing a relation node, sampled through the bipartite T
    item_relation = graph.item_relation.tocsc()

    optimizer = Adam(users.parameters() + items.parameters(),
                     lr=config.learning_rate)
    for _ in range(config.epochs):
        optimizer.zero_grad()
        losses = []
        if len(social):
            index = rng.integers(0, len(social), size=config.batch_size)
            randoms = rng.integers(0, graph.num_users, size=config.batch_size)
            losses.append(_contrastive_loss(users.all(), social.dst[index],
                                            social.src[index], randoms))
        if item_relation.nnz:
            relation_ids = rng.integers(0, graph.num_relations,
                                        size=config.batch_size)
            anchors = np.empty(config.batch_size, dtype=np.int64)
            positives = np.empty(config.batch_size, dtype=np.int64)
            valid = np.zeros(config.batch_size, dtype=bool)
            for position, relation in enumerate(relation_ids):
                members = item_relation[:, relation].indices
                if len(members) >= 2:
                    pair = rng.choice(members, size=2, replace=False)
                    anchors[position], positives[position] = pair
                    valid[position] = True
            if valid.any():
                randoms = rng.integers(0, graph.num_items, size=int(valid.sum()))
                losses.append(_contrastive_loss(items.all(), anchors[valid],
                                                positives[valid], randoms))
        if not losses:
            break
        total = losses[0]
        for extra in losses[1:]:
            total = ops.add(total, extra)
        total.backward()
        optimizer.step()
    return users.weight.data.copy(), items.weight.data.copy()


def apply_pretrained(model, user_table: np.ndarray,
                     item_table: np.ndarray) -> None:
    """Copy pre-trained tables into ``model``'s embedding layers.

    The model must expose ``user_embedding`` / ``item_embedding``
    :class:`~repro.nn.layers.Embedding` attributes of matching shape
    (true for DGNN and most baselines).
    """
    for attribute, table in (("user_embedding", user_table),
                             ("item_embedding", item_table)):
        layer = getattr(model, attribute, None)
        if layer is None:
            raise AttributeError(f"model has no {attribute} to warm-start")
        if layer.weight.data.shape != table.shape:
            raise ValueError(
                f"{attribute} shape {layer.weight.data.shape} does not match "
                f"pre-trained table {table.shape}")
        layer.weight.data[...] = table
    if hasattr(model, "invalidate_cache"):
        model.invalidate_cache()

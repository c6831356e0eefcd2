"""EATNN — Efficient Adaptive Transfer Neural Network (Chen et al., SIGIR 2019).

EATNN shares knowledge between the *item domain* (interactions) and the
*social domain* (ties) through per-user adaptive transfer: every user has
a shared embedding plus two domain-specific embeddings, and a learned
per-user attention decides how much of the shared representation each
domain receives.  Training couples both domains: the BPR interaction loss
is augmented with a social proximity loss on the social-domain
representation (the transfer/multi-task part of the published model).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models.base import Recommender
from repro.nn import init
from repro.nn.layers import Embedding
from repro.nn.module import Parameter


class EATNN(Recommender):
    """Adaptive transfer between the interaction and social domains."""

    name = "eatnn"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, social_loss_weight: float = 0.2):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.social_loss_weight = float(social_loss_weight)
        self.shared_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_domain_embedding = Embedding(graph.num_users, embed_dim, rng=rng,
                                               std=0.05)
        self.social_domain_embedding = Embedding(graph.num_users, embed_dim, rng=rng,
                                                 std=0.05)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        # Per-domain transfer attention keys.
        self.transfer_keys = Parameter(init.xavier_uniform((embed_dim, 2), rng))
        self._social = graph.edges("social")
        self._social_rng = np.random.default_rng(seed + 1)

    def _domain_users(self) -> Tuple[Tensor, Tensor]:
        shared = self.shared_embedding.all()
        gates = ops.softmax(ops.matmul(shared, self.transfer_keys), axis=1)
        item_gate = ops.reshape(gates[:, np.int64(0)], (self.graph.num_users, 1))
        social_gate = ops.reshape(gates[:, np.int64(1)], (self.graph.num_users, 1))
        item_domain = ops.add(ops.mul(shared, item_gate),
                              self.item_domain_embedding.all())
        social_domain = ops.add(ops.mul(shared, social_gate),
                                self.social_domain_embedding.all())
        return item_domain, social_domain

    def propagate(self) -> Tuple[Tensor, Tensor]:
        item_domain, _ = self._domain_users()
        return item_domain, self.item_embedding.all()

    def bpr_loss(self, users, positives, negatives, l2: float = 1e-4) -> Tensor:
        """Interaction BPR plus the social-domain transfer loss."""
        self.invalidate_cache()
        item_domain, social_domain = self._domain_users()
        items = self.item_embedding.all()
        u = ops.gather_rows(item_domain, users)
        p = ops.gather_rows(items, positives)
        n = ops.gather_rows(items, negatives)
        pos_scores = ops.sum(ops.mul(u, p), axis=1)
        neg_scores = ops.sum(ops.mul(u, n), axis=1)
        loss = ops.bpr_tail(pos_scores, neg_scores)
        if l2 > 0:
            reg = ops.mean(ops.sum(u * u + p * p + n * n, axis=1))
            loss = ops.add(loss, ops.mul(Tensor(np.array(l2)), reg))
        if self.social_loss_weight > 0 and len(self._social):
            # Social proximity: tied users should be close in the social
            # domain, closer than a random pair (sampled per batch).
            edges = self._social
            sample = self._social_rng.integers(0, len(edges), size=min(len(users),
                                                                       len(edges)))
            src = edges.src[sample]
            dst = edges.dst[sample]
            rand = self._social_rng.integers(0, self.graph.num_users, size=len(sample))
            tie_scores = ops.sum(ops.mul(ops.gather_rows(social_domain, src),
                                         ops.gather_rows(social_domain, dst)), axis=1)
            rand_scores = ops.sum(ops.mul(ops.gather_rows(social_domain, src),
                                          ops.gather_rows(social_domain, rand)), axis=1)
            social_loss = ops.bpr_tail(tie_scores, rand_scores)
            loss = ops.add(loss, ops.mul(Tensor(np.array(self.social_loss_weight)),
                                         social_loss))
        return loss

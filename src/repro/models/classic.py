"""Classical matrix-factorization social recommenders.

The paper's related-work section grounds social recommendation in two
pre-deep-learning models; both are provided as library baselines (they
pre-date the paper's Table II but anchor the historical comparison):

* **SoRec** (Ma et al., CIKM 2008) — co-factorizes the interaction matrix
  and the social matrix with a shared user factor;
* **TrustMF** (Yang et al., TPAMI 2016) — truster/trustee factor model:
  each user has a truster vector (as a consumer of influence) and a
  trustee vector (as a source), coupled through the trust edges.

Both are trained with the shared BPR objective plus their social
co-factorization terms, so they slot into the common harness.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models.base import Recommender
from repro.nn.layers import Embedding


class SoRec(Recommender):
    """Shared-user-factor co-factorization of ``Y`` and ``S``."""

    name = "sorec"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, social_weight: float = 0.5):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.social_weight = float(social_weight)
        self.user_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        # Social factor matrix Z: S ≈ sigmoid(U Z^T).
        self.social_factor = Embedding(graph.num_users, embed_dim, rng=rng)
        self._social = graph.edges("social")
        self._rng = np.random.default_rng(seed + 13)

    def propagate(self) -> Tuple[Tensor, Tensor]:
        return self.user_embedding.all(), self.item_embedding.all()

    def bpr_loss(self, users, positives, negatives, l2: float = 1e-4) -> Tensor:
        """BPR plus the social co-factorization term on sampled ties."""
        loss = super().bpr_loss(users, positives, negatives, l2=l2)
        edges = self._social
        if self.social_weight <= 0 or len(edges) == 0:
            return loss
        sample = self._rng.integers(0, len(edges), size=min(len(users), len(edges)))
        src, dst = edges.src[sample], edges.dst[sample]
        rand = self._rng.integers(0, self.graph.num_users, size=len(sample))
        user_vecs = ops.gather_rows(self.user_embedding.all(), src)
        tie = ops.sum(ops.mul(user_vecs,
                              ops.gather_rows(self.social_factor.all(), dst)),
                      axis=1)
        non_tie = ops.sum(ops.mul(user_vecs,
                                  ops.gather_rows(self.social_factor.all(), rand)),
                          axis=1)
        social = ops.bpr_tail(tie, non_tie)
        return ops.add(loss, ops.mul(Tensor(np.array(self.social_weight)), social))


class TrustMF(Recommender):
    """Truster/trustee factorization coupled through trust edges."""

    name = "trustmf"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, trust_weight: float = 0.5):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.trust_weight = float(trust_weight)
        self.truster_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.trustee_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        self._social = graph.edges("social")
        self._rng = np.random.default_rng(seed + 17)

    def propagate(self) -> Tuple[Tensor, Tensor]:
        # Prediction uses the truster (influence-receiving) side, blended
        # with the trustee side as the published model's joint variant does.
        users = ops.add(self.truster_embedding.all(),
                        ops.mul(self.trustee_embedding.all(),
                                Tensor(np.array(0.5))))
        return users, self.item_embedding.all()

    def bpr_loss(self, users, positives, negatives, l2: float = 1e-4) -> Tensor:
        """BPR plus truster->trustee proximity on sampled trust edges."""
        loss = super().bpr_loss(users, positives, negatives, l2=l2)
        edges = self._social
        if self.trust_weight <= 0 or len(edges) == 0:
            return loss
        sample = self._rng.integers(0, len(edges), size=min(len(users), len(edges)))
        src, dst = edges.src[sample], edges.dst[sample]
        rand = self._rng.integers(0, self.graph.num_users, size=len(sample))
        trusters = ops.gather_rows(self.truster_embedding.all(), src)
        tie = ops.sum(ops.mul(trusters,
                              ops.gather_rows(self.trustee_embedding.all(), dst)),
                      axis=1)
        non_tie = ops.sum(ops.mul(trusters,
                                  ops.gather_rows(self.trustee_embedding.all(),
                                                  rand)),
                          axis=1)
        trust = ops.bpr_tail(tie, non_tie)
        return ops.add(loss, ops.mul(Tensor(np.array(self.trust_weight)), trust))

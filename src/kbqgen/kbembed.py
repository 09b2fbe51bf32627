"""KB embedding table: random init or TransE pretraining.

`trainer.build_model` runs the pretraining inside `train` when the config
sets `transe`; the table then travels in the model checkpoint.

The table covers entities and predicates in one dense index space (entities
first). TransE treats a predicate row as a translation vector between its
subject and object rows and is trained by margin-ranking SGD with one
corrupted head or tail per negative; entity rows are renormalized to unit
L2 norm after every epoch, predicate rows are left free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textckpt import ConfigError


@dataclass
class KBEmbeddingMatrix:
    table: np.ndarray  # [k, d]
    epoch_losses: tuple = ()


def init_random(k, d, seed):
    """Uniform entries in [-0.08, 0.08], deterministic per seed."""
    rng = np.random.default_rng(seed)
    return KBEmbeddingMatrix(table=rng.uniform(-0.08, 0.08, size=(k, d)))


def _normalize_entities(table, n_entities):
    norms = np.linalg.norm(table[:n_entities], axis=1, keepdims=True)
    table[:n_entities] /= np.maximum(norms, 1e-12)


def pretrain_transe(triples, kbvocab, d, margin=1.0, lr=0.01, epochs=50, neg_per_pos=1, seed=0):
    """Margin-ranking TransE over (s, p, o) KB-index triples.

    Corruption replaces the head or the tail (probability 0.5 each) with a
    random other entity; predicates are never corrupted. Returns the table
    with per-epoch mean hinge losses attached.
    """
    if margin <= 0:
        raise ConfigError(f"TransE margin must be positive, got {margin}")
    triples = list(triples)
    if not triples:
        raise ConfigError("TransE needs at least one triple")
    k = len(kbvocab)
    n_entities = kbvocab.n_entities
    emb = init_random(k, d, seed)
    table = emb.table
    rng = np.random.default_rng(seed * 2_654_435_761 % 2**63 + 1)

    def corrupt(s, o):
        s_neg, o_neg = s, o
        if rng.random() < 0.5:
            s_neg = int(rng.integers(n_entities))
            while s_neg == s:
                s_neg = int(rng.integers(n_entities))
        else:
            o_neg = int(rng.integers(n_entities))
            while o_neg == o:
                o_neg = int(rng.integers(n_entities))
        return s_neg, o_neg

    # the reported per-epoch loss uses one fixed probe negative per triple so
    # the trajectory is comparable across epochs; training negatives resample
    probes = [corrupt(s, o) for s, p, o in triples]

    def probe_loss():
        total = 0.0
        for (s, p, o), (s_neg, o_neg) in zip(triples, probes):
            d_pos = np.linalg.norm(table[s] + table[p] - table[o])
            d_neg = np.linalg.norm(table[s_neg] + table[p] - table[o_neg])
            total += max(0.0, margin + d_pos - d_neg)
        return total / len(triples)

    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        for idx in order:
            s, p, o = triples[idx]
            for _neg in range(neg_per_pos):
                s_neg, o_neg = corrupt(s, o)
                diff_pos = table[s] + table[p] - table[o]
                diff_neg = table[s_neg] + table[p] - table[o_neg]
                d_pos = np.linalg.norm(diff_pos)
                d_neg = np.linalg.norm(diff_neg)
                if margin + d_pos - d_neg > 0:
                    u = diff_pos / max(d_pos, 1e-12)
                    v = diff_neg / max(d_neg, 1e-12)
                    table[s] -= lr * u
                    table[o] += lr * u
                    table[s_neg] += lr * v
                    table[o_neg] -= lr * v
                    table[p] -= lr * (u - v)
        _normalize_entities(table, n_entities)
        losses.append(probe_loss())
    return KBEmbeddingMatrix(table=table, epoch_losses=tuple(losses))

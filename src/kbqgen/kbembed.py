"""KB embedding table: random init or TransE pretraining.

When the config sets `transe` and no table is given, `trainer.train` runs
the pretraining itself before `build_model`, and keeps the table should its
first epoch abort; `build_model` pretrains only when it is called on its own
without a table. The table then travels in the model checkpoint.

The table covers entities and predicates in one dense index space (entities
first). TransE treats a predicate row as a translation vector between its
subject and object rows and is trained by margin-ranking SGD with one
corrupted head or tail per negative; entity rows are renormalized to unit
L2 norm after every epoch, predicate rows are left free.

SGD takes one triple at a time and updates rows in place in a fixed order
(s, o, the corrupted rows, p), so rows that coincide update in turn. Negatives
are scalar draws: a corruption's retries depend on the ids, so a bulk draw
would change the stream. A length is sqrt(x . x) by BLAS ddot, which is what
np.linalg.norm computes for a 1-D float64 vector; a sum of squares in another
order would change the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

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
    n_entities = kbvocab.n_entities
    table = init_random(len(kbvocab), d, seed).table
    rows = list(table)  # row views: updating one updates the table
    rng = np.random.default_rng(seed * 2_654_435_761 % 2**63 + 1)
    uniform, integers = rng.random, rng.integers

    def other(e):  # a uniform entity other than e
        x = e
        while x == e:
            x = int(integers(n_entities))
        return x

    def corrupt(s, o):
        return (other(s), o) if uniform() < 0.5 else (s, other(o))

    # the reported per-epoch loss uses one fixed probe negative per triple so
    # the trajectory is comparable across epochs; training negatives resample
    s_ids, p_ids, o_ids = np.array(triples).T
    s_negs, o_negs = np.array([corrupt(s, o) for s, p, o in triples]).T

    losses = []
    for _ in range(epochs):
        for idx in rng.permutation(len(triples)).tolist():
            s, p, o = triples[idx]
            row_s, row_p, row_o = rows[s], rows[p], rows[o]
            for _neg in range(neg_per_pos):
                s_neg, o_neg = corrupt(s, o)
                diff_pos = row_s + row_p - row_o
                diff_neg = rows[s_neg] + row_p - rows[o_neg]
                d_pos = sqrt(diff_pos.dot(diff_pos))
                d_neg = sqrt(diff_neg.dot(diff_neg))
                if margin + d_pos - d_neg > 0:
                    u = diff_pos / max(d_pos, 1e-12)
                    v = diff_neg / max(d_neg, 1e-12)
                    lr_u, lr_v = lr * u, lr * v
                    row_s -= lr_u
                    row_o += lr_u
                    rows[s_neg] += lr_v
                    rows[o_neg] -= lr_v
                    row_p -= lr * (u - v)
        norms = np.linalg.norm(table[:n_entities], axis=1, keepdims=True)
        table[:n_entities] /= np.maximum(norms, 1e-12)
        pos = table[s_ids] + table[p_ids] - table[o_ids]
        neg = table[s_negs] + table[p_ids] - table[o_negs]
        # vecdot runs ndarray.dot's BLAS ddot on each row; the hinges are summed in order
        hinge = margin + np.sqrt(np.vecdot(pos, pos)) - np.sqrt(np.vecdot(neg, neg))
        total = 0.0
        for h in hinge.tolist():
            total += max(0.0, h)
        losses.append(total / len(triples))
    return KBEmbeddingMatrix(table=table, epoch_losses=tuple(losses))

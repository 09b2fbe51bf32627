"""Question-aware loss, answer-aware loss, and their weighted combination.

Each loss is a [B, 1] column, one row per example of a batch whose step
distributions are stacked as rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

PROB_FLOOR = 1e-12


@dataclass
class LossBreakdown:
    ques_loss: float
    ans_loss: float
    total_loss: float
    argmin_pair: tuple | None  # (answer ext id, step index) picked by the min


def question_loss(step_distributions, gold_ext_ids, steps=None):
    """Mean negative log-likelihood of each example's gold tokens; [B, 1].

    The distributions stack ``steps[b]`` rows per example (default: one
    example), one row per gold token (teacher forcing, EOS step included).
    Probabilities are floored at 1e-12 so an impossible gold token yields a
    finite loss.
    """
    t_len = step_distributions.data.shape[0]
    if t_len != len(gold_ext_ids):
        raise ad.ContractError(
            f"{t_len} step distributions for {len(gold_ext_ids)} gold tokens"
        )
    steps = [t_len] if steps is None else list(steps)
    per_step = ad.neg_log_prob(step_distributions, gold_ext_ids, floor=PROB_FLOOR)
    sums = ad.segment_sum(per_step, np.repeat(np.arange(len(steps)), steps), len(steps))
    return ad.mul(sums, ad.tensor(1.0 / np.array(steps, dtype=sums.data.dtype)[:, None]))


def answer_losses(step_distributions, answer_ext_ids, steps):
    """Per example, the minimum cross entropy for emitting any answer type word at any step.

    ``answer_ext_ids`` holds each example's answer ids and ``steps`` its row
    count. Returns (loss [B, 1], one (answer id, step) or None per
    example). The min is hard: the gradient flows only through the selected
    pair. An empty answer set legitimately yields zero loss.
    """
    starts = np.cumsum([0] + list(steps[:-1]))
    picks, pairs = [], []  # picks: (example, row, answer id)
    for b, (answers, start, n) in enumerate(zip(answer_ext_ids, starts, steps)):
        if not answers:
            pairs.append(None)
            continue
        # min cross entropy == max probability; argmax over the answer-major,
        # step-minor flattening keeps the first strict maximum for determinism
        probs = step_distributions.data[start : start + n, answers].T  # [answers, steps]
        a_index, t_star = divmod(int(np.argmax(probs)), probs.shape[1])
        picks.append((b, start + t_star, answers[a_index]))
        pairs.append((answers[a_index], t_star))
    if not picks:
        return ad.tensor(np.zeros((len(steps), 1))), pairs
    examples, rows, cols = zip(*picks)
    chosen = ad.neg_log_prob(step_distributions, cols, floor=PROB_FLOOR, rows=rows)
    return ad.segment_sum(chosen, examples, len(steps)), pairs


def answer_loss(step_distributions, answer_ext_ids):
    """answer_losses of one example: (loss [1, 1], (answer id, step) or None)."""
    loss, (pair,) = answer_losses(step_distributions, [answer_ext_ids],
                                  [step_distributions.data.shape[0]])
    return loss, pair


def total_loss(ques, ans, lam):
    """ques + lam * ans, per example; lam=0 leaves the question loss bit-identical."""
    if lam < 0:
        raise ad.ContractError(f"answer-loss weight must be >= 0, got {lam}")
    return ad.add(ques, ad.scale(ans, lam))


"""Question-aware loss, answer-aware loss, and their weighted combination."""

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


def question_loss(step_distributions, gold_ext_ids):
    """Mean negative log-likelihood of the gold tokens under the mixture.

    Expects exactly one distribution row per gold token (teacher forcing,
    EOS step included). Probabilities are floored at 1e-12 so an
    impossible gold token yields a finite loss.
    """
    t_len = step_distributions.data.shape[0]
    if t_len != len(gold_ext_ids):
        raise ad.ContractError(
            f"{t_len} step distributions for {len(gold_ext_ids)} gold tokens"
        )
    per_step = ad.neg_log_prob(step_distributions, gold_ext_ids, floor=PROB_FLOOR)
    return ad.scale(ad.sum_all(per_step), 1.0 / t_len)


def answer_loss(step_distributions, answer_ext_ids):
    """Minimum cross entropy for emitting any answer type word at any step.

    Returns (loss tensor, (answer id, step) or None). The min is hard: the
    gradient flows only through the selected pair. An empty answer set
    legitimately yields zero loss.
    """
    if not answer_ext_ids:
        return ad.tensor([[0.0]]), None
    # min cross entropy == max probability; argmax over the answer-major,
    # step-minor flattening keeps the first strict maximum for determinism
    probs = step_distributions.data[:, answer_ext_ids].T  # [answers, steps]
    a_index, t_star = divmod(int(np.argmax(probs)), probs.shape[1])
    a_star = answer_ext_ids[a_index]
    row = ad.gather(step_distributions, [t_star])
    loss = ad.neg_log_prob(row, [a_star], floor=PROB_FLOOR)
    return loss, (a_star, t_star)


def total_loss(ques, ans, lam):
    """ques + lam * ans; lam=0 leaves the question loss bit-identical."""
    if lam < 0:
        raise ad.ContractError(f"answer-loss weight must be >= 0, got {lam}")
    return ad.add(ques, ad.scale(ans, lam))


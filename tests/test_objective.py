import math

import numpy as np
import pytest

from kbqgen import autodiff as ad
from kbqgen import objective as obj


def dist(rows):
    return ad.tensor(np.asarray(rows, dtype=np.float64))


def test_question_loss_zero_when_certain():
    d = dist([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert obj.question_loss(d, [0, 1]).item() == 0.0


def test_question_loss_uniform_is_log_n():
    n = 7
    d = dist(np.full((3, n), 1.0 / n))
    assert obj.question_loss(d, [0, 3, 6]).item() == pytest.approx(math.log(n))


def test_question_loss_three_step_hand_case():
    rows = [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]
    gold = [0, 1, 2]
    expected = -(math.log(0.7) + math.log(0.6) + math.log(0.5)) / 3
    assert obj.question_loss(dist(rows), gold).item() == pytest.approx(expected, abs=1e-12)


def test_question_loss_count_mismatch_rejected():
    with pytest.raises(ad.ContractError):
        obj.question_loss(dist([[1.0, 0.0]]), [0, 1])


def test_question_loss_floor_keeps_finite():
    d = dist([[0.0, 1.0]])
    assert obj.question_loss(d, [0]).item() == pytest.approx(-math.log(1e-12))


def test_answer_loss_certain_step():
    d = dist([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    loss, pair = obj.answer_loss(d, [1])
    assert loss.item() == 0.0
    assert pair == (1, 0)


def test_answer_loss_empty_set_is_zero():
    d = dist([[0.5, 0.5]])
    loss, pair = obj.answer_loss(d, [])
    assert loss.item() == 0.0
    assert pair is None


def test_answer_loss_four_pair_enumeration():
    # P_1(a1)=0.1, P_1(a2)=0.25, P_2(a1)=0.5, P_2(a2)=0.2 -> min at (a1, t=2)
    a1, a2 = 0, 1
    rows = [[0.1, 0.25, 0.65], [0.5, 0.2, 0.3]]
    loss, pair = obj.answer_loss(dist(rows), [a1, a2])
    assert loss.item() == pytest.approx(-math.log(0.5), abs=1e-12)
    assert pair == (a1, 1)


def test_answer_loss_tie_keeps_first_in_answer_major_order():
    # 0.4 at (a1, t=1), (a2, t=0) and (a2, t=1): answer-major, step-minor
    # order meets (a1, t=1) first; step-major order would pick (a2, t=0)
    a1, a2 = 2, 0
    rows = [[0.4, 0.3, 0.3], [0.4, 0.2, 0.4]]
    loss, pair = obj.answer_loss(dist(rows), [a1, a2])
    assert pair == (a1, 1)
    assert loss.item() == pytest.approx(-math.log(0.4), abs=1e-12)


def test_answer_loss_gradient_only_through_argmin():
    p = ad.Parameter("p", np.array([[0.1, 0.25, 0.65], [0.5, 0.2, 0.3]]))
    loss, pair = obj.answer_loss(p.value, [0, 1])
    p.zero_grad()
    ad.backward(loss)
    nonzero = np.nonzero(p.grad)
    assert list(zip(*nonzero)) == [(1, 0)]


def test_answer_loss_monotone_in_selected_probability():
    base = np.array([[0.1, 0.9], [0.4, 0.6]])
    losses = []
    for bump in (0.0, 0.1, 0.2):
        rows = base.copy()
        rows[1, 0] += bump
        rows[1, 1] -= bump
        loss, _ = obj.answer_loss(dist(rows), [0])
        losses.append(loss.item())
    assert losses[0] > losses[1] > losses[2]


def test_answer_loss_min_commutes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t_len, n = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        rows = rng.random((t_len, n))
        rows /= rows.sum(axis=1, keepdims=True)
        answers = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        # oracle with the nesting swapped: min over t of min over a
        best = min(
            min(-math.log(max(rows[t, a], 1e-12)) for a in answers)
            for t in range(t_len)
        )
        loss, _ = obj.answer_loss(dist(rows), answers)
        assert loss.item() == pytest.approx(best, abs=1e-12)


def test_total_loss_weighting():
    q = ad.tensor([[2.0]])
    a = ad.tensor([[1.0]])
    assert obj.total_loss(q, a, 0.0).item() == 2.0
    assert obj.total_loss(q, a, 0.5).item() == 2.5


def test_total_loss_negative_lambda_rejected():
    with pytest.raises(ad.ContractError):
        obj.total_loss(ad.tensor([[1.0]]), ad.tensor([[1.0]]), -0.1)


def test_total_gradient_is_weighted_sum():
    rng = np.random.default_rng(1)
    init = rng.random((2, 3)) + 0.2
    init /= init.sum(axis=1, keepdims=True)
    lam = 0.3

    def parts(p):
        q = obj.question_loss(p.value, [0, 1])
        a, _ = obj.answer_loss(p.value, [2])
        return q, a

    p = ad.Parameter("p", init.copy())
    q, a = parts(p)
    ad.backward(q)
    gq = p.grad.copy()
    p.zero_grad()
    q, a = parts(p)
    ad.backward(a)
    ga = p.grad.copy()

    p2 = ad.Parameter("p", init.copy())
    q, a = parts(p2)
    ad.backward(obj.total_loss(q, a, lam))
    assert np.allclose(p2.grad, gq + lam * ga, rtol=1e-12, atol=1e-15)

    # and against the finite-difference oracle
    p3 = ad.Parameter("p", init.copy())

    def f():
        q, a = parts(p3)
        return obj.total_loss(q, a, lam)

    assert ad.grad_check(f, [p3]) < 1e-4


def test_question_loss_positive_unless_certain():
    rng = np.random.default_rng(2)
    rows = rng.random((3, 4))
    rows /= rows.sum(axis=1, keepdims=True)
    loss = obj.question_loss(dist(rows), [0, 1, 2])
    assert loss.item() > 0.0

"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1, 2, 6, 7 and 8
are here: gradient integrity, distribution invariants, metric oracles, loss
semantics and CLI determinism. Criteria 7 and 8 train small desk models for a
few epochs; the paper's directional claims have no test yet.
"""

import math
import time

import numpy as np
import pytest

from kbqgen import autodiff as ad
from kbqgen import cli
from kbqgen import corpus as cp
from kbqgen import decoder as dec
from kbqgen import metrics as mt
from kbqgen import objective as obj
from kbqgen import trainer as tr
from kbqgen.cli import _gradcheck_fixture


def ok(name, detail):
    print(f"PASS {name}: {detail}")


def make_dataset(tmp_path, seed=3, entities=24, predicates=8, facts=160, **load_kw):
    corpus = cp.synth_corpus(seed, entities, predicates, facts)
    cp.write_corpus(corpus, tmp_path)
    return cp.load_dataset(tmp_path, **load_kw)


def test_criterion_1_gradient_integrity():
    # full model at d=8, h=2, L=1, |V|=30, 3-token contexts; < 1e-4, < 60 s
    cfg = tr.TrainConfig(d=8, heads=2, layers=1, lam=0.2, seed=0).validate()
    model, example = _gradcheck_fixture(cfg)
    assert len(model.vocab) == 30
    for ctx in (example.contexts.subject_words,
                example.contexts.predicate_words,
                example.contexts.object_words):
        assert len(ctx) == 3

    def f():
        total, _ = tr.example_loss(model, example, cfg)
        return total

    start = time.time()
    worst = ad.grad_check(f, model.parameters(), eps=1e-5)
    elapsed = time.time() - start
    n_coords = sum(p.value.data.size for p in model.parameters())
    assert worst < 1e-4
    assert elapsed < 60.0
    ok("criterion-1", f"gradcheck {n_coords} coords, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_distribution_invariants(tmp_path):
    dataset = make_dataset(tmp_path, facts=60)
    example = dataset.examples("train")[0]
    model = tr.build_model(
        tr.TrainConfig(d=8, heads=2, layers=1, seed=0).validate(), dataset
    )
    rng = np.random.default_rng(123)
    worst_dist = 0.0
    worst_modes = 0.0
    maxout_checks = 0
    for draw in range(1000):
        for param in model.registry.values():
            if param.name.endswith("_gain"):
                param.value.data[...] = rng.uniform(0.5, 1.5, size=param.value.data.shape)
            else:
                param.value.data[...] = rng.uniform(-0.6, 0.6, size=param.value.data.shape)
        result = model.forward_example(example)
        sums = result.distributions.data.sum(axis=1)
        worst_dist = max(worst_dist, float(np.max(np.abs(sums - 1.0))))
        mode_sums = result.modes.data.sum(axis=1)
        worst_modes = max(worst_modes, float(np.max(np.abs(mode_sums - 1.0))))
        if draw % 50 == 0:
            # maxout equals the brute-force position-max oracle exactly
            fact_enc = model.encode_fact(example)
            states = dec.decode_states(list(example.question[:-1]), fact_enc.h_f, model.decoder)
            keys = fact_enc.context_rows.data @ model.decoder.w_ctx.value.data
            p_ctx, padded = dec.context_copy_forward(states.data, keys, result.copy_source)
            sc, reduced, total = (a[0] for a in padded)  # one example: drop the batch axis
            for t in range(sc.shape[0]):
                for g, positions in enumerate(result.copy_source.groups):
                    oracle = max(sc[t, m] for m in positions)
                    assert reduced[t, g] == oracle
                    assert p_ctx[t, g] == oracle / total[t, 0]
                    maxout_checks += 1
    assert worst_dist < 1e-6
    assert worst_modes < 1e-9
    ok(
        "criterion-2",
        f"1000 draws: extended-sum dev {worst_dist:.2e}, mode-sum dev {worst_modes:.2e}, "
        f"{maxout_checks} exact maxout checks",
    )


def test_criterion_6_metric_oracles():
    value = mt.bleu4([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    assert round(value, 4) == round(100.0 * math.exp(-1.0 / 3.0), 4) == 71.6531
    assert round(mt.rouge_l([["a", "b", "c"]], [["a", "c", "b"]]), 4) == 66.6667
    cand = "which city is the old tower located in ?".split()
    meteor_expected = 100.0 * (1.0 - 0.5 * (1.0 / len(cand)) ** 3)
    assert round(mt.meteor_lite([cand], [cand]), 4) == round(meteor_expected, 4)
    cands = [["a"], ["b"], ["c"], ["d"]]
    assert mt.answer_coverage(cands, [{"a"}, {"b"}, {"x"}, {"y"}]) == 50.0
    assert mt.answer_coverage(cands[:3], [{"a"}, {"x"}, {"y"}]) == 100.0 * 1 / 3
    corpus = [
        "which city is statue of liberty located in ?".split(),
        "what is the old tower part of ?".split(),
    ]
    assert mt.bleu4(corpus, corpus) == pytest.approx(100.0)
    assert mt.rouge_l(corpus, corpus) == pytest.approx(100.0)
    ok("criterion-6", "BLEU/ROUGE/METEOR hand values at 4 dp; coverage exact ratios; identity 100")


def test_criterion_7_loss_semantics(tmp_path):
    rows = [[0.1, 0.25, 0.65], [0.5, 0.2, 0.3]]
    loss, pair = obj.answer_loss(ad.tensor(np.array(rows)), [0, 1])
    assert loss.item() == pytest.approx(-math.log(0.5), abs=1e-12)
    assert pair == (0, 1)

    dataset = make_dataset(tmp_path, entities=18, predicates=4, facts=40)
    cfg = tr.TrainConfig(d=16, heads=2, layers=1, dropout=0.1, batch_size=8, seed=0, lam=0.0).validate()
    model = tr.build_model(cfg, dataset)
    batch = dataset.examples("train")[:cfg.batch_size]

    def swept(loss):  # one batch with dropout: its loss column and every parameter gradient
        total = loss([tr._dropout(cfg, 0, idx) for idx in range(len(batch))])
        ad.backward(ad.sum_all(total))
        grads = [p.grad.copy() for p in model.parameters()]
        for p in model.parameters():
            p.zero_grad()
        return total.data, grads

    def question_loss(drops):
        result = model.forward_example(list(batch), drops)
        return obj.question_loss(result.distributions, result.gold_ext_ids, steps=result.steps)

    total, grads = swept(lambda drops: tr.batch_loss(model, batch, cfg, drops)[0])
    ques, ques_grads = swept(question_loss)
    assert np.array_equal(total, ques)
    assert all(np.array_equal(g, q) for g, q in zip(grads, ques_grads))
    ok("criterion-7", "four-pair min = -log 0.5 at (a1, t=2); lambda=0 loss and gradients "
       "bit-identical to the question loss alone")


def test_criterion_8_cli_determinism(tmp_path):
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    outputs = {}
    for tag in ("x", "y"):
        root = tmp_path / tag
        data = root / "data"
        run("synth", "--seed", 7, "--entities", 18, "--predicates", 4,
            "--facts", 40, "--out-dir", data)
        cfg = root / "run.cfg"
        cfg.write_text(
            "epochs=2\nd=16\nheads=2\nlayers=1\ndropout=0.1\nlambda=0.2\n", encoding="utf-8"
        )
        run("train", "--config", cfg, "--data-dir", data, "--out-dir", root / "run", "--seed", 2,
            "--transe", "on", "--set", "transe_epochs=2")
        run("generate", "--checkpoint", root / "run" / "model.ckpt", "--data-dir", data,
            "--split", "test", "--out", root / "gen.tsv", "--beam", 2)
        run("eval", "--generations", root / "gen.tsv", "--data-dir", data,
            "--out", root / "eval", "--seed", 3)
        run("ablate", "--config", cfg, "--data-dir", data, "--out-dir", root / "abl",
            "--grid", "components", "--seeds", "0", "--set", "epochs=1")
        outputs[tag] = root

    compared = []
    for rel in (
        "data/entities.tsv", "data/predicates.tsv", "data/facts.train.tsv",
        "data/facts.valid.tsv", "data/facts.test.tsv",
        "run/model.ckpt", "run/train_log.tsv", "run/config.txt", "gen.tsv",
        "eval/report.tsv", "eval/report.txt", "eval/per_example.tsv",
        "eval/annotation_sample.tsv", "abl/ablate_components.tsv",
    ):
        a = (outputs["x"] / rel).read_bytes()
        b = (outputs["y"] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared.append(rel)
    ok("criterion-8", f"{len(compared)} output files byte-identical across repeated runs")

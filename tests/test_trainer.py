import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kbqgen import autodiff as ad
from kbqgen import corpus as cp
from kbqgen import decoder as dec
from kbqgen import kbembed
from kbqgen import model as mdl
from kbqgen import objective as obj
from kbqgen import trainer as tr


def desk_config(**kw):
    base = dict(
        epochs=2, batch_size=8, d=16, heads=2, layers=1, dropout=0.0,
        transe=False, seed=0, max_len=24,
    )
    base.update(kw)
    return tr.TrainConfig(**base).validate()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    corpus = cp.synth_corpus(5, n_entities=18, n_predicates=4, n_facts=36)
    root = tmp_path_factory.mktemp("corpus")
    cp.write_corpus(corpus, root)
    return cp.load_dataset(root)


def test_config_parse_and_aliases(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nlambda=0.5\nepochs=3\ntranse=on\n", encoding="utf-8")
    cfg = tr.parse_config(path)
    assert cfg.lam == 0.5 and cfg.epochs == 3 and cfg.transe is True


def test_config_unknown_key_rejected():
    with pytest.raises(tr.ConfigError, match="unknown config key"):
        tr.parse_config(text="nonsense=1\n")


def test_config_bad_value_rejected():
    with pytest.raises(tr.ConfigError, match="bad value"):
        tr.parse_config(text="epochs=three\n")


def test_config_validation():
    with pytest.raises(tr.ConfigError):
        tr.TrainConfig(lr0=0.0).validate()
    with pytest.raises(tr.ConfigError):
        tr.TrainConfig(lr_decay=1.5).validate()
    with pytest.raises(tr.ConfigError):
        tr.TrainConfig(lam=-1).validate()
    for bad in (1, 0, -3):
        with pytest.raises(tr.ConfigError, match=f"max_len must be >= 2, got {bad}"):
            tr.TrainConfig(max_len=bad).validate()
    for key, bad, problem in [
        ("transe_lr", -0.5, "must be positive"), ("transe_lr", 0.0, "must be positive"),
        ("transe_margin", 0.0, "must be positive"), ("transe_margin", -1.0, "must be positive"),
        ("grad_clip", -1.0, "must be >= 0"),
    ]:
        with pytest.raises(tr.ConfigError, match=f"^{key} {problem}, got {bad}$"):
            tr.TrainConfig(**{key: bad}).validate()
    # the edges stay allowed: no clipping, no patience, no TransE epochs
    tr.TrainConfig(grad_clip=0.0, patience=0, transe_epochs=0, transe_neg=1, min_freq=1).validate()


def test_config_paper_profile():
    cfg = tr.parse_config(text="profile=paper\n")
    assert (cfg.d, cfg.heads, cfg.layers, cfg.batch_size) == (200, 4, 5, 200)
    # explicit keys win over the profile
    cfg = tr.parse_config(text="profile=paper\nd=64\nheads=4\n")
    assert cfg.d == 64 and cfg.layers == 5


def test_config_hash_stable():
    assert tr.TrainConfig().hash() == tr.TrainConfig().hash()
    assert tr.TrainConfig().hash() != tr.TrainConfig(lam=0.3).hash()


def test_rmsprop_zero_gradient_keeps_parameters():
    p = ad.Parameter("p", np.array([[1.0, -2.0]]))
    opt = tr.RMSProp([p])
    before = p.value.data.copy()
    opt.step(lr=0.5)
    assert np.array_equal(p.value.data, before)


def test_rmsprop_first_step_hand_value():
    # constant gradient 1: v = 0.1, theta <- theta - lr / (sqrt(0.1) + eps)
    p = ad.Parameter("p", np.array([[0.0]]))
    p.value.grad[...] = 1.0
    opt = tr.RMSProp([p])
    opt.step(lr=0.01)
    expected = -0.01 / (math.sqrt(0.1) + 1e-8)
    assert p.value.data[0, 0] == pytest.approx(expected, rel=1e-12)
    # grads zeroed after the step
    assert np.all(p.grad == 0.0)


def test_rmsprop_quadratic_bowl_converges():
    # run-to-convergence oracle with the trainer's decay schedule
    target = 0.3
    p = ad.Parameter("theta", np.array([[0.0]]))
    opt = tr.RMSProp([p])
    lr = 0.01
    for step in range(500):
        p.zero_grad()
        diff = ad.add(p.value, ad.tensor([[-target]]))
        loss = ad.sum_all(ad.mul(diff, diff))
        ad.backward(loss)
        opt.step(lr * 0.97**step)
    assert abs(p.value.data[0, 0] - target) < 1e-6


def test_rmsprop_clip_bounds_global_norm():
    p = ad.Parameter("p", np.zeros((1, 4)))
    p.value.grad[...] = 100.0
    opt = tr.RMSProp([p])
    opt.step(lr=1e-9, clip=5.0)
    # after clipping the update direction is preserved; just check it moved
    assert np.all(p.value.data < 0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("clip", [5.0, 0.0])
def test_rmsprop_non_finite_gradient_touches_nothing(bad, clip):
    p = ad.Parameter("p", np.array([[1.0, -2.0]]))
    q = ad.Parameter("q", np.array([[0.5]]))
    opt = tr.RMSProp([p, q])
    opt.moments["p"][...] = 0.25
    p.value.grad[...] = [[bad, 1.0]]
    q.value.grad[...] = 3.0
    assert not math.isfinite(opt.step(lr=0.1, clip=clip))
    assert p.value.data.tolist() == [[1.0, -2.0]] and q.value.data.tolist() == [[0.5]]
    assert opt.moments["p"].tolist() == [[0.25, 0.25]] and opt.moments["q"].tolist() == [[0.0]]


def test_inf_gradient_aborts_with_last_finite_checkpoint(dataset, monkeypatch):
    cfg = desk_config(epochs=3)
    original = tr.RMSProp.step

    def inject(self, lr, clip=0.0):
        if lr < cfg.lr0:  # the first step of the second epoch
            self.params[0].value.grad[0, 0] = np.inf
        return original(self, lr, clip)

    monkeypatch.setattr(tr.RMSProp, "step", inject)
    result = tr.train(cfg, dataset)
    monkeypatch.undo()
    one_epoch = tr.train(desk_config(epochs=1), dataset)
    assert result.aborted and len(result.history) == 1 and result.last.epoch == 1
    for saved, expected in ((result.last.tensors, one_epoch.last.tensors),
                            (result.last.moments, one_epoch.last.moments)):
        assert all(np.array_equal(saved[n], expected[n]) for n in expected)


def inf_gradient_at_step(monkeypatch, n):
    """Make the n-th RMSProp step from now see an inf gradient."""
    original, steps = tr.RMSProp.step, []

    def inject(self, lr, clip=0.0):
        steps.append(lr)
        if len(steps) == n:
            self.params[0].value.grad[0, 0] = np.inf
        return original(self, lr, clip)

    monkeypatch.setattr(tr.RMSProp, "step", inject)
    return steps


@pytest.mark.parametrize("transe", [False, True])
def test_first_epoch_abort_returns_the_fresh_model(dataset, monkeypatch, transe):
    cfg = desk_config(epochs=3, batch_size=4, dropout=0.1, transe=transe, transe_epochs=2)
    steps = inf_gradient_at_step(monkeypatch, 3)
    result = tr.train(cfg, dataset)  # kb_matrix=None: TransE, when on, is the run's own
    monkeypatch.undo()
    assert len(steps) == 3 and len(set(steps)) == 1  # two steps taken, all in the first epoch
    assert result.aborted and result.history == [] and result.best is result.last
    assert result.last.epoch == 0 and result.last.config_hash == cfg.hash()
    assert result.last.config_text == cfg.canonical_text()
    fresh = tr.build_model(cfg, dataset)
    assert list(result.last.tensors) == list(fresh.registry) == list(result.last.moments)
    for name, p in fresh.registry.items():
        assert np.array_equal(result.last.tensors[name], p.value.data), name
        assert not result.last.moments[name].any(), name


def test_first_epoch_abort_of_a_resume_returns_the_resume_checkpoint(dataset, monkeypatch):
    half = tr.train(desk_config(epochs=2, batch_size=4, dropout=0.1), dataset).last
    kept = {kind: {n: a.copy() for n, a in getattr(half, kind).items()} for kind in ("tensors", "moments")}
    cfg = desk_config(epochs=4, batch_size=4, dropout=0.1)
    inf_gradient_at_step(monkeypatch, 3)
    result = tr.train(cfg, dataset, resume=half)
    assert result.aborted and result.history == [] and result.best is result.last
    assert result.last.epoch == half.epoch == 2
    assert result.last.config_hash == cfg.hash() != half.config_hash
    for kind, arrays in kept.items():
        saved = getattr(result.last, kind)
        assert list(saved) == list(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(saved[name], arr), (kind, name)


@pytest.mark.parametrize("epochs, patience", [(3, 0), (5, 2)])
def test_an_earlier_best_checkpoint_shares_no_memory_with_the_last(dataset, monkeypatch, epochs, patience):
    bleus = iter([0.5, 0.2, 0.1])  # the first epoch is best; patience 2 stops after the third
    monkeypatch.setattr(tr, "score_split", lambda *a, **kw: SimpleNamespace(bleu4=next(bleus)))
    result = tr.train(desk_config(epochs=epochs, patience=patience, dropout=0.1), dataset)
    monkeypatch.undo()
    assert result.validated and (result.best.epoch, result.last.epoch) == (1, 3)
    one_epoch = tr.train(desk_config(epochs=1, dropout=0.1), dataset).last
    last = [*result.last.tensors.values(), *result.last.moments.values()]
    for kind in ("tensors", "moments"):
        for name, arr in getattr(result.best, kind).items():
            assert np.array_equal(arr, getattr(one_epoch, kind)[name]), (kind, name)
            assert not any(np.shares_memory(arr, other) for other in last), (kind, name)


def test_without_validation_the_best_checkpoint_is_the_last(dataset):
    view = cp.Dataset(dataset.entities, dataset.predicates, dataset.kbvocab, dataset.vocab,
                      splits={"train": dataset.examples("train")})
    result = tr.train(desk_config(epochs=3), view)
    assert result.best.epoch == 3 and result.best is result.last and not result.validated
    assert [bleu for _, _, bleu in result.history] == [0.0, 0.0, 0.0]


def test_lr_schedule_exact(dataset):
    cfg = desk_config(epochs=3)
    seen = []
    original = tr.RMSProp.step

    def spy(self, lr, clip=0.0):
        seen.append(lr)
        return original(self, lr, clip)

    tr.RMSProp.step = spy
    try:
        tr.train(cfg, dataset)
    finally:
        tr.RMSProp.step = original
    per_epoch = sorted(set(seen), reverse=True)
    assert per_epoch[0] == cfg.lr0
    for n, lr in enumerate(per_epoch):
        assert lr == pytest.approx(cfg.lr0 * cfg.lr_decay**n, rel=1e-15)


def test_training_decreases_loss(dataset):
    cfg = desk_config(epochs=6, lam=0.0)
    result = tr.train(cfg, dataset)
    losses = [loss for _, loss, _ in result.history]
    assert losses[-1] < losses[0]
    assert not result.aborted


def test_two_runs_identical(dataset):
    cfg = desk_config(epochs=3, dropout=0.1)
    r1 = tr.train(cfg, dataset)
    r2 = tr.train(cfg, dataset)
    assert r1.history == r2.history
    for name in r1.last.tensors:
        assert np.array_equal(r1.last.tensors[name], r2.last.tensors[name])


def test_checkpoint_roundtrip_and_resume(dataset, tmp_path):
    cfg = desk_config(epochs=4, dropout=0.1)
    full = tr.train(cfg, dataset)

    half = tr.train(desk_config(epochs=2, dropout=0.1), dataset)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(half.last, path)
    loaded = tr.load_checkpoint(path)
    for name in half.last.tensors:
        assert np.array_equal(half.last.tensors[name], loaded.tensors[name])
    for name in half.last.moments:
        assert np.array_equal(half.last.moments[name], loaded.moments[name])

    resumed = tr.train(cfg, dataset, resume=loaded)
    for name in full.last.tensors:
        assert np.array_equal(full.last.tensors[name], resumed.last.tensors[name])
    assert [h for h in full.history[2:]] == resumed.history


def test_checkpoint_lacking_a_model_tensor_is_refused(dataset):
    cfg = desk_config(epochs=0)
    ckpt = tr.train(cfg, dataset).last
    del ckpt.tensors["copy.w_ctx"]
    with pytest.raises(tr.ConfigError, match=r"tensors do not fit this model: missing \['copy.w_ctx'\]"):
        tr.model_from_checkpoint(cfg, dataset, ckpt)
    with pytest.raises(tr.ConfigError, match=r"tensors do not fit this model: missing \['copy.w_ctx'\]"):
        tr.train(cfg, dataset, resume=ckpt)
    ckpt = tr.train(cfg, dataset).last
    del ckpt.moments["copy.w_ctx"]
    tr.model_from_checkpoint(cfg, dataset, ckpt)  # moments matter only on resume
    with pytest.raises(tr.ConfigError, match=r"moments do not fit this model: missing \['copy.w_ctx'\]"):
        tr.train(cfg, dataset, resume=ckpt)


def test_checkpoint_shape_mismatch_leaves_the_model_untouched(dataset):
    cfg = desk_config(epochs=0)
    ckpt = tr.train(replace(cfg, seed=1), dataset).last
    last = list(ckpt.tensors)[-1]
    ckpt.tensors[last] = ckpt.tensors[last][:, :-1]
    with pytest.raises(tr.ConfigError, match=f"wrong shape \\['{last} "):
        tr.model_from_checkpoint(cfg, dataset, ckpt)
    with pytest.raises(tr.ConfigError, match=f"wrong shape \\['{last} "):
        tr.train(cfg, dataset, resume=ckpt)
    ckpt = tr.train(replace(cfg, seed=1), dataset).last
    ckpt.tensors["stray"] = np.zeros((1, 1))
    with pytest.raises(tr.ConfigError, match=r"unknown \['stray'\]"):
        tr.model_from_checkpoint(cfg, dataset, ckpt)


def _write_vectors(path, dataset, d):
    assert "what" in dataset.vocab
    path.write_text("what " + " ".join(["0.25"] * d) + "\n", encoding="utf-8")
    return path


def test_model_from_checkpoint_draws_nothing_and_reads_no_vector_file(dataset, tmp_path, monkeypatch):
    vec_path = _write_vectors(tmp_path / "vectors.txt", dataset, 16)
    cfg = desk_config(epochs=1, word_vectors=str(vec_path))
    ckpt = tr.train(cfg, dataset).last
    vec_path.unlink()

    def no_draw(*args, **kwargs):
        raise AssertionError("a model built from a checkpoint drew random numbers")

    monkeypatch.setattr(mdl.np.random, "default_rng", no_draw)
    model = tr.model_from_checkpoint(cfg, dataset, ckpt)
    assert list(model.registry) == list(ckpt.tensors)
    for name, p in model.registry.items():
        assert np.array_equal(p.value.data, ckpt.tensors[name]), name
        assert not np.shares_memory(p.value.data, ckpt.tensors[name]), name


def test_resume_runs_no_transe_reads_no_vector_file_and_keeps_the_checkpoint(dataset, tmp_path,
                                                                              monkeypatch):
    vec_path = _write_vectors(tmp_path / "vectors.txt", dataset, 16)
    cfg = desk_config(epochs=4, dropout=0.1, transe=True, transe_epochs=2, word_vectors=str(vec_path))
    full = tr.train(cfg, dataset)
    half = tr.train(replace(cfg, epochs=2), dataset).last
    vec_path.unlink()
    kept = {kind: {n: a.copy() for n, a in getattr(half, kind).items()} for kind in ("tensors", "moments")}

    def no_transe(*args, **kwargs):
        raise AssertionError("resume ran TransE")

    monkeypatch.setattr(kbembed, "pretrain_transe", no_transe)
    resumed = tr.train(cfg, dataset, resume=half)
    assert resumed.history == full.history[2:]
    for name in full.last.tensors:
        assert np.array_equal(full.last.tensors[name], resumed.last.tensors[name]), name
        assert np.array_equal(full.last.moments[name], resumed.last.moments[name]), name
    for kind, arrays in kept.items():
        for name, arr in arrays.items():
            assert np.array_equal(getattr(half, kind)[name], arr), (kind, name)


def test_over_long_train_question_is_refused_before_the_first_batch(dataset, monkeypatch):
    train = dataset.examples("train")
    longest = max(len(ex.question) - 1 for ex in train)
    i = next(i for i, ex in enumerate(train) if len(ex.question) - 1 == longest)
    fact = train[i].fact
    ids = " ".join(dataset.kbvocab.token(k) for k in (fact.subject, fact.predicate, fact.object))

    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(tr, "batch_loss", no_batch)
    cfg = desk_config(max_len=longest - 1)
    with pytest.raises(tr.ConfigError) as exc:
        tr.train(cfg, dataset)
    assert str(exc.value) == (f"train example {i + 1} ({ids}): its question has {longest} "
                              f"decoder steps, more than max_len={longest - 1}")
    monkeypatch.undo()
    assert tr.train(desk_config(epochs=1, max_len=longest), dataset).history


def test_lambda_zero_bit_identical_to_question_loss_alone(dataset):
    # one batch with dropout: at lambda=0 the total loss and every gradient are the question loss's
    cfg = desk_config(lam=0.0, dropout=0.1)
    model = tr.build_model(cfg, dataset)
    batch = dataset.examples("train")[:cfg.batch_size]

    def swept(loss):
        total = loss([tr._dropout(cfg, 0, idx) for idx in range(len(batch))])
        ad.backward(ad.sum_all(total))
        grads = {p.name: p.grad.copy() for p in model.parameters()}
        for p in model.parameters():
            p.zero_grad()
        return total.data, grads

    def question_loss(drops):
        result = model.forward_example(list(batch), drops)
        return obj.question_loss(result.distributions, result.gold_ext_ids, steps=result.steps)

    total, grads = swept(lambda drops: tr.batch_loss(model, batch, cfg, drops)[0])
    ques, ques_grads = swept(question_loss)
    assert np.array_equal(total, ques)
    for name, grad in grads.items():
        assert np.array_equal(grad, ques_grads[name]), name
    assert any(grad.any() for grad in grads.values())
    # the breakdown still reports the answer loss that lambda=0 leaves out
    _, breakdowns = tr.batch_loss(model, batch, cfg)
    assert all(b.total_loss == b.ques_loss for b in breakdowns)
    assert any(b.ans_loss > 0 for b in breakdowns)


def test_a_forward_pass_that_raises_takes_the_divergence_abort(dataset, monkeypatch):
    cfg = desk_config(epochs=3, batch_size=4)
    original, steps = tr.RMSProp.step, []

    def inject(self, lr, clip=0.0):
        norm = original(self, lr, clip)
        steps.append(lr)
        if len(steps) == 1:  # the next forward pass meets NaN KB rows
            next(p for p in self.params if p.name == "kb_emb").value.data[...] = np.nan
        return norm

    monkeypatch.setattr(tr.RMSProp, "step", inject)
    result = tr.train(cfg, dataset)
    monkeypatch.undo()
    assert len(steps) == 1
    assert result.aborted and result.history == [] and result.best is result.last and result.last.epoch == 0
    fresh = tr.build_model(cfg, dataset)
    for name, p in fresh.registry.items():
        assert np.array_equal(result.last.tensors[name], p.value.data), name


def test_divergence_aborts_with_last_finite(dataset):
    cfg = desk_config(epochs=3, lr0=1e6, grad_clip=0.0)
    result = tr.train(cfg, dataset)
    if result.aborted:
        for arr in result.last.tensors.values():
            assert np.all(np.isfinite(arr))


def test_word_vector_file_seeds_embeddings(dataset, tmp_path):
    # the synthetic templates are "can you name the ... ?" and "what ... ?",
    # so "what" is always in the vocabulary and the seeded row is a real one
    assert "what" in dataset.vocab
    assert "nonexistent-token" not in dataset.vocab
    vec_path = tmp_path / "vectors.txt"
    d = 16
    vec_path.write_text(
        "what " + " ".join(str(0.25) for _ in range(d)) + "\n"
        "nonexistent-token " + " ".join("0.5" for _ in range(d)) + "\n",
        encoding="utf-8",
    )
    cfg = desk_config(epochs=0, word_vectors=str(vec_path))
    model = tr.build_model(cfg, dataset)
    table = model.registry["word_emb"].value.data
    seeded = dataset.vocab.id("what")
    row = table[seeded]
    assert np.allclose(row, 0.25)
    # every other row, <unk> included, keeps its random init bit for bit
    plain = tr.build_model(desk_config(epochs=0), dataset).registry["word_emb"].value.data
    others = np.arange(len(dataset.vocab)) != seeded
    np.testing.assert_array_equal(table[others], plain[others])


def test_word_vector_file_skips_rows_outside_vocab(dataset, tmp_path):
    # a word2vec-style "count dim" header, a bad row for an unknown token,
    # a one-field line and a blank line are all skipped unread
    vec_path = tmp_path / "vectors.txt"
    vec_path.write_text(
        "300 16\nnonexistent-token 0.1 x\nlonely\n\n"
        "what " + " ".join("0.25" for _ in range(16)) + "\n",
        encoding="utf-8",
    )
    model = tr.build_model(desk_config(epochs=0, word_vectors=str(vec_path)), dataset)
    assert np.all(model.registry["word_emb"].value.data[dataset.vocab.id("what")] == 0.25)


@pytest.mark.parametrize("row, problem", [
    ("what 0.1 x 0.3", "not a number: 'x'"),
    ("what 0.1 0.2", "has 2 numbers, expected d=16"),
    ("what " + " ".join(["nan"] * 16), "non-finite value"),
])
def test_malformed_word_vector_row_is_config_error(dataset, tmp_path, row, problem):
    assert "what" in dataset.vocab
    vec_path = tmp_path / "vectors.txt"
    vec_path.write_text("nonexistent-token 0.5\n" + row + "\n", encoding="utf-8")
    cfg = desk_config(epochs=0, word_vectors=str(vec_path))
    with pytest.raises(tr.ConfigError) as exc:
        tr.build_model(cfg, dataset)
    assert str(exc.value).startswith(f"{vec_path}:2: vector for 'what': ")
    assert str(exc.value).endswith(problem)


def test_binary_word_vector_file_is_refused(dataset, tmp_path):
    vec_path = tmp_path / "vectors.bin"
    vec_path.write_bytes(b"what \xff\xfe\x00\x80\n")
    with pytest.raises(cp.IngestionError, match=":1: not UTF-8 text"):
        tr.build_model(desk_config(epochs=0, word_vectors=str(vec_path)), dataset)


def test_training_loss_drops_90_percent_on_tiny_corpus(tmp_path):
    # overfit-capability invariant on a 10-example corpus at desk dims;
    # restricted to the single-template predicate so the gold distribution
    # is deterministic (dual-template predicates carry irreducible entropy)
    corpus = cp.synth_corpus(1, n_entities=12, n_predicates=2, n_facts=60)
    single = [r for rows in corpus.fact_rows.values() for r in rows if r[1] == "p1"]
    corpus.fact_rows = {"train": single[:10], "valid": single[10:12], "test": single[12:14]}
    cp.write_corpus(corpus, tmp_path)
    ds = cp.load_dataset(tmp_path)
    assert len(ds.examples("train")) == 10
    # lam=0: the answer-aware term has an irreducible floor whenever a gold
    # question lacks answer words, so pure question loss measures overfit;
    # lr decay 0.995 keeps updates alive across the full 300 epochs
    cfg = tr.TrainConfig(
        epochs=300, lr0=0.003, lr_decay=0.995, batch_size=16, d=32, heads=2,
        layers=2, dropout=0.0, seed=0, patience=0, lam=0.0,
    ).validate()
    result = tr.train(cfg, ds)
    losses = [loss for _, loss, _ in result.history]
    assert min(losses) <= losses[0] * 0.10


def test_float32_training_runs(dataset):
    cfg = desk_config(epochs=1, dtype="float32")
    result = tr.train(cfg, dataset)
    assert result.history and math.isfinite(result.history[0][1])
    model = tr.build_model(cfg, dataset)
    assert model.registry["word_emb"].value.data.dtype == np.float32


def test_transe_changes_init(dataset):
    cfg = desk_config(epochs=0, transe=True, transe_epochs=3)
    with_transe = tr.build_model(cfg, dataset)
    without = tr.build_model(desk_config(epochs=0), dataset)
    assert not np.array_equal(
        with_transe.registry["kb_emb"].value.data, without.registry["kb_emb"].value.data
    )


def batch_grads(model, examples, cfg, chunk, drops=None):
    """Summed loss and parameter gradients of a split run in recorded batches of `chunk` examples."""
    model.zero_grads()
    loss = 0.0
    for start in range(0, len(examples), chunk):
        part = slice(start, start + chunk)
        part_drops = None if drops is None else drops[part]
        total, breakdowns = tr.batch_loss(model, examples[part], cfg, part_drops)
        ad.backward(ad.sum_all(total))
        loss += sum(b.total_loss for b in breakdowns)
    return loss, {name: p.grad.copy() for name, p in model.registry.items()}


def op_nodes(root):
    """Recorded ops reachable from root (tensors with a backward closure)."""
    seen, stack = {id(root)}, [root]
    count = 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def test_batch_equals_the_sum_of_its_examples(dataset):
    # 7 examples of unequal context and question lengths, group counts and
    # out-of-vocabulary slots, in batches of 3 (3 + 3 + 1) against batches of 1
    cfg = desk_config(dropout=0.1, layers=2, lam=0.5)
    examples = dataset.examples("train")[:7]
    sources = [dec.CopySource(ex.contexts, dataset.vocab) for ex in examples]
    assert len({len(ex.question) for ex in examples}) > 1
    assert len({len(ex.contexts.predicate_ids) for ex in examples}) > 1
    assert len({len(s.groups) for s in sources}) > 1 and len({s.n_oov for s in sources}) > 1
    model = tr.build_model(cfg, dataset)
    drops = lambda: [tr._dropout(cfg, 0, idx) for idx in range(len(examples))]
    batched_loss, batched = batch_grads(model, examples, cfg, 3, drops())
    alone_loss, alone = batch_grads(model, examples, cfg, 1, drops())
    assert batched_loss == pytest.approx(alone_loss, rel=1e-12)
    for name, g in alone.items():
        atol = 1e-12 * np.abs(g).max()
        np.testing.assert_allclose(batched[name], g, rtol=1e-12, atol=atol, err_msg=name)


def test_op_nodes_per_batch_do_not_grow_with_its_size(dataset):
    cfg = desk_config(dropout=0.1)
    examples = dataset.examples("train")
    counts = []
    for size in (1, 16):
        drops = [tr._dropout(cfg, 0, idx) for idx in range(size)]
        total, _ = tr.batch_loss(tr.build_model(cfg, dataset), examples[:size], cfg, drops)
        counts.append(op_nodes(ad.sum_all(total)))
    assert counts[0] == counts[1]


def test_pads_leave_the_other_examples_unchanged(dataset):
    # a longer example (question, predicate context, copy groups) pads the
    # batch's other rows; their per-example losses stay put
    cfg = desk_config(dropout=0.1, layers=2)
    examples = dataset.examples("train")
    short = [ex for ex in examples if len(ex.question) == 7][:3]
    longer = next(ex for ex in examples if len(ex.question) > 7)
    assert len(longer.contexts.predicate_ids) > max(len(ex.contexts.predicate_ids) for ex in short)
    model = tr.build_model(cfg, dataset)

    def losses(batch):
        drops = [tr._dropout(cfg, 0, idx) for idx in range(len(batch))]
        total, breakdowns = tr.batch_loss(model, batch, cfg, drops)
        assert np.all(np.isfinite(total.data))
        return [(b.ques_loss, b.ans_loss, b.argmin_pair) for b in breakdowns]

    alone, padded = losses(short), losses(short + [longer])[:3]
    for (q, a, pair), (q2, a2, pair2) in zip(alone, padded):
        assert q2 == pytest.approx(q, rel=1e-12) and a2 == pytest.approx(a, rel=1e-12) and pair2 == pair


def test_training_runs_a_partial_last_batch(dataset):
    # 26 examples in batches of 5: the last batch holds one
    cfg = desk_config(epochs=1, batch_size=5, dropout=0.1)
    result = tr.train(cfg, dataset)
    assert not result.aborted and math.isfinite(result.history[0][1])


def test_gradient_check_on_a_two_example_batch():
    # the gradcheck fixture's example plus one of other context, question and
    # copy-group lengths, with an out-of-vocabulary context token
    from kbqgen.cli import _gradcheck_fixture

    cfg = tr.TrainConfig(d=8, heads=2, layers=1, lam=0.2, seed=0).validate()
    model, first = _gradcheck_fixture(cfg)
    vocab = model.vocab
    words = (("w6", "w7"), ("w8",), ("w9", "w10", "zz", "w9"))
    contexts = cp.ContextSet(*words, *(tuple(vocab.id(t) for t in ctx) for ctx in words))
    question = ("w8", "<subj>", "w10", "zz", "w7", "w9", "?")
    second = cp.Example(
        fact=cp.Fact(1, 3, 0), contexts=contexts,
        question=(cp.BOS,) + tuple(vocab.id(t) for t in question) + (cp.EOS,),
        question_words=question, raw_question_words=question,
        answer_type_words=("w10", "w9", "zz"), subject_span=None,
    )
    assert len(second.question) != len(first.question)

    def f():
        total, _ = tr.batch_loss(model, [first, second], cfg)
        return ad.sum_all(total)

    assert ad.grad_check(f, model.parameters(), eps=1e-5) < 1e-4

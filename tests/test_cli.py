import math
from pathlib import Path

import numpy as np
import pytest

from kbqgen import cli
from kbqgen import corpus as cp
from kbqgen import textckpt
from kbqgen import trainer as tr


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert run("synth", "--seed", 3, "--entities", 18, "--predicates", 4,
               "--facts", 40, "--out-dir", root) == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli_run")
    cfg = out / "run.cfg"
    cfg.write_text("epochs=2\nd=16\nheads=2\nlayers=1\ndropout=0.0\n", encoding="utf-8")
    assert run("train", "--config", cfg, "--data-dir", data_dir,
               "--out-dir", out / "model", "--seed", 1) == 0
    return out


@pytest.fixture(scope="module")
def no_valid_dir(tmp_path_factory, data_dir):
    """The CLI corpus without its facts.valid.tsv."""
    root = tmp_path_factory.mktemp("no_valid")
    for path in Path(data_dir).iterdir():
        if path.name != "facts.valid.tsv":
            (root / path.name).write_bytes(path.read_bytes())
    return root


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        run("frobnicate")
    assert e.value.code == 2


def test_pretrain_kb_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run("pretrain-kb", "--facts", "data", "--out", "kb.ckpt")
    assert e.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run("synth", "--bogus", "1", "--out-dir", "/tmp/x")
    assert e.value.code == 2


def test_bad_config_is_exit_2(tmp_path, data_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery_key=1\n", encoding="utf-8")
    assert run("train", "--config", cfg, "--data-dir", data_dir,
               "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:1: unknown config key 'mystery_key'\n"
    assert "bad.cfg:1" in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", ["what 0.1 x 0.3", "what 0.1 0.2"])
def test_malformed_word_vectors_is_exit_2(tmp_path, data_dir, capsys, row):
    assert "what" in cp.load_dataset(data_dir).vocab
    vec_path = tmp_path / "vectors.txt"
    vec_path.write_text(row + "\n", encoding="utf-8")
    code = run("train", "--data-dir", data_dir, "--out-dir", tmp_path / "out",
               "--set", "epochs=0", "--set", "d=16", "--set", "heads=2",
               "--set", "layers=1", "--set", "transe=off",
               "--set", f"word_vectors={vec_path}")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {vec_path}:1: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["config", "word-vectors", "generations"])
def test_non_utf8_text_input_is_exit_2(tmp_path, data_dir, capsys, kind):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b"epochs=1\nd=16 \xe9\n")  # a Latin-1 byte on line 2
    out = tmp_path / "out"
    argv = {
        "config": ("train", "--config", bad, "--data-dir", data_dir, "--out-dir", out),
        "word-vectors": ("train", "--data-dir", data_dir, "--out-dir", out,
                         "--set", "epochs=0", "--set", f"word_vectors={bad}"),
        "generations": ("eval", "--generations", bad, "--data-dir", data_dir, "--out", out),
    }[kind]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: not UTF-8 text (") and err.count("\n") == 1


def test_generate_reads_no_word_vector_file(tmp_path, data_dir):
    vec_path = tmp_path / "vectors.txt"
    vec_path.write_text("what" + " 0.25" * 16 + "\n", encoding="utf-8")
    assert run("train", "--data-dir", data_dir, "--out-dir", tmp_path / "out",
               "--set", "epochs=1", "--set", "d=16", "--set", "heads=2", "--set", "layers=1",
               "--set", f"word_vectors={vec_path}") == 0

    def generate(name):
        assert run("generate", "--checkpoint", tmp_path / "out" / "model.ckpt",
                   "--data-dir", data_dir, "--out", tmp_path / name) == 0
        return (tmp_path / name).read_bytes()

    before = generate("before.tsv")
    vec_path.rename(tmp_path / "moved.txt")
    assert generate("after.tsv") == before


@pytest.mark.parametrize("argv, problem", [
    pytest.param(("train", "--set", "seed=-1"), "seed must be >= 0, got -1", id="seed"),
    pytest.param(("train", "--set", "heads=0"), "got 32, 0, 2", id="heads-0"),
    pytest.param(("train", "--set", "heads=-2"), "got 32, -2, 2", id="heads-negative"),
    pytest.param(("train", "--set", "d=0"), "got 0, 2, 2", id="d-0"),
    pytest.param(("train", "--set", "layers=-1"), "got 32, 2, -1", id="layers-negative"),
    pytest.param(("train", "--set", "max_len=0"), "max_len must be >= 2, got 0", id="max-len-0"),
    pytest.param(("ablate", "--grid", "components", "--seeds=-1"), "seed must be >= 0, got -1",
                 id="ablate-seeds"),
    pytest.param(("train", "--transe", "on", "--set", "transe_neg=0"), "transe_neg must be >= 1, got 0",
                 id="transe-neg-0"),
    pytest.param(("train", "--transe", "on", "--set", "transe_epochs=-3"),
                 "transe_epochs must be >= 0, got -3", id="transe-epochs-negative"),
    pytest.param(("train", "--set", "patience=-2"), "patience must be >= 0, got -2", id="patience-negative"),
    pytest.param(("train", "--set", "min_freq=-4"), "min_freq must be >= 1, got -4", id="min-freq-negative"),
    pytest.param(("train", "--set", "min_freq=0"), "min_freq must be >= 1, got 0", id="min-freq-0"),
    pytest.param(("train", "--set", "lr0=nan"), "lr0 must be finite, got nan", id="lr0-nan"),
    pytest.param(("train", "--set", "lr0=inf"), "lr0 must be finite, got inf", id="lr0-inf"),
    pytest.param(("train", "--set", "transe_lr=nan"), "transe_lr must be finite, got nan",
                 id="transe-lr-nan"),
    pytest.param(("train", "--set", "grad_clip=nan"), "grad_clip must be finite, got nan",
                 id="grad-clip-nan"),
    pytest.param(("train", "--set", "lam=nan"), "lam must be finite, got nan", id="lam-nan"),
    pytest.param(("train", "--set", "transe_margin=inf"), "transe_margin must be finite, got inf",
                 id="transe-margin-inf"),
    pytest.param(("train", "--set", "lam=-1"), "lam must be >= 0, got -1.0", id="lam-negative"),
    pytest.param(("train", "--lambda", "-1"), "lam must be >= 0, got -1.0", id="lambda-flag-negative"),
    pytest.param(("train", "--set", "batch_size=0"), "batch_size must be >= 1, got 0", id="batch-size-0"),
    pytest.param(("train", "--set", "epochs=-1"), "epochs must be >= 0, got -1", id="epochs-negative"),
])
def test_out_of_range_config_integer_is_exit_2(tmp_path, data_dir, capsys, argv, problem):
    assert run(*argv, "--data-dir", data_dir, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert problem in err and "Traceback" not in err


@pytest.mark.parametrize("sizes, problem", [
    pytest.param(("--entities", 0), "sizes must be >= 1", id="no-entities"),
    pytest.param(("--facts", 1), "drew 1 distinct facts over 1 predicates", id="one-fact"),
    # two entities allow only three distinct triples, one per predicate
    pytest.param(("--entities", 2, "--predicates", 3, "--facts", 5),
                 "drew 3 distinct facts over 3 predicates", id="train-cannot-cover"),
    # 10 x 10 two-word names plus 10 one-word names
    pytest.param(("--entities", 111), "110 distinct entity names, got 111", id="names-run-out"),
])
def test_impossible_synth_sizes_are_exit_2(tmp_path, capsys, sizes, problem):
    assert run("synth", *sizes, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: synth ") and err.count("\n") == 1
    assert problem in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_shortfall_is_one_stderr_line(tmp_path, capsys):
    # 12 entities over two types leave one predicate 36 distinct triples
    assert run("synth", "--entities", 12, "--predicates", 1, "--facts", 100, "--seed", 0,
               "--out-dir", tmp_path / "out") == 0
    out, err = capsys.readouterr()
    assert out.endswith(": train=26 valid=5 test=5\n")
    assert err == "synth: asked for 100 facts, wrote 36: the draw found no more distinct facts\n"
    assert run("synth", "--entities", 12, "--predicates", 3, "--facts", 24,
               "--out-dir", tmp_path / "full") == 0
    assert capsys.readouterr().err == ""


def test_missing_data_is_runtime_error(tmp_path):
    assert run("train", "--data-dir", tmp_path / "nowhere",
               "--out-dir", tmp_path / "out", "--set", "epochs=1") == 1


def test_synth_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--seed", 11, "--entities", 12, "--predicates", 3,
                   "--facts", 24, "--out-dir", out) == 0
    for name in ("entities.tsv", "predicates.tsv", "facts.train.tsv",
                 "facts.valid.tsv", "facts.test.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_rerun_byte_identical(tmp_path, data_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\nd=16\nheads=2\nlayers=1\ndropout=0.1\n", encoding="utf-8")
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert run("train", "--config", cfg, "--data-dir", data_dir,
                   "--out-dir", out, "--seed", 5) == 0
        outs.append(out)
    for name in ("model.ckpt", "train_log.tsv", "config.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_generate_and_eval_roundtrip(tmp_path, data_dir, trained):
    gen = tmp_path / "gen.tsv"
    assert run("generate", "--checkpoint", trained / "model" / "model.ckpt",
               "--data-dir", data_dir, "--split", "test", "--out", gen) == 0
    gen2 = tmp_path / "gen2.tsv"
    assert run("generate", "--checkpoint", trained / "model" / "model.ckpt",
               "--data-dir", data_dir, "--split", "test", "--out", gen2) == 0
    assert gen.read_bytes() == gen2.read_bytes()
    lines = gen.read_text().splitlines()
    assert lines and all(len(l.split("\t")) == 3 for l in lines)
    # mode audit string uses only g/k/c
    for line in lines:
        modes = line.split("\t")[2]
        assert set(modes) <= set("gkc")

    out = tmp_path / "eval"
    assert run("eval", "--generations", gen, "--data-dir", data_dir, "--out", out) == 0
    assert (out / "report.tsv").exists()
    metrics = dict(
        l.split("\t") for l in (out / "report.tsv").read_text().splitlines()
    )
    assert set(metrics) == {"bleu4", "rouge_l", "meteor", "answer_coverage"}


def write_gold_generations(data_dir, gen):
    """A generation file for the test split holding the reference questions."""
    ds = cp.load_dataset(data_dir)
    lines = []
    for ex in ds.examples("test"):
        fact_ids = " ".join(
            ds.kbvocab.token(i) for i in (ex.fact.subject, ex.fact.predicate, ex.fact.object)
        )
        lines.append(f"{fact_ids}\t{' '.join(ex.raw_question_words)}\tg")
    gen.write_text("".join(l + "\n" for l in lines), encoding="utf-8")


def test_eval_identity_scores_100(tmp_path, data_dir):
    gen = tmp_path / "gold.tsv"
    write_gold_generations(data_dir, gen)
    out = tmp_path / "eval_gold"
    assert run("eval", "--generations", gen, "--data-dir", data_dir, "--out", out) == 0
    metrics = dict(l.split("\t") for l in (out / "report.tsv").read_text().splitlines())
    assert float(metrics["bleu4"]) == pytest.approx(100.0)
    assert float(metrics["rouge_l"]) == pytest.approx(100.0)


def test_eval_mismatched_facts_rejected(tmp_path, data_dir):
    gen = tmp_path / "bad.tsv"
    from kbqgen import corpus as cp

    ds = cp.load_dataset(data_dir)
    n = len(ds.examples("test"))
    gen.write_text("e0 p0 e1\tnothing here\tg\n" * n, encoding="utf-8")
    assert run("eval", "--generations", gen, "--data-dir", data_dir,
               "--out", tmp_path / "out") == 2


def test_generate_on_checkpoint_cut_mid_row_is_exit_2(tmp_path, data_dir, trained, capsys):
    data = (trained / "model" / "model.ckpt").read_bytes()
    payload = data.index(b"\n", data.index(b"\nblock ") + 1) + 1  # the first block's values
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[: payload + 10])
    code = run("generate", "--checkpoint", cut, "--data-dir", data_dir,
               "--split", "test", "--out", tmp_path / "gen.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {cut}:") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "gen.tsv").exists()


def resign_config(src, dst, old, new, rehash=True):
    """Rewrite checkpoint src to dst with config line old replaced by new.

    With ``rehash`` the confighash line is the hash of the edited config lines;
    without it the original hash stays, stale.
    """
    header, blocks = textckpt.read(src)
    assert old in header["config"]
    config = [new if line == old else line for line in header["config"]]
    header["config"] = config
    if rehash:
        header["confighash"] = [tr.config_hash("".join(line + "\n" for line in config))]
    textckpt.write(dst, [(key, value) for key, values in header.items() for value in values],
                   blocks.items())


def test_generate_on_checkpoint_of_other_dims_is_exit_2(tmp_path, data_dir, capsys):
    assert run("train", "--data-dir", data_dir, "--out-dir", tmp_path / "run", "--set", "epochs=0") == 0
    other = tmp_path / "other.ckpt"
    resign_config(tmp_path / "run" / "model.ckpt", other, "d=32", "d=16")
    capsys.readouterr()
    code = run("generate", "--checkpoint", other, "--data-dir", data_dir,
               "--split", "test", "--out", tmp_path / "gen.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: checkpoint tensors do not fit this model: missing [], unknown [], "
                          "wrong shape ['word_emb (") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "gen.tsv").exists()
    # five misfits named, the rest counted: one short line whatever the model's size
    assert err.rstrip("\n").endswith(" more]") and err.count(" (") == 5 and len(err) < 400


def test_generate_on_checkpoint_with_a_stale_confighash_is_exit_2(tmp_path, data_dir, trained, capsys):
    stale = tmp_path / "stale.ckpt"
    resign_config(trained / "model" / "model.ckpt", stale, "use_ctx_copy=true", "use_ctx_copy=false",
                  rehash=False)
    code = run("generate", "--checkpoint", stale, "--data-dir", data_dir,
               "--split", "test", "--out", tmp_path / "gen.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {stale}: its confighash ") and err.count("\n") == 1
    assert err.endswith(" is not the hash of its config lines\n") and not (tmp_path / "gen.tsv").exists()
    # the same edit signed with its own hash loads
    resign_config(trained / "model" / "model.ckpt", stale, "use_ctx_copy=true", "use_ctx_copy=false")
    assert run("generate", "--checkpoint", stale, "--data-dir", data_dir,
               "--split", "test", "--out", tmp_path / "gen.tsv") == 0


@pytest.mark.parametrize("line", ["question_only=false", "use_fusion=true", "freeze_kb=false"])
def test_generate_on_checkpoint_with_an_unknown_config_key_is_exit_2(tmp_path, data_dir, trained, capsys,
                                                                     line):
    # checkpoints written while a retired key was a config key carry its line
    old = tmp_path / "old.ckpt"
    resign_config(trained / "model" / "model.ckpt", old, "patience=0", line)
    lineno = textckpt.read(old)[0]["config"].index(line) + 1
    code = run("generate", "--checkpoint", old, "--data-dir", data_dir,
               "--split", "test", "--out", tmp_path / "gen.tsv")
    assert code == 2 and not (tmp_path / "gen.tsv").exists()
    err = capsys.readouterr().err
    key = line.split("=")[0]
    assert err == f"error: {old}: config line {lineno}: unknown config key '{key}'\n"


@pytest.mark.parametrize("override", ["use_fusion=false", "freeze_kb=true"])
def test_retired_config_key_override_is_exit_2(tmp_path, data_dir, capsys, override):
    assert run("train", "--data-dir", data_dir, "--out-dir", tmp_path / "out", "--set", override) == 2
    key = override.split("=")[0]
    assert capsys.readouterr().err == f"error: override: unknown config key '{key}'\n"
    assert not (tmp_path / "out").exists()


def test_over_long_question_is_exit_2_before_any_epoch(tmp_path, data_dir, capsys):
    code = run("train", "--data-dir", data_dir, "--out-dir", tmp_path / "run",
               "--set", "epochs=1", "--set", "max_len=3")
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: train example 1 (") and err.count("\n") == 1
    assert err.endswith("decoder steps, more than max_len=3\n") and "Traceback" not in err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_eval_does_not_mutate_inputs(tmp_path, data_dir, trained):
    gen = tmp_path / "gen.tsv"
    run("generate", "--checkpoint", trained / "model" / "model.ckpt",
        "--data-dir", data_dir, "--split", "test", "--out", gen)
    before_gen = gen.read_bytes()
    before_facts = (Path(data_dir) / "facts.test.tsv").read_bytes()
    run("eval", "--generations", gen, "--data-dir", data_dir, "--out", tmp_path / "out")
    assert gen.read_bytes() == before_gen
    assert (Path(data_dir) / "facts.test.tsv").read_bytes() == before_facts


def test_gradcheck_command(capsys):
    assert run("gradcheck", "--seed", 0) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out


@pytest.mark.parametrize("switch", ["use_ctx_copy", "use_kb_copy"])
def test_gradcheck_checks_the_model_with_a_copy_mode_off(capsys, monkeypatch, switch):
    checked = []
    fixture = cli._gradcheck_fixture

    def spy(cfg):
        checked.append(fixture(cfg))
        return checked[-1]

    monkeypatch.setattr(cli, "_gradcheck_fixture", spy)
    assert run("gradcheck", "--set", f"{switch}=false") == 0
    assert "worst relative error" in capsys.readouterr().out
    (model, _), = checked
    assert getattr(model, switch) is False
    other = {"use_ctx_copy": "use_kb_copy", "use_kb_copy": "use_ctx_copy"}[switch]
    assert getattr(model, other) is True and model.kb_emb.value.data.dtype == np.float64


def test_gradcheck_refuses_float32(capsys):
    assert run("gradcheck", "--set", "dtype=float32") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: gradcheck runs in float64 only: finite differences are not "
                            "trustworthy in float32\n")


def test_eval_validation_and_the_trainer_score_the_written_question(tmp_path, data_dir, trained):
    """kbqgen eval, training's validation and trainer.score_split agree, and score raw_question_words."""
    from kbqgen import metrics

    ckpt_path = trained / "model" / "model.ckpt"
    gen = tmp_path / "gen.tsv"
    assert run("generate", "--checkpoint", ckpt_path, "--data-dir", data_dir, "--split", "valid",
               "--out", gen) == 0
    assert run("eval", "--generations", gen, "--data-dir", data_dir, "--split", "valid",
               "--out", tmp_path / "eval") == 0
    reported = dict(l.split("\t") for l in (tmp_path / "eval" / "report.tsv").read_text().splitlines())

    ckpt = tr.load_checkpoint(ckpt_path)
    cfg = tr.parse_config(text=ckpt.config_text)
    dataset = cp.load_dataset(data_dir)
    model = tr.model_from_checkpoint(cfg, dataset, ckpt)
    report = tr.score_split(model, dataset, "valid", max_len=cfg.max_len)
    examples = dataset.examples("valid")
    tokens = [line.split("\t")[1].split() for line in gen.read_text().splitlines()]
    written = [ex.raw_question_words for ex in examples]
    assert written != [ex.question_words for ex in examples]
    bleu = f"{metrics.bleu4(tokens, written):.4f}"
    coverage = f"{metrics.answer_coverage(tokens, [ex.answer_type_words for ex in examples]):.4f}"
    assert reported["bleu4"] == f"{report.bleu4:.4f}" == bleu
    assert reported["answer_coverage"] == f"{report.answer_coverage:.4f}" == coverage
    logged = dict(l.split("\t")[::2] for l in (trained / "model" / "train_log.tsv").read_text().splitlines())
    assert logged[str(ckpt.epoch)] == bleu


def test_diverged_train_logs_the_finished_epochs(tmp_path, data_dir, capsys, monkeypatch):
    steps = math.ceil(len(cp.load_dataset(data_dir).examples("train")) / 16)  # RMSProp steps per epoch
    original, taken = tr.RMSProp.step, []

    def inf_in_epoch_2(self, lr, clip=0.0):
        taken.append(lr)
        if len(taken) == steps + 1:
            self.params[0].value.grad[0, 0] = np.inf
        return original(self, lr, clip)

    monkeypatch.setattr(tr.RMSProp, "step", inf_in_epoch_2)
    out = tmp_path / "out"
    assert run("train", "--data-dir", data_dir, "--out-dir", out, "--set", "epochs=3",
               "--set", "d=16", "--set", "heads=2", "--set", "layers=1") == 1
    captured = capsys.readouterr()
    assert captured.err == "training diverged; kept last finite checkpoint\n"
    log = (out / "train_log.tsv").read_text()
    assert log == captured.out and log.startswith("1\t") and log.count("\n") == 1
    assert tr.load_checkpoint(out / "model.ckpt").epoch == 1


def test_log_format(trained):
    lines = (trained / "model" / "train_log.tsv").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        epoch, loss, bleu = line.split("\t")
        int(epoch), float(loss), float(bleu)


def test_best_epoch_line_names_the_checkpoint_epoch(tmp_path, data_dir, capsys):
    from kbqgen import trainer as tr

    out = tmp_path / "out"
    assert run("train", "--data-dir", data_dir, "--out-dir", out, "--set", "epochs=3",
               "--set", "d=16", "--set", "heads=2", "--set", "layers=1") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("best valid BLEU-4 ")
    named = int(line.split(" at epoch ")[1].split(";")[0])
    assert named == tr.load_checkpoint(out / "model.ckpt").epoch
    logged = [line.split("\t")[0] for line in (out / "train_log.tsv").read_text().splitlines()]
    assert logged == ["1", "2", "3"]


def trained_alone_row(name, cfg, dataset, split):
    """The ablation table row of one cell and seed: trained, rebuilt from its best checkpoint, scored."""
    from kbqgen import metrics

    model = tr.model_from_checkpoint(cfg, dataset, tr.train(cfg, dataset).best)
    tokens = [t for t, _ in tr.decode_split(model, dataset, split, max_len=cfg.max_len)]
    examples = dataset.examples(split)
    bleu = metrics.bleu4(tokens, [list(ex.raw_question_words) for ex in examples])
    coverage = metrics.answer_coverage(tokens, [set(ex.answer_type_words) for ex in examples])
    return f"{name}\t{cfg.seed}\t{bleu:.4f}\t{coverage:.4f}"


RUN_KEYS = ("seed", "lam", "transe", "use_kb_copy", "use_ctx_copy", "diversified")


def grid_runs(grid, cfg, seeds):
    """The RUN_KEYS of each run of trainer.GRIDS[grid] over seeds, in table order."""
    from dataclasses import replace

    runs = [replace(cfg, seed=seed, **keys) for _, keys in tr.GRIDS[grid][1] for seed in seeds]
    return [tuple(getattr(run, key) for key in RUN_KEYS) for run in runs]


def spy_train(monkeypatch):
    """(RUN_KEYS of the config, dataset, KB table) of each trainer.train call, in call order."""
    calls = []
    train = tr.train

    def spy(cfg, ds, kb=None, **kw):
        calls.append((tuple(getattr(cfg, key) for key in RUN_KEYS), ds, kb))
        return train(cfg, ds, kb, **kw)

    monkeypatch.setattr(tr, "train", spy)
    return calls


def count_transe_pretraining(monkeypatch):
    from kbqgen import kbembed

    calls = []
    pretrain = kbembed.pretrain_transe
    monkeypatch.setattr(kbembed, "pretrain_transe", lambda *a, **kw: calls.append(1) or pretrain(*a, **kw))
    return calls


def test_lambda_transe_grid_pretrains_once(tmp_path, data_dir, monkeypatch):
    from dataclasses import replace

    calls = count_transe_pretraining(monkeypatch)
    overrides = ["epochs=1", "transe_epochs=2", "d=8", "heads=2", "layers=1"]
    argv = ["ablate", "--grid", "lambda-transe", "--seeds", "0", "--data-dir", data_dir, "--out-dir", tmp_path]
    assert run(*argv, *[arg for o in overrides for arg in ("--set", o)]) == 0
    lines = (tmp_path / "ablate_lambda_transe.tsv").read_text().splitlines()
    assert lines[0] == "cell\tseed\tbleu4\tanswer_coverage"
    assert len(lines) == 11 and len(calls) == 1
    # the shared table gives each TransE cell what it gets pretraining alone
    cfg = tr.parse_config(overrides=overrides)
    dataset = cp.load_dataset(data_dir)
    cells = [(transe, lam) for transe in (True, False) for lam in (0.0, 0.05, 0.2, 0.5, 1.0)]
    for line, (transe, lam) in zip(lines[1:], cells):
        name = f"{'transe' if transe else 'no_transe'}_lambda_{lam}"
        assert line == trained_alone_row(name, replace(cfg, lam=lam, transe=transe), dataset, "test")
    assert len(calls) == 6


def test_lambda_transe_grid_pretrains_once_per_seed(tmp_path, data_dir, monkeypatch):
    import numpy as np

    calls = count_transe_pretraining(monkeypatch)
    runs = spy_train(monkeypatch)
    overrides = ["epochs=1", "transe_epochs=2", "d=8", "heads=2", "layers=1"]
    assert run("ablate", "--grid", "lambda-transe", "--seeds", "0,1", "--data-dir", data_dir,
               "--out-dir", tmp_path, *[arg for o in overrides for arg in ("--set", o)]) == 0
    lines = (tmp_path / "ablate_lambda_transe.tsv").read_text().splitlines()[1:]
    assert len(lines) == 20 and len(calls) == 2
    assert [line.split("\t")[1] for line in lines] == ["0", "1"] * 10
    assert lines[0].startswith("transe_lambda_0.0\t0\t") and lines[-1].startswith("no_transe_lambda_1.0\t1\t")
    # each run trains its own cell's config, cell by cell and seed by seed
    cfg = tr.parse_config(overrides=overrides)
    assert [keys for keys, _, _ in runs] == grid_runs("lambda-transe", cfg, (0, 1))
    # each seed's TransE cells share one table, the one that seed pretrains alone
    assert all(kb is None for (_, _, transe, *_), _, kb in runs if not transe)
    dataset = cp.load_dataset(data_dir)
    for seed in (0, 1):
        shared = {id(kb): kb for (s, _, transe, *_), _, kb in runs if transe and s == seed}
        assert len(shared) == 1
        alone = tr.pretrain_kb(tr.parse_config(overrides=overrides + [f"seed={seed}"]), dataset)
        assert np.array_equal(next(iter(shared.values())).table, alone.table)


def test_ablate_refuses_a_negative_seed_before_training(tmp_path, data_dir, capsys, monkeypatch):
    trained_runs = []
    monkeypatch.setattr(tr, "train", lambda *a, **kw: trained_runs.append(1))
    for grid in ("lambda-transe", "components"):
        assert run("ablate", "--grid", grid, "--seeds", "0,-1", "--data-dir", data_dir,
                   "--out-dir", tmp_path / "abl", "--set", "epochs=1") == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "abl").exists() and trained_runs == []


@pytest.mark.parametrize("seeds, repeated", [("0,0", 0), ("1,01", 1), ("2,0,3,0", 0)])
def test_ablate_refuses_a_repeated_seed_before_training(tmp_path, data_dir, capsys, monkeypatch,
                                                        seeds, repeated):
    trained_runs = []
    monkeypatch.setattr(tr, "train", lambda *a, **kw: trained_runs.append(1))
    assert run("ablate", "--grid", "components", "--seeds", seeds, "--data-dir", data_dir,
               "--out-dir", tmp_path / "abl", "--set", "epochs=1") == 2
    assert capsys.readouterr().err == f"error: seed {repeated} is given more than once\n"
    assert not (tmp_path / "abl").exists() and trained_runs == []


def test_train_without_validation_saves_the_last_epoch(tmp_path, no_valid_dir, capsys):
    from kbqgen import trainer as tr

    assert run("train", "--data-dir", no_valid_dir, "--out-dir", tmp_path / "out",
               "--set", "epochs=3", "--set", "d=16", "--set", "heads=2",
               "--set", "layers=1", "--set", "transe=off") == 0
    assert tr.load_checkpoint(tmp_path / "out" / "model.ckpt").epoch == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("no validation ran")


@pytest.mark.parametrize("command", ["generate", "ablate"])
def test_missing_split_is_exit_2(tmp_path, no_valid_dir, trained, capsys, command):
    if command == "generate":
        argv = ("generate", "--checkpoint", trained / "model" / "model.ckpt", "--data-dir",
                no_valid_dir, "--split", "valid", "--out", tmp_path / "gen.tsv")
    else:
        argv = ("ablate", "--grid", "components", "--data-dir", no_valid_dir,
                "--out-dir", tmp_path / "abl", "--set", "epochs=1", "--set", "d=16",
                "--set", "heads=2", "--set", "layers=1")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'valid'" in err and "facts.valid.tsv" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, problem", [
    pytest.param("ablate", "--seeds", "1,x", "must be comma-separated integers, got '1,x'",
                 id="seeds-not-integers"),
    pytest.param("ablate", "--seeds", "", "must be comma-separated integers, got ''",
                 id="seeds-empty"),
    pytest.param("eval", "--annotation-size", "-1", "must be >= 0, got -1",
                 id="negative-annotation-size"),
    pytest.param("generate", "--beam", "-2", "must be at least 1, got -2", id="negative-beam"),
    pytest.param("generate", "--beam", "0", "must be at least 1, got 0", id="zero-beam"),
])
def test_bad_numeric_argument_is_exit_2(tmp_path, data_dir, trained, capsys,
                                        command, flag, value, problem):
    if command == "ablate":
        rest = ("--grid", "components", "--data-dir", data_dir, "--out-dir", tmp_path / "abl",
                "--set", "epochs=1", "--set", "d=16", "--set", "heads=2", "--set", "layers=1")
    elif command == "eval":
        write_gold_generations(data_dir, tmp_path / "gold.tsv")
        rest = ("--generations", tmp_path / "gold.tsv", "--data-dir", data_dir,
                "--out", tmp_path / "eval")
    else:
        rest = ("--checkpoint", trained / "model" / "model.ckpt", "--data-dir", data_dir,
                "--out", tmp_path / "gen.tsv")
    assert run(command, flag, value, *rest) == 2
    assert capsys.readouterr().err == f"error: {flag} {problem}\n"


def test_components_grid_loads_each_distinct_dataset_once(tmp_path, data_dir, monkeypatch):
    from dataclasses import replace

    loads = []
    load_dataset = cp.load_dataset
    monkeypatch.setattr(cp, "load_dataset", lambda *a, **kw: loads.append(kw) or load_dataset(*a, **kw))
    runs = spy_train(monkeypatch)
    overrides = ["epochs=1", "d=8", "heads=2", "layers=1"]
    assert run("ablate", "--grid", "components", "--seeds", "0,1", "--data-dir", data_dir,
               "--out-dir", tmp_path, *[arg for o in overrides for arg in ("--set", o)]) == 0
    assert sorted(kw["diversified"] for kw in loads) == [False, True]
    # each run trains its own cell's config on the dataset of its diversified value
    cfg = tr.parse_config(overrides=overrides)
    assert [keys for keys, _, _ in runs] == grid_runs("components", cfg, (0, 1))
    assert len({id(ds) for _, ds, _ in runs}) == len({(keys[-1], id(ds)) for keys, ds, _ in runs}) == 2
    # each row is that variant and seed trained alone on a fresh load
    variants = [
        ("full", {}), ("no_ctx_copy", {"use_ctx_copy": False}), ("no_kb_copy", {"use_kb_copy": False}),
        ("no_answer_loss", {"lam": 0.0}), ("no_diversified_contexts", {"diversified": False}),
    ]
    expected = []
    for name, keys in variants:
        dataset = load_dataset(data_dir, diversified=keys.get("diversified", True))
        for seed in (0, 1):
            expected.append(trained_alone_row(name, replace(cfg, seed=seed, **keys), dataset, "valid"))
    lines = (tmp_path / "ablate_components.tsv").read_text().splitlines()
    assert lines == ["cell\tseed\tbleu4\tanswer_coverage", *expected]


def _edit_second_row(column, value):
    def edit(data):
        lines = data.split(b"\n")
        cols = lines[1].split(b"\t")
        cols[column] = value
        lines[1] = b"\t".join(cols)
        return b"\n".join(lines)

    return edit


@pytest.mark.parametrize("command", ["train"])
@pytest.mark.parametrize("name, edit, problem", [
    pytest.param("facts.train.tsv", _edit_second_row(0, b"p0"),
                 "subject 'p0' is not an entity id", id="predicate-as-subject"),
    pytest.param("facts.test.tsv", _edit_second_row(1, b"e0"),
                 "predicate 'e0' is not a predicate id", id="entity-as-predicate"),
    pytest.param("facts.valid.tsv", _edit_second_row(2, b"p1"),
                 "object 'p1' is not an entity id", id="predicate-as-object"),
    pytest.param("facts.train.tsv", _edit_second_row(2, b"e99"),
                 "unknown KB id 'e99'", id="unknown-object"),
    pytest.param("facts.train.tsv", _edit_second_row(3, b"caf\xe9 ?"),
                 "not UTF-8 text", id="latin1-facts"),
    pytest.param("entities.tsv", _edit_second_row(1, b"\xff"),
                 "not UTF-8 text", id="bad-byte-entities"),
    pytest.param("predicates.tsv", _edit_second_row(2, b"\xc3"),
                 "not UTF-8 text", id="cut-char-predicates"),
    pytest.param("predicates.tsv", _edit_second_row(0, b"e0"),
                 "predicate id 'e0' is also an entity id", id="entity-id-predicate-row"),
])
def test_bad_corpus_row_is_exit_2(tmp_path, data_dir, capsys, command, name, edit, problem):
    root = tmp_path / "data"
    root.mkdir()
    for path in Path(data_dir).iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    (root / name).write_bytes(edit((root / name).read_bytes()))
    assert run(command, "--data-dir", root, "--out-dir", tmp_path / "out", "--set", "epochs=1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / name}:2: {problem}")
    assert err.count("\n") == 1 and "Traceback" not in err

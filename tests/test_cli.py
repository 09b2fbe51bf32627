from pathlib import Path

import pytest

from kbqgen import cli
from kbqgen import corpus as cp


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


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run("synth", "--bogus", "1", "--out-dir", "/tmp/x")
    assert e.value.code == 2


def test_bad_config_is_exit_2(tmp_path, data_dir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery_key=1\n", encoding="utf-8")
    assert run("train", "--config", cfg, "--data-dir", data_dir,
               "--out-dir", tmp_path / "out") == 2


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


def test_eval_identity_scores_100(tmp_path, data_dir):
    from kbqgen import corpus as cp

    ds = cp.load_dataset(data_dir)
    gen = tmp_path / "gold.tsv"
    lines = []
    for ex in ds.examples("test"):
        fact_ids = " ".join(
            ds.kbvocab.token(i) for i in (ex.fact.subject, ex.fact.predicate, ex.fact.object)
        )
        lines.append(f"{fact_ids}\t{' '.join(ex.raw_question_words)}\tg")
    gen.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
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
    text = (trained / "model" / "model.ckpt").read_text(encoding="utf-8")
    row = text.index("\n", text.index("\nblock ") + 1) + 1  # first row of the first block
    cut = tmp_path / "cut.ckpt"
    cut.write_text(text[: row + 10], encoding="utf-8")
    code = run("generate", "--checkpoint", cut, "--data-dir", data_dir,
               "--split", "test", "--out", tmp_path / "gen.tsv")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {cut}:") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "gen.tsv").exists()


def test_eval_does_not_mutate_inputs(tmp_path, data_dir, trained):
    gen = tmp_path / "gen.tsv"
    run("generate", "--checkpoint", trained / "model" / "model.ckpt",
        "--data-dir", data_dir, "--split", "test", "--out", gen)
    before_gen = gen.read_bytes()
    before_facts = (Path(data_dir) / "facts.test.tsv").read_bytes()
    run("eval", "--generations", gen, "--data-dir", data_dir, "--out", tmp_path / "out")
    assert gen.read_bytes() == before_gen
    assert (Path(data_dir) / "facts.test.tsv").read_bytes() == before_facts


def test_pretrain_kb_roundtrip(tmp_path, data_dir):
    out = tmp_path / "kb.ckpt"
    assert run("pretrain-kb", "--facts", data_dir, "--out", out,
               "--seed", 2, "--set", "transe_epochs=2", "--set", "d=16") == 0
    from kbqgen import kbembed

    emb = kbembed.load_checkpoint(out)
    assert emb.pretrained
    assert emb.table.shape[1] == 16
    out2 = tmp_path / "kb2.ckpt"
    run("pretrain-kb", "--facts", data_dir, "--out", out2,
        "--seed", 2, "--set", "transe_epochs=2", "--set", "d=16")
    assert out.read_bytes() == out2.read_bytes()


def test_gradcheck_command(capsys):
    assert run("gradcheck", "--seed", 0) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out


def test_log_format(trained):
    lines = (trained / "model" / "train_log.tsv").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        epoch, loss, bleu = line.split("\t")
        int(epoch), float(loss), float(bleu)


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


def _edit_second_row(column, value):
    def edit(data):
        lines = data.split(b"\n")
        cols = lines[1].split(b"\t")
        cols[column] = value
        lines[1] = b"\t".join(cols)
        return b"\n".join(lines)

    return edit


@pytest.mark.parametrize("command", ["train", "pretrain-kb"])
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
])
def test_bad_corpus_row_is_exit_2(tmp_path, data_dir, capsys, command, name, edit, problem):
    root = tmp_path / "data"
    root.mkdir()
    for path in Path(data_dir).iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    (root / name).write_bytes(edit((root / name).read_bytes()))
    if command == "train":
        argv = ("train", "--data-dir", root, "--out-dir", tmp_path / "out", "--set", "epochs=1")
    else:
        argv = ("pretrain-kb", "--facts", root, "--out", tmp_path / "kb.ckpt")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / name}:2: {problem}")
    assert err.count("\n") == 1 and "Traceback" not in err

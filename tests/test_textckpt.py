"""The checkpoint text format: bit-exact round trips and refusal of damaged files."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbqgen import cli
from kbqgen import kbembed
from kbqgen import textckpt
from kbqgen import trainer as tr
from kbqgen.cli import _gradcheck_fixture
from kbqgen.textckpt import ConfigError


def tiny_model_checkpoint():
    cfg = tr.TrainConfig(d=8, heads=2, layers=1)
    model, _ = _gradcheck_fixture(cfg)
    optimizer = tr.RMSProp(model.parameters())
    return tr.Checkpoint(
        tensors={name: p.value.data.copy() for name, p in model.registry.items()},
        moments={name: v + 0.5 for name, v in optimizer.moments.items()},
        epoch=3, config_hash=cfg.hash(), config_text=cfg.canonical_text(),
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """File text of a tiny model checkpoint and a KB checkpoint, by kind."""
    root = tmp_path_factory.mktemp("ckpt")
    tr.save_checkpoint(tiny_model_checkpoint(), root / "model.ckpt")
    table = np.random.default_rng(4).normal(size=(6, 8))
    kbembed.save_checkpoint(kbembed.KBEmbeddingMatrix(table=table, pretrained=True), root / "kb.ckpt")
    return {
        "model": (root / "model.ckpt").read_text(encoding="utf-8"),
        "kb": (root / "kb.ckpt").read_text(encoding="utf-8"),
    }


LOADERS = {"model": tr.load_checkpoint, "kb": kbembed.load_checkpoint}


def row_line_indices(lines):
    rows = []
    for i, line in enumerate(lines):
        if line.startswith("block "):
            rows.extend(range(i + 1, i + 1 + int(line.split()[2])))
    return rows


@st.composite
def damaged(draw, text):
    """A proper prefix, a row with one number added or removed, or a wrong magic."""
    how = draw(st.sampled_from(["prefix", "row", "magic"]))
    if how == "prefix":
        return text[: draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines(keepends=True)
    if how == "row":
        i = draw(st.sampled_from(row_line_indices(lines)))
        numbers = lines[i].split()
        numbers = numbers + ["0.5"] if draw(st.booleans()) else numbers[:-1]
        lines[i] = " ".join(numbers) + "\n"
    else:
        magic = draw(st.sampled_from(["kbqgen-model", "kbqgen-kb", "kbqgen", "KBQGEN-MODEL", ""]))
        version = lines[0].split()[1]
        if lines[0].startswith(magic + " "):
            magic += "x"
        lines[0] = f"{magic} {version}\n"
    return "".join(lines)


def test_round_trip_is_bit_exact(tmp_path):
    special = np.array([[0.0, -0.0, np.nan, np.inf], [-np.inf, 5e-324, 1 / 3, -1.7976931348623157e308]])
    path = tmp_path / "x.ckpt"
    textckpt.write(path, "demo", [("a", 1), ("note", "two words"), ("a", "")], [("m", special)])
    header, blocks = textckpt.read(path, "demo")
    assert header == {"a": ["1", ""], "note": ["two words"]}
    assert textckpt.field(path, header, "note") == "two words"
    with pytest.raises(ConfigError, match="bad or missing 'a' header line"):
        textckpt.field(path, header, "a")
    assert list(blocks) == ["m"] and blocks["m"].tobytes() == special.tobytes()


@pytest.mark.parametrize("row", ["\n", " \t\n"])
def test_blank_row_is_refused_in_a_one_column_block(tmp_path, row):
    path = tmp_path / "x.ckpt"
    textckpt.write(path, "demo", [], [("col", np.arange(3.0)[:, None])])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = row
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError, match=":4: block 'col': an empty row"):
        textckpt.read(path, "demo")


def test_saved_checkpoints_load_back(saved, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text(saved["model"], encoding="utf-8")
    loaded, ckpt = tr.load_checkpoint(path), tiny_model_checkpoint()
    assert (loaded.epoch, loaded.config_hash, loaded.config_text) == (
        ckpt.epoch, ckpt.config_hash, ckpt.config_text)
    for mine, theirs in ((loaded.tensors, ckpt.tensors), (loaded.moments, ckpt.moments)):
        assert list(mine) == list(theirs)
        assert all(np.array_equal(mine[n], theirs[n]) for n in theirs)


def test_model_file_cut_before_a_block_header_is_refused(saved, tmp_path):
    text = saved["model"]
    cut = text.index("\nblock ", text.index("\nblock ") + 1) + 1
    path = tmp_path / "model.ckpt"
    path.write_text(text[:cut], encoding="utf-8")
    with pytest.raises(ConfigError, match="file ends before the end line"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize(
    "old", ["kbqgen-model 1\nepoch 0\n", "kbqgen-kb 1\nk 1\nd 1\npretrained 0\n0.5\n"]
)
def test_old_layout_is_refused(tmp_path, old):
    path = tmp_path / "old.ckpt"
    path.write_text(old, encoding="utf-8")
    magic = old.split()[0]
    loader = tr.load_checkpoint if magic == "kbqgen-model" else kbembed.load_checkpoint
    with pytest.raises(ConfigError, match=f":1: expected '{magic} 2', got '{magic} 1'"):
        loader(path)


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda t: t.replace("end\n", "end\nextra\n"), "data after the end line"),
        (lambda t: t.replace("block table 6 8", "block table 6 x"), "bad or repeated block header"),
        (lambda t: t.replace("pretrained 1", "pretrained yes"),
         "bad or missing 'pretrained' header line"),
        (lambda t: t.replace("end\n", "block table 0 8\nend\n"), "bad or repeated block header"),
        (lambda t: t.replace("6 8\n", "6 8\n1 2 3 4 5 6 7 8a\n"), "a row that is not all numbers"),
        (lambda t: t.replace("block table", "block tables"), "expected only 'table'"),
    ],
)
def test_corrupt_kb_checkpoint_names_the_problem(saved, tmp_path, edit, problem):
    path = tmp_path / "kb.ckpt"
    path.write_text(edit(saved["kb"]), encoding="utf-8")
    with pytest.raises(ConfigError, match=problem):
        kbembed.load_checkpoint(path)


def test_non_utf8_checkpoint_is_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"kbqgen-model 2\n\xff\n")
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("kind", ["model", "kb"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_is_refused(saved, tmp_path_factory, kind, data):
    text = data.draw(damaged(saved[kind]))
    path = tmp_path_factory.getbasetemp() / f"damaged.{kind}.ckpt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        LOADERS[kind](path)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_is_exit_2_through_the_cli(saved, tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    path = root / "damaged.cli.ckpt"
    path.write_text(data.draw(damaged(saved["model"])), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["generate", "--checkpoint", str(path), "--data-dir", str(root),
                         "--out", str(root / "gen.tsv")])
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}"), lines

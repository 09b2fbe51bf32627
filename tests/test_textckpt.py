"""The checkpoint file format: bit-exact round trips and refusal of damaged files."""

import contextlib
import hashlib
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbqgen import cli
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
    """File bytes by kind: a tiny model checkpoint, and a [6, 8] KB table as one block."""
    root = tmp_path_factory.mktemp("ckpt")
    tr.save_checkpoint(tiny_model_checkpoint(), root / "model.ckpt")
    table = np.random.default_rng(4).normal(size=(6, 8))
    textckpt.write(root / "kb.ckpt", [], [("table", table)])
    return {"model": (root / "model.ckpt").read_bytes(), "kb": (root / "kb.ckpt").read_bytes()}


LOADERS = {"model": tr.load_checkpoint, "kb": textckpt.read}


def resign(data):
    """data with its end line's digest recomputed, so that only the edit itself is wrong."""
    cut = data.index(b"end sha256 ")
    rest = data[data.index(b"\n", cut) + 1:]
    return data[:cut] + b"end sha256 " + hashlib.sha256(data[:cut]).hexdigest().encode() + b"\n" + rest


def block_payload(data, name):
    """The raw float64 bytes of a block, and the edit that swaps in others before its newline."""
    header = data.index(f"block {name} ".encode())
    start = data.index(b"\n", header) + 1
    rows, cols = map(int, data[header:start].split()[2:])
    end = start + 8 * rows * cols
    return data[start:end], lambda new: data[:start] + new + data[end:]


@st.composite
def damaged(draw, data):
    """data with one byte replaced by any other value, or cut to a proper prefix."""
    i = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return data[:i]
    value = draw(st.integers(0, 255).filter(lambda v: v != data[i]))
    return data[:i] + bytes([value]) + data[i + 1:]


def test_round_trip_is_bit_exact(tmp_path):
    special = np.array([[0.0, -0.0, np.nan, np.inf], [-np.inf, 5e-324, 1 / 3, -1.7976931348623157e308]])
    path = tmp_path / "x.ckpt"
    textckpt.write(path, [("a", 1), ("note", "two words"), ("a", "")],
                   [("m", special), ("empty", np.zeros((0, 3)))])
    header, blocks = textckpt.read(path)
    assert header == {"a": ["1", ""], "note": ["two words"]}
    assert textckpt.field(path, header, "note") == "two words"
    with pytest.raises(ConfigError, match="bad or missing 'a' header line"):
        textckpt.field(path, header, "a")
    assert list(blocks) == ["m", "empty"] and blocks["m"].tobytes() == special.tobytes()
    assert blocks["empty"].shape == (0, 3) and blocks["m"].flags.writeable
    body, end = path.read_bytes().rsplit(b"end sha256 ", 1)
    assert end == hashlib.sha256(body).hexdigest().encode() + b"\n"


@pytest.mark.parametrize("row", ["\n", " \t\n"])
def test_blank_row_is_refused_in_a_one_column_block(tmp_path, row):
    path = tmp_path / "x.ckpt"
    textckpt.write(path, [], [("col", np.arange(3.0)[:, None])])
    _, swap = block_payload(path.read_bytes(), "col")
    path.write_bytes(resign(swap(row.rstrip("\n").encode())))
    with pytest.raises(ConfigError, match=":3: block 'col': its 24 bytes are not followed by a newline"):
        textckpt.read(path)


def test_saved_checkpoints_load_back(saved, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(saved["model"])
    loaded, ckpt = tr.load_checkpoint(path), tiny_model_checkpoint()
    assert (loaded.epoch, loaded.config_hash, loaded.config_text) == (
        ckpt.epoch, ckpt.config_hash, ckpt.config_text)
    for mine, theirs in ((loaded.tensors, ckpt.tensors), (loaded.moments, ckpt.moments)):
        assert list(mine) == list(theirs)
        assert all(np.array_equal(mine[n], theirs[n]) for n in theirs)


def test_model_file_cut_before_a_block_header_is_refused(saved, tmp_path):
    data = saved["model"]
    cut = data.index(b"\nblock ", data.index(b"\nblock ") + 1) + 1
    path = tmp_path / "model.ckpt"
    path.write_bytes(data[:cut])
    with pytest.raises(ConfigError, match="file ends before the end line"):
        tr.load_checkpoint(path)


def test_model_file_with_a_stray_block_is_refused(saved, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(resign(saved["model"].replace(b"block tensor/", b"block table/", 1)))
    with pytest.raises(ConfigError, match="a block named neither tensor/<name> nor moment/<name>"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize(
    "old",
    [
        "kbqgen-model 1\nepoch 0\n",
        "kbqgen-kb 3\npretrained 0\nblock table 1 1\nAAAAAAAA4D8=\n",
        "kbqgen-model 2\nepoch 0\nconfighash 0\nblock tensor/w 1 2\n0.5 0.25\nend\n",
        "kbqgen-model 3\nepoch 0\nconfighash 0\nblock tensor/w 1 1\nAAAAAAAA4D8=\nend sha256 0\n",
    ],
)
def test_old_layout_is_refused(tmp_path, old):
    path = tmp_path / "old.ckpt"
    path.write_text(old, encoding="utf-8")
    magic, version = old.split()[:2]
    with pytest.raises(ConfigError, match=f":1: expected 'kbqgen-model 4', got '{magic} {version}'"):
        tr.load_checkpoint(path)


def drop_last_value(data):
    payload, swap = block_payload(data, "table")
    return resign(swap(payload[:-8]))


def add_a_value(data):
    payload, swap = block_payload(data, "table")
    return resign(swap(payload + bytes(8)))


def flip_a_payload_byte(data):
    payload, swap = block_payload(data, "table")
    return swap(payload[:5] + bytes([payload[5] ^ 1]) + payload[6:])


def payload_then_not_a_newline(data):
    payload, swap = block_payload(data, "table")
    return resign(swap(payload + b"x"))


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda t: t + b"extra\n", "data after the end line"),
        (lambda t: resign(t.replace(b"block table 6 8", b"block table 6 x")),
         "bad or repeated block header"),
        (lambda t: resign(t.replace(b"end sha256", b"block table 0 8\n\nend sha256")),
         "bad or repeated block header"),
        (payload_then_not_a_newline, ":3: block 'table': its 384 bytes are not followed by a newline"),
        (drop_last_value, ":3: block 'table': its 384 bytes are not followed by a newline"),
        (add_a_value, ":3: block 'table': its 384 bytes are not followed by a newline"),
        (flip_a_payload_byte, ":4: the sha256 on the end line does not match"),
        (lambda t: t.replace(b"end sha256 ", b"end sha512 "), "expected a block or the end line"),
    ],
)
def test_corrupt_kb_checkpoint_names_the_problem(saved, tmp_path, edit, problem):
    path = tmp_path / "kb.ckpt"
    path.write_bytes(edit(saved["kb"]))
    with pytest.raises(ConfigError, match=problem):
        textckpt.read(path)


def test_lying_block_header_is_refused_before_any_allocation(saved, tmp_path):
    # 8 TB of values claimed by a re-signed file of a few hundred bytes
    path = tmp_path / "kb.ckpt"
    path.write_bytes(resign(saved["kb"].replace(b"block table 6 8", b"block table 1000000000 1000")))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=":3: block 'table': file ends in it"):
            textckpt.read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_non_utf8_checkpoint_is_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"kbqgen-model 4\n\xff\n")
    with pytest.raises(ConfigError, match=":2: not UTF-8 text"):
        tr.load_checkpoint(path)


def test_every_one_byte_change_and_every_cut_of_a_kb_file_is_refused(saved, tmp_path):
    data, path = saved["kb"], tmp_path / "kb.ckpt"
    for i in range(len(data)):
        for damaged_data in (data[:i], data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]):
            path.write_bytes(damaged_data)
            with pytest.raises(ConfigError):
                textckpt.read(path)


class Exploding:
    shape = (2, 2)

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk full")


def test_failed_write_leaves_the_earlier_file_and_no_temp_file(tmp_path):
    path = tmp_path / "x.ckpt"
    textckpt.write(path, [("a", 1)], [("m", np.ones((2, 2)))])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        textckpt.write(path, [("a", 2)], [("m", np.zeros((2, 2))), ("n", Exploding())])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


def test_write_replaces_a_stale_temp_file_of_the_same_pid(tmp_path):
    path = tmp_path / "x.ckpt"
    stale = tmp_path / f".x.ckpt.{os.getpid()}.tmp"
    stale.write_bytes(b"left by a killed save")
    textckpt.write(path, [("a", 1)], [("m", np.ones((2, 2)))])
    header, blocks = textckpt.read(path)
    assert header == {"a": ["1"]} and np.array_equal(blocks["m"], np.ones((2, 2)))
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


@pytest.mark.parametrize("kind", ["model", "kb"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_is_refused(saved, tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"damaged.{kind}.ckpt"
    path.write_bytes(data.draw(damaged(saved[kind])))
    with pytest.raises(ConfigError):
        LOADERS[kind](path)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_is_exit_2_through_the_cli(saved, tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    path = root / "damaged.cli.ckpt"
    path.write_bytes(data.draw(damaged(saved["model"])))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["generate", "--checkpoint", str(path), "--data-dir", str(root),
                         "--out", str(root / "gen.tsv")])
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}"), lines

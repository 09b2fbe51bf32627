"""The per-layer benchmark probes still fit the code they call.

``perfbench/layers.py`` reports a probe or span whose symbol moved or whose
call no longer fits as absent instead of failing, so a signature change in
the model would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from kbqgen import corpus as cp
from kbqgen import trainer as tr

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# every metric Spans.install times, given one train epoch and a greedy and a beam decode
SPAN_METRICS = ("autodiff.backward_ms", "trainer.optimizer_step_ms", "model.fwd_ms",
                "decoder.greedy_step_ms", "decoder.beam_step_ms", "decoder.decode_steps")


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe_corpus")
    cp.write_corpus(cp.synth_corpus(1, 12, 4, 40), root)
    return cp.load_dataset(root)


def tiny_config():
    # dropout > 0, so training hands masks to every sublayer
    return tr.parse_config(overrides=["d=8", "heads=2", "layers=1", "batch_size=4",
                                      "epochs=1", "dropout=0.1"])


def test_every_probe_measures(layers, dataset):
    config = tiny_config()
    model = tr.build_model(config, dataset)
    values, absent = layers.probe_layers(model, config, dataset.examples("train")[:2], 1)
    assert absent == {}
    wanted = {name for _probe, names in layers.PROBES for name in names}
    assert wanted <= set(values)


def test_every_span_measures(layers, dataset):
    config = tiny_config()
    spans = layers.Spans()
    spans.install()
    try:
        result = tr.train(config, dataset)
        model = tr.model_from_checkpoint(config, dataset, result.last)
        for beam in (1, 3):
            tr.decode_split(model, dataset, "test", beam=beam, max_len=8)
    finally:
        spans.remove()
    assert spans.absent == {}
    assert set(SPAN_METRICS) <= set(spans.medians())

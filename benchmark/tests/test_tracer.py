"""Tests of the benchmark's tracer, counters, input generator and calibration.

Run with: python3 -m pytest benchmark/tests
"""
import json
import sys
import types

import numpy as np
import pytest

import calibrate
import layers
import lexicon
import worker
from tracer import PARENT, REQUEST, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package():
    """A two-module package whose caller imports its callee by name."""
    clock = FakeClock()
    low = types.ModuleType("fakepkg.low")
    exec("def leaf(clock):\n    clock.now += 2.0\n", low.__dict__)
    high = types.ModuleType("fakepkg.high")
    high.leaf = low.leaf
    exec(
        "def branch(clock):\n"
        "    clock.now += 1.0\n"
        "    leaf(clock)\n"
        "    clock.now += 0.5\n"
        "    leaf(clock)\n"
        "    return 'done'\n",
        high.__dict__,
    )
    package = types.ModuleType("fakepkg")
    modules = {"fakepkg": package, "fakepkg.low": low, "fakepkg.high": high}
    sys.modules.update(modules)
    yield clock, low, high
    for name in modules:
        del sys.modules[name]


def test_self_time_of_nested_calls(fake_package):
    clock, low, high = fake_package
    tracer = Tracer(clock=clock)
    with tracer.tracing("fakepkg", [low, high]):
        assert high.branch(clock) == "done"
        with tracer.paused():
            clock.now += 10.0
            high.branch(clock)
    layers_ = tracer.layers()
    assert layers_["high.branch"] == {"calls": 1, "self_s": 1.5, "total_s": 5.5}
    assert layers_["low.leaf"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [s[REQUEST] for s in tracer.spans] == [0, 0, 0]
    assert tracer.wall_s - tracer.paused_s == pytest.approx(5.5)
    assert tracer.coverage() == pytest.approx(1.0)


def test_patches_every_binding_and_restores(fake_package):
    clock, low, high = fake_package
    leaf = low.leaf
    tracer = Tracer(clock=clock)
    with pytest.raises(RuntimeError):
        with tracer.tracing("fakepkg", [low]):
            assert high.leaf is low.leaf and low.leaf is not leaf
            high.branch(clock)
            raise RuntimeError("stop")
    assert low.leaf is leaf and high.leaf is leaf
    assert tracer.layers()["low.leaf"]["calls"] == 2


def _snapshot(package):
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == package or name.startswith(package + ".")
        for attr, obj in vars(module).items()
    }


def test_seqtag_attributes_restored_after_traced_run():
    st = worker.load_package()
    before = _snapshot("seqtag")
    original_forward = st.network.forward
    tracer = Tracer(counters=layers.COUNTERS)
    modules = [getattr(st, name) for name in layers.TRACED_MODULES]
    with tracer.tracing(layers.PACKAGE, modules):
        assert st.tagger.forward is st.network.forward is not original_forward
        assert st.evaluation.predict is st.tagger.predict
        assert st.predict is st.tagger.predict
        tokens = st.tagger.tokenize("Patients received zoravium.", 0)
    assert len(tokens) == 4
    assert tracer.layers()["corpus.tokenize"]["calls"] == 1
    assert _snapshot("seqtag") == before


def test_computed_counters_follow_array_sizes():
    st = worker.load_package()
    corpus = st.synth.synthetic_corpus(st.synth.SynthConfig(n_sentences=8, seed=3))
    sentences = corpus.sentences
    model = st.tagger.train(sentences, "TRI", "BLSTM", st.tagger.TrainingConfig(epochs=1))
    tracer = Tracer(counters=layers.COUNTERS)
    modules = [getattr(st, name) for name in layers.TRACED_MODULES]
    with tracer.tracing(layers.PACKAGE, modules):
        result = st.tagger.predict(model, sentences[0])
    T, V = len(sentences[0].tokens), model.config.input_dim
    assert result.distributions.shape == (T, 3)
    totals = tracer.totals
    assert totals["encoder.encode_sentence.bytes_out_computed"] == T * V * 8
    assert totals["network.dense_in.flops_computed"] == 2 * T * V * 150
    assert totals["network.lstm_forward.steps"] == 3 * T
    assert 0 < totals["encoder.lit_slots"] < totals["encoder.slots"] == T * V
    assert tracer.layers()["network.lstm_forward"]["calls"] == 3


def test_benchmark_json_lists_every_per_layer_metric():
    with open(worker.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.per_layer_units()


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert worker.tail(list(range(10))) is None
    value, percentile, n = worker.tail(list(range(40, 0, -1)))
    assert (value, percentile, n) == (30, 75.0, 40)


def test_random_lexicon_corpus_is_seeded_and_wide(tmp_path):
    st = worker.load_package()
    text = lexicon.bio_text(40, seed=5)
    assert text == lexicon.bio_text(40, seed=5) != lexicon.bio_text(40, seed=6)
    path = tmp_path / "wide.bio"
    path.write_text(text, encoding="utf-8")
    corpus = st.corpus.read_bio_column_file(path)
    assert len(corpus.documents) == 10 and len(corpus.sentences) == 40
    encoder = st.encoder.build_encoder("TRI", corpus.sentences)
    tokens = sum(len(s.tokens) for s in corpus.sentences)
    assert encoder.dim > 4 * tokens  # almost every token brings new trigrams
    assert np.isin([lab for s in corpus.sentences for lab in s.labels], ["B", "I", "O"]).all()


def test_speed_scales_each_section_by_kernel_times_around_it(monkeypatch):
    kernel_times = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(calibrate, "kernel_s", lambda: next(kernel_times))
    monkeypatch.setattr(calibrate, "REFERENCE_S", 3.0)
    speed = calibrate.Speed()
    assert worker.at_reference_speed(speed, [1.0, 2.0]) == [1.0, 2.0]  # kernel 2 s, then 4 s
    assert worker.at_reference_speed(speed, [5.0]) == [5.0 * 6.0 / 5.0]  # 4 s, then 1 s
    assert speed.factors == [1.0, 1.2]
    assert worker.at_reference_speed(None, [1.5]) == [1.5]

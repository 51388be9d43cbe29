import json
import re

import pytest

from seqtag.cli import main
from seqtag.corpus import read_bio_column_file, read_standoff, write_bio_column_file
from seqtag.encoder import write_embeddings_file
from seqtag.synth import SynthConfig, synthetic_corpus


@pytest.fixture(scope="module")
def bio_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.bio"
    corpus = synthetic_corpus(SynthConfig(n_sentences=24, seed=9, misspell_rate=0.0))
    write_bio_column_file(corpus, path)
    return str(path)


def run(argv):
    return main(argv)


def test_synth_command_writes_readable_corpus(tmp_path):
    out = tmp_path / "synth.bio"
    assert run(["synth", "--sentences", "15", "--seed", "3", "--out", str(out)]) == 0
    corpus = read_bio_column_file(out)
    assert len(corpus.sentences) == 15


def test_train_writes_model_and_log(tmp_path, bio_corpus_path):
    model_path = tmp_path / "model.stm"
    code = run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(model_path),
            "--encoder", "TRI", "--network", "FF", "--epochs", "2", "--seed", "1",
        ]
    )
    assert code == 0
    assert model_path.exists()
    log = json.loads((tmp_path / "model.stm.trainlog.json").read_text())
    assert log["run_config"]["command"] == "train"
    assert log["run_config"]["seed"] == 1
    assert len(log["per_epoch_mean_loss"]) == 2
    assert log["wall_clock_seconds"] > 0


def test_train_is_byte_deterministic(tmp_path, bio_corpus_path):
    path = tmp_path / "model.stm"
    argv = [
        "train", "--corpus", bio_corpus_path, "--model", str(path),
        "--encoder", "DICT", "--network", "FF", "--epochs", "2",
    ]
    assert run(argv) == 0
    first = path.read_bytes()
    path.unlink()
    assert run(argv) == 0
    assert path.read_bytes() == first


def test_train_emb_without_embeddings_is_usage_error(tmp_path, bio_corpus_path, capsys):
    code = run(
        [
            "train", "--corpus", bio_corpus_path,
            "--model", str(tmp_path / "m.stm"), "--encoder", "EMB",
        ]
    )
    assert code == 2
    assert "ERROR usage" in capsys.readouterr().err


def test_train_rejects_report_flag(tmp_path, bio_corpus_path, capsys):
    model_path = tmp_path / "m.stm"
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "train", "--corpus", bio_corpus_path, "--model", str(model_path),
                "--report", str(tmp_path / "report"),
            ]
        )
    assert exc.value.code == 2
    assert "--report" in capsys.readouterr().err
    assert not model_path.exists()


def test_missing_corpus_reports_io_error(tmp_path, capsys):
    code = run(
        ["train", "--corpus", str(tmp_path / "nope.bio"), "--model", str(tmp_path / "m")]
    )
    assert code == 1
    assert "ERROR io" in capsys.readouterr().err


def test_model_path_that_is_a_directory_reports_io_error(tmp_path, capsys):
    code = run(["annotate", "--model", str(tmp_path), "--text", "Aspirin helps."])
    assert code == 1
    assert capsys.readouterr().err.startswith("ERROR io: ")


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory, bio_corpus_path):
    path = tmp_path_factory.mktemp("model") / "tagger.stm"
    assert run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(path),
            "--encoder", "TRI", "--network", "FF", "--epochs", "3",
        ]
    ) == 0
    return str(path)


def test_annotate_empty_input(trained_model_path, capsys):
    assert run(["annotate", "--model", trained_model_path, "--text", ""]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["documents"][0]["mentions"] == []


def test_annotate_output_is_standoff_round_trippable(tmp_path, trained_model_path):
    out = tmp_path / "annotations.json"
    text = "Patients received treatment daily. Results were reported."
    assert run(
        ["annotate", "--model", trained_model_path, "--text", text, "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["run_config"]["command"] == "annotate"
    for m in payload["documents"][0]["mentions"]:
        assert 0 <= m["begin"] < m["end"] <= len(text)
        assert text[m["begin"] : m["end"]] == m["surface"]
    corpus = read_standoff(out)  # ignores mention-free extras like run_config
    assert corpus.documents[0].text == text


# Standoff files that once ended in a traceback: (content, where the error is).
MALFORMED_STANDOFF = {
    "mention without end": ({"text": "Aspirin helps.", "mentions": [{"begin": 0}]},
                            "record 0"),
    "mention not an object": ({"text": "Aspirin helps.", "mentions": [5]}, "record 0"),
    "text not a string": ({"text": 5}, "record 0"),
    "documents not a list": ({"documents": 5}, "'documents'"),
    "mentions not a list": ({"text": "Aspirin helps.", "mentions": 5}, "record 0"),
    "fractional offsets": ({"text": "Aspirin helps.",
                            "mentions": [{"begin": 0.9, "end": 7.99}]}, "record 0"),
    "boolean offset": ({"text": "Aspirin helps.", "mentions": [{"begin": True, "end": 3}]},
                       "record 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STANDOFF))
def test_malformed_standoff_is_invalid_input(tmp_path, trained_model_path, capsys, case):
    content, where = MALFORMED_STANDOFF[case]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {where}")):
        read_standoff(path)
    code = run(
        [
            "evaluate", "--format", "standoff", "--corpus", str(path),
            "--model", trained_model_path,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid-input: ") and f"{path}: {where}" in err


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_train_rejects_non_finite_embeddings(tmp_path, bio_corpus_path, capsys, component):
    emb = tmp_path / "vecs.txt"
    emb.write_text(f"aspirin 0.5 1.0\nhelps 0.25 {component}\n", encoding="utf-8")
    code = run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(tmp_path / "m.stm"),
            "--encoder", "EMB", "--network", "FF", "--epochs", "1",
            "--embeddings", str(emb),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid-input: ")
    assert f"{emb}:2: non-finite vector component" in err
    assert not (tmp_path / "m.stm").exists()


def test_evaluate_writes_agreeing_reports(tmp_path, bio_corpus_path, trained_model_path):
    base = tmp_path / "report"
    code = run(
        [
            "evaluate", "--corpus", bio_corpus_path, "--model", trained_model_path,
            "--mode", "both", "--report", str(base),
        ]
    )
    assert code == 0
    text = (tmp_path / "report.txt").read_text()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert f"{payload['span']['f1']:.4f}" in text
    assert f"{payload['bio']['recall']:.4f}" in text
    assert payload["config"]["run_config"]["command"] == "evaluate"


def test_evaluate_heldout_sentences(tmp_path, bio_corpus_path, trained_model_path):
    code = run(
        [
            "evaluate", "--corpus", bio_corpus_path, "--model", trained_model_path,
            "--mode", "bio", "--train-size", "10", "--test-size", "8", "--seed", "4",
        ]
    )
    assert code == 0


@pytest.mark.parametrize("case", ["test-size-0", "empty-corpus"])
def test_evaluate_empty_test_set_is_invalid_input(
    tmp_path, bio_corpus_path, trained_model_path, capsys, case
):
    if case == "empty-corpus":
        corpus = tmp_path / "empty.bio"
        corpus.write_text("")
        argv = ["--corpus", str(corpus)]
    else:
        argv = ["--corpus", bio_corpus_path, "--test-size", "0"]
    code = run(["evaluate", "--model", trained_model_path, *argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "ERROR invalid-input: the test data holds no sentence\n"
    assert "precision" not in captured.out


def test_compare_configs_grid_has_nine_rows(tmp_path, bio_corpus_path):
    report = tmp_path / "grid.json"
    emb = tmp_path / "vectors.txt"
    corpus = read_bio_column_file(bio_corpus_path)
    words = sorted({t.text for s in corpus.sentences for t in s.tokens})
    import numpy as np

    write_embeddings_file(emb, words, np.random.default_rng(0).normal(size=(len(words), 8)))
    code = run(
        [
            "compare-configs", "--corpus", bio_corpus_path, "--epochs", "1",
            "--train-size", "12", "--test-size", "8",
            "--embeddings", str(emb), "--report", str(report),
        ]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert len(payload["grid"]) == 9
    assert all(row["status"] == "ok" for row in payload["grid"])
    pairs = {(row["encoder"], row["network"]) for row in payload["grid"]}
    assert len(pairs) == 9
    assert payload["run_config"]["command"] == "compare-configs"


def test_compare_configs_emb_rows_fail_gracefully_without_table(
    tmp_path, bio_corpus_path
):
    report = tmp_path / "grid.json"
    code = run(
        [
            "compare-configs", "--corpus", bio_corpus_path, "--epochs", "1",
            "--train-size", "6", "--test-size", "4", "--report", str(report),
        ]
    )
    assert code == 0
    grid = json.loads(report.read_text())["grid"]
    emb_rows = [r for r in grid if r["encoder"] == "EMB"]
    assert len(emb_rows) == 3
    assert all("embeddings table required" in r["status"] for r in emb_rows)
    assert all(r["status"] == "ok" for r in grid if r["encoder"] != "EMB")


def test_compare_configs_exits_1_when_every_configuration_fails(
    tmp_path, bio_corpus_path, capsys
):
    report = tmp_path / "grid.json"
    code = run(
        [
            "compare-configs", "--corpus", bio_corpus_path, "--epochs", "1",
            "--train-size", "0", "--report", str(report),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("ERROR")] == [
        "ERROR invalid-input: no configuration succeeded; see the grid's status column"
    ]
    grid = json.loads(report.read_text())["grid"]  # written before the error
    assert len(grid) == 9
    assert all(row["status"].startswith("error: ") for row in grid)
    assert all("f1" not in row for row in grid)


def test_gradcheck_passes_and_reports_blocks(tmp_path, capsys):
    report = tmp_path / "grad.json"
    code = run(["gradcheck", "--network", "FF", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(report.read_text())
    assert payload["checks"][0]["per_block"]


def test_gradcheck_negative_control_fails(capsys):
    code = run(["gradcheck", "--network", "FF", "--corruption", "0.1"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out

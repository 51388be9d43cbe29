import argparse
import ast
import hashlib
import json
import pathlib
import re

import pytest

import seqtag
from seqtag.cli import build_parser, main
from seqtag.corpus import read_bio_column_file, read_standoff, write_bio_column_file
from seqtag.synth import SynthConfig, synthetic_corpus

from helpers import corrupt_gradient, write_embeddings_file


@pytest.fixture(scope="module")
def bio_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.bio"
    corpus = synthetic_corpus(SynthConfig(n_sentences=24, seed=9, misspell_rate=0.0))
    write_bio_column_file(corpus, path)
    return str(path)


DATA = pathlib.Path(__file__).parent / "data"


def run(argv):
    return main(argv)


def subcommand_parsers():
    """Each subcommand's name and argparse parser."""
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


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


@pytest.mark.parametrize("encoder", ["TRI", "DICT"])
def test_train_embeddings_without_emb_is_usage_error(tmp_path, bio_corpus_path, capsys, encoder):
    model_path = tmp_path / "m.stm"
    code = run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(model_path),
            "--encoder", encoder, "--embeddings", str(tmp_path / "missing.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"ERROR usage: --embeddings is read only by encoder EMB, not {encoder}\n"
    assert not model_path.exists()


def test_train_rejects_report_flag(tmp_path, bio_corpus_path, capsys):
    model_path = tmp_path / "m.stm"
    code = run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(model_path),
            "--report", str(tmp_path / "report"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--report" in err
    assert err.startswith("ERROR usage: ") and len(err.splitlines()) == 1
    assert not model_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--corpus", "c.bio", "--model", "m.stm", "--bogus"],  # unknown flag
        ["train", "--corpus", "c.bio", "--model", "m.stm", "--epochs", "abc"],  # bad int
        ["train", "--corpus", "c.bio", "--model", "m.stm", "--network", "GRU"],  # choice
        ["train", "--corpus", "c.bio"],  # missing --model
        ["evaluate", "--corpus", "c.bio"],
        ["annotate", "--text", "Aspirin helps."],
        ["annotate", "--model", "m.stm"],  # neither --text nor --input
        ["annotate", "--model", "m.stm", "--text", "Aspirin helps.", "--input", "a.txt"],
        ["annotate", "--model", "m.stm", "--input"],  # --input without a file
        ["no-such-command"],
        [],
        ["gradcheck", "--corruption", "0.1"],  # its negative control lives in the tests
    ],
)
def test_parse_errors_are_one_usage_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR usage: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_annotate_reads_every_input_file(tmp_path, trained_model_path, capsys):
    texts = ["Patients received treatment daily.", "Results were reported."]
    paths = []
    for n, text in enumerate(texts):
        paths.append(tmp_path / f"doc{n}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    assert run(["annotate", "--model", trained_model_path, "--input", *map(str, paths)]) == 0
    documents = json.loads(capsys.readouterr().out)["documents"]
    assert [(d["doc_id"], d["text"]) for d in documents] == [
        ("doc0", texts[0]), ("doc1", texts[1])
    ]


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
    "duplicate doc_id": ([{"doc_id": "a", "text": "One."}, {"doc_id": "a", "text": "Two."}],
                         "record 1: duplicate doc_id 'a'"),
    "mention past the text": ({"text": "Aspirin helps.", "mentions": [{"begin": 8, "end": 99}]},
                              "record 0: doc0: mention [8, 99) outside text of length 14"),
    "mention ends before it begins": ({"text": "Aspirin helps.",
                                       "mentions": [{"begin": 5, "end": 3}]},
                                      "record 0: invalid mention interval [5, 3)"),
    "null doc_id": ({"doc_id": None, "text": "Aspirin helps."},
                    "record 0: 'doc_id' is not a string or an integer: null"),
    "overlapping mentions": ({"text": "Aspirin helps.",
                              "mentions": [{"begin": 0, "end": 7}, {"begin": 3, "end": 13}]},
                             "record 0: mentions overlap: [0, 7) and [3, 13)"),
    "overlapping mentions in a blank text": (
        {"text": "   ", "mentions": [{"begin": 0, "end": 2}, {"begin": 1, "end": 3}]},
        "record 0: doc0: gold mentions overlap: [0, 2) and [1, 3)"),
    "nested too deeply": ("[" * 1000 + "]" * 1000, "JSON nested too deeply"),  # raw text
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STANDOFF))
def test_malformed_standoff_is_invalid_input(tmp_path, trained_model_path, capsys, case):
    content, where = MALFORMED_STANDOFF[case]
    path = tmp_path / "corpus.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
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


@pytest.mark.parametrize("reader", ["bio", "standoff", "embeddings", "annotate"])
def test_non_utf8_input_is_invalid_input_naming_the_file(
    tmp_path, bio_corpus_path, trained_model_path, capsys, reader
):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes("zoravium\tB\n".encode("utf-16"))  # starts with ff fe
    model = str(tmp_path / "m.stm")
    argv = {
        "bio": ["train", "--corpus", str(bad), "--model", model],
        "standoff": [
            "evaluate", "--format", "standoff", "--corpus", str(bad),
            "--model", trained_model_path,
        ],
        "embeddings": [
            "train", "--corpus", bio_corpus_path, "--model", model,
            "--encoder", "EMB", "--embeddings", str(bad),
        ],
        "annotate": ["annotate", "--model", trained_model_path, "--input", str(bad)],
    }[reader]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR invalid-input: {bad}: not UTF-8 text (")
    assert "0xff in position 0" in err and err.count("\n") == 1
    assert not pathlib.Path(model).exists()


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


def test_train_rejects_repeated_embedding_word(tmp_path, bio_corpus_path, capsys):
    emb = tmp_path / "vecs.txt"
    emb.write_text("alpha 1 2\nalpha 3 4\nbeta 5 6\n", encoding="utf-8")
    code = run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(tmp_path / "m.stm"),
            "--encoder", "EMB", "--network", "FF", "--epochs", "1",
            "--embeddings", str(emb),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"ERROR invalid-input: {emb}: word 'alpha' appears more than once\n"
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


def test_evaluate_train_size_without_test_size_is_usage_error(
    tmp_path, bio_corpus_path, trained_model_path, capsys
):
    report = tmp_path / "report"
    code = run(
        [
            "evaluate", "--corpus", bio_corpus_path, "--model", trained_model_path,
            "--train-size", "10", "--report", str(report),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "ERROR usage: --train-size needs --test-size\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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


def test_compare_configs_rejects_empty_test_split_before_training(
    tmp_path, bio_corpus_path, capsys, monkeypatch
):
    trainings = []
    monkeypatch.setattr("seqtag.cli.train", lambda *a, **k: trainings.append(k))
    report = tmp_path / "grid.json"
    code = run(
        [
            "compare-configs", "--corpus", bio_corpus_path, "--epochs", "1",
            "--test-size", "0", "--report", str(report),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "ERROR invalid-input: the test data holds no sentence\n"
    assert captured.out == ""
    assert trainings == [] and not report.exists()


def test_compare_configs_rejects_train_size_beyond_corpus(
    tmp_path, bio_corpus_path, capsys, monkeypatch
):
    trainings = []
    monkeypatch.setattr("seqtag.cli.train", lambda *a, **k: trainings.append(k))
    report = tmp_path / "grid.json"
    for extra in ([], ["--test-size", "4"]):
        code = run(
            [
                "compare-configs", "--corpus", bio_corpus_path, "--epochs", "1",
                "--train-size", "100000", "--report", str(report), *extra,
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "ERROR invalid-input: --train-size 100000 exceeds the corpus's 24 sentences\n"
        )
        assert captured.out == ""
        assert trainings == [] and not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--train-size", "24", "--test-size", "1"],
     "--train-size 24 plus --test-size 1 exceeds the corpus's 24 sentences"),
    (["evaluate", "--test-size", "25"],
     "--train-size 0 plus --test-size 25 exceeds the corpus's 24 sentences"),
    (["train", "--train-size", "25"], "--train-size 25 exceeds the corpus's 24 sentences"),
    (["compare-configs", "--train-size", "24"],
     "--train-size 24 of 24 sentences leaves none to test"),
])
def test_sample_size_errors_name_the_flags_and_the_corpus_size(
    tmp_path, bio_corpus_path, trained_model_path, capsys, monkeypatch, argv, message
):
    trainings = []
    monkeypatch.setattr("seqtag.cli.train", lambda *a, **k: trainings.append(k))
    model = trained_model_path if argv[0] == "evaluate" else str(tmp_path / "m.stm")
    extra = [] if argv[0] == "compare-configs" else ["--model", model]
    assert run([*argv, "--corpus", bio_corpus_path, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ERROR invalid-input: {message}\n"
    assert captured.out == "" and trainings == []


def test_memory_error_is_one_error_line(trained_model_path, capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError("Unable to allocate 3.58 GiB for an array with shape (50000, 9600)")

    monkeypatch.setattr("seqtag.tagger.annotate", exhaust)
    assert run(["annotate", "--model", trained_model_path, "--text", "Aspirin helps."]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "ERROR memory: Unable to allocate 3.58 GiB for an array with shape (50000, 9600)\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["compare-configs", "train"])
def test_zero_epochs_rejected_before_reading_the_corpus(
    tmp_path, bio_corpus_path, capsys, monkeypatch, command
):
    calls = []
    monkeypatch.setattr("seqtag.cli.train", lambda *a, **k: calls.append("train"))
    monkeypatch.setattr("seqtag.cli.read_bio_column_file", lambda p: calls.append("read"))
    out = tmp_path / "out"
    flags = {
        "compare-configs": ["--report", str(out)],
        "train": ["--model", str(out), "--encoder", "EMB",
                  "--embeddings", str(tmp_path / "missing.txt")],
    }[command]
    code = run([command, "--corpus", bio_corpus_path, "--epochs", "0", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "ERROR invalid-input: epochs must be >= 1\n"
    assert captured.out == ""
    assert calls == [] and not out.exists()


def test_gradcheck_passes_and_reports_blocks(tmp_path, capsys):
    report = tmp_path / "grad.json"
    code = run(["gradcheck", "--network", "FF", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(report.read_text())
    assert payload["checks"][0]["per_block"]


def test_gradcheck_negative_control_fails(capsys, monkeypatch):
    for corruption in (0.1, float("nan"), float("inf")):
        with monkeypatch.context() as patch:
            corrupt_gradient(patch, "dense1.w", corruption)
            code = run(["gradcheck", "--network", "FF"])
        assert code == 1, corruption
        assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_a_non_positive_input_dim(capsys):
    assert run(["gradcheck", "--network", "FF", "--input-dim", "0"]) == 1
    assert capsys.readouterr().err == "ERROR invalid-input: input_dim must be positive\n"


@pytest.mark.parametrize("tolerance", ["-1", "nan", "0", "inf"])
def test_gradcheck_rejects_tolerance_that_cannot_pass(capsys, tolerance):
    code = run(["gradcheck", "--network", "FF", "--tolerance", tolerance])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"ERROR invalid-input: tolerance must be positive and finite, got {float(tolerance)}\n"
    )
    assert "FAIL" not in captured.out


# Arguments besides --seed that each seeded subcommand needs to start work.
SEEDED_COMMANDS = {
    "train": ["--corpus", "{corpus}", "--model", "{out}"],
    "evaluate": ["--corpus", "{corpus}", "--model", "{model}", "--report", "{out}"],
    "compare-configs": ["--corpus", "{corpus}", "--report", "{out}"],
    "gradcheck": ["--report", "{out}"],
    "synth": ["--out", "{out}"],
}


def test_seeded_commands_are_every_subcommand_with_a_seed_flag():
    seeded = {
        name for name, p in subcommand_parsers().items() if "--seed" in p._option_string_actions
    }
    assert seeded == set(SEEDED_COMMANDS)


@pytest.mark.parametrize("seed", ["-1", "-5"])
@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_negative_seed_is_invalid_input_naming_the_flag(
    tmp_path, bio_corpus_path, trained_model_path, capsys, command, seed
):
    out = tmp_path / "out"
    argv = [
        a.format(corpus=bio_corpus_path, model=trained_model_path, out=out)
        for a in SEEDED_COMMANDS[command]
    ]
    assert run([command, *argv, "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"ERROR invalid-input: --seed must be a non-negative integer, got {seed}\n"
    )
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    ("command", "flag", "extra"),
    [
        ("train", "--train-size", []),
        ("evaluate", "--train-size", ["--test-size", "3"]),
        ("evaluate", "--test-size", []),
        ("compare-configs", "--train-size", []),
        ("compare-configs", "--test-size", []),
    ],
)
def test_negative_sample_size_is_invalid_input_naming_the_flag(
    tmp_path, bio_corpus_path, trained_model_path, capsys, monkeypatch, command, flag, extra
):
    trainings = []
    monkeypatch.setattr("seqtag.cli.train", lambda *a, **k: trainings.append(k))
    argv = [
        a.format(corpus=bio_corpus_path, model=trained_model_path, out=tmp_path / "out")
        for a in SEEDED_COMMANDS[command]
    ]
    assert run([command, *argv, *extra, flag, "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ERROR invalid-input: {flag} must be a non-negative integer, got -2\n"
    assert captured.out == ""
    assert trainings == [] and list(tmp_path.iterdir()) == []


def test_annotate_and_evaluate_record_the_loaded_model(tmp_path, bio_corpus_path):
    model = str(DATA / "compat_dict_ff.stm")
    annotations, report = tmp_path / "annotations.json", tmp_path / "report"
    text = "Patients received treatment daily."
    assert run(["annotate", "--model", model, "--text", text, "--out", str(annotations)]) == 0
    assert run(
        ["evaluate", "--corpus", bio_corpus_path, "--model", model, "--report", str(report)]
    ) == 0
    run_configs = [
        json.loads(annotations.read_text())["run_config"],
        json.loads((tmp_path / "report.json").read_text())["config"]["run_config"],
        json.loads(
            (tmp_path / "report.txt").read_text().split("# run_config: ")[1]
        ),
    ]
    for run_config in run_configs:
        assert (run_config["encoder"], run_config["network"]) == ("DICT", "FF")


def _subcommand_dests(command):
    return {
        a.dest for a in subcommand_parsers()[command]._actions
        if not isinstance(a, argparse._HelpAction)
    }


def test_run_record_is_the_command_and_its_own_flags(tmp_path, bio_corpus_path):
    model, out = tmp_path / "m.stm", tmp_path / "out"
    assert run(
        [
            "train", "--corpus", bio_corpus_path, "--model", str(model),
            "--encoder", "DICT", "--network", "FF", "--epochs", "2", "--seed", "3",
        ]
    ) == 0
    assert run(
        ["annotate", "--model", str(model), "--text", "Aspirin helps.", "--out", str(out)]
    ) == 0
    records = {
        "train": json.loads((tmp_path / "m.stm.trainlog.json").read_text())["run_config"],
        "annotate": json.loads(out.read_text())["run_config"],
    }
    assert run(
        [
            "evaluate", "--corpus", bio_corpus_path, "--model", str(model),
            "--train-size", "10", "--test-size", "8", "--report", str(out),
        ]
    ) == 0
    records["evaluate"] = json.loads((tmp_path / "out.json").read_text())["config"][
        "run_config"
    ]
    assert run(
        [
            "compare-configs", "--corpus", bio_corpus_path, "--epochs", "1",
            "--train-size", "6", "--test-size", "4", "--report", str(out),
        ]
    ) == 0
    records["compare-configs"] = json.loads(out.read_text())["run_config"]
    assert run(
        [
            "gradcheck", "--network", "FF", "--tolerance", "0.001", "--input-dim", "5",
            "--dense-size", "7", "--lstm-cells", "3", "--report", str(out),
        ]
    ) == 0
    records["gradcheck"] = json.loads(out.read_text())["run_config"]

    for command, record in records.items():
        loaded = {"encoder", "network"} if command in ("annotate", "evaluate") else set()
        assert set(record) == {"command"} | _subcommand_dests(command) | loaded, command
        assert record["command"] == command
    assert records["train"]["epochs"] == 2 and records["train"]["seed"] == 3
    for command in ("annotate", "evaluate"):
        assert "epochs" not in records[command]
        assert (records[command]["encoder"], records[command]["network"]) == ("DICT", "FF")
    assert records["annotate"]["text"] == "Aspirin helps."
    assert {k: records["gradcheck"][k] for k in (
        "tolerance", "input_dim", "dense_size", "lstm_cells"
    )} == {"tolerance": 0.001, "input_dim": 5, "dense_size": 7, "lstm_cells": 3}


# Every option of every subcommand, besides -h/--help.  Adding or dropping one
# is a change to this table.
CLI_OPTIONS = {
    "train": ["--corpus", "--format", "--seed", "--model", "--encoder", "--network",
              "--epochs", "--train-size", "--embeddings"],
    "annotate": ["--model", "--text", "--input", "--out"],
    "evaluate": ["--corpus", "--format", "--seed", "--model", "--report", "--mode",
                 "--train-size", "--test-size"],
    "compare-configs": ["--corpus", "--format", "--seed", "--report", "--epochs",
                        "--train-size", "--test-size", "--embeddings"],
    "gradcheck": ["--seed", "--report", "--network", "--tolerance", "--input-dim",
                  "--dense-size", "--lstm-cells"],
    "synth": ["--seed", "--sentences", "--misspell-rate", "--case-mangle-rate",
              "--mention-density", "--out"],
}


def test_cli_options_are_the_declared_table():
    options = {
        command: [flag for flag in p._option_string_actions if flag not in ("-h", "--help")]
        for command, p in subcommand_parsers().items()
    }
    assert options == CLI_OPTIONS


# Every name ``seqtag`` exports.  Adding or dropping one is a change to this list.
PUBLIC_API = [
    "Corpus", "Document", "EmbeddingTable", "MentionSpan", "NetworkConfig", "Sentence",
    "SynthConfig", "TaggerModel", "Token", "TrainingConfig", "annotate", "build_encoder",
    "count_document", "decode_spans", "evaluate", "extract_trigrams", "gradient_check",
    "load_embeddings", "load_model", "macro_bio", "micro_scores", "predict", "predict_batch",
    "read_bio_column_file", "read_standoff", "sample_split", "save_model", "split_sentences",
    "surface_flags", "synthetic_corpus", "tokenize", "train",
]


def test_public_api_is_the_declared_table():
    assert seqtag.__all__ == PUBLIC_API
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "seqtag"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(PUBLIC_API)


def test_train_rejects_an_empty_token_field(tmp_path, capsys):
    corpus = tmp_path / "corpus.bio"
    corpus.write_text("\tO\n", encoding="utf-8")
    assert run(["train", "--corpus", str(corpus), "--model", str(tmp_path / "m.stm")]) == 1
    assert capsys.readouterr().err == f"ERROR invalid-input: {corpus}:1: empty token field\n"
    assert not (tmp_path / "m.stm").exists()


@pytest.mark.parametrize("content, message", [
    ("a\tB\n  \tI\nb\tO\n", "2: empty token field"),
    ("a\tB\n\u00a0\tI\nb\tO\n", "2: empty token field"),
    # -DOCSTART- opens a document only as a whole TAB-separated first field
    ("-DOCSTART- -X- -X- O\n\na\tB\n",
     "1: expected 'token<TAB>label', got '-DOCSTART- -X- -X- O'"),
    # no tokenizer output begins or ends in whitespace, so no gold span may
    (" a\tB\nb\tI\n", "1: token field ' a' has outer whitespace"),
    ("a\tB\nb \tI\n", "2: token field 'b ' has outer whitespace"),
], ids=["blank-token", "no-break-space-token", "space-separated-docstart",
        "leading-blank-token", "trailing-blank-token"])
def test_train_rejects_a_malformed_bio_line(tmp_path, capsys, content, message):
    corpus = tmp_path / "corpus.bio"
    corpus.write_text(content, encoding="utf-8")
    assert run(["train", "--corpus", str(corpus), "--model", str(tmp_path / "m.stm")]) == 1
    assert capsys.readouterr().err == f"ERROR invalid-input: {corpus}:{message}\n"
    assert not (tmp_path / "m.stm").exists()


@pytest.fixture(scope="module")
def narrow_model_body(tmp_path_factory):
    """The checksummed body of an FF model trained on a 6-sentence synth seed-1
    corpus, whose TRI encoder has 157 columns."""
    folder = tmp_path_factory.mktemp("narrow")
    corpus, model = folder / "corpus.bio", folder / "model.stm"
    assert run(["synth", "--seed", "1", "--sentences", "6", "--out", str(corpus)]) == 0
    assert run(
        ["train", "--corpus", str(corpus), "--model", str(model), "--network", "FF",
         "--epochs", "1"]
    ) == 0
    return model.read_bytes()[:-32]


def _split_header(body):
    """A model body's header bytes and the tensor data after them."""
    end = 16 + int.from_bytes(body[8:16], "little")
    return body[16:end], body[end:]


def _with_header(body, header: bytes):
    return body[:8] + len(header).to_bytes(8, "little") + header + _split_header(body)[1]


def _one_column_wider(body):
    """input_dim and the input weight's manifest entry one wider, with one
    input-weight row more of tensor data."""
    header = json.loads(_split_header(body)[0])
    header["network"]["input_dim"] += 1
    header["tensors"][0][1][1] += 1
    row = bytes(8 * header["network"]["dense_size"])
    return _with_header(body, json.dumps(header).encode()) + row


MALFORMED_MODEL_BODIES = {
    "truncated": (lambda body: body[:8], r"checksum mismatch \(file truncated\)"),
    "header-past-end": (
        lambda body: body[:8] + len(body).to_bytes(8, "little") + body[16:],
        "header extends past end of file",
    ),
    "header-not-json": (
        lambda body: _with_header(body, b"{" * len(_split_header(body)[0])),
        r"header is not UTF-8 JSON \(.+\)",
    ),
    "header-nested-too-deeply": (
        lambda body: _with_header(body, b"[" * 1000 + b"]" * 1000),
        r"header is not UTF-8 JSON \(maximum recursion depth exceeded.*\)",
    ),
    "data-one-float-short": (
        lambda body: body[:-8], "tensor data does not match the manifest's size"
    ),
    "input-dim-one-wider": (
        _one_column_wider,
        "encoder dimension 157 does not match network input_dim 158",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_BODIES))
def test_annotate_rejects_a_malformed_model_file(tmp_path, narrow_model_body, capsys, case):
    edit, message = MALFORMED_MODEL_BODIES[case]
    body = edit(narrow_model_body)
    path = tmp_path / "model.stm"
    path.write_bytes(body + hashlib.sha256(body).digest())  # re-checksummed
    assert run(["annotate", "--model", str(path), "--text", "Aspirin helps."]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(f"ERROR invalid-input: {re.escape(str(path))}: {message}\n",
                        captured.err), captured.err
    assert captured.out == ""

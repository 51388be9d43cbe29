"""Command-line entry point: train, annotate, evaluate, compare-configs,
gradcheck, synth.

Every artifact written by a command embeds the resolved run configuration
and seed.  Exit codes: 0 on success, 2 on usage errors, 1 otherwise, with a
one-line ``ERROR <category>: <message>`` on stderr.  An empty test set and
a ``compare-configs`` grid in which no configuration succeeds are errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import sys
import time
from dataclasses import dataclass

from . import synth, tagger
from .corpus import Corpus, read_bio_column_file, read_standoff, sample_split
from .corpus import write_bio_column_file
from .encoder import ENCODER_METHODS, load_embeddings
from .evaluation import evaluate, format_report, report_to_dict
from .network import VARIANTS, NetworkConfig, gradient_check
from .tagger import TrainingConfig, load_model, save_model, train

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Invalid flag combination, reported before any work starts."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved, serializable description of one CLI run."""

    command: str
    corpus: str | None = None
    format: str = "bio"
    encoder: str = "TRI"
    network: str = "BLSTM"
    epochs: int = 100
    seed: int = 0
    train_size: int | None = None
    test_size: int | None = None
    model: str | None = None
    embeddings: str | None = None
    report: str | None = None
    mode: str = "both"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _read_corpus(path: str, fmt: str) -> Corpus:
    if fmt == "bio":
        return read_bio_column_file(path)
    if fmt == "standoff":
        return read_standoff(path)
    raise UsageError(f"unknown corpus format {fmt!r}; expected bio or standoff")


def _run_config(args: argparse.Namespace, command: str) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    values = {k: v for k, v in vars(args).items() if k in fields}
    return RunConfig(command=command, **values)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args: argparse.Namespace) -> int:
    run = _run_config(args, "train")
    if run.encoder.upper() == "EMB" and not run.embeddings:
        raise UsageError("encoder EMB requires --embeddings")
    if not run.model:
        raise UsageError("--model output path is required")
    corpus = _read_corpus(run.corpus, run.format)
    if run.train_size is not None:
        sentences, _ = sample_split(corpus, run.train_size, 0, run.seed)
    else:
        sentences = corpus.sentences
    table = load_embeddings(run.embeddings) if run.embeddings else None
    started = time.monotonic()
    model = train(
        sentences,
        encoder_method=run.encoder,
        network_variant=run.network,
        training=TrainingConfig(epochs=run.epochs, seed=run.seed),
        embeddings=table,
    )
    elapsed = time.monotonic() - started
    save_model(model, run.model, meta={"run_config": run.to_dict()})
    _write_json(
        run.model + ".trainlog.json",
        {
            "run_config": run.to_dict(),
            "per_epoch_mean_loss": model.loss_trace,
            "wall_clock_seconds": elapsed,
        },
    )
    logger.info(
        "trained %s+%s on %d sentences in %.1fs; model written to %s",
        run.encoder,
        run.network,
        len(sentences),
        elapsed,
        run.model,
    )
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    run = _run_config(args, "annotate")
    if not run.model:
        raise UsageError("--model path is required")
    model = load_model(run.model)
    if args.text is not None:
        docs = [("doc0", args.text)]
    elif args.input:
        texts = []
        for n, path in enumerate(args.input):
            with open(path, encoding="utf-8") as fh:
                texts.append((f"doc{n}", fh.read()))
        docs = texts
    else:
        raise UsageError("provide --text or --input FILE")
    records = []
    for doc_id, text in docs:
        mentions = tagger.annotate(model, text, doc_id)
        records.append(
            {
                "doc_id": doc_id,
                "text": text,
                "mentions": [
                    {
                        "begin": m.begin,
                        "end": m.end,
                        "surface": text[m.begin : m.end],
                    }
                    for m in mentions
                ],
            }
        )
    payload = {"run_config": run.to_dict(), "documents": records}
    out = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = _run_config(args, "evaluate")
    if not run.model:
        raise UsageError("--model path is required")
    model = load_model(run.model)
    test_data = _read_corpus(run.corpus, run.format)
    if run.test_size is not None:
        _, test_data = sample_split(
            test_data, run.train_size or 0, run.test_size, run.seed
        )
    report = evaluate(model, test_data, mode=run.mode)
    report.config["run_config"] = run.to_dict()
    text = format_report(report)
    print(text)
    if run.report:
        with open(run.report + ".txt", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
            fh.write("# run_config: " + json.dumps(run.to_dict(), sort_keys=True) + "\n")
        _write_json(run.report + ".json", report_to_dict(report))
    return 0


def cmd_compare_configs(args: argparse.Namespace) -> int:
    """Train all nine encoder x network configurations on one split and
    report macro-averaged BIO2 scores per configuration."""
    run = _run_config(args, "compare-configs")
    corpus = _read_corpus(run.corpus, run.format)
    available = len(corpus.sentences)
    n_train = run.train_size if run.train_size is not None else available // 2
    n_test = run.test_size if run.test_size is not None else available - n_train
    train_sentences, test_sentences = sample_split(corpus, n_train, n_test, run.seed)
    table = load_embeddings(run.embeddings) if run.embeddings else None

    rows = []
    for enc, variant in itertools.product(ENCODER_METHODS, VARIANTS):
        row = {"encoder": enc, "network": variant, "status": "ok"}
        try:
            if enc == "EMB" and table is None:
                raise UsageError("embeddings table required (--embeddings)")
            model = train(
                train_sentences,
                encoder_method=enc,
                network_variant=variant,
                training=TrainingConfig(epochs=run.epochs, seed=run.seed),
                embeddings=table,
            )
            report = evaluate(model, test_sentences, mode="bio")
            row.update(
                precision=report.bio.macro_precision,
                recall=report.bio.macro_recall,
                f1=report.bio.macro_f1,
            )
        except Exception as exc:  # keep the remaining configurations running
            row["status"] = f"error: {exc}"
            logger.warning("configuration %s+%s failed: %s", enc, variant, exc)
        rows.append(row)

    print(f"{'encoder':<8} {'network':<8} {'prec':>8} {'rec':>8} {'f1':>8}  status")
    for row in rows:
        scores = " ".join(
            f"{row[key]:>8.4f}" if key in row else f"{'-':>8}"
            for key in ("precision", "recall", "f1")
        )
        print(f"{row['encoder']:<8} {row['network']:<8} {scores}  {row['status']}")
    if run.report:
        _write_json(
            run.report,
            {
                "run_config": run.to_dict(),
                "train_sentences": len(train_sentences),
                "test_sentences": len(test_sentences),
                "grid": rows,
            },
        )
    if all(row["status"] != "ok" for row in rows):
        raise ValueError("no configuration succeeded; see the grid's status column")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    run = _run_config(args, "gradcheck")
    variants = list(VARIANTS) if args.network == "all" else [args.network.upper()]
    all_passed = True
    results = []
    for variant in variants:
        config = NetworkConfig(
            variant=variant,
            input_dim=args.input_dim,
            dense_size=args.dense_size,
            lstm_cells=args.lstm_cells,
        )
        report = gradient_check(
            config,
            seed=run.seed,
            tolerance=args.tolerance,
            corruption=args.corruption,
        )
        print(report.summary())
        for name in sorted(report.per_block):
            print(f"    {name:<16} {report.per_block[name]:.3e}")
        all_passed &= report.passed
        results.append(
            {
                "variant": variant,
                "max_rel_error": report.max_rel_error,
                "per_block": report.per_block,
                "passed": report.passed,
            }
        )
    if run.report:
        _write_json(run.report, {"run_config": run.to_dict(), "checks": results})
    return 0 if all_passed else 1


def cmd_synth(args: argparse.Namespace) -> int:
    run = _run_config(args, "synth")
    config = synth.SynthConfig(
        n_sentences=args.sentences,
        seed=run.seed,
        misspell_rate=args.misspell_rate,
        case_mangle_rate=args.case_mangle_rate,
        mention_density=args.mention_density,
    )
    corpus = synth.synthetic_corpus(config)
    write_bio_column_file(corpus, args.out)
    n_mentions = sum(len(d.gold_mentions) for d in corpus.documents)
    logger.info(
        "wrote %d documents, %d sentences, %d mentions to %s",
        len(corpus.documents),
        len(corpus.sentences),
        n_mentions,
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "corpus" in names:
        p.add_argument("--corpus", required=True, help="input corpus file")
        p.add_argument(
            "--format",
            default="bio",
            choices=("bio", "standoff"),
            help="corpus file format",
        )
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0)
    if "model" in names:
        p.add_argument("--model", help="model file path")
    if "report" in names:
        p.add_argument("--report", help="report output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtag",
        description="Robust neural mention detection and BIO2 sequence labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagger and save the model")
    _add_common(p, "corpus", "seed", "model")
    p.add_argument("--encoder", default="TRI", choices=ENCODER_METHODS)
    p.add_argument("--network", default="BLSTM", choices=VARIANTS)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--train-size", type=int, default=None, dest="train_size")
    p.add_argument("--embeddings", help="embedding text file (required for EMB)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("annotate", help="detect mention spans in raw text")
    _add_common(p, "model")
    p.add_argument("--text", help="annotate this literal text")
    p.add_argument("--input", nargs="*", help="raw UTF-8 text files, one document each")
    p.add_argument("--out", help="write standoff JSON here instead of stdout")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score a model against gold data")
    _add_common(p, "corpus", "seed", "model", "report")
    p.add_argument("--mode", default="both", choices=("span", "bio", "both"))
    p.add_argument(
        "--train-size",
        type=int,
        default=None,
        dest="train_size",
        help="with --test-size: reproduce the train/test split of the training run",
    )
    p.add_argument(
        "--test-size",
        type=int,
        default=None,
        dest="test_size",
        help="evaluate on this many held-out sentences instead of whole documents",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare-configs",
        help="train all nine encoder x network configurations on one split",
    )
    _add_common(p, "corpus", "seed", "report")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--train-size", type=int, default=None, dest="train_size")
    p.add_argument("--test-size", type=int, default=None, dest="test_size")
    p.add_argument("--embeddings", help="embedding text file for the EMB rows")
    p.set_defaults(func=cmd_compare_configs)

    p = sub.add_parser("gradcheck", help="verify BPTT against finite differences")
    _add_common(p, "seed", "report")
    p.add_argument("--network", default="all", choices=VARIANTS + ("all",))
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--input-dim", type=int, default=6, dest="input_dim")
    p.add_argument("--dense-size", type=int, default=8, dest="dense_size")
    p.add_argument("--lstm-cells", type=int, default=4, dest="lstm_cells")
    p.add_argument(
        "--corruption",
        type=float,
        default=0.0,
        help="negative control: offset added to one analytic gradient entry",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a seeded synthetic BIO corpus")
    _add_common(p, "seed")
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--misspell-rate", type=float, default=0.2, dest="misspell_rate")
    p.add_argument(
        "--case-mangle-rate", type=float, default=0.1, dest="case_mangle_rate"
    )
    p.add_argument(
        "--mention-density", type=float, default=0.9, dest="mention_density"
    )
    p.add_argument("--out", required=True, help="output BIO column file")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR io: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR invalid-input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

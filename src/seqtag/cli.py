"""Command-line entry point: train, annotate, evaluate, compare-configs,
gradcheck, synth.

The parser is the only declaration of flags, defaults and required flags.
Every artifact written by a command embeds its run record: the command plus
every flag of its subcommand as parsed, with the encoder and network of a
loaded model.  Exit codes: 0 on success, 2 on usage errors, 1 otherwise,
with a one-line ``ERROR <category>: <message>`` on stderr; a malformed
command line is one ``ERROR usage`` line, not argparse's usage dump.  An
empty test set, a ``compare-configs`` grid with no successful configuration
and a negative ``--seed``, ``--train-size`` or ``--test-size`` are errors.
"""
from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
import time

from . import synth, tagger
from .corpus import Corpus, _read_text, read_bio_column_file, read_standoff
from .corpus import sample_split, write_bio_column_file
from .encoder import ENCODER_METHODS, load_embeddings
from .evaluation import evaluate, format_report, report_to_dict
from .network import VARIANTS, NetworkConfig, gradient_check
from .tagger import TrainingConfig, load_model, save_model, train

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Malformed command line or invalid flag combination, reported before
    any work starts."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError."""

    def error(self, message: str):
        raise UsageError(message)


def _read_corpus(args: argparse.Namespace) -> Corpus:
    read = read_standoff if args.format == "standoff" else read_bio_column_file
    return read(args.corpus)


def _run_config(args: argparse.Namespace, model=None) -> dict:
    """The run record: the command and every flag of its subcommand."""
    run = {k: v for k, v in vars(args).items() if k != "func"}
    for name in ("seed", "train_size", "test_size"):  # checked before any work
        if (run.get(name) or 0) < 0:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be a non-negative integer, got {run[name]}")
    if model is not None:
        run.update(encoder=model.encoder.method, network=model.config.variant)
    return run


def _sample(corpus: Corpus, n_train: int, n_test: int, seed: int):
    """``sample_split``, whose size errors name the flags and the corpus size."""
    total = len(corpus.sentences)
    if n_train > total or n_train + n_test > total:
        plus = f" plus --test-size {n_test}" if n_train <= total else ""
        raise ValueError(f"--train-size {n_train}{plus} exceeds the corpus's {total} sentences")
    return sample_split(corpus, n_train, n_test, seed)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args: argparse.Namespace) -> int:
    run = _run_config(args)
    if args.encoder == "EMB" and not args.embeddings:
        raise UsageError("encoder EMB requires --embeddings")
    if args.embeddings and args.encoder != "EMB":
        raise UsageError(f"--embeddings is read only by encoder EMB, not {args.encoder}")
    training = TrainingConfig(epochs=args.epochs, seed=args.seed)
    corpus = _read_corpus(args)
    if args.train_size is not None:
        sentences, _ = _sample(corpus, args.train_size, 0, args.seed)
    else:
        sentences = corpus.sentences
    table = load_embeddings(args.embeddings) if args.embeddings else None
    started = time.monotonic()
    model = train(
        sentences,
        encoder_method=args.encoder,
        network_variant=args.network,
        training=training,
        embeddings=table,
    )
    elapsed = time.monotonic() - started
    save_model(model, args.model, meta={"run_config": run})
    _write_json(
        args.model + ".trainlog.json",
        {
            "run_config": run,
            "per_epoch_mean_loss": model.loss_trace,
            "wall_clock_seconds": elapsed,
        },
    )
    logger.info(
        "trained %s+%s on %d sentences in %.1fs; model written to %s",
        args.encoder,
        args.network,
        len(sentences),
        elapsed,
        args.model,
    )
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    run = _run_config(args, model)
    if args.text is not None:
        texts = [args.text]
    else:
        texts = [_read_text(path) for path in args.input]
    records = []
    for n, text in enumerate(texts):
        doc_id = f"doc{n}"
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
    payload = {"run_config": run, "documents": records}
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.train_size is not None and args.test_size is None:
        raise UsageError("--train-size needs --test-size")
    model = load_model(args.model)
    run = _run_config(args, model)
    test_data = _read_corpus(args)
    if args.test_size is not None:
        _, test_data = _sample(test_data, args.train_size or 0, args.test_size, args.seed)
    report = evaluate(model, test_data, mode=args.mode)
    report.config["run_config"] = run
    text = format_report(report)
    print(text)
    if args.report:
        with open(args.report + ".txt", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
            fh.write("# run_config: " + json.dumps(run, sort_keys=True) + "\n")
        _write_json(args.report + ".json", report_to_dict(report))
    return 0


def cmd_compare_configs(args: argparse.Namespace) -> int:
    """Train all nine encoder x network configurations on one split and
    report macro-averaged BIO2 scores per configuration."""
    run = _run_config(args)
    training = TrainingConfig(epochs=args.epochs, seed=args.seed)
    corpus = _read_corpus(args)
    available = len(corpus.sentences)
    n_train = args.train_size if args.train_size is not None else available // 2
    n_test = args.test_size if args.test_size is not None else available - n_train
    if n_test == 0 < available and args.test_size is None:
        raise ValueError(f"--train-size {n_train} of {available} sentences leaves none to test")
    train_sentences, test_sentences = _sample(corpus, n_train, n_test, args.seed)
    if not test_sentences:  # nothing could score the trained models
        raise ValueError("the test data holds no sentence")
    table = load_embeddings(args.embeddings) if args.embeddings else None

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
                training=training,
                embeddings=table if enc == "EMB" else None,
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
    if args.report:
        _write_json(
            args.report,
            {
                "run_config": run,
                "train_sentences": len(train_sentences),
                "test_sentences": len(test_sentences),
                "grid": rows,
            },
        )
    if all(row["status"] != "ok" for row in rows):
        raise ValueError("no configuration succeeded; see the grid's status column")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    run = _run_config(args)
    variants = list(VARIANTS) if args.network == "all" else [args.network]
    all_passed = True
    results = []
    for variant in variants:
        config = NetworkConfig(
            variant=variant,
            input_dim=args.input_dim,
            dense_size=args.dense_size,
            lstm_cells=args.lstm_cells,
        )
        report = gradient_check(config, seed=args.seed, tolerance=args.tolerance)
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
    if args.report:
        _write_json(args.report, {"run_config": run, "checks": results})
    return 0 if all_passed else 1


def cmd_synth(args: argparse.Namespace) -> int:
    _run_config(args)  # checks --seed
    config = synth.SynthConfig(
        n_sentences=args.sentences,
        seed=args.seed,
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
        p.add_argument("--model", required=True, help="model file path")
    if "report" in names:
        p.add_argument("--report", help="report output path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqtag",
        description="Robust neural mention detection and BIO2 sequence labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagger and save the model")
    _add_common(p, "corpus", "seed", "model")
    p.add_argument("--encoder", default="TRI", choices=ENCODER_METHODS)
    p.add_argument("--network", default="BLSTM", choices=VARIANTS)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--train-size", type=int)
    p.add_argument("--embeddings", help="embedding text file (EMB only, and required)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("annotate", help="detect mention spans in raw text")
    _add_common(p, "model")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="annotate this literal text")
    source.add_argument("--input", nargs="+", help="raw UTF-8 text files, one document each")
    p.add_argument("--out", help="write standoff JSON here instead of stdout")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score a model against gold data")
    _add_common(p, "corpus", "seed", "model", "report")
    p.add_argument("--mode", default="both", choices=("span", "bio", "both"))
    p.add_argument(
        "--train-size",
        type=int,
        help="with --test-size: score sentences that train --train-size held out (same --seed)",
    )
    p.add_argument(
        "--test-size",
        type=int,
        help="evaluate on this many held-out sentences instead of whole documents",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare-configs",
        help="train all nine encoder x network configurations on one split",
    )
    _add_common(p, "corpus", "seed", "report")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--train-size", type=int)
    p.add_argument("--test-size", type=int)
    p.add_argument("--embeddings", help="embedding text file for the EMB rows")
    p.set_defaults(func=cmd_compare_configs)

    p = sub.add_parser("gradcheck", help="verify BPTT against finite differences")
    _add_common(p, "seed", "report")
    p.add_argument("--network", default="all", choices=VARIANTS + ("all",))
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--input-dim", type=int, default=6)
    p.add_argument("--dense-size", type=int, default=8)
    p.add_argument("--lstm-cells", type=int, default=4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a seeded synthetic BIO corpus")
    _add_common(p, "seed")
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--misspell-rate", type=float, default=0.2)
    p.add_argument("--case-mangle-rate", type=float, default=0.1)
    p.add_argument("--mention-density", type=float, default=0.9)
    p.add_argument("--out", required=True, help="output BIO column file")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        args = build_parser().parse_args(argv)
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
    except MemoryError as exc:  # an input too large for this machine
        print(f"ERROR memory: {exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the seqtag benchmark in this process.

run.py starts a fresh process of this script for each workload, with the
BLAS thread count fixed in its environment before numpy is imported.  The
workload is a closed loop: one caller makes a seqtag library call and
starts the next only when the previous one has returned.

The last line of standard output is the result JSON.  Above it the script
prints every metric by name and unit, and it writes the full record (input
sizes, environment, sample counts, checks, model SHA-256) to
``.bench_out/<workload>-seed<n>-trace<t>.json`` in the checkout.
"""
from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import layers
import lexicon
from run import WORKER_ENV, WORKLOADS
from tracer import END, NAME, PARENT, REQUEST, START, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The paper's configuration.
ENCODER, NETWORK, PAPER_LR = "TRI", "BLSTM", 0.005
NARROW_SENTENCES, NARROW_TRAIN, MISSPELL_RATE = 220, 100, 0.2
NARROW_EPOCHS = 2  # per train() call: about half a second on one core
WIDE_SENTENCES, WIDE_EPOCHS = 300, 1
# Every workload annotates and scores 100 held-out documents per loop pass,
# so that each pass has a 90th percentile with 10 documents beyond it.
HELDOUT_SENTENCES = 400
# The tag-eval fixture trains at a higher rate: at the paper's rate, 20
# epochs predict no spans, so span decoding and scoring would do no work.
FIXTURE_EPOCHS, FIXTURE_LR = 20, 0.05
# Under weak matching, labelling every token I (one span per sentence)
# scores about 0.95 and untrained models were measured at up to 0.86;
# the fixture scores above 0.99 on held-out documents.
SPAN_F1_FLOOR = 0.97
LOADS_PER_PASS = 5  # train-wide makes only about six passes in a run
PROBE_SENTENCES = 16  # sentences whose distributions the reload check compares
# An untraced run sets up in SETUP_ROUNDS rounds spread evenly over its
# loop, each of at least one set-up and MIN_SETUP_S / SETUP_ROUNDS seconds.
# The speed of a shared machine drifts over tens of seconds; set-ups made
# back to back would all see the same moment of it.
SETUP_ROUNDS, MIN_SETUP_S = 4, 1.0

clock = time.perf_counter


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def load_package():
    """Import seqtag from this checkout's sources, never from elsewhere."""
    if not (SRC / "seqtag" / "__init__.py").is_file():
        sys.exit(f"benchmark: no seqtag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqtag
    import seqtag.corpus, seqtag.encoder, seqtag.evaluation  # noqa: E401
    import seqtag.network, seqtag.synth, seqtag.tagger  # noqa: E401

    if Path(seqtag.__file__).resolve().parent != (SRC / "seqtag").resolve():
        sys.exit(f"benchmark: imported seqtag from {seqtag.__file__}, not {SRC}")
    return seqtag


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class State:
    """Inputs of one workload, all generated from the workload seed."""

    heldout: object  # Corpus whose documents are annotated and scored
    model_path: Path
    train_sentences: list | None = None  # None: tag-eval uses the fixture
    epochs: int = 0
    learning_rate: float = PAPER_LR
    train_seed: int = 0
    fixture: object = None
    fixture_train_s: float = 0.0
    sizes: dict = field(default_factory=dict)


def _synth_split(st, seed: int, n_heldout: int):
    """The narrow training split plus held-out documents of the same stream.

    The first 220 sentences of the generator stream are the paper's
    synthetic corpus; the documents after them share its entity lexicon
    but were never trained on.  A corpus from another seed would have other
    entities, and no F1 floor would then separate trained from untrained.
    """
    config = st.synth.SynthConfig(
        n_sentences=NARROW_SENTENCES + n_heldout,
        seed=derive_seed(seed, "synth"),
        misspell_rate=MISSPELL_RATE,
    )
    full = st.synth.synthetic_corpus(config)
    n_docs = NARROW_SENTENCES // config.sentences_per_doc
    base = st.corpus.Corpus(full.documents[:n_docs])
    heldout = st.corpus.Corpus(full.documents[n_docs:])
    train, _ = st.corpus.sample_split(
        base, NARROW_TRAIN, NARROW_TRAIN, derive_seed(seed, "split")
    )
    return train, heldout


def setup_narrow(st, seed: int, workdir: Path) -> State:
    train, heldout = _synth_split(st, seed, HELDOUT_SENTENCES)
    return State(heldout, workdir / "model.stm", train, NARROW_EPOCHS,
                 PAPER_LR, derive_seed(seed, "init"))


def setup_wide(st, seed: int, workdir: Path) -> State:
    path = workdir / "wide.bio"
    path.write_text(
        lexicon.bio_text(WIDE_SENTENCES + HELDOUT_SENTENCES, derive_seed(seed, "lexicon")),
        encoding="utf-8",
    )
    corpus = st.corpus.read_bio_column_file(path)
    n_docs = WIDE_SENTENCES // lexicon.SENTENCES_PER_DOC
    train = st.corpus.Corpus(corpus.documents[:n_docs]).sentences
    heldout = st.corpus.Corpus(corpus.documents[n_docs:])
    return State(heldout, workdir / "model.stm", train, WIDE_EPOCHS,
                 PAPER_LR, derive_seed(seed, "init"))


def setup_tag_eval(st, seed: int, workdir: Path) -> State:
    train, heldout = _synth_split(st, seed, HELDOUT_SENTENCES)
    started = clock()
    fixture = st.tagger.train(
        train, ENCODER, NETWORK,
        st.tagger.TrainingConfig(epochs=FIXTURE_EPOCHS, seed=derive_seed(seed, "init")),
        learning_rate=FIXTURE_LR,
    )
    train_s = clock() - started
    state = State(heldout, workdir / "fixture.stm", fixture=fixture,
                  fixture_train_s=train_s, epochs=FIXTURE_EPOCHS,
                  learning_rate=FIXTURE_LR)
    st.tagger.save_model(fixture, state.model_path)
    state.sizes["train"] = _train_sizes(train, fixture, FIXTURE_EPOCHS, FIXTURE_LR)
    return state


SETUPS = {"train-narrow": setup_narrow, "train-wide": setup_wide, "tag-eval": setup_tag_eval}


def _tokens(sentences) -> int:
    return sum(len(s.tokens) for s in sentences)


def _train_sizes(sentences, model, epochs: int, learning_rate: float) -> dict:
    return {
        "sentences": len(sentences),
        "tokens": _tokens(sentences),
        "input_dim": model.config.input_dim,
        "parameters": sum(p.size for p in model.params.values()),
        "epochs_per_call": epochs,
        "learning_rate": learning_rate,
    }


# ---------------------------------------------------------------------------
# The closed loop and its output checks


@dataclass
class Samples:
    """Timings of loop passes, at reference speed when ``speed`` is set."""

    speed: calibrate.Speed | None = None
    train_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    doc_s: list = field(default_factory=list)  # one list per loop pass
    evaluate_s: list = field(default_factory=list)
    iteration_s: list = field(default_factory=list)  # wall time


def at_reference_speed(speed, seconds: list) -> list:
    """Scale the wall times of a section that just ended; as they are without a speed."""
    factor = speed.factor() if speed is not None else 1.0
    return [t * factor for t in seconds]


class Checker:
    """Checks every output of the loop and counts operations.

    An operation is one library call of the loop (train, save, load, one
    annotated document, evaluate) or one set-up artifact; it fails when
    its output is incorrect.  Outputs that must repeat across iterations
    are compared with those of the first one, which is checked in full.
    """

    def __init__(self, st, state: State, floor: float | None):
        self.st, self.state, self.floor = st, state, floor
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same_as_first(self, key: str, value) -> bool:
        return self.first.setdefault(key, value) == value

    def check(self, model, loaded, annotations, report) -> None:
        st, state = self.st, self.state
        if state.train_sentences is not None:
            self.record(self.same_as_first("loss_trace", model.loss_trace), "train")
            self.record(self.same_as_first("sha256", _sha256(state.model_path)),
                        "save_model")
        probe = state.heldout.sentences[:PROBE_SENTENCES]
        self.record(
            all(
                (st.tagger.predict(model, s).distributions
                 == st.tagger.predict(loaded, s).distributions).all()
                for s in probe
            ),
            "load_model",
        )
        if "spans" not in self.first:
            self.first["spans"] = [
                self._expected_spans(loaded, doc) for doc in state.heldout.documents
            ]
        for doc, spans, expected in zip(
            state.heldout.documents, annotations, self.first["spans"]
        ):
            inside = all(0 <= m.begin < m.end <= len(doc.text) for m in spans)
            self.record(inside and spans == expected, f"annotate {doc.doc_id}")
        scores = (report.ner.f1, report.bio.macro_f1)
        ok = self.same_as_first("scores", scores)
        if self.floor is not None:
            ok = ok and report.ner.f1 >= self.floor
        self.record(ok, "evaluate")

    def _expected_spans(self, model, doc) -> list:
        corpus, tagger = self.st.corpus, self.st.tagger
        spans = []
        for begin, end in corpus.split_sentences(doc.text):
            sentence = corpus.Sentence(tuple(corpus.tokenize(doc.text[begin:end], begin)))
            labels = tagger.predict(model, sentence).labels
            spans.extend(tagger.decode_spans(sentence, labels, doc.doc_id))
        return spans


def run_iteration(st, state: State, samples: Samples, checker: Checker, tracer=None):
    """One pass of the closed loop; checks run untraced and untimed."""
    started = clock()
    if state.train_sentences is not None:
        t0 = clock()
        model = st.tagger.train(
            state.train_sentences, ENCODER, NETWORK,
            st.tagger.TrainingConfig(epochs=state.epochs, seed=state.train_seed),
            learning_rate=state.learning_rate,
        )
        samples.train_s += at_reference_speed(samples.speed, [clock() - t0])
        st.tagger.save_model(model, state.model_path)
    else:
        model = state.fixture
    load_s = []
    for _ in range(LOADS_PER_PASS):
        t0 = clock()
        loaded = st.tagger.load_model(state.model_path)
        load_s.append(clock() - t0)
    samples.load_s += at_reference_speed(samples.speed, load_s)
    annotations, doc_s = [], []
    for doc in state.heldout.documents:
        t0 = clock()
        annotations.append(st.tagger.annotate(loaded, doc.text, doc.doc_id))
        doc_s.append(clock() - t0)
    samples.doc_s.append(at_reference_speed(samples.speed, doc_s))
    t0 = clock()
    report = st.evaluation.evaluate(loaded, state.heldout, mode="both")
    samples.evaluate_s += at_reference_speed(samples.speed, [clock() - t0])
    samples.iteration_s.append(clock() - started)
    if tracer is None:
        checker.check(model, loaded, annotations, report)
    else:
        with tracer.paused():
            checker.check(model, loaded, annotations, report)
    return model, report


def closed_loop(st, state, checker, seconds: float, tracer=None, setup=None,
                speed=None):
    """Run loop passes for ``seconds`` of pass time; at least one pass.

    With a tracer, untraced and traced passes alternate, so that both see
    the same machine conditions and their difference is the tracing cost.
    ``setup`` (a ``SetUp``) runs its remaining rounds between passes, evenly
    spread over the pass time, which does not count its rounds.  With a
    ``speed``, untraced timings are taken at reference speed.
    Returns the untraced and the traced samples, the last model and report.
    """
    samples, traced = Samples(speed), Samples()
    modules = [getattr(st, name) for name in layers.TRACED_MODULES]
    pass_s = 0.0
    while True:
        if setup is not None and pass_s >= seconds * setup.rounds / SETUP_ROUNDS:
            setup.round()
        started = clock()
        model, report = run_iteration(st, state, samples, checker)
        if tracer is not None:
            with tracer.tracing(layers.PACKAGE, modules):
                run_iteration(st, state, traced, checker, tracer)
        pass_s += clock() - started
        if pass_s >= seconds:
            while setup is not None and setup.rounds < SETUP_ROUNDS:
                setup.round()
            return samples, traced, model, report


def warm_up(st, state: State) -> Checker:
    """Run a small loop pass first, so imports and lazy set-up are not timed."""
    small = dataclasses.replace(
        state, heldout=st.corpus.Corpus(state.heldout.documents[:2]), epochs=1)
    if state.train_sentences is not None:
        small.train_sentences = state.train_sentences[:10]
        small.model_path = state.model_path.with_name("warmup.stm")
    checker = Checker(st, small, None)
    run_iteration(st, small, Samples(), checker)
    return checker


# ---------------------------------------------------------------------------
# Metrics


def tail(values) -> tuple[float, float, int] | None:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count), or None below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(state: State, samples: Samples, setup_s: list, train_s: list) -> dict:
    """Every end-to-end value with its unit, plus sample counts and tails.

    Throughputs are total work over total time, and per-call times are the
    mean over loop passes of each pass's median or tail, so that every
    moment of the run weighs by its duration.
    """
    train = state.sizes["train"]
    heldout_tokens = _tokens(state.heldout.sentences)
    heldout_sentences = len(state.heldout.sentences)
    loads = [samples.load_s[i:i + LOADS_PER_PASS]
             for i in range(0, len(samples.load_s), LOADS_PER_PASS)]
    # The tail of each pass: a tail pooled over the run would mostly
    # measure the few slowest moments of a shared machine.
    pass_tails = [tail(doc_s) for doc_s in samples.doc_s]
    passes = len(samples.doc_s)
    return {
        "setup_s": (statistics.median(setup_s), "s", {"samples": len(setup_s)}),
        "train_tokens_per_s": (
            train["tokens"] * train["epochs_per_call"] * len(train_s) / sum(train_s),
            "tokens/s", {"calls": len(train_s)}),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", {}),
        "load_model_ms": (statistics.fmean(map(statistics.median, loads)) * 1e3, "ms",
                          {"samples": len(samples.load_s), "passes": len(loads)}),
        "annotate_tokens_per_s": (
            heldout_tokens * passes / sum(map(sum, samples.doc_s)),
            "tokens/s", {"passes": passes}),
        "annotate_doc_ms_p50": (
            statistics.fmean(map(statistics.median, samples.doc_s)) * 1e3, "ms",
            {"samples_per_pass": len(samples.doc_s[0]), "passes": passes}),
        "annotate_doc_ms_tail": (
            statistics.fmean(t[0] for t in pass_tails) * 1e3, "ms",
            {"percentile": pass_tails[0][1], "samples_per_pass": pass_tails[0][2],
             "passes": passes}),
        "evaluate_sentences_per_s": (
            heldout_sentences * len(samples.evaluate_s) / sum(samples.evaluate_s),
            "sentences/s", {"passes": len(samples.evaluate_s)}),
    }


def per_layer(tracer: Tracer, traced_layers: dict, untraced: Samples,
              traced: Samples) -> dict:
    """Per-layer values per traced loop iteration."""
    iterations = len(traced.iteration_s)
    values: dict = {}
    for name in layers.FUNCTIONS:
        layer = traced_layers.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.self_ms"] = (layer["self_s"] * 1e3 / iterations, "ms/iter", {})
        values[f"{name}.calls"] = (layer["calls"] / iterations, "1/iter", {})
    totals = tracer.totals
    for name, (unit, _, _, definition) in layers.COMPUTED.items():
        if name == "encoder.active_fraction":
            value = totals["encoder.lit_slots"] / max(totals["encoder.slots"], 1)
        else:
            value = totals[name] / iterations
        values[name] = (value, unit, {"computed": definition})
    values["trace.coverage"] = (tracer.coverage(), "fraction", {})
    overhead = statistics.median(traced.iteration_s) / statistics.median(untraced.iteration_s)
    values["trace.overhead_pct"] = ((overhead - 1.0) * 100.0, "%", {
        "untraced_iterations": len(untraced.iteration_s),
        "traced_iterations": len(traced.iteration_s),
    })
    return values


# ---------------------------------------------------------------------------
# Environment and output


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "seqtag").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_rev = proc.stdout.strip() if proc.returncode == 0 else None
        except FileNotFoundError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "settings": {var: os.environ.get(var) for var in WORKER_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": git_rev,
        "source_sha256": source.hexdigest(),
    }


def contract_metrics(trace: bool) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json asks this run for."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = contract_metrics(trace)
    st = load_package()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run_workload(st, args.workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["environment"] = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key in ("environment", "sizes", "speed", "model_sha256", "expectation"):
        if key in record:
            print(f"{args.workload:<13} {key}: {json.dumps(record[key])}")
    for name, entry in record["metrics"].items():
        print(f"{args.workload:<13} {name:<46} {entry['value']:>16.6f} {entry['unit']}")
    metrics = record["metrics"]
    for name, unit in names.items():
        if metrics[name]["unit"] != unit:
            sys.exit(f"benchmark: {name} is in {metrics[name]['unit']}, "
                     f"BENCHMARK.json says {unit}")
    checks = record["checks"]
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


class SetUp:
    """Sets a workload up in rounds and times every set-up.

    Every set-up makes the same inputs from the seed; the loop uses those
    of the first one, and later ones check that the fixture model's file
    comes out byte-identical.  With a ``speed``, times are taken at
    reference speed.
    """

    def __init__(self, st, workload: str, seed: int, workdir: Path, speed=None):
        self.st, self.seed, self.workdir = st, seed, workdir
        self.make = SETUPS[workload]
        self.speed = speed
        self.checker = Checker(st, None, None)
        self.setup_s: list[float] = []
        self.train_s: list[float] = []  # fixture training times
        self.rounds = 0
        self.state = None

    def round(self) -> None:
        started = clock()
        setup_s, train_s = [], []
        while True:
            t0 = clock()
            state = self.make(self.st, self.seed, self.workdir)
            setup_s.append(clock() - t0)
            if state.fixture is not None:
                train_s.append(state.fixture_train_s)
                same = self.checker.same_as_first("sha256", _sha256(state.model_path))
                self.checker.record(same, "set-up save_model")
            self.state = self.state or state
            if clock() - started >= MIN_SETUP_S / SETUP_ROUNDS:
                break
        # One scale for the round: its set-ups are the timed section.
        scaled = at_reference_speed(self.speed, setup_s + train_s)
        self.setup_s += scaled[:len(setup_s)]
        self.train_s += scaled[len(setup_s):]
        self.rounds += 1


def run_workload(st, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    # End-to-end timings are taken at reference speed (see calibrate.py);
    # a traced run reports none, and calibrating would count as untraced
    # time in its coverage.
    speed = None if trace else calibrate.Speed()
    setup = SetUp(st, workload, seed, workdir, speed)
    setup.round()
    state = setup.state

    floor = SPAN_F1_FLOOR if workload == "tag-eval" else None
    checker = Checker(st, state, floor)
    checkers = [setup.checker, warm_up(st, state), checker]
    tracer = Tracer(counters=layers.COUNTERS) if trace else None
    # A traced run spends half its passes traced, so it runs twice as long,
    # and sets up only once.
    samples, traced, model, report = closed_loop(
        st, state, checker, seconds * (2 if trace else 1), tracer,
        None if trace else setup, speed)
    setup_s, train_s = setup.setup_s, setup.train_s
    if state.fixture is None:
        train_s = samples.train_s
        state.sizes["train"] = _train_sizes(
            state.train_sentences, model, state.epochs, state.learning_rate)
    state.sizes["heldout"] = {
        "documents": len(state.heldout.documents),
        "sentences": len(state.heldout.sentences),
        "tokens": _tokens(state.heldout.sentences),
        "characters": sum(len(doc.text) for doc in state.heldout.documents),
    }

    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "sizes": state.sizes}
    if speed is not None:
        record["speed"] = {
            "reference_s": calibrate.REFERENCE_S, "sections": len(speed.factors),
            "factor_median": statistics.median(speed.factors),
            "factor_min": min(speed.factors), "factor_max": max(speed.factors),
        }
    if trace:
        traced_layers = tracer.layers()
        values = per_layer(tracer, traced_layers, samples, traced)
        record["expectation"] = {
            "statement": layers.EXPECTATIONS[workload],
            "holds": layers.expectation_holds(workload, traced_layers),
        }
        traced_s = tracer.wall_s - tracer.paused_s
        record["layers"] = {
            name: {"calls": layer["calls"], "self_ms": layer["self_s"] * 1e3,
                   "share": layer["self_s"] / traced_s}
            for name, layer in sorted(traced_layers.items(),
                                      key=lambda kv: -kv[1]["self_s"])
        }
        _write_spans(tracer, OUT / f"{workload}-seed{seed}.spans.json.gz")
    else:
        values = end_to_end(state, samples, setup_s, train_s)
        trained = state.fixture if state.fixture is not None else model
        values["train_final_loss"] = (trained.loss_trace[-1], "nats", {})
        values["span_f1"] = (report.ner.f1, "fraction", {"floor": floor})
        values["bio_macro_f1"] = (report.bio.macro_f1, "fraction", {})

    attempted = sum(c.attempted for c in checkers)
    failures = [f for c in checkers for f in c.failures]
    values["error_rate"] = (len(failures) / attempted, "fraction", {})
    record["metrics"] = {
        name: {"value": value, "unit": unit, **detail}
        for name, (value, unit, detail) in values.items()
    }
    record["checks"] = {"attempted": attempted, "failed": len(failures),
                        "failures": failures[:50]}
    record["model_sha256"] = _sha256(state.model_path)
    return record


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans as [name index, start us, end us, parent, request] rows."""
    names = sorted({span[NAME] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = tracer.spans[0][START] if tracer.spans else 0.0
    rows = [
        [index[s[NAME]], round((s[START] - origin) * 1e6, 1),
         round((s[END] - origin) * 1e6, 1), s[PARENT], s[REQUEST]]
        for s in tracer.spans
    ]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())

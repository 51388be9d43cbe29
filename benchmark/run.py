"""seqtag benchmark: three seeded closed-loop workloads over the library.

    python3 benchmark/run.py --workload train-narrow --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 -m pytest benchmark/tests      # the benchmark's own tests

Workloads (see BENCHMARK.json for why each exists):

* ``train-narrow``: TRI + BLSTM at the paper's learning rate on a
  100-sentence split of the synthetic corpus (input width about 600);
  the LSTM recurrence dominates.
* ``train-wide``: TRI + BLSTM on 300 sentences of random pseudo-words
  (input width about 9k); the dense input path dominates.
* ``tag-eval``: load a fixture model, annotate raw documents and score
  them; no backpropagation, gradients or SGD.

Every loop pass loads the model, annotates 100 held-out documents and
scores them, so every workload reports every end-to-end metric; tag-eval's
training figures come from training its fixture in set-up.  An untraced
run sets up four times, spread over its loop, and reports end-to-end
timings at reference speed: each timed section's wall time is scaled by a
fixed calibration kernel timed around it (see ``calibrate.py``).

Each workload runs in a fresh process of ``worker.py``, one after another,
with the BLAS thread count fixed to 1 (at or below ``nproc``) and glibc
malloc's thresholds fixed (see ``WORKER_ENV``).  With
``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it reports the per-layer metrics from a traced run of the
loop that follows an untraced one.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--workload all`` the metric names are prefixed with
the workload name.  Full records go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-narrow", "train-wide", "tag-eval")
# Settings every worker runs with, recorded with its results.  One BLAS
# thread is at or below nproc on any machine.  glibc malloc adapts its mmap
# and trim thresholds to the sizes a process has freed so far, so the same
# calls either page-fault their buffers every time or never, depending on
# the process's history: load_model medians differed by half between runs.
# Fixing the thresholds at their upper limits keeps every run in the state
# a long-running process reaches.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(256 * 2**20),
}
WORKER_TIMEOUT_S = 175


def run_worker(workload: str, args) -> dict:
    """Run one workload in a fresh process; relay its output and return its result."""
    env = dict(os.environ, **WORKER_ENV)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # subprocess.run waits for the worker and kills it on timeout.
    proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(proc.returncode or 1)
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqtag benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        print(json.dumps(run_worker(args.workload, args)))
        return 0
    results = {w: run_worker(w, args) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Machine-speed calibration for the seqtag benchmark.

The speed of a shared machine drifts.  On a shared 2-vCPU VM the same
annotate pass ran at 10k to 17k tokens/s within minutes, in levels that
lasted from seconds to minutes, so whole 30 s runs read up to 40% apart
and no statistic over one run could steady them.  A fixed kernel that does
the work seqtag does, on its own small tagger, slows down and speeds up
with the machine.  The benchmark times it between the timed sections of
its loop and reports end-to-end timings at reference speed: a section's
wall time times ``REFERENCE_S`` over the kernel time measured around it.

On that VM a smaller kernel (trigram counts and one recurrence) held the
ratio of 10 s windows of annotate throughput to its speed within 0.125 to
0.145 while the throughput ranged 10.2k to 16.7k tokens/s.  But at times
it let tag-eval read 12% below train-narrow on the same annotate work.
With this kernel, alternating runs of the two agreed within 4% over 13
minutes, and five runs of tag-eval's annotate ranged 3%.

The kernel is benchmark code, not seqtag code, so a change to seqtag moves
timings at reference speed by the same share as wall times.
"""
from __future__ import annotations

import random
import time

import numpy as np

# Kernel time that defines reference speed: about its median on the VM above.
REFERENCE_S = 0.004
CALLS = 3  # kernel calls per measurement; the fastest one counts

clock = time.perf_counter

# A small tagger sized near the paper's configuration: trigram counts of
# 600 slots, a dense layer of 150, a bidirectional recurrence of 50 cells.
_rng = random.Random(1)
_WORDS = ["".join(_rng.choice("abcdefghijklmnopqrstuvwxyz")
                  for _ in range(_rng.randint(3, 10))) for _ in range(70)]
_SENTENCES = [_WORDS[i:i + 7] for i in range(0, len(_WORDS), 7)]
_TRIGRAMS: dict[str, int] = {}
for _word in _WORDS:
    _marked = "#" + _word + "#"
    for _i in range(len(_marked) - 2):
        _TRIGRAMS.setdefault(_marked[_i:_i + 3], len(_TRIGRAMS))
_SLOTS, _DENSE, _CELLS = 600, 150, 50
_init = np.random.default_rng(0)
_W_DENSE = _init.standard_normal((_DENSE, _SLOTS)) * 0.01
_W_X = _init.standard_normal((4 * _CELLS, _DENSE)) * 0.01
_W_H = _init.standard_normal((4 * _CELLS, _CELLS)) * 0.01
_W_OUT = _init.standard_normal((3, 2 * _CELLS)) * 0.01


def kernel() -> np.ndarray:
    """Tag every sentence: encode, dense layer, recurrence both ways, output."""
    for sentence in _SENTENCES:
        x = np.zeros((len(sentence), _SLOTS))
        for t, word in enumerate(sentence):
            marked = "#" + word + "#"
            for i in range(len(marked) - 2):
                x[t, _TRIGRAMS[marked[i:i + 3]] % _SLOTS] += 1.0
        pre = np.maximum(x @ _W_DENSE.T, 0.0) @ _W_X.T
        hidden = []
        for steps in (range(len(sentence)), reversed(range(len(sentence)))):
            h, c = np.zeros(_CELLS), np.zeros(_CELLS)
            for t in steps:
                a = pre[t] + _W_H @ h
                gates = 1.0 / (1.0 + np.exp(-a[:3 * _CELLS]))
                c = gates[_CELLS:2 * _CELLS] * c + gates[:_CELLS] * np.tanh(a[3 * _CELLS:])
                h = gates[2 * _CELLS:] * np.tanh(c)
                hidden.append(h)
        out = _W_OUT @ np.concatenate((hidden[0], hidden[-1]))
    return out


def kernel_s() -> float:
    """Seconds the kernel takes now: the fastest of CALLS calls, so that a
    single interruption does not count as a slow machine."""
    best = float("inf")
    for _ in range(CALLS):
        started = clock()
        kernel()
        best = min(best, clock() - started)
    return best


class Speed:
    """Scales the wall times of consecutive timed sections to reference speed."""

    def __init__(self):
        self.last = kernel_s()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Scale for the section since the previous call: ``REFERENCE_S``
        over the mean kernel time measured before and after it."""
        now = kernel_s()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor

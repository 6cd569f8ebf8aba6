"""Samples how fast the host runs Python while a ``run_compare`` call runs.

The host the benchmark runs on is shared.  Its speed drifts by half or more
over minutes and flickers from one second to the next, and the two vCPUs
flicker independently.  Measured on a 2-vCPU Xeon host, the wall time of one
``run_compare`` call varied by 7-22% (coefficient of variation over 15-20
calls of one workload).  Dividing it by a reference computation timed
between calls only brought that to 6-11%, because the speed changes within
a call.  Sampling the speed during the call brought it to 3-4%.

While a ``sampling()`` block runs, a SIGALRM handler runs a small fixed
computation every ``PERIOD_S`` seconds of wall time, the first time at once,
and records how long it took.  The computation is the kind of work
``run_compare`` does: regex tokenizing, a per-token function call and dict
counting over a fixed text.  It uses the standard library only and does
not touch lexigauge, so a change to the program cannot change it.  One
sample takes about 4 ms, about 1.5% of the block.

``relative(wall)`` is the block's wall time, less the time the samples took,
divided by the samples' mean time.  Samples are timed in CPU time of the
main thread, so that work the program runs in other threads or processes
cannot stretch them and make the program look faster.  That does not cover
every effect of such work (the two vCPUs share caches), so a change that
adds parallelism must also show the wall time.

Python runs a signal handler in the main thread between bytecodes, so a
sample waits while native code runs, and the sampler works in the main
thread only.
"""

from __future__ import annotations

import random
import re
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager

PERIOD_S = 0.25

_SEED = 20210428
_SENTENCES = 120
_VOCABULARY = 2_000
_WORD = re.compile(r"[a-z]+")
_VOWEL_GROUP = re.compile(r"[aeiouy]+")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _syllables(token: str) -> int:
    groups = len(_VOWEL_GROUP.findall(token))
    if token.endswith("e") and groups > 1:
        groups -= 1
    return max(1, groups)


class HostSpeed:
    """Owns SIGALRM for the life of the process once created."""

    def __init__(self):
        rng = random.Random(_SEED)
        words = ["".join(rng.choices(_LETTERS, k=rng.randint(2, 11))) for _ in range(_VOCABULARY)]
        self._sentences = [
            " ".join(rng.choices(words, k=rng.randint(8, 28))).capitalize()
            for _ in range(_SENTENCES)
        ]
        self._expected = self._compute()
        self._active = False
        self._wall: list[float] = []
        self._cpu: list[float] = []
        self._wrong = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _compute(self) -> int:
        counts: Counter[str] = Counter()
        syllables = 0
        for sentence in self._sentences:
            tokens = _WORD.findall(sentence.lower())
            counts.update(tokens)
            for token in tokens:
                syllables += _syllables(token)
        return syllables + len(counts)

    def _sample(self, signum, frame) -> None:
        if not self._active:  # an alarm raised just before the block ended
            return
        began, began_cpu = time.perf_counter(), time.thread_time()
        result = self._compute()
        self._cpu.append(time.thread_time() - began_cpu)
        self._wall.append(time.perf_counter() - began)
        self._wrong += result != self._expected

    @contextmanager
    def sampling(self):
        """Sample while the block runs, forgetting earlier blocks."""
        self._wall.clear()
        self._cpu.clear()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, 1e-3, PERIOD_S)
        try:
            yield
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def relative(self, wall: float) -> float:
        """``wall`` seconds of the last block, less the samples' own time,
        in units of a sample's mean CPU time."""
        if self._wrong:
            raise RuntimeError(f"{self._wrong} host speed samples computed a wrong result")
        if not self._cpu:
            raise RuntimeError("the block ended before the first host speed sample")
        return (wall - sum(self._wall)) / statistics.fmean(self._cpu)

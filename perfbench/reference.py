"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host, where identical code
runs up to about twice as slowly for stretches of seconds to minutes, and
the slowdown hits interpreted Python, small numpy calls and memory-bound
array passes alike.  The loop below mixes those four kinds of work, the
same kinds pnu spends its time on, and never calls pnu.  Timed just before
and just after every benchmark operation, it gives the host's speed during
that operation: ``normalized`` rescales the operation's time to a host on
which the loop takes ``NOMINAL_S``, so a slowdown common to both cancels
while a change to pnu's own speed shows in full.
"""

from __future__ import annotations

import time

import numpy as np

#: The loop's time on a quiet 2.1 GHz Xeon vCPU, one BLAS thread.
NOMINAL_S = 0.05

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(64)
_STREAM = _RNG.random(400_000)
_POINTS = _RNG.random((2000, 1, 2))
_ANCHORS = _RNG.random((1, 50, 2))
# Every array the loop writes is allocated here, once, so that its time does
# not depend on how the program under test has left the allocator.
_SMALL_OUT = np.empty_like(_SMALL)
_STREAM_OUT = np.empty_like(_STREAM)
_DIFF = np.empty((2000, 50, 2))
_GRAM = np.empty((2000, 50))


def _interpreter() -> int:
    total = 0
    for i in range(160_000):
        total += i * i % 7
    return total


def _small_calls() -> float:
    total = 0.0
    for _ in range(4000):
        total += float(np.dot(_SMALL, _SMALL)) + float(np.exp(_SMALL, out=_SMALL_OUT).sum())
    return total


def _stream() -> float:
    total = 0.0
    for _ in range(18):
        np.negative(_STREAM, out=_STREAM_OUT)
        total += float(np.exp(_STREAM_OUT, out=_STREAM_OUT).sum())
    return total


def _kernel() -> float:
    total = 0.0
    for _ in range(4):
        np.subtract(_POINTS, _ANCHORS, out=_DIFF)
        np.square(_DIFF, out=_DIFF)
        np.sum(_DIFF, axis=-1, out=_GRAM)
        np.negative(_GRAM, out=_GRAM)
        total += float(np.exp(_GRAM, out=_GRAM).sum())
    return total


def _loop() -> None:
    _interpreter()
    _small_calls()
    _stream()
    _kernel()


def reference_s() -> float:
    """Wall time of the reference loop, run once untimed and then timed.

    For about 0.1 s after an operation that frees a few hundred MiB, all of
    the loop's parts run up to twice as slowly; the untimed run absorbs that
    transient, so the timed one sees the host and not the last operation.
    """
    _loop()
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def normalized(op_s: float, before_s: float, after_s: float) -> float:
    """``op_s`` rescaled by the reference times measured either side of it."""
    return op_s * NOMINAL_S / (0.5 * (before_s + after_s))

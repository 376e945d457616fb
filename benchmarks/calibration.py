"""A fixed reference computation that measures how fast the machine runs right now.

On a shared host the speed of one vCPU changes by up to 1.7x, for stretches
of a second to minutes, with no steal time and no run-queue wait: the same
instructions simply take longer. So each timed operation is bracketed by two
runs of ``reference_work``, and its time is scaled by ``REFERENCE_S`` over
the mean of the two reference times. The scaled time is the time the
operation would take at the speed where ``reference_work`` takes
``REFERENCE_S``. ``reference_work`` is benchmark code and never calls
``detfuse``, so a change to the program does not move it.

It has two halves of about equal time. The first follows the program's
hot paths: a Python loop of box overlaps with dict grouping and sorting, a
JSON round trip, and numpy sorts and reductions on small arrays. The second
reads memory in random order, from a Python list and a numpy array of tens
of MiB, because the operations slow more than the first half alone when
the host is busy. With both halves, the operation times of every workload
grow about in proportion to the reference time (a log-log slope of 1.00
to 1.06 over 200 s of mixed operations).
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

#: Seconds of one ``reference_work()`` at the reference speed: about its
#: time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4) in that VM's
#: faster state.
REFERENCE_S = 0.070

_rng = np.random.default_rng(20231014)
_BOXES = [tuple(float(v) for v in row) for row in _rng.uniform(0.0, 100.0, (300, 4))]
_ARRAY = _rng.uniform(0.0, 1.0, (200, 200))
_DOC = [{"image_id": i, "bbox": list(b), "score": b[0] / 100} for i, b in enumerate(_BOXES)]


@functools.lru_cache(maxsize=None)
def _memory_data() -> tuple:
    """Built on first use, after the timed phase has read its peak memory."""
    rng = np.random.default_rng(20231015)
    values = [float(v) for v in rng.random(300_000)]
    order = [int(i) for i in rng.permutation(len(values))[:150_000]]
    array = rng.random(4_000_000)
    return values, order, array, rng.integers(0, len(array), 400_000)


def reference_work() -> float:
    """One fixed unit of work; returns a checksum so that nothing is skipped."""
    total = 0.0
    groups: dict[int, list[float]] = {}
    for i, (x, y, w, h) in enumerate(_BOXES):
        for a, b, c, d in _BOXES[:50]:
            iw = min(x + w, a + c) - max(x, a)
            ih = min(y + h, b + d) - max(y, b)
            if iw > 0 and ih > 0:
                total += iw * ih / (w * h + c * d - iw * ih)
        groups.setdefault(i % 17, []).append(total)
    for members in groups.values():
        members.sort()
    for _ in range(3):
        total += len(json.loads(json.dumps(_DOC)))
    for _ in range(120):
        total += float(np.sort(_ARRAY, axis=1)[:, 5].sum()) + float(np.maximum(_ARRAY, _ARRAY.T).mean())
    values, order, array, picks = _memory_data()
    for i in order:
        total += values[i]
    total += float(array[picks].sum()) + float(array[picks[::-1]].sum())
    return total


def measure() -> float:
    """Seconds that one ``reference_work()`` takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two reference runs to the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)

"""The host's speed, measured by a fixed reference kernel beside the calls timed.

On a shared 2-core VM the speed at which this process runs Python and small
numpy operations swings by up to ±20% within seconds, and by more between
minutes, with no change in the program.  The thread's CPU clock does not see
it.  The benchmark therefore runs a fixed kernel, which does not touch
sparsemips, after every ``PROBE_EVERY_NS`` of search CPU time, and scales
each call by the kernel's time around it: a scaled figure is the time the
call would take on a host where the kernel takes exactly ``REFERENCE_NS``.

The kernel mixes what search does most: small float32 gathers and dot
products, a top-10 heap, and dict lookups in an interpreted loop.  Its data
are a few kilobytes, built once from a fixed seed, so the program's own
memory use does not change its time; the garbage collector is off while it
runs, so a collection the program's garbage triggers does not land in it.
"""
from __future__ import annotations

import gc
import heapq
import time

import numpy as np

REFERENCE_NS = 1_000_000   # scaled figures read as ms on a host where the kernel takes 1 ms
PROBE_EVERY_NS = 20_000_000  # search CPU time between two kernel runs (~5% overhead)
WINDOW_PROBES = 100        # kernel runs per speed window, about 2 s of the pass

_rng = np.random.default_rng(20240917)
_VECTORS = [_rng.random(48).astype(np.float32) for _ in range(40)]
_DIMS = [np.sort(_rng.choice(1000, 48, replace=False)) for _ in range(40)]
_QUERY = _rng.random(1000).astype(np.float32)
_TABLE = {i: (i * 7919) % 1009 for i in range(2048)}
del _rng


def _kernel():
    heap, acc = [], 0
    for rep in range(5):
        for j, (vec, dims) in enumerate(zip(_VECTORS, _DIMS)):
            score = float(vec @ _QUERY[dims])
            if len(heap) < 10:
                heapq.heappush(heap, (score, j))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, j))
        for i in range(600):
            acc += _TABLE[(i * 31 + rep) & 2047]
    return acc


def probe():
    """CPU time of the calling thread for one run of the reference kernel, in ns."""
    gc.disable()
    try:
        t0 = time.thread_time_ns()
        _kernel()
        return time.thread_time_ns() - t0
    finally:
        gc.enable()


def window_speed(probe_after, probe_ns, n_calls):
    """Per call: the median kernel time of the speed window the call ran in.

    ``probe_after[j]`` is the number of calls made before kernel run ``j``;
    the last run follows the last call.  Runs are split into consecutive
    windows of about ``WINDOW_PROBES``, and a call belongs to the window of
    the first run after it.
    """
    probe_after = np.asarray(probe_after, dtype=np.int64)
    probe_ns = np.asarray(probe_ns, dtype=np.float64)
    if probe_after.size == 0 or probe_after[-1] < n_calls:
        raise ValueError("the last kernel run must follow the last call")
    windows = np.array_split(np.arange(probe_ns.size),
                             max(1, round(probe_ns.size / WINDOW_PROBES)))
    speed = np.empty(probe_ns.size)
    for runs in windows:
        speed[runs] = np.median(probe_ns[runs])
    return speed[np.searchsorted(probe_after, np.arange(n_calls), side="right")]

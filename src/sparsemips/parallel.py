"""The thread pool that set-up runs its independent pieces on.

Threads overlap the kernels that release the GIL, such as scipy's sparse
products and numpy's partition; numpy's sorts hold it (numpy 2.4), so the
pieces gain from threads only what runs outside them.  Each piece is
large enough (a run of queries whose columns hold ~2**17 entries, or a
run of inverted lists with ~2**15 row entries) that its Python overhead
is small beside its kernels.
The pieces give the same results on any number of threads; search never
runs here.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice


def cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can tell
        return os.cpu_count() or 1


def in_order(fn, items, collect):
    """collect(fn(item)) for each item, in the order of `items`.

    The fn calls run on a pool of cpu_count() threads and collect on the
    calling thread, at most two calls per thread ahead of it, so only a few
    results are ever pending.  When a call or collect raises (interrupts
    included), the calls not yet started are cancelled, the running ones
    finish, and the exception propagates as raised; no thread outlives the
    function.
    """
    workers = cpu_count()
    items = iter(items)
    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, 2 * workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            collect(result)
    finally:
        pool.shutdown(cancel_futures=True)


def pieces(weights, budget):
    """Runs [a, b) of consecutive items whose weights add up to at most
    `budget`, or that hold one heavier item; runs of weight 0 are left out."""
    start = total = 0
    for i, weight in enumerate(weights.tolist()):
        if total and total + weight > budget:
            yield start, i
            start, total = i, 0
        total += weight
    if total:
        yield start, len(weights)

"""Outside-in span tracer for the sparsemips benchmark.

The tracer never edits the program.  It replaces public names that the
program looks up at call time (module globals such as
``sparsemips.query.evaluate_block``, and ``SparseVector.__post_init__``)
with wrappers that record a span around the original call, and puts the
originals back when the ``installed`` block ends.  If a later version of
the program stops calling a wrapped name, that span simply reads zero and
its time shows up in the self time of the enclosing span.

Spans are kept in memory as parallel arrays (name, start, end, parent,
query id), written out once at the end, and reduced to per-layer figures
with ``self_times``.  Single-threaded use only: one stack of open spans.
"""
from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

NO_PARENT = -1
SETUP_QID = -1


class Tracer:
    """Records (name, start_ns, end_ns, parent, qid) spans in memory."""

    def __init__(self):
        self.names = []
        self._name_idx = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self._stack = []
        self.current_qid = SETUP_QID

    def _intern(self, name):
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx):
        sid = len(self.name)
        self.name.append(name_idx)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.qid.append(self.current_qid)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        sid = self._open(self._intern(name))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, t0, time.perf_counter_ns())

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``before(args, kwargs)`` runs ahead of the span and its return value
        is handed to ``after(token, result)``, which runs after the span has
        closed, so observers add no time to the span itself.
        """
        name_idx = self._intern(name)

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            sid = self._open(name_idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, time.perf_counter_ns())
            if after is not None:
                after(token, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``(owner, attr, name, before, after)`` targets for the block."""
        saved = []
        try:
            for owner, attr, name, before, after in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays; names are indices into ``self.names``."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "qid": np.frombuffer(self.qid, dtype=np.int64).copy(),
        }

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent):
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent's interval and overlapping
    children are merged, so time is never subtracted twice.  Returns int64
    nanoseconds, one per span.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent != NO_PARENT)
    if kids.size == 0:
        return out
    # children grouped by parent, each group in start order
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[kids]
    cs = np.maximum(start[kids], start[p])
    ce = np.minimum(end[kids], end[p])
    covered = np.zeros_like(out)
    current, reach = NO_PARENT, 0
    for pid, s, e in zip(p.tolist(), cs.tolist(), ce.tolist()):
        if pid != current:
            current, reach = pid, s
        s = max(s, reach)
        if e > s:
            covered[pid] += e - s
            reach = e
    return out - covered

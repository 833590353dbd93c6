"""Top-k query processing over a blocked inverted index.

Traversal: sketch the query, walk the inverted lists of its surviving
dimensions, rank blocks by summary score against the full query, skip a
block (and, under descending order, the rest of its list) once the heap is
full and the summary score drops below heap.min()/heap_factor, fully
evaluate visited blocks against the forward index, and optionally expand
the candidate heap one hop through the neighbor graph.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .index import dequantize
from .sketching import ZeroVectorError, alpha_mss
from .vectors import SparseVector


@dataclass(frozen=True)
class SearchParams:
    k: int
    alpha_q: float = 1.0
    heap_factor: float = 1.0
    use_graph: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0 < self.alpha_q <= 1:
            raise ValueError("alpha_q must lie in (0, 1]")
        if not 0 < self.heap_factor <= 1:
            raise ValueError("heap_factor must lie in (0, 1]")


class ResultList:
    """(id, score) pairs, score descending, ties by ascending id."""

    def __init__(self, ids, scores):
        self.ids = np.ascontiguousarray(ids, dtype=np.uint32)
        self.scores = np.ascontiguousarray(scores, dtype=np.float32)

    @classmethod
    def from_heap(cls, heap):
        ordered = sorted(heap, reverse=True)  # (score, -id): desc score, asc id
        return cls([-nid for _, nid in ordered], [s for s, _ in ordered])

    def __len__(self):
        return self.ids.size

    def __iter__(self):
        for doc, score in zip(self.ids.tolist(), self.scores.tolist()):
            yield doc, float(score)

    def pairs(self):
        return list(self)

    def __eq__(self, other):
        if not isinstance(other, ResultList):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.scores, other.scores)


@dataclass
class SearchStats:
    forward_evaluations: int = 0
    blocks_visited: int = 0
    blocks_skipped: int = 0
    docs_visited: int = 0     # distinct docs scored, from the visited bitmap


def _heap_offer(heap, k, score, doc):
    """Keep the best k entries; ties at the boundary favor the smaller id."""
    entry = (score, -doc)
    if len(heap) < k:
        heapq.heappush(heap, entry)
    elif entry > heap[0]:
        heapq.heapreplace(heap, entry)


def _score_docs(docs, forward, q_dense, heap, k):
    """Exactly score each doc in `docs` and offer it to the heap."""
    for doc in docs.tolist():
        dims, vals = forward.row_slice(doc)
        _heap_offer(heap, k, float(vals @ q_dense[dims]), doc)


def evaluate_block(block, forward, q_dense, heap, visited, k, stats=None):
    """Exactly score every unvisited member of a block and update the heap."""
    ids = block.ids[~visited[block.ids]]
    visited[ids] = True
    _score_docs(ids, forward, q_dense, heap, k)
    if stats is not None:
        stats.forward_evaluations += ids.size
    return heap


def expand_with_graph(heap, graph, forward, q_dense, k, visited, stats=None):
    """One-hop expansion: score unvisited neighbors of heap members."""
    if graph is None or graph.kappa == 0:
        return heap
    for doc in [-nid for _, nid in heap]:
        neighbors = graph.neighbors[doc][~visited[graph.neighbors[doc]]]
        visited[neighbors] = True
        _score_docs(neighbors, forward, q_dense, heap, k)
        if stats is not None:
            stats.forward_evaluations += neighbors.size
    return heap


def _summary_scores(index, first, last, q_dense):
    """Summary scores of blocks first[i]:last[i] for each i, concatenated.

    A list's summaries are contiguous, so one slice per list gathers them;
    after dequantizing, one sparse mat-vec sums each summary in dim order.
    """
    ptr = index.summary_ptr
    blocks = np.r_[tuple(map(slice, first.tolist(), last.tolist()))]
    entries = list(map(slice, ptr[first].tolist(), ptr[last].tolist()))
    lengths = ptr[blocks + 1] - ptr[blocks]
    m, delta = np.repeat(index.m[blocks], lengths), np.repeat(index.delta[blocks], lengths)
    values = dequantize(np.concatenate([index.summary_values[s] for s in entries]), m, delta)
    dims = np.concatenate([index.summary_dims[s] for s in entries])
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    return sp.csr_matrix((values, dims, indptr), shape=(blocks.size, index.dim)) @ q_dense


def search(index, graph, q: SparseVector, params: SearchParams, return_stats=False):
    """Approximate top-k by inner product; exact when no pruning layer is on."""
    if q.dims.size == 0:
        raise ZeroVectorError("query must be nonzero")
    if int(q.dims[-1]) >= index.dim:
        raise ValueError(f"query dim {int(q.dims[-1])} is out of range for index dim {index.dim}")
    if params.use_graph and graph is not None and len(graph) != len(index):
        raise ValueError(f"graph has {len(graph)} nodes but the index holds {len(index)} vectors")
    forward = index.forward
    n = len(forward)
    q_dense = q.to_dense(index.dim, dtype=np.float64)
    q_sketch = alpha_mss(q, params.alpha_q)
    # traverse high-value query dimensions first to fill the heap early
    dim_order = q_sketch.dims[np.argsort(-q_sketch.values, kind="stable")]
    first, last = index.list_ptr[dim_order], index.list_ptr[dim_order + 1]
    r_all = _summary_scores(index, first, last, q_dense)

    heap = []
    visited = np.zeros(n, dtype=bool)
    stats = SearchStats()
    for lo, r in zip(first.tolist(), np.split(r_all, np.cumsum(last - first)[:-1])):
        for pos, j in enumerate(np.argsort(-r, kind="stable").tolist()):
            if len(heap) == params.k and r[j] < heap[0][0] / params.heap_factor:
                # remaining blocks in this list have smaller summary scores
                stats.blocks_skipped += r.size - pos
                break
            stats.blocks_visited += 1
            evaluate_block(index.block(lo + j), forward, q_dense, heap, visited, params.k, stats)

    if len(heap) < min(params.k, n):
        # fewer candidates than requested (k near N, or degenerate pruning):
        # fall back to exact evaluation of everything not yet seen
        rest = np.flatnonzero(~visited)
        visited[rest] = True
        _score_docs(rest, forward, q_dense, heap, params.k)
        stats.forward_evaluations += rest.size

    if params.use_graph and graph is not None and graph.kappa > 0:
        expand_with_graph(heap, graph, forward, q_dense, params.k, visited, stats)

    result = ResultList.from_heap(heap)
    if return_stats:
        stats.docs_visited = int(np.count_nonzero(visited))
        return result, stats
    return result

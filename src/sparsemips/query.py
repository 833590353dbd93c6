"""Top-k query processing over a blocked inverted index.

Traversal: sketch the query, score the summary of every block in the
inverted lists of its surviving dimensions, and order those blocks list by
list (lists in query-sketch order, blocks by summary score descending).
The summaries are stored dim-major, so scoring reads only the entries on
the query's dims.  Then score documents exactly against the forward index
in two batches:

- fill: the shortest prefix of that order holding k distinct docs; the
  k-th best of their scores is the threshold t, fixed from here on;
- main: every later block, in any sketched list, whose summary score is at
  least t / heap_factor; the union of its unvisited members is scored at
  once.

A walk that tests one block at a time starts from the same threshold t and
only raises it, so every block it visits clears t / heap_factor too: the
batches score a superset of its docs and never find a worse top k.  The
result is the top k of every scored doc by (score desc, id asc); a query
whose lists hold fewer than k docs falls back to scoring everything, and
graph expansion optionally scores the unvisited neighbors of the top k in
one more batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .index import Block, dequantize
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
    summary_entries: int = 0  # summary entries read to score the blocks


def check_query_dims(dims, dim):
    """Raise ValueError unless every query dim lies below the collection's `dim`."""
    if dims.size and int(dims.max()) >= dim:
        raise ValueError(f"query dim {int(dims.max())} is out of range for dim {dim}")


def top_k(ids, scores, k):
    """The k best (ids, scores) by score descending, ties by ascending id.

    A partition keeps the candidates at or above the k-th best score, ties
    included, so the lexsort orders only those.
    """
    if scores.size > k:
        keep = np.flatnonzero(scores >= np.partition(scores, scores.size - k)[scores.size - k])
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def _ranges(starts, stops):
    """Concatenation of arange(starts[i], stops[i]) over i, without a loop."""
    lengths = stops - starts
    ends = np.cumsum(lengths)
    return np.repeat(stops - ends, lengths) + np.arange(lengths.sum())


def _score_unvisited(ids, forward, q_dense, top, visited, k, stats):
    """Score the distinct `ids` not yet visited; return the best k of them and `top`."""
    ids = ids[~visited[ids]]
    if ids.size == 0:
        return top
    visited[ids] = True
    if stats is not None:
        stats.forward_evaluations += ids.size
    # one row gather and one mat-vec over the float64 CSR that exact_topk
    # scores, so each score is bit-identical to the oracle's
    scores = forward.scipy64()[ids] @ q_dense
    return top_k(np.concatenate((top[0], ids)), np.concatenate((top[1], scores)), k)


def evaluate_block(block, forward, q_dense, top, visited, k, stats=None):
    """Exactly score the unvisited members of a block, or of a batch of blocks.

    `block.ids` are distinct; `top` is the running best k as an (ids, float64
    scores) pair, sorted.  Returns the best k of `top` and the new scores.
    """
    return _score_unvisited(block.ids, forward, q_dense, top, visited, k, stats)


def expand_with_graph(top, graph, forward, q_dense, k, visited, stats=None):
    """One-hop expansion: score the unvisited neighbors of the docs in `top`."""
    if graph is None or graph.kappa == 0:
        return top
    neighbors = np.unique(graph.neighbors[top[0]])
    return _score_unvisited(neighbors, forward, q_dense, top, visited, k, stats)


def _summary_scores(index, first, last, q):
    """Blocks first[i]:last[i] for each i, concatenated, their summary scores
    against the query q, and the number of summary entries read.

    The blocks of a list are a contiguous run of each dim's column, so one
    binary search per query dim finds every entry that can score.  Entries
    arrive dim by dim in ascending order and bincount sums each block's in
    that order from 0.0, which is what a CSR mat-vec over the whole summary
    computes: the products it adds beyond these are +0.0.
    """
    ptr, column = index.summary_ptr, index.summary_blocks
    # uint32 needles: int64 ones make searchsorted copy the column on each call
    bounds = np.concatenate((first, last)).astype(np.uint32)
    starts = ptr[q.dims]
    cuts = np.concatenate([
        np.searchsorted(column[s:e], bounds) for s, e in zip(starts.tolist(), ptr[q.dims + 1].tolist())
    ]).reshape(q.dims.size, 2, first.size) + starts[:, None, None]
    lo, hi = cuts[:, 0].ravel(), cuts[:, 1].ravel()
    hits = _ranges(lo, hi)
    blocks = column[hits].astype(np.int64)
    values = dequantize(index.summary_values[hits], index.m[blocks], index.delta[blocks])
    values *= np.repeat(np.repeat(q.values.astype(np.float64), first.size), hi - lo)
    # a block's position in the concatenation of the lists' ranges
    sizes = last - first
    shift = np.cumsum(sizes) - sizes - first
    positions = blocks + np.repeat(np.tile(shift, q.dims.size), hi - lo)
    scores = np.bincount(positions, weights=values, minlength=sizes.sum())
    return _ranges(first, last), scores, hits.size


def _members(index, blocks):
    """Distinct member ids of `blocks`, ascending."""
    return np.unique(index.member_ids[_ranges(index.block_ptr[blocks], index.block_ptr[blocks + 1])])


def search(index, graph, q: SparseVector, params: SearchParams, return_stats=False):
    """Approximate top-k by inner product; exact when no pruning layer is on."""
    if q.dims.size == 0:
        raise ZeroVectorError("query must be nonzero")
    check_query_dims(q.dims, index.dim)
    if params.use_graph and graph is not None and len(graph) != len(index):
        raise ValueError(f"graph has {len(graph)} nodes but the index holds {len(index)} vectors")
    forward, k = index.forward, params.k
    q_dense = q.to_dense(index.dim, dtype=np.float64)
    q_sketch = alpha_mss(q, params.alpha_q)
    # traverse high-value query dimensions first to fill the top k early
    dim_order = q_sketch.dims[np.argsort(-q_sketch.values, kind="stable")]
    first, last = index.list_ptr[dim_order], index.list_ptr[dim_order + 1]
    blocks, r, entries = _summary_scores(index, first, last, q)
    # lists in sketch order, blocks by summary score descending; lexsort is stable
    order = np.lexsort((-r, np.repeat(np.arange(first.size), last - first)))
    blocks, r = blocks[order], r[order]

    # fill: the fewest leading blocks with k members, extended while their
    # distinct docs fall short of k (a doc can sit in several lists)
    members_upto = np.cumsum(index.block_ptr[blocks + 1] - index.block_ptr[blocks])
    nfill = min(int(np.searchsorted(members_upto, k)) + 1, blocks.size)
    fill = _members(index, blocks[:nfill])
    while fill.size < k and nfill < blocks.size:
        # each further block adds at most its size in new docs
        needed = members_upto[nfill - 1] + k - fill.size
        nfill = min(int(np.searchsorted(members_upto, needed)) + 1, blocks.size)
        fill = _members(index, blocks[:nfill])

    top = (np.empty(0, dtype=np.int64), np.empty(0))
    visited = np.zeros(len(forward), dtype=bool)
    stats = SearchStats(summary_entries=entries)
    top = evaluate_block(Block(fill), forward, q_dense, top, visited, k, stats)
    # main: every later block that clears the threshold the fill fixed
    main = blocks[nfill:]
    if main.size:
        main = main[r[nfill:] >= top[1][-1] / params.heap_factor]
    if main.size:
        top = evaluate_block(Block(_members(index, main)), forward, q_dense, top, visited, k, stats)
    stats.blocks_visited = nfill + main.size
    stats.blocks_skipped = blocks.size - stats.blocks_visited

    if top[0].size < min(k, len(forward)):
        # fewer candidates than requested (k near N, or degenerate pruning):
        # fall back to exact evaluation of everything not yet seen
        top = _score_unvisited(np.flatnonzero(~visited), forward, q_dense, top, visited, k, stats)

    if params.use_graph and graph is not None and graph.kappa > 0:
        top = expand_with_graph(top, graph, forward, q_dense, k, visited, stats)

    result = ResultList(*top)
    return (result, stats) if return_stats else result

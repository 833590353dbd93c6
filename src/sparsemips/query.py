"""Top-k query processing over a blocked inverted index.

Traversal: sketch the query, score the summary of every block in the
inverted lists of its surviving dimensions, and order those blocks list by
list (lists in query-sketch order, blocks by summary score descending).
The summaries are stored dim-major, so scoring reads only the entries on
the query's dims.  Then score documents exactly against the forward index
in two batches:

- fill: the shortest prefix of that order holding k distinct docs; the
  k-th best of their scores is the threshold t, fixed from here on.  Only
  the leading lists whose member counts reach k are sorted to find it;
- main: every other block, in any sketched list, whose summary score is
  at least t / heap_factor; the union of its unvisited members is scored
  at once.

A walk that tests one block at a time starts from the same threshold t and
only raises it, so every block it visits clears t / heap_factor too: the
batches score a superset of its docs and never find a worse top k.  The
result is the top k of every scored doc by (score desc, id asc); a query
whose lists hold fewer than k docs falls back to scoring everything, and
graph expansion optionally scores the unvisited neighbors of the top k in
one more batch.

Each batch is deduplicated against a visited bitmap and scored over the
float64 CSR that exact_topk scores: a small batch by one bincount over its
rows' entries, a large one by scipy's row gather and mat-vec.  Both add a
row's products in CSR order from 0.0, so every score equals the oracle's
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .index import Block, dequantize
# perfbench's tracer wraps sparsemips.query.alpha_mss, so the name stays here
from .sketching import ZeroVectorError, alpha_mss, top_mass_order  # noqa: F401
from .vectors import SparseVector


@dataclass(frozen=True)
class SearchParams:
    k: int
    alpha_q: float = 1.0
    heap_factor: float = 1.0
    use_graph: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", check_k(self.k))
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
    forward_evaluations: int = 0  # docs scored exactly, in every batch
    blocks_visited: int = 0
    blocks_skipped: int = 0
    summary_entries: int = 0  # summary entries read to score the blocks
    dims_kept: int = 0  # sketched query dims whose lists were traversed
    fallback_docs: int = 0  # docs scored by the exhaustive fallback
    graph_docs: int = 0  # docs scored by graph expansion


def check_k(k):
    """k as an int; ValueError unless it is an integer (a bool is not one) of at least 1."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k={k!r} must be an integer")
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    return int(k)


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
        keep = (scores >= np.partition(scores, scores.size - k)[scores.size - k]).nonzero()[0]
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def _ranges(starts, stops):
    """Concatenation of arange(starts[i], stops[i]) over i, as intp, without a loop."""
    starts, stops = starts.astype(np.intp, copy=False), stops.astype(np.intp, copy=False)
    lengths = stops - starts
    entries = (stops - lengths.cumsum()).repeat(lengths)
    entries += np.arange(entries.size)
    return entries


# Batches of at most this many docs are scored by one bincount over the CSR
# arrays, larger ones by scipy's row gather and mat-vec.  On the benchmark's
# own batches (40-nnz rows of a 10k-row CSR; one thread of a 2-core x86-64
# host, numpy 2.4, scipy 1.17) the bincount took ~26 us at 23 docs plus
# ~0.6 us per doc and scipy 80-105 us almost flat, so they crossed at
# ~140-150 docs; limits of 160 and 192 searched no faster than 128.
SMALL_BATCH = 128


def _forward_scores(forward, ids, q_dense):
    """Exact float64 scores of rows `ids` of the forward index against q_dense.

    Both ways sum each row's products in CSR order from 0.0 over the float64
    CSR that exact_topk scores, so each score is bit-identical to the oracle's.
    """
    csr = forward.scipy64()
    if ids.size > SMALL_BATCH:
        return csr[ids] @ q_dense
    starts, stops = csr.indptr[ids], csr.indptr[ids + 1]
    entries = _ranges(starts, stops)
    products = csr.data[entries]
    # take converts scipy's int32 indices far faster than fancy indexing does
    products *= q_dense.take(csr.indices[entries])
    return np.bincount(np.arange(ids.size).repeat(stops - starts), products, ids.size)


def _score_unvisited(ids, forward, q_dense, top, visited, k, stats):
    """Score the distinct `ids` not yet visited; return the best k of them and `top`."""
    ids = ids[~visited[ids]]
    if ids.size == 0:
        return top
    visited[ids] = True
    if stats is not None:
        stats.forward_evaluations += ids.size
    scores = _forward_scores(forward, ids, q_dense)
    return top_k(np.concatenate((top[0], ids)), np.concatenate((top[1], scores)), k)


def _unvisited(ids, visited):
    """The distinct `ids` not yet visited, ascending, as intp."""
    mark = np.zeros(visited.size, dtype=bool)
    mark[ids] = True  # one scatter through `ids`, which may be uint32
    np.greater(mark, visited, out=mark)  # marked and not visited
    return mark.nonzero()[0]


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
    neighbors = _unvisited(graph.neighbors[top[0]], visited)
    if stats is not None:
        stats.graph_docs += neighbors.size
    return _score_unvisited(neighbors, forward, q_dense, top, visited, k, stats)


def _summary_scores(index, first, last, q):
    """Blocks first[i]:last[i] for each of at least one i, concatenated, their
    summary scores against the query q, and the number of summary entries read.

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
    # row i: the entries of query dim i that start, then end, each list's run
    cuts = np.array([column[s:e].searchsorted(bounds) for s, e in zip(starts.tolist(), ptr[q.dims + 1].tolist())])
    cuts += starts[:, None]
    lo, hi = cuts[:, :first.size], cuts[:, first.size:]
    counts = hi - lo
    hits = _ranges(lo.ravel(), hi.ravel())
    blocks = column[hits].astype(np.intp)
    values = dequantize(index.summary_values[hits], index.m[blocks], index.delta[blocks])
    values *= q.values.repeat(counts.sum(axis=1))
    # a block's position in the concatenation of the lists' ranges
    sizes = last - first
    ends = sizes.cumsum()
    blocks += (ends - sizes - first)[None].repeat(q.dims.size, axis=0).repeat(counts.ravel())
    scores = np.bincount(blocks, values, ends[-1])
    return _ranges(first, last), scores, hits.size


def _members(index, blocks, visited):
    """Distinct member ids of `blocks` not yet visited, ascending."""
    members = _ranges(index.block_ptr[blocks], index.block_ptr[blocks + 1])
    return _unvisited(index.member_ids[members], visited)


def search(index, graph, q: SparseVector, params: SearchParams, return_stats=False):
    """Approximate top-k by inner product; exact when no pruning layer is on."""
    if q.dims.size == 0:
        raise ZeroVectorError("query must be nonzero")
    check_query_dims(q.dims, index.dim)
    if params.use_graph and graph is not None and len(graph) != len(index):
        raise ValueError(f"graph has {len(graph)} nodes but the index holds {len(index)} vectors")
    forward, k = index.forward, params.k
    q_dense = q.to_dense(index.dim, dtype=np.float64)
    # the sketch's dims, high values first, to fill the top k early
    dim_order = q.dims[top_mass_order([0, q.dims.size], q.values, params.alpha_q)]
    first, last = index.list_ptr[dim_order], index.list_ptr[dim_order + 1]
    blocks, r, entries = _summary_scores(index, first, last, q)
    visited = np.zeros(len(forward), dtype=bool)

    # fill: the fewest leading blocks, lists in sketch order and blocks by
    # summary score descending, with k members, extended while their
    # distinct docs fall short of k (a doc can sit in several lists).  Only
    # the leading lists whose member counts reach the target are sorted.
    block_ptr, list_blocks = index.block_ptr, last - first
    list_ends = list_blocks.cumsum()
    list_members = (block_ptr[last] - block_ptr[first]).cumsum()
    needed, nfill, fill = k, 0, blocks[:0]
    while fill.size < k and nfill < blocks.size:
        nlists = min(int(list_members.searchsorted(needed)) + 1, first.size)
        head = np.lexsort((-r[:list_ends[nlists - 1]], np.arange(nlists).repeat(list_blocks[:nlists])))
        head_blocks = blocks[head]
        members_upto = (block_ptr[head_blocks + 1] - block_ptr[head_blocks]).cumsum()
        nfill = min(int(members_upto.searchsorted(needed)) + 1, head.size)
        fill = _members(index, blocks[head[:nfill]], visited)
        # each further block adds at most its size in new docs
        needed = members_upto[nfill - 1] + k - fill.size

    top = (np.empty(0, dtype=np.int64), np.empty(0))
    stats = SearchStats(dims_kept=dim_order.size, summary_entries=entries)
    top = evaluate_block(Block(fill), forward, q_dense, top, visited, k, stats)
    # main: every block outside the fill that clears the threshold the fill
    # fixed.  A fill that took every block (none at all when every sketched
    # list is empty) leaves no main and may hold fewer than k docs.
    main = blocks[:0]
    if nfill < blocks.size:
        keep = r >= top[1][-1] / params.heap_factor
        keep[head[:nfill]] = False
        main = blocks[keep]
    if main.size:
        top = evaluate_block(Block(_members(index, main, visited)), forward, q_dense, top, visited, k, stats)
    stats.blocks_visited = nfill + main.size
    stats.blocks_skipped = blocks.size - stats.blocks_visited

    if top[0].size < min(k, len(forward)):
        # fewer candidates than requested (k near N, or degenerate pruning):
        # fall back to exact evaluation of everything not yet seen
        rest = np.flatnonzero(~visited)
        stats.fallback_docs = rest.size
        top = _score_unvisited(rest, forward, q_dense, top, visited, k, stats)

    if params.use_graph and graph is not None and graph.kappa > 0:
        top = expand_with_graph(top, graph, forward, q_dense, k, visited, stats)

    result = ResultList(*top)
    return (result, stats) if return_stats else result

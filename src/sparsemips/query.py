"""Top-k query processing over a blocked inverted index.

Traversal: sketch the query, score the summary of every block in the
inverted lists of its surviving dimensions, and order those blocks list by
list (lists in query-sketch order, blocks by summary score descending).
The summaries are stored dim-major, so scoring reads only the entries on
the query's dims: the index's summary directory, a sorted key d * dim + l
and a run offset per (column d, list l) pair that holds entries (8 bytes
per pair, derived when the index object is made and never saved), finds
every (query dim, sketched list) run with one binary search.  Then score
documents exactly against the forward index in two batches:

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
float64 CSR that exact_topk scores, by the two compiled routines behind
scipy's row indexing and mat-vec (csr_row_index, then csr_matvec), called
directly to skip the ~90 Python calls scipy makes around them.  They add a
row's products in CSR order from 0.0, so every score equals the oracle's
bit for bit.  They check no bounds and take index arrays of one dtype only,
so evaluate_block and expand_with_graph reject an id outside [0, N) before
any scoring, and every index array passed is cast to the CSR's own index
dtype.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .index import Block, dequantize
# perfbench's tracer wraps sparsemips.query.alpha_mss, so the name stays here
from .sketching import ZeroVectorError, alpha_mss, top_mass_order  # noqa: F401
from .vectors import SparseVector, _ranges, as_unsigned, check_fraction, check_int


@dataclass(frozen=True)
class SearchParams:
    k: int
    alpha_q: float = 1.0
    heap_factor: float = 1.0
    use_graph: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", check_k(self.k))
        check_fraction("alpha_q", self.alpha_q)
        check_fraction("heap_factor", self.heap_factor)


class ResultList:
    """(id, score) pairs, score descending, ties by ascending id; ValueError
    unless the ids are u32 integers."""

    def __init__(self, ids, scores):
        self.ids = as_unsigned(ids, np.uint32, "result ids", ValueError)
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
    return check_int("k", k, 1)


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


def _gather_rows(csr, rows):
    """Rows `rows` of a scipy CSR as the arrays (ptr, indices, data) of a
    new CSR, by the compiled routine behind scipy's row indexing.

    It checks no bounds, so every row must lie in range, and `rows` must
    have the CSR's index dtype, which the new ptr and indices share.
    """
    ptr = csr.indptr
    sub_ptr = np.zeros(rows.size + 1, dtype=ptr.dtype)
    (ptr[rows + 1] - ptr[rows]).cumsum(out=sub_ptr[1:])
    sub_indices = np.empty(sub_ptr[-1], dtype=ptr.dtype)
    sub_data = np.empty(sub_ptr[-1])
    _sparsetools.csr_row_index(rows.size, rows, ptr, csr.indices, csr.data, sub_indices, sub_data)
    return sub_ptr, sub_indices, sub_data


def _forward_scores(forward, ids, q_dense):
    """Exact float64 scores of rows `ids` of the forward index against q_dense.

    The two compiled routines behind scipy's row indexing and mat-vec,
    called directly: csr_row_index gathers the rows, and csr_matvec sums
    each row's products in CSR order from 0.0 over the float64 CSR that
    exact_topk scores, so each score is bit-identical to the oracle's.
    Neither checks bounds, so every id must lie in [0, N).  Every index
    array shares the CSR's index dtype: sparsetools would otherwise upcast
    the whole forward index on every call.
    """
    csr = forward.scipy64()
    ids = ids.astype(csr.indptr.dtype, copy=False)
    sub_ptr, sub_indices, sub_data = _gather_rows(csr, ids)
    scores = np.zeros(ids.size)
    _sparsetools.csr_matvec(ids.size, q_dense.size, sub_ptr, sub_indices, sub_data, q_dense, scores)
    return scores


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


def _check_batch(ids, forward, q_dense):
    """Raise ValueError unless q_dense has one entry per dim and the ids are
    integers in [0, N): the compiled kernels read both without bounds checks."""
    if q_dense.shape != (forward.dim,):
        raise ValueError(f"dense query of shape {q_dense.shape} does not match dim {forward.dim}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"doc ids must be integers, not {ids.dtype}")
    n = len(forward)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"doc id {ids[(ids < 0) | (ids >= n)][0]} is out of range for {n} docs")


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
    Raises ValueError, before scoring any, if an id lies outside [0, N).
    """
    _check_batch(block.ids, forward, q_dense)
    return _score_unvisited(block.ids, forward, q_dense, top, visited, k, stats)


def expand_with_graph(top, graph, forward, q_dense, k, visited, stats=None):
    """One-hop expansion: score the unvisited neighbors of the docs in `top`.

    Raises ValueError, as evaluate_block does, before scoring any: for a
    graph whose node count is not the length of `visited` (N in search),
    which its ids index, and for a neighbor outside [0, N), which a
    `visited` longer than N would let through.
    """
    if graph is None or graph.kappa == 0:
        return top
    if len(graph) != visited.size:
        raise ValueError(f"graph has {len(graph)} nodes but visited has {visited.size} entries")
    neighbors = _unvisited(graph.neighbors[top[0]], visited)
    _check_batch(neighbors, forward, q_dense)
    if stats is not None:
        stats.graph_docs += neighbors.size
    return _score_unvisited(neighbors, forward, q_dense, top, visited, k, stats)


def _summary_scores(index, lists, q):
    """The blocks of `lists` (at least one), list by list, their summary
    scores against the query q, and the number of summary entries read.

    The blocks of a list are a contiguous run of each dim's column, and the
    index's summary directory finds every (query dim, list) run with one
    binary search over its keys d * dim + l; a needle not in the keys gets an
    empty run.  Entries arrive dim by dim in ascending order and bincount
    sums each block's in that order from 0.0, which is what a CSR mat-vec
    over the whole summary computes: the products it adds beyond these are
    +0.0.
    """
    first, last = index.list_ptr[lists], index.list_ptr[lists + 1]
    blocks = _ranges(first, last)
    key, runs = index.summary_key, index.summary_runs
    if key.size == 0:  # no summary entries: every list is empty
        return blocks, np.zeros(blocks.size), 0
    # needles in the key's dtype: another makes searchsorted copy the keys
    kd = key.dtype.type
    needles = (q.dims.astype(kd, copy=False)[:, None] * kd(index.dim) + lists.astype(kd, copy=False)).ravel()
    pos = key.searchsorted(needles)
    # row i: the runs of query dim i in each list; a missed needle's is empty
    lo, hi = runs[pos], runs[pos + (key.take(pos, mode="clip") == needles)]
    counts = (hi - lo).astype(np.intp).reshape(q.dims.size, lists.size)
    hits = _ranges(lo, hi)
    owner = index.summary_blocks[hits].astype(np.intp)  # the block of each entry read
    weights = q.values.repeat(counts.sum(axis=1))
    if index.params.quantize:
        values = dequantize(index.summary_values[hits], index.m[owner], index.delta[owner])
        values *= weights
    else:  # m=0 and delta=1: dequantize would return the float64 cast
        values = np.multiply(index.summary_values[hits], weights, dtype=np.float64)
    # a block's position in the concatenation of the lists' ranges
    sizes = last - first
    ends = sizes.cumsum()
    owner += (ends - sizes - first)[None].repeat(q.dims.size, axis=0).repeat(counts.ravel())
    return blocks, np.bincount(owner, values, ends[-1]), hits.size


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
    blocks, r, entries = _summary_scores(index, dim_order, q)
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

    # ids below N fit u32, and a u32 array skips ResultList's range scan
    result = ResultList(top[0].astype(np.uint32), top[1])
    return (result, stats) if return_stats else result

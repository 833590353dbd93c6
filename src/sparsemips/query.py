"""Top-k query processing over a blocked inverted index.

Traversal: sketch the query, score the summary of every block in the
inverted lists of its surviving dimensions, and order those blocks list by
list (lists in query-sketch order, blocks by summary score descending).
The summaries are stored dim-major, so scoring reads only the entries on
the query's dims: the index's summary directory, a sorted key d * dim + l
and a run offset per (column d, list l) pair that holds entries (8 bytes
per pair, derived when the index object is made and never saved), finds
every (query dim, sketched list) run with one binary search over needles
that ascend, the lists sorted for it, and one copy in storage order and one
mat-vec score the entries of those runs.  Then score
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
one more batch, and returns at once when none is left.

The summary runs are copied and summed by two compiled sparsetools
routines: vectors._gather_rows, the package's one csr_row_index call, and
csc_matvec.  Each batch of candidates is copied from the block members by
_gather_rows too (the fill in one copy of every block it sorted, whose row
pointers count the members that pick its prefix), deduplicated by a sort
and a neighbour diff and filtered through the visited bitmap, so only the
bitmap's allocation and the fallback touch memory of size N.  The batch's
rows are then copied from the float64 CSR that exact_topk scores by one
more _gather_rows and scored by csr_matvec, the routine behind scipy's
mat-vec (see _forward_scores).  All are called directly, to skip the ~90
Python calls scipy makes around them.  csr_matvec adds a row's products in
CSR order from 0.0, so every score equals the oracle's bit for bit, for
ids in any order.  The copy holds 12 bytes per entry below 2**31 entries
(int32 index, float64 value); the fallback's, of every unvisited row, is
at most the size of the forward CSR, and is freed once it is scored.

Every batch of candidates is scored by one function, _score, which trusts
its ids to be distinct, unvisited and in [0, N): the routines check no
bounds.  So each input is checked once, where it enters:
evaluate_block and expand_with_graph take the same three steps, for ids
in any order: _check_seam checks the query, the ids' dtype, the visited
bitmap, k and the ids' range before any scoring; _unvisited sorts the
batch, dedupes it and filters it through the bitmap; and _score scores
what is left.  A graph holds the neighbors it checked read-only
(vectors._as_readonly), as an index holds all its arrays (see
index.BlockedIndex).
The routines take index arrays of one signed dtype per call: forward calls
get the CSR's own index dtype, and the index's summary runs and block
members come in the one signed dtype the index keeps them in (see
index.BlockedIndex).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .index import Block, dequantize
# perfbench's tracer wraps sparsemips.query.alpha_mss, so the name stays here
from .sketching import alpha_mss, top_mass_order  # noqa: F401
from .vectors import SparseVector, _gather_rows, as_unsigned, check_fraction, check_int


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
    """(id, score) pairs, score descending, ties by ascending id;
    SparseVectorError unless the ids are u32 integers."""

    def __init__(self, ids, scores):
        self.ids = as_unsigned(ids, np.uint32, "result ids")
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


def _forward_scores(forward, ids, q_dense):
    """Exact float64 scores of rows `ids` of the forward index against
    q_dense, in the order of `ids`, which may be any order.

    The rows are copied from the forward index's own CSR (scipy64(), the
    matrix exact_topk scores) by vectors._gather_rows, as the summary runs
    and the member batches are, and one csr_matvec, the compiled routine
    behind scipy's mat-vec, scores the copy.  It sums each row's products
    in CSR order from 0.0, so every score is bit-identical to the oracle's.
    No bounds are checked, so every id must lie in [0, N).
    """
    csr = forward.scipy64()
    sub_ptr, sub_indices, sub_data, _ = _gather_rows(csr.indptr, csr.indices, csr.data, ids)
    scores = np.zeros(ids.size)
    _sparsetools.csr_matvec(ids.size, q_dense.size, sub_ptr, sub_indices, sub_data, q_dense, scores)
    return scores


def _score(ids, forward, q_dense, top, visited, k, stats):
    """Score `ids`, which are distinct, unvisited and in [0, N), and mark
    them visited; return the best k of them and `top`."""
    if ids.size == 0:
        return top
    ids = ids.astype(np.int64, copy=False)
    visited[ids] = True
    if stats is not None:
        stats.forward_evaluations += ids.size
    scores = _forward_scores(forward, ids, q_dense)
    if top[0].size:
        ids, scores = np.concatenate((top[0], ids)), np.concatenate((top[1], scores))
    return top_k(ids, scores, k)


def _check_seam(ids, forward, q_dense, visited, k):
    """Raise ValueError unless q_dense has one entry per dim, the ids are
    integers, `visited` is a bool array of shape (N,), k is an integer of
    at least 1 and every id lies in [0, N), checked in that order: the
    compiled kernels read q_dense and the ids without bounds checks.  The
    ids are compared with 0 and N through their min and max, and the
    message names the first bad one in batch order.  Returns the ids
    flattened and k as an int."""
    if q_dense.shape != (forward.dim,):
        raise ValueError(f"dense query of shape {q_dense.shape} does not match dim {forward.dim}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"doc ids must be integers, not {ids.dtype}")
    n = len(forward)
    if not (isinstance(visited, np.ndarray) and visited.dtype == bool and visited.shape == (n,)):
        shape, dtype = np.shape(visited), getattr(visited, "dtype", type(visited).__name__)
        raise ValueError(f"visited must be a bool array of shape ({n},), not {dtype} of shape {shape}")
    ids, k = ids.ravel(), check_k(k)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"doc id {ids[(ids < 0) | (ids >= n)][0]} is out of range for {n} docs")
    return ids, k


def _unvisited(ids, visited):
    """The distinct `ids` (of any shape) not yet visited, ascending, as intp:
    a sort, a neighbour diff and one gather from `visited`, nothing of size N."""
    ids = ids.astype(np.intp).ravel()
    ids.sort()
    keep = ~visited[ids]
    np.logical_and(keep[1:], ids[1:] != ids[:-1], out=keep[1:])  # the first of equal ids
    return ids[keep]


def evaluate_block(block, forward, q_dense, top, visited, k, stats=None):
    """Exactly score the unvisited members of a block, or of a batch of blocks.

    `block.ids` may come in any order and shape and repeat: _unvisited
    sorts and dedupes them, so each doc is scored and counted once.  `top`
    is the running best k as an (ids, float64 scores) pair, sorted.  Returns
    the best k of `top` and the new scores, the ids as int64.
    Raises ValueError, before scoring any, if an id lies outside [0, N), if
    `visited` is not a bool array of shape (N,) or if k is not an integer of
    at least 1.
    """
    ids, k = _check_seam(block.ids, forward, q_dense, visited, k)
    return _score(_unvisited(ids, visited), forward, q_dense, top, visited, k, stats)


def expand_with_graph(top, graph, forward, q_dense, k, visited, stats=None):
    """One-hop expansion: score the unvisited neighbors of the docs in `top`.

    Raises ValueError, as evaluate_block does, before scoring any: for an id
    of `top` outside [0, N), which picks the graph rows, for a `visited`
    that is not a bool array of shape (N,), for a k that is not an integer
    of at least 1, and for a graph whose node count is not N, which its ids
    index.  The neighbors themselves are not checked again: the graph
    checked them against its node count and holds them read-only (see
    KnnGraph).  They then go the way of evaluate_block's ids, through
    _unvisited and _score, so once every check has passed and the visited
    filter leaves no neighbor, `top` comes back as it is, with nothing
    scored.
    """
    ids, k = _check_seam(top[0], forward, q_dense, visited, k)
    if graph is None or graph.kappa == 0:
        return top
    if len(graph) != visited.size:
        raise ValueError(f"graph has {len(graph)} nodes but visited has {visited.size} entries")
    neighbors = _unvisited(graph.neighbors[ids], visited)
    if stats is not None:
        stats.graph_docs += neighbors.size
    return _score(neighbors, forward, q_dense, top, visited, k, stats)


def _list_ranges(index, lists):
    """The first and past-the-last block of each of `lists`, their block
    counts and the running total of those counts."""
    first, last = index.list_ptr[lists], index.list_ptr[lists + 1]
    sizes = last - first
    return first, last, sizes, sizes.cumsum()


def _summary_scores(index, lists, q, last, sizes, ends):
    """The blocks of `lists` (at least one), list by list, their summary
    scores against the query q, and the number of summary entries read.
    `last`, `sizes` and `ends` are the lists' ranges from _list_ranges.

    The blocks of a list are a contiguous run of each dim's column, and the
    index's summary directory finds every (query dim, list) run with one
    binary search over its keys d * dim + l; a needle not in the keys has no
    run.  The lists are sorted first, so the needles ascend: the search
    sweeps the keys in order and _gather_rows copies the runs found in
    storage order, with the directory's run offsets as row pointers, and
    counts each run's entries for the shift below.  One
    nonzero of the found mask gives each found pair's flat position, whose
    quotient and remainder by the list count pick its query weight and the
    shift that moves its blocks to their position among the lists' blocks,
    which keep the caller's list order.  csc_matvec, one run per column
    weighted by its query value, sums each entry there.  A block belongs to
    one list, so its runs still arrive dim by dim in ascending order and its
    sum starts from 0.0, which is what a CSR mat-vec over the whole summary
    computes: the products it adds beyond these are +0.0.
    """
    # block b of list i sits at position b - back[i] among the lists' blocks
    back = last - ends
    blocks = back.repeat(sizes)
    blocks += np.arange(blocks.size)
    key = index.summary_key
    if key.size == 0:  # no summary entries: every list is empty
        return blocks, np.zeros(blocks.size), 0
    order = lists.argsort()
    # needles in the key's dtype: another makes searchsorted copy the keys
    kd = key.dtype.type
    needles = (q.dims.astype(kd, copy=False)[:, None] * kd(index.dim) + lists[order].astype(kd, copy=False)).ravel()
    pos = key.searchsorted(needles)
    found = (key.take(pos, mode="clip") == needles).nonzero()[0]
    pairs = pos[found]  # the runs in storage order
    dim_at, list_at = np.divmod(found, lists.size)
    ptr = index.summary_runs
    sub_ptr, sub_blocks, sub_values, counts = _gather_rows(ptr, index.summary_blocks, index.summary_values, pairs)
    if index.params.quantize:
        owner = sub_blocks.astype(np.intp)  # the block of each entry read
        values = dequantize(sub_values, index.m[owner], index.delta[owner])
    else:  # m=0 and delta=1: dequantize would return the float64 cast
        values = sub_values.astype(np.float64)
    sub_blocks -= back[order].astype(ptr.dtype)[list_at].repeat(counts)
    weights = q.values[dim_at].astype(np.float64)
    scores = np.zeros(ends[-1])
    _sparsetools.csc_matvec(ends[-1], pairs.size, sub_ptr, sub_blocks, values, weights, scores)
    return blocks, scores, sub_blocks.size


def search(index, graph, q: SparseVector, params: SearchParams, return_stats=False):
    """Approximate top-k by inner product; exact when no pruning layer is on."""
    check_query_dims(q.dims, index.dim)
    if params.use_graph and graph is not None and len(graph) != len(index):
        raise ValueError(f"graph has {len(graph)} nodes but the index holds {len(index)} vectors")
    forward, k = index.forward, params.k
    q_dense = q.to_dense(index.dim)
    # the sketch's dims, high values first, to fill the top k early
    dim_order = q.dims[top_mass_order([0, q.dims.size], q.values, params.alpha_q)]
    first, last, list_blocks, list_ends = _list_ranges(index, dim_order)
    blocks, r, entries = _summary_scores(index, dim_order, q, last, list_blocks, list_ends)
    visited = np.zeros(len(forward), dtype=bool)

    # fill: the fewest leading blocks, lists in sketch order and blocks by
    # summary score descending, with k members, extended while their
    # distinct docs fall short of k (a doc can sit in several lists).  Only
    # the leading lists whose member counts reach the target are sorted.
    # A target past the lists' member total moves no searchsorted position,
    # so it is capped there, as a Python int: k may exceed every int64.
    block_ptr = index.block_ptr
    list_members = (block_ptr[last] - block_ptr[first]).cumsum()
    cap = int(list_members[-1]) + 1
    needed, nfill, fill = min(k, cap), 0, blocks[:0]
    while fill.size < k and nfill < blocks.size:
        nlists = min(int(list_members.searchsorted(needed)) + 1, first.size)
        head = np.lexsort((-r[:list_ends[nlists - 1]], np.arange(nlists).repeat(list_blocks[:nlists])))
        # the head blocks' members, in head order: members_upto[i] counts those of its first i blocks
        members_upto, members, _, _ = _gather_rows(block_ptr, index.member_ids, index.member_ids, blocks[head])
        nfill = min(int(members_upto[1:].searchsorted(needed)) + 1, head.size)
        taken = int(members_upto[nfill])  # the fill blocks' member count
        fill = _unvisited(members[:taken], visited)
        # each further block adds at most its size in new docs
        needed = min(taken + k - fill.size, cap)

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
        members = _gather_rows(block_ptr, index.member_ids, index.member_ids, main)[1]
        top = evaluate_block(Block(_unvisited(members, visited)), forward, q_dense, top, visited, k, stats)
    stats.blocks_visited = nfill + main.size
    stats.blocks_skipped = blocks.size - stats.blocks_visited

    if top[0].size < min(k, len(forward)):
        # fewer candidates than requested (k near N, or degenerate pruning):
        # fall back to exact evaluation of everything not yet seen
        rest = np.flatnonzero(~visited)
        stats.fallback_docs = rest.size
        top = _score(rest, forward, q_dense, top, visited, k, stats)

    if params.use_graph:
        top = expand_with_graph(top, graph, forward, q_dense, k, visited, stats)

    # ids below N fit u32, and a u32 array skips ResultList's range scan
    result = ResultList(top[0].astype(np.uint32), top[1])
    return (result, stats) if return_stats else result

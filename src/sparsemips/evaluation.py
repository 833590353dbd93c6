"""Exact oracle, retrieval metrics, dataset statistics, and benchmarking."""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import parallel
from .query import ResultList, SearchParams, check_k, check_query_dims, search, top_k
from .sketching import largest_first, top_mass
from .vectors import SparseVector, VectorSet, _transpose, check_fraction, check_int

# a piece of ground_truth is a run of consecutive queries whose scores against
# every doc hold at most this many float64 entries (1 MB), or one query
PIECE_ENTRIES = 2**17


def _csr64(vset: VectorSet, width: int):
    """vset's own float64 CSR arrays, shared, viewed at `width` columns."""
    mat = vset.scipy64()
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=(len(vset), width))


def _row_sums(mat):
    return np.asarray(mat.sum(axis=1)).ravel()


def exact_topk(vset: VectorSet, q: SparseVector, k: int) -> ResultList:
    """Exhaustive scoring, sorted by (score desc, id asc), truncated to k."""
    if len(vset) == 0:
        raise ValueError("cannot search an empty collection")
    k = check_k(k)
    check_query_dims(q.dims, vset.dim)
    scores = vset.scipy64() @ q.to_dense(vset.dim)
    return ResultList(*top_k(np.arange(len(vset), dtype=np.uint32), scores, k))


def _reversed_columns(vset: VectorSet):
    """The collection's float64 CSC with its columns stored last first, as
    (ends, docs, values): the entries of column d are ends[d+1]:ends[d],
    docs ascending.  One vectors._transpose of the set's own arrays with
    its dims numbered backwards; ends views the new pointers backwards."""
    ptr, docs, values = _transpose(vset.indptr, (vset.dim - 1) - vset.indices, vset.values, vset.dim)
    return ptr[::-1], docs, values


def _score_rows(cols, ptr, dims, values, out):
    """Each query's float64 scores against every doc, into the rows of the
    zeroed (queries, N) block `out`: the queries are the CSR (ptr, dims,
    float64 values), and `cols` is _reversed_columns of the collection.

    One csc_matvec per query reads the columns in place.  Its pointers
    interleave each dim's start and end, so it walks the query's dims
    ascending; each column between two of them is empty, since a later dim
    ends before an earlier one starts.  So each doc's products are added in
    the order of exact_topk's mat-vec, whose other terms are all +0.0, and
    every score equals the oracle's bit for bit.  The dims must lie below
    the collection's dim.
    """
    ends, docs, data = cols
    bounds = np.empty(2 * dims.size, dtype=ends.dtype)
    bounds[0::2], bounds[1::2] = ends[dims + 1], ends[dims]
    weights = np.zeros(2 * dims.size)
    weights[0::2] = values
    for row, s, e in zip(out, ptr[:-1].tolist(), ptr[1:].tolist()):
        if e > s:  # an empty query scores 0 with every doc
            _sparsetools.csc_matvec(row.size, 2 * (e - s) - 1, bounds[2 * s:2 * e], docs, data,
                                    weights[2 * s:2 * e], row)


def top_k_rows(scores, k):
    """top_k of each row of the (rows, N) block `scores`, the ids being
    column positions: (ids, scores), each (rows, k), 0 < k <= N.

    One partition finds every row's k-th best score, and one lexsort by
    (row, score descending) orders the entries at or above it, ties
    included, so each row's run starts with its best k.  flatnonzero lists
    the entries in id order, and lexsort is stable, so ties stay in it.
    """
    rows, n = scores.shape
    kth = np.partition(scores, n - k, axis=1)[:, n - k]
    at = np.flatnonzero(scores >= kth[:, None])
    row, ids = np.divmod(at, n)
    best = scores.ravel()[at]
    order = np.lexsort((-best, row))
    # row r's run starts after the entries of the rows before it
    starts = np.concatenate(([0], np.bincount(row, minlength=rows).cumsum()[:-1]))
    order = order[(starts[:, None] + np.arange(k)).ravel()]
    return ids[order].reshape(rows, k), best[order].reshape(rows, k)


def ground_truth(vset: VectorSet, queries: VectorSet, k: int):
    """exact_topk of every query, bit for bit, as (ids, scores): uint32 and
    float32 (nq, k) arrays, scored one query term at a time.

    Each call builds the collection's float64 CSC with its columns last
    first (_reversed_columns), which is dropped on return; the queries' own
    CSR arrays are scored against its columns in place, and no column is
    copied.  Pieces of max(1, PIECE_ENTRIES // N) consecutive queries run
    on the thread pool: each is scored into one block of at most
    PIECE_ENTRIES float64 scores, or one N-length row, by _score_rows, and
    picked by top_k_rows.
    """
    k = check_k(k)
    if k > len(vset):
        raise ValueError(f"k={k} must lie between 1 and the collection size {len(vset)}")
    check_query_dims(queries.indices, vset.dim)
    cols = _reversed_columns(vset)
    ids = np.empty((len(queries), k), dtype=np.uint32)
    scores = np.empty((len(queries), k), dtype=np.float32)
    step = max(1, PIECE_ENTRIES // len(vset))

    def best(a):
        b = min(a + step, len(queries))
        s, e = queries.indptr[a], queries.indptr[b]
        block = np.zeros((b - a, len(vset)))
        _score_rows(cols, queries.indptr[a:b + 1] - s, queries.indices[s:e], queries.values[s:e], block)
        return a, b, top_k_rows(block, k)

    def collect(found):
        a, b, (piece_ids, piece_scores) = found
        ids[a:b], scores[a:b] = piece_ids, piece_scores

    parallel.in_order(best, range(0, len(queries), step), collect)
    return ids, scores


def accuracy_at_k(truth_ids, run_ids, k) -> float:
    """|true top-k  intersect  returned top-k| / k by id sets."""
    k = check_k(k)
    truth_ids = np.asarray(truth_ids)
    if truth_ids.size < k:
        raise ValueError(f"ground truth depth {truth_ids.size} is less than k={k}")
    truth = set(int(i) for i in truth_ids[:k])
    run = set(int(i) for i in np.asarray(run_ids)[:k])
    return len(truth & run) / k


def mean_accuracy(truth_ids, runs, k) -> float:
    """truth_ids: (nq, depth) true top ids per query; runs: per query, a
    sequence of (id, score) pairs."""
    k = check_k(k)
    if len(runs) > len(truth_ids):
        raise ValueError(f"run holds query {len(runs) - 1}, but the ground truth has {len(truth_ids)} queries")
    accs = [
        accuracy_at_k(truth_ids[qi], [doc for doc, _ in run[:k]], k)
        for qi, run in enumerate(runs)
    ]
    return float(np.mean(accs)) if accs else 0.0


def mass_curve(vset: VectorSet, max_keep: int):
    """Mean fraction of l1 mass kept by the top-j entries, for j = 1..max_keep."""
    if len(vset) == 0:
        raise ValueError("empty collection")
    max_keep = check_int("max_keep", max_keep, 0)
    lengths = vset.nnz_per_row()
    counted = np.count_nonzero(lengths)
    if counted == 0:
        raise ValueError("collection holds only empty vectors")
    rows = np.repeat(np.arange(len(vset)), lengths)
    values = vset.values[largest_first(vset.indptr, vset.values)]
    shares = values / np.bincount(rows, weights=values)[rows]
    rank = np.arange(values.size) - np.repeat(vset.indptr[:-1], lengths)
    # a row shorter than j already counts all of its mass at j
    fractions = np.cumsum(np.bincount(rank, weights=shares, minlength=max_keep)[:max_keep]) / counted
    return [(j + 1, fractions[j]) for j in range(max_keep)]


def ip_preservation(vset, queries, alpha_doc, alpha_query, sample, seed=0):
    """Mean fraction of inner product kept by top-mass sketching both sides.

    Samples (query, doc) pairs, keeps those with a positive true product, and
    reports mean of sketched/true with a 95% normal-approximation CI.  Each
    side is sketched with one top_mass call, which holds a float64 array of
    (kept pairs x longest kept row) entries.
    """
    if len(queries) == 0:
        raise ValueError("cannot sample pairs from an empty query set")
    if len(vset) == 0:
        raise ValueError("cannot sample pairs from an empty collection")
    sample = check_int("sample", sample, 1)
    check_fraction("alpha_doc", alpha_doc)
    check_fraction("alpha_query", alpha_query)
    rng = np.random.default_rng(seed)
    qs = rng.integers(0, len(queries), size=sample)
    ds = rng.integers(0, len(vset), size=sample)
    width = max(vset.dim, queries.dim)
    q_rows, d_rows = _csr64(queries, width)[qs], _csr64(vset, width)[ds]
    true = _row_sums(q_rows.multiply(d_rows))
    kept = true > 0  # an empty row has no positive product
    if not kept.any():
        raise ValueError("no sampled pair has a positive inner product")
    # row gathers are copies: zeroing the dropped entries leaves the sets alone
    q_rows, d_rows, true = q_rows[kept], d_rows[kept], true[kept]
    q_rows.data[~top_mass(q_rows.indptr, q_rows.data, alpha_query)] = 0
    d_rows.data[~top_mass(d_rows.indptr, d_rows.data, alpha_doc)] = 0
    arr = _row_sums(q_rows.multiply(d_rows)) / true
    mean = float(arr.mean())
    half = float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, half, arr.size


def norm_ratio_cdf(vset, queries, k_far):
    """CDF of ||v_I||1 / ||u_I||1: u nearest, v the k_far-th nearest, I = query support."""
    check_query_dims(queries.indices, vset.dim)
    k_far = check_int("k_far", k_far, 1)
    if k_far > len(vset):
        return []
    ids, _ = ground_truth(vset, queries, k_far)
    support = _csr64(queries, vset.dim).astype(bool)
    mat = vset.scipy64()
    near = _row_sums(mat[ids[:, 0]].multiply(support))
    far = _row_sums(mat[ids[:, -1]].multiply(support))
    ratios = np.sort(far[near > 0] / near[near > 0])  # an empty query has no near mass
    return [(float(r), (i + 1) / ratios.size) for i, r in enumerate(ratios)]


def bench(index, graph, queries, params: SearchParams, repetitions=3):
    """Single-worker wall time around the search call, best of `repetitions`:
    one float64 entry in µs per nonempty query."""
    repetitions = check_int("repetitions", repetitions, 1)
    times = []
    for q in queries:
        if q.dims.size == 0:
            continue
        best = np.inf
        for _ in range(repetitions):
            t0 = time.perf_counter_ns()
            search(index, graph, q, params)
            best = min(best, time.perf_counter_ns() - t0)
        times.append(best / 1000.0)
    return np.asarray(times, dtype=np.float64)

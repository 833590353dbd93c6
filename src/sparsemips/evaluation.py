"""Exact oracle, retrieval metrics, dataset statistics, and benchmarking."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .query import ResultList, SearchParams, check_k, check_query_dims, search, top_k
from .sketching import top_mass
from .vectors import SparseVector, VectorSet


@dataclass(frozen=True)
class GroundTruth:
    k: int
    ids: np.ndarray      # (nq, k) uint32
    scores: np.ndarray   # (nq, k) float32

    @property
    def num_queries(self):
        return self.ids.shape[0]


def _csr64(vset: VectorSet, width: int):
    """vset's cached float64 CSR arrays, shared, viewed at `width` columns."""
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
    return ResultList(*top_k(np.arange(len(vset)), scores, k))


def ground_truth(vset: VectorSet, queries: VectorSet, k: int) -> GroundTruth:
    """exact_topk of every query, bit for bit, scored a dense block of queries at a time.

    A dense right operand sums each score in the order of exact_topk's mat-vec.
    """
    k = check_k(k)
    if k > len(vset):
        raise ValueError(f"k={k} must lie between 1 and the collection size {len(vset)}")
    check_query_dims(queries.indices, vset.dim)
    mat, qmat, all_ids = vset.scipy64(), _csr64(queries, vset.dim), np.arange(len(vset))
    ids = np.empty((len(queries), k), dtype=np.uint32)
    scores = np.empty((len(queries), k), dtype=np.float32)
    # dense blocks of at most 2**20 entries: each query's scores are a strided column
    chunk = max(1, 2**20 // max(len(vset), vset.dim))
    for start in range(0, len(queries), chunk):
        block = (mat @ qmat[start:start + chunk].T.toarray()).T
        for r, row in enumerate(block, start):
            ids[r], scores[r] = top_k(all_ids, row, k)
    return GroundTruth(k=k, ids=ids, scores=scores)


def accuracy_at_k(truth_ids, run_ids, k) -> float:
    """|true top-k  intersect  returned top-k| / k by id sets."""
    k = check_k(k)
    truth_ids = np.asarray(truth_ids)
    if truth_ids.size < k:
        raise ValueError(f"ground truth depth {truth_ids.size} is less than k={k}")
    truth = set(int(i) for i in truth_ids[:k])
    run = set(int(i) for i in np.asarray(run_ids)[:k])
    return len(truth & run) / k


def mean_accuracy(gt: GroundTruth, runs, k) -> float:
    """runs: per query, a sequence of (id, score) pairs."""
    k = check_k(k)
    if len(runs) > gt.num_queries:
        raise ValueError(f"run holds query {len(runs) - 1}, but the ground truth has {gt.num_queries} queries")
    accs = [
        accuracy_at_k(gt.ids[qi], [doc for doc, _ in run[:k]], k)
        for qi, run in enumerate(runs)
    ]
    return float(np.mean(accs)) if accs else 0.0


def mass_curve(vset: VectorSet, max_keep: int):
    """Mean fraction of l1 mass kept by the top-j entries, for j = 1..max_keep."""
    if len(vset) == 0:
        raise ValueError("empty collection")
    if max_keep < 0:
        raise ValueError(f"max_keep={max_keep} must be at least 0")
    lengths = vset.nnz_per_row()
    counted = np.count_nonzero(lengths)
    if counted == 0:
        raise ValueError("collection holds only empty vectors")
    rows = np.repeat(np.arange(len(vset)), lengths)
    values = vset.values.astype(np.float64)
    # within each row, values descending; rows stay in order
    values = values[np.lexsort((-values, rows))]
    shares = values / np.bincount(rows, weights=values)[rows]
    rank = np.arange(values.size) - np.repeat(vset.indptr[:-1].astype(np.int64), lengths)
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
    if sample < 1:
        raise ValueError(f"sample={sample} must be at least 1")
    for name, alpha in (("alpha_doc", alpha_doc), ("alpha_query", alpha_query)):
        if not 0 < alpha <= 1:
            raise ValueError(f"{name}={alpha} must lie in (0, 1]")
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
    if k_far < 1:
        raise ValueError(f"k_far={k_far} must be at least 1")
    if k_far > len(vset):
        return []
    gt = ground_truth(vset, queries, k_far)
    support = _csr64(queries, vset.dim).astype(bool)
    mat = vset.scipy64()
    near = _row_sums(mat[gt.ids[:, 0]].multiply(support))
    far = _row_sums(mat[gt.ids[:, -1]].multiply(support))
    ratios = np.sort(far[near > 0] / near[near > 0])  # an empty query has no near mass
    return [(float(r), (i + 1) / ratios.size) for i, r in enumerate(ratios)]


@dataclass(frozen=True)
class BenchReport:
    per_query_us: np.ndarray
    repetitions: int

    @property
    def mean_us(self):
        return float(np.mean(self.per_query_us)) if self.per_query_us.size else 0.0

    @property
    def median_us(self):
        return float(np.median(self.per_query_us)) if self.per_query_us.size else 0.0

    @property
    def p95_us(self):
        return float(np.percentile(self.per_query_us, 95)) if self.per_query_us.size else 0.0


def bench(index, graph, queries, params: SearchParams, repetitions=3) -> BenchReport:
    """Single-worker wall time around the search call, best of `repetitions`."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
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
    return BenchReport(per_query_us=np.asarray(times), repetitions=repetitions)

import heapq

import numpy as np
import pytest
import scipy.sparse as sp

from sparsemips import (
    BuildParams,
    ResultList,
    SearchParams,
    SparseVector,
    VectorSet,
    ZeroVectorError,
    build_exact_graph,
    build_index,
    dequantize,
    exact_topk,
    search,
)
from sparsemips.query import _summary_scores, evaluate_block, top_k
from sparsemips.sketching import alpha_mss
from sparsemips.synth import random_collection, random_vector

from conftest import summaries_by_block, summary_of


def exact_build(vset):
    return build_index(vset, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))


EXACT_SEARCH = SearchParams(k=10, alpha_q=1.0, heap_factor=1.0)


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(k=0)
        with pytest.raises(ValueError):
            SearchParams(k=5, alpha_q=0.0)
        with pytest.raises(ValueError):
            SearchParams(k=5, heap_factor=1.5)


class TestTopK:
    def test_ordering_with_ties(self):
        ids, scores = top_k(np.array([3, 1, 7, 0]), np.array([0.5, 0.5, 0.9, 0.2]), 4)
        res = ResultList(ids, scores)
        assert res.ids.tolist() == [7, 1, 3, 0]
        assert res.scores.tolist() == pytest.approx([0.9, 0.5, 0.5, 0.2])

    def test_boundary_tie_prefers_smaller_id(self):
        ids, scores = top_k(np.array([5, 2, 9]), np.array([0.5, 0.5, 0.5]), 2)
        assert ResultList(ids, scores).ids.tolist() == [2, 5]


def empty_top():
    return np.empty(0, dtype=np.int64), np.empty(0)


class TestEvaluateBlock:
    def test_scores_members_exactly_once(self, small_set):
        index = exact_build(small_set)
        rng = np.random.default_rng(23)
        q = random_vector(rng, small_set.dim, 10)
        q_dense = q.to_dense(small_set.dim)
        block = index.block(index.list_ptr[q.dims[0]])
        visited = np.zeros(len(small_set), dtype=bool)
        top = evaluate_block(block, small_set, q_dense, empty_top(), visited, k=50)
        assert np.all(visited[block.ids])
        scores = dict(zip(top[0].tolist(), top[1].tolist()))
        for j in block.ids.tolist():
            v = small_set.vector(j)
            assert scores[j] == pytest.approx(float(v.values.astype(np.float64) @ q_dense[v.dims]))
        # a second pass adds nothing: members are already visited
        before = len(top[0])
        top = evaluate_block(block, small_set, q_dense, top, visited, k=50)
        assert len(top[0]) == before


class TestExactModeEquivalence:
    def test_matches_oracle_including_tie_order(self, medium_set):
        index = exact_build(medium_set)
        rng = np.random.default_rng(24)
        for _ in range(15):
            q = random_vector(rng, medium_set.dim, 12)
            assert search(index, None, q, EXACT_SEARCH) == exact_topk(medium_set, q, 10)

    def test_matches_oracle_on_tie_heavy_data(self):
        # quantized values manufacture many exact score ties
        rng = np.random.default_rng(25)
        vectors = []
        for _ in range(150):
            dims = np.sort(rng.choice(20, size=4, replace=False)).astype(np.uint32)
            values = rng.choice([0.25, 0.5], size=4).astype(np.float32)
            vectors.append(SparseVector(dims, values))
        vset = VectorSet.from_vectors(20, vectors)
        index = exact_build(vset)
        for _ in range(15):
            q = random_vector(rng, 20, 5)
            assert search(index, None, q, EXACT_SEARCH) == exact_topk(vset, q, 10)

    def test_matches_oracle_below_the_mass_tolerance(self):
        # gamma=1 and alpha_q=1 keep every entry, even one under 1e-6 of a
        # summary's l1 mass, so each summary still bounds its members
        def vector(entries):
            return SparseVector(np.array(list(entries)), np.array(list(entries.values())))

        tiny = [vector({1: 1e-6, 5: 1.0}), vector({1: 1e-9, 6: 10.0}), vector({1: 5e-7})]
        q = vector({1: 1.0})
        for seed in range(60):
            rng = np.random.default_rng(seed)
            vset = VectorSet.from_vectors(10, tiny + [random_vector(rng, 10, 3) for _ in range(3)])
            index = build_index(vset, BuildParams(alpha=1.0, beta=0.5, gamma=1.0, quantize=False, seed=seed))
            params = SearchParams(k=1, alpha_q=1.0, heap_factor=1.0)
            assert search(index, None, q, params) == exact_topk(vset, q, 1), seed

    def test_k_at_least_collection_size_returns_everything(self):
        vset = random_collection(12, 15, 4, seed=26)
        index = exact_build(vset)
        rng = np.random.default_rng(27)
        q = random_vector(rng, 15, 5)
        res = search(index, None, q, SearchParams(k=30))
        assert len(res) == 12
        assert res == exact_topk(vset, q, 30)


class TestPruning:
    def test_zero_query_rejected(self, small_set):
        index = exact_build(small_set)
        empty = SparseVector(np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float32))
        with pytest.raises(ZeroVectorError):
            search(index, None, empty, EXACT_SEARCH)

    def test_query_dim_out_of_range_rejected(self, small_set):
        index = exact_build(small_set)
        q = SparseVector(np.array([3, 60]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="60.*50"):
            search(index, None, q, EXACT_SEARCH)

    def test_graph_of_another_collection_rejected(self, small_set):
        index = exact_build(small_set)
        graph = build_exact_graph(random_collection(150, small_set.dim, 8, seed=5), 4)
        q = random_vector(np.random.default_rng(33), small_set.dim, 6)
        with pytest.raises(ValueError, match="150"):
            search(index, graph, q, SearchParams(k=10, use_graph=True))

    def test_deterministic(self, medium_set):
        index = build_index(medium_set, BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=2))
        rng = np.random.default_rng(28)
        params = SearchParams(k=10, alpha_q=0.8, heap_factor=0.9)
        for _ in range(5):
            q = random_vector(rng, medium_set.dim, 12)
            assert search(index, None, q, params) == search(index, None, q, params)

    def test_stats_are_consistent(self, medium_set):
        index = build_index(medium_set, BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=2))
        rng = np.random.default_rng(29)
        q = random_vector(rng, medium_set.dim, 12)
        _, stats = search(index, None, q, SearchParams(k=10, alpha_q=0.8, heap_factor=0.9), return_stats=True)
        assert stats.blocks_visited > 0

    def test_smaller_heap_factor_prunes_at_least_as_hard(self, medium_set):
        index = build_index(medium_set, BuildParams(alpha=0.6, beta=0.2, gamma=0.8, seed=2))
        rng = np.random.default_rng(30)
        for _ in range(10):
            q = random_vector(rng, medium_set.dim, 12)
            evals = []
            for hf in (0.7, 1.0):
                _, stats = search(index, None, q, SearchParams(k=10, alpha_q=1.0, heap_factor=hf), return_stats=True)
                evals.append(stats.forward_evaluations)
            assert evals[0] <= evals[1]


def block_major_summary_scores(index, first, last, q_dense):
    """Reference: blocks first[i]:last[i] for each i, concatenated, scored as
    one block-major summary CSR, dequantized, times the dense query."""
    ptr, dims, positions = summaries_by_block(index)
    blocks = np.concatenate([np.arange(f, e) for f, e in zip(first.tolist(), last.tolist())])
    entries = list(map(slice, ptr[first].tolist(), ptr[last].tolist()))
    lengths = ptr[blocks + 1] - ptr[blocks]
    m, delta = np.repeat(index.m[blocks], lengths), np.repeat(index.delta[blocks], lengths)
    codes = index.summary_values[positions]
    values = dequantize(np.concatenate([codes[s] for s in entries]), m, delta)
    cols = np.concatenate([dims[s] for s in entries])
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    return blocks, sp.csr_matrix((values, cols, indptr), shape=(blocks.size, index.dim)) @ q_dense


class TestSummaryScores:
    @pytest.fixture(scope="class", params=[True, False], ids=["quantized", "float32"])
    def index(self, request):
        # dims 40..47 hold a few docs each, so beta=0.05 makes their lists one
        # block; dims 48..55 hold no entry at all
        common = list(random_collection(400, 40, 10, seed=21))
        rare = [SparseVector(v.dims + 40, v.values) for v in random_collection(12, 8, 2, seed=24)]
        vset = VectorSet.from_vectors(56, common + rare)
        gamma = 0.7 if request.param else 1.0
        return build_index(vset, BuildParams(alpha=0.6, beta=0.05, gamma=gamma, quantize=request.param, seed=4))

    def test_equal_to_the_block_major_mat_vec_bit_for_bit(self, index):
        sizes = np.diff(index.list_ptr)
        assert (sizes == 1).any() and (sizes > 1).any()
        # lists meet in the columns: some column holds blocks of several lists
        list_of = np.repeat(np.arange(index.dim), sizes)[index.summary_blocks]
        column = np.repeat(np.arange(index.dim), np.diff(index.summary_ptr))
        assert any(np.unique(list_of[column == d]).size > 1 for d in range(index.dim))
        rng = np.random.default_rng(22)
        every = np.arange(index.dim)
        for trial in range(30):
            q = random_vector(rng, index.dim, 12)
            if trial % 2:  # a query dim in no summary
                dims = np.union1d(q.dims[1:], [50]).astype(np.uint32)
                q = SparseVector(dims, rng.uniform(0.1, 1.0, dims.size))
            q_dense = q.to_dense(index.dim, dtype=np.float64)
            # every block at once (each list once), then the query's own lists out of order
            for lists in (every, rng.permutation(q.dims)):
                first, last = index.list_ptr[lists], index.list_ptr[lists + 1]
                blocks, scores, entries = _summary_scores(index, first, last, q)
                want_blocks, want = block_major_summary_scores(index, first, last, q_dense)
                assert np.array_equal(blocks, want_blocks)
                assert scores.dtype == np.float64
                assert np.array_equal(scores.view(np.uint64), want.view(np.uint64))
                in_lists = np.isin(index.summary_blocks, blocks)
                on_query = np.repeat(np.isin(every, q.dims), np.diff(index.summary_ptr))
                assert entries == np.count_nonzero(in_lists & on_query)

    def test_search_reports_the_entries_read(self, index):
        rng = np.random.default_rng(23)
        params = SearchParams(k=5, alpha_q=0.7, heap_factor=0.9)
        for _ in range(5):
            q = random_vector(rng, index.dim, 12)
            _, stats = search(index, None, q, params, return_stats=True)
            kept = alpha_mss(q, params.alpha_q).dims
            _, _, entries = _summary_scores(index, index.list_ptr[kept], index.list_ptr[kept + 1], q)
            assert stats.summary_entries == entries > 0
            assert stats.summary_entries < index.summary_blocks.size


def per_block_reference(index, q, params):
    """The per-block walk with a dynamic threshold: lists in query-sketch order,
    blocks by summary score descending, each visited doc offered to a heap;
    the rest of a list is skipped once a block's summary score falls below the
    heap's minimum / heap_factor.  Returns (sorted top-k scores, docs scored)."""
    q_dense = q.to_dense(index.dim)
    q_sketch = alpha_mss(q, params.alpha_q)
    heap, visited = [], np.zeros(len(index), dtype=bool)
    for d in q_sketch.dims[np.argsort(-q_sketch.values, kind="stable")].tolist():
        lo, hi = int(index.list_ptr[d]), int(index.list_ptr[d + 1])
        r = [float(vals @ q_dense[dims]) for dims, vals in (summary_of(index, b) for b in range(lo, hi))]
        for j in np.argsort(-np.asarray(r), kind="stable").tolist():
            if len(heap) == params.k and r[j] < heap[0][0] / params.heap_factor:
                break
            for doc in index.block(lo + j).ids.tolist():
                if not visited[doc]:
                    visited[doc] = True
                    v = index.forward.vector(doc)
                    entry = (float(v.values.astype(np.float64) @ q_dense[v.dims]), -doc)
                    if len(heap) < params.k:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
    return sorted((s for s, _ in heap), reverse=True), int(np.count_nonzero(visited))


def test_traversal_dominates_per_block_rule(medium_set):
    """The fill/main batches score a superset of the per-block walk's docs,
    so they score at least as many docs and find a top k at least as good."""
    index = build_index(medium_set, BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=2))
    params = SearchParams(k=10, alpha_q=0.8, heap_factor=0.9)
    rng = np.random.default_rng(34)
    for _ in range(20):
        q = random_vector(rng, medium_set.dim, 12)
        got, stats = search(index, None, q, params, return_stats=True)
        ref_scores, ref_scored = per_block_reference(index, q, params)
        assert stats.forward_evaluations >= ref_scored
        assert len(got) == len(ref_scores) == params.k
        # results hold float32 scores; rounding to float32 keeps the order
        assert np.all(got.scores >= np.asarray(ref_scores, dtype=np.float32))


class TestGraphExpansion:
    def test_expansion_never_hurts(self, medium_set):
        index = build_index(medium_set, BuildParams(alpha=0.4, beta=0.2, gamma=0.6, seed=2))
        graph = build_exact_graph(medium_set, 8)
        rng = np.random.default_rng(31)
        for _ in range(15):
            q = random_vector(rng, medium_set.dim, 12)
            base = search(index, None, q, SearchParams(k=10, alpha_q=0.7, heap_factor=0.8))
            expanded = search(
                index, graph, q, SearchParams(k=10, alpha_q=0.7, heap_factor=0.8, use_graph=True)
            )
            assert len(expanded.scores) >= len(base.scores)
            # sorted score vectors improve coordinatewise
            for b, e in zip(base.scores, expanded.scores):
                assert e >= b - 1e-7

    def test_expansion_disabled_without_flag(self, medium_set):
        index = build_index(medium_set, BuildParams(alpha=0.4, beta=0.2, gamma=0.6, seed=2))
        graph = build_exact_graph(medium_set, 8)
        rng = np.random.default_rng(32)
        q = random_vector(rng, medium_set.dim, 12)
        params = SearchParams(k=10, alpha_q=0.7, heap_factor=0.8, use_graph=False)
        assert search(index, graph, q, params) == search(index, None, q, params)

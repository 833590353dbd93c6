import heapq

import numpy as np
import pytest
import scipy.sparse as sp

from sparsemips import (
    Block,
    BuildParams,
    KnnGraph,
    ResultList,
    SearchParams,
    SparseVector,
    VectorSet,
    ZeroVectorError,
    build_exact_graph,
    build_index,
    dequantize,
    exact_topk,
    load_graph,
    load_index,
    save_graph,
    save_index,
    search,
)
from sparsemips import query
from sparsemips.query import SearchStats, _forward_scores, _summary_scores, evaluate_block, expand_with_graph, top_k
from sparsemips.sketching import alpha_mss
from sparsemips.synth import random_collection, random_vector

from conftest import members_of, summaries_by_block, summary_of


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

    @pytest.mark.parametrize("k", [2.5, 3.0, True, np.bool_(True), "3", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k=.* must be an integer"):
            SearchParams(k=k)

    @pytest.mark.parametrize("k", [np.int64(3), np.uint32(3), np.int8(3)])
    def test_numpy_integer_k_accepted(self, small_set, k):
        index = exact_build(small_set)
        q = random_vector(np.random.default_rng(49), small_set.dim, 8)
        assert search(index, None, q, SearchParams(k=k)) == search(index, None, q, SearchParams(k=3))


class TestTopK:
    def test_ordering_with_ties(self):
        ids, scores = top_k(np.array([3, 1, 7, 0]), np.array([0.5, 0.5, 0.9, 0.2]), 4)
        res = ResultList(ids, scores)
        assert res.ids.tolist() == [7, 1, 3, 0]
        assert res.scores.tolist() == pytest.approx([0.9, 0.5, 0.5, 0.2])

    def test_boundary_tie_prefers_smaller_id(self):
        ids, scores = top_k(np.array([5, 2, 9]), np.array([0.5, 0.5, 0.5]), 2)
        assert ResultList(ids, scores).ids.tolist() == [2, 5]

    @pytest.mark.parametrize("bad", [-1, 2**32, 2.7])
    def test_result_ids_that_are_not_u32_integers_rejected(self, bad):
        # a cast would wrap -1 and 2**32 and truncate 2.7
        for ids in ([bad], np.array([bad])):
            with pytest.raises(ValueError, match="result ids"):
                ResultList(ids, [1.0])


def empty_top():
    return np.empty(0, dtype=np.int64), np.empty(0)


class TestEvaluateBlock:
    def test_scores_members_exactly_once(self, small_set):
        index = exact_build(small_set)
        rng = np.random.default_rng(23)
        q = random_vector(rng, small_set.dim, 10)
        q_dense = q.to_dense(small_set.dim)
        block = Block(members_of(index, index.list_ptr[q.dims[0]]))
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

    @pytest.mark.parametrize("size", [2, 201])  # a small batch, and one of every doc
    @pytest.mark.parametrize("bad, dtype", [(-1, np.intp), ("N", np.intp), ("N", np.uint32)])
    def test_id_outside_the_collection_rejected_before_scoring(self, small_set, size, bad, dtype):
        n = len(small_set)
        bad = n if bad == "N" else bad
        ids = np.concatenate(([bad], np.arange(min(size, n) - 1))).astype(dtype)
        q_dense = random_vector(np.random.default_rng(23), small_set.dim, 10).to_dense(small_set.dim)
        visited = np.zeros(n, dtype=bool)
        stats = SearchStats()
        with pytest.raises(ValueError, match=f"doc id {bad} is out of range for {n} docs"):
            evaluate_block(Block(ids), small_set, q_dense, empty_top(), visited, k=5, stats=stats)
        assert not visited.any() and stats == SearchStats()

    @pytest.mark.parametrize("ids", [np.array([0.0, 1.0]), np.array([True, False])])
    def test_ids_that_are_not_integers_rejected(self, small_set, ids):
        with pytest.raises(ValueError, match=f"doc ids must be integers, not {ids.dtype}"):
            evaluate_block(Block(ids), small_set, np.ones(small_set.dim), empty_top(),
                           np.zeros(len(small_set), dtype=bool), k=5)

    @pytest.mark.parametrize("shape", [(49,), (51,), (1, 50)])
    def test_dense_query_of_another_dim_rejected(self, small_set, shape):
        with pytest.raises(ValueError, match=f"dense query of shape .* does not match dim {small_set.dim}"):
            evaluate_block(Block(np.arange(3)), small_set, np.ones(shape), empty_top(),
                           np.zeros(len(small_set), dtype=bool), k=5)

    def test_graph_neighbor_outside_the_collection_rejected(self, small_set):
        """A visited bitmap longer than N lets a neighbor id of N or more
        through the dedupe; it must not reach the kernel."""
        n = len(small_set)
        graph = KnnGraph(kappa=1, neighbors=np.full((n + 1, 1), n, dtype=np.uint32))
        top = (np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError, match=f"doc id {n} is out of range for {n} docs"):
            expand_with_graph(top, graph, small_set, np.ones(small_set.dim), 5, np.zeros(n + 1, dtype=bool))

    @pytest.mark.parametrize("nodes", [29, 31])
    def test_graph_of_another_size_rejected(self, nodes):
        """Graph ids index the visited bitmap: a graph with a row too few
        (id 29) or an id too many (30) fails with ValueError, not IndexError."""
        forward = random_collection(30, 20, 5, seed=50)
        neighbors = np.full((nodes, 1), nodes - 1, dtype=np.uint32)
        neighbors[-1] = 0
        graph = KnnGraph(kappa=1, neighbors=neighbors)
        top = (np.arange(30), np.ones(30))
        visited = np.zeros(30, dtype=bool)
        stats = SearchStats()
        with pytest.raises(ValueError, match=f"graph has {nodes} nodes but visited has 30 entries"):
            expand_with_graph(top, graph, forward, np.ones(20), 5, visited, stats)
        assert not visited.any() and stats == SearchStats()


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
                blocks, scores, entries = _summary_scores(index, lists, q)
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
            _, _, entries = _summary_scores(index, kept, q)
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
            for doc in members_of(index, lo + j).tolist():
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


def sorted_traversal(index, graph, q, params):
    """Reference: the traversal that sorts every block of the sketched lists
    (lists in sketch order, blocks by summary score descending), dedupes with
    np.unique and scores every batch with scipy's row gather and mat-vec.
    Returns the result, its SearchStats and the number of fill blocks."""
    forward, k = index.forward, params.k
    q_dense = q.to_dense(index.dim, dtype=np.float64)
    q_sketch = alpha_mss(q, params.alpha_q)
    dim_order = q_sketch.dims[np.argsort(-q_sketch.values, kind="stable")]
    first, last = index.list_ptr[dim_order], index.list_ptr[dim_order + 1]
    blocks, r, entries = _summary_scores(index, dim_order, q)
    order = np.lexsort((-r, np.repeat(np.arange(first.size), last - first)))
    blocks, r = blocks[order], r[order]
    stats = SearchStats(dims_kept=dim_order.size, summary_entries=entries)
    visited = np.zeros(len(forward), dtype=bool)
    top = empty_top()

    def members(bs):
        return np.unique(np.concatenate([members_of(index, b) for b in bs.tolist()] + [np.empty(0, np.uint32)]))

    def score(ids):
        nonlocal top
        ids = ids[~visited[ids]].astype(np.int64)
        visited[ids] = True
        stats.forward_evaluations += ids.size
        scores = forward.scipy64()[ids] @ q_dense
        top = top_k(np.concatenate((top[0], ids)), np.concatenate((top[1], scores)), k)
        return ids.size

    members_upto = np.cumsum(index.block_ptr[blocks + 1] - index.block_ptr[blocks])
    nfill = min(int(np.searchsorted(members_upto, k)) + 1, blocks.size)
    fill = members(blocks[:nfill])
    while fill.size < k and nfill < blocks.size:
        needed = members_upto[nfill - 1] + k - fill.size
        nfill = min(int(np.searchsorted(members_upto, needed)) + 1, blocks.size)
        fill = members(blocks[:nfill])
    score(fill)
    main = blocks[nfill:]
    if main.size:
        main = main[r[nfill:] >= top[1][-1] / params.heap_factor]
        score(members(main))
    stats.blocks_visited = nfill + main.size
    stats.blocks_skipped = blocks.size - stats.blocks_visited
    if top[0].size < min(k, len(forward)):
        stats.fallback_docs = score(np.flatnonzero(~visited))
    if params.use_graph and graph is not None and graph.kappa > 0:
        stats.graph_docs = score(np.unique(graph.neighbors[top[0]]))
    return ResultList(*top), stats, nfill


def assert_same_as_sorted_traversal(index, graph, q, params):
    got, stats = search(index, graph, q, params, return_stats=True)
    want, want_stats, nfill = sorted_traversal(index, graph, q, params)
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.scores.view(np.uint32), want.scores.view(np.uint32))
    assert stats == want_stats
    return got, stats, nfill


def with_vectors(entries):
    return [SparseVector(np.array(list(e)), np.array(list(e.values()), dtype=np.float32)) for e in entries]


class TestLowCallSearch:
    """search against the sort-every-block traversal, on the cases where
    pruning degenerates; every SearchStats field must match too."""

    @pytest.fixture(scope="class", params=[True, False], ids=["quantized", "float32"])
    def quantize(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def vset(self):
        # docs 0..5 hold dims 0 and 1, docs 6..7 dim 1 and docs 8..39 dim 2;
        # the rest spread over dims 10..49, and dims 50..59 hold no entry
        head = with_vectors([{0: 1.0, 1: 1.0, 10 + j: 0.3} for j in range(6)])
        head += with_vectors([{1: 0.5, 20 + j: 0.4} for j in range(2)])
        head += with_vectors([{2: 0.2 + 0.02 * j, 30 + j % 10: 0.5} for j in range(32)])
        rest = [SparseVector(v.dims + 10, v.values) for v in random_collection(260, 40, 6, seed=41)]
        return VectorSet.from_vectors(60, head + rest)

    @pytest.fixture(scope="class")
    def index(self, vset, quantize):
        return build_index(vset, BuildParams(alpha=1.0, beta=0.3, gamma=1.0, quantize=quantize, seed=5))

    def test_random_queries(self, vset, index):
        graph = build_exact_graph(vset, 5)
        rng = np.random.default_rng(42)
        for trial in range(40):
            q = random_vector(rng, 50, 8)
            params = SearchParams(
                k=(1, 10, 25)[trial % 3], alpha_q=(0.5, 1.0)[trial % 2],
                heap_factor=(0.7, 1.0)[trial % 4 // 2], use_graph=trial % 5 == 0,
            )
            assert_same_as_sorted_traversal(index, graph, q, params)

    def test_every_sketched_list_empty_falls_back(self, vset, index):
        # the sketch keeps only the two large dims, which no doc holds
        q = SparseVector(np.array([1, 52, 57]), np.array([0.01, 1.0, 1.0]))
        params = SearchParams(k=10, alpha_q=0.9)
        got, stats, _ = assert_same_as_sorted_traversal(index, None, q, params)
        assert got == exact_topk(vset, q, 10)
        assert stats.blocks_visited == stats.blocks_skipped == stats.summary_entries == 0
        assert stats.dims_kept == 2
        assert stats.fallback_docs == stats.forward_evaluations == len(vset)

    def test_fill_widens_past_the_lists_the_counts_predict(self, index):
        # lists 0 and 1 hold 6 + 8 >= 10 members but only 8 distinct docs
        q = SparseVector(np.array([0, 1, 2]), np.array([1.0, 0.9, 0.8]))
        _, stats, nfill = assert_same_as_sorted_traversal(index, None, q, SearchParams(k=10))
        assert nfill > index.list_ptr[2] - index.list_ptr[0]
        assert stats.forward_evaluations >= 10 and stats.fallback_docs == 0

    def test_k_at_least_collection_size(self, vset, index):
        q = random_vector(np.random.default_rng(43), 50, 6)
        for k in (len(vset), len(vset) + 7):
            got, stats, _ = assert_same_as_sorted_traversal(index, None, q, SearchParams(k=k, alpha_q=0.6))
            assert got == exact_topk(vset, q, k)
            assert stats.fallback_docs > 0

    def test_small_heap_factor_with_a_graph(self, vset, index):
        graph = build_exact_graph(vset, 6)
        rng = np.random.default_rng(44)
        graph_docs = 0
        for _ in range(10):
            q = random_vector(rng, 50, 10)
            params = SearchParams(k=8, alpha_q=0.7, heap_factor=0.6, use_graph=True)
            _, stats, _ = assert_same_as_sorted_traversal(index, graph, q, params)
            assert stats.dims_kept == alpha_mss(q, params.alpha_q).dims.size
            graph_docs += stats.graph_docs
        assert graph_docs > 0


class TestForwardScores:
    N = 400

    @pytest.fixture(scope="class")
    def forward(self):
        rows = list(random_collection(self.N, 80, 12, seed=45))
        for j in range(0, self.N, 37):  # rows with no entries
            rows[j] = SparseVector(np.empty(0, np.uint32), np.empty(0, np.float32))
        return VectorSet.from_vectors(80, rows)

    @staticmethod
    def batch(size, dtype):
        rng = np.random.default_rng(size)
        q_dense = random_vector(rng, 80, 15).to_dense(80, dtype=np.float64)
        ids = np.sort(rng.choice(TestForwardScores.N, size=size, replace=False)).astype(dtype)
        if size > 1:
            ids[0] = 0  # an empty row
        return ids, q_dense

    @pytest.mark.parametrize("size", [1, 2, 128, 129, N])
    def test_both_paths_equal_the_scipy_mat_vec_bit_for_bit(self, forward, size):
        """One compiled kernel, on both id dtypes that reach it: intp (the
        batches search builds) and uint32 (the stored member ids and graph
        neighbors, which a caller of evaluate_block may pass as they are)."""
        for dtype in (np.intp, np.uint32):
            ids, q_dense = self.batch(size, dtype)
            want = forward.scipy64()[ids] @ q_dense
            got = _forward_scores(forward, ids, q_dense)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.uint32])
    def test_every_index_array_has_the_csr_index_dtype(self, forward, dtype, monkeypatch):
        """sparsetools upcasts the whole forward index on every call when one
        index array is wider than the CSR's, and rejects narrower outputs."""
        calls = []
        kernels = query._sparsetools

        class Recording:
            def csr_row_index(self, *args):
                calls.append(args)
                return kernels.csr_row_index(*args)

            def csr_matvec(self, *args):
                calls.append(args)
                return kernels.csr_matvec(*args)

        monkeypatch.setattr(query, "_sparsetools", Recording())
        ids, q_dense = self.batch(129, dtype)
        got = _forward_scores(forward, ids, q_dense)
        csr = forward.scipy64()
        (n_rows, row_ids, ptr, indices, data, sub_indices, sub_data), \
            (m_rows, n_cols, sub_ptr, mv_indices, mv_data, x, scores) = calls
        assert ptr is csr.indptr and indices is csr.indices and data is csr.data  # no copies
        for array in (row_ids, sub_indices, sub_ptr):
            assert array.dtype == csr.indptr.dtype == csr.indices.dtype
        assert mv_indices is sub_indices and mv_data is sub_data and x is q_dense and scores is got
        assert n_rows == m_rows == ids.size and n_cols == forward.dim


class TestRanges:
    @staticmethod
    def reference(starts, stops):
        return np.concatenate([np.arange(s, e) for s, e in zip(starts.tolist(), stops.tolist())] + [np.empty(0, int)])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64, np.int64])
    def test_equals_a_loop_of_aranges(self, dtype):
        rng = np.random.default_rng(46)
        cases = [([], []), ([4], [4]), ([0, 3, 3, 9], [0, 5, 3, 12]), ([7, 2, 0], [9, 2, 5])]
        for _ in range(20):  # ranges in any order, some empty, some overlapping
            starts = rng.integers(0, 50, rng.integers(1, 12))
            cases.append((starts, starts + rng.integers(0, 6, starts.size)))
        for starts, stops in cases:
            starts, stops = np.asarray(starts, dtype=dtype), np.asarray(stops, dtype=dtype)
            got = query._ranges(starts, stops)
            assert got.dtype == np.intp
            assert np.array_equal(got, self.reference(starts, stops))


class TestSearchAfterReload:
    """The loaded copy of an index and graph holds buffer views in the file's
    dtypes; search on it must equal search on the built one."""

    @pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "float32"])
    def test_equal_to_the_built_index(self, medium_set, quantize, tmp_path):
        built = build_index(medium_set, BuildParams(alpha=0.6, beta=0.2, gamma=0.8, quantize=quantize, seed=7))
        built_graph = build_exact_graph(medium_set, 6)
        save_index(built, tmp_path / "index.bin")
        save_graph(built_graph, tmp_path / "graph.bin")
        loaded, loaded_graph = load_index(tmp_path / "index.bin"), load_graph(tmp_path / "graph.bin")
        assert loaded.member_ids.base is not None and loaded.member_ids.dtype == loaded_graph.neighbors.dtype == np.uint32
        rng = np.random.default_rng(47)
        for trial in range(30):
            q = random_vector(rng, medium_set.dim, 12)
            params = SearchParams(k=(5, 10, 40)[trial % 3], alpha_q=(0.7, 1.0)[trial % 2],
                                  heap_factor=(0.8, 1.0)[trial % 4 // 2], use_graph=trial % 5 < 2)
            got, got_stats = search(loaded, loaded_graph, q, params, return_stats=True)
            want, want_stats = search(built, built_graph, q, params, return_stats=True)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.scores.view(np.uint32), want.scores.view(np.uint32))
            assert got_stats == want_stats


def test_evaluate_block_sees_every_doc_but_the_fallback_and_graph_ones(medium_set, monkeypatch):
    """perfbench reads forward scoring and the fallback off the calls to
    evaluate_block, so every fill and main batch must go through it."""
    index = build_index(medium_set, BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=8))
    graph = build_exact_graph(medium_set, 5)
    seen = []
    evaluate = query.evaluate_block

    def spy(block, forward, q_dense, top, visited, k, stats=None):
        before = stats.forward_evaluations
        top = evaluate(block, forward, q_dense, top, visited, k, stats)
        seen.append(stats.forward_evaluations - before)
        return top

    monkeypatch.setattr(query, "evaluate_block", spy)
    rng = np.random.default_rng(48)
    fallback = graph_docs = 0
    for trial in range(24):
        q = random_vector(rng, medium_set.dim, 10)
        params = SearchParams(k=(10, len(medium_set))[trial % 6 == 0], alpha_q=0.7, heap_factor=0.9,
                              use_graph=trial % 2 == 0)
        seen.clear()
        _, stats = search(index, graph, q, params, return_stats=True)
        assert sum(seen) == stats.forward_evaluations - stats.fallback_docs - stats.graph_docs
        fallback += stats.fallback_docs
        graph_docs += stats.graph_docs
    assert fallback > 0 and graph_docs > 0

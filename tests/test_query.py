import numpy as np
import pytest

from sparsemips import (
    BuildParams,
    ResultList,
    SearchParams,
    SparseVector,
    VectorSet,
    ZeroVectorError,
    build_exact_graph,
    build_index,
    exact_topk,
    search,
)
from sparsemips.query import _heap_offer, evaluate_block
from sparsemips.synth import random_collection, random_vector


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


class TestResultList:
    def test_heap_ordering_with_ties(self):
        heap = []
        for score, doc in [(0.5, 3), (0.5, 1), (0.9, 7), (0.2, 0)]:
            _heap_offer(heap, 4, score, doc)
        res = ResultList.from_heap(heap)
        assert res.ids.tolist() == [7, 1, 3, 0]
        assert res.scores.tolist() == pytest.approx([0.9, 0.5, 0.5, 0.2])

    def test_heap_eviction_prefers_smaller_id_on_boundary_tie(self):
        heap = []
        for doc in (5, 2, 9):
            _heap_offer(heap, 2, 0.5, doc)
        res = ResultList.from_heap(heap)
        assert res.ids.tolist() == [2, 5]


class TestEvaluateBlock:
    def test_scores_members_exactly_once(self, small_set):
        index = exact_build(small_set)
        rng = np.random.default_rng(23)
        q = random_vector(rng, small_set.dim, 10)
        q_dense = q.to_dense(small_set.dim)
        block = index.block(index.list_ptr[q.dims[0]])
        visited = np.zeros(len(small_set), dtype=bool)
        heap = []
        evaluate_block(block, small_set, q_dense, heap, visited, k=50)
        assert np.all(visited[block.ids])
        scores = {-nid: s for s, nid in heap}
        for j in block.ids.tolist():
            dims, vals = small_set.row_slice(j)
            assert scores[j] == pytest.approx(float(vals @ q_dense[dims]))
        # a second pass adds nothing: members are already visited
        before = len(heap)
        evaluate_block(block, small_set, q_dense, heap, visited, k=50)
        assert len(heap) == before


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
        assert stats.forward_evaluations == stats.docs_visited
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

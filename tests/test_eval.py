import numpy as np
import pytest

from sparsemips import (
    BuildParams,
    GroundTruth,
    SearchParams,
    SparseVector,
    VectorSet,
    accuracy_at_k,
    bench,
    build_index,
    dot,
    exact_topk,
    ground_truth,
    ip_preservation,
    mass_curve,
    norm_ratio_cdf,
)
from sparsemips.evaluation import mean_accuracy
from sparsemips.synth import random_collection, random_vector
from sparsemips.vectors import EMPTY
from conftest import dense_to_vectorset


def naive_topk(vset, q, k):
    """Independent reference scorer: python loop over sparse dots."""
    scored = sorted(((-dot(q, vset.vector(j)), j) for j in range(len(vset))))
    return [(j, -s) for s, j in scored[:k]]


class TestExactTopk:
    def test_matches_naive_scorer_on_random_instances(self):
        rng = np.random.default_rng(33)
        for trial in range(12):
            vset = random_collection(80, 40, 8, seed=100 + trial)
            q = random_vector(rng, 40, 10)
            res = exact_topk(vset, q, 10)
            expected = naive_topk(vset, q, 10)
            assert res.ids.tolist() == [j for j, _ in expected]
            # result scores are stored as float32
            for got, (_, want) in zip(res.scores.tolist(), expected):
                assert got == pytest.approx(want, rel=1e-6)

    def test_orthogonal_query_returns_lowest_ids(self):
        vset = random_collection(20, 30, 4, seed=34)
        dense = np.zeros((1, 31), dtype=np.float32)
        dense[0, 30] = 1.0
        wide = dense_to_vectorset(dense)
        q = wide.vector(0)
        padded = VectorSet(31, vset.indptr, vset.indices, vset.values)
        res = exact_topk(padded, q, 5)
        assert res.ids.tolist() == [0, 1, 2, 3, 4]
        assert res.scores.tolist() == [0.0] * 5

    def test_query_dim_past_the_collection_rejected(self, small_set):
        wide = VectorSet.from_vectors(60, [SparseVector(np.array([3, 55]), np.array([0.5, 0.5]))])
        with pytest.raises(ValueError, match="55.*50"):
            exact_topk(small_set, wide.vector(0), 5)
        with pytest.raises(ValueError, match="55.*50"):
            ground_truth(small_set, wide, 5)
        with pytest.raises(ValueError, match="55.*50"):
            norm_ratio_cdf(small_set, wide, 5)

    def test_invalid_arguments(self, small_set):
        q = small_set.vector(0)
        with pytest.raises(ValueError):
            exact_topk(small_set, q, 0)
        with pytest.raises(ValueError):
            exact_topk(VectorSet.from_vectors(4, []), q, 3)


class TestGroundTruth:
    @pytest.mark.parametrize("query_dim", [30, 300_000, 400_000])
    def test_rows_equal_exact_topk(self, query_dim):
        base = list(random_collection(40, 30, 6, seed=50))
        # rows 40-49 copy rows 0-9, so their scores tie; dim 300_000 makes
        # dense blocks of 2**20 // 300_000 = 3 queries, 4 blocks for 11
        docs = VectorSet.from_vectors(300_000, base + base[:10])
        vectors = list(random_collection(11, 30, 5, seed=51))
        vectors[4] = EMPTY
        queries = VectorSet.from_vectors(query_dim, vectors)
        gt = ground_truth(docs, queries, 12)
        for qi, q in enumerate(queries):
            res = exact_topk(docs, q, 12)
            assert gt.ids[qi].tolist() == res.ids.tolist()
            assert gt.scores[qi].view(np.uint32).tolist() == res.scores.view(np.uint32).tolist()


class TestAccuracy:
    def test_examples(self):
        assert accuracy_at_k([1, 2, 3, 4], [4, 3, 9, 1], 4) == 0.75
        assert accuracy_at_k([1, 2], [3, 4], 2) == 0.0
        assert accuracy_at_k([1, 2], [2, 1], 2) == 1.0

    def test_shallow_truth_rejected(self):
        with pytest.raises(ValueError):
            accuracy_at_k([1, 2], [1, 2, 3], 3)

    def test_exact_results_score_one(self, small_set):
        gt = ground_truth(small_set, small_set, 5)
        runs = [exact_topk(small_set, q, 5).pairs() for q in small_set]
        assert mean_accuracy(gt, runs, 5) == 1.0

    def test_run_past_the_ground_truth_rejected(self, small_set):
        gt = ground_truth(small_set, small_set, 5)
        runs = [exact_topk(small_set, q, 5).pairs() for q in small_set]
        with pytest.raises(ValueError, match="200"):
            mean_accuracy(gt, runs + [[]], 5)

    def test_ground_truth_k_capped(self, small_set):
        with pytest.raises(ValueError):
            ground_truth(small_set, small_set, len(small_set) + 1)


class TestMassCurve:
    def test_single_vector_example(self):
        dense = np.array([[0.5, 0.3, 0.2]], dtype=np.float32)
        vset = dense_to_vectorset(dense)
        curve = dict(mass_curve(vset, 4))
        assert curve[1] == pytest.approx(0.5, abs=1e-6)
        assert curve[2] == pytest.approx(0.8, abs=1e-6)
        assert curve[3] == pytest.approx(1.0, abs=1e-6)
        assert curve[4] == pytest.approx(1.0)  # beyond nnz the fraction saturates

    def test_matches_per_row_loop(self, medium_set):
        # rows of 1 to 15 entries, and one empty row, which is not counted
        vectors = [SparseVector(v.dims[:1 + j % 15], v.values[:1 + j % 15]) for j, v in enumerate(medium_set)]
        vectors[3] = EMPTY
        vset = VectorSet.from_vectors(medium_set.dim, vectors)
        expected = np.zeros(40)
        for v in vectors[:3] + vectors[4:]:
            vals = np.sort(v.values.astype(np.float64))[::-1]
            csum = np.ones(40)
            csum[:vals.size] = np.cumsum(vals)[:40] / vals.sum()
            expected += csum
        expected /= len(vectors) - 1
        got = [f for _, f in mass_curve(vset, 40)]
        # sums of at most 40 float64 shares: 1e-12 is far above their rounding
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_monotone_in_j(self, small_set):
        curve = mass_curve(small_set, 10)
        fracs = [f for _, f in curve]
        assert all(0.0 < f <= 1.0 + 1e-12 for f in fracs)
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))


class TestIpPreservation:
    def test_full_sketches_preserve_everything(self, small_set):
        mean, half, used = ip_preservation(small_set, small_set, 1.0, 1.0, sample=200)
        assert mean == pytest.approx(1.0)
        assert used > 0

    def test_partial_sketches_lie_in_unit_interval(self, small_set):
        mean, half, used = ip_preservation(small_set, small_set, 0.5, 0.5, sample=200)
        assert 0.0 < mean <= 1.0
        assert half >= 0.0

    def test_no_positive_pairs_rejected(self):
        a = dense_to_vectorset(np.array([[1.0, 0.0]], dtype=np.float32))
        b = dense_to_vectorset(np.array([[0.0, 1.0]], dtype=np.float32))
        with pytest.raises(ValueError):
            ip_preservation(a, b, 1.0, 1.0, sample=50)


class TestNormRatioCdf:
    def test_k_far_one_gives_unit_ratios(self, small_set):
        queries = random_collection(10, small_set.dim, 8, seed=35)
        cdf = norm_ratio_cdf(small_set, queries, 1)
        assert all(r == pytest.approx(1.0) for r, _ in cdf)
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_cdf_is_nondecreasing(self, small_set):
        queries = random_collection(20, small_set.dim, 8, seed=36)
        cdf = norm_ratio_cdf(small_set, queries, 5)
        fracs = [f for _, f in cdf]
        assert fracs == sorted(fracs)


class TestBench:
    def test_repetitions_below_one_rejected(self, small_set):
        index = build_index(small_set, BuildParams(alpha=0.6, beta=0.2, gamma=0.8))
        queries = random_collection(2, small_set.dim, 8, seed=37)
        with pytest.raises(ValueError):
            bench(index, None, queries, SearchParams(k=5), repetitions=0)

    def test_smoke(self, small_set):
        index = build_index(small_set, BuildParams(alpha=0.6, beta=0.2, gamma=0.8))
        queries = random_collection(5, small_set.dim, 8, seed=37)
        report = bench(index, None, queries, SearchParams(k=5, alpha_q=0.8, heap_factor=0.9), repetitions=2)
        assert report.repetitions == 2
        assert report.per_query_us.size == 5
        assert report.mean_us > 0.0
        assert report.p95_us >= report.median_us

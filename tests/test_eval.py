import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparsemips import (
    BuildParams,
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
    lp_norm,
    mass_curve,
    norm_ratio_cdf,
    restrict,
)
from sparsemips.evaluation import _column_scores, mean_accuracy
from sparsemips.sketching import alpha_mss
from sparsemips.synth import random_collection, random_vector, zipfian_clustered_collection
from sparsemips.vectors import EMPTY
from conftest import TIED_VALUES, dense_to_vectorset, tied_sets


def naive_topk(vset, q, k):
    """Independent reference scorer: python loop over sparse dots."""
    scored = sorted(((-dot(q, vset.vector(j)), j) for j in range(len(vset))))
    return [(j, -s) for s, j in scored[:k]]


def per_pair_ip_preservation(vset, queries, alpha_doc, alpha_query, sample, seed=0):
    """Reference: two vectors, two alpha_mss sketches and three dots per sampled pair."""
    rng = np.random.default_rng(seed)
    qs = rng.integers(0, len(queries), size=sample)
    ds = rng.integers(0, len(vset), size=sample)
    fractions = []
    for qi, di in zip(qs.tolist(), ds.tolist()):
        q, u = queries.vector(qi), vset.vector(di)
        if q.dims.size == 0 or u.dims.size == 0:
            continue
        true = dot(q, u)
        if true <= 0:
            continue
        fractions.append(dot(alpha_mss(q, alpha_query), alpha_mss(u, alpha_doc)) / true)
    arr = np.asarray(fractions)
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size)), arr.size


def per_query_norm_ratio_cdf(vset, queries, k_far):
    """Reference: each query's nearest and k_far-th rows restricted to its support, one at a time."""
    ratios = []
    for q in queries:
        if q.dims.size == 0:
            continue
        found = exact_topk(vset, q, k_far).ids
        nu = lp_norm(restrict(vset.vector(found[0]), q.dims), 1)
        if nu == 0:
            continue
        ratios.append(lp_norm(restrict(vset.vector(found[-1]), q.dims), 1) / nu)
    ratios = np.sort(np.asarray(ratios))
    return [(float(r), (i + 1) / ratios.size) for i, r in enumerate(ratios)]


def with_empty_rows(vset, rows):
    vectors = list(vset)
    for j in rows:
        vectors[j] = EMPTY
    return VectorSet.from_vectors(vset.dim, vectors)


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


# float32 values of many magnitudes: sums of their float64 products depend on
# the order they are added in
SPREAD_VALUES = st.floats(2.0**-10, 2.0**10, width=32)


@st.composite
def docs_and_queries(draw):
    """A tied_sets collection with two more dims, which no doc holds, and a
    tied_sets query set on all of its dims; values tied or spread."""
    values = draw(st.sampled_from([st.sampled_from(TIED_VALUES), SPREAD_VALUES]))
    docs = draw(tied_sets(min_rows=1, values=values))
    docs = VectorSet(docs.dim + 2, docs.indptr, docs.indices, docs.values)
    return docs, draw(tied_sets(dim=docs.dim, values=values))


def sv(dims, values):
    return SparseVector(np.array(dims, dtype=np.uint32), np.array(values, dtype=np.float32))


class TestGroundTruth:
    @pytest.mark.parametrize("query_dim", [30, 300_000, 400_000])
    def test_rows_equal_exact_topk(self, query_dim):
        base = list(random_collection(40, 30, 6, seed=50))
        # rows 40-49 copy rows 0-9, so their scores tie; the collection's CSC
        # has 300_000 columns, all but 30 empty, and the query sets are
        # narrower than, as wide as and wider than the collection.  The 11
        # queries make one piece (tests/test_parallel.py splits them)
        docs = VectorSet.from_vectors(300_000, base + base[:10])
        vectors = list(random_collection(11, 30, 5, seed=51))
        vectors[4] = EMPTY
        queries = VectorSet.from_vectors(query_dim, vectors)
        ids, scores = ground_truth(docs, queries, 12)
        assert ids.dtype == np.uint32 and scores.dtype == np.float32 and ids.shape == scores.shape == (11, 12)
        for qi, q in enumerate(queries):
            res = exact_topk(docs, q, 12)
            assert ids[qi].tolist() == res.ids.tolist()
            assert scores[qi].view(np.uint32).tolist() == res.scores.view(np.uint32).tolist()

    @example(pair=(
        # ties, an empty doc, an empty query, and dim 3, which no doc holds
        VectorSet.from_vectors(4, [sv([0, 1], [1.0, 1.0]), EMPTY, sv([0, 1], [1.0, 1.0]), sv([1], [7.5])]),
        VectorSet.from_vectors(4, [EMPTY, sv([3], [1.0]), sv([0, 1, 3], [0.25, 1.0, 7.5])]),
    ))
    @given(pair=docs_and_queries())
    def test_column_scores_equal_the_scipy_mat_vec_bit_for_bit(self, pair):
        docs, queries = pair
        cols, qmat = docs.scipy64().tocsc(), queries.scipy64()
        rows = list(_column_scores(cols, qmat.indptr, qmat.indices.astype(cols.indptr.dtype), qmat.data))
        assert len(rows) == len(queries)
        for q, row in zip(queries, rows):
            want = docs.scipy64() @ q.to_dense(docs.dim)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
        ids, scores = ground_truth(docs, queries, len(docs))
        for qi, q in enumerate(queries):
            res = exact_topk(docs, q, len(docs))
            assert ids[qi].tolist() == res.ids.tolist()
            assert scores[qi].view(np.uint32).tolist() == res.scores.view(np.uint32).tolist()

    def test_rows_equal_exact_topk_on_a_benchmark_shaped_corpus(self):
        """10k docs with zipfian dims, as in the benchmark: a query's columns
        hold thousands of entries, and 200 queries make many pieces."""
        docs, _, _ = zipfian_clustered_collection(10_000, 1000, 40, n_clusters=50, seed=[7, 0])
        end = docs.indptr[200]
        queries = VectorSet(docs.dim, docs.indptr[:201], docs.indices[:end], docs.values[:end])
        ids, scores = ground_truth(docs, queries, 11)
        for qi, q in enumerate(queries):
            res = exact_topk(docs, q, 11)
            assert ids[qi].tolist() == res.ids.tolist()
            assert scores[qi].view(np.uint32).tolist() == res.scores.view(np.uint32).tolist()


class TestAccuracy:
    def test_examples(self):
        assert accuracy_at_k([1, 2, 3, 4], [4, 3, 9, 1], 4) == 0.75
        assert accuracy_at_k([1, 2], [3, 4], 2) == 0.0
        assert accuracy_at_k([1, 2], [2, 1], 2) == 1.0

    def test_shallow_truth_rejected(self):
        with pytest.raises(ValueError):
            accuracy_at_k([1, 2], [1, 2, 3], 3)

    def test_exact_results_score_one(self, small_set):
        ids, _ = ground_truth(small_set, small_set, 5)
        runs = [exact_topk(small_set, q, 5).pairs() for q in small_set]
        assert mean_accuracy(ids, runs, 5) == 1.0

    def test_run_past_the_ground_truth_rejected(self, small_set):
        ids, _ = ground_truth(small_set, small_set, 5)
        runs = [exact_topk(small_set, q, 5).pairs() for q in small_set]
        with pytest.raises(ValueError, match="200"):
            mean_accuracy(ids, runs + [[]], 5)

    def test_ground_truth_k_capped(self, small_set):
        with pytest.raises(ValueError):
            ground_truth(small_set, small_set, len(small_set) + 1)

    @pytest.mark.parametrize("k", [2.5, True, np.bool_(True), None])
    def test_k_must_be_an_integer(self, small_set, k):
        q = small_set.vector(0)
        with pytest.raises(ValueError, match="k=.* must be an integer"):
            exact_topk(small_set, q, k)
        with pytest.raises(ValueError, match="k=.* must be an integer"):
            ground_truth(small_set, small_set, k)

    @pytest.mark.parametrize("k", [np.int64(4), np.uint32(4)])
    def test_numpy_integer_k_accepted(self, small_set, k):
        ids, _ = ground_truth(small_set, small_set, k)
        assert ids.shape == (len(small_set), 4)
        for j in (0, 7):
            q = small_set.vector(j)
            assert exact_topk(small_set, q, k) == exact_topk(small_set, q, 4)
            assert np.array_equal(ids[j], exact_topk(small_set, q, 4).ids)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, small_set, k):
        with pytest.raises(ValueError, match=f"k={k} must be at least 1"):
            accuracy_at_k(np.arange(5), [0, 1, 2], k)
        ids, _ = ground_truth(small_set, small_set, 5)
        for runs in ([exact_topk(small_set, q, 5).pairs() for q in small_set], []):
            with pytest.raises(ValueError, match=f"k={k} must be at least 1"):
                mean_accuracy(ids, runs, k)


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

    @settings(max_examples=200, deadline=None)
    @given(vset=tied_sets(min_rows=1), max_keep=st.integers(0, 14))
    def test_equals_the_per_row_sort(self, vset, max_keep):
        assume(vset.indices.size)
        # each row's values descending, summed one at a time in the order mass_curve sums them
        per_rank, counted = [0.0] * max_keep, 0
        for v in vset:
            if v.nnz == 0:
                continue
            counted += 1
            vals = np.sort(v.values.astype(np.float64))[::-1].tolist()
            total = 0.0
            for x in vals:
                total += x
            for j, x in enumerate(vals[:max_keep]):
                per_rank[j] += x / total
        expected, running = [], 0.0
        for j in range(max_keep):
            running += per_rank[j]
            expected.append((j + 1, running / counted))
        assert mass_curve(vset, max_keep) == expected

    def test_monotone_in_j(self, small_set):
        curve = mass_curve(small_set, 10)
        fracs = [f for _, f in curve]
        assert all(0.0 < f <= 1.0 + 1e-12 for f in fracs)
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))

    def test_negative_max_keep_rejected(self, small_set):
        assert mass_curve(small_set, 0) == []
        with pytest.raises(ValueError, match="max_keep=-1 must be at least 0"):
            mass_curve(small_set, -1)


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

    def test_empty_side_named(self, small_set):
        empty = VectorSet.from_vectors(small_set.dim, [])
        with pytest.raises(ValueError, match="empty query set"):
            ip_preservation(small_set, empty, 1.0, 1.0, sample=50)
        with pytest.raises(ValueError, match="empty collection"):
            ip_preservation(empty, small_set, 1.0, 1.0, sample=50)

    @pytest.mark.parametrize("sample", [0, -1])
    def test_sample_below_one_rejected(self, small_set, sample):
        with pytest.raises(ValueError, match=f"sample={sample} must be at least 1"):
            ip_preservation(small_set, small_set, 1.0, 1.0, sample=sample)

    @pytest.mark.parametrize("alpha_doc, alpha_query, message", [
        (0.0, 1.0, "alpha_doc=0.0 must lie in"),
        (1.0, 1.5, "alpha_query=1.5 must lie in"),
        (1.0, -0.5, "alpha_query=-0.5 must lie in"),
    ])
    def test_alpha_out_of_range_named(self, small_set, alpha_doc, alpha_query, message):
        with pytest.raises(ValueError, match=message):
            ip_preservation(small_set, small_set, alpha_doc, alpha_query, sample=50)

    @pytest.mark.parametrize("alpha", [1.0, 0.6])
    @pytest.mark.parametrize("query_dim", [30, 50, 70])
    def test_matches_per_pair_loop(self, small_set, query_dim, alpha):
        # queries narrower than, as wide as and wider than the collection's dim 50
        docs = with_empty_rows(small_set, [0, 7, 150])
        queries = with_empty_rows(random_collection(40, query_dim, 10, seed=38), [2, 19])
        got = ip_preservation(docs, queries, alpha, alpha, sample=3000, seed=5)
        want = per_pair_ip_preservation(docs, queries, alpha, alpha, sample=3000, seed=5)
        # products of 8 or more terms are summed in another order: 1e-12 is
        # far above float64 rounding of sums this short
        assert got[2] == want[2]
        np.testing.assert_allclose(got[:2], want[:2], rtol=1e-12, atol=0)

    def test_builds_no_sparse_vector(self, small_set, monkeypatch):
        queries = random_collection(20, small_set.dim, 8, seed=39)
        built = []
        original = SparseVector.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(SparseVector, "__post_init__", counted)
        ip_preservation(small_set, queries, 0.6, 0.5, sample=500)
        norm_ratio_cdf(small_set, queries, 5)
        assert built == []


class TestNormRatioCdf:
    @pytest.mark.parametrize("k_far", [1, 7, 200])
    def test_matches_per_query_loop(self, small_set, k_far):
        # k_far=200 is the collection size; empty docs, an empty query, and
        # one on dims no doc holds, whose nearest row has no mass there
        docs = VectorSet.from_vectors(60, list(with_empty_rows(small_set, [0, 7, 150])))
        vectors = list(random_collection(30, small_set.dim, 3, seed=40))
        vectors[4], vectors[9] = EMPTY, SparseVector(np.array([52, 57]), np.array([0.5, 0.25]))
        queries = VectorSet.from_vectors(60, vectors)
        assert norm_ratio_cdf(docs, queries, k_far) == per_query_norm_ratio_cdf(docs, queries, k_far)

    def test_k_far_one_gives_unit_ratios(self, small_set):
        queries = random_collection(10, small_set.dim, 8, seed=35)
        cdf = norm_ratio_cdf(small_set, queries, 1)
        assert all(r == pytest.approx(1.0) for r, _ in cdf)
        assert cdf[-1][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("k_far", [0, -1])
    def test_k_far_below_one_rejected(self, small_set, k_far):
        queries = random_collection(5, small_set.dim, 8, seed=35)
        with pytest.raises(ValueError, match=f"k_far={k_far} must be at least 1"):
            norm_ratio_cdf(small_set, queries, k_far)

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
        # an empty query is not timed
        queries = with_empty_rows(random_collection(6, small_set.dim, 8, seed=37), [2])
        us = bench(index, None, queries, SearchParams(k=5, alpha_q=0.8, heap_factor=0.9), repetitions=2)
        assert us.dtype == np.float64 and us.shape == (5,)
        assert (us > 0.0).all()

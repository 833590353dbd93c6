import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sparsemips import (
    SparseVector,
    VectorSet,
    ZeroVectorError,
    alpha_mss,
    dot,
    l1_threshold_sample,
    lp_norm,
    set_alpha_mss,
    ts_estimate,
    ts_estimate_trials,
)
from sparsemips import sketching
from sparsemips.sketching import hash_unit, largest_first, top_mass, top_mass_order
from sparsemips.synth import bernoulli_collection, random_vector
from conftest import TIED_VALUES, dense_to_vectorset, tied_sets


def sparse_vectors(max_dim=40, max_nnz=12):
    @st.composite
    def build(draw):
        nnz = draw(st.integers(1, max_nnz))
        dims = draw(st.sets(st.integers(0, max_dim - 1), min_size=nnz, max_size=nnz))
        values = [draw(st.floats(0.0078125, 1.0, width=32)) for _ in dims]
        return SparseVector(np.sort(np.fromiter(dims, dtype=np.uint32)), np.array(values, dtype=np.float32))

    return build()


class TestHashUnit:
    def test_deterministic_and_in_range(self):
        dims = np.arange(1000, dtype=np.uint32)
        h1 = hash_unit(dims, 7)
        h2 = hash_unit(dims, 7)
        assert np.array_equal(h1, h2)
        assert np.all((h1 >= 0.0) & (h1 < 1.0))

    def test_seed_changes_hashes(self):
        dims = np.arange(1000, dtype=np.uint32)
        assert not np.array_equal(hash_unit(dims, 0), hash_unit(dims, 1))

    def test_roughly_uniform(self):
        h = hash_unit(np.arange(20000, dtype=np.uint32), 3)
        assert abs(h.mean() - 0.5) < 0.01


class TestThresholdSampling:
    def test_keep_rule_matches_hash(self):
        rng = np.random.default_rng(5)
        u = random_vector(rng, 500, 80)
        sk = l1_threshold_sample(u, 16.0, seed=42)
        expected = u.dims[
            hash_unit(u.dims, 42)
            <= np.minimum(1.0, 16.0 * u.values.astype(np.float64) / lp_norm(u, 1))
        ]
        assert np.array_equal(sk.keys, expected)

    def test_survivors_are_subvector(self):
        rng = np.random.default_rng(6)
        u = random_vector(rng, 500, 80)
        sk = l1_threshold_sample(u, 8.0, seed=1)
        pos = np.searchsorted(u.dims, sk.keys)
        assert np.array_equal(u.dims[pos], sk.keys)
        assert np.array_equal(u.values[pos], sk.values)

    def test_large_target_keeps_everything(self):
        rng = np.random.default_rng(7)
        u = random_vector(rng, 100, 20)
        sk = l1_threshold_sample(u, 1e9, seed=0)
        assert np.array_equal(sk.keys, u.dims)

    def test_zero_vector_rejected(self):
        empty = SparseVector(np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float32))
        with pytest.raises(ZeroVectorError):
            l1_threshold_sample(empty, 8.0, seed=0)

    def test_nonpositive_target_rejected(self):
        u = SparseVector(np.array([1]), np.array([0.5]))
        with pytest.raises(ValueError):
            l1_threshold_sample(u, 0.0, seed=0)

    @pytest.mark.parametrize("d_target", [0.0, -1.0, np.nan, -np.inf])
    @pytest.mark.parametrize("sketch", [
        lambda u, d: l1_threshold_sample(u, d, seed=3),
        lambda u, d: ts_estimate_trials(u, u, d, np.arange(4)),
    ], ids=["l1_threshold_sample", "ts_estimate_trials"])
    def test_target_that_is_not_positive_rejected_before_hashing(self, sketch, d_target, monkeypatch):
        """Both sketches take d_target through one check, before any
        hashing: unchecked, a NaN would give an empty sketch with tau=nan or
        NaN estimates, -1 estimates of 0, and 0 a divide-by-zero warning."""
        monkeypatch.setattr(sketching, "hash_unit", lambda *args: pytest.fail("hashed"))
        u = SparseVector(np.array([1, 4]), np.array([0.5, 0.25]))
        with pytest.raises(ValueError, match=f"^d_target={d_target} must be positive$"):
            sketch(u, d_target)


class TestEstimator:
    def test_disjoint_sketches_estimate_zero(self):
        u = SparseVector(np.array([0, 1]), np.array([0.5, 0.5]))
        v = SparseVector(np.array([2, 3]), np.array([0.5, 0.5]))
        su = l1_threshold_sample(u, 100.0, seed=0)
        sv = l1_threshold_sample(v, 100.0, seed=0)
        assert ts_estimate(su, sv) == 0.0

    def test_full_sketches_recover_exact_dot(self):
        rng = np.random.default_rng(8)
        u = random_vector(rng, 200, 40)
        v = random_vector(rng, 200, 40)
        # with a huge target every entry survives with probability 1
        su = l1_threshold_sample(u, 1e9, seed=3)
        sv = l1_threshold_sample(v, 1e9, seed=3)
        assert ts_estimate(su, sv) == pytest.approx(dot(u, v), rel=1e-9)

    def test_vectorized_trials_match_per_seed_path(self):
        rng = np.random.default_rng(9)
        u = random_vector(rng, 300, 60, normalize=True)
        v = random_vector(rng, 300, 60, normalize=True)
        # every seed is taken mod 2**64, as an array or one at a time: -1 is 2**64 - 1
        seeds = list(range(200)) + [-1, -2, -2**63, 2**63, 2**64 - 1]
        batched = ts_estimate_trials(u, v, 16.0, seeds)
        assert batched[-5] == batched[-1]
        singles = np.array(
            [
                ts_estimate(
                    l1_threshold_sample(u, 16.0, int(s)),
                    l1_threshold_sample(v, 16.0, int(s)),
                )
                for s in seeds
            ]
        )
        # identical survivor sets per seed; sums may associate differently
        assert np.array_equal(batched == 0.0, singles == 0.0)
        np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=0.0)

    def test_estimator_is_unbiased(self):
        rng = np.random.default_rng(10)
        u = random_vector(rng, 400, 80, normalize=True)
        v = random_vector(rng, 400, 80, normalize=True)
        true_ip = dot(u, v)
        w = ts_estimate_trials(u, v, 24.0, np.arange(20000, dtype=np.uint64))
        # tolerance: five standard errors of the Monte-Carlo mean
        tol = 5 * w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean() - true_ip) <= max(tol, 1e-12)


class TestTopMassSubvector:
    def test_small_example(self):
        u = SparseVector(np.array([0, 1, 2]), np.array([0.5, 0.3, 0.2]))
        assert alpha_mss(u, 0.5).pairs() == [(0, pytest.approx(0.5))]
        kept = alpha_mss(u, 0.8)
        assert kept.dims.tolist() == [0, 1]
        assert alpha_mss(u, 1.0) == u
        tiny = SparseVector(np.array([0, 1]), np.array([1.0, 1e-9]))
        assert alpha_mss(tiny, 1.0) == tiny

    def test_tie_prefers_smaller_dims(self):
        u = SparseVector(np.arange(4), np.full(4, 0.25, dtype=np.float32))
        assert alpha_mss(u, 0.5).dims.tolist() == [0, 1]

    def test_zero_vector_and_bad_alpha(self):
        empty = SparseVector(np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float32))
        with pytest.raises(ZeroVectorError):
            alpha_mss(empty, 0.5)
        u = SparseVector(np.array([1]), np.array([0.5]))
        with pytest.raises(ValueError):
            alpha_mss(u, 0.0)
        with pytest.raises(ValueError):
            alpha_mss(u, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(u=sparse_vectors(), alpha=st.floats(0.05, 1.0))
    def test_mass_and_minimality_properties(self, u, alpha):
        kept = alpha_mss(u, alpha)
        # subvector: kept entries exist in u with identical values
        pos = np.searchsorted(u.dims, kept.dims)
        assert np.array_equal(u.dims[pos], kept.dims)
        assert np.array_equal(u.values[pos], kept.values)
        total = lp_norm(u, 1)
        kept_mass = lp_norm(kept, 1)
        assert kept_mass >= (alpha - 2e-6) * total
        # minimality: removing the smallest kept value drops below the target
        if kept.nnz > 1:
            reduced = kept_mass - float(kept.values.min())
            assert reduced < alpha * total + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(u=sparse_vectors(), v=sparse_vectors(), alpha=st.floats(0.05, 1.0))
    def test_segments_equal_each_vector_alone(self, u, v, alpha):
        keep = top_mass([0, u.nnz, u.nnz + v.nnz], np.concatenate((u.values, v.values)), alpha)
        assert np.array_equal(keep[:u.nnz], np.isin(u.dims, alpha_mss(u, alpha).dims))
        assert np.array_equal(keep[u.nnz:], np.isin(v.dims, alpha_mss(v, alpha).dims))

    @settings(max_examples=100, deadline=None)
    @given(u=sparse_vectors(), v=sparse_vectors(), alpha=st.sampled_from([0.3, 0.7, 0.95, 1.0]))
    def test_order_lists_the_kept_entries_largest_first(self, u, v, alpha):
        values = np.concatenate((u.values, v.values))
        indptr = [0, u.nnz, u.nnz + v.nnz]
        keep = top_mass(indptr, values, alpha)
        # per segment: the kept positions, stably sorted by value descending
        want = [s + np.flatnonzero(keep[s:e])[np.argsort(-values[s:e][keep[s:e]], kind="stable")]
                for s, e in zip(indptr, indptr[1:])]
        assert np.array_equal(top_mass_order(indptr, values, alpha), np.concatenate(want))


def lexsorted_top_mass_order(indptr, values, alpha):
    """top_mass_order with its entries ranked by one lexsort of (segment,
    -value), the order the one-key sort must reproduce."""
    sizes = np.diff(np.asarray(indptr, dtype=np.int64))
    order = np.lexsort((-values, np.arange(sizes.size).repeat(sizes)))
    if alpha == 1:
        return order
    width = sizes.max(initial=0)
    filled = np.arange(width) < sizes[:, None]
    csum = np.zeros((sizes.size, width + 1))
    csum[:, 1:][filled] = values[order]
    csum.cumsum(axis=1, out=csum)
    below = csum[:, :-1] < (alpha - 1e-6) * csum[:, -1:]
    below[:, 0] = True
    return order[below[filled]]


class TestTopMassOrderKey:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([0.05, 0.3, 0.6, 0.95, 1.0]), levels=st.integers(1, 40))
    def test_equals_the_lexsort_ranking(self, sizes, seed, alpha, levels):
        # few distinct values make ties within and across segments; the
        # values span tiny to huge float32 magnitudes
        rng = np.random.default_rng(seed)
        palette = np.exp2(rng.uniform(-100, 100, levels)).astype(np.float32)
        values = palette[rng.integers(0, levels, sum(sizes))]
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        assert np.array_equal(top_mass_order(indptr, values, alpha), lexsorted_top_mass_order(indptr, values, alpha))

    @pytest.mark.parametrize("alpha", [0.05, 0.6, 0.95])
    def test_one_long_segment_among_short_ones(self, alpha):
        # the long segment is padded in a matrix of its own, the short ones
        # in matrices of their widths
        rng = np.random.default_rng(8)
        sizes = rng.integers(1, 9, 60)
        sizes[17] = 700
        palette = rng.random(12).astype(np.float32) + 1e-3
        values = palette[rng.integers(0, palette.size, sizes.sum())]  # ties within and across segments
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        assert np.array_equal(top_mass_order(indptr, values, alpha), lexsorted_top_mass_order(indptr, values, alpha))

    def test_float64_copies_of_float32_values_rank_alike(self):
        values = np.random.default_rng(3).random(50).astype(np.float32)
        indptr = [0, 20, 21, 50]
        assert np.array_equal(top_mass_order(indptr, values.astype(np.float64), 0.7),
                              top_mass_order(indptr, values, 0.7))


class TestOneSegmentTopMassOrder:
    """A single segment (a query) takes a 1-D cumsum, not the padded 2-D one;
    it must keep exactly the positions the 2-D path keeps."""

    @staticmethod
    def alphas(values, pick, nudge):
        """alpha drawn from (0, 1), plus alphas that put the target
        (alpha - 1e-6) * mass within a few ulps of a prefix mass."""
        csum = np.sort(values.astype(np.float64))[::-1].cumsum()
        alpha = csum[pick % csum.size] / csum[-1] + 1e-6
        for _ in range(abs(nudge)):
            alpha = np.nextafter(alpha, np.inf if nudge > 0 else -np.inf)
        return [a for a in (float(alpha), float(csum[0] / csum[-1])) if 0 < a < 1]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), levels=st.integers(1, 6),
           alpha=st.floats(0, 1, exclude_min=True, exclude_max=True), pick=st.integers(0, 39),
           nudge=st.integers(-3, 3))
    def test_equals_the_two_dimensional_path(self, seed, n, levels, alpha, pick, nudge):
        rng = np.random.default_rng(seed)
        palette = np.concatenate((TIED_VALUES, rng.random(levels) + 1e-3)).astype(np.float32)
        values = palette[rng.integers(0, palette.size, n)]  # few levels, so many ties
        other = np.array([1.0, 2.0], dtype=np.float32)  # a second segment forces the 2-D path
        for a in [alpha] + self.alphas(values, pick, nudge):
            got = top_mass_order([0, n], values, a)
            assert np.array_equal(got, lexsorted_top_mass_order(np.array([0, n]), values, a))
            both = top_mass_order([0, n, n + 2], np.concatenate((values, other)), a)
            assert np.array_equal(got, both[both < n])


class TestLargestFirst:
    @settings(max_examples=200, deadline=None)
    @given(segments=st.lists(st.lists(st.sampled_from(TIED_VALUES), max_size=8), max_size=8))
    def test_ties_keep_position_order(self, segments):
        # no segment, one segment (the key without a segment half), and empty segments
        indptr = np.cumsum([0] + [len(seg) for seg in segments])
        values = np.array([v for seg in segments for v in seg], dtype=np.float32)
        want = [s + np.argsort(-values[s:e], kind="stable") for s, e in zip(indptr, indptr[1:])]
        assert np.array_equal(largest_first(indptr, values), np.concatenate(want + [np.empty(0, np.intp)]))


def looped_set_alpha_mss(vset, alpha):
    """set_alpha_mss as one stable argsort per column, then a zeroed copy
    pruned of its zeros: the reference the one-order version must match."""
    csc = vset.scipy64().tocsc()
    csc.sort_indices()
    keep_mask = np.zeros(csc.data.size, dtype=bool)
    for i in range(csc.shape[1]):
        s, e = csc.indptr[i], csc.indptr[i + 1]
        lam = min(int(np.ceil(alpha * (e - s))), e - s)
        order = np.argsort(-csc.data[s:e], kind="stable")  # rows ascending in csc
        keep_mask[s + order[:lam]] = True
    pruned = sp.csc_matrix(
        (np.where(keep_mask, csc.data, 0.0), csc.indices, csc.indptr), shape=csc.shape
    ).tocsr()
    pruned.eliminate_zeros()
    pruned.sort_indices()
    return VectorSet(vset.dim, pruned.indptr, pruned.indices, pruned.data)


class TestSetLevelSketch:
    @settings(max_examples=200, deadline=None)
    @given(vset=tied_sets(), alpha=st.floats(0.0, 1.0, exclude_min=True))
    def test_equals_the_per_column_loop(self, vset, alpha):
        assert set_alpha_mss(vset, alpha) == looped_set_alpha_mss(vset, alpha)

    def test_column_cardinality_law(self, golden_set):
        for alpha in (0.2, 0.4, 0.7, 1.0):
            pruned = set_alpha_mss(golden_set, alpha).scipy64().tocsc()
            original = golden_set.scipy64().tocsc()
            for i in range(golden_set.dim):
                n = original.indptr[i + 1] - original.indptr[i]
                kept = pruned.indptr[i + 1] - pruned.indptr[i]
                assert kept == (min(int(np.ceil(alpha * n)), n) if n else 0)

    def test_alpha_one_is_identity(self, golden_set):
        assert set_alpha_mss(golden_set, 1.0) == golden_set

    def test_golden_matrix_unambiguous_columns(self, golden_set):
        pruned = set_alpha_mss(golden_set, 0.4).scipy64().toarray()
        # columns whose value ranking has no ties at the cutoff
        assert np.flatnonzero(pruned[:, 0]).tolist() == [1, 4]
        assert np.flatnonzero(pruned[:, 1]).tolist() == [0, 2]
        assert np.flatnonzero(pruned[:, 2]).tolist() == [1, 7, 8]
        assert np.flatnonzero(pruned[:, 4]).tolist() == [0, 3, 9]
        assert np.flatnonzero(pruned[:, 7]).tolist() == [3]

    def test_column_tie_prefers_smaller_row_ids(self):
        dense = np.zeros((4, 2), dtype=np.float32)
        dense[:, 0] = 0.25
        dense[0, 1] = 0.1
        vset = dense_to_vectorset(dense)
        pruned = set_alpha_mss(vset, 0.5).scipy64().toarray()
        assert np.flatnonzero(pruned[:, 0]).tolist() == [0, 1]

    def test_outputs_are_subvectors(self, small_set):
        pruned = set_alpha_mss(small_set, 0.6)
        assert len(pruned) == len(small_set)
        assert pruned.dim == small_set.dim
        for orig, kept in zip(small_set, pruned):
            pos = np.searchsorted(orig.dims, kept.dims)
            assert np.array_equal(orig.dims[pos], kept.dims)
            assert np.array_equal(orig.values[pos], kept.values)

    def test_trailing_empty_rows_are_kept(self):
        dense = np.zeros((4, 3), dtype=np.float32)
        dense[0] = [0.5, 0.2, 0.0]
        dense[1] = [0.1, 0.0, 0.3]
        vset = dense_to_vectorset(dense)
        for alpha in (0.1, 0.5, 1.0):
            pruned = set_alpha_mss(vset, alpha)
            assert len(pruned) == 4
            assert pruned.nnz_per_row()[2:].tolist() == [0, 0]
            assert pruned.scipy64().shape == (4, 3)

    def test_kept_count_fraction_tracks_alpha(self):
        # on i.i.d. data the *count* of kept entries per vector averages to
        # alpha (each entry is kept with the per-column rate lambda/|L|)
        vset = bernoulli_collection(2000, 200, 0.1, seed=21)
        for alpha in (0.2, 0.5, 0.8):
            pruned = set_alpha_mss(vset, alpha)
            orig_nnz = vset.nnz_per_row().astype(np.float64)
            kept_nnz = pruned.nnz_per_row().astype(np.float64)
            mask = orig_nnz > 0
            mean_fraction = float((kept_nnz[mask] / orig_nnz[mask]).mean())
            assert abs(mean_fraction - alpha) < 0.03

    def test_kept_mass_dominates_kept_count(self):
        # keeping the largest column values means the mass fraction is at
        # least the count fraction for every vector
        vset = bernoulli_collection(500, 100, 0.1, seed=22)
        pruned = set_alpha_mss(vset, 0.5)
        for orig, kept in zip(vset, pruned):
            if orig.nnz == 0:
                continue
            mass_frac = lp_norm(kept, 1) / lp_norm(orig, 1)
            count_frac = kept.nnz / orig.nnz
            assert mass_frac >= count_frac - 1e-9

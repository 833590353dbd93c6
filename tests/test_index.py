import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import sparsemips.index
import sparsemips.vectors
from sparsemips import (
    BuildParams,
    SearchParams,
    SparseVector,
    VectorSet,
    build_index,
    cluster_list,
    dequantize,
    dot,
    exact_topk,
    load_index,
    quantize_summary,
    save_index,
    search,
    set_alpha_mss,
    summarize,
)
from sparsemips.storage import (
    ConsistencyError,
    HeaderError,
    StorageError,
    TruncatedPayloadError,
)
from sparsemips.synth import random_collection, random_vector
from conftest import hub_collection, list_weights, members_of, summary_of, with_piece_sizes


def csr_rows(dim, vectors):
    return VectorSet.from_vectors(dim, vectors).scipy64()


def cluster_labels(rows, beta, seed):
    """cluster_list of the rows of a scipy CSR."""
    return cluster_list(rows.indptr, rows.indices, rows.data, beta, seed)


def clusters_of(rows, beta, seed):
    """cluster_list's groups as lists of row positions, in label order."""
    labels = cluster_labels(rows, beta, seed)
    return [np.flatnonzero(labels == g).tolist() for g in range(labels.max() + 1)]


def list_members(index, i):
    """Sorted member ids of every block of dimension i's list."""
    blocks = index.block_ptr[index.list_ptr[i]:index.list_ptr[i + 1] + 1]
    return sorted(index.member_ids[blocks[0]:blocks[-1]].tolist())


class TestBuildParams:
    def test_validation(self):
        BuildParams(alpha=0.5, beta=0.2, gamma=0.7)
        with pytest.raises(ValueError):
            BuildParams(alpha=0.0, beta=0.2, gamma=0.7)
        with pytest.raises(ValueError):
            BuildParams(alpha=0.5, beta=1.0, gamma=0.7)
        with pytest.raises(ValueError):
            BuildParams(alpha=0.5, beta=0.2, gamma=1.2)

    @pytest.mark.parametrize("seed", [-1, 2**63, True, 1.0, np.int64(3), "3", None])
    def test_seed_outside_the_file_field_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed="):
            BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**63 - 1])
    def test_seed_range_ends_save_and_load(self, small_set, tmp_path, seed):
        params = BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=seed)
        save_index(build_index(small_set, params), tmp_path / "idx.bin")
        assert load_index(tmp_path / "idx.bin").params == params


def one(values):
    """CSR pointers of a single segment over `values`."""
    return np.array([0, len(values)])


class TestQuantization:
    def test_known_example(self):
        s = SparseVector(np.array([0, 1]), np.array([0.1, 0.6]))
        codes, m, delta = quantize_summary(one(s.values), s.values)
        m, delta = m[0], delta[0]
        recon = dequantize(codes, m, delta)
        assert m == pytest.approx(0.1)
        assert delta == pytest.approx((np.float32(0.6) - np.float32(0.1)) / 256.0, rel=1e-5)
        assert codes.tolist() == [0, 255]
        assert recon[1] == pytest.approx(0.1 + 255 * delta)
        # the maximum reconstructs within one quantization step
        assert abs(recon[1] - float(np.float32(0.6))) <= delta

    def test_constant_summary_has_zero_delta(self):
        s = SparseVector(np.array([2, 9]), np.array([0.4, 0.4]))
        codes, m, delta = quantize_summary(one(s.values), s.values)
        assert delta[0] == 0.0
        assert codes.tolist() == [0, 0]
        assert dequantize(codes, m[0], delta[0])[0] == pytest.approx(float(np.float32(0.4)))

    def test_error_bounded_by_delta(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_vector(rng, 300, 40)
            codes, m, delta = quantize_summary(one(s.values), s.values)
            err = np.abs(dequantize(codes, m[0], delta[0]) - s.values.astype(np.float64))
            assert np.all(err <= delta[0] + 1e-12)

    def test_empty_summary_rejected(self):
        empty = SparseVector(np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float32))
        with pytest.raises(ValueError):
            quantize_summary(one(empty.values), empty.values)

    def test_two_segments_equal_each_alone(self):
        rng = np.random.default_rng(12)
        a, b = random_vector(rng, 300, 40), random_vector(rng, 300, 7)
        b = SparseVector(b.dims, np.full(b.nnz, 0.3))  # one constant segment
        codes, m, delta = quantize_summary([0, a.nnz, a.nnz + b.nnz], np.concatenate((a.values, b.values)))
        alone = [quantize_summary(one(s.values), s.values) for s in (a, b)]
        assert np.array_equal(codes, np.concatenate([c for c, _, _ in alone]))
        assert np.array_equal(m, np.concatenate([m_i for _, m_i, _ in alone]))
        assert np.array_equal(delta, np.concatenate([d_i for _, _, d_i in alone]))
        assert delta[1] == 0 and m.dtype == delta.dtype == np.float32 and codes.dtype == np.uint8


def summary_vectors(rows, labels):
    """summarize's CSR output as one SparseVector per group."""
    indptr, dims, values = summarize(rows.indptr, rows.indices, rows.data, labels)
    return [SparseVector(dims[s:e], values[s:e]) for s, e in zip(indptr[:-1], indptr[1:])]


def same(values):
    """One label for every row of `values`."""
    return np.zeros(len(values), dtype=np.int64)


class TestSummarize:
    def test_coordinatewise_max_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        members = [random_vector(rng, 40, 10) for _ in range(6)]
        [s] = summary_vectors(csr_rows(40, members), same(members))
        dense_max = np.max([m.to_dense(40) for m in members], axis=0)
        np.testing.assert_array_equal(s.to_dense(40).astype(np.float32), dense_max.astype(np.float32))

    def test_summary_score_dominates_members(self):
        rng = np.random.default_rng(13)
        members = [random_vector(rng, 40, 10) for _ in range(6)]
        [s] = summary_vectors(csr_rows(40, members), same(members))
        for _ in range(10):
            q = random_vector(rng, 40, 8)
            bound = dot(s, q)
            for m in members:
                assert bound >= dot(m, q) - 1e-9

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="empty list"):
            summary_vectors(csr_rows(40, []), same([]))

    def test_two_segments_equal_each_alone(self):
        rng = np.random.default_rng(14)
        members = [random_vector(rng, 40, 10) for _ in range(7)]
        # the groups interleave: a max does not depend on row order
        labels = np.array([0, 1, 0, 0, 1, 0, 1])
        both = summary_vectors(csr_rows(40, members), labels)
        groups = [[m for m, g in zip(members, labels) if g == label] for label in (0, 1)]
        alone = [summary_vectors(csr_rows(40, group), same(group)) for group in groups]
        assert both == [s for [s] in alone]


class TestClustering:
    def _members(self, n, seed):
        rng = np.random.default_rng(seed)
        return csr_rows(30, [random_vector(rng, 30, 6) for _ in range(n)])

    def test_partition_covers_everything_once(self):
        members = self._members(40, 14)
        clusters = clusters_of(members, beta=0.2, seed=[0, 0])
        flat = sorted(p for cl in clusters for p in cl)
        assert flat == list(range(40))

    def test_labels_number_the_chosen_centroids_in_order(self):
        members = self._members(40, 23)  # one of its 8 centroids is chosen by no row
        rng = np.random.default_rng([0, 0])
        rows = members.astype(np.float64)
        centroids = rows[np.sort(rng.choice(40, size=8, replace=False))]
        assign = np.argmax((rows @ centroids.T).toarray(), axis=1)
        labels = cluster_labels(members, beta=0.2, seed=[0, 0])
        assert labels.max() == 6
        assert labels.tolist() == np.unique(assign, return_inverse=True)[1].tolist()

    def test_single_centroid(self):
        members = self._members(5, 15)
        assert clusters_of(members, beta=0.05, seed=[0, 0]) == [list(range(5))]

    def test_deterministic(self):
        members = self._members(40, 16)
        a = clusters_of(members, beta=0.3, seed=[7, 3])
        b = clusters_of(members, beta=0.3, seed=[7, 3])
        assert a == b

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            clusters_of(csr_rows(30, []), beta=0.2, seed=[0, 0])

    @pytest.mark.parametrize("entries", [1, 2**12, sparsemips.index.SCORE_ENTRIES])
    def test_score_blocks_change_no_label(self, monkeypatch, entries):
        """Rows scored one at a time, a few at a time, and in the module's
        blocks, which split hub_collection's list of every row (dim 110) in
        three, against all rows at once."""
        rows = hub_collection().scipy64()
        csc = rows.tocsc()
        csc.sort_indices()

        def labels():
            return [cluster_labels(rows[csc.indices[csc.indptr[i]:csc.indptr[i + 1]]], 0.2, [0, i]).tolist()
                    for i in (0, 1, 110)]

        monkeypatch.setattr(sparsemips.index, "SCORE_ENTRIES", 2**62)
        whole = labels()
        monkeypatch.setattr(sparsemips.index, "SCORE_ENTRIES", entries)
        assert labels() == whole


class TestBuildIndex:
    def test_lists_follow_the_set_sketch(self, golden_set):
        index = build_index(golden_set, BuildParams(alpha=0.4, beta=0.3, gamma=1.0, quantize=False))
        # dimension 0 of the golden matrix keeps exactly rows 1 and 4
        assert list_members(index, 0) == [1, 4]

    def test_full_alpha_lists_cover_all_nonzeros(self, small_set):
        index = build_index(small_set, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        csc = small_set.scipy64().tocsc()
        for i in range(small_set.dim):
            expected = sorted(csc.indices[csc.indptr[i]:csc.indptr[i + 1]].tolist())
            assert list_members(index, i) == expected

    def test_forward_index_keeps_originals(self, small_set):
        index = build_index(small_set, BuildParams(alpha=0.5, beta=0.2, gamma=0.8))
        assert index.forward == small_set

    def test_unquantized_summaries_dominate_members(self, small_set):
        # alpha=1 and gamma=1 keep summaries fully conservative: the summary
        # dominates every member coordinatewise
        index = build_index(small_set, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        for b in range(index.num_blocks):
            sdims, svals = summary_of(index, b)
            dense = np.zeros(small_set.dim)
            dense[sdims] = svals
            for j in members_of(index, b).tolist():
                v = small_set.vector(j)
                assert np.all(dense[v.dims] >= v.values.astype(np.float64) - 1e-9)

    def test_empty_collection_rejected(self):
        from sparsemips import VectorSet

        empty = VectorSet.from_vectors(4, [])
        with pytest.raises(ValueError):
            build_index(empty, BuildParams(alpha=0.5, beta=0.2, gamma=0.8))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_hub_collection_spans_the_piece_cases(self, alpha):
        """Empty lists, a list longer than a piece, and pieces of two or more lists."""
        weights = list_weights(set_alpha_mss(hub_collection(), alpha))
        assert weights.min() == 0
        assert weights.max() > sparsemips.index.PIECE_ENTRIES >= 2 * weights[weights < weights.max()].max()

    @pytest.mark.parametrize("alpha, gamma, quantize, piece",
                             with_piece_sizes([(0.5, 0.7, True), (0.5, 0.7, False), (1.0, 1.0, False)]))
    def test_build_matches_per_block_reference(self, piece_entries, alpha, gamma, quantize, piece):
        """Piece boundaries never reach the index.  The arrays the kernels
        read are held in index_dtype, int32 for every count here."""
        piece_entries(piece)
        params = BuildParams(alpha=alpha, beta=0.2, gamma=gamma, quantize=quantize, seed=2)
        index = build_index(hub_collection(), params)
        expected = hub_reference(params)
        for name, want in expected.items():
            got = getattr(index, name)
            want_dtype = np.int32 if name in KERNEL_ARRAYS else want.dtype
            assert got.dtype == want_dtype, name
            assert np.array_equal(got, want), name

    def test_builds_no_sparse_vector(self, medium_set, monkeypatch):
        built = []
        original = SparseVector.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(SparseVector, "__post_init__", counted)
        build_index(medium_set, BuildParams(alpha=0.5, beta=0.2, gamma=0.7))
        assert built == []

    def test_scipy_matrices_do_not_grow_with_the_list_count(self, piece_entries, monkeypatch):
        """No scipy CSR or CSC is built, sliced or multiplied per list: at one
        list per piece, a set of ~400 lists makes as many matrices as one of 20."""
        sets = [random_collection(300, dim, 6, seed=70) for dim in (20, 400)]
        lists = [np.count_nonzero(np.bincount(vset.indices)) for vset in sets]
        assert lists[1] > 10 * lists[0]
        made = []
        for cls in (sp.csr_matrix, sp.csc_matrix):
            init = cls.__init__

            def counted(self, *args, init=init, **kwargs):
                made.append(type(self))
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        piece_entries(1)
        counts = []
        for vset in sets:
            made.clear()
            build_index(vset, BuildParams(alpha=0.5, beta=0.2, gamma=0.7))
            counts.append(len(made))
        assert counts[0] == counts[1]


@functools.cache
def hub_reference(params):
    return per_block_build(hub_collection(), params)


def per_block_build(vset, params):
    """The index arrays built one summary SparseVector per block: max, top mass, 8 bits."""
    sketched = set_alpha_mss(vset, params.alpha).scipy64()
    csc = sketched.tocsc()
    csc.sort_indices()
    blocks_per_list, members, summaries, quantized = [], [], [], []
    for i in range(vset.dim):
        ids = csc.indices[csc.indptr[i]:csc.indptr[i + 1]]
        clusters = clusters_of(sketched[ids], params.beta, [params.seed, i]) if ids.size else []
        blocks_per_list.append(len(clusters))
        for cl in clusters:
            rows = sketched[ids[cl]]
            dims, position = np.unique(rows.indices, return_inverse=True)
            maxima = np.zeros(dims.size)
            np.maximum.at(maxima, position, rows.data)
            s = SparseVector(dims, maxima)
            order = np.argsort(-s.values, kind="stable")
            csum = np.cumsum(s.values[order].astype(np.float64))
            target = (params.gamma - 1e-6) * csum[-1] if params.gamma < 1 else np.inf  # gamma=1 keeps all
            keep = np.sort(order[: int(np.searchsorted(csum, target)) + 1])
            s = SparseVector(s.dims[keep], s.values[keep])
            vals, m, delta = s.values.astype(np.float64), 0.0, 1.0
            if params.quantize:
                m = float(np.float32(vals.min()))
                delta64 = (vals.max() - m) / 256.0
                delta = np.float32(delta64)
                if float(delta) < delta64:
                    delta = np.nextafter(delta, np.float32(np.inf), dtype=np.float32)
                delta = float(delta)
                codes = np.floor((vals - m) / delta) if delta else np.zeros(vals.size)
                vals = np.clip(codes, 0, 255).astype(np.uint8)
            members.append(ids[cl])
            summaries.append(s)
            quantized.append((vals if params.quantize else s.values, m, delta))
    # every summary entry as (dim, block, value), stored dim-major, blocks ascending
    dims = np.concatenate([s.dims for s in summaries])
    blocks = np.repeat(np.arange(len(summaries)), [s.nnz for s in summaries]).astype(np.uint32)
    by_dim = np.lexsort((blocks, dims))
    return {
        "list_ptr": np.cumsum([0] + blocks_per_list),
        "block_ptr": np.cumsum([0] + [ids.size for ids in members]),
        "member_ids": np.concatenate(members).astype(np.uint32),
        "summary_ptr": np.concatenate(([0], np.cumsum(np.bincount(dims, minlength=vset.dim)))),
        "summary_blocks": blocks[by_dim],
        "summary_values": np.concatenate([values for values, _, _ in quantized])[by_dim],
        "m": np.array([m for _, m, _ in quantized], dtype=np.float32),
        "delta": np.array([delta for _, _, delta in quantized], dtype=np.float32),
    }


class TestIndexSerialization:
    @pytest.mark.parametrize("quantize", [True, False])
    def test_round_trip(self, small_set, tmp_path, quantize):
        params = BuildParams(alpha=0.6, beta=0.25, gamma=0.8, quantize=quantize, seed=9)
        index = build_index(small_set, params)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.params == params
        assert loaded.forward == small_set
        for name in ("list_ptr", "block_ptr", "member_ids", "summary_ptr", "summary_blocks"):
            assert np.array_equal(getattr(index, name), getattr(loaded, name))
        for b in range(index.num_blocks):
            da, va = summary_of(index, b)
            db, vb = summary_of(loaded, b)
            assert np.array_equal(da, db)
            assert np.array_equal(va, vb)

    def test_rebuild_is_byte_identical(self, small_set, tmp_path):
        params = BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(build_index(small_set, params), a)
        save_index(build_index(small_set, params), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "idx.bin"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
        with pytest.raises(HeaderError):
            load_index(path)


# every array a BlockedIndex holds: the file's eight and the derived directory
INDEX_ARRAYS = ("list_ptr", "block_ptr", "member_ids", "summary_ptr", "summary_blocks", "summary_values", "m",
                "delta", "summary_key", "summary_runs")


def copied_bytes(monkeypatch):
    """Spy on vectors._writable_below: the size of every view that
    _as_readonly copies, in the list returned."""
    copied, original = [], sparsemips.vectors._writable_below

    def spy(a):
        writable = original(a)
        if writable:
            copied.append(a.nbytes)
        return writable

    monkeypatch.setattr(sparsemips.vectors, "_writable_below", spy)
    return copied


class TestReadOnlyIndex:
    """search's compiled kernels check no bounds, so an index, built or
    loaded, holds all its arrays read-only; of the built arrays only the
    growable buffers behind m and delta are copied to get there, and
    block_ptr's is cast to the index dtype once."""

    @pytest.mark.parametrize("quantize", [True, False])
    def test_built_and_loaded_arrays_are_read_only(self, medium_set, tmp_path, quantize, monkeypatch):
        copied = copied_bytes(monkeypatch)
        built = build_index(medium_set, BuildParams(alpha=0.6, beta=0.2, gamma=0.8, quantize=quantize, seed=7))
        assert 0 < sum(copied) <= built.m.nbytes + built.delta.nbytes
        save_index(built, tmp_path / "index.bin")
        copied.clear()
        loaded = load_index(tmp_path / "index.bin")
        assert copied == []
        for index in (built, loaded):
            for name in INDEX_ARRAYS:
                assert not getattr(index, name).flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                index.member_ids[0] = len(index)

    def test_owned_arrays_are_flagged_not_copied(self, small_set):
        built = build_index(small_set, BuildParams(alpha=0.6, beta=0.2, gamma=0.8, seed=7))
        member_ids = np.array(built.member_ids, dtype=np.uint32)
        index = sparsemips.index.BlockedIndex(built.params, built.forward, built.list_ptr, built.block_ptr,
                                              member_ids, built.summary_ptr, built.summary_blocks,
                                              built.summary_values, built.m, built.delta)
        assert np.shares_memory(index.member_ids, member_ids) and not member_ids.flags.writeable
        assert np.shares_memory(index.summary_blocks, built.summary_blocks)

    def test_writing_a_built_index_cannot_crash_search(self):
        """An entry written out of range would reach csc_matvec unchecked:
        run in a subprocess, so a crash fails this test instead of ending
        the run."""
        code = """if True:
            from sparsemips import BuildParams, SearchParams, build_index, search
            from sparsemips.synth import zipfian_clustered_collection
            docs = zipfian_clustered_collection(300, 50, 8, n_clusters=5, seed=[1, 0])[0]
            index = build_index(docs, BuildParams(alpha=1.0, beta=0.1, gamma=1.0, quantize=False))
            before = search(index, None, docs.vector(0), SearchParams(k=5)).pairs()
            try:
                index.summary_blocks[:] = 2_000_000_000
            except ValueError as exc:
                print(exc)
            print(search(index, None, docs.vector(0), SearchParams(k=5)).pairs() == before)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["assignment destination is read-only", "True"]


def directory_reference(index):
    """{(d, l): (start, stop)} of every (column, list) pair with a nonempty
    run, found by a binary search of each column for each list's block range."""
    runs = {}
    for d in range(index.dim):
        s, e = int(index.summary_ptr[d]), int(index.summary_ptr[d + 1])
        column = index.summary_blocks[s:e]
        for lst in range(index.dim):
            lo, hi = (s + int(column.searchsorted(index.list_ptr[i])) for i in (lst, lst + 1))
            if hi > lo:
                runs[d, lst] = lo, hi
    return runs


class TestSummaryDirectory:
    @staticmethod
    def collection(seed):
        """Dims 0..29 hold most entries and dims 30..34 a few docs each, so
        columns hold blocks of many lists; dims 35..39 hold no entry, so their
        lists and columns are empty."""
        common = list(random_collection(150, 30, 8, seed=seed))
        rare = [SparseVector(v.dims + 30, v.values) for v in random_collection(6, 5, 2, seed=seed + 1)]
        return VectorSet.from_vectors(40, common + rare)

    @pytest.fixture(scope="class", params=[(True, 61), (False, 62), (True, 63), (False, 64)],
                    ids=["quantized-61", "float32-62", "quantized-63", "float32-64"])
    def index(self, request):
        quantize, seed = request.param
        gamma = 0.7 if quantize else 1.0
        return build_index(self.collection(seed), BuildParams(alpha=0.6, beta=0.2, gamma=gamma,
                                                              quantize=quantize, seed=seed))

    def test_runs_equal_a_search_of_each_column(self, index):
        sizes = np.diff(index.list_ptr)
        assert (sizes == 0).any() and (np.diff(index.summary_ptr) == 0).any()
        want = directory_reference(index)
        assert any(sum(d == e for d, _ in want) > 1 for e in range(index.dim))  # a column of several lists
        key, runs = index.summary_key, index.summary_runs
        assert key.dtype == np.uint32 and runs.dtype == np.int32 and runs.size == key.size + 1
        assert np.all(np.diff(key.astype(np.int64)) > 0)
        assert runs[0] == 0 and runs[-1] == index.summary_blocks.size
        got = {divmod(int(k), index.dim): (int(s), int(e)) for k, s, e in zip(key, runs[:-1], runs[1:])}
        # the present pairs' runs, and no other pair: an absent pair's run is empty
        assert got == want

    def test_reloaded_index_derives_the_same_directory(self, index, tmp_path):
        save_index(index, tmp_path / "index.bin")
        loaded = load_index(tmp_path / "index.bin")
        for name in ("summary_key", "summary_runs"):
            got, want = getattr(loaded, name), getattr(index, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_save_writes_only_the_file_arrays(self, index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(index, path)
        data = path.read_bytes()
        sections = TestIndexFileRobustness.sections(index)
        offset, nbytes = sections["delta"]
        assert len(data) == offset + nbytes
        fwd = index.forward
        arrays = [fwd.indptr, fwd.indices, fwd.values] + [getattr(index, name) for name in SECTIONS[3:]]
        dtypes = ["<u8", "<u4", "<f4", "<i8", "<i8", "<u4", "<i8", "<u4",
                  "u1" if index.params.quantize else "<f4", "<f4", "<f4"]
        for name, array, dtype in zip(SECTIONS, arrays, dtypes):
            offset, nbytes = sections[name]
            assert data[offset:offset + nbytes] == np.asarray(array, dtype=dtype).tobytes(), name

    def test_key_dtype_widens_when_dim_squared_reaches_2_32(self):
        assert sparsemips.index.key_dtype(65535) == np.uint32  # 65535**2 < 2**32
        assert sparsemips.index.key_dtype(65536) == np.uint64
        assert sparsemips.index.key_dtype(2**32) == np.uint64

    def test_index_dtype_widens_at_2_31(self):
        assert sparsemips.vectors.index_dtype(0) == np.int32
        assert sparsemips.vectors.index_dtype(2**31 - 1) == np.int32
        assert sparsemips.vectors.index_dtype(2**31) == np.int64

    def test_loaded_kernel_arrays_view_the_u32_file_arrays(self, index, tmp_path, monkeypatch):
        """Built or loaded, the index holds each array the kernels read once,
        as int32: the file's u32 arrays are viewed, and only block_ptr (i64)
        is copied."""
        save_index(index, tmp_path / "index.bin")
        read = file_arrays(monkeypatch)
        loaded = load_index(tmp_path / "index.bin")
        for each in (index, loaded):
            assert all(getattr(each, name).dtype == np.int32 for name in KERNEL_ARRAYS)
        for name in ("block_ptr", "member_ids", "summary_blocks"):
            got, want = getattr(loaded, name), read[name]
            assert np.array_equal(got, want), name
            assert np.shares_memory(got, want) == (name != "block_ptr"), name

    def test_int64_indices_leave_no_u32_twin(self, index, tmp_path, monkeypatch):
        """An index of 2**31 or more entries holds int64 copies in place of
        the file's u32 arrays, not beside them."""
        save_index(index, tmp_path / "index.bin")
        monkeypatch.setattr(sparsemips.index, "index_dtype", lambda count: np.dtype(np.int64))
        read = file_arrays(monkeypatch)
        loaded = load_index(tmp_path / "index.bin")
        for name in KERNEL_ARRAYS:
            got = getattr(loaded, name)
            assert got.dtype == np.int64 and np.array_equal(got, getattr(index, name)), name
        for name in ("member_ids", "summary_blocks"):
            assert not np.shares_memory(getattr(loaded, name), read[name]), name
        u32 = {name for name, a in vars(loaded).items() if getattr(a, "dtype", None) == np.uint32}
        assert u32 == {"summary_key"}  # the directory's keys, which no kernel reads

    def test_as_signed_copies_a_big_endian_array(self):
        a = np.array([0, 7, 2**31 - 1], dtype=">u4")
        got = sparsemips.vectors._as_signed(a, np.dtype(np.int32))
        assert got.dtype == np.int32 and got.dtype.isnative
        assert not np.shares_memory(got, a) and got.tolist() == a.tolist()
        assert not got.flags.writeable and a.flags.writeable  # the one cast copy is flagged

    def test_u64_keys_find_the_same_runs_and_results(self, index, monkeypatch):
        monkeypatch.setattr(sparsemips.index, "key_dtype", lambda dim: np.dtype(np.uint64))
        wide = build_index(index.forward, index.params)
        assert wide.summary_key.dtype == np.uint64
        assert np.array_equal(wide.summary_key, index.summary_key)
        assert np.array_equal(wide.summary_runs, index.summary_runs)
        rng = np.random.default_rng(65)
        params = SearchParams(k=5, alpha_q=0.8, heap_factor=0.9)
        for _ in range(10):
            q = random_vector(rng, index.dim, 8)
            got, got_stats = search(wide, None, q, params, return_stats=True)
            want, want_stats = search(index, None, q, params, return_stats=True)
            assert got == want and got_stats == want_stats

    @pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "float32"])
    def test_no_summary_entries(self, quantize):
        empty = SparseVector(np.empty(0, np.uint32), np.empty(0, np.float32))
        index = build_index(VectorSet.from_vectors(12, [empty] * 4),
                            BuildParams(alpha=0.5, beta=0.5, gamma=0.5, quantize=quantize))
        assert index.num_blocks == 0
        assert index.summary_key.size == 0 and index.summary_key.dtype == np.uint32
        assert index.summary_runs.tolist() == [0]
        q = SparseVector(np.array([2, 7]), np.array([0.5, 1.0]))
        assert search(index, None, q, SearchParams(k=3)) == exact_topk(index.forward, q, 3)


# the index arrays that search's compiled kernels read
KERNEL_ARRAYS = ("block_ptr", "member_ids", "summary_blocks", "summary_runs")


def file_arrays(monkeypatch):
    """Record the arrays that load_index reads from its file, by section
    name, in the dict returned."""
    read, original = {}, sparsemips.index.read_record

    def recording(*args):
        head, arrays = original(*args)
        read.update(zip(SECTIONS, arrays))
        return head, arrays

    monkeypatch.setattr(sparsemips.index, "read_record", recording)
    return read


SECTIONS = [
    "forward indptr", "forward indices", "forward values", "list_ptr", "block_ptr",
    "member_ids", "summary_ptr", "summary_blocks", "summary_values", "m", "delta",
]


class TestIndexFileRobustness:
    @pytest.fixture
    def saved(self, small_set, tmp_path):
        index = build_index(small_set, BuildParams(alpha=0.6, beta=0.25, gamma=0.8, seed=9))
        path = tmp_path / "idx.bin"
        save_index(index, path)
        return index, path

    @staticmethod
    def sections(index):
        """{name: (offset, nbytes)} of each array, from the documented layout."""
        nrows, nnz, nb = len(index), index.forward.indices.size, index.num_blocks
        snnz = index.summary_blocks.size
        sizes = [
            8 * (nrows + 1), 4 * nnz, 4 * nnz, 8 * (index.dim + 1), 8 * (nb + 1),
            4 * index.member_ids.size, 8 * (index.dim + 1), 4 * snnz,
            snnz * (1 if index.params.quantize else 4), 4 * nb, 4 * nb,
        ]
        offsets = 8 + 36 + 48 + np.concatenate(([0], np.cumsum(sizes)))
        return {name: (int(o), n) for name, o, n in zip(SECTIONS, offsets, sizes)}

    def test_layout_matches_file_size(self, saved):
        index, path = saved
        offset, nbytes = self.sections(index)["delta"]
        assert path.stat().st_size == offset + nbytes

    def test_old_format_rejected(self, saved):
        _, path = saved
        path.write_bytes(b"SPMIDX01" + path.read_bytes()[8:])
        with pytest.raises(HeaderError):
            load_index(path)

    def test_block_major_format_rejected(self, saved):
        _, path = saved
        path.write_bytes(b"SPMIDX02" + path.read_bytes()[8:])
        with pytest.raises(HeaderError):
            load_index(path)

    @pytest.mark.parametrize("change", ["swap", "repeat"])
    def test_blocks_not_ascending_within_a_dim_rejected(self, saved, change):
        index, path = saved
        d = int(np.flatnonzero(np.diff(index.summary_ptr) >= 2)[0])
        s = int(index.summary_ptr[d])
        first, second = index.summary_blocks[s:s + 2]
        offset = self.sections(index)["summary_blocks"][0] + 4 * s
        data = bytearray(path.read_bytes())
        data[offset:offset + 8] = np.array([second, first] if change == "swap" else [first, first], np.uint32).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError, match="^summaries: indices must be strictly increasing"):
            load_index(path)

    @pytest.mark.parametrize("section", ["header"] + SECTIONS)
    def test_cut_inside_each_section(self, saved, section):
        index, path = saved
        offset, nbytes = (8, 36 + 48) if section == "header" else self.sections(index)[section]
        path.write_bytes(path.read_bytes()[:offset + nbytes // 2])
        with pytest.raises(TruncatedPayloadError):
            load_index(path)

    def test_trailing_bytes_rejected(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConsistencyError):
            load_index(path)

    def test_huge_length_field_rejected(self, saved):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[8 + 36 + 40:8 + 36 + 48] = np.uint64(2**60).tobytes()  # summary entries
        path.write_bytes(bytes(data))
        with pytest.raises(TruncatedPayloadError):
            load_index(path)

    @pytest.mark.parametrize("section", ["m", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_non_finite_quantization_rejected(self, saved, section, value):
        index, path = saved
        offset, _ = self.sections(index)[section]
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError):
            load_index(path)

    @pytest.mark.parametrize("field", [0, 1, 2])  # alpha, beta, gamma
    @pytest.mark.parametrize("value", [2.0, np.nan])
    def test_out_of_range_build_parameters_rejected(self, saved, field, value):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[8 + 8 * field:16 + 8 * field] = np.float64(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_index(path)

    @pytest.mark.parametrize("section, entry, error", [
        ("forward indptr", np.uint64(2**40), ConsistencyError),
        ("forward indices", np.uint32(2**31), ConsistencyError),
    ])
    def test_bad_forward_index_named(self, saved, section, entry, error):
        index, path = saved
        offset, nbytes = self.sections(index)[section]
        data = bytearray(path.read_bytes())
        at = offset + nbytes - entry.nbytes  # the last entry
        data[at:at + entry.nbytes] = entry.tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(error, match="^forward index: "):
            load_index(path)

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_bad_forward_values_named(self, saved, value):
        index, path = saved
        offset, nbytes = self.sections(index)["forward values"]
        data = bytearray(path.read_bytes())
        data[offset + nbytes - 4:offset + nbytes] = np.float32(value).tobytes()  # the last value
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError, match="^forward index: values must be finite and strictly positive"):
            load_index(path)

    def test_forward_rows_out_of_order_rejected(self, saved):
        index, path = saved
        row = int(np.flatnonzero(index.forward.nnz_per_row() >= 2)[0])
        offset = self.sections(index)["forward indices"][0] + 4 * int(index.forward.indptr[row])
        data = bytearray(path.read_bytes())
        data[offset:offset + 8] = data[offset + 4:offset + 8] + data[offset:offset + 4]
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError, match="^forward index: indices must be strictly increasing"):
            load_index(path)

    @pytest.mark.parametrize("section, bound", [("member_ids", len), ("summary_blocks", lambda ix: ix.num_blocks)])
    def test_out_of_range_ids_rejected(self, saved, section, bound):
        index, path = saved
        offset, _ = self.sections(index)[section]
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = np.uint32(bound(index)).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError):
            load_index(path)

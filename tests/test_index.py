import numpy as np
import pytest

from sparsemips import (
    BuildParams,
    SparseVector,
    VectorSet,
    build_index,
    cluster_list,
    dequantize,
    dot,
    load_index,
    quantize_summary,
    save_index,
    set_alpha_mss,
    summarize,
)
from sparsemips.storage import ConsistencyError, HeaderError, TruncatedPayloadError
from sparsemips.synth import random_collection, random_vector
from conftest import summary_of


def csr_rows(dim, vectors):
    return VectorSet.from_vectors(dim, vectors).to_scipy()


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


def summary_vectors(rows, ptr):
    """summarize's CSR output as one SparseVector per group."""
    indptr, dims, values = summarize(rows, ptr)
    return [SparseVector(dims[s:e], values[s:e]) for s, e in zip(indptr[:-1], indptr[1:])]


class TestSummarize:
    def test_coordinatewise_max_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        members = [random_vector(rng, 40, 10) for _ in range(6)]
        [s] = summary_vectors(csr_rows(40, members), one(members))
        dense_max = np.max([m.to_dense(40) for m in members], axis=0)
        np.testing.assert_array_equal(s.to_dense(40, dtype=np.float32), dense_max.astype(np.float32))

    def test_summary_score_dominates_members(self):
        rng = np.random.default_rng(13)
        members = [random_vector(rng, 40, 10) for _ in range(6)]
        [s] = summary_vectors(csr_rows(40, members), one(members))
        for _ in range(10):
            q = random_vector(rng, 40, 8)
            bound = dot(s, q)
            for m in members:
                assert bound >= dot(m, q) - 1e-9

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            summarize(csr_rows(40, []), one([]))

    def test_two_segments_equal_each_alone(self):
        rng = np.random.default_rng(14)
        members = [random_vector(rng, 40, 10) for _ in range(7)]
        both = summary_vectors(csr_rows(40, members), [0, 4, 7])
        alone = [summary_vectors(csr_rows(40, group), one(group)) for group in (members[:4], members[4:])]
        assert both == [s for [s] in alone]


class TestClustering:
    def _members(self, n, seed):
        rng = np.random.default_rng(seed)
        return csr_rows(30, [random_vector(rng, 30, 6) for _ in range(n)])

    def test_partition_covers_everything_once(self):
        members = self._members(40, 14)
        clusters = cluster_list(members, beta=0.2, seed=[0, 0])
        flat = sorted(p for cl in clusters for p in cl)
        assert flat == list(range(40))

    def test_single_centroid(self):
        members = self._members(5, 15)
        assert cluster_list(members, beta=0.05, seed=[0, 0]) == [list(range(5))]

    def test_deterministic(self):
        members = self._members(40, 16)
        a = cluster_list(members, beta=0.3, seed=[7, 3])
        b = cluster_list(members, beta=0.3, seed=[7, 3])
        assert a == b

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            cluster_list(csr_rows(30, []), beta=0.2, seed=[0, 0])


class TestBuildIndex:
    def test_lists_follow_the_set_sketch(self, golden_set):
        index = build_index(golden_set, BuildParams(alpha=0.4, beta=0.3, gamma=1.0, quantize=False))
        # dimension 0 of the golden matrix keeps exactly rows 1 and 4
        assert list_members(index, 0) == [1, 4]

    def test_full_alpha_lists_cover_all_nonzeros(self, small_set):
        index = build_index(small_set, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        csc = small_set.to_scipy().tocsc()
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
            for j in index.block(b).ids.tolist():
                v = small_set.vector(j)
                assert np.all(dense[v.dims] >= v.values.astype(np.float64) - 1e-9)

    def test_empty_collection_rejected(self):
        from sparsemips import VectorSet

        empty = VectorSet.from_vectors(4, [])
        with pytest.raises(ValueError):
            build_index(empty, BuildParams(alpha=0.5, beta=0.2, gamma=0.8))

    @pytest.mark.parametrize("alpha, gamma, quantize", [(0.5, 0.7, True), (0.5, 0.7, False), (1.0, 1.0, False)])
    def test_build_matches_per_block_reference(self, medium_set, alpha, gamma, quantize):
        params = BuildParams(alpha=alpha, beta=0.2, gamma=gamma, quantize=quantize, seed=2)
        index = build_index(medium_set, params)
        expected = per_block_build(medium_set, params)
        for name, want in expected.items():
            got = getattr(index, name)
            assert got.dtype == want.dtype, name
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


def per_block_build(vset, params):
    """The index arrays built one summary SparseVector per block: max, top mass, 8 bits."""
    sketched = set_alpha_mss(vset, params.alpha).to_scipy(dtype=np.float64)
    csc = sketched.tocsc()
    csc.sort_indices()
    blocks_per_list, members, summaries, quantized = [], [], [], []
    for i in range(vset.dim):
        ids = csc.indices[csc.indptr[i]:csc.indptr[i + 1]]
        clusters = cluster_list(sketched[ids], params.beta, [params.seed, i]) if ids.size else []
        blocks_per_list.append(len(clusters))
        for cl in clusters:
            rows = sketched[ids[cl]]
            dims, position = np.unique(rows.indices, return_inverse=True)
            maxima = np.zeros(dims.size)
            np.maximum.at(maxima, position, rows.data)
            s = SparseVector(dims, maxima)
            order = np.argsort(-s.values, kind="stable")
            csum = np.cumsum(s.values[order].astype(np.float64))
            keep = np.sort(order[: int(np.searchsorted(csum, (params.gamma - 1e-6) * csum[-1])) + 1])
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
    return {
        "list_ptr": np.cumsum([0] + blocks_per_list),
        "block_ptr": np.cumsum([0] + [ids.size for ids in members]),
        "member_ids": np.concatenate(members).astype(np.uint32),
        "summary_ptr": np.cumsum([0] + [s.nnz for s in summaries]),
        "summary_dims": np.concatenate([s.dims for s in summaries]),
        "summary_values": np.concatenate([values for values, _, _ in quantized]),
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
        for name in ("list_ptr", "block_ptr", "member_ids", "summary_ptr", "summary_dims"):
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


SECTIONS = [
    "forward indptr", "forward indices", "forward values", "list_ptr", "block_ptr",
    "member_ids", "summary_ptr", "summary_dims", "summary_values", "m", "delta",
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
        snnz = index.summary_dims.size
        sizes = [
            8 * (nrows + 1), 4 * nnz, 4 * nnz, 8 * (index.dim + 1), 8 * (nb + 1),
            4 * index.member_ids.size, 8 * (nb + 1), 4 * snnz,
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

    @pytest.mark.parametrize("section, bound", [("member_ids", len), ("summary_dims", lambda ix: ix.dim)])
    def test_out_of_range_ids_rejected(self, saved, section, bound):
        index, path = saved
        offset, _ = self.sections(index)[section]
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = np.uint32(bound(index)).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError):
            load_index(path)

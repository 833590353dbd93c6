import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from sparsemips import (
    BuildParams,
    KnnGraph,
    ResultList,
    SearchParams,
    SparseVector,
    VectorSet,
    accuracy_at_k,
    alpha_mss,
    bench,
    build_exact_graph,
    build_index,
    dot,
    graph_size_bits,
    ip_preservation,
    load_collection,
    load_index,
    lp_norm,
    mass_curve,
    norm_ratio_cdf,
    restrict,
    save_collection,
    save_ground_truth,
    save_index,
    set_alpha_mss,
)
from sparsemips.graph import check_kappa
from sparsemips.vectors import SparseVectorError, _gather_rows, _gathered, check_int
from sparsemips.synth import random_collection, random_vector


class TestSparseVector:
    def test_basic_construction(self):
        v = SparseVector(np.array([1, 4, 7]), np.array([0.5, 0.25, 1.0]))
        assert v.nnz == 3
        assert v.dims.dtype == np.uint32
        assert v.values.dtype == np.float32

    def test_rejects_unsorted_dims(self):
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([4, 1]), np.array([0.5, 0.5]))

    def test_rejects_duplicate_dims(self):
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([4, 4]), np.array([0.5, 0.5]))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([1, 2]), np.array([0.5, 0.0]))
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([1]), np.array([-0.5]))
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([1]), np.array([np.nan]))
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([1, 2]), np.array([1.0, np.inf]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SparseVectorError):
            SparseVector(np.array([1, 2]), np.array([0.5]))

    def test_arrays_are_readonly(self):
        v = SparseVector(np.array([1]), np.array([0.5]))
        with pytest.raises(ValueError):
            v.dims[0] = 2
        with pytest.raises(ValueError):
            v.values[0] = 2.0

    def test_from_pairs_sorts(self):
        v = SparseVector.from_pairs([(7, 0.1), (2, 0.4)])
        assert v.pairs() == [(2, pytest.approx(0.4)), (7, pytest.approx(0.1))]

    def test_to_dense_round_trip(self):
        v = SparseVector(np.array([0, 3]), np.array([0.5, 0.75]))
        dense = v.to_dense(5)
        assert dense.tolist() == [0.5, 0.0, 0.0, 0.75, 0.0]

    def test_equality_and_hash(self):
        a = SparseVector(np.array([1]), np.array([0.5]))
        b = SparseVector(np.array([1]), np.array([0.5]))
        c = SparseVector(np.array([2]), np.array([0.5]))
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestDotAndNorms:
    def test_dot_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = random_vector(rng, 60, 12)
            v = random_vector(rng, 60, 12)
            expected = float(u.to_dense(60) @ v.to_dense(60))
            assert dot(u, v) == pytest.approx(expected, rel=1e-12)

    def test_dot_disjoint_support_is_zero(self):
        u = SparseVector(np.array([0, 1]), np.array([1.0, 1.0]))
        v = SparseVector(np.array([2, 3]), np.array([1.0, 1.0]))
        assert dot(u, v) == 0.0

    def test_lp_norm_matches_numpy(self):
        rng = np.random.default_rng(1)
        u = random_vector(rng, 100, 30)
        dense = u.to_dense(100)
        assert lp_norm(u, 1) == pytest.approx(np.linalg.norm(dense, 1), rel=1e-12)
        assert lp_norm(u, 2) == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)

    def test_lp_norm_rejects_other_orders(self):
        u = SparseVector(np.array([1]), np.array([0.5]))
        with pytest.raises(ValueError):
            lp_norm(u, 3)

    def test_restrict(self):
        u = SparseVector(np.array([1, 3, 5]), np.array([0.1, 0.2, 0.3]))
        r = restrict(u, [3, 5, 9])
        assert r.pairs() == [(3, pytest.approx(0.2)), (5, pytest.approx(0.3))]


class TestVectorSet:
    def test_round_trip_through_vectors(self, small_set):
        rebuilt = VectorSet.from_vectors(small_set.dim, list(small_set))
        assert rebuilt == small_set

    @pytest.mark.parametrize("rows, indptr", [
        ([], [0]),
        ([[]], [0, 0]),
        ([[], [1, 3], [], [], [0], []], [0, 0, 2, 2, 2, 3, 3]),
    ], ids=["no-rows", "one-empty-row", "empty-rows-between"])
    def test_from_vectors_arrays(self, rows, indptr):
        vectors = [SparseVector(dims, np.arange(1.0, len(dims) + 1)) for dims in rows]
        vs = VectorSet.from_vectors(4, vectors)
        assert vs.indptr.dtype == np.int32 and vs.indptr.tolist() == indptr
        assert vs.indices.dtype == np.int32 and vs.indices.tolist() == [d for dims in rows for d in dims]
        assert vs.values.dtype == np.float64 and list(vs) == vectors

    def test_scipy_round_trip(self, small_set):
        assert VectorSet.from_scipy(small_set.scipy64()) == small_set

    def test_rejects_inconsistent_arrays(self):
        with pytest.raises(SparseVectorError):
            VectorSet(4, np.array([0, 2]), np.array([0]), np.array([1.0]))
        with pytest.raises(SparseVectorError):
            VectorSet(1, np.array([0, 1]), np.array([5]), np.array([1.0]))

    @pytest.mark.parametrize("indptr, indices, values", [
        ([0, 2], [0, 1], [1.0, np.nan]),
        ([0, 2], [0, 1], [1.0, np.inf]),
        ([0, 2], [0, 1], [1.0, 0.0]),
        ([0, 2], [0, 1], [1.0, -2.0]),
        ([0, 2], [1, 1], [1.0, 1.0]),
        ([0, 2], [2, 1], [1.0, 1.0]),
        ([0, 2, 1, 2], [0, 1], [1.0, 1.0]),  # decreasing indptr
    ])
    def test_rejects_what_sparse_vector_rejects(self, indptr, indices, values):
        with pytest.raises(SparseVectorError):
            VectorSet(4, np.array(indptr), np.array(indices), np.array(values))

    def test_from_scipy_rejects_negative_and_nan_values(self):
        with pytest.raises(SparseVectorError):
            VectorSet.from_scipy(np.array([[1, -2, 0], [0, np.nan, 3], [0.5, 0, 1]]))

    def test_nnz_per_row(self):
        vs = random_collection(10, 30, 6, seed=9)
        assert vs.nnz_per_row().tolist() == [v.nnz for v in vs]

    def test_from_scipy_leaves_the_callers_matrix_alone(self):
        mat = sp.csr_matrix((np.array([2.0, 0.0, 1.0]), np.array([3, 1, 0]), np.array([0, 3])), shape=(1, 4))
        vs = VectorSet.from_scipy(mat)
        assert mat.indices.tolist() == [3, 1, 0] and mat.data.tolist() == [2.0, 0.0, 1.0] and mat.nnz == 3
        assert vs.vector(0).pairs() == [(0, 1.0), (3, 2.0)]

    @pytest.mark.parametrize("j", [-1, -2, 2, 3])
    def test_vector_outside_the_ids_raises_index_error(self, j):
        vs = VectorSet(4, [0, 1, 2], [0, 3], [1.0, 2.0])
        with pytest.raises(IndexError, match=f"^vector {j} is out of range for 2 vectors$"):
            vs.vector(j)


    @pytest.mark.parametrize("wide", [False, True], ids=["int32", "int64"])
    def test_vector_equals_the_checked_vector_of_its_row(self, wide):
        """vector(j) is the vector SparseVector makes of the set's row: uint32
        dims, a view of int32 indices, float32 values, read-only."""
        vs = random_collection(300, 2**32 if wide else 50, 8, seed=10)
        rows = vs.scipy64()
        assert vs.indices.dtype == (np.int64 if wide else np.int32)
        for j in np.random.default_rng(11).integers(0, len(vs), 40).tolist():
            s, e = rows.indptr[j], rows.indptr[j + 1]
            got, want = vs.vector(j), SparseVector(rows.indices[s:e], rows.data[s:e])
            assert got == want
            for a, b in ((got.dims, want.dims), (got.values, want.values)):
                assert a.dtype == b.dtype and a.flags.c_contiguous and not a.flags.writeable


class TestOneCopy:
    """A VectorSet holds its rows once: scipy64() is the set itself."""

    @staticmethod
    def assert_one_copy(vs):
        csr = vs.scipy64()
        assert np.shares_memory(csr.indptr, vs.indptr)
        assert np.shares_memory(csr.indices, vs.indices) and np.shares_memory(csr.data, vs.values)
        assert csr.shape == (len(vs), vs.dim) and csr.dtype == np.float64

    def test_built_set(self, small_set):
        self.assert_one_copy(small_set)
        assert small_set.indices.dtype == small_set.indptr.dtype == np.int32

    def test_loaded_collection(self, small_set, tmp_path):
        save_collection(small_set, tmp_path / "docs.bin")
        loaded = load_collection(tmp_path / "docs.bin")
        self.assert_one_copy(loaded)
        assert loaded == small_set

    def test_loaded_forward_index(self, small_set, tmp_path):
        save_index(_tiny_index(small_set), tmp_path / "index.bin")
        forward = load_index(tmp_path / "index.bin").forward
        self.assert_one_copy(forward)
        assert forward == small_set

    def test_uint32_indices_are_viewed(self):
        indices = np.array([0, 3, 1], dtype=np.uint32)
        vs = VectorSet(4, [0, 2, 3], indices, [1.0, 2.0, 3.0])
        assert np.shares_memory(vs.indices, indices) and vs.indices.dtype == np.int32

    def test_int64_past_2_31(self, tmp_path):
        vs = VectorSet(2**32, [0, 1], [2**32 - 1], [1.5])
        assert vs.indptr.dtype == vs.indices.dtype == np.int64
        self.assert_one_copy(vs)
        assert vs.vector(0).pairs() == [(2**32 - 1, 1.5)]
        save_collection(vs, tmp_path / "wide.bin")
        loaded = load_collection(tmp_path / "wide.bin")
        assert loaded == vs and loaded.indices.dtype == np.int64

    def test_float64_values_are_rounded_through_float32(self):
        vs = VectorSet(2, [0, 1], [1], np.array([0.1]))
        assert vs.values.dtype == np.float64 and vs.values[0] == np.float64(np.float32(0.1))
        assert vs.values[0] != 0.1

    def test_value_that_rounds_to_zero_rejected(self):
        with pytest.raises(SparseVectorError):
            VectorSet(2, [0, 1], [1], np.array([1e-50]))

    def test_arrays_and_matrix_are_read_only(self, small_set):
        csr = small_set.scipy64()
        for a in (small_set.indptr, small_set.indices, small_set.values, csr.indptr, csr.indices, csr.data):
            assert not a.flags.writeable


class TestCheckedOnceThenReadOnly:
    """vectors._as_readonly holds no memory that the caller can still write:
    an input that owns its memory is flagged read-only in place, and a view
    of writable memory is copied first, so a check made on construction
    holds for the object's life."""

    def test_vector_set_from_slices_does_not_change_when_they_are_written(self):
        indptr, indices = np.array([0, 2, 4, 7], dtype=np.uint64), np.array([1, 3, 2, 4, 0], dtype=np.uint32)
        vs = VectorSet(5, indptr[:3], indices[:4], np.array([0.5, 0.25, 1.0, 1.0], dtype=np.float32))
        want = [v.pairs() for v in vs]
        indptr[1], indices[1] = 9, 4_000_000
        assert [v.pairs() for v in vs] == want
        assert not np.shares_memory(vs.indptr, indptr) and not np.shares_memory(vs.indices, indices)

    def test_sparse_vector_from_slices_does_not_change_when_they_are_written(self):
        dims, values = np.array([1, 3, 7], dtype=np.uint32), np.array([0.5, 0.25, 1.0], dtype=np.float32)
        v = SparseVector(dims[:2], values[:2])
        dims[1], values[1] = 0, -1.0
        assert v.pairs() == [(1, 0.5), (3, 0.25)]

    def test_read_only_view_of_writable_memory_is_copied(self):
        base = np.array([0, 1, 1], dtype=np.uint32)
        view = base[:2]
        view.setflags(write=False)
        vs = VectorSet(2, [0, 2], view, [1.0, 2.0])
        base[0] = 1
        assert vs.indices.tolist() == [0, 1]

    def test_view_of_a_bytearray_is_copied_and_one_of_bytes_is_not(self):
        raw = np.array([0, 1], dtype=np.uint32).tobytes()
        for buf, copied in ((bytearray(raw), True), (raw, False)):
            indices = np.frombuffer(buf, dtype=np.uint32)
            vs = VectorSet(2, [0, 2], indices, [1.0, 2.0])
            assert np.shares_memory(vs.indices, indices) is not copied
            assert not vs.indices.flags.writeable

    def test_owning_input_is_flagged_in_place_not_copied(self):
        dims = np.array([2, 5], dtype=np.uint32)
        v = SparseVector(dims, [1.0, 2.0])
        assert v.dims is dims and not dims.flags.writeable

    def test_writing_a_sliced_array_after_the_check_cannot_crash_exact_topk(self):
        """Unchecked indices reach the compiled kernel, which reads whatever
        they point at: run in a subprocess, so a crash fails this test
        instead of ending the run."""
        code = """if True:
            import numpy as np
            from sparsemips import SparseVector, VectorSet, exact_topk
            base = np.array([1, 3, 2, 4], dtype=np.uint32)
            vs = VectorSet(5, np.array([0, 2, 4], dtype=np.uint64), base[:4],
                           np.array([0.5, 0.25, 1.0, 1.0], dtype=np.float32))
            q = SparseVector([1, 3], [1.0, 1.0])
            before = exact_topk(vs, q, 2).pairs()
            base[1] = 4_000_000
            print(before, exact_topk(vs, q, 2).pairs())
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[(0,", "0.75),", "(1,", "0.0)]"] * 2


_VALUE = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf]),
    st.floats(width=32),
)


@st.composite
def _row(draw):
    """(dims, values) lists: sorted or not, with or without duplicates, lengths equal or not."""
    dims = draw(st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1), st.sampled_from([2**32, -1, 2.7])),
                         max_size=6))
    if draw(st.booleans()):
        dims = sorted(set(dims))
    length = max(0, len(dims) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    values = draw(st.lists(_VALUE, min_size=length, max_size=length))
    return dims, values


def _raises_sparse_vector_error(make):
    try:
        make()
    except SparseVectorError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(_row())
@example(([], []))
@example(([3, 1], [1.0, 1.0]))          # unsorted
@example(([2, 2], [1.0, 1.0]))          # duplicate
@example(([2**32 - 1], [1.0]))          # largest uint32 dim
@example(([2**32], [1.0]))              # past uint32, which a cast would wrap to 0
@example(([-1], [1.0]))
@example(([2.7], [1.0]))                # not an integer, which a cast would truncate
@example((np.array([2**32]), [1.0]))    # the same as int64 arrays
@example((np.array([-1]), [1.0]))
@example((np.array([], dtype=np.float64), []))  # empty, of any dtype
@example(([1, 2], [1.0, 0.0]))          # zero
@example(([1], [-0.5]))                 # negative
@example(([1], [np.nan]))               # NaN
@example(([1, 2], [1.0, np.inf]))       # inf
@example(([1, 2], [1.0]))               # mismatched lengths
@example(([1], [1.0, 2.0]))
def test_sparse_vector_rejects_exactly_what_a_one_row_vector_set_rejects(row):
    dims, values = row
    as_vector = _raises_sparse_vector_error(lambda: SparseVector(dims, values))
    as_set = _raises_sparse_vector_error(lambda: VectorSet(2**32, [0, len(dims)], dims, values))
    assert as_vector == as_set



def _tiny_index(vset):
    return build_index(vset, BuildParams(alpha=1.0, beta=0.2, gamma=1.0))


# each integer count, and each (0, 1] fraction, with a call that takes it
_COUNTS = [
    pytest.param("k", lambda s, v: accuracy_at_k(np.arange(5), [0, 1], v), id="k-accuracy_at_k"),
    pytest.param("kappa", lambda s, v: KnnGraph(kappa=v, neighbors=np.empty((1, 0))), id="kappa-KnnGraph"),
    pytest.param("kappa", lambda s, v: build_exact_graph(s, v), id="kappa-build_exact_graph"),
    pytest.param("kappa", lambda s, v: graph_size_bits(10, v), id="kappa-graph_size_bits"),
    pytest.param("n", lambda s, v: graph_size_bits(v, 1), id="n-graph_size_bits"),
    pytest.param("sample", lambda s, v: ip_preservation(s, s, 1.0, 1.0, sample=v), id="sample"),
    pytest.param("max_keep", lambda s, v: mass_curve(s, v), id="max_keep"),
    pytest.param("k_far", lambda s, v: norm_ratio_cdf(s, s, v), id="k_far"),
    pytest.param("dim", lambda s, v: VectorSet(v, [0, 1], [1], [1.0]), id="dim-VectorSet"),
    pytest.param("repetitions", lambda s, v: bench(_tiny_index(s), None, list(s)[:2], SearchParams(k=3),
                                                   repetitions=v), id="repetitions"),
]
_FRACTIONS = [
    pytest.param("alpha", lambda s, v: BuildParams(alpha=v, beta=0.2, gamma=0.5), id="alpha-BuildParams"),
    pytest.param("gamma", lambda s, v: BuildParams(alpha=0.5, beta=0.2, gamma=v), id="gamma"),
    pytest.param("alpha_q", lambda s, v: SearchParams(k=3, alpha_q=v), id="alpha_q"),
    pytest.param("heap_factor", lambda s, v: SearchParams(k=3, heap_factor=v), id="heap_factor"),
    pytest.param("alpha", lambda s, v: alpha_mss(s.vector(1), v), id="alpha-alpha_mss"),
    pytest.param("alpha", lambda s, v: set_alpha_mss(s, v), id="alpha-set_alpha_mss"),
    pytest.param("alpha_doc", lambda s, v: ip_preservation(s, s, v, 1.0, sample=50), id="alpha_doc"),
    pytest.param("alpha_query", lambda s, v: ip_preservation(s, s, 1.0, v, sample=50), id="alpha_query"),
]


class TestInputRules:
    """Every count and fraction goes through one check, which names it."""

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name, call", _COUNTS)
    def test_count_that_is_not_an_integer_named(self, small_set, name, call, value):
        with pytest.raises(ValueError, match=f"^{name}={value!r} must be an integer$"):
            call(small_set, value)

    @pytest.mark.parametrize("value", [np.nan, 0, 1.5])
    @pytest.mark.parametrize("name, call", _FRACTIONS)
    def test_fraction_outside_zero_one_named(self, small_set, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name}={value} must lie in \(0, 1\]$"):
            call(small_set, value)

    @pytest.mark.parametrize("bad", [-1, 2**32, 2.7])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda v, path: ResultList([v], [1.0]), id="ResultList"),
        pytest.param(lambda v, path: KnnGraph(kappa=1, neighbors=[[v], [0]]), id="KnnGraph"),
        pytest.param(lambda v, path: save_ground_truth([[v]], [[1.0]], path), id="save_ground_truth"),
    ])
    def test_ids_that_are_not_u32_integers_raise_sparse_vector_error(self, tmp_path, call, bad):
        # as_unsigned's rule, for every caller: a cast would wrap -1 and 2**32 and truncate 2.7
        with pytest.raises(SparseVectorError, match=r"ids must (be integers|lie in \[0, 2\*\*32\))"):
            call(bad, tmp_path / "gt.bin")

    @pytest.mark.parametrize("dim", [-1, 2**32 + 1])
    def test_vector_set_dim_outside_the_u32_dims_rejected(self, dim):
        # checked when the set is built, not only when it is saved
        with pytest.raises(ValueError, match=f"^dim={dim} must lie in"):
            VectorSet(dim, [0], [], [])
        assert VectorSet(2**32, [0], [], []).dim == 2**32

    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_counts_accepted_as_int(self, value):
        assert type(check_int("x", value, 0)) is int and check_int("x", value, 0) == 3
        assert type(check_kappa(value)) is int and type(KnnGraph(value, np.empty((0, 0))).kappa) is int


@given(rows=st.lists(st.lists(st.integers(0, 4), max_size=4, unique=True), max_size=8),
       lengths=st.lists(st.integers(0, 9), min_size=5, max_size=5),
       dtype=st.sampled_from([np.int32, np.int64]))
def test_gathered_sums_each_rows_lengths(rows, lengths, dtype):
    """Empty rows anywhere, at the start and at the end."""
    ptr = np.cumsum([0] + [len(row) for row in rows]).astype(dtype)
    indices = np.array([j for row in rows for j in row], dtype=dtype)
    got = _gathered(ptr, indices, np.array(lengths, dtype=dtype))
    assert got.dtype == dtype
    assert got.tolist() == [sum(lengths[j] for j in row) for row in rows]


@st.composite
def _csr_and_rows(draw):
    """A CSR of 1..6 rows, some empty, with int32 or int64 pointers and u8,
    f32, f64 or int64 data, and rows to gather from it: none, or any number
    in any order, repeats included, as intp or int32."""
    n = draw(st.integers(1, 6))
    rows = [sorted(draw(st.sets(st.integers(0, 9), max_size=5))) for _ in range(n)]
    ptr_dtype = draw(st.sampled_from([np.int32, np.int64]))
    data_dtype = draw(st.sampled_from([np.uint8, np.float32, np.float64, np.int64]))
    ptr = np.cumsum([0] + [len(row) for row in rows]).astype(ptr_dtype)
    indices = np.array([j for row in rows for j in row], dtype=ptr_dtype)
    data = np.arange(1, indices.size + 1).astype(data_dtype)
    picked = draw(st.lists(st.integers(0, n - 1), max_size=8))
    return ptr, indices, data, np.array(picked, dtype=draw(st.sampled_from([np.intp, np.int32])))


@settings(max_examples=200, deadline=None)
@given(_csr_and_rows())
@example((np.array([0, 2, 2, 3], np.int32), np.array([1, 4, 0], np.int32), np.array([1, 2, 3], np.uint8),
          np.array([], np.intp)))  # no rows
@example((np.array([0, 2, 2, 3], np.int64), np.array([1, 4, 0], np.int64), np.array([1., 2., 3.]),
          np.array([2, 1, 0, 2, 2], np.intp)))  # unsorted, repeated and empty rows
def test_gather_rows_equals_scipys_row_indexing(case):
    ptr, indices, data, rows = case
    sub_ptr, sub_indices, sub_data, counts = _gather_rows(ptr, indices, data, rows)
    want = sp.csr_matrix((data, indices, ptr), shape=(ptr.size - 1, 10))[rows]
    assert sub_ptr.dtype == sub_indices.dtype == counts.dtype == ptr.dtype and sub_data.dtype == data.dtype
    assert sub_ptr.tolist() == want.indptr.tolist()
    assert sub_indices.tolist() == want.indices.tolist()
    assert sub_data.tolist() == want.data.tolist()
    assert np.array_equal(counts, np.diff(sub_ptr))

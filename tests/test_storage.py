import dataclasses
import hashlib
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsemips.index
import sparsemips.vectors

from sparsemips import (
    BuildParams,
    SearchParams,
    build_exact_graph,
    build_index,
    ground_truth,
    load_collection,
    load_graph,
    load_ground_truth,
    load_index,
    save_collection,
    save_graph,
    save_ground_truth,
    save_index,
    search,
)
from sparsemips.evaluation import mean_accuracy
from sparsemips.storage import (
    ConsistencyError,
    HeaderError,
    StorageError,
    TruncatedPayloadError,
    read_results_tsv,
    write_results_tsv,
)
from sparsemips.synth import random_collection, zipfian_clustered_collection, zipfian_queries
from sparsemips.vectors import check_csr


def _raw_collection(nrows, ncols, indptr, indices, values):
    blob = struct.pack("<QQQ", nrows, ncols, len(indices))
    blob += np.asarray(indptr, dtype="<u8").tobytes()
    blob += np.asarray(indices, dtype="<u4").tobytes()
    blob += np.asarray(values, dtype="<f4").tobytes()
    return blob


class TestCollectionFormat:
    def test_round_trip(self, small_set, tmp_path):
        path = tmp_path / "c.bin"
        save_collection(small_set, path)
        assert load_collection(path) == small_set

    def test_save_is_deterministic(self, small_set, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_collection(small_set, a)
        save_collection(small_set, b)
        assert a.read_bytes() == b.read_bytes()

    def test_short_header(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(HeaderError):
            load_collection(path)

    def test_truncated_payload(self, small_set, tmp_path):
        path = tmp_path / "c.bin"
        save_collection(small_set, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedPayloadError):
            load_collection(path)

    def test_trailing_bytes(self, small_set, tmp_path):
        path = tmp_path / "c.bin"
        save_collection(small_set, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConsistencyError):
            load_collection(path)

    def test_indptr_must_start_at_zero(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(_raw_collection(1, 4, [1, 2], [0], [1.0]))
        with pytest.raises(ConsistencyError):
            load_collection(path)

    def test_indptr_must_end_at_nnz(self, tmp_path):
        path = tmp_path / "c.bin"
        # declared nnz=2 but indptr claims 3 entries in row 0
        path.write_bytes(_raw_collection(1, 4, [0, 3], [0, 1], [1.0, 1.0]))
        with pytest.raises(ConsistencyError):
            load_collection(path)

    def test_indptr_must_be_nondecreasing(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(_raw_collection(2, 4, [0, 2, 1], [0, 1], [1.0, 1.0]))
        with pytest.raises(ConsistencyError):
            load_collection(path)

    def test_indices_strictly_increasing_within_row(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(_raw_collection(1, 4, [0, 2], [2, 1], [1.0, 1.0]))
        with pytest.raises(ConsistencyError, match="^collection: indices must be strictly increasing"):
            load_collection(path)
        # a reset at a row boundary is legal
        path.write_bytes(_raw_collection(2, 4, [0, 2, 4], [1, 3, 0, 2], [1.0] * 4))
        assert len(load_collection(path)) == 2

    def test_index_within_dimensionality(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(_raw_collection(1, 4, [0, 1], [4], [1.0]))
        with pytest.raises(ConsistencyError):
            load_collection(path)

    def test_values_must_be_positive_and_finite(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(_raw_collection(1, 4, [0, 2], [0, 1], [1.0, 0.0]))
        with pytest.raises(ConsistencyError, match="^collection: values must be finite and strictly positive"):
            load_collection(path)
        path.write_bytes(_raw_collection(1, 4, [0, 1], [0], [np.inf]))
        with pytest.raises(ConsistencyError, match="^collection: values must be finite and strictly positive"):
            load_collection(path)

    def test_reads_from_a_pipe(self, small_set, tmp_path):
        # a pipe has no size to check lengths against, and cannot tell()
        path, fifo = tmp_path / "c.bin", tmp_path / "fifo"
        save_collection(small_set, path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            assert load_collection(fifo) == small_set
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_ncols_past_the_u32_dims_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        # dims are u32, so 2**32 columns is the most a collection can use
        path.write_bytes(_raw_collection(1, 2**32, [0, 1], [2**32 - 1], [1.0]))
        assert load_collection(path).dim == 2**32
        path.write_bytes(_raw_collection(1, 2**40, [0, 1], [0], [1.0]))
        with pytest.raises(HeaderError):
            load_collection(path)

    @pytest.mark.parametrize("field", [0, 2])  # nrows, nnz
    def test_huge_length_field_rejected(self, small_set, tmp_path, field):
        path = tmp_path / "c.bin"
        save_collection(small_set, path)
        blob = bytearray(path.read_bytes())
        blob[8 * field:8 * field + 8] = struct.pack("<Q", 2**60)
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayloadError):
            load_collection(path)


class TestOneCheckPerCsr:
    """Each CSR of a file is checked once as it loads."""

    @pytest.fixture
    def checked(self, monkeypatch):
        whats = []

        def counting(ptr, indices, bound, what, *args, **kwargs):
            whats.append(what)
            return check_csr(ptr, indices, bound, what, *args, **kwargs)

        monkeypatch.setattr(sparsemips.vectors, "check_csr", counting)
        monkeypatch.setattr(sparsemips.index, "check_csr", counting)
        return whats

    def test_collection(self, small_set, tmp_path, checked):
        path = tmp_path / "c.bin"
        save_collection(small_set, path)
        checked.clear()
        load_collection(path)
        assert checked == ["collection"]

    @pytest.mark.parametrize("quantize", [True, False])
    def test_index(self, small_set, tmp_path, checked, quantize):
        path = tmp_path / "idx.bin"
        save_index(build_index(small_set, BuildParams(alpha=0.6, beta=0.25, gamma=0.8, quantize=quantize)), path)
        checked.clear()
        load_index(path)
        assert checked == ["forward index", "lists", "block members", "summaries"]


class TestGroundTruthFormat:
    def test_round_trip(self, tmp_path):
        ids = np.arange(12, dtype=np.uint32).reshape(3, 4)
        scores = np.linspace(1.0, 0.1, 12, dtype=np.float32).reshape(3, 4)
        docs, queries = random_collection(40, 30, 6, seed=52), random_collection(7, 30, 5, seed=53)
        path = tmp_path / "gt.bin"
        for pair in ((ids, scores), ground_truth(docs, queries, 5)):
            save_ground_truth(*pair, path)
            for got, want in zip(load_ground_truth(path), pair):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-1, 2**32, 2.7])
    def test_ids_that_are_not_u32_integers_rejected(self, tmp_path, bad):
        path = tmp_path / "gt.bin"
        with pytest.raises(ValueError, match="ground truth ids"):
            save_ground_truth(np.array([[bad, 2]]), np.ones((1, 2)), path)
        assert not path.exists()

    def test_short_file(self, tmp_path):
        path = tmp_path / "gt.bin"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(HeaderError):
            load_ground_truth(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "gt.bin"
        save_ground_truth(np.zeros((2, 3), dtype=np.uint32), np.ones((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConsistencyError):
            load_ground_truth(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_ground_truth(np.zeros((2, 3), dtype=np.uint32), np.zeros((2, 2)), tmp_path / "gt.bin")


class TestResultsTsv:
    def test_negative_query_index_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("0\t0\t5\t1.000000\n-1\t0\t7\t0.500000\n")
        with pytest.raises(ValueError, match="-1"):
            read_results_tsv(path)

    def test_round_trip(self, tmp_path):
        results = [
            [(5, 0.75), (2, 0.5)],
            [],
            [(9, 0.123456)],
        ]
        path = tmp_path / "run.tsv"
        write_results_tsv(results, path)
        got = read_results_tsv(path)
        assert got[0] == [(5, pytest.approx(0.75)), (2, pytest.approx(0.5))]
        assert got[1] == []
        assert got[2] == [(9, pytest.approx(0.123456))]

    def test_score_formatting(self, tmp_path):
        path = tmp_path / "run.tsv"
        write_results_tsv([[(1, 0.123456789)]], path)
        assert path.read_text() == "0\t0\t1\t0.123457\n"


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Each format saved once, with a check that uses what its loader returns.

    300 docs make the graph's ids 2 bytes wide, so a flipped bit can push an
    id past N; the graph check asks for all N docs, so every row is expanded.
    """
    tmp = tmp_path_factory.mktemp("formats")
    docs, queries = random_collection(300, 40, 6, seed=50), random_collection(4, 40, 5, seed=51)
    exact = build_index(docs, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
    tuned = build_index(docs, BuildParams(alpha=0.5, beta=0.2, gamma=0.7, seed=1))
    truth = ground_truth(docs, queries, 5)
    runs = [search(exact, None, q, SearchParams(k=5)).pairs() for q in queries]

    def search_all(index, graph=None, qs=queries, params=SearchParams(k=5, alpha_q=0.8, heap_factor=0.9)):
        for q in qs:
            search(index, graph, q, params)

    formats = {
        "collection": (save_collection, (queries,), load_collection,
                       lambda got: search_all(exact, None, [q for q in got if q.nnz])),
        "exact index": (save_index, (exact,), load_index, search_all),
        "tuned index": (save_index, (tuned,), load_index, search_all),
        "graph": (save_graph, (build_exact_graph(docs, 4),), load_graph,
                  lambda got: search_all(exact, got, params=SearchParams(k=len(docs), use_graph=True))),
        "ground truth": (save_ground_truth, truth, load_ground_truth,
                         lambda got: mean_accuracy(got[0], runs, got[0].shape[1])),
    }
    out = {}
    for name, (save, args, load, use) in formats.items():
        path = tmp / name.replace(" ", "_")
        save(*args, path)
        out[name] = path.read_bytes(), load, use
    return tmp / "mutant", out


class TestCorruptFiles:
    """A truncated or bit-flipped file yields a StorageError, or an object
    that search (or evaluation, for ground truth) takes without raising."""

    @pytest.mark.parametrize("fmt", ["collection", "exact index", "tuned index", "graph", "ground truth"])
    @settings(derandomize=True, deadline=None, max_examples=80)
    # half the draws hit the first 1024 bits or bytes, where the headers are
    @given(cut=st.booleans(), where=st.one_of(st.integers(0, 1023), st.integers(0, 2**32)))
    def test_mutant_is_rejected_or_usable(self, saved_files, fmt, cut, where):
        path, formats = saved_files
        blob, load, use = formats[fmt]
        data = bytearray(blob)
        if cut:
            del data[where % len(data):]
        else:
            data[where // 8 % len(data)] ^= 1 << where % 8
        path.write_bytes(bytes(data))
        try:
            got = load(path)
        except StorageError:
            return
        use(got)


class TestPinnedFileBytes:
    """The bytes of each binary index and graph file, pinned by sha256: a
    change in what the build computes, or in how it is saved, fails here."""

    HASHES = {
        "tuned index": "1be9321922836e7da4c26ce5ee56cb1d3f4ec0941b7eb2d387075f7b8737f26b",
        "exact index": "4de97d39f26967581bb37a6324ac8ac5abbfb68999cec2b44f7b1f069bc40928",
        "exact graph": "f3afb13361455801634777accaf99e86d79eae12c5815394b7909edab674692f",
    }

    @pytest.fixture(scope="class")
    def docs(self):
        return zipfian_clustered_collection(2000, 300, 20, n_clusters=20, seed=[3, 0])[0]

    @pytest.mark.parametrize("name, params", [
        ("tuned index", BuildParams(alpha=0.4, beta=0.2, gamma=0.6, quantize=True, seed=4)),
        ("exact index", BuildParams(alpha=1.0, beta=0.1, gamma=1.0, quantize=False, seed=4)),
    ])
    def test_index(self, docs, name, params, tmp_path):
        save_index(build_index(docs, params), tmp_path / "index.bin")
        assert hashlib.sha256((tmp_path / "index.bin").read_bytes()).hexdigest() == self.HASHES[name]

    def test_exact_graph(self, docs, tmp_path):
        save_graph(build_exact_graph(docs, 10), tmp_path / "graph.bin")
        assert hashlib.sha256((tmp_path / "graph.bin").read_bytes()).hexdigest() == self.HASHES["exact graph"]


class TestPinnedSearchResults:
    """The ids, float32 score bits and every SearchStats field of 200 seeded
    queries, pinned by sha256: a change in what search returns, or in the
    work it counts, fails here."""

    HASHES = {
        "tuned index": "ade8ba112fa9416b38a2c8bfe4c6daa107348eda67fc69f0be700d9ea7739227",
        "exact index": "883c98f0c4d57825d969b0862f91c7dd4afe072dbae190b2d187bab84f21e510",
    }

    @pytest.fixture(scope="class")
    def corpus(self):
        docs, _, info = zipfian_clustered_collection(2000, 300, 20, n_clusters=20, seed=[3, 0])
        return docs, list(zipfian_queries(info, 200, 300, 10, seed=[3, 1]))

    @pytest.mark.parametrize("name, build, params, kappa", [
        ("tuned index", BuildParams(alpha=0.4, beta=0.2, gamma=0.6, quantize=True, seed=4),
         SearchParams(k=10, alpha_q=0.8, heap_factor=0.9, use_graph=True), 5),
        ("exact index", BuildParams(alpha=1.0, beta=0.1, gamma=1.0, quantize=False, seed=4),
         SearchParams(k=10), 0),
    ])
    def test_search(self, corpus, name, build, params, kappa):
        docs, queries = corpus
        index = build_index(docs, build)
        graph = build_exact_graph(docs, kappa) if kappa else None
        digest = hashlib.sha256()
        for q in queries:
            res, stats = search(index, graph, q, params, return_stats=True)
            digest.update(res.ids.astype("<u4").tobytes() + res.scores.astype("<f4").tobytes())
            digest.update(np.array(dataclasses.astuple(stats), dtype="<i8").tobytes())
        assert digest.hexdigest() == self.HASHES[name]

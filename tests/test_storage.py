import os
import struct
import threading

import numpy as np
import pytest

from sparsemips import load_collection, load_ground_truth, save_collection, save_ground_truth
from sparsemips.storage import (
    ConsistencyError,
    HeaderError,
    IndexOrderError,
    NonPositiveValueError,
    TruncatedPayloadError,
    read_results_tsv,
    write_results_tsv,
)


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
        with pytest.raises(IndexOrderError):
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
        with pytest.raises(NonPositiveValueError):
            load_collection(path)
        path.write_bytes(_raw_collection(1, 4, [0, 1], [0], [np.inf]))
        with pytest.raises(NonPositiveValueError):
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

    @pytest.mark.parametrize("field", [0, 2])  # nrows, nnz
    def test_huge_length_field_rejected(self, small_set, tmp_path, field):
        path = tmp_path / "c.bin"
        save_collection(small_set, path)
        blob = bytearray(path.read_bytes())
        blob[8 * field:8 * field + 8] = struct.pack("<Q", 2**60)
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayloadError):
            load_collection(path)


class TestGroundTruthFormat:
    def test_round_trip(self, tmp_path):
        ids = np.arange(12, dtype=np.uint32).reshape(3, 4)
        scores = np.linspace(1.0, 0.1, 12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "gt.bin"
        save_ground_truth(ids, scores, path)
        got_ids, got_scores = load_ground_truth(path)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_scores, scores)

    def test_short_file(self, tmp_path):
        path = tmp_path / "gt.bin"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(HeaderError):
            load_ground_truth(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "gt.bin"
        save_ground_truth(np.zeros((2, 3)), np.ones((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConsistencyError):
            load_ground_truth(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_ground_truth(np.zeros((2, 3)), np.zeros((2, 2)), tmp_path / "gt.bin")


class TestResultsTsv:
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

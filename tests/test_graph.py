import struct

import numpy as np
import pytest

from sparsemips import (
    BuildParams,
    SearchParams,
    SparseVector,
    VectorSet,
    build_approx_graph,
    build_exact_graph,
    build_index,
    dot,
    graph_size_bits,
    load_graph,
    save_graph,
)
from sparsemips.synth import random_collection
from sparsemips.vectors import EMPTY


def naive_graph(vset, kappa):
    """Independent double-loop reference for the exact neighbor table."""
    n = len(vset)
    width = min(kappa, n - 1)
    out = np.empty((n, width), dtype=np.uint32)
    for j in range(n):
        scored = sorted(
            ((-dot(vset.vector(j), vset.vector(m)), m) for m in range(n) if m != j)
        )
        out[j] = [m for _, m in scored[:width]]
    return out


class TestExactGraph:
    def test_matches_naive_oracle(self):
        vset = random_collection(60, 25, 6, seed=17)
        g = build_exact_graph(vset, 5)
        assert np.array_equal(g.neighbors, naive_graph(vset, 5))

    def test_kappa_zero_is_empty(self, small_set):
        g = build_exact_graph(small_set, 0)
        assert g.width == 0 and len(g) == len(small_set)

    def test_width_capped_at_n_minus_one(self):
        vset = random_collection(4, 10, 3, seed=18)
        g = build_exact_graph(vset, 10)
        assert g.neighbors.shape == (4, 3)

    def test_orthogonal_vectors_tie_to_lowest_id(self):
        vset = VectorSet.from_vectors(3, [
            SparseVector(np.array([0]), np.array([1.0])),
            SparseVector(np.array([1]), np.array([1.0])),
            SparseVector(np.array([2]), np.array([1.0])),
        ])
        g = build_exact_graph(vset, 1)
        assert g.neighbors.ravel().tolist() == [1, 0, 0]

    def test_non_neighbors_never_beat_neighbors(self):
        vset = random_collection(40, 20, 5, seed=19)
        g = build_exact_graph(vset, 4)
        for j in range(len(vset)):
            neighbor_scores = [dot(vset.vector(j), vset.vector(int(m))) for m in g.neighbors[j]]
            worst = min(neighbor_scores)
            outside = set(range(len(vset))) - set(g.neighbors[j].tolist()) - {j}
            for m in outside:
                assert dot(vset.vector(j), vset.vector(m)) <= worst + 1e-9


class TestApproxGraph:
    def test_exact_mode_matches_exact_build(self):
        vset = random_collection(80, 30, 6, seed=20)
        index = build_index(vset, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        approx = build_approx_graph(index, 5, SearchParams(k=6, alpha_q=1.0, heap_factor=1.0))
        exact = build_exact_graph(vset, 5)
        assert np.array_equal(approx.neighbors, exact.neighbors)

    def test_empty_point_gets_the_exact_row(self):
        vectors = list(random_collection(3000, 60, 6, seed=40))
        vectors[700] = EMPTY
        vset = VectorSet.from_vectors(60, vectors)
        index = build_index(vset, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        approx = build_approx_graph(index, 5, SearchParams(k=6, alpha_q=1.0, heap_factor=1.0))
        exact = build_exact_graph(vset, 5)
        assert exact.neighbors[700].tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(approx.neighbors, exact.neighbors)

    def test_kappa_zero(self):
        vset = random_collection(10, 10, 3, seed=21)
        index = build_index(vset, BuildParams(alpha=1.0, beta=0.3, gamma=1.0))
        g = build_approx_graph(index, 0, SearchParams(k=1))
        assert g.width == 0


class TestSizeFormula:
    def test_small_cases(self):
        assert graph_size_bits(2, 1) == 2
        assert graph_size_bits(2, 0) == 0
        # 2^23 < 8.8e6 - 1 < 2^24, so ids need 24 bits each
        assert graph_size_bits(8_800_000, 10) == 24 * 8_800_000 * 10
        with pytest.raises(ValueError):
            graph_size_bits(1, 3)

    def test_bits_grow_with_log_n(self):
        assert graph_size_bits(1024, 1) == 10 * 1024
        assert graph_size_bits(1025, 1) == 11 * 1025


class TestGraphSerialization:
    def test_round_trip(self, small_set, tmp_path):
        g = build_exact_graph(small_set, 7)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.kappa == g.kappa
        assert np.array_equal(loaded.neighbors, g.neighbors)

    def test_byte_width_is_minimal(self, tmp_path):
        vset = random_collection(200, 30, 5, seed=22)
        g = build_exact_graph(vset, 3)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        # header (13 bytes) + 200*3 ids at 1 byte each (ids < 256)
        assert path.stat().st_size == 13 + 200 * 3

    def test_truncated_file_rejected(self, small_set, tmp_path):
        from sparsemips.storage import HeaderError, TruncatedPayloadError

        g = build_exact_graph(small_set, 3)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:5])
        with pytest.raises(HeaderError):
            load_graph(path)
        path.write_bytes(blob[:-1])
        with pytest.raises(TruncatedPayloadError):
            load_graph(path)

    def test_huge_node_count_rejected(self, small_set, tmp_path):
        from sparsemips.storage import TruncatedPayloadError

        path = tmp_path / "g.bin"
        save_graph(build_exact_graph(small_set, 3), path)
        path.write_bytes(struct.pack("<Q", 2**60) + path.read_bytes()[8:])
        with pytest.raises(TruncatedPayloadError):
            load_graph(path)

    def test_trailing_bytes_rejected(self, small_set, tmp_path):
        from sparsemips.storage import ConsistencyError

        path = tmp_path / "g.bin"
        save_graph(build_exact_graph(small_set, 3), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConsistencyError):
            load_graph(path)

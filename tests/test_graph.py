import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sparsemips.graph
from sparsemips import (
    BuildParams,
    KnnGraph,
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

    def test_points_missing_from_their_own_rows(self):
        vectors = list(random_collection(60, 25, 6, seed=24))
        # an empty point ties at 0 with everything, so the lowest ids outrank it;
        # a shrunken point scores itself below the points it overlaps
        vectors[40] = EMPTY
        vectors[30] = SparseVector(vectors[30].dims, vectors[30].values * 1e-3)
        vset = VectorSet.from_vectors(25, vectors)
        index = build_index(vset, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        exact = build_exact_graph(vset, 5)
        approx = build_approx_graph(index, 5)
        assert np.array_equal(exact.neighbors, naive_graph(vset, 5))
        assert np.array_equal(approx.neighbors, exact.neighbors)
        assert exact.neighbors[40].tolist() == [0, 1, 2, 3, 4]

    def test_kappa_zero_is_empty(self, small_set):
        g = build_exact_graph(small_set, 0)
        assert g.width == 0 and len(g) == len(small_set)

    @pytest.mark.parametrize("kappa", [-1, 2**32])
    def test_kappa_outside_the_file_field_rejected_before_any_search(self, small_set, monkeypatch, kappa):
        def no_search(*args):
            raise AssertionError("searched before checking kappa")

        monkeypatch.setattr(sparsemips.graph, "ground_truth", no_search)
        monkeypatch.setattr(sparsemips.graph, "search", no_search)
        index = build_index(small_set, BuildParams(alpha=1.0, beta=0.2, gamma=1.0))
        with pytest.raises(ValueError, match="^kappa="):
            build_exact_graph(small_set, kappa)
        with pytest.raises(ValueError, match="^kappa="):
            build_approx_graph(index, kappa)

    @pytest.mark.parametrize("kappa", [0, 5])
    @pytest.mark.parametrize("name, fractions", [("alpha_q", {"alpha_q": 1.5}), ("heap_factor", {"heap_factor": 0})])
    def test_fraction_outside_zero_one_rejected_before_any_search(self, small_set, monkeypatch, kappa, name, fractions):
        def no_search(*args):
            raise AssertionError("searched before checking the fractions")

        monkeypatch.setattr(sparsemips.graph, "search", no_search)
        index = build_index(small_set, BuildParams(alpha=1.0, beta=0.2, gamma=1.0))
        with pytest.raises(ValueError, match=rf"^{name}=\S+ must lie in \(0, 1\]$"):
            build_approx_graph(index, kappa, **fractions)

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
        approx = build_approx_graph(index, 5)
        exact = build_exact_graph(vset, 5)
        assert np.array_equal(approx.neighbors, exact.neighbors)

    def test_empty_point_gets_the_exact_row(self):
        vectors = list(random_collection(3000, 60, 6, seed=40))
        vectors[700] = EMPTY
        vset = VectorSet.from_vectors(60, vectors)
        index = build_index(vset, BuildParams(alpha=1.0, beta=0.2, gamma=1.0, quantize=False))
        approx = build_approx_graph(index, 5)
        exact = build_exact_graph(vset, 5)
        assert exact.neighbors[700].tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(approx.neighbors, exact.neighbors)

    def test_kappa_zero(self):
        vset = random_collection(10, 10, 3, seed=21)
        index = build_index(vset, BuildParams(alpha=1.0, beta=0.3, gamma=1.0))
        g = build_approx_graph(index, 0)
        assert g.width == 0


class TestSizeFormula:
    def test_small_cases(self):
        assert graph_size_bits(2, 1) == 2
        assert graph_size_bits(2, 0) == 0
        # 2^23 < 8.8e6 - 1 < 2^24, so ids need 24 bits each
        assert graph_size_bits(8_800_000, 10) == 24 * 8_800_000 * 10
        # kappa >= N: each row holds N-1 ids, as KnnGraph and the graph file do
        assert graph_size_bits(3, 10) == 2 * 3 * 2
        assert graph_size_bits(2, 2**32 - 1) == 1 * 2 * 1
        with pytest.raises(ValueError):
            graph_size_bits(1, 3)

    def test_bits_grow_with_log_n(self):
        assert graph_size_bits(1024, 1) == 10 * 1024
        assert graph_size_bits(1025, 1) == 11 * 1025


class TestReadOnlyTable:
    """A graph checks its table once and holds it read-only, so expansion
    scores its neighbors without checking them again."""

    def test_built_and_loaded_tables_are_read_only(self, small_set, tmp_path):
        built = build_exact_graph(small_set, 4)
        save_graph(built, tmp_path / "g.bin")
        for g in (built, load_graph(tmp_path / "g.bin")):
            assert not g.neighbors.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g.neighbors[0, 0] = len(small_set)

    @pytest.mark.parametrize("view", [lambda table: table[:3], lambda table: table.ravel()[:3].reshape(3, 1)],
                             ids=["slice", "reshape"])
    def test_table_from_a_view_does_not_change_when_the_array_is_written(self, view):
        table = np.array([[1], [2], [0], [1]], dtype=np.uint32)
        g = KnnGraph(kappa=1, neighbors=view(table))
        table[0, 0] = 3
        assert g.neighbors.ravel().tolist() == [1, 2, 0]


class TestGraphSerialization:
    @pytest.mark.parametrize("kappa", [-1, 2**32])
    def test_kappa_outside_the_file_field_rejected_on_construction(self, kappa):
        """A graph whose kappa the file cannot store is never made, so
        save_graph cannot die in struct.pack."""
        with pytest.raises(ValueError, match=f"^kappa={kappa} must lie in"):
            KnnGraph(kappa=kappa, neighbors=np.zeros((3, 2), dtype=np.uint32))

    def test_largest_kappa_the_file_stores_round_trips(self, tmp_path):
        g = KnnGraph(kappa=2**32 - 1, neighbors=np.array([[1], [0]], dtype=np.uint32))
        save_graph(g, tmp_path / "g.bin")
        loaded = load_graph(tmp_path / "g.bin")
        assert loaded.kappa == 2**32 - 1 and np.array_equal(loaded.neighbors, g.neighbors)

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

    def test_out_of_range_neighbor_rejected(self, tmp_path):
        from sparsemips.storage import ConsistencyError

        path = tmp_path / "g.bin"
        save_graph(build_exact_graph(random_collection(100, 30, 5, seed=23), 3), path)
        data = bytearray(path.read_bytes())
        data[13 + 7] = 200  # one 1-byte id of a 100-node graph
        path.write_bytes(bytes(data))
        with pytest.raises(ConsistencyError):
            load_graph(path)

    @pytest.mark.parametrize("kappa, byte_width", [(0, 0), (3, 0), (3, 5), (3, 255)])
    def test_id_width_outside_one_to_four_rejected(self, small_set, tmp_path, kappa, byte_width):
        from sparsemips.storage import HeaderError

        path = tmp_path / "g.bin"
        save_graph(build_exact_graph(small_set, kappa), path)
        data = bytearray(path.read_bytes())
        data[12] = byte_width
        path.write_bytes(bytes(data))
        with pytest.raises(HeaderError):
            load_graph(path)


@st.composite
def _graph_fields(draw):
    """(kappa, neighbors) that KnnGraph may reject: a kappa that is not an
    integer or outside the file's field, and a table of N rows whose width
    may differ from min(kappa, N-1), flattened to one dimension, or holding
    ids of N or more."""
    n = draw(st.integers(0, 6))
    kappa = draw(st.one_of(st.integers(0, 8), st.sampled_from([2**32 - 1, 2**32, -1, 1.5, True])))
    width = draw(st.one_of(st.just(max(0, int(min(kappa, n - 1)))), st.integers(0, 6)))
    ids = draw(st.lists(st.integers(0, n + 1), min_size=n * width, max_size=n * width))
    shape = draw(st.sampled_from([(n, width), (n * width,)]))
    return kappa, np.array(ids, dtype=np.uint32).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_graph_fields())
@example((1.5, np.array([[1], [0]], dtype=np.uint32)))      # not an integer: struct.error on save
@example((1, np.array([[1, 0], [0, 1]], dtype=np.uint32)))  # wider than min(kappa, N-1)
@example((1, np.array([1, 0], dtype=np.uint32)))            # one dimension
@example((1, np.array([[2], [0]], dtype=np.uint32)))        # id N
def test_every_graph_that_constructs_survives_save_and_load(tmp_path_factory, fields):
    kappa, neighbors = fields
    try:
        graph = KnnGraph(kappa=kappa, neighbors=neighbors)
    except ValueError:
        return
    path = tmp_path_factory.getbasetemp() / "graph-round-trip.bin"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert loaded.kappa == graph.kappa and np.array_equal(loaded.neighbors, graph.neighbors)
    assert loaded.neighbors.shape == graph.neighbors.shape

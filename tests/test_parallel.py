"""Set-up on the thread pool: outputs that do not depend on the pool size,
and failures that stop the pool and reach the caller unchanged."""
import os
import sys
import threading

import numpy as np
import pytest

import sparsemips.evaluation
import sparsemips.index
import sparsemips.parallel
from sparsemips import BuildParams, VectorSet, build_exact_graph, build_index, exact_topk, ground_truth, save_index
from sparsemips.parallel import in_order, pieces
from sparsemips.synth import random_collection
from sparsemips.vectors import EMPTY, _gathered
from conftest import hub_collection, list_weights, with_piece_sizes

POOL_SIZES = [1, 2, 3]


@pytest.fixture
def pool_size(monkeypatch):
    """Sets the number of CPUs the pool sees."""
    def set_size(n):
        monkeypatch.setattr(sparsemips.parallel, "cpu_count", lambda: n)
    return set_size


def wide_collection():
    """Docs on dims below 30 of dim 2**18, so the collection's CSC has 2**18
    columns, nearly all empty; query 4 is empty.  Rows 40-49 copy rows 0-9,
    so their scores tie."""
    base = list(random_collection(40, 30, 6, seed=60))
    docs = VectorSet.from_vectors(2**18, base + base[:10])
    vectors = list(random_collection(13, 30, 5, seed=61))
    vectors[4] = EMPTY
    return docs, VectorSet.from_vectors(2**18, vectors)


def failing_on_second_call(fn, exc):
    """fn that raises exc on its second call, and the list of its calls' positional arguments."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise exc
        return fn(*args, **kwargs)

    return wrapped, calls


# sizes of a ground_truth piece in gathered entries: the module's, which
# holds every query of wide_collection; a few queries; one query
GROUND_TRUTH_PIECES = [sparsemips.evaluation.PIECE_ENTRIES, 100, 1]


class TestPoolSizeInvariance:
    @pytest.mark.parametrize("workers", POOL_SIZES)
    def test_ground_truth_equals_exact_topk(self, pool_size, monkeypatch, workers):
        pool_size(workers)
        docs, queries = wide_collection()
        for piece in GROUND_TRUTH_PIECES:
            monkeypatch.setattr(sparsemips.evaluation, "PIECE_ENTRIES", piece)
            ids, scores = ground_truth(docs, queries, 12)
            for qi, q in enumerate(queries):
                res = exact_topk(docs, q, 12)
                assert ids[qi].tolist() == res.ids.tolist()
                assert scores[qi].view(np.uint32).tolist() == res.scores.view(np.uint32).tolist()

    def test_exact_graph_unchanged(self, pool_size, monkeypatch):
        docs, _ = wide_collection()
        graphs = []
        for workers in POOL_SIZES:
            pool_size(workers)
            for piece in GROUND_TRUTH_PIECES:
                monkeypatch.setattr(sparsemips.evaluation, "PIECE_ENTRIES", piece)
                graphs.append(build_exact_graph(docs, 6).neighbors)
        for neighbors in graphs[1:]:
            assert np.array_equal(neighbors, graphs[0])

    def test_wide_collection_spans_the_piece_cases(self):
        """One piece, pieces of a few queries, and one query per piece."""
        docs, queries = wide_collection()
        lengths = np.diff(docs.scipy64().tocsc().indptr)
        weights = _gathered(queries.indptr, queries.indices, lengths) + 1
        counts = [len(list(pieces(weights, piece))) for piece in GROUND_TRUTH_PIECES]
        assert counts[0] == 1 < counts[1] < counts[2] == len(queries)

    @pytest.mark.parametrize("quantize, piece", with_piece_sizes([(True,), (False,)]))
    def test_index_bytes_identical(self, pool_size, piece_entries, tmp_path, quantize, piece):
        piece_entries(piece)
        params = BuildParams(alpha=0.5, beta=0.3, gamma=0.8, quantize=quantize, seed=5)
        saved = []
        for workers in POOL_SIZES:
            pool_size(workers)
            path = tmp_path / f"{workers}.idx"
            save_index(build_index(hub_collection(), params), path)
            saved.append(path.read_bytes())
        assert saved[1:] == saved[:1] * 2

    def test_index_bytes_identical_in_score_blocks(self, pool_size, monkeypatch, tmp_path):
        """cluster_list scoring a few rows at a time changes no byte on any pool size."""
        params = BuildParams(alpha=0.5, beta=0.3, gamma=0.8, seed=5)
        saved = []
        for workers, entries in [(1, 2**62)] + [(workers, 2**12) for workers in POOL_SIZES]:
            pool_size(workers)
            monkeypatch.setattr(sparsemips.index, "SCORE_ENTRIES", entries)
            path = tmp_path / f"{workers}-{entries}.idx"
            save_index(build_index(hub_collection(), params), path)
            saved.append(path.read_bytes())
        assert saved[1:] == saved[:1] * 3


class TestFailures:
    @pytest.mark.parametrize("exc", [ValueError("boom"), KeyboardInterrupt(), MemoryError()],
                             ids=["ValueError", "KeyboardInterrupt", "MemoryError"])
    def test_ground_truth_chunk_failure(self, pool_size, monkeypatch, exc):
        pool_size(2)
        docs = random_collection(50, 2**18, 6, seed=62)
        queries = random_collection(100, 2**18, 5, seed=63)
        # no query shares a dim with a doc, so each weighs 1: pieces of 2
        # queries, 50 pieces for 100
        assert not set(queries.indices.tolist()) & set(docs.indices.tolist())
        monkeypatch.setattr(sparsemips.evaluation, "PIECE_ENTRIES", 2)
        top_k, calls = failing_on_second_call(sparsemips.evaluation.top_k, exc)
        monkeypatch.setattr(sparsemips.evaluation, "top_k", top_k)
        threads = threading.active_count()
        with pytest.raises(type(exc)) as raised:
            ground_truth(docs, queries, 5)
        assert raised.value is exc
        assert threading.active_count() == threads
        # the second call is in piece 0 or 1, and in-order collection submits
        # at most pieces 0 to 2 * 2 by then, of 2 queries each
        assert len(calls) <= (2 * 2 + 1) * 2 < len(queries)

    @pytest.mark.parametrize("exc", [ValueError("boom"), KeyboardInterrupt(), MemoryError()],
                             ids=["ValueError", "KeyboardInterrupt", "MemoryError"])
    def test_build_list_failure(self, pool_size, piece_entries, monkeypatch, medium_set, exc):
        pool_size(2)
        # one or two lists per piece: any three of the set's lists weigh more
        weights = list_weights(medium_set)
        assert weights.all()
        piece_entries(3 * int(weights.min()) - 1)
        cluster_list, calls = failing_on_second_call(sparsemips.index.cluster_list, exc)
        monkeypatch.setattr(sparsemips.index, "cluster_list", cluster_list)
        threads = threading.active_count()
        with pytest.raises(type(exc)) as raised:
            build_index(medium_set, BuildParams(alpha=1.0, beta=0.2, gamma=1.0))
        assert raised.value is exc
        assert threading.active_count() == threads
        # the second call is in piece 0 or 1, when at most pieces 0 to 2 * 2
        # are submitted, so no list after the first 2 * (2 * 2 + 1) starts
        started = [seed[1] for _, _, seed in calls]
        assert max(started) < 2 * (2 * 2 + 1) < medium_set.dim

    def test_collect_failure_cancels_the_rest(self, pool_size):
        pool_size(2)
        started = []
        threads = threading.active_count()

        def interrupt(result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            in_order(started.append, range(100), interrupt)
        assert threading.active_count() == threads
        # collect saw the first result when 2 * 2 + 1 calls had been submitted
        assert set(started) <= set(range(2 * 2 + 1))


def test_results_collected_in_order_under_contention(pool_size):
    """More threads than cores and a short switch interval: every result is
    collected once, in item order."""
    pool_size(2 * (os.cpu_count() or 1) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        collected = []
        in_order(lambda i: (i, float(np.arange(i % 50 + 1).sum())), range(2000), collected.append)
    finally:
        sys.setswitchinterval(interval)
    assert collected == [(i, float(np.arange(i % 50 + 1).sum())) for i in range(2000)]

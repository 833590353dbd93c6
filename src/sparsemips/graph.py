"""k-highest-inner-product neighbor graph: exact and index-accelerated builds.

The graph is a table mapping each data-point id to the ids of its
min(kappa, N-1) best neighbors by inner product (ties by ascending id),
used at query time for one-hop candidate expansion.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .evaluation import ground_truth
from .query import SearchParams, search
from .storage import ConsistencyError, HeaderError, read_record, write_record
from .vectors import VectorSet, _as_readonly, as_unsigned, check_fraction, check_int


@dataclass(frozen=True)
class KnnGraph:
    """kappa and the (N, row_width(N, kappa)) uint32 neighbor table, every
    id < N; ValueError on construction otherwise, SparseVectorError for ids
    that are not u32 integers.

    The table is checked once and then held read-only, through
    vectors._as_readonly: a table that owns its memory is flagged in place,
    and a view of memory the caller can still write (a slice, a reshape) is
    copied first.  So expand_with_graph scores the neighbors it reads
    without checking them again.
    """

    kappa: int
    neighbors: np.ndarray  # score-descending rows

    def __post_init__(self):
        kappa = check_kappa(self.kappa)
        neighbors = _as_readonly(as_unsigned(self.neighbors, np.uint32, "neighbor ids"))
        if neighbors.ndim != 2 or neighbors.shape[1] != row_width(len(neighbors), kappa):
            raise ValueError(f"neighbors of shape {neighbors.shape} are not (N, min(kappa, N-1)) for kappa={kappa}")
        if neighbors.size and int(neighbors.max()) >= len(neighbors):
            raise ValueError(f"neighbor id {int(neighbors.max())} is out of range for {len(neighbors)} nodes")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "neighbors", neighbors)

    @property
    def width(self):
        return self.neighbors.shape[1]

    def __len__(self):
        return self.neighbors.shape[0]


def check_kappa(kappa):
    """kappa as an int; ValueError unless it is an integer that fits the
    file's unsigned 32-bit field."""
    return check_int("kappa", kappa, 0, 2**32)


def row_width(n, kappa):
    """Neighbors per row of a graph of n points: min(kappa, N-1)."""
    return min(kappa, max(n - 1, 0))


def graph_size_bits(n, kappa):
    """Bits of the table at minimal fixed id width: (floor(log2(N-1))+1) bits
    for each of the row_width(N, kappa) = min(kappa, N-1) ids of N rows."""
    n, kappa = check_int("n", n, 2), check_kappa(kappa)
    return (n - 1).bit_length() * n * row_width(n, kappa)  # bit_length == floor(log2)+1


def _neighbor_graph(n, kappa, best):
    """The graph of each point's min(kappa, N-1) best neighbors: best(width + 1)
    gives each point's best width + 1 ids as an (N, width + 1) array, and each
    row drops the point's own id, or its last id when the point is not in it."""
    width = row_width(n, check_kappa(kappa))  # before any search
    if width == 0:
        return KnnGraph(kappa=kappa, neighbors=np.empty((n, 0), dtype=np.uint32))
    found = best(width + 1)
    is_self = found == np.arange(n)[:, None]
    is_self[~is_self.any(axis=1), -1] = True
    return KnnGraph(kappa=kappa, neighbors=found[~is_self].reshape(n, width))


def build_exact_graph(vset: VectorSet, kappa: int) -> KnnGraph:
    """Brute-force top-kappa neighbors per point, ties by ascending id: the
    collection's ground truth against itself, without self."""
    return _neighbor_graph(len(vset), kappa, lambda k: ground_truth(vset, vset, k)[0])


def build_approx_graph(index, kappa: int, alpha_q=1.0, heap_factor=1.0) -> KnnGraph:
    """Neighbors found by querying the index with each data point.

    Each point runs a top-(width+1) search at alpha_q and heap_factor, graph
    off; width + 1 <= N, so none comes up short.  An empty point scores 0
    with everything and gets the exact graph's row: the lowest ids other
    than its own.  ValueError, before any search and at any width, unless
    both fractions lie in (0, 1].
    """
    check_fraction("alpha_q", alpha_q)
    check_fraction("heap_factor", heap_factor)
    forward = index.forward

    def best(k):
        params = SearchParams(k=k, alpha_q=alpha_q, heap_factor=heap_factor)
        found = np.empty((len(forward), k), dtype=np.uint32)
        for j in range(len(forward)):
            q = forward.vector(j)
            found[j] = search(index, None, q, params).ids if q.dims.size else np.arange(k)
        return found

    return _neighbor_graph(len(forward), kappa, best)


_HEADER = struct.Struct("<QIB")  # nodes, kappa, bytes per id


def _layout(n, kappa, byte_width):
    if not 1 <= byte_width <= 4:
        raise HeaderError(f"graph ids are {byte_width} bytes wide, not 1 to 4")
    return [("neighbors", "u1", n * row_width(n, kappa) * byte_width)]


def save_graph(graph: KnnGraph, path):
    n, byte_width = len(graph), max(1, ((len(graph) - 1).bit_length() + 7) // 8)
    # each id as the low byte_width bytes of its little-endian u4
    packed = graph.neighbors.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :byte_width]
    head = (n, graph.kappa, byte_width)
    write_record(path, _HEADER.pack(*head), zip([packed], _layout(*head)))


def load_graph(path) -> KnnGraph:
    (n, kappa, byte_width), [packed] = read_record(path, _HEADER, _layout)
    # each id's low byte_width bytes into its little-endian u4, the rest zero:
    # filled in place, so the graph holds this array and copies none
    ids = np.zeros((n, row_width(n, kappa)), dtype="<u4")
    ids.view(np.uint8).reshape(-1, 4)[:, :byte_width] = packed.reshape(-1, byte_width)
    try:
        return KnnGraph(kappa=kappa, neighbors=ids)
    except ValueError as exc:
        raise ConsistencyError(f"graph: {exc}") from None

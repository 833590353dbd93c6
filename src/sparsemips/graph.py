"""k-highest-inner-product neighbor graph: exact and index-accelerated builds.

The graph is a table mapping each data-point id to the ids of its
min(kappa, N-1) best neighbors by inner product (ties by ascending id),
used at query time for one-hop candidate expansion.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .storage import HeaderError, _check_end, _read_exact
from .vectors import VectorSet


@dataclass(frozen=True)
class KnnGraph:
    kappa: int
    neighbors: np.ndarray  # (N, min(kappa, N-1)) uint32, score-descending rows

    def __post_init__(self):
        object.__setattr__(self, "neighbors", np.ascontiguousarray(self.neighbors, dtype=np.uint32))

    @property
    def width(self):
        return self.neighbors.shape[1] if self.neighbors.ndim == 2 else 0

    def __len__(self):
        return self.neighbors.shape[0]


def graph_size_bits(n, kappa):
    """Bits needed at minimal fixed id width: (floor(log2(N-1))+1) * N * kappa."""
    if n < 2:
        raise ValueError("graph size formula requires N >= 2")
    if kappa == 0:
        return 0
    return (n - 1).bit_length() * n * kappa  # bit_length == floor(log2)+1


def build_exact_graph(vset: VectorSet, kappa: int) -> KnnGraph:
    """Brute-force top-kappa neighbors per point, ties by ascending id."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    n = len(vset)
    width = min(kappa, max(n - 1, 0))
    if width == 0:
        return KnnGraph(kappa=kappa, neighbors=np.empty((n, 0), dtype=np.uint32))
    mat = vset.to_scipy(dtype=np.float64)
    neighbors = np.empty((n, width), dtype=np.uint32)
    ids = np.arange(n)
    chunk = max(1, 2**23 // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        scores = np.asarray((mat[start:stop] @ mat.T).todense())
        for r in range(stop - start):
            row = scores[r].copy()
            row[start + r] = -np.inf  # no self-loop
            order = np.lexsort((ids, -row))
            neighbors[start + r] = order[:width]
    return KnnGraph(kappa=kappa, neighbors=neighbors)


def build_approx_graph(index, kappa: int, search_params) -> KnnGraph:
    """Neighbors found by querying the index with each data point.

    Each point runs a top-(kappa+1) search (graph disabled), drops itself,
    and keeps kappa ids.  Short result lists (degenerate points) are padded
    with the best-scoring unseen points from a seeded 1k random sample.
    """
    from .query import SearchParams, search  # local import to avoid a cycle

    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    forward = index.forward
    n = len(forward)
    width = min(kappa, max(n - 1, 0))
    if width == 0:
        return KnnGraph(kappa=kappa, neighbors=np.empty((n, 0), dtype=np.uint32))
    params = SearchParams(
        k=min(kappa + 1, n),
        alpha_q=search_params.alpha_q,
        heap_factor=search_params.heap_factor,
        use_graph=False,
    )
    neighbors = np.empty((n, width), dtype=np.uint32)
    for j in range(n):
        q = forward.vector(j)
        if q.dims.size:
            res = search(index, None, q, params)
            chosen = [doc for doc, _ in res if doc != j][:width]
        else:
            chosen = []
        if len(chosen) < width:
            chosen = _pad_neighbors(forward, j, chosen, width, index.params.seed)
        neighbors[j] = np.asarray(chosen, dtype=np.uint32)
    return KnnGraph(kappa=kappa, neighbors=neighbors)


def _pad_neighbors(forward, source, chosen, width, seed):
    from .vectors import dot

    n = len(forward)
    rng = np.random.default_rng([seed, source])
    sample = rng.choice(n, size=min(1000, n), replace=False)
    taken = set(chosen) | {source}
    q = forward.vector(source)
    scored = sorted(
        ((-dot(q, forward.vector(int(c))), int(c)) for c in sample if int(c) not in taken),
    )
    out = list(chosen)
    for _, c in scored:
        if len(out) == width:
            break
        out.append(c)
    # extremely sparse corner: fill from the full id range in ascending order
    i = 0
    while len(out) < width:
        if i != source and i not in set(out):
            out.append(i)
        i += 1
    return out


_GRAPH_HEADER = struct.Struct("<QIB")


def save_graph(graph: KnnGraph, path):
    n = len(graph)
    byte_width = max(1, ((n - 1).bit_length() + 7) // 8) if n > 1 else 1
    with open(path, "wb") as fh:
        fh.write(_GRAPH_HEADER.pack(n, graph.kappa, byte_width))
        ids = graph.neighbors.astype(np.uint64).ravel()
        shifts = np.arange(byte_width, dtype=np.uint64) * np.uint64(8)
        packed = ((ids[:, None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
        fh.write(packed.tobytes())


def load_graph(path) -> KnnGraph:
    with open(path, "rb") as fh:
        head = fh.read(_GRAPH_HEADER.size)
        if len(head) != _GRAPH_HEADER.size:
            raise HeaderError("graph file too short for header")
        n, kappa, byte_width = _GRAPH_HEADER.unpack(head)
        width = min(kappa, max(n - 1, 0))
        buf = _read_exact(fh, n * width * byte_width, "graph payload")
        _check_end(fh)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(-1, byte_width).astype(np.uint64)
    shifts = np.arange(byte_width, dtype=np.uint64) * np.uint64(8)
    ids = (packed << shifts).sum(axis=1, dtype=np.uint64)
    return KnnGraph(kappa=kappa, neighbors=ids.astype(np.uint32).reshape(n, width))

"""The zipfian generators against the two per-row loops they replaced."""
import numpy as np
import pytest

from sparsemips import SparseVector, VectorSet
from sparsemips.synth import zipfian_clustered_collection, zipfian_queries


def reference_collection(n, dim, nnz, n_clusters=50, seed=0, zipf_s=1.0):
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, dim + 1, dtype=np.float64)
    base_popularity = 1.0 / ranks**zipf_s
    cluster_dims = []
    cluster_scale = []
    for _ in range(n_clusters):
        perm = rng.permutation(dim)
        cluster_dims.append(perm)
        cluster_scale.append(rng.uniform(0.8, 1.2))
    vectors = []
    assignment = rng.integers(0, n_clusters, size=n)
    for j in range(n):
        c = int(assignment[j])
        perm = cluster_dims[c]
        k = max(1, int(rng.poisson(nnz)))
        picked = rng.choice(dim, size=min(k, dim), replace=False, p=base_popularity / base_popularity.sum())
        raw_dims = perm[picked].astype(np.uint32)
        weight = base_popularity[picked] / base_popularity[picked].max()
        values = (cluster_scale[c] * (0.2 + 0.8 * weight) * rng.uniform(0.5, 1.0, size=raw_dims.size)).astype(np.float32)
        order = np.argsort(raw_dims)
        vectors.append(SparseVector(raw_dims[order], values[order]))
    return VectorSet.from_vectors(dim, vectors), assignment, (cluster_dims, base_popularity, cluster_scale)


def reference_queries(collection_info, n_queries, dim, nnz, seed=1):
    cluster_dims, base_popularity, cluster_scale = collection_info
    rng = np.random.default_rng(seed)
    p = base_popularity / base_popularity.sum()
    vectors = []
    for _ in range(n_queries):
        c = int(rng.integers(0, len(cluster_dims)))
        perm = cluster_dims[c]
        k = max(1, int(rng.poisson(nnz)))
        picked = rng.choice(dim, size=min(k, dim), replace=False, p=p)
        raw_dims = perm[picked].astype(np.uint32)
        weight = base_popularity[picked] / base_popularity[picked].max()
        values = ((0.2 + 0.8 * weight) * rng.uniform(0.5, 1.0, size=raw_dims.size)).astype(np.float32)
        order = np.argsort(raw_dims)
        vectors.append(SparseVector(raw_dims[order], values[order]))
    return VectorSet.from_vectors(dim, vectors)


def assert_same_arrays(got: VectorSet, want: VectorSet):
    assert got.dim == want.dim
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", [0, 1, [2, 0], [3, 1]])
@pytest.mark.parametrize("n, dim, nnz, n_clusters, zipf_s", [
    (200, 300, 12, 7, 1.0),
    (150, 40, 8, 3, 1.5),
    (100, 20, 18, 5, 1.0),   # nnz close to dim
    (60, 10, 25, 2, 0.8),    # Poisson draws past dim are capped at dim
])
def test_matches_reference_loops(seed, n, dim, nnz, n_clusters, zipf_s):
    docs, assignment, info = zipfian_clustered_collection(n, dim, nnz, n_clusters, seed=seed, zipf_s=zipf_s)
    want_docs, want_assignment, want_info = reference_collection(n, dim, nnz, n_clusters, seed=seed, zipf_s=zipf_s)
    assert_same_arrays(docs, want_docs)
    assert assignment.dtype == want_assignment.dtype and np.array_equal(assignment, want_assignment)
    assert all(np.array_equal(a, b) for a, b in zip(info[0], want_info[0]))
    assert np.array_equal(info[1], want_info[1]) and info[2] == want_info[2]
    query_seed = [seed, 1] if isinstance(seed, list) else seed + 1
    got = zipfian_queries(info, 50, dim, max(1, nnz // 2), seed=query_seed)
    assert_same_arrays(got, reference_queries(want_info, 50, dim, max(1, nnz // 2), seed=query_seed))

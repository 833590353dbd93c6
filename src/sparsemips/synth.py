"""Synthetic sparse collections for tests, demos, and benchmarks."""
from __future__ import annotations

import numpy as np

from .vectors import SparseVector, VectorSet


def random_vector(rng, dim, nnz, normalize=False) -> SparseVector:
    dims = np.sort(rng.choice(dim, size=min(nnz, dim), replace=False)).astype(np.uint32)
    values = rng.uniform(0.05, 1.0, size=dims.size).astype(np.float32)
    if normalize:
        values = (values / values.astype(np.float64).sum()).astype(np.float32)
    return SparseVector(dims, values)


def random_collection(n, dim, nnz, seed=0, normalize=False) -> VectorSet:
    """Uniform-support vectors with uniform positive values."""
    rng = np.random.default_rng(seed)
    return VectorSet.from_vectors(dim, [random_vector(rng, dim, nnz, normalize) for _ in range(n)])


def bernoulli_collection(n, dim, p, seed=0) -> VectorSet:
    """Each dimension nonzero independently with probability p.

    Values are i.i.d. Uniform(0, 1); a draw of exactly zero is dropped, so
    every stored value is strictly positive.
    """
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(n):
        mask = rng.random(dim) < p
        dims = np.flatnonzero(mask).astype(np.uint32)
        values = rng.uniform(0.0, 1.0, size=dims.size).astype(np.float32)
        keep = values > 0
        vectors.append(SparseVector(dims[keep], values[keep]))
    return VectorSet.from_vectors(dim, vectors)


def _zipfian_row(rng, perm, base_popularity, p, dim, nnz, scale):
    """One row of a cluster whose dims are `perm`: a Poisson(nnz) count of
    Zipfian-popular ranks, with larger values on the cluster's core dims."""
    k = max(1, int(rng.poisson(nnz)))
    picked = rng.choice(dim, size=min(k, dim), replace=False, p=p)
    raw_dims = perm[picked].astype(np.uint32)
    popularity = base_popularity[picked]
    weight = popularity / popularity.max()
    values = (scale * (0.2 + 0.8 * weight) * rng.uniform(0.5, 1.0, size=raw_dims.size)).astype(np.float32)
    order = np.argsort(raw_dims)
    return SparseVector(raw_dims[order], values[order])


def zipfian_clustered_collection(n, dim, nnz, n_clusters=50, seed=0, zipf_s=1.0):
    """Clustered Zipfian-sparse data: collection, cluster assignment per row.

    Each cluster prefers its own subset of dimensions drawn with Zipfian
    popularity; values are larger on the cluster's core dimensions.  The
    geometry rewards blocked pruning: near neighbors share a cluster.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, dim + 1, dtype=np.float64)
    base_popularity = 1.0 / ranks**zipf_s
    p = base_popularity / base_popularity.sum()
    cluster_dims = []
    cluster_scale = []
    for _ in range(n_clusters):
        cluster_dims.append(rng.permutation(dim))
        cluster_scale.append(rng.uniform(0.8, 1.2))
    assignment = rng.integers(0, n_clusters, size=n)
    vectors = [
        _zipfian_row(rng, cluster_dims[c], base_popularity, p, dim, nnz, cluster_scale[c])
        for c in assignment.tolist()
    ]
    return VectorSet.from_vectors(dim, vectors), assignment, (cluster_dims, base_popularity, cluster_scale)


def zipfian_queries(collection_info, n_queries, dim, nnz, seed=1):
    """Queries drawn from the same cluster structure as the collection, unscaled."""
    cluster_dims, base_popularity, _ = collection_info
    rng = np.random.default_rng(seed)
    p = base_popularity / base_popularity.sum()
    vectors = []
    for _ in range(n_queries):
        perm = cluster_dims[int(rng.integers(0, len(cluster_dims)))]
        vectors.append(_zipfian_row(rng, perm, base_popularity, p, dim, nnz, 1.0))  # x * 1.0 == x
    return VectorSet.from_vectors(dim, vectors)

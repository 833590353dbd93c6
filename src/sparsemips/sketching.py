"""Mass-based sketches for sparse vectors and collections.

Three procedures live here:
  * seeded l1 threshold sampling with its unbiased inner-product estimator,
  * the top-mass rule (keep the fewest largest entries that reach a target
    fraction of the l1 mass), on every segment of a CSR at once, as a mask or
    as the kept positions largest first; the per-vector sketch is its
    one-segment call,
  * the collection-level variant that keeps, per dimension, the largest
    column values.

Both rules rank entries by one order, largest_first: per segment, largest
value first, ties by position.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .vectors import SparseVector, VectorSet, _ranges, check_fraction, lp_norm

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_SCALE = float(2**64)


class ZeroVectorError(ValueError):
    pass


def _mix64(x):
    # splitmix64 finalizer; wraps mod 2**64
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def _seed_term(seed):
    with np.errstate(over="ignore"):
        if isinstance(seed, np.ndarray):
            base = (seed & np.uint64(0xFFFFFFFFFFFFFFFF)) + _GOLDEN
        else:
            base = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) + _GOLDEN
    return _mix64(base)


def hash_unit(dims, seed):
    """Deterministic hash of dimension indices into [0, 1).

    h(i) = splitmix64((i+1) * golden_ratio_64 + mix(seed)) / 2**64.  The
    algorithm is fixed so that sketches reproduce across platforms.
    """
    dims = np.asarray(dims, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (dims + np.uint64(1)) * _GOLDEN + _seed_term(seed)
    return _mix64(x).astype(np.float64) / _U64_SCALE


@dataclass(frozen=True)
class ThresholdSketch:
    """Output of l1 threshold sampling."""

    keys: np.ndarray          # surviving dims, sorted
    values: np.ndarray        # matching float32 values of the input
    tau: float                # d_target / ||u||_1
    d_target: float           # kept for auditability
    seed: int


def l1_threshold_sample(u: SparseVector, d_target: float, seed: int) -> ThresholdSketch:
    """Keep entry i with probability min(1, d_target * u_i / ||u||_1)."""
    l1 = lp_norm(u, 1)
    if l1 == 0.0:
        raise ZeroVectorError("cannot sketch a zero vector")
    if d_target <= 0:
        raise ValueError("d_target must be positive")
    thresholds = d_target * u.values.astype(np.float64) / l1
    keep = hash_unit(u.dims, seed) <= np.minimum(1.0, thresholds)
    return ThresholdSketch(
        keys=u.dims[keep],
        values=u.values[keep],
        tau=d_target / l1,
        d_target=float(d_target),
        seed=int(seed),
    )


def ts_estimate(su: ThresholdSketch, sv: ThresholdSketch) -> float:
    """Unbiased inner-product estimate from two same-seed sketches."""
    if su.keys.size == 0 or sv.keys.size == 0:
        return 0.0
    _, iu, iv = np.intersect1d(su.keys, sv.keys, assume_unique=True, return_indices=True)
    if iu.size == 0:
        return 0.0
    uv = su.values[iu].astype(np.float64)
    vv = sv.values[iv].astype(np.float64)
    p = np.minimum(1.0, np.minimum(uv * su.tau, vv * sv.tau))
    return float(np.sum(uv * vv / p))


def ts_estimate_trials(u: SparseVector, v: SparseVector, d_target: float, seeds) -> np.ndarray:
    """Vectorized Monte-Carlo: the estimate for each seed in `seeds`.

    Equivalent to sketching u and v with each seed and calling ts_estimate;
    only dims in the common support can contribute, and a common dim
    survives both sketches iff h(i) <= min(1, u_i*tau_u, v_i*tau_v).
    """
    l1u, l1v = lp_norm(u, 1), lp_norm(v, 1)
    if l1u == 0.0 or l1v == 0.0:
        raise ZeroVectorError("cannot sketch a zero vector")
    seeds = np.asarray(seeds, dtype=np.uint64)
    common, iu, iv = np.intersect1d(u.dims, v.dims, assume_unique=True, return_indices=True)
    if common.size == 0:
        return np.zeros(seeds.size, dtype=np.float64)
    uv = u.values[iu].astype(np.float64)
    vv = v.values[iv].astype(np.float64)
    p = np.minimum(1.0, np.minimum(uv * (d_target / l1u), vv * (d_target / l1v)))
    contrib = uv * vv / p
    out = np.empty(seeds.size, dtype=np.float64)
    chunk = max(1, 4_000_000 // common.size)
    for start in range(0, seeds.size, chunk):
        batch = seeds[start:start + chunk]
        out[start:start + batch.size] = (hash_unit(common, batch[:, None]) <= p) @ contrib
    return out


def _check_sketch(nonempty, alpha):
    """ValueError unless alpha lies in (0, 1]; ZeroVectorError unless every
    segment is `nonempty` (values are positive, so only an empty one has no mass)."""
    check_fraction("alpha", alpha)
    if not nonempty:
        raise ZeroVectorError("cannot sketch a zero vector")


def _segment_sizes(indptr, alpha):
    indptr = np.asarray(indptr, dtype=np.int64)
    sizes = indptr[1:] - indptr[:-1]
    _check_sketch(sizes.all(), alpha)
    return sizes


def _flipped(values):
    """Positive float32s order like their bit patterns, so the flipped bits
    of `values` sort largest first."""
    return ~np.asarray(values, dtype=np.float32).view(np.uint32)


def largest_first(indptr, values):
    """Positions into values, segment by segment of a CSR's
    values[indptr[s]:indptr[s+1]], largest value first.

    Ties keep position order, which is dim ascending in a CSR row and row
    ascending in a CSC column.  The values are positive and rank as float32,
    the precision vectors are stored in.  Segments may be empty.
    """
    # the flipped bits sort behind the segment in the key's high half; one
    # stable sort of the key keeps ties in position order
    key = _flipped(values)
    if len(indptr) > 2:
        sizes = np.diff(np.asarray(indptr, dtype=np.int64))
        key = np.arange(sizes.size, dtype=np.uint64).repeat(sizes) << np.uint64(32) | key
    return np.argsort(key, kind="stable")


def top_mass_order(indptr, values, alpha):
    """The entries the top-mass rule keeps on every segment
    values[indptr[s]:indptr[s+1]] of a CSR, as positions into values: segment
    by segment, largest value first.

    Each segment keeps its fewest largest entries whose sum reaches a
    fraction alpha of its l1 mass, ranked as largest_first ranks them.
    alpha == 1 keeps every entry.
    """
    if len(indptr) == 2:  # one segment (a query): its kept entries are a prefix
        _check_sketch(indptr[1] > indptr[0], alpha)
        order = _flipped(values).argsort(kind="stable")
        if alpha == 1:  # the tolerance below would drop entries under 1e-6 of the mass
            return order
        csum = values[order].cumsum(dtype=np.float64)  # the cut below, on a 1-D cumsum
        return order[:1 + int(csum[:-1].searchsorted((alpha - 1e-6) * csum[-1]))]
    sizes = _segment_sizes(indptr, alpha)
    order = largest_first(indptr, values)
    if alpha == 1:
        return order
    # an entry is kept if the larger ones fall short of the target, the
    # largest always; the boundary comparison tolerates float32 value rounding
    # one zero-padded row per segment, largest value first, after a leading
    # 0: csum[s, p] is the mass of segment s's p largest entries, summed in
    # the same order, so rounded alike, as a cumsum of the segment alone.
    # Segments of 2**(e-1) < size <= 2**e share one matrix, so padding at
    # most doubles the entries of each
    starts, ranked = np.asarray(indptr, dtype=np.int64)[:-1], values[order]
    kept = np.empty(order.size, dtype=bool)
    group = np.frexp(sizes - 1)[1]
    for e in np.unique(group):
        segments = np.flatnonzero(group == e)
        entries = _ranges(starts[segments], starts[segments] + sizes[segments])
        width = sizes[segments].max()
        filled = np.arange(width) < sizes[segments, None]
        csum = np.zeros((segments.size, width + 1))
        csum[:, 1:][filled] = ranked[entries]
        csum.cumsum(axis=1, out=csum)
        below = csum[:, :-1] < (alpha - 1e-6) * csum[:, -1:]
        below[:, 0] = True
        kept[entries] = below[filled]
    return order[kept]


def top_mass(indptr, values, alpha):
    """The top-mass rule of top_mass_order as a mask of the kept entries;
    alpha == 1 keeps every entry without sorting any."""
    if alpha == 1:  # every entry, without the sort
        _segment_sizes(indptr, alpha)
        return np.ones(values.size, dtype=bool)
    keep = np.zeros(values.size, dtype=bool)
    keep[top_mass_order(indptr, values, alpha)] = True
    return keep


def alpha_mss(u: SparseVector, alpha: float) -> SparseVector:
    """Smallest top-value subvector reaching a fraction alpha of the l1 mass.

    Ties sort by (value descending, dim ascending).
    """
    keep = top_mass([0, u.dims.size], u.values, alpha)
    return SparseVector(u.dims[keep], u.values[keep])


def set_alpha_mss(vset: VectorSet, alpha: float) -> VectorSet:
    """Per dimension, keep the ceil(alpha * |L_i|) largest column values.

    Columns rank as largest_first ranks them: ties by row id ascending.
    Output vectors are subvectors of the inputs; dimensionality and vector
    count unchanged.  alpha == 1 returns vset, without sorting anything.
    """
    check_fraction("alpha", alpha)
    if alpha == 1:
        return vset
    csc = vset.to_scipy().tocsc()  # rows ascending within each column
    starts = csc.indptr[:-1]
    kept_per_dim = np.ceil(alpha * np.diff(csc.indptr)).astype(np.int64)
    keep = np.zeros(csc.nnz, dtype=bool)
    keep[largest_first(csc.indptr, csc.data)[_ranges(starts, starts + kept_per_dim)]] = True
    kept_ptr = np.concatenate(([0], np.cumsum(kept_per_dim)))
    pruned = sp.csc_matrix((csc.data[keep], csc.indices[keep], kept_ptr), shape=csc.shape).tocsr()
    return VectorSet(vset.dim, pruned.indptr, pruned.indices, pruned.data)

"""Blocked inverted index over a sketched collection.

Construction: sketch the collection (set-level pruning: each dimension keeps
the ceil(alpha * |L_i|) largest values of its column), build one
inverted list per dimension from the sketched vectors, partition each list
into geometrically-cohesive blocks with shallow K-Means, and attach to each
block a conservative coordinatewise-max summary, truncated by a top-mass
sketch and optionally quantized to 8 bits.  The forward index keeps the
original vectors for exact re-scoring.  The blocks live in a few flat
arrays (see BlockedIndex), saved as whole arrays after an SPMIDX02 header.
"""
from __future__ import annotations

import struct
from array import array
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from .sketching import alpha_mss, set_alpha_mss
from .storage import HeaderError, _check_csr, _check_end, _read_array, _read_exact
from .vectors import SparseVector, VectorSet

INDEX_MAGIC = b"SPMIDX02"


@dataclass(frozen=True)
class BuildParams:
    alpha: float          # fraction of each inverted list's entries kept, (0, 1]
    beta: float           # blocks-per-list factor, (0, 1)
    gamma: float          # summary truncation mass fraction, (0, 1]
    quantize: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")


def quantize_summary(s: SparseVector):
    """8-bit scalar quantization of a summary vector: (codes, m, delta).

    delta = (max - m) / 256; codes index equal sub-intervals above the
    minimum m.  delta == 0 is legal (all values equal, all codes 0).
    """
    if s.dims.size == 0:
        raise ValueError("cannot quantize an empty summary")
    vals = s.values.astype(np.float64)
    # m and delta are float32 on disk; compute codes from the rounded values
    # so in-memory and reloaded summaries reconstruct identically
    m = float(np.float32(vals.min()))
    delta64 = (vals.max() - m) / 256.0
    delta = np.float32(delta64)
    if float(delta) < delta64:  # round up so 256*delta covers the range
        delta = np.nextafter(delta, np.float32(np.inf), dtype=np.float32)
    delta = float(delta)
    if delta == 0.0:
        codes = np.zeros(vals.size, dtype=np.uint8)
    else:
        codes = np.clip(np.floor((vals - m) / delta), 0, 255).astype(np.uint8)
    return codes, m, delta


def dequantize(values, m, delta):
    """Float64 summary values m + values * delta, elementwise."""
    out = np.multiply(values, delta, dtype=np.float64)
    out += m
    return out


class Block(NamedTuple):
    """One unit of evaluation: the sorted member ids of a block, or the
    distinct members of a batch of blocks."""

    ids: np.ndarray


def cluster_list(rows, beta, seed):
    """Partition the rows of a CSR matrix (one list's members) into geometric blocks.

    Samples c = max(1, ceil(beta * n)) rows (capped at n) uniformly without
    replacement as centroids and assigns every row to the centroid
    maximizing the inner product, lowest centroid index on ties.  Returns
    the nonempty clusters as ascending lists of row positions.
    """
    n = rows.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty list")
    c = min(max(1, int(np.ceil(beta * n))), n)
    rng = np.random.default_rng(seed)
    centroid_pos = np.sort(rng.choice(n, size=c, replace=False))
    mat = rows.astype(np.float64, copy=False)
    scores = (mat @ mat[centroid_pos].T).toarray()
    assign = np.argmax(scores, axis=1)  # argmax takes lowest index on ties
    clusters = [np.flatnonzero(assign == k).tolist() for k in range(c)]
    return [cl for cl in clusters if cl]


def summarize(rows) -> SparseVector:
    """Coordinatewise maximum over the rows of a nonempty CSR matrix."""
    if rows.shape[0] == 0:
        raise ValueError("cannot summarize an empty block")
    dims, position = np.unique(rows.indices, return_inverse=True)
    maxima = np.zeros(dims.size)
    np.maximum.at(maxima, position, rows.data)  # values are positive
    return SparseVector(dims, maxima)


@dataclass(eq=False)
class BlockedIndex:
    """Flat CSR-style blocked lists, blocks numbered list by list, plus the
    forward index.  The fields after `forward` are the file's arrays, in order."""

    params: BuildParams
    forward: VectorSet
    list_ptr: np.ndarray        # (dim+1,) blocks of dim i: list_ptr[i]:list_ptr[i+1]
    block_ptr: np.ndarray       # (nblocks+1,) members of b: member_ids[block_ptr[b]:block_ptr[b+1]]
    member_ids: np.ndarray      # uint32, ascending within each block
    summary_ptr: np.ndarray     # (nblocks+1,) entries of b's summary, likewise
    summary_dims: np.ndarray    # uint32, ascending within each summary
    summary_values: np.ndarray  # uint8 codes when quantized, float32 values otherwise
    m: np.ndarray               # float32 per block; an entry's value is m + value * delta
    delta: np.ndarray           # float32 per block; m=0 and delta=1 (exact) when unquantized

    def __len__(self):
        return len(self.forward)

    @property
    def dim(self):
        return self.forward.dim

    @property
    def num_blocks(self):
        return self.block_ptr.size - 1

    def block(self, b) -> Block:
        return Block(self.member_ids[self.block_ptr[b]:self.block_ptr[b + 1]])


def build_index(vset: VectorSet, params: BuildParams) -> BlockedIndex:
    if len(vset) == 0:
        raise ValueError("cannot index an empty collection")
    sketched = set_alpha_mss(vset, params.alpha).to_scipy(dtype=np.float64)
    csc = sketched.tocsc()
    csc.sort_indices()
    # the members of list i fill member_ids[csc.indptr[i]:csc.indptr[i + 1]]
    member_ids = np.empty(csc.nnz, dtype=np.uint32)
    blocks_per_list = np.zeros(vset.dim, dtype=np.int64)
    # growable buffers that become the arrays without a copy, so the
    # summaries are never held twice
    block_ptr, summary_ptr, m, delta = array("q", [0]), array("q", [0]), array("f"), array("f")
    summary_dims, summary_values = array("I"), array("B" if params.quantize else "f")
    for i in range(vset.dim):
        s, e = csc.indptr[i], csc.indptr[i + 1]
        if s == e:
            continue
        ids = csc.indices[s:e]  # ascending
        rows = sketched[ids]
        clusters = cluster_list(rows, params.beta, [params.seed, i])
        blocks_per_list[i] = len(clusters)
        member_ids[s:e] = ids[np.concatenate(clusters)]
        for cl in clusters:
            summary = alpha_mss(summarize(rows[cl]), params.gamma)
            if params.quantize:
                values, block_m, block_delta = quantize_summary(summary)
            else:
                values, block_m, block_delta = summary.values, 0.0, 1.0
            summary_dims.frombytes(summary.dims.tobytes())
            summary_values.frombytes(values.tobytes())
            block_ptr.append(block_ptr[-1] + len(cl))
            summary_ptr.append(len(summary_dims))
            m.append(block_m)
            delta.append(block_delta)
    list_ptr = np.concatenate(([0], np.cumsum(blocks_per_list)))
    arrays = map(np.asarray, (block_ptr, member_ids, summary_ptr, summary_dims, summary_values, m, delta))
    return BlockedIndex(params, vset, list_ptr, *arrays)


# ---------------------------------------------------------------------------
# serialization: magic, build parameters, array lengths, then whole arrays

_PARAMS = struct.Struct("<ddd?xxxq")
_COUNTS = struct.Struct("<6Q")  # nrows, dim, forward nnz, blocks, members, summary entries


def _layout(quantize, nrows, dim, nnz, nblocks, nmembers, nsummary):
    """(name, dtype, length) of every array, in file order."""
    return [
        ("forward indptr", "<u8", nrows + 1),
        ("forward indices", "<u4", nnz),
        ("forward values", "<f4", nnz),
        ("list_ptr", "<i8", dim + 1),
        ("block_ptr", "<i8", nblocks + 1),
        ("member_ids", "<u4", nmembers),
        ("summary_ptr", "<i8", nblocks + 1),
        ("summary_dims", "<u4", nsummary),
        ("summary_values", "u1" if quantize else "<f4", nsummary),
        ("m", "<f4", nblocks),
        ("delta", "<f4", nblocks),
    ]


def save_index(index: BlockedIndex, path):
    p, fwd = index.params, index.forward
    counts = (len(fwd), fwd.dim, fwd.indices.size, index.num_blocks,
              index.member_ids.size, index.summary_dims.size)
    arrays = [fwd.indptr, fwd.indices, fwd.values] + [getattr(index, f.name) for f in fields(index)[2:]]
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC + _PARAMS.pack(*astuple(p)))
        fh.write(_COUNTS.pack(*counts))
        for arr, (_, dtype, _) in zip(arrays, _layout(p.quantize, *counts)):
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


def load_index(path) -> BlockedIndex:
    with open(path, "rb") as fh:
        if fh.read(len(INDEX_MAGIC)) != INDEX_MAGIC:
            raise HeaderError("not an index file (bad magic)")
        params = BuildParams(*_PARAMS.unpack(_read_exact(fh, _PARAMS.size, "build parameters")))
        counts = _COUNTS.unpack(_read_exact(fh, _COUNTS.size, "array lengths"))
        arrays = [_read_array(fh, dtype, n, name) for name, dtype, n in _layout(params.quantize, *counts)]
        _check_end(fh)
    nrows, dim, _, nblocks, _, _ = counts
    indptr, indices, values, list_ptr, block_ptr, member_ids, summary_ptr, summary_dims, summary_values = arrays[:9]
    _check_csr(indptr, indices, dim, "forward index", values)
    _check_csr(list_ptr, np.arange(nblocks), nblocks, "lists")  # list i holds blocks list_ptr[i]:list_ptr[i+1]
    _check_csr(block_ptr, member_ids, nrows, "block members")
    _check_csr(summary_ptr, summary_dims, dim, "summaries", None if params.quantize else summary_values)
    return BlockedIndex(params, VectorSet(dim, *arrays[:3]), *arrays[3:])

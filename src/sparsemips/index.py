"""Blocked inverted index over a sketched collection.

Construction: sketch the collection (set-level pruning: each dimension keeps
the ceil(alpha * |L_i|) largest values of its column), build one
inverted list per dimension from the sketched vectors, partition each list
into geometrically-cohesive blocks with shallow K-Means, and attach to each
block a coordinatewise-max summary, truncated by a top-mass sketch and
optionally quantized to 8 bits.  A summary bounds its members' scores only
at gamma=1 without quantization: truncation drops entries, and a floored
8-bit code can read up to one step (delta) low, so exact search needs
quantize=False.  The forward index keeps the original vectors for exact
re-scoring.  The blocks live in a few flat
arrays (see BlockedIndex), saved as one record after an SPMIDX03 magic.
The build runs in pieces: runs of consecutive lists whose member rows hold
about PIECE_ENTRIES entries in all, or one longer list alone.  A piece
gathers its rows once, clusters each list from that list's own seed, and
summarizes, truncates and quantizes all its blocks with one array call each,
as CSR segments; once every piece is done, one transpose stores the
summaries dim-major, so a query reads only the columns of its own dims.
Every index object, built or loaded, holds the arrays that search's
compiled kernels read in their signed dtype (see BlockedIndex), and derives
the summary directory (see summary_directory): a sorted key d * dim + l and
a run offset for each (column d, list l) pair that holds entries, 8 bytes a
pair, never saved.
The pieces are built on the thread pool of `parallel`, and appended in list
order, so the index depends neither on the number of threads nor on where
the pieces end.
"""
from __future__ import annotations

import struct
from array import array
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import parallel
# perfbench's tracer wraps sparsemips.index.alpha_mss, so the name stays here
from .sketching import alpha_mss, set_alpha_mss, top_mass  # noqa: F401
from .storage import ConsistencyError, HeaderError, collection_layout, read_record, write_record
from .vectors import (SparseVectorError, VectorSet, _as_readonly, _as_signed, _gather_rows, _gathered, check_csr,
                      check_fraction, index_dtype)

INDEX_MAGIC = b"SPMIDX03"
# a piece of the build is a run of consecutive lists whose member rows hold
# about this many entries in all, or one longer list
PIECE_ENTRIES = 2**15
# cluster_list scores its rows against the centroids in row blocks of at most
# this many float64 scores
SCORE_ENTRIES = 2**20


@dataclass(frozen=True)
class BuildParams:
    alpha: float          # fraction of each inverted list's entries kept, (0, 1]
    beta: float           # blocks-per-list factor, (0, 1)
    gamma: float          # summary truncation mass fraction, (0, 1]
    quantize: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fraction("alpha", self.alpha)
        if not 0 < self.beta < 1:
            raise ValueError(f"beta={self.beta} must lie in (0, 1)")
        check_fraction("gamma", self.gamma)
        # the file stores the seed as a signed 64-bit field
        if type(self.seed) is not int or not 0 <= self.seed < 2**63:
            raise ValueError(f"seed={self.seed!r} must be an int in [0, 2**63)")


def quantize_summary(indptr, values):
    """8-bit scalar quantization of each summary values[indptr[b]:indptr[b+1]].

    Returns (codes, m, delta), with float32 m and delta per summary:
    delta = (max - m) / 256, and codes index equal sub-intervals above the
    minimum m.  delta == 0 is legal (all values equal, all codes 0).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    sizes = np.diff(indptr)
    if np.any(sizes == 0):
        raise ValueError("cannot quantize an empty summary")
    vals = np.asarray(values, dtype=np.float64)
    # m and delta are float32 on disk; compute codes from the rounded values
    # so in-memory and reloaded summaries reconstruct identically
    m = np.minimum.reduceat(vals, indptr[:-1]).astype(np.float32)
    delta64 = (np.maximum.reduceat(vals, indptr[:-1]) - m) / 256.0
    delta = delta64.astype(np.float32)
    short = delta < delta64  # round up so 256*delta covers the range
    delta[short] = np.nextafter(delta[short], np.float32(np.inf))
    # a zero delta means equal values, whose codes are 0 with any divisor
    step = np.repeat(np.where(delta == 0, np.float32(1), delta), sizes).astype(np.float64)
    codes = np.clip(np.floor((vals - np.repeat(m, sizes)) / step), 0, 255).astype(np.uint8)
    return codes, m, delta


def dequantize(values, m, delta):
    """Float64 summary values m + values * delta, elementwise."""
    out = np.multiply(values, delta, dtype=np.float64)
    out += m
    return out


class Block(NamedTuple):
    """One unit of evaluation: the member ids of a block, or of a batch of
    blocks, in any order; evaluate_block sorts and dedupes them."""

    ids: np.ndarray


def cluster_list(rows, beta, seed):
    """Partition the rows of a CSR matrix (one list's members) into geometric blocks.

    Samples c = max(1, ceil(beta * n)) rows (capped at n) uniformly without
    replacement as centroids and assigns every row to the centroid
    maximizing the inner product, lowest centroid index on ties.  Returns
    each row's block label: blocks are numbered in centroid order, with the
    centroids no row chose dropped, so every label in 0..max holds a row.
    The scores are taken in row blocks of at most SCORE_ENTRIES; each row's
    are summed on their own, so the blocks change no label.
    """
    n = rows.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty list")
    c = min(max(1, int(np.ceil(beta * n))), n)
    rng = np.random.default_rng(seed)
    centroid_pos = np.sort(rng.choice(n, size=c, replace=False))
    mat = rows.astype(np.float64, copy=False)
    # the centroids as the columns of a dense right operand, which gives the
    # same sums, in the same order, as a sparse one
    _, dims, values, counts = _gather_rows(mat.indptr, mat.indices, mat.data, centroid_pos)
    centroids = np.zeros((mat.shape[1], c))
    centroids[dims, np.arange(c).repeat(counts)] = values
    step = max(1, SCORE_ENTRIES // c)
    blocks = [mat] if n <= step else [mat[s:s + step] for s in range(0, n, step)]
    assign = np.concatenate([np.argmax(block @ centroids, axis=1) for block in blocks])  # lowest index on ties
    chosen = np.bincount(assign, minlength=c) > 0
    return (chosen.cumsum() - 1)[assign]


def summarize(rows, labels):
    """Coordinatewise maximum of each group of rows of a CSR matrix, the rows
    labelled g for g = 0..max(labels).

    Returns the summaries as a CSR: (indptr, dims, float32 values), dims
    ascending within each summary.  ValueError for no rows at all.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot summarize an empty list")
    dim = rows.shape[1]
    key = np.repeat(labels * dim, np.diff(rows.indptr)) + rows.indices
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # first entry of each (group, dim)
    values = np.maximum.reduceat(rows.data[order], first).astype(np.float32)
    key = key[first]
    indptr = np.searchsorted(key, np.arange(labels.max() + 2) * dim)
    return indptr, (key % dim).astype(np.uint32), values


def key_dtype(dim):
    """The dtype of the summary directory's keys d * dim + l: uint32 while
    dim**2 < 2**32, uint64 above."""
    return np.dtype(np.uint32 if dim * dim < 2**32 else np.uint64)


def summary_directory(dim, list_ptr, summary_ptr, summary_blocks):
    """The (column d, list l) pairs that hold summary entries, as (key, runs).

    key[i] = d * dim + l ascends, in key_dtype(dim); the entries of pair i
    are summary_blocks[runs[i]:runs[i+1]], and runs, in summary_blocks'
    dtype, ends with the entry count.  The pairs ascend in storage order
    (dim-major, blocks ascending within a column, blocks numbered list by
    list), so each run ends where the next pair's starts.  Derived one column
    at a time, so no temporary spans more than one column.
    """
    kd, rd, nnz = key_dtype(dim), summary_blocks.dtype, summary_blocks.size
    list_of = np.arange(dim, dtype=kd).repeat(np.diff(list_ptr))  # the list of each block
    keys, starts = [np.empty(0, dtype=kd)], []
    for d in np.flatnonzero(np.diff(summary_ptr)).tolist():
        s, e = int(summary_ptr[d]), int(summary_ptr[d + 1])
        lists = list_of[summary_blocks[s:e]]
        at = np.concatenate(([0], np.flatnonzero(lists[1:] != lists[:-1]) + 1))  # each run's first entry
        keys.append(lists[at] + kd.type(d * dim))
        starts.append((at + s).astype(rd))
    return np.concatenate(keys), np.concatenate(starts + [np.array([nnz], dtype=rd)])


@dataclass(eq=False)
class BlockedIndex:
    """Flat CSR-style blocked lists, blocks numbered list by list, plus the
    forward index.  The fields from `list_ptr` to `delta` are the file's
    arrays, in order.

    The summaries are one CSC by dimension: the entries of dim d are
    summary_ptr[d]:summary_ptr[d+1], with their blocks ascending, so the
    blocks of one list form a contiguous run of every column.  The last two
    fields, the summary directory (see summary_directory), find that run
    with one lookup of d * dim + l; every index object, built or loaded,
    derives them on construction, and they are never saved.

    block_ptr, member_ids, summary_blocks and summary_runs are what search's
    compiled kernels read, so construction holds them in index_dtype of the
    largest count, whatever dtype they arrive in: int32 below 2**31, where
    the file's u32 arrays become views and its i64 block_ptr one copy, and
    int64 above.  The kernels check no bounds, so construction holds all ten
    arrays read-only through vectors._as_readonly: an array that owns its
    memory is flagged in place, and one that views memory something else
    can still write is copied.  vectors._as_signed casts or views the
    kernel arrays and flags them in the same call, so each is copied at
    most once: build_index flags the summaries' scipy buffers itself, its
    growable int64 block_ptr is cast to int32 once, and only its growable
    m and delta are copied to be flagged."""

    params: BuildParams
    forward: VectorSet
    list_ptr: np.ndarray        # (dim+1,) blocks of dim i: list_ptr[i]:list_ptr[i+1]
    block_ptr: np.ndarray       # (nblocks+1,) members of b: member_ids[block_ptr[b]:block_ptr[b+1]]
    member_ids: np.ndarray      # ascending within each block
    summary_ptr: np.ndarray     # (dim+1,) summary entries on dim d: summary_ptr[d]:summary_ptr[d+1]
    summary_blocks: np.ndarray  # block of each entry, ascending within each dim
    summary_values: np.ndarray  # uint8 codes when quantized, float32 values otherwise
    m: np.ndarray               # float32 per block; an entry's value is m + value * delta
    delta: np.ndarray           # float32 per block; m=0 and delta=1 (exact) when unquantized
    summary_key: np.ndarray = field(init=False, repr=False)   # d * dim + l of each (column, list) pair, ascending
    summary_runs: np.ndarray = field(init=False, repr=False)  # entries of pair i: summary_runs[i]:summary_runs[i+1]

    def __post_init__(self):
        dtype = index_dtype(max(self.summary_blocks.size, self.num_blocks, len(self), self.member_ids.size))
        self.block_ptr, self.member_ids, self.summary_blocks = (
            _as_signed(a, dtype) for a in (self.block_ptr, self.member_ids, self.summary_blocks))
        for name in ("list_ptr", "summary_ptr", "summary_values", "m", "delta"):
            setattr(self, name, _as_readonly(getattr(self, name)))
        self.summary_key, self.summary_runs = (_as_readonly(a) for a in summary_directory(
            self.dim, self.list_ptr, self.summary_ptr, self.summary_blocks))

    def __len__(self):
        return len(self.forward)

    @property
    def dim(self):
        return self.forward.dim

    @property
    def num_blocks(self):
        return self.block_ptr.size - 1


def build_index(vset: VectorSet, params: BuildParams) -> BlockedIndex:
    if len(vset) == 0:
        raise ValueError("cannot index an empty collection")
    sketched = set_alpha_mss(vset, params.alpha).scipy64()
    csc = sketched.tocsc()
    # the members of list i fill member_ids[csc.indptr[i]:csc.indptr[i + 1]]
    member_ids = np.empty(csc.nnz, dtype=np.uint32)
    blocks_per_list = np.zeros(vset.dim, dtype=np.int64)
    # growable buffers that become arrays without a copy, so the summaries
    # are held twice only while the final transpose runs
    block_ptr, summary_ptr, m, delta = array("q", [0]), array("q", [0]), array("f"), array("f")
    summary_dims, summary_values = array("I"), array("B" if params.quantize else "f")

    def build_piece(piece):
        """The blocks of lists a..b-1: their members, and their summaries as
        a CSR, truncated and quantized, with one call each for the piece."""
        a, b = piece
        lo = csc.indptr[a]
        ptr = csc.indptr[a:b + 1] - lo
        ids = csc.indices[lo:csc.indptr[b]]  # list by list, ascending within each
        rows = sketched[ids]
        labels = np.empty(ids.size, dtype=np.int64)
        blocks = np.zeros(b - a, dtype=np.int64)
        numbered = 0  # the piece numbers its blocks on from list to list
        for j in np.flatnonzero(np.diff(ptr)):
            s, e = ptr[j], ptr[j + 1]
            list_rows = rows[s:e] if e - s < ids.size else rows  # a piece of one list: no copy
            list_labels = cluster_list(list_rows, params.beta, [params.seed, a + j])
            labels[s:e] = list_labels + numbered
            blocks[j] = list_labels.max() + 1
            numbered += blocks[j]
        sizes = np.bincount(labels)
        indptr, dims, values = summarize(rows, labels)
        keep = top_mass(indptr, values, params.gamma)
        indptr, dims, values = np.concatenate(([0], keep.cumsum()))[indptr], dims[keep], values[keep]
        block_m, block_delta = np.zeros(sizes.size, np.float32), np.ones(sizes.size, np.float32)
        if params.quantize:
            values, block_m, block_delta = quantize_summary(indptr, values)
        return a, b, blocks, ids[np.argsort(labels, kind="stable")], sizes, indptr, dims, values, block_m, block_delta

    def collect(built):
        a, b, blocks, members, sizes, indptr, dims, values, block_m, block_delta = built
        member_ids[csc.indptr[a]:csc.indptr[b]] = members
        blocks_per_list[a:b] = blocks
        block_ptr.frombytes((block_ptr[-1] + sizes.cumsum()).tobytes())
        summary_ptr.frombytes((len(summary_dims) + indptr[1:]).tobytes())
        summary_dims.frombytes(dims.tobytes())
        summary_values.frombytes(values.tobytes())
        m.frombytes(block_m.tobytes())
        delta.frombytes(block_delta.tobytes())

    # a list weighs the entries of its member rows, which its piece gathers
    weights = _gathered(csc.indptr, csc.indices, np.diff(sketched.indptr))
    parallel.in_order(build_piece, parallel.pieces(weights, PIECE_ENTRIES), collect)
    list_ptr = np.concatenate(([0], np.cumsum(blocks_per_list)))
    by_block = sp.csr_matrix((np.asarray(summary_values), np.asarray(summary_dims), np.asarray(summary_ptr)),
                             shape=(list_ptr[-1], vset.dim))
    del summary_dims  # the matrix holds its dims as a signed copy
    # scipy's transpose is a counting sort, so each dim's blocks stay ascending
    by_dim = by_block.tocsc()
    del by_block, summary_values
    for a in (by_dim.indices, by_dim.data):  # views of scipy's own buffers: flag the whole chain read-only
        while isinstance(a, np.ndarray):
            a.setflags(write=False)
            a = a.base
    summary = (by_dim.indptr.astype(np.int64), by_dim.indices, by_dim.data)
    return BlockedIndex(params, vset, list_ptr, np.asarray(block_ptr), member_ids, *summary,
                        np.asarray(m), np.asarray(delta))


# ---------------------------------------------------------------------------
# serialization: magic, build parameters, array lengths, then whole arrays

_HEADER = struct.Struct("<ddd?xxxq6Q")  # BuildParams; nrows, dim, forward nnz, blocks, members, summary entries


def _layout(alpha, beta, gamma, quantize, seed, nrows, dim, nnz, nblocks, nmembers, nsummary):
    """(name, dtype, count) of every array in file order: forward index, then the rest."""
    return collection_layout(nrows, dim, nnz) + [
        ("list_ptr", "<i8", dim + 1),
        ("block_ptr", "<i8", nblocks + 1),
        ("member_ids", "<u4", nmembers),
        ("summary_ptr", "<i8", dim + 1),
        ("summary_blocks", "<u4", nsummary),
        ("summary_values", "u1" if quantize else "<f4", nsummary),
        ("m", "<f4", nblocks),
        ("delta", "<f4", nblocks),
    ]


def save_index(index: BlockedIndex, path):
    fwd = index.forward
    head = astuple(index.params) + (len(fwd), fwd.dim, fwd.indices.size, index.num_blocks,
                                    index.member_ids.size, index.summary_blocks.size)
    layout = _layout(*head)
    arrays = [fwd.indptr, fwd.indices, fwd.values] + [getattr(index, name) for name, _, _ in layout[3:]]
    write_record(path, INDEX_MAGIC + _HEADER.pack(*head), zip(arrays, layout))


def load_index(path) -> BlockedIndex:
    head, arrays = read_record(path, _HEADER, _layout, INDEX_MAGIC)
    try:
        params = BuildParams(*head[:5])
    except ValueError as exc:
        raise HeaderError(f"build parameters: {exc}") from None
    nrows, dim, _, nblocks, _, _ = head[5:]
    indptr, indices, values, list_ptr, block_ptr, member_ids, summary_ptr, summary_blocks, summary_values = arrays[:9]
    try:
        forward = VectorSet(dim, indptr, indices, values, what="forward index")
        # list i holds blocks list_ptr[i]:list_ptr[i+1]
        check_csr(list_ptr, np.arange(nblocks), nblocks, "lists")
        check_csr(block_ptr, member_ids, nrows, "block members")
        check_csr(summary_ptr, summary_blocks, nblocks, "summaries", None if params.quantize else summary_values)
    except SparseVectorError as exc:
        raise ConsistencyError(str(exc)) from None
    scales = np.concatenate(arrays[9:])
    if not np.isfinite(scales).all():
        raise ConsistencyError("summaries: m and delta must be finite")
    if (scales < 0).any():  # every build stores m >= 0 and delta >= 0
        raise ConsistencyError("summaries: m and delta must be at least 0")
    return BlockedIndex(params, forward, *arrays[3:])

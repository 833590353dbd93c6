"""Binary I/O: one record reader/writer for every binary format, and result TSVs.

Collection record (little-endian):
    header:  nrows u64, ncols u64 (at most 2**32: dims are u32), nnz u64
    indptr:  (nrows+1) u64, cumulative, indptr[0]=0, indptr[nrows]=nnz
    indices: nnz u32, strictly increasing within each row
    values:  nnz f32, all > 0

Ground-truth record: nq u32, k u32, nq*k ids u32 (row-major), nq*k scores f32.
"""
from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .vectors import SparseVectorError, VectorSet, as_unsigned


class StorageError(Exception):
    """Base class for on-disk format violations."""


class HeaderError(StorageError):
    pass


class TruncatedPayloadError(StorageError):
    pass


class TruncatedHeaderError(HeaderError, TruncatedPayloadError):
    pass


class ConsistencyError(StorageError):
    pass


def write_record(path, head, arrays):
    """Write `head` (magic and packed header), then each (array, (name, dtype,
    count)) of `arrays` as a whole array of that dtype."""
    with open(path, "wb") as fh:
        fh.write(head)
        for arr, (_, dtype, _) in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


def read_record(path, header, layout, magic=b""):
    """Read `magic`, the `header` struct, then the arrays layout(*fields)
    declares as (name, dtype, count), and not a byte more: (fields, arrays).
    `layout` raises HeaderError for a field it cannot accept."""
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise HeaderError(f"bad magic: not a {magic.decode()} file")
        head = fh.read(header.size)
        if len(head) != header.size:
            raise TruncatedHeaderError(f"file too short for the {header.size}-byte header")
        fields = header.unpack(head)
        # only a regular file knows its size (a pipe cannot even tell())
        st = os.fstat(fh.fileno())
        arrays = []
        for name, dtype, count in layout(*fields):
            nbytes = np.dtype(dtype).itemsize * count
            # a corrupt length field must fail here, not make read() allocate it
            if stat.S_ISREG(st.st_mode) and nbytes > st.st_size - fh.tell():
                raise TruncatedPayloadError(f"truncated payload while reading {name}")
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise TruncatedPayloadError(f"truncated payload while reading {name}")
            arrays.append(np.frombuffer(buf, dtype=dtype))
        if fh.read(1):
            raise ConsistencyError("trailing bytes after declared payload")
    return fields, arrays


_COLLECTION = struct.Struct("<QQQ")


def collection_layout(nrows, ncols, nnz):
    """(name, dtype, count) of a collection's arrays, in file order."""
    if ncols > 2**32:
        raise HeaderError(f"ncols {ncols} exceeds 2**32, the number of u32 dims")
    return [("indptr", "<u8", nrows + 1), ("indices", "<u4", nnz), ("values", "<f4", nnz)]


def save_collection(vset: VectorSet, path):
    head = (len(vset), vset.dim, vset.indices.size)
    arrays = (vset.indptr, vset.indices, vset.values)
    write_record(path, _COLLECTION.pack(*head), zip(arrays, collection_layout(*head)))


def load_collection(path) -> VectorSet:
    (_, ncols, _), (indptr, indices, values) = read_record(path, _COLLECTION, collection_layout)
    try:
        return VectorSet(ncols, indptr, indices, values, what="collection")
    except SparseVectorError as exc:
        raise ConsistencyError(str(exc)) from None


_GROUND_TRUTH = struct.Struct("<II")


def _ground_truth_layout(nq, k):
    return [("ids", "<u4", nq * k), ("scores", "<f4", nq * k)]


def save_ground_truth(ids, scores, path):
    """ids/scores: (nq, k) arrays, rows sorted by (score desc, id asc).
    SparseVectorError, before the file is opened, unless the ids are u32 integers."""
    ids, scores = as_unsigned(ids, np.uint32, "ground truth ids"), np.asarray(scores)
    if ids.shape != scores.shape or ids.ndim != 2:
        raise ValueError("ids and scores must be matching 2-d arrays")
    write_record(path, _GROUND_TRUTH.pack(*ids.shape), zip((ids, scores), _ground_truth_layout(*ids.shape)))


def load_ground_truth(path):
    (nq, k), arrays = read_record(path, _GROUND_TRUTH, _ground_truth_layout)
    return tuple(a.reshape(nq, k) for a in arrays)


def write_results_tsv(results, path):
    """results: per query, a sequence of (doc_id, score) pairs."""
    with open(path, "w") as fh:
        for qi, res in enumerate(results):
            for rank, (doc_id, score) in enumerate(res):
                fh.write(f"{qi}\t{rank}\t{doc_id}\t{score:.6f}\n")


def read_results_tsv(path, num_queries=None):
    """The (id, score) pairs of each query of the run in `path`, by rank:
    queries 0..num_queries-1, or up to the largest index in the file when
    num_queries is None.  ValueError naming the file and line of a row that
    is not four tab-separated numbers, or whose query index lies outside
    that range, before any list is built."""
    results = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                qi, rank, doc_id, score = line.split("\t")
                qi, row = int(qi), (int(rank), int(doc_id), float(score))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}: want query, rank, id, score") from None
            if qi < 0:
                raise ValueError(f"{path}:{lineno}: negative query index {qi}")
            if num_queries is not None and qi >= num_queries:
                raise ValueError(f"{path}:{lineno}: query index {qi} is out of range for {num_queries} queries")
            results.setdefault(qi, []).append(row)
    count = (max(results) + 1 if results else 0) if num_queries is None else num_queries
    return [[(doc_id, score) for _, doc_id, score in sorted(results.get(qi, []))] for qi in range(count)]

"""Binary I/O: CSR collections, ground-truth files, and result TSVs.

Collection format (little-endian):
    header:  nrows u64, ncols u64, nnz u64
    indptr:  (nrows+1) u64, cumulative, indptr[0]=0, indptr[nrows]=nnz
    indices: nnz u32, strictly increasing within each row
    values:  nnz f32, all > 0

Ground-truth format: nq u32, k u32, nq*k ids u32 (row-major), nq*k scores f32.
"""
from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .vectors import VectorSet


class StorageError(Exception):
    """Base class for on-disk format violations."""


class HeaderError(StorageError):
    pass


class TruncatedPayloadError(StorageError):
    pass


class ConsistencyError(StorageError):
    pass


class IndexOrderError(StorageError):
    pass


class NonPositiveValueError(StorageError):
    pass


_HEADER = struct.Struct("<QQQ")


def save_collection(vset: VectorSet, path):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(len(vset), vset.dim, vset.indices.size))
        fh.write(vset.indptr.astype("<u8").tobytes())
        fh.write(vset.indices.astype("<u4").tobytes())
        fh.write(vset.values.astype("<f4").tobytes())


def _read_exact(fh, nbytes, what):
    # a corrupt length field must fail here, not make read() allocate it;
    # only a regular file knows its size (a pipe cannot even tell())
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and nbytes > st.st_size - fh.tell():
        raise TruncatedPayloadError(f"truncated payload while reading {what}")
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise TruncatedPayloadError(f"truncated payload while reading {what}")
    return buf


def _check_end(fh):
    if fh.read(1):
        raise ConsistencyError("trailing bytes after declared payload")


def _read_array(fh, dtype, count, what):
    dtype = np.dtype(dtype)
    return np.frombuffer(_read_exact(fh, dtype.itemsize * count, what), dtype=dtype)


def _check_csr(ptr, indices, bound, what, values=None):
    """Raise unless ptr runs nondecreasing from 0 to indices.size, splitting
    indices into rows strictly increasing and < bound, and values (if given)
    are finite and strictly positive."""
    if ptr[0] != 0 or int(ptr[-1]) != indices.size or np.any(ptr[1:] < ptr[:-1]):
        raise ConsistencyError(f"{what}: pointers must run nondecreasing from 0 to {indices.size}")
    if indices.size and int(indices.max()) >= bound:
        raise ConsistencyError(f"{what}: index {int(indices.max())} is out of range for {bound}")
    # indices may fail to increase only where a row starts
    not_increasing = indices[1:] <= indices[:-1]
    starts = ptr[1:-1]
    not_increasing[starts[(starts > 0) & (starts < indices.size)] - 1] = False
    if np.any(not_increasing):
        raise IndexOrderError(f"{what}: indices must be strictly increasing within each row")
    # min and max propagate NaN, which fails both comparisons
    if values is not None and values.size and not (values.min() > 0 and values.max() < np.inf):
        raise NonPositiveValueError(f"{what}: values must be finite and strictly positive")


def load_collection(path) -> VectorSet:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise HeaderError("file too short for the 24-byte header")
        nrows, ncols, nnz = _HEADER.unpack(head)
        indptr = _read_array(fh, "<u8", nrows + 1, "indptr")
        indices = _read_array(fh, "<u4", nnz, "indices")
        values = _read_array(fh, "<f4", nnz, "values")
        _check_end(fh)
    _check_csr(indptr, indices, ncols, "collection", values)
    return VectorSet(ncols, indptr, indices, values)


_GT_HEADER = struct.Struct("<II")


def save_ground_truth(ids, scores, path):
    """ids/scores: (nq, k) arrays, rows sorted by (score desc, id asc)."""
    ids = np.ascontiguousarray(ids, dtype="<u4")
    scores = np.ascontiguousarray(scores, dtype="<f4")
    if ids.shape != scores.shape or ids.ndim != 2:
        raise ValueError("ids and scores must be matching 2-d arrays")
    with open(path, "wb") as fh:
        fh.write(_GT_HEADER.pack(ids.shape[0], ids.shape[1]))
        fh.write(ids.tobytes())
        fh.write(scores.tobytes())


def load_ground_truth(path):
    with open(path, "rb") as fh:
        head = fh.read(_GT_HEADER.size)
        if len(head) != _GT_HEADER.size:
            raise HeaderError("ground-truth file too short for header")
        nq, k = _GT_HEADER.unpack(head)
        ids = _read_array(fh, "<u4", nq * k, "ids").reshape(nq, k)
        scores = _read_array(fh, "<f4", nq * k, "scores").reshape(nq, k)
        _check_end(fh)
    return ids, scores


def write_results_tsv(results, path):
    """results: per query, a sequence of (doc_id, score) pairs."""
    with open(path, "w") as fh:
        for qi, res in enumerate(results):
            for rank, (doc_id, score) in enumerate(res):
                fh.write(f"{qi}\t{rank}\t{doc_id}\t{score:.6f}\n")


def read_results_tsv(path):
    results = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            qi, rank, doc_id, score = line.split("\t")
            results.setdefault(int(qi), []).append((int(rank), int(doc_id), float(score)))
    out = []
    for qi in range(max(results) + 1 if results else 0):
        rows = sorted(results.get(qi, []))
        out.append([(doc_id, score) for _, doc_id, score in rows])
    return out

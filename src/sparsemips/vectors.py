"""Sparse vector primitives, the immutable collection container, and the
input rules of the whole package: check_csr, as_unsigned for caller
integer arrays, check_int for counts, check_fraction for (0, 1]
parameters and check_flag for switches, each the one place its rule is
written.

A SparseVector stores parallel arrays of strictly increasing dimension
indices (uint32) and strictly positive values (float32).  A VectorSet holds
its rows once, as the CSR that scipy and the compiled sparsetools kernels
read: signed indices in index_dtype, float64 values rounded through float32.
Inner products accumulate in float64.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


class SparseVectorError(ValueError):
    pass


def _as_readonly(a):
    """`a` as an array flagged read-only whose memory nothing else can write,
    so a check made on it holds for as long as it lives.

    An array that owns its memory is flagged in place, not copied.  One
    that views memory it does not own is copied first when that memory can
    still be written: through the view itself, through an array under it,
    or through the buffer at the bottom (a bytearray, a writable mmap).  A
    slice of a caller's array is copied; a read-only view of read-only
    memory, such as an array read from a file's bytes, is not.  numpy
    cannot see the views of an owning array made before the call, so those
    stay writable.
    """
    a = np.asarray(a)
    if not a.flags.owndata and _writable_below(a):
        a = a.copy()
    a.setflags(write=False)
    return a


def _writable_below(a):
    """Whether the memory that the view `a` reads can be written through it,
    an array under it, or the object at the bottom of its bases."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return True
        if a.flags.owndata:
            return False
        a = a.base
    try:
        return not memoryview(a).readonly
    except TypeError:  # no base, or no buffer to ask
        return True


@dataclass(frozen=True)
class SparseVector:
    """A nonnegative sparse vector: sorted (dim, value) pairs, values finite and > 0."""

    dims: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dims = _as_readonly(as_unsigned(self.dims, np.uint32, "sparse vector: dims"))
        values = _as_readonly(np.ascontiguousarray(self.values, dtype=np.float32))
        if dims.shape != values.shape or dims.ndim != 1:
            raise SparseVectorError("dims and values must be 1-d arrays of equal length")
        check_csr(np.array([0, dims.size]), dims, 2**32, "sparse vector", values)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_pairs(cls, pairs):
        pairs = sorted(pairs)
        return cls([d for d, _ in pairs], [v for _, v in pairs])

    @property
    def nnz(self):
        return int(self.dims.size)

    def pairs(self):
        return list(zip(self.dims.tolist(), self.values.tolist()))

    def to_dense(self, dim):
        out = np.zeros(dim)
        out[self.dims] = self.values
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            np.array_equal(self.dims, other.dims)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.dims.tobytes(), self.values.tobytes()))


def dot(u: SparseVector, v: SparseVector) -> float:
    """Inner product over the common support, accumulated in float64."""
    if u.dims.size == 0 or v.dims.size == 0:
        return 0.0
    _, iu, iv = np.intersect1d(u.dims, v.dims, assume_unique=True, return_indices=True)
    if iu.size == 0:
        return 0.0
    return float(u.values[iu].astype(np.float64) @ v.values[iv].astype(np.float64))


def lp_norm(u: SparseVector, p: int) -> float:
    """l1 or l2 mass of a sparse vector; 0 for the empty vector."""
    if p not in (1, 2):
        raise ValueError(f"unsupported norm order {p}")
    vals = u.values.astype(np.float64)
    if vals.size == 0:
        return 0.0
    if p == 1:
        return float(np.sum(vals))
    return float(np.sqrt(np.sum(vals * vals)))


def restrict(u: SparseVector, dims) -> SparseVector:
    """Keep exactly the entries of u whose dimension lies in `dims`."""
    if u.dims.size == 0:
        return u
    dim_arr = np.fromiter(dims, dtype=np.int64) if not isinstance(dims, np.ndarray) else dims
    mask = np.isin(u.dims.astype(np.int64), dim_arr)
    return SparseVector(u.dims[mask], u.values[mask])


def _ranges(starts, stops):
    """Concatenation of arange(starts[i], stops[i]) over i, as intp, without a loop."""
    starts, stops = starts.astype(np.intp, copy=False), stops.astype(np.intp, copy=False)
    lengths = stops - starts
    entries = (stops - lengths.cumsum()).repeat(lengths)
    entries += np.arange(entries.size)
    return entries


def _gather_rows(ptr, indices, data, rows):
    """Rows `rows` of the CSR (ptr, indices, data), in that order, as a new
    CSR (sub_ptr, sub_indices, sub_data) plus each row's entry count, by
    csr_row_index, the compiled routine behind scipy's row indexing.

    It checks no bounds, so every row must lie in range.  The counts are
    gathered through `rows` as given (intp is the fast gather); `rows` is
    cast to ptr's dtype, which sub_ptr and sub_indices share, only for the
    kernel, which would otherwise upcast the whole CSR.
    """
    counts = ptr[rows + 1] - ptr[rows]
    sub_ptr = np.empty(rows.size + 1, dtype=ptr.dtype)
    sub_ptr[0] = 0
    np.add.accumulate(counts, out=sub_ptr[1:])  # cumsum would add in the platform int and cast
    size = int(sub_ptr[-1])
    sub_indices, sub_data = np.empty(size, dtype=ptr.dtype), np.empty(size, dtype=data.dtype)
    _sparsetools.csr_row_index(rows.size, rows.astype(ptr.dtype, copy=False), ptr, indices, data,
                               sub_indices, sub_data)
    return sub_ptr, sub_indices, sub_data, counts


def _transpose(ptr, indices, data, ncols):
    """The CSR (ptr, indices, data) of ncols columns flipped, as a new CSR
    (ptr, indices, data) of ncols rows, by csr_tocsc, the compiled routine
    behind scipy's tocsc and tocsr: the package's one call of it.

    A counting sort, so each new row holds its entries in old row order,
    ascending.  The new ptr and indices are in index_dtype of the largest
    count, and the kernel reads the old ones in that dtype too: viewed when
    the widths match (uint32 indices as int32), cast otherwise.  All three
    arrays are new and own their memory.  It checks no bounds, so every
    index must lie below ncols.
    """
    dtype = index_dtype(max(ptr.size - 1, ncols, indices.size))
    ptr, indices = (a.view(dtype) if a.dtype.itemsize == dtype.itemsize else a.astype(dtype) for a in (ptr, indices))
    new_ptr, new_indices, new_data = (np.empty(ncols + 1, dtype), np.empty(indices.size, dtype),
                                      np.empty(data.size, data.dtype))
    _sparsetools.csr_tocsc(ptr.size - 1, ncols, ptr, indices, data, new_ptr, new_indices, new_data)
    return new_ptr, new_indices, new_data


def _gathered(ptr, indices, lengths):
    """For each row of the CSR (ptr, indices), the sum of lengths[indices]
    over its entries: the entries it gathers from rows of those lengths.

    The sums keep the dtype of `lengths`, the row lengths of one CSR, which
    its index dtype holds: a row's indices are distinct, so its sum is at
    most that CSR's size.  Beside the result the call holds only
    lengths[indices], not a running sum of 64-bit integers per entry."""
    sums = np.zeros(len(ptr) - 1, dtype=lengths.dtype)
    rows = np.flatnonzero(np.diff(ptr))
    # a nonempty row's segment runs to the next nonempty row's first entry
    if rows.size:
        sums[rows] = np.add.reduceat(lengths[indices], ptr[rows].astype(np.intp), dtype=sums.dtype)
    return sums


def check_csr(ptr, indices, bound, what, values=None):
    """SparseVectorError, its message led by `what`, unless ptr runs
    nondecreasing from 0 to indices.size, splitting indices into rows
    strictly increasing and < bound, and values (if given) are finite and
    strictly positive."""
    if ptr[0] != 0 or int(ptr[-1]) != indices.size or (ptr[1:] < ptr[:-1]).any():
        raise SparseVectorError(f"{what}: pointers must run nondecreasing from 0 to {indices.size}")
    if indices.size and int(indices.max()) >= bound:
        raise SparseVectorError(f"{what}: index {int(indices.max())} is out of range for {bound}")
    # indices may fail to increase only where a row starts
    not_increasing = indices[1:] <= indices[:-1]
    starts = ptr[1:-1]
    not_increasing[starts[(starts > 0) & (starts < indices.size)] - 1] = False
    if not_increasing.any():
        raise SparseVectorError(f"{what}: indices must be strictly increasing within each row")
    # min and max propagate NaN, which fails both comparisons
    if values is not None and values.size and not (values.min() > 0 and values.max() < np.inf):
        raise SparseVectorError(f"{what}: values must be finite and strictly positive")


def as_unsigned(a, dtype, what):
    """`a` as a contiguous array of the unsigned integer `dtype`, its values
    unchanged: SparseVectorError unless it is empty or holds integers in the
    dtype's range.  A cast alone would wrap -1 to the largest value and
    truncate 2.7."""
    a = np.asarray(a)
    dtype = np.dtype(dtype)
    if a.size and not (a.dtype.kind == "u" and a.dtype.itemsize <= dtype.itemsize):
        if a.dtype.kind not in "iu":
            raise SparseVectorError(f"{what} must be integers, not {a.dtype}")
        low, high = a.min(), a.max()
        if low < 0 or high >= 2 ** (8 * dtype.itemsize):
            raise SparseVectorError(f"{what} must lie in [0, 2**{8 * dtype.itemsize}), not {low if low < 0 else high}")
    return np.ascontiguousarray(a, dtype=dtype)


def check_int(name, value, low, high=None):
    """value as an int; ValueError, naming it, unless it is an integer (a
    Python or numpy one, but not a bool) of at least `low` and below `high`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} must be an integer")
    value = int(value)
    if high is not None and not low <= value < high:
        raise ValueError(f"{name}={value} must lie in [{low}, {high})")
    if value < low:
        raise ValueError(f"{name}={value} must be at least {low}")
    return value


def check_fraction(name, value):
    """ValueError, naming it, unless value is a real number (a bool is not
    one) in (0, 1]; NaN is not in it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value <= 1:
        raise ValueError(f"{name}={value!r} must lie in (0, 1]")


def check_flag(name, value):
    """value as a bool; ValueError, naming it, unless it is a Python or numpy
    bool: 1 or "no" would pass a truth test."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name}={value!r} must be a bool")
    return bool(value)


EMPTY = SparseVector(np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float32))


def index_dtype(count):
    """The signed index dtype of the compiled sparsetools kernels for arrays
    whose values reach `count`: int32 while count < 2**31, int64 above.  A
    kernel takes one index dtype for all the arrays of a call."""
    return np.dtype(np.int32 if count < 2**31 else np.int64)


def _as_signed(a, dtype):
    """`a`, whose values fit `dtype`, in that dtype and read-only: a view of
    `a` held through _as_readonly when the widths match and `a` is in
    native byte order, one cast copy, flagged, otherwise."""
    if a.dtype.itemsize == dtype.itemsize and a.dtype.isnative:
        return _as_readonly(a).view(dtype)
    return _as_readonly(a.astype(dtype))


class VectorSet:
    """Ordered collection of SparseVectors sharing an ambient dimensionality.

    Positions are the implicit 0-based ids.  The rows are held once, as one
    read-only scipy CSR (scipy64()) whose arrays are indptr, indices and
    values: indptr and indices in index_dtype(max(dim, N, nnz)), int32
    below 2**31 (uint32 indices given are viewed, not copied, unless they
    view memory the caller can still write: see _as_readonly), and values
    in float64, each rounded through float32 first: 12 bytes per entry
    below 2**31, read as they are by search, exact_topk, ground_truth and
    the build.
    """

    def __init__(self, dim, indptr, indices, values, *, what="vector set"):
        """`what` names the set in the SparseVectorError of a bad CSR."""
        self.dim = check_int("dim", dim, 0, 2**32 + 1)
        indptr = _as_readonly(as_unsigned(indptr, np.uint64, f"{what}: pointers"))
        indices = _as_readonly(as_unsigned(indices, np.uint32, f"{what}: indices"))
        values = np.ascontiguousarray(values, dtype=np.float32)
        if indptr.size == 0 or indices.size != values.size:
            raise SparseVectorError("indptr/indices/values are inconsistent")
        check_csr(indptr, indices, self.dim, what, values)
        dtype = index_dtype(max(self.dim, indptr.size - 1, indices.size))
        data = _as_readonly(values.astype(np.float64))
        indices, indptr = _as_signed(indices, dtype), _as_signed(indptr, dtype)
        self._csr = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, self.dim), copy=False)
        # scipy rewraps some arrays as views, so these are its own: views of
        # memory already read-only, which _as_readonly does not copy
        self.indptr, self.indices, self.values = (
            _as_readonly(a) for a in (self._csr.indptr, self._csr.indices, self._csr.data))

    @classmethod
    def from_vectors(cls, dim, vectors):
        vectors = list(vectors)
        indptr = np.cumsum([0] + [v.dims.size for v in vectors], dtype=np.uint64)
        if vectors:
            indices = np.concatenate([v.dims for v in vectors])
            values = np.concatenate([v.values for v in vectors])
        else:
            indices = np.empty(0, dtype=np.uint32)
            values = np.empty(0, dtype=np.float32)
        return cls(dim, indptr, indices, values)

    @classmethod
    def from_scipy(cls, mat):
        """The rows of any scipy matrix or dense array, explicit zeros
        dropped; `mat` itself is left as it is."""
        mat = sp.csr_matrix(mat, copy=True)  # canonicalised in place below
        mat.sort_indices()
        mat.eliminate_zeros()
        return cls(mat.shape[1], mat.indptr, mat.indices, mat.data)

    def scipy64(self):
        """The set itself as a read-only float64 scipy CSR: no copy."""
        return self._csr

    def __len__(self):
        return self.indptr.size - 1

    def vector(self, j) -> SparseVector:
        """Row j, for j in [0, N); IndexError otherwise."""
        if not 0 <= j < len(self):
            raise IndexError(f"vector {j} is out of range for {len(self)} vectors")
        s, e = self.indptr[j:j + 2].tolist()
        dims = self.indices[s:e]
        return SparseVector(dims.view(np.uint32) if dims.itemsize == 4 else dims, self.values[s:e])

    def __iter__(self):
        for j in range(len(self)):
            yield self.vector(j)

    def nnz_per_row(self):
        return np.diff(self.indptr)

    def __eq__(self, other):
        if not isinstance(other, VectorSet):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

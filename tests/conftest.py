"""Shared fixtures: hand-built small collections and the worked golden matrix."""
import functools

import numpy as np
import pytest
from hypothesis import strategies as st

import sparsemips.index
from sparsemips import SparseVector, VectorSet, dequantize
from sparsemips.synth import random_collection

# 10x8 reference matrix for the set-level sketch golden test.  Rows are
# vectors, columns are dimensions; zeros mark absent entries.
GOLDEN_DENSE = np.array(
    [
        [0.00, 0.30, 0.00, 0.20, 0.30, 0.00, 0.10, 0.00],
        [0.20, 0.00, 0.24, 0.00, 0.00, 0.20, 0.00, 0.00],
        [0.08, 0.40, 0.10, 0.20, 0.10, 0.00, 0.00, 0.00],
        [0.00, 0.20, 0.00, 0.00, 0.20, 0.00, 0.10, 0.30],
        [0.30, 0.00, 0.00, 0.10, 0.00, 0.30, 0.10, 0.20],
        [0.00, 0.00, 0.10, 0.00, 0.10, 0.00, 0.00, 0.00],
        [0.10, 0.00, 0.00, 0.20, 0.00, 0.40, 0.10, 0.00],
        [0.00, 0.20, 0.20, 0.10, 0.00, 0.00, 0.10, 0.00],
        [0.00, 0.00, 0.30, 0.00, 0.10, 0.30, 0.20, 0.00],
        [0.05, 0.20, 0.18, 0.20, 0.20, 0.00, 0.00, 0.00],
    ],
    dtype=np.float32,
)

# Expected output of the set-level sketch at alpha=0.4, as published with the
# reference example: (row, col) positions zeroed out.  Column 6 of the
# reference is internally inconsistent (it keeps 2 of 6 entries where
# ceil(0.4*6)=3) and is excluded from golden comparisons; columns 3 and 5
# break value ties differently from our documented (value desc, id asc) rule.
GOLDEN_ZEROED = {
    (1, 5),
    (2, 0), (2, 2), (2, 4),
    (3, 1), (3, 6),
    (4, 3), (4, 5), (4, 6), (4, 7),
    (5, 2), (5, 4),
    (6, 0), (6, 3), (6, 6),
    (7, 1), (7, 3), (7, 6),
    (8, 4),
    (9, 0), (9, 1), (9, 2),
}

GOLDEN_TIE_COLUMNS = (3, 5)
GOLDEN_EXCLUDED_COLUMNS = (6,)


def dense_to_vectorset(dense) -> VectorSet:
    vectors = []
    for row in np.asarray(dense, dtype=np.float32):
        dims = np.flatnonzero(row).astype(np.uint32)
        vectors.append(SparseVector(dims, row[dims]))
    return VectorSet.from_vectors(dense.shape[1], vectors)


@functools.lru_cache(maxsize=4)
def summaries_by_block(index):
    """A BlockedIndex's dim-major summaries read back block-major, as CSR
    (ptr, dims, positions): the entries of block b are positions[ptr[b]:ptr[b+1]]
    of summary_values, on dims[ptr[b]:ptr[b+1]], ascending."""
    dims = np.repeat(np.arange(index.dim, dtype=np.uint32), np.diff(index.summary_ptr))
    # a stable sort by block keeps each block's entries in dim order
    positions = np.argsort(index.summary_blocks, kind="stable")
    ptr = np.searchsorted(index.summary_blocks[positions], np.arange(index.num_blocks + 1))
    return ptr, dims[positions], positions


# three values, so rows and columns are full of ties
TIED_VALUES = (0.25, 1.0, 7.5)


@st.composite
def tied_sets(draw, min_rows=0, dim=None, values=st.sampled_from(TIED_VALUES)):
    """A VectorSet of `dim` (by default at most 12) dims and at most 15 rows,
    values drawn from `values` (by default TIED_VALUES); rows and columns
    may be empty."""
    dim = draw(st.integers(1, 12)) if dim is None else dim
    rows = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), values, max_size=dim),
                         min_size=min_rows, max_size=15))
    return VectorSet.from_vectors(dim, [
        SparseVector(np.array(sorted(row), dtype=np.uint32), np.array([row[d] for d in sorted(row)], dtype=np.float32))
        for row in rows
    ])


def members_of(index, b):
    """Member ids of block b in a BlockedIndex, ascending."""
    return index.member_ids[index.block_ptr[b]:index.block_ptr[b + 1]]


def summary_of(index, b):
    """(dims, float64 values) of block b's summary in a BlockedIndex."""
    ptr, dims, positions = summaries_by_block(index)
    s, e = ptr[b], ptr[b + 1]
    return dims[s:e], dequantize(index.summary_values[positions[s:e]], index.m[b], index.delta[b])


def golden_expected_dense():
    out = GOLDEN_DENSE.copy()
    for r, c in GOLDEN_ZEROED:
        out[r, c] = 0.0
    return out


@pytest.fixture(scope="session")
def golden_set() -> VectorSet:
    return dense_to_vectorset(GOLDEN_DENSE)


@pytest.fixture(scope="session")
def small_set() -> VectorSet:
    return random_collection(200, 50, 8, seed=3)


@pytest.fixture(scope="session")
def medium_set() -> VectorSet:
    return random_collection(500, 120, 15, seed=4)


@functools.cache
def hub_collection() -> VectorSet:
    """3600 rows on 20 random dims of 0-99 plus dim 110, which every row
    holds, so that dim's inverted list is longer than one piece of the build
    at alpha 0.5 and 1, and a piece holds two or more of the other lists;
    dims 100-109 and 111-119 hold nothing.  Rows 0-1799 carry 100x values,
    so the alpha=0.5 sketch keeps most of their entries."""
    rng = np.random.default_rng(7)
    n, k = 3600, 20
    dims = np.sort(np.argsort(rng.random((n, 100)), axis=1)[:, :k], axis=1)
    dims = np.concatenate((dims, np.full((n, 1), 110)), axis=1)
    values = rng.uniform(0.1, 1.0, (n, k + 1)) * np.where(np.arange(n) < n // 2, 100.0, 1.0)[:, None]
    return VectorSet(120, np.arange(0, n * (k + 1) + 1, k + 1), dims.ravel(), values.ravel().astype(np.float32))


def list_weights(vset):
    """Per dim, the entries of the rows in its inverted list: what the list
    weighs in the pieces of the build."""
    rows = vset.scipy64()
    row_entries = np.diff(rows.indptr)
    return np.bincount(rows.indices, weights=row_entries.repeat(row_entries), minlength=vset.dim)


# sizes of a build piece in row entries, by test id suffix: the module's own
# (no suffix), one list per piece, and every list in one piece
PIECE_SIZES = {"": None, "-one_list": 1, "-one_piece": 2**62}


def with_piece_sizes(cases):
    """pytest params: each case (a tuple) at each of PIECE_SIZES, as its last value."""
    return [pytest.param(*case, size, id="-".join(map(str, case)) + suffix)
            for case in cases for suffix, size in PIECE_SIZES.items()]


@pytest.fixture
def piece_entries(monkeypatch):
    """Sets the size of a build piece; None keeps the module's."""
    def set_size(size):
        if size is not None:
            monkeypatch.setattr(sparsemips.index, "PIECE_ENTRIES", size)
    return set_size

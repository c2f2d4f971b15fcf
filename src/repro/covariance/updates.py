"""Pair-product update computation (sections 4 and 5 of the paper).

The stream of covariance increments is ``X_i^(t) = (Y_a - E Y_a)(Y_b - E Y_b)``
for the pair ``i = (a, b)``.  Every writer here feeds the uncentered form
``Y_a Y_b``: the paper's one-pass fast path (section 5), valid when feature
means are negligible against their stds, and the only form a sparse sample
can take without densifying it (section 4 notes the experiments may skip
the mean adjustment).  A batch becomes updates either by one ``X^T X`` over
its index union (:func:`dense_batch_products`) or by expanding each
sample's pairs (:func:`sparse_batch_pairs`); a dense row is the sample
that observes every feature (:func:`dense_rows_as_samples`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.hashing.pairs import _check_dimension, _row_offset, pair_to_index

__all__ = [
    "triu_pair_values",
    "dense_batch_products",
    "union_pair_keys",
    "sparse_sample_pairs",
    "sparse_batch_pairs",
    "aggregate_pair_updates",
    "validate_sparse_batch",
    "dense_rows_as_samples",
    "InvalidBatchError",
]


@lru_cache(maxsize=8)
def _triu_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, k=1)


@lru_cache(maxsize=8)
def _triu_flat(d: int) -> np.ndarray:
    return np.flatnonzero(np.triu(np.ones((d, d), dtype=bool), k=1))


def triu_pair_values(matrix: np.ndarray) -> np.ndarray:
    """Extract the strict upper triangle row-major — aligned with flat pair
    keys ``0..p-1`` of :func:`repro.hashing.pair_to_index`."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    # One gather through flat offsets: several times faster than indexing
    # with a (rows, cols) pair, same elements.
    return np.take(matrix, _triu_flat(matrix.shape[0]))


def dense_batch_products(batch: np.ndarray) -> np.ndarray:
    """Sum of pair products over a dense batch, as a flat ``p``-vector.

    Computes ``sum_t y_t y_t^T`` restricted to the strict upper triangle:
    the total update mass a batch of samples contributes to every
    covariance entry.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    gram = batch.T @ batch
    return triu_pair_values(gram)


def union_pair_keys(union: np.ndarray, dim: int) -> np.ndarray:
    """Flat keys of every pair of a sorted index ``union``, ascending.

    Aligned with :func:`dense_batch_products` over a batch whose columns
    are ``union``: entry ``t`` of both belongs to the same pair.
    """
    union = np.asarray(union, dtype=np.int64)
    # key(a, b) = key(a, a + 1) + (b - a - 1): an outer sum whose strict
    # upper triangle holds every pair's key.  The last index starts no
    # pair inside the union; its row lies below the diagonal.
    head = union[:-1]
    start = pair_to_index(head, head + 1, dim) - head - 1
    return triu_pair_values(np.add.outer(np.append(start, 0), union))


def sparse_sample_pairs(
    indices: np.ndarray,
    values: np.ndarray,
    dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair keys and products ``v_a * v_b`` for one sparse sample.

    A sample with ``m`` non-zeros touches exactly ``m*(m-1)/2`` covariance
    entries; everything else receives a zero update and is skipped — the
    sparsity shortcut of section 5.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if indices.shape != values.shape:
        raise ValueError("indices and values must align")
    order = np.argsort(indices, kind="stable")
    indices = indices[order]
    values = values[order]
    m = indices.size
    if m < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    rows, cols = _triu_indices(m)
    keys = pair_to_index(indices[rows], indices[cols], dim)
    return keys, values[rows] * values[cols]


def sparse_batch_pairs(
    indices: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
    dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair keys and products for a whole batch of sparse samples at once.

    ``indices``/``values`` are the concatenated non-zeros of every sample
    and ``lengths`` gives each sample's non-zero count, so sample ``s``
    owns the slice ``[sum(lengths[:s]), sum(lengths[:s+1]))``.  The output
    equals concatenating :func:`sparse_sample_pairs` over the samples in
    order (same keys, same products, same ordering), but the whole batch is
    expanded with a handful of ``repeat``/``cumsum`` kernels instead of a
    Python loop over samples.  Samples are sorted with one ``lexsort``
    unless every one already ascends.  A key repeats in the output when
    two samples share its pair; nothing here sums repeats.

    The expansion works on the per-sample-sorted arrays: the element at
    position ``a`` of a sample ending before position ``e`` is the row of
    the ``e - 1 - a`` pairs ``(a, b)``, ``a < b < e``.  A pair's key is
    ``start[a] + idx[b]`` with ``start = key(i, i + 1) - i - 1`` computed
    once per non-zero (the identity :func:`union_pair_keys` uses), so
    ``np.repeat`` with those counts lays out the row side of every key and
    product, and a cumulative block-offset subtraction yields the column
    positions.  :func:`repro.hashing.pair_to_index`'s refusals are checked
    on the non-zeros of the samples that form a pair: an index outside
    ``[0, dim)`` or repeated within its sample raises ``ValueError``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if indices.shape != values.shape or indices.ndim != 1:
        raise ValueError("indices and values must be aligned 1-D arrays")
    total = int(lengths.sum()) if lengths.size else 0
    if total != indices.size:
        raise ValueError(
            f"lengths sum to {total} but {indices.size} non-zeros were given"
        )
    if indices.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    # Sort indices *within* each sample (stable, matching the per-sample
    # argsort of sparse_sample_pairs); samples that already ascend are
    # their own sorted order, and repeat no index.
    sample_id = None
    if _samples_ascend(indices, lengths):
        idx, val = indices, values
    else:
        sample_id = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        order = np.lexsort((indices, sample_id))
        idx = indices[order]
        val = values[order]

    position = np.arange(idx.size, dtype=np.int64)
    reps = np.repeat(np.cumsum(lengths), lengths) - 1 - position
    num_out = int(reps.sum())
    if num_out == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    _check_dimension(dim)
    paired = idx[np.repeat(lengths, lengths) > 1]
    if (
        paired.min() < 0
        or paired.max() >= dim
        or (
            sample_id is not None
            and ((idx[1:] == idx[:-1]) & (sample_id[1:] == sample_id[:-1])).any()
        )
    ):
        raise ValueError("pair indices must satisfy 0 <= i < j < d")

    block_starts = np.cumsum(reps) - reps
    cols = np.arange(num_out, dtype=np.int64)
    cols -= np.repeat(block_starts - position - 1, reps)
    keys = np.repeat(_row_offset(idx, dim) - idx - 1, reps)
    keys += idx[cols]
    products = np.repeat(val, reps)
    products *= val[cols]
    return keys, products


def _samples_ascend(indices: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether every sample's slice of ``indices`` strictly ascends: O(nnz)."""
    # A step between neighbours of one sample must climb; steps that cross
    # into the next sample are exempt.
    climbs = np.diff(indices) > 0
    starts = np.cumsum(lengths)[:-1]
    climbs[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(climbs.all())


class InvalidBatchError(ValueError):
    """A batch failed its checks before it changed any state.

    The fault is the input's, not the write path's: the HTTP layer answers
    400, the ingest circuit breaker counts it neither way, and WAL replay
    sets such a record aside instead of failing recovery.
    """


def validate_sparse_batch(
    samples, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a batch of sparse ``(indices, values)`` samples; concatenate it.

    Returns ``(indices, values, lengths)`` in the layout
    :func:`sparse_batch_pairs` takes.  Raises :class:`InvalidBatchError`
    (a ``ValueError``) unless every sample's indices and values are
    aligned 1-D arrays, every index lies in ``[0, dim)``, no index repeats
    within a sample and every value is finite, so a caller that validates
    first refuses a bad batch before any state changes.  A missing feature
    is an absent index, never a NaN.  Samples whose indices ascend pass in
    O(nnz); any other sample order costs one ``lexsort``.
    """
    idx_arrays, val_arrays = [], []
    for sample in samples:
        indices = np.asarray(sample[0], dtype=np.int64)
        values = np.asarray(sample[1], dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise InvalidBatchError("indices and values must be aligned 1-D arrays")
        idx_arrays.append(indices)
        val_arrays.append(values)
    lengths = np.asarray([a.size for a in idx_arrays], dtype=np.int64)
    if not idx_arrays or not lengths.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64), lengths
    indices = np.concatenate(idx_arrays)
    values = np.concatenate(val_arrays)
    if indices.min() < 0 or indices.max() >= dim:
        raise InvalidBatchError(f"sample indices must lie in [0, {dim})")
    if not np.isfinite(values).all():
        raise InvalidBatchError(
            "sample values must be finite; leave a missing feature out of "
            "the indices instead"
        )
    if not _samples_ascend(indices, lengths):
        sample = np.repeat(np.arange(lengths.size), lengths)
        ordered = indices[np.lexsort((indices, sample))]
        if ((ordered[1:] == ordered[:-1]) & (sample[1:] == sample[:-1])).any():
            raise InvalidBatchError("a sample repeats an index")
    return indices, values, lengths


def dense_rows_as_samples(rows, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dense ``(n, dim)`` rows as sparse samples that observe every feature.

    Each row becomes ``(arange(dim), row)``, all sharing one index array,
    so every writer takes dense rows through its own ``fit_sparse``; such a
    batch takes the GEMM route over the full feature set.  Raises
    :class:`InvalidBatchError` on any other shape or on a non-finite value
    anywhere, before any sample exists, so a writer can apply the samples
    batch by batch and still refuse all of them or none.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise InvalidBatchError(f"expected shape (n, {dim}), got {rows.shape}")
    if not np.isfinite(rows).all():
        raise InvalidBatchError(
            "dense rows must be finite; send a row with a missing feature "
            "as a sparse sample without it"
        )
    features = np.arange(dim, dtype=np.int64)
    return [(features, row) for row in rows]


def aggregate_pair_updates(
    keys_list: list[np.ndarray],
    values_list: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-sample pair updates into unique (key, summed value) arrays.

    A linear sketch does not need this: inserting the per-key sums equals
    inserting each update, up to summation order, so the pipeline hands
    its sketches the expanded updates as they come.  The ingest-route
    tests use it as the oracle for the GEMM route's per-key sums.
    """
    if not keys_list:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys = np.concatenate(keys_list)
    values = np.concatenate(values_list)
    if keys.size == 0:
        return keys.astype(np.int64), values.astype(np.float64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=uniq.size)
    return uniq.astype(np.int64), sums.astype(np.float64)

"""Pair-product update computation (section 4 of the paper).

The stream of covariance increments is ``X_i^(t) = (Y_a - E Y_a)(Y_b - E Y_b)``
for the pair ``i = (a, b)``.  Three practical variants are provided:

* **uncentered** — ``Y_a Y_b`` directly; the paper's recommended fast path
  (section 5) valid when feature means are negligible vs their stds.
* **running-mean centered** — subtract the current running mean, skipping
  the correction for the drift of earlier samples ("In the real experiments
  ... we may just skip the adjustment term", section 4).
* **exact centered** — running mean plus the closed-form ``adjustment`` term
  of section 4, which keeps the sketch content exactly equal to the batch
  centered co-moment at every time step.

All three are expressed as batched matrix products so the dense path costs
one ``d x d`` GEMM per batch regardless of batch size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.hashing.pairs import pair_to_index

__all__ = [
    "triu_pair_values",
    "dense_batch_products",
    "union_pair_keys",
    "adjustment_matrix",
    "sparse_sample_pairs",
    "sparse_batch_pairs",
    "aggregate_pair_updates",
    "validate_sparse_batch",
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


def dense_batch_products(
    batch: np.ndarray, center: np.ndarray | None = None
) -> np.ndarray:
    """Sum of pair products over a dense batch, as a flat ``p``-vector.

    Computes ``sum_t (y_t - c)(y_t - c)^T`` restricted to the strict upper
    triangle, where ``c`` is ``center`` (or zero).  This equals the total
    update mass a batch of samples contributes to every covariance entry.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if center is not None:
        batch = batch - np.asarray(center, dtype=np.float64)
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


def adjustment_matrix(
    mean_old: np.ndarray,
    mean_new: np.ndarray,
    t_prev: int,
) -> np.ndarray:
    """The section-4 ``adjustment`` term as a flat ``p``-vector.

    When the running mean moves from ``mean_old`` (over ``t_prev`` samples)
    to ``mean_new`` (over ``t_prev + 1``), the ``t_prev`` previously
    inserted centered products must be corrected by::

        sum_k (y_k - m_new)(y_k - m_new)^T - sum_k (y_k - m_old)(y_k - m_old)^T
            = t_prev * d d^T,    d = m_old - m_new

    (the cross terms vanish because ``sum_k (y_k - m_old) = 0``).  Adding
    this to the newly inserted ``(y_new - m_new)`` product keeps the
    accumulated sum exactly equal to the batch centered co-moment at every
    step — verified against :class:`repro.covariance.ExactCovariance` in
    the tests.

    Note: the paper's printed expression,
    ``(t+1) d_a d_b + e_a d_b + d_a e_b`` with ``e = y_new - m_old``, is the
    variant that pairs with centering the *new* sample by the **old** mean;
    both variants agree with this one after simplification (``d`` is
    proportional to ``e``), and this closed form is the one that is exact
    for the new-mean centering the pipeline uses.
    """
    d = np.asarray(mean_old, dtype=np.float64) - np.asarray(mean_new, dtype=np.float64)
    return triu_pair_values(t_prev * np.outer(d, d))


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
    local position ``a`` of a sample with ``m`` non-zeros is the row of
    ``m - 1 - a`` upper-triangle pairs, so ``np.repeat`` with those counts
    lays out all rows, and a cumulative block-offset subtraction yields the
    matching column positions.
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
    # their own sorted order.
    if _samples_ascend(indices, lengths):
        idx, val = indices, values
    else:
        sample_id = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        order = np.lexsort((indices, sample_id))
        idx = indices[order]
        val = values[order]

    starts = np.cumsum(lengths) - lengths  # first slot of each sample
    m_of = np.repeat(lengths, lengths)  # sample size, per element
    local = np.arange(idx.size, dtype=np.int64) - np.repeat(starts, lengths)
    reps = m_of - 1 - local  # pairs rowed by this element
    num_out = int(reps.sum())
    if num_out == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    rows = np.repeat(np.arange(idx.size, dtype=np.int64), reps)
    block_starts = np.cumsum(reps) - reps
    cols = np.arange(num_out, dtype=np.int64) - np.repeat(block_starts, reps)
    cols += rows + 1
    keys = pair_to_index(idx[rows], idx[cols], dim)
    return keys, val[rows] * val[cols]


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

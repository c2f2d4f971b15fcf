"""One-pass streaming pipeline: samples ``Y^(t)`` -> pair updates -> sketch.

This is the glue that makes Algorithm 1/2 of the paper operate on raw data
streams.  Responsibilities:

* maintain per-feature running moments (the std for the correlation
  normalisation used throughout the paper's experiments);
* expand each batch of samples into uncentered covariance-entry updates
  (one GEMM over the batch's index union or pair expansion, section 5;
  ``fit_sparse`` picks the cheaper one per batch, see :func:`gemm_union`).
  Dense rows are samples that observe every feature, routed like any
  batch: they take the GEMM route;
* feed the updates to any streaming estimator (vanilla CS, ASCS, ASketch)
  through the uniform ``ingest(keys, values, num_samples)`` interface;
* convert retrieval results back from flat pair keys to ``(i, j)`` pairs.

Batching is exact for the sketch content (linear sketches commute with
summation); it only coarsens the *sampling decision* grid of ASCS, which is
the documented production trade-off (DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.covariance.running import SparseMoments
from repro.covariance.updates import (
    # Unused here; perfbench's tracer patches this name on this module.
    aggregate_pair_updates,  # noqa: F401
    dense_batch_products,
    dense_rows_as_samples,
    sparse_batch_pairs,
    union_pair_keys,
    validate_sparse_batch,
)
from repro.hashing.pairs import index_to_pair, num_pairs
from repro.sketch.topk import scan_top_keys

__all__ = ["CovarianceSketcher"]

_VALUE_MODES = ("covariance", "correlation")
_MAX_DENSE_KEYS = 50_000_000

#: A sparse batch takes the GEMM route once its expanded pair count
#: reaches this multiple of the pair count of its index union.  Measured,
#: not tuned: the ``route`` records of ``BENCH_kernels.json`` time both
#: routes across the crossover, and the bench's check fails when this
#: constant sends a swept batch to the slower route.  Where the routes
#: cross depends on the process's allocator history (about 0.35 in a
#: fresh process, 0.6-0.8 after large arrays came and went; PERF.md,
#: "Dense/sparse routing"); 0.4 passes that check in both.
GEMM_CROSSOVER = 0.4


def gemm_union(indices: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The sorted index union of a batch when the GEMM route is cheaper.

    Pair expansion hands the sketch all ``sum m(m-1)/2`` pair products of
    the batch, repeats included; the GEMM route hands it at most the
    ``u(u-1)/2`` pairs of the ``u`` distinct indices, one sum each.
    Counting ``u`` takes one sort of the indices.  Returns ``None`` when
    the batch should expand.
    """
    expanded = int((lengths * (lengths - 1)).sum()) // 2
    if expanded == 0:
        return None
    ordered = np.sort(indices)
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    u = int(np.count_nonzero(fresh))
    if expanded < GEMM_CROSSOVER * (u * (u - 1) // 2):
        return None
    return ordered[fresh]


class CovarianceSketcher:
    """Stream samples into a sketch-backed sparse covariance estimator.

    Parameters
    ----------
    dim:
        Number of features ``d``.
    estimator:
        Any object with ``ingest(keys, values, num_samples)`` and
        ``estimate(keys)`` — see :mod:`repro.core`.
    mode:
        ``"covariance"`` sketches raw (uncentered, section 5) covariance
        mass; ``"correlation"`` normalises each sample by the running
        per-feature std first, so the sketch estimates correlations
        directly (the paper's experimental setting).
    batch_size:
        Samples per ingest call.
    std_floor:
        Lower clamp for the normalising std (guards dead features).
    """

    def __init__(
        self,
        dim: int,
        estimator,
        *,
        mode: str = "correlation",
        batch_size: int = 32,
        std_floor: float = 1e-6,
    ):
        if mode not in _VALUE_MODES:
            raise ValueError(f"mode must be one of {_VALUE_MODES}, got {mode!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dim = int(dim)
        self.num_pairs = num_pairs(self.dim)
        self.estimator = estimator
        self.mode = mode
        self.batch_size = int(batch_size)
        self.std_floor = float(std_floor)
        self.sparse_moments = SparseMoments(self.dim)
        self.samples_seen = 0
        self._dense_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _dense_pair_keys(self) -> np.ndarray:
        """Every pair key ``0..p-1``, built once: the keys of a batch that
        covers every feature (the caller checks ``p <= _MAX_DENSE_KEYS``)."""
        if self._dense_keys is None:
            self._dense_keys = np.arange(self.num_pairs, dtype=np.int64)
            # Every full-cover batch re-hashes this exact array; let
            # cache-capable sketches precompute the buckets and signs.
            sketch = getattr(self.estimator, "sketch", None)
            if (
                sketch is not None
                and hasattr(sketch, "cache_keys")
                and self.num_pairs <= 4_000_000
            ):
                sketch.cache_keys(self._dense_keys)
        return self._dense_keys

    def fit_dense(self, data: np.ndarray) -> "CovarianceSketcher":
        """Stream dense ``(n, d)`` rows through :meth:`fit_sparse`.

        Each row is the sample ``(arange(d), row)``, so a batch of rows
        takes the GEMM route over the whole feature set.  A wrong shape or
        a non-finite value anywhere raises
        :class:`~repro.covariance.InvalidBatchError` before any batch is
        applied; the checked rows then go in batch by batch, so no second
        copy of the array is held.
        """
        return self.fit_sparse(iter(dense_rows_as_samples(data, self.dim)))

    def fit_sparse(
        self,
        samples: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> "CovarianceSketcher":
        """Stream sparse samples ``(indices, values)`` through the estimator.

        Each batch is checked before it changes any state (see
        :func:`repro.covariance.updates.validate_sparse_batch`), then
        expands its pairs or takes one GEMM, whichever :func:`gemm_union`
        finds cheaper.  A sequence (a list, say) is all or nothing: every
        batch is checked before the first is applied.  Any other iterable
        is read batch by batch, so a bad sample raises after the batches
        before its own were applied.
        """
        size = self.batch_size
        if isinstance(samples, Sequence):
            checked = [
                validate_sparse_batch(samples[start : start + size], self.dim)
                for start in range(0, len(samples), size)
            ]
            for indices, values, lengths in checked:
                self._apply_sparse_batch(indices, values, lengths)
            return self
        batch: list[tuple[np.ndarray, np.ndarray]] = []
        for sample in samples:
            batch.append(sample)
            if len(batch) >= size:
                self._apply_sparse_batch(*validate_sparse_batch(batch, self.dim))
                batch = []
        if batch:
            self._apply_sparse_batch(*validate_sparse_batch(batch, self.dim))
        return self

    def _apply_sparse_batch(self, all_idx, all_val, lengths) -> None:
        """Apply one batch :func:`validate_sparse_batch` has accepted."""
        b = lengths.size
        self.sparse_moments.update_batch(all_idx, all_val, num_samples=b)

        if self.mode == "correlation" and all_idx.size:
            all_val = all_val / self.sparse_moments.std(floor=self.std_floor)[all_idx]

        union = gemm_union(all_idx, lengths)
        if union is None:
            # One fused kernel expands every sample's m*(m-1)/2 pairs at
            # once.  A key two samples share arrives once per sample: the
            # sketches are linear and the ASCS gate reads the pre-batch
            # estimate, so repeats need no per-key sums.
            keys, values = sparse_batch_pairs(all_idx, all_val, lengths, self.dim)
        else:
            keys, values = self._gemm_pair_updates(all_idx, all_val, lengths, union)
        self.estimator.ingest(keys, values, num_samples=b)
        self.samples_seen += b

    def _gemm_pair_updates(self, indices, values, lengths, union):
        """Per-key sums of the batch's pair products, from one GEMM over
        ``union``.

        The keys are the expanded route's distinct keys, ascending; each
        sum adds that key's products in another order.  Absent indices are
        zeros of the ``(b, u)`` block, so only the pairs some sample
        co-observes are kept.
        """
        u = union.size
        rows = np.repeat(np.arange(lengths.size), lengths)
        cols = np.searchsorted(union, indices)
        block = np.zeros((lengths.size, u))
        block[rows, cols] = values
        sums = dense_batch_products(block)
        if (lengths == u).any():  # one sample co-observes every union pair
            if u == self.dim and self.num_pairs <= _MAX_DENSE_KEYS:
                return self._dense_pair_keys(), sums
            return union_pair_keys(union, self.dim), sums
        block[rows, cols] = 1.0
        kept = dense_batch_products(block) > 0
        return union_pair_keys(union, self.dim)[kept], sums[kept]

    def fit(self, data) -> "CovarianceSketcher":
        """Dispatch on input type: dense array, scipy CSR matrix, or an
        iterable of sparse ``(indices, values)`` samples."""
        if isinstance(data, np.ndarray):
            return self.fit_dense(data)
        if hasattr(data, "tocsr") and hasattr(data, "indptr"):
            return self.fit_sparse(_iter_csr_rows(data))
        if isinstance(data, Iterable):
            return self.fit_sparse(data)
        raise TypeError(f"unsupported data type: {type(data).__name__}")

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def estimate_keys(self, keys) -> np.ndarray:
        """Estimates for flat pair keys (in the mode's units)."""
        return np.asarray(self.estimator.estimate(keys), dtype=np.float64)

    def estimate_pairs(self, i, j) -> np.ndarray:
        """Estimates for explicit ``(i, j)`` pairs."""
        from repro.hashing.pairs import pair_to_index

        return self.estimate_keys(pair_to_index(i, j, self.dim))

    def top_pairs(
        self, k: int, *, scan: bool | None = None, chunk: int = 1 << 20
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-``k`` pairs by estimate.

        ``scan=True`` ranks by querying every pair key (exact, small ``p``
        only — the section 8.3 protocol); ``scan=False`` uses the
        estimator's candidate tracker (trillion-scale protocol).  The
        default picks scanning whenever ``p <= 4e6``.

        Returns ``(i, j, estimates)`` sorted by decreasing estimate.
        """
        if scan is None:
            scan = self.num_pairs <= 4_000_000
        if scan:
            keys, estimates = self._scan_top_keys(k, chunk)
        else:
            keys, estimates = self.estimator.top_k(k)
        i, j = index_to_pair(keys, self.dim)
        return i, j, estimates

    def _scan_top_keys(self, k: int, chunk: int) -> tuple[np.ndarray, np.ndarray]:
        # One shared fixed-buffer scan kernel (the serving snapshot builder
        # uses the same one with a two-sided rank transform).
        return scan_top_keys(self.estimate_keys, self.num_pairs, k, chunk=chunk)


def _iter_csr_rows(matrix) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, values)`` per row of a scipy CSR matrix."""
    indptr = matrix.indptr
    for row in range(matrix.shape[0]):
        lo, hi = indptr[row], indptr[row + 1]
        yield matrix.indices[lo:hi].astype(np.int64), matrix.data[lo:hi]

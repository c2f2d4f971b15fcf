"""One-pass streaming pipeline: samples ``Y^(t)`` -> pair updates -> sketch.

This is the glue that makes Algorithm 1/2 of the paper operate on raw data
streams.  Responsibilities:

* maintain per-feature running moments (mean for centering, std for the
  correlation normalisation used throughout the paper's experiments);
* expand each batch of samples into covariance-entry updates (dense GEMM
  path or sparse pair-expansion path, section 5; ``fit_sparse`` picks the
  cheaper one per batch, see :func:`gemm_union`);
* feed the updates to any streaming estimator (vanilla CS, ASCS, ASketch,
  Cold Filter) through the uniform ``ingest(keys, values, num_samples)``
  interface;
* convert retrieval results back from flat pair keys to ``(i, j)`` pairs.

Batching is exact for the sketch content (linear sketches commute with
summation); it only coarsens the *sampling decision* grid of ASCS, which is
the documented production trade-off (DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.covariance.running import RunningMoments, SparseMoments
from repro.covariance.updates import (
    InvalidBatchError,
    adjustment_matrix,
    aggregate_pair_updates,
    dense_batch_products,
    sparse_batch_pairs,
    triu_pair_values,
    union_pair_keys,
    validate_sparse_batch,
)
from repro.hashing.pairs import index_to_pair, num_pairs
from repro.sketch.topk import scan_top_keys

__all__ = ["CovarianceSketcher"]

_CENTERING_MODES = ("none", "running", "exact")
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
        ``"covariance"`` sketches raw covariance mass; ``"correlation"``
        normalises each sample by the running per-feature std first, so the
        sketch estimates correlations directly (the paper's experimental
        setting).
    centering:
        ``"none"`` (section-5 fast path, default), ``"running"`` (subtract
        the running mean, skip the drift adjustment — the paper's
        implementation choice, section 8.1) or ``"exact"`` (running mean
        plus the section-4 adjustment; dense path only).
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
        centering: str = "none",
        batch_size: int = 32,
        std_floor: float = 1e-6,
    ):
        if mode not in _VALUE_MODES:
            raise ValueError(f"mode must be one of {_VALUE_MODES}, got {mode!r}")
        if centering not in _CENTERING_MODES:
            raise ValueError(
                f"centering must be one of {_CENTERING_MODES}, got {centering!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dim = int(dim)
        self.num_pairs = num_pairs(self.dim)
        self.estimator = estimator
        self.mode = mode
        self.centering = centering
        self.batch_size = int(batch_size)
        self.std_floor = float(std_floor)
        self.moments = RunningMoments(self.dim)
        self.sparse_moments = SparseMoments(self.dim)
        self.samples_seen = 0
        self._dense_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Dense path
    # ------------------------------------------------------------------
    def _dense_pair_keys(self) -> np.ndarray:
        if self._dense_keys is None:
            if self.num_pairs > _MAX_DENSE_KEYS:
                raise ValueError(
                    "dense path would materialise too many pair keys; "
                    "use the sparse path for this dimension"
                )
            self._dense_keys = np.arange(self.num_pairs, dtype=np.int64)
            # The dense path re-hashes this exact array every batch; let
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
        """Stream a dense ``(n, d)`` array through the estimator in batches.

        The whole array is checked first, so a non-finite value anywhere
        refuses it before any batch is applied.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {data.shape}")
        _require_finite(data)
        for start in range(0, data.shape[0], self.batch_size):
            self.partial_fit_dense(data[start : start + self.batch_size])
        return self

    def partial_fit_dense(self, batch: np.ndarray) -> None:
        """Ingest one dense batch (rows are samples); refuse non-finite rows
        before any state changes."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        _require_finite(batch)
        b = batch.shape[0]
        if b == 0:
            return
        if self.centering == "exact":
            self._partial_fit_dense_exact(batch)
            return
        self.moments.update(batch)
        center = self.moments.mean if self.centering == "running" else None
        work = batch if center is None else batch - center
        if self.mode == "correlation":
            work = work / self.moments.std(floor=self.std_floor)
        values = dense_batch_products(work)
        self.estimator.ingest(self._dense_pair_keys(), values, num_samples=b)
        self.samples_seen += b

    def _partial_fit_dense_exact(self, batch: np.ndarray) -> None:
        """Per-sample centered products plus the section-4 adjustment term.

        Keeps the accumulated (unscaled) sketch content exactly equal to
        ``sum_k (Y^k - mean_t)(Y^k - mean_t)`` after every sample.  O(d^2)
        per sample — intended for validation, not production streams.
        """
        keys = self._dense_pair_keys()
        for row in batch:
            mean_old = self.moments.mean
            t_prev = self.moments.count
            self.moments.update(row[None, :])
            mean_new = self.moments.mean
            centered = row - mean_new
            values = triu_pair_values(np.outer(centered, centered))
            values += adjustment_matrix(mean_old, mean_new, t_prev)
            if self.mode == "correlation":
                std = self.moments.std(floor=self.std_floor)
                values /= triu_pair_values(np.outer(std, std))
            self.estimator.ingest(keys, values, num_samples=1)
            self.samples_seen += 1

    # ------------------------------------------------------------------
    # Sparse path
    # ------------------------------------------------------------------
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
        before its own were applied.  Centering other than ``"none"`` is
        rejected: at sparse scale the paper's section-5 approximation
        (means negligible vs stds) is the whole point of the fast path.
        """
        if self.centering != "none":
            raise ValueError("sparse path supports centering='none' only")
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
            # estimate, so only a sketch that acts on each occurrence's
            # magnitude asks for per-key sums.
            keys, values = sparse_batch_pairs(all_idx, all_val, lengths, self.dim)
            sketch = getattr(self.estimator, "sketch", None)
            if getattr(sketch, "needs_key_sums", False):
                keys, values = aggregate_pair_updates([keys], [values])
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


def _require_finite(rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise InvalidBatchError("dense rows must be finite")


def _iter_csr_rows(matrix) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, values)`` per row of a scipy CSR matrix."""
    indptr = matrix.indptr
    for row in range(matrix.shape[0]):
        lo, hi = indptr[row], indptr[row + 1]
        yield matrix.indices[lo:hi].astype(np.int64), matrix.data[lo:hi]

"""The streaming (one-pass) per-feature moment tracker.

:class:`SparseMoments` is what the paper keeps alongside the sketch: the
running std converts covariance mass to correlations.  Every writer feeds
it, dense rows included (as samples that observe every feature), and its
plain sums are what shards, panes and checkpoints persist.  Exact ground
truth for the evaluations comes from :mod:`repro.covariance.ground_truth`.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.base import scatter_add_flat

__all__ = ["SparseMoments"]


class SparseMoments:
    """Per-feature running mean and variance (``ddof=0``), O(nnz) updates.

    Absent features are implicit zeros, so only the ``sum`` and ``sum of
    squares`` accumulators of the observed features are touched.  This is
    the structure a one-pass correlation sketcher keeps next to the sketch
    at URL/DNA scale, where densifying every sample would dominate the
    runtime.  The variance ``sumsq/n - mean^2`` loses about
    ``2*log10(|mean|/std)`` digits where Welford's update loses none; the
    section-5 path assumes means negligible against stds anyway.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.count = 0
        self._sum = np.zeros(self.dim, dtype=np.float64)
        self._sumsq = np.zeros(self.dim, dtype=np.float64)

    def update_batch(
        self, indices: np.ndarray, values: np.ndarray, num_samples: int
    ) -> None:
        """Fold ``num_samples`` sparse samples in, given their concatenated
        non-zero ``indices`` / ``values``."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        if indices.size:
            # Touch only the hit accumulator slots when the batch is small
            # relative to dim — at URL/DNA scale a dense length-d bincount
            # per batch would dominate the whole ingest path.  The add.at
            # branch folds duplicate indices into the accumulators in a
            # different order than the old always-bincount code, so moments
            # (hence correlation-mode stds) can differ from the pre-fusion
            # pipeline at the last ulp; estimates are unaffected beyond
            # that rounding.
            use_bincount = indices.size * 16 >= self.dim
            scatter_add_flat(self._sum, indices, values, use_bincount=use_bincount)
            scatter_add_flat(
                self._sumsq, indices, values * values, use_bincount=use_bincount
            )
        self.count += int(num_samples)

    def merge(self, other: "SparseMoments") -> "SparseMoments":
        """Fold another tracker's accumulators in — exact (plain sums).

        ``sum``/``sum of squares``/``count`` are all linear in the stream,
        so sharded moments merge without approximation; this is the
        reduction step of :func:`repro.distributed.fit_sparse_sharded`.
        """
        if not isinstance(other, SparseMoments) or other.dim != self.dim:
            raise ValueError(
                "moments are mergeable only between SparseMoments of equal dim"
            )
        self._sum += other._sum
        self._sumsq += other._sumsq
        self.count += other.count
        return self

    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros(self.dim)
        return self._sum / self.count

    def variance(self) -> np.ndarray:
        if self.count == 0:
            return np.full(self.dim, np.nan)
        mean = self._sum / self.count
        return np.maximum(self._sumsq / self.count - mean * mean, 0.0)

    def std(self, floor: float = 0.0) -> np.ndarray:
        return np.maximum(np.sqrt(self.variance()), floor)

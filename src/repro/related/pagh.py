"""Compressed Matrix Multiplication (Pagh 2013) as a covariance sketcher.

The paper's related-work section: "Pagh uses count sketch (AMS Sketch) to
compute the matrix outer product when the product is sparse ... they first
'compress' the matrix product into a polynomial expression.  Then, they use
FFT for polynomial multiplication ... [it] can also be used to compute the
empirical covariance matrix in sub-quadratic time since a covariance matrix
can be expressed in the form of an outer product."

The construction: with per-feature hashes ``h1, h2: [d] -> [b]`` and signs
``s1, s2``, the count sketch of the outer product ``y y^T`` under the pair
hash ``h(i, j) = (h1(i) + h2(j)) mod b`` and sign ``s1(i) s2(j)`` equals the
circular convolution of the two sketched feature polynomials::

    p1[k] = sum_{i: h1(i)=k} s1(i) y_i        p2 likewise with (h2, s2)
    conv(p1, p2)[k] = sum_{h1(i)+h2(j) = k mod b} s1(i) s2(j) y_i y_j

Convolution is an elementwise product in the frequency domain, so each
sample costs ``O(nnz + b log b)`` per repetition — *independent of the d^2
pair count*, which is Pagh's sub-quadratic claim.  Accumulation happens in
the frequency domain (linear), with a single inverse FFT at query time.

Contrast with ASCS: Pagh compresses every sample wholesale and cannot
filter noise pairs, so its estimation error is the vanilla count-sketch
error; it trades the pair-expansion loop for FFTs.  The benchmark
``benchmarks/bench_related_pagh.py`` measures both sides of that trade.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.families import MultiplyShiftHash, SignHash
from repro.hashing.pairs import index_to_pair

__all__ = ["CompressedCovarianceSketch"]


class CompressedCovarianceSketch:
    """FFT-based count sketch of the streaming covariance outer product.

    Parameters
    ----------
    dim:
        Number of features ``d``.  Per-feature hash values are precomputed,
        so memory includes ``O(K d)`` small integers.
    num_tables:
        ``K`` independent repetitions (median of estimates).
    num_buckets:
        ``b`` — polynomial length per repetition.  The pair sketch lives in
        ``b`` buckets, so accuracy matches a count sketch with ``R = b``.
    seed:
        Hashing seed (see :mod:`repro.hashing`).
    """

    def __init__(
        self,
        dim: int,
        num_tables: int,
        num_buckets: int,
        *,
        seed: int = 0,
    ):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if num_tables < 1 or num_buckets < 2:
            raise ValueError("need num_tables >= 1 and num_buckets >= 2")
        self.dim = int(dim)
        self.num_tables = int(num_tables)
        self.num_buckets = int(num_buckets)
        self.seed = int(seed)
        self.samples_seen = 0

        features = np.arange(self.dim, dtype=np.int64)
        seq = np.random.SeedSequence(self.seed)
        children = seq.spawn(4 * self.num_tables)
        self._h1 = np.empty((self.num_tables, self.dim), dtype=np.int64)
        self._h2 = np.empty((self.num_tables, self.dim), dtype=np.int64)
        self._s1 = np.empty((self.num_tables, self.dim), dtype=np.float64)
        self._s2 = np.empty((self.num_tables, self.dim), dtype=np.float64)
        for e in range(self.num_tables):
            seeds = [int(children[4 * e + k].generate_state(1)[0]) for k in range(4)]
            self._h1[e] = MultiplyShiftHash(self.num_buckets, seeds[0])(features)
            self._h2[e] = MultiplyShiftHash(self.num_buckets, seeds[1])(features)
            self._s1[e] = SignHash(seeds[2])(features)
            self._s2[e] = SignHash(seeds[3])(features)

        # Frequency-domain accumulators, one per repetition.
        self._freq = np.zeros(
            (self.num_tables, self.num_buckets // 2 + 1), dtype=np.complex128
        )
        self._time_domain: np.ndarray | None = None

    # ------------------------------------------------------------------
    def insert_sample(self, sample: np.ndarray) -> None:
        """Fold one dense sample ``y`` into the sketch."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {sample.shape}")
        idx = np.nonzero(sample)[0]
        self.insert_sparse(idx, sample[idx])

    def insert_sparse(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold one sparse sample (non-zero ``indices`` / ``values``) in."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        self.samples_seen += 1
        self._time_domain = None
        if indices.size == 0:
            return
        b = self.num_buckets
        for e in range(self.num_tables):
            p1 = np.bincount(
                self._h1[e, indices], weights=self._s1[e, indices] * values,
                minlength=b,
            )
            p2 = np.bincount(
                self._h2[e, indices], weights=self._s2[e, indices] * values,
                minlength=b,
            )
            self._freq[e] += np.fft.rfft(p1) * np.fft.rfft(p2)

    def _tables(self) -> np.ndarray:
        """Time-domain pair sketch, ``(K, b)`` (cached until next insert)."""
        if self._time_domain is None:
            self._time_domain = np.fft.irfft(self._freq, n=self.num_buckets, axis=1)
        return self._time_domain

    # ------------------------------------------------------------------
    def query_pairs(self, i, j) -> np.ndarray:
        """Estimate ``sum_t y_i y_j`` for feature pairs ``(i, j)``.

        Uses both symmetric cells ``(i, j)`` and ``(j, i)`` of the outer
        product in every repetition — ``2K`` values per pair — and returns
        their median.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if i.shape != j.shape:
            raise ValueError("i and j must align")
        if i.size == 0:
            return np.empty(0, dtype=np.float64)
        tables = self._tables()
        b = self.num_buckets
        estimates = np.empty((2 * self.num_tables, i.size), dtype=np.float64)
        for e in range(self.num_tables):
            cell_ij = (self._h1[e, i] + self._h2[e, j]) % b
            cell_ji = (self._h1[e, j] + self._h2[e, i]) % b
            estimates[2 * e] = tables[e, cell_ij] * self._s1[e, i] * self._s2[e, j]
            estimates[2 * e + 1] = tables[e, cell_ji] * self._s1[e, j] * self._s2[e, i]
        return np.median(estimates, axis=0)

    def query_keys(self, keys) -> np.ndarray:
        """Estimate by flat pair key (canonical upper-triangle index)."""
        i, j = index_to_pair(np.asarray(keys, dtype=np.int64), self.dim)
        return self.query_pairs(i, j)

    def query_mean_keys(self, keys) -> np.ndarray:
        """Mean-scaled estimates, comparable to the pipeline estimators."""
        if self.samples_seen == 0:
            return np.zeros(np.asarray(keys).shape, dtype=np.float64)
        return self.query_keys(keys) / self.samples_seen

    # ------------------------------------------------------------------
    @property
    def memory_floats(self) -> int:
        """Counter budget: K complex spectra of b/2+1 = K*(b+2) floats."""
        return self.num_tables * (self.num_buckets + 2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressedCovarianceSketch(d={self.dim}, K={self.num_tables}, "
            f"b={self.num_buckets}, seen={self.samples_seen})"
        )

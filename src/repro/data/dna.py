"""DNA k-mer read streams — the paper's trillion-scale dataset, in miniature.

The paper's DNA dataset is "generated using c=1, k=12, L=200, seed=42": a
genome is sampled, reads of length ``L`` are drawn at coverage ``c``, and
each read becomes a sparse sample of k-mer counts over a feature space of
``4^k`` possible k-mers (k=12 gives the 17M features / 144 trillion pair
entries of Table 2).  Overlapping k-mers co-occur in every read that covers
their genome locus, producing the near-1.0 correlations the paper recovers.

This module reimplements that generator with configurable scale.  At the
default test scale (``k=8``, 100kb genome) the stream exercises exactly the
same code paths (sparse pair expansion, huge key space, empirical
correlation evaluation of reported pairs) while running in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.data.streams import SparseSample

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["DNAKmerStream"]

_BASES = 4


@dataclass
class DNAKmerStream:
    """Genome -> reads -> k-mer count samples.

    Parameters
    ----------
    genome_length:
        Number of bases in the random genome.
    read_length:
        ``L`` — bases per read (paper: 200).
    coverage:
        ``c`` — expected number of reads covering each base (paper: 1).
        ``num_reads = coverage * genome_length / read_length``.
    k:
        k-mer size; the feature space is ``4^k`` (paper: 12 -> 16.7M).
    seed:
        Generator seed (paper: 42).
    """

    genome_length: int = 100_000
    read_length: int = 200
    coverage: float = 1.0
    k: int = 8
    seed: int = 42
    genome: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 1 or self.k > 16:
            raise ValueError("k must be in [1, 16] for uint64 k-mer codes")
        if self.read_length <= self.k:
            raise ValueError("read_length must exceed k")
        if self.genome_length < self.read_length:
            raise ValueError("genome must be at least one read long")
        rng = np.random.default_rng(self.seed)
        self.genome = rng.integers(0, _BASES, size=self.genome_length, dtype=np.int8)
        self._powers = (_BASES ** np.arange(self.k - 1, -1, -1)).astype(np.int64)

    @property
    def dim(self) -> int:
        """Feature-space size ``4^k``."""
        return _BASES**self.k

    @property
    def num_reads(self) -> int:
        return max(1, int(self.coverage * self.genome_length / self.read_length))

    def _read_kmers(self, start: int) -> SparseSample:
        read = self.genome[start : start + self.read_length].astype(np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(read, self.k)
        codes = windows @ self._powers
        indices, counts = np.unique(codes, return_counts=True)
        return SparseSample(indices.astype(np.int64), counts.astype(np.float64))

    def __iter__(self) -> Iterator[SparseSample]:
        """Yield ``num_reads`` k-mer count samples (fresh reads each pass)."""
        rng = np.random.default_rng(self.seed + 1)
        max_start = self.genome_length - self.read_length
        for _ in range(self.num_reads):
            yield self._read_kmers(int(rng.integers(0, max_start + 1)))

    def materialize(self) -> sp.csr_matrix:
        """Full read-by-kmer count matrix — used for exact evaluation of
        reported pairs.  The column index space is the full ``4^k``; scipy
        handles the width since only observed k-mers hold data."""
        from scipy.sparse import csr_matrix

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for r, sample in enumerate(self):
            rows.append(np.full(sample.indices.size, r, dtype=np.int64))
            cols.append(sample.indices)
            vals.append(sample.values)
        return csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.num_reads, self.dim),
        )

    def average_nnz(self, probe_reads: int = 32) -> float:
        """Average non-zeros per sample (Table 2's ``nz`` column)."""
        total = 0
        for sample in self:
            total += sample.nnz
            probe_reads -= 1
            if probe_reads <= 0:
                break
        return total / max(1, min(self.num_reads, 32))

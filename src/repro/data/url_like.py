"""URL-like sparse binary attribute streams (Table 2's first dataset).

The real "url" dataset has 2.4M lexical/host-based binary features with
~120 non-zeros per sample; its top correlations come from attribute groups
that co-occur on malicious hosts.  This generator plants exactly that
structure at configurable scale: a set of token groups whose members appear
together whenever the group fires, over a uniform background of singleton
tokens.  The planted pairs have analytically strong (near 1) empirical
correlation, the background pairs hover near zero — the regime where
Table 2 shows ASCS recovering the top pairs at 10x less memory than CS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.data.streams import SparseSample
from repro.hashing.pairs import pair_to_index

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["URLLikeStream"]


@dataclass
class URLLikeStream:
    """Sparse binary stream with planted co-occurring token groups.

    Parameters
    ----------
    dim:
        Feature-space size.
    num_samples:
        Stream length.
    num_groups / group_size:
        Planted co-occurrence groups (disjoint feature blocks).
    group_prob:
        Probability a sample activates some group (groups uniform).
    member_prob:
        Probability each member token appears when its group fires.
    background_nnz:
        Number of uniform background tokens per sample.
    seed:
        Stream seed.
    """

    dim: int = 20_000
    num_samples: int = 20_000
    num_groups: int = 50
    group_size: int = 6
    group_prob: float = 0.25
    member_prob: float = 0.95
    background_nnz: int = 60
    seed: int = 0
    groups: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_groups * self.group_size > self.dim:
            raise ValueError("planted groups exceed the feature space")
        # Blocks occupy the head of the feature space; background tokens are
        # drawn from the whole space, so planted features also get
        # background hits (realistic noise on the signal).
        self.groups = np.arange(
            self.num_groups * self.group_size, dtype=np.int64
        ).reshape(self.num_groups, self.group_size)

    def __iter__(self) -> Iterator[SparseSample]:
        rng = np.random.default_rng(self.seed)
        planted = self.num_groups * self.group_size
        for _ in range(self.num_samples):
            feats: list[np.ndarray] = []
            if rng.random() < self.group_prob:
                grp = self.groups[int(rng.integers(0, self.num_groups))]
                mask = rng.random(self.group_size) < self.member_prob
                feats.append(grp[mask])
            # Background tokens come from the non-planted tail so the planted
            # pair correlations stay near member_prob (no dilution).
            feats.append(
                rng.integers(planted, self.dim, size=self.background_nnz).astype(
                    np.int64
                )
            )
            indices = np.unique(np.concatenate(feats))
            yield SparseSample(indices, np.ones(indices.size, dtype=np.float64))

    def materialize(self) -> sp.csr_matrix:
        """Full sample-by-feature binary matrix for exact evaluation."""
        from scipy.sparse import csr_matrix

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        for r, sample in enumerate(self):
            rows.append(np.full(sample.indices.size, r, dtype=np.int64))
            cols.append(sample.indices)
        row = np.concatenate(rows)
        col = np.concatenate(cols)
        return csr_matrix(
            (np.ones(row.size), (row, col)), shape=(self.num_samples, self.dim)
        )

    def planted_pair_keys(self) -> np.ndarray:
        """Flat keys of all intra-group pairs — the planted signals."""
        keys = []
        rows, cols = np.triu_indices(self.group_size, k=1)
        for grp in self.groups:
            keys.append(pair_to_index(grp[rows], grp[cols], self.dim))
        return np.concatenate(keys)

    @property
    def average_nnz(self) -> float:
        """Expected non-zeros per sample."""
        return (
            self.background_nnz
            + self.group_prob * self.member_prob * self.group_size
        )

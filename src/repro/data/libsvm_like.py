"""Synthetic stand-ins for the paper's five LIBSVM datasets (Table 3).

No network access means the real gisette/epsilon/cifar10/rcv1/sector files
cannot be downloaded, so each generator reproduces the *statistical
character* that section 8.3 actually exercises: dimension (after the
paper's 1000-feature subsample), sample count, sparsity pattern and — most
importantly — the shape of the correlation spectrum (how many strong
pairs exist and how fast the tail decays; compare Figure 1).  Ground truth
for every experiment is the exact empirical correlation matrix of the
generated data, exactly as the paper computes it for the real datasets.

Generator design per dataset:

* ``gisette`` — dense handwriting features: moderate number of very strong
  blocks (digit strokes co-activate), heavy noise floor.
* ``epsilon`` — dense standardized features: many weak/moderate blocks.
* ``cifar10`` — pixels: a 1-D moving-average field giving smoothly decaying
  neighbour correlations (lots of moderate pairs, no extreme ones).
* ``rcv1`` / ``sector`` — sparse tf-idf text: topic model where documents
  activate topics whose member terms co-occur, yielding few but very strong
  correlations on a near-zero background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import BlockCorrelationModel

__all__ = ["Dataset", "make_gisette_like", "make_epsilon_like", "make_cifar10_like",
           "make_rcv1_like", "make_sector_like"]


@dataclass
class Dataset:
    """A named dataset with the paper's per-dataset evaluation metadata."""

    name: str
    X: object  # (n, d) ndarray or scipy.sparse matrix
    alpha: float  # Table-3 signal-fraction choice
    description: str = ""

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def is_sparse(self) -> bool:
        from scipy.sparse import issparse

        return issparse(self.X)

    def dense(self) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self.X.toarray(), dtype=np.float64)
        return np.asarray(self.X, dtype=np.float64)


def make_gisette_like(d: int = 1000, n: int = 6000, seed: int = 0) -> Dataset:
    """Dense, strongly block-correlated — gisette's handwriting features.

    Paper choice: alpha = 2%.  Top correlations approach 1.0 (Figure 6a's
    bracket values), so blocks use rho in (0.6, 0.97).
    """
    model = BlockCorrelationModel.from_alpha(
        d, alpha=0.02, rho_range=(0.6, 0.97), seed=seed
    )
    rng = np.random.default_rng(seed + 7)
    X = model.sample(n, rng)
    # gisette features are non-negative pixel-ish intensities with heavy
    # tails; a softplus-style warp preserves correlations approximately
    # while matching the marginal character.
    X = np.abs(X) ** 1.2 * np.sign(X) + 0.05 * rng.standard_normal((n, d))
    return Dataset(
        "gisette", X, alpha=0.02, description="dense, strong blocks (synthetic)"
    )


def make_epsilon_like(d: int = 1000, n: int = 8000, seed: int = 0) -> Dataset:
    """Dense standardized features with many moderate correlations.

    Paper choice: alpha = 10% (epsilon has a fat spectrum of weak signal);
    top correlations sit around 0.5-0.7 (Table 4).
    """
    model = BlockCorrelationModel.from_alpha(
        d, alpha=0.10, rho_range=(0.25, 0.7), seed=seed
    )
    X = model.sample(n)
    return Dataset(
        "epsilon", X, alpha=0.10, description="dense, moderate blocks (synthetic)"
    )


def make_cifar10_like(d: int = 1000, n: int = 8000, seed: int = 0) -> Dataset:
    """Pixel field with smoothly decaying neighbour correlations.

    A width-``w`` moving average of white noise gives
    ``corr(x_i, x_j) = max(0, 1 - |i-j|/w)`` — many moderate pairs and no
    extreme ones, which is exactly cifar10's profile in Table 4 (top mean
    correlation only ~0.4-0.6).  Paper choice: alpha = 10%.
    """
    rng = np.random.default_rng(seed)
    window = 12
    base = rng.standard_normal((n, d + window - 1))
    kernel = np.ones(window) / np.sqrt(window)
    # Moving average along the feature axis.
    X = np.apply_along_axis(
        lambda row: np.convolve(row, kernel, mode="valid"), 1, base
    )
    X += 0.35 * rng.standard_normal((n, d))
    return Dataset(
        "cifar10", X, alpha=0.10, description="pixel field, decaying neighbour corr (synthetic)"
    )


def _topic_model(
    name: str,
    d: int,
    n: int,
    *,
    alpha: float,
    num_topics: int,
    topic_size: int,
    doc_topics: int,
    member_prob: float,
    background_nnz: int,
    seed: int,
) -> Dataset:
    """Sparse tf-idf-style topic co-occurrence generator (rcv1/sector).

    Topics occupy disjoint blocks at the head of the feature space and
    background tokens come from the tail, so intra-topic pairs keep the
    strong (~member_prob) correlations that text co-occurrence exhibits;
    everything else is near-zero — the paper's rcv1/sector regime.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    planted = num_topics * topic_size
    if planted >= d:
        raise ValueError(
            f"{planted} topic features exceed d={d}; reduce topics or size"
        )
    topics = np.arange(planted, dtype=np.int64).reshape(num_topics, topic_size)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for doc in range(n):
        chosen = rng.choice(num_topics, size=doc_topics, replace=False)
        feats: list[np.ndarray] = []
        for t in chosen:
            mask = rng.random(topic_size) < member_prob
            feats.append(topics[t][mask])
        feats.append(
            rng.integers(planted, d, size=background_nnz).astype(np.int64)
        )
        idx = np.unique(np.concatenate(feats))
        tfidf = rng.lognormal(mean=0.0, sigma=0.25, size=idx.size)
        rows.append(np.full(idx.size, doc, dtype=np.int64))
        cols.append(idx)
        vals.append(tfidf)
    X = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, d),
    )
    return Dataset(
        name, X, alpha=alpha, description="sparse tf-idf topic model (synthetic)"
    )


def make_rcv1_like(d: int = 1000, n: int = 8000, seed: int = 0) -> Dataset:
    """Sparse text (Reuters-like).  Paper choice: alpha = 0.5%; top
    correlations very strong (0.85-0.97 in Table 4)."""
    num_topics = max(2, d // 15)
    return _topic_model(
        "rcv1",
        d,
        n,
        alpha=0.005,
        num_topics=num_topics,
        topic_size=8,
        doc_topics=2,
        member_prob=0.9,
        background_nnz=max(6, d // 50),
        seed=seed,
    )


def make_sector_like(d: int = 1000, n: int = 6400, seed: int = 0) -> Dataset:
    """Sparse text (industry-sector-like).  Paper choice: alpha = 0.5%."""
    num_topics = max(2, d // 20)
    return _topic_model(
        "sector",
        d,
        n,
        alpha=0.005,
        num_topics=num_topics,
        topic_size=9,
        doc_topics=1,
        member_prob=0.9,
        background_nnz=max(8, d // 40),
        seed=seed,
    )

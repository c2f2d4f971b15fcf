"""Streaming covariance engine: moments, pair updates, pipeline, truth."""

from repro.covariance.ground_truth import (
    correlation_matrix,
    flat_true_correlations,
    pair_correlations,
    signal_key_set,
    signal_threshold,
    top_true_pairs,
)
from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.running import SparseMoments
from repro.covariance.updates import (
    InvalidBatchError,
    aggregate_pair_updates,
    dense_batch_products,
    sparse_batch_pairs,
    sparse_sample_pairs,
    triu_pair_values,
)

__all__ = [
    "CovarianceSketcher",
    "InvalidBatchError",
    "SparseMoments",
    "aggregate_pair_updates",
    "correlation_matrix",
    "dense_batch_products",
    "flat_true_correlations",
    "pair_correlations",
    "signal_key_set",
    "signal_threshold",
    "sparse_batch_pairs",
    "sparse_sample_pairs",
    "top_true_pairs",
    "triu_pair_values",
]

"""Unfused reference implementations for equivalence testing and benchmarking.

The fused kernels in :mod:`repro.sketch` and :mod:`repro.covariance` promise
*bit-identical* results to the straightforward per-table / per-sample
formulations they replaced.  This module preserves those formulations — the
pre-fusion code paths, verbatim in structure — so property tests can assert
exact equality and ``benchmarks/bench_kernels.py`` can measure the speedup
against the real baseline rather than a strawman.

Nothing here is used by the production paths; import cost is deferred to
call sites that need a reference.
"""

from __future__ import annotations

import numpy as np

from repro.covariance.updates import sparse_sample_pairs
from repro.hashing.families import MultiplyShiftHash, SignHash
from repro.sketch.base import ValueSketch, validate_batch

__all__ = [
    "LegacyCountSketch",
    "LegacyTopKTracker",
    "LegacySparseMoments",
    "legacy_sparse_batch_pairs",
]


class LegacySparseMoments:
    """Dense-bincount sparse moments: the pre-fusion implementation
    (O(dim) per batch — two length-``dim`` bincount allocations)."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.count = 0
        self._sum = np.zeros(self.dim, dtype=np.float64)
        self._sumsq = np.zeros(self.dim, dtype=np.float64)

    def update_batch(self, indices, values, num_samples: int) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.size:
            self._sum += np.bincount(indices, weights=values, minlength=self.dim)
            self._sumsq += np.bincount(
                indices, weights=values * values, minlength=self.dim
            )
        self.count += int(num_samples)

    def std(self, floor: float = 0.0) -> np.ndarray:
        mean = self._sum / max(self.count, 1)
        var = np.maximum(self._sumsq / max(self.count, 1) - mean * mean, 0.0)
        return np.maximum(np.sqrt(var), floor)


class LegacyCountSketch(ValueSketch):
    """Per-table-loop count sketch: the pre-fusion implementation.

    Hash parameters are derived exactly as :class:`repro.sketch.CountSketch`
    derives them, so a legacy and a fused sketch built with the same
    arguments are interchangeable — and must agree bit-for-bit.
    """

    def __init__(
        self,
        num_tables: int,
        num_buckets: int,
        *,
        seed: int = 0,
        dtype=np.float64,
    ):
        self.num_tables = int(num_tables)
        self.num_buckets = int(num_buckets)
        self.seed = int(seed)
        self.table = np.zeros((self.num_tables, self.num_buckets), dtype=dtype)
        seq = np.random.SeedSequence(self.seed)
        children = seq.spawn(2 * self.num_tables)
        self._bucket_hashes = [
            MultiplyShiftHash(
                self.num_buckets, int(children[2 * e].generate_state(1)[0])
            )
            for e in range(self.num_tables)
        ]
        self._sign_hashes = [
            SignHash(int(children[2 * e + 1].generate_state(1)[0]))
            for e in range(self.num_tables)
        ]

    def insert(self, keys, values) -> None:
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return
        use_bincount = keys.size * 16 >= self.num_buckets
        for e in range(self.num_tables):
            buckets = self._bucket_hashes[e](keys)
            signed = values * self._sign_hashes[e](keys)
            if use_bincount:
                self.table[e] += np.bincount(
                    buckets, weights=signed, minlength=self.num_buckets
                ).astype(self.table.dtype, copy=False)
            else:
                np.add.at(self.table[e], buckets, signed)

    def query(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        return np.median(self.query_per_table(keys), axis=0)

    def query_per_table(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        estimates = np.empty((self.num_tables, keys.size), dtype=np.float64)
        for e in range(self.num_tables):
            buckets = self._bucket_hashes[e](keys)
            estimates[e] = self.table[e, buckets] * self._sign_hashes[e](keys)
        return estimates

    def reset(self) -> None:
        self.table[:] = 0.0

    @property
    def memory_floats(self) -> int:
        return self.num_tables * self.num_buckets


class LegacyTopKTracker:
    """Dict-backed candidate pool: the pre-fusion implementation."""

    def __init__(self, capacity: int, *, slack: float = 2.0, two_sided: bool = False):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slack <= 1.0:
            raise ValueError(f"slack must be > 1, got {slack}")
        self.capacity = int(capacity)
        self.slack = float(slack)
        self.two_sided = bool(two_sided)
        self._pool: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._pool)

    def _rank_value(self, estimates: np.ndarray) -> np.ndarray:
        return np.abs(estimates) if self.two_sided else estimates

    def offer(self, keys, estimates) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        estimates = np.asarray(estimates, dtype=np.float64)
        if keys.shape != estimates.shape:
            raise ValueError("keys and estimates must align")
        pool = self._pool
        for key, est in zip(keys.tolist(), estimates.tolist()):
            pool[key] = est
        if len(pool) > self.capacity * self.slack:
            self._prune()

    def _prune(self) -> None:
        keys = np.fromiter(self._pool.keys(), dtype=np.int64, count=len(self._pool))
        ests = np.fromiter(self._pool.values(), dtype=np.float64, count=len(self._pool))
        order = np.argsort(-self._rank_value(ests), kind="stable")[: self.capacity]
        self._pool = dict(zip(keys[order].tolist(), ests[order].tolist()))

    def candidates(self) -> np.ndarray:
        return np.fromiter(self._pool.keys(), dtype=np.int64, count=len(self._pool))

    def top_k(self, k: int, sketch=None) -> tuple[np.ndarray, np.ndarray]:
        if not self._pool:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        keys = self.candidates()
        if sketch is not None:
            ests = np.asarray(sketch.query(keys), dtype=np.float64)
        else:
            ests = np.array([self._pool[key] for key in keys.tolist()])
        order = np.argsort(-self._rank_value(ests), kind="stable")[: int(k)]
        return keys[order], ests[order]

    def reset(self) -> None:
        self._pool.clear()


def legacy_sparse_batch_pairs(
    indices: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
    dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample-loop pair expansion: the pre-fusion formulation of
    :func:`repro.covariance.sparse_batch_pairs` (same signature)."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keys_list: list[np.ndarray] = []
    values_list: list[np.ndarray] = []
    start = 0
    for m in lengths.tolist():
        keys, products = sparse_sample_pairs(
            indices[start : start + m], values[start : start + m], dim
        )
        if keys.size:
            keys_list.append(keys)
            values_list.append(products)
        start += m
    if not keys_list:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return np.concatenate(keys_list), np.concatenate(values_list)

"""Micro-benchmarks: sketch and hashing kernel throughput.

These are the inner loops that determine whether the trillion-scale
streams of Table 2 are feasible: batched signed scatter-adds (insert),
gather-plus-median (query) and the multiply-shift hash itself.
"""

import numpy as np
import pytest

from repro.hashing.families import MultiplyShiftHash
from repro.sketch.count_sketch import CountSketch

BATCH = 100_000


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 10**12, size=BATCH)
    values = rng.standard_normal(BATCH)
    return keys, values


def bench_hash_family(benchmark, batch):
    keys, _ = batch
    h = MultiplyShiftHash(1 << 20, seed=1)
    benchmark(h, keys)


def bench_count_sketch_insert(benchmark, batch):
    keys, values = batch
    sketch = CountSketch(5, 1 << 17, seed=1)
    benchmark(sketch.insert, keys, values)


def bench_count_sketch_insert_small_batch(benchmark, batch):
    keys, values = batch
    sketch = CountSketch(5, 1 << 17, seed=1)
    benchmark(sketch.insert, keys[:256], values[:256])


def bench_count_sketch_query(benchmark, batch):
    keys, values = batch
    sketch = CountSketch(5, 1 << 17, seed=1)
    sketch.insert(keys, values)
    benchmark(sketch.query, keys)


def bench_pair_index_round_trip(benchmark):
    from repro.hashing.pairs import index_to_pair, num_pairs, pair_to_index

    d = 17_000_000  # the paper's DNA dimensionality
    rng = np.random.default_rng(2)
    idx = rng.integers(0, num_pairs(d), size=BATCH)

    def round_trip():
        i, j = index_to_pair(idx, d)
        return pair_to_index(i, j, d)

    out = benchmark(round_trip)
    assert (out == idx).all()


def bench_dense_batch_products(benchmark):
    from repro.covariance.updates import dense_batch_products

    rng = np.random.default_rng(3)
    data = rng.standard_normal((64, 500))
    benchmark(dense_batch_products, data)


def bench_sparse_pair_expansion(benchmark):
    from repro.covariance.updates import sparse_sample_pairs

    rng = np.random.default_rng(4)
    indices = np.sort(rng.choice(10**7, size=120, replace=False))
    values = rng.standard_normal(120)
    benchmark(sparse_sample_pairs, indices, values, 10**7)

"""Serving-layer load generator: query throughput, cache, swap latency.

Fits a sparse stream at the paper's table shape, freezes a
:class:`repro.serving.SketchSnapshot`, and drives the
:class:`repro.serving.QueryEngine` through the workloads a read-heavy
deployment sees::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full
    PYTHONPATH=src python benchmarks/run_bench.py --bench serving --smoke

Measured (all recorded in ``BENCH_serving.json``):

* **single-pair cold** — distinct pairs through the scalar fast path with
  an empty cache (every query is one fused gather); the acceptance floor
  is 10k queries/sec on a 1-CPU container;
* **single-pair hot** — the same pairs again (pure LRU hits);
* **zipf mixed** — a skewed workload over a larger key universe, reporting
  throughput *and* the measured cache hit rate;
* **batched** — vectorized ``query_keys`` in 1024-key batches (keys/sec);
* **index-backed** — ``top_neighbors`` calls (pure binary-search reads);
* **snapshot swap** — ``ServingEstimator.refresh`` end-to-end latency
  (clone + index build + atomic swap).

``meta.cpu_count`` is recorded.  The cold-query floor is CI-enforced on
any machine (the loop is single-threaded, so core count does not excuse
it); relative cold-vs-hot comparisons are only enforced when the machine
has >= 4 cores (this container has 1, where time-slicing noise can invert
them).  Correctness is asserted by the test suite regardless.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from registry import BenchSuite, register
from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.hashing.pairs import index_to_pair, num_pairs
from repro.serving import QueryEngine, ServingEstimator, SketchSnapshot
from repro.sketch.count_sketch import CountSketch

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The paper's table shape (Table 2 regime).
NUM_TABLES = 5
NUM_BUCKETS = 1 << 17

DIM = 10**6
NNZ = 32
BATCH_SIZE = 32
TRACK_TOP = 4096
TOP_INDEX = 2048
CACHE_SIZE = 1 << 16
SEED = 11

#: Throughput floor for cache-cold single-pair queries (acceptance bar).
COLD_QPS_FLOOR = 10_000


def _make_stream(num_samples: int, rng) -> list:
    return [
        (
            np.sort(rng.choice(DIM, size=NNZ, replace=False)).astype(np.int64),
            rng.standard_normal(NNZ),
        )
        for _ in range(num_samples)
    ]


def _fit_sketcher(num_samples: int, rng) -> CovarianceSketcher:
    estimator = SketchEstimator(
        CountSketch(NUM_TABLES, NUM_BUCKETS, seed=SEED),
        total_samples=num_samples,
        track_top=TRACK_TOP,
    )
    sketcher = CovarianceSketcher(
        DIM, estimator, mode="covariance", batch_size=BATCH_SIZE
    )
    sketcher.fit_sparse(iter(_make_stream(num_samples, rng)))
    return sketcher


def _probe_pairs(snapshot: SketchSnapshot, count: int, rng) -> tuple:
    """``count`` distinct probe pairs: indexed pairs first, then random."""
    i = snapshot.index_i.tolist()
    j = snapshot.index_j.tolist()
    need = count - len(i)
    if need > 0:
        keys = np.unique(rng.integers(0, num_pairs(DIM), size=2 * need))[:need]
        ri, rj = index_to_pair(keys, DIM)
        i += ri.tolist()
        j += rj.tolist()
    return i[:count], j[:count]


def run_benchmarks(smoke: bool = False) -> dict:
    rng = np.random.default_rng(SEED)
    num_samples = 256 if smoke else 1024
    num_queries = 5_000 if smoke else 20_000
    num_batches = 20 if smoke else 100
    swap_trials = 2 if smoke else 5

    t0 = time.perf_counter()
    sketcher = _fit_sketcher(num_samples, rng)
    fit_seconds = time.perf_counter() - t0

    snapshot = SketchSnapshot.from_sketcher(
        sketcher, top_index=TOP_INDEX, scan=False
    )
    probe_i, probe_j = _probe_pairs(snapshot, num_queries, rng)
    results = []

    # -- single-pair, cache cold: every query misses and gathers once.
    engine = QueryEngine(snapshot, cache_size=CACHE_SIZE)
    start = time.perf_counter()
    for i, j in zip(probe_i, probe_j):
        engine.query_pair(i, j)
    cold_seconds = time.perf_counter() - start
    cold_qps = num_queries / cold_seconds
    results.append(
        {
            "op": "single_pair_cold",
            "queries": num_queries,
            "seconds": cold_seconds,
            "queries_per_sec": cold_qps,
            "cache_hit_rate": engine.cache.stats().hit_rate,
        }
    )

    # -- single-pair, cache hot: identical queries, all LRU hits.
    start = time.perf_counter()
    for i, j in zip(probe_i, probe_j):
        engine.query_pair(i, j)
    hot_seconds = time.perf_counter() - start
    hot_qps = num_queries / hot_seconds
    results.append(
        {
            "op": "single_pair_hot",
            "queries": num_queries,
            "seconds": hot_seconds,
            "queries_per_sec": hot_qps,
            "cache_hit_rate": engine.cache.stats().hit_rate,
        }
    )

    # -- zipf-skewed mixed workload over 4x the cache capacity.
    universe = min(4 * CACHE_SIZE, num_pairs(DIM))
    zipf_keys = np.unique(rng.integers(0, num_pairs(DIM), size=2 * universe))
    draws = rng.zipf(1.2, size=num_queries)
    zipf_stream = zipf_keys[np.minimum(draws - 1, zipf_keys.size - 1)]
    zi, zj = index_to_pair(zipf_stream, DIM)
    zi, zj = zi.tolist(), zj.tolist()
    engine_zipf = QueryEngine(snapshot, cache_size=CACHE_SIZE)
    start = time.perf_counter()
    for i, j in zip(zi, zj):
        engine_zipf.query_pair(i, j)
    zipf_seconds = time.perf_counter() - start
    zipf_stats = engine_zipf.cache.stats()
    results.append(
        {
            "op": "single_pair_zipf",
            "queries": num_queries,
            "seconds": zipf_seconds,
            "queries_per_sec": num_queries / zipf_seconds,
            "cache_hit_rate": zipf_stats.hit_rate,
        }
    )

    # -- batched vectorized path (cache off: pure fused-gather throughput).
    engine_batch = QueryEngine(snapshot, cache_size=0)
    batch_keys = rng.integers(0, num_pairs(DIM), size=(num_batches, 1024))
    start = time.perf_counter()
    for row in batch_keys:
        engine_batch.query_keys(row)
    batch_seconds = time.perf_counter() - start
    results.append(
        {
            "op": "batched_keys",
            "queries": num_batches,
            "keys": int(num_batches * 1024),
            "seconds": batch_seconds,
            "keys_per_sec": num_batches * 1024 / batch_seconds,
        }
    )

    # -- index-backed reads (no sketch gather at all).
    features = np.unique(snapshot.nbr_feature)
    reads = min(num_queries, 10_000)
    pick = features[rng.integers(0, features.size, size=reads)].tolist()
    start = time.perf_counter()
    for f in pick:
        engine.top_neighbors(f, 10)
    nbr_seconds = time.perf_counter() - start
    results.append(
        {
            "op": "top_neighbors",
            "queries": reads,
            "seconds": nbr_seconds,
            "queries_per_sec": reads / nbr_seconds,
        }
    )

    # -- snapshot swap latency through the double-buffered estimator.
    serving = ServingEstimator(
        sketcher, top_index=TOP_INDEX, scan=False, cache_size=CACHE_SIZE
    )
    swap_seconds = []
    extra = _make_stream(BATCH_SIZE, rng)
    for _ in range(swap_trials):
        serving.ingest_sparse(extra)
        serving.refresh()
        swap_seconds.append(serving.last_swap_seconds)
    results.append(
        {
            "op": "snapshot_swap",
            "trials": swap_trials,
            "seconds_best": min(swap_seconds),
            "seconds_mean": float(np.mean(swap_seconds)),
        }
    )

    cpu_count = os.cpu_count() or 1
    headline = {
        "cold_pair_qps": cold_qps,
        "hot_pair_qps": hot_qps,
        "zipf_cache_hit_rate": zipf_stats.hit_rate,
        "batched_keys_per_sec": num_batches * 1024 / batch_seconds,
        "swap_latency_seconds": min(swap_seconds),
        "cpu_count": cpu_count,
    }
    return {
        "meta": {
            "benchmark": "bench_serving",
            "smoke": smoke,
            "num_tables": NUM_TABLES,
            "num_buckets": NUM_BUCKETS,
            "dim": DIM,
            "nnz": NNZ,
            "num_samples": num_samples,
            "top_index": TOP_INDEX,
            "cache_size": CACHE_SIZE,
            "fit_seconds": fit_seconds,
            "cpu_count": cpu_count,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": (
                "single-threaded query loop; the cold-qps floor is "
                "CI-enforced on any core count, relative cold-vs-hot "
                "comparisons only on machines with >= 4 cores"
            ),
        },
        "headline": headline,
        "results": results,
    }


def write_report(report: dict, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")


def print_report(report: dict) -> None:
    print(f"{'op':<20}{'queries':>9}{'seconds':>10}{'rate':>16}")
    for rec in report["results"]:
        rate = rec.get("queries_per_sec") or rec.get("keys_per_sec")
        rate_s = f"{rate:,.0f}/s" if rate else "-"
        seconds = rec.get("seconds", rec.get("seconds_best"))
        print(
            f"{rec['op']:<20}{rec.get('queries', rec.get('trials', 0)):>9}"
            f"{seconds:>10.3f}{rate_s:>16}"
        )
    print("headline:", json.dumps(report["headline"], indent=2))


def main(smoke: bool = False, out: Path | None = None) -> dict:
    report = run_benchmarks(smoke=smoke)
    print_report(report)
    write_report(report, out or REPO_ROOT / "BENCH_serving.json")
    return report


def _check(report: dict) -> list:
    """CI gate for the serving suite.

    The cold-query floor is enforced unconditionally: the query loop is
    single-threaded, so unlike the sharded scaling check it does not
    depend on core count — the acceptance bar is 10k q/s *on the 1-CPU
    container* (measured ~5x above it).  Only the relative cold-vs-hot
    comparison stays hardware-gated (on ``meta.cpu_count``, the machine
    that *measured* the report), since contention noise on a time-sliced
    single core can invert it spuriously.
    """
    failures = []
    headline = report["headline"]
    if headline["cold_pair_qps"] < COLD_QPS_FLOOR:
        failures.append(
            f"cold single-pair qps {headline['cold_pair_qps']:,.0f} "
            f"below the {COLD_QPS_FLOOR:,} floor"
        )
    if (
        int(report["meta"].get("cpu_count") or 1) >= 4
        and headline["hot_pair_qps"] < headline["cold_pair_qps"]
    ):
        failures.append("cache-hot qps slower than cache-cold qps")
    return failures


SUITE = register(BenchSuite(name="serving", run=main, check=_check))


if __name__ == "__main__":
    main()

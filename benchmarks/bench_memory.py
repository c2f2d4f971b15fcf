"""Memory-tier benchmark suite.

Measures what the compact storage tier actually buys and what it costs,
writing ``BENCH_memory.json`` (``BENCH_memory.smoke.json`` in smoke
mode)::

    PYTHONPATH=src python benchmarks/bench_memory.py          # full
    PYTHONPATH=src python benchmarks/run_bench.py --smoke     # CI smoke

* **bytes per counter** — measured residency of int16 fixed-point vs
  float64 tables at matched ``(K, R)`` after a real drift workload, plus
  the capacity planner's predicted figure so prediction drift is caught.
* **accuracy at matched shape** — top-pair F1 on the drift benchmark
  (the PR-4 stream), float64 vs int16 at the same ``(K, R)``.  Seeded and
  deterministic: the CI check enforces the <= 0.02 F1 delta
  unconditionally — quantization must stay invisible at retrieval level.
* **snapshot open latency** — eager ``SketchSnapshot.load`` vs zero-copy
  ``load(mmap=True)`` at two snapshot sizes >= 8x apart.  Mapping parses
  two headers regardless of size, so its latency must not scale with the
  snapshot; the eager load must (it reads every byte).

Timing floors are gated on ``meta.cpu_count`` like every other suite;
the bytes/counter ceiling and the F1-delta floor are deterministic and
always enforced.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from registry import BenchSuite, register
from timing import best_seconds
from repro.core.api import build_estimator
from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.data.drift import AbruptShiftStream
from repro.evaluation.metrics import max_f1_score
from repro.hashing.pairs import num_pairs, pair_to_index
from repro.serving.snapshot import SketchSnapshot
from repro.sketch.count_sketch import CountSketch
from repro.sketch.planner import plan

REPO_ROOT = Path(__file__).resolve().parent.parent

NUM_TABLES = 5
BATCH_SIZE = 32
SEED = 23

#: int16 fixed-point step for correlation-mode estimates (|value| <= 1
#: with 25% headroom) — what the planner recommends for value_range=1.
QUANTUM = 1.25 / np.iinfo(np.int16).max

#: CI gates (see _check): int16 must keep >= this residency advantage and
#: stay within this drift-F1 delta of float64 at matched (K, R).
BYTES_RATIO_FLOOR = 3.0
F1_DELTA_CEILING = 0.02


def _bench_quantized_f1(smoke: bool) -> tuple[list[dict], dict]:
    """Drift-benchmark F1 + measured bytes/counter, float64 vs int16."""
    dim = 120
    n = 2048 if smoke else 8192
    num_buckets = 2048
    stream = AbruptShiftStream(dim, n, alpha=0.02, seed=11)
    data = stream.generate()
    truth_now = stream.signal_pairs_at(n - 1)

    def sketcher(storage, quantum):
        est = build_estimator(
            "cs",
            n,
            NUM_TABLES,
            num_buckets,
            seed=3,
            track_top=256,
            storage=storage,
            quantum=quantum,
        )
        return CovarianceSketcher(dim, est, mode="correlation", batch_size=BATCH_SIZE)

    # Both tiers timed in pairs, each call a fresh sketcher's fit: a
    # refit of the same sketcher would double its counters and could
    # promote the int16 table.
    trials = 3 if smoke else 5
    wide_seconds, narrow_seconds = best_seconds(
        (lambda: ("float64", None), lambda tier: sketcher(*tier).fit_dense(data)),
        (lambda: ("int16", QUANTUM), lambda tier: sketcher(*tier).fit_dense(data)),
        trials=trials,
        inner=1,
    )

    def fit(storage, quantum, seconds):
        fitted = sketcher(storage, quantum).fit_dense(data)
        i, j, _ = fitted.top_pairs(truth_now.size)
        keys = pair_to_index(i, j, dim)
        est = fitted.estimator
        return {
            "storage": storage,
            "f1": float(max_f1_score(keys, truth_now)),
            "fit_seconds": seconds,
            "trials": trials,
            "bytes_per_counter": est.sketch.memory_bytes / est.sketch.memory_floats,
            "memory_bytes": int(est.sketch.memory_bytes),
            "final_dtype": str(est.sketch.storage_dtype),
        }

    wide = fit("float64", None, wide_seconds)
    narrow = fit("int16", QUANTUM, narrow_seconds)
    capacity = plan(dim, narrow["memory_bytes"] / (1 << 20), num_tables=NUM_TABLES)

    records = [
        {"op": "drift_f1_float64", "dim": dim, "samples": n, **wide},
        {"op": "drift_f1_int16", "dim": dim, "samples": n, "quantum": QUANTUM, **narrow},
        {"op": "capacity_plan", **capacity.to_dict()},
    ]
    headline = {
        "f1_float64": wide["f1"],
        "f1_int16": narrow["f1"],
        "f1_delta": wide["f1"] - narrow["f1"],
        "bytes_per_counter_float64": wide["bytes_per_counter"],
        "bytes_per_counter_int16": narrow["bytes_per_counter"],
        "bytes_ratio": wide["bytes_per_counter"] / narrow["bytes_per_counter"],
        "planner_predicted_bytes_per_counter": capacity.predicted_bytes_per_counter,
        "quantized_fit_overhead": narrow["fit_seconds"] / wide["fit_seconds"],
    }
    return records, headline


def _snapshot_at(num_buckets: int, path: Path, rng) -> SketchSnapshot:
    """A tracker-indexed snapshot whose size is dominated by K*R counters."""
    dim = 2000
    sketch = CountSketch(NUM_TABLES, num_buckets, seed=SEED)
    est = SketchEstimator(sketch, 1024, track_top=256)
    p = num_pairs(dim)
    for _ in range(16):
        keys = rng.integers(0, p, size=4096)
        est.ingest(keys, rng.standard_normal(4096), num_samples=64)
    snapshot = SketchSnapshot.from_estimator(
        est, dim, top_index=256, scan=False
    )
    snapshot.save(path)
    return snapshot


def _bench_snapshot_mmap(smoke: bool, rng) -> tuple[list[dict], dict]:
    small_r = 1 << (11 if smoke else 14)
    # 16x the buckets => >= 8x the snapshot *bytes* even after the fixed
    # metadata overhead — the size spread the latency-independence claim
    # is verified across.
    large_r = small_r * 16
    trials = 5
    records = []
    latencies = {}
    with TemporaryDirectory(prefix="bench-memory-") as scratch:
        for label, num_buckets in (("small", small_r), ("large", large_r)):
            path = Path(scratch) / f"snap-{label}.npz"
            _snapshot_at(num_buckets, path, rng)
            size = path.stat().st_size

            def best_of(loader):
                best = float("inf")
                for _ in range(trials):
                    t0 = time.perf_counter()
                    snap = loader()
                    best = min(best, time.perf_counter() - t0)
                    del snap
                return best

            eager = best_of(lambda: SketchSnapshot.load(path))
            mapped = best_of(lambda: SketchSnapshot.load(path, mmap=True))
            latencies[label] = {"eager": eager, "mmap": mapped, "bytes": size}
            records.append(
                {
                    "op": f"snapshot_open_{label}",
                    "num_buckets": num_buckets,
                    "snapshot_bytes": size,
                    "eager_load_ms": eager * 1e3,
                    "mmap_open_ms": mapped * 1e3,
                }
            )
    headline = {
        "snapshot_bytes_small": latencies["small"]["bytes"],
        "snapshot_bytes_large": latencies["large"]["bytes"],
        "mmap_open_small_ms": latencies["small"]["mmap"] * 1e3,
        "mmap_open_large_ms": latencies["large"]["mmap"] * 1e3,
        "eager_load_large_ms": latencies["large"]["eager"] * 1e3,
        "mmap_open_size_ratio": (
            latencies["large"]["mmap"] / latencies["small"]["mmap"]
        ),
        "eager_load_size_ratio": (
            latencies["large"]["eager"] / latencies["small"]["eager"]
        ),
    }
    return records, headline


def run_benchmarks(smoke: bool = False) -> dict:
    rng = np.random.default_rng(0)
    f1_records, f1_headline = _bench_quantized_f1(smoke)
    mmap_records, mmap_headline = _bench_snapshot_mmap(smoke, rng)
    cpu_count = os.cpu_count() or 1
    return {
        "meta": {
            "benchmark": "bench_memory",
            "smoke": smoke,
            "num_tables": NUM_TABLES,
            "quantum": QUANTUM,
            "batch_size": BATCH_SIZE,
            "cpu_count": cpu_count,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": (
                "bytes/counter and drift-F1 checks are deterministic and "
                "always enforced; mmap latency floors apply only when "
                "meta.cpu_count >= 2"
            ),
        },
        "headline": {**f1_headline, **mmap_headline, "cpu_count": cpu_count},
        "results": f1_records + mmap_records,
    }


def write_report(report: dict, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")


def print_report(report: dict) -> None:
    for rec in report["results"]:
        detail = {k: v for k, v in rec.items() if k != "op"}
        print(f"{rec['op']:<22}{json.dumps(detail)}")
    print("headline:", json.dumps(report["headline"], indent=2))


def main(smoke: bool = False, out: Path | None = None) -> dict:
    report = run_benchmarks(smoke=smoke)
    print_report(report)
    write_report(report, out or REPO_ROOT / "BENCH_memory.json")
    return report


def _check(report: dict) -> list:
    """CI gate for the memory-tier suite.

    Deterministic gates (always enforced): int16 residency must stay
    >= 3x below float64 — i.e. the table finished un-promoted — and its
    drift F1 must sit within 0.02 of float64 at matched (K, R).  The
    mmap latency gates (open latency independent of snapshot size, and
    mapping beating the eager load on the large snapshot) are timing
    measurements, so like every other suite's floors they apply only when
    the measuring machine had >= 2 cores (``meta.cpu_count``).
    """
    failures = []
    headline = report["headline"]
    if headline["bytes_ratio"] < BYTES_RATIO_FLOOR:
        failures.append(
            f"int16 bytes/counter advantage {headline['bytes_ratio']:.2f}x "
            f"fell below the {BYTES_RATIO_FLOOR}x floor (did the drift "
            "workload saturate int16 and promote?)"
        )
    if headline["f1_delta"] > F1_DELTA_CEILING:
        failures.append(
            f"quantized drift F1 lost {headline['f1_delta']:.3f} vs float64 "
            f"(ceiling {F1_DELTA_CEILING}): int16 "
            f"{headline['f1_int16']:.3f} vs float64 {headline['f1_float64']:.3f}"
        )
    cpu_count = int(report["meta"].get("cpu_count") or 1)
    if cpu_count >= 2:
        ratio = headline["mmap_open_size_ratio"]
        if headline["mmap_open_large_ms"] > max(
            4.0 * headline["mmap_open_small_ms"], 50.0
        ):
            failures.append(
                "mmap snapshot open latency scales with snapshot size "
                f"({ratio:.1f}x across an 8x size spread) — zero-copy "
                "mapping regressed to an eager read"
            )
        if headline["mmap_open_large_ms"] >= headline["eager_load_large_ms"]:
            failures.append(
                "mapping the large snapshot is no faster than eagerly "
                f"loading it ({headline['mmap_open_large_ms']:.2f}ms vs "
                f"{headline['eager_load_large_ms']:.2f}ms)"
            )
    return failures


SUITE = register(BenchSuite(name="memory", run=main, check=_check))


if __name__ == "__main__":
    main()

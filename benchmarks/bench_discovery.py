"""Open-world discovery benchmark suite.

Measures what the hierarchical sketch index buys over the flat snapshot
index and what it costs, writing ``BENCH_discovery.json``
(``BENCH_discovery.smoke.json`` in smoke mode)::

    PYTHONPATH=src python benchmarks/bench_discovery.py       # full
    PYTHONPATH=src python benchmarks/run_bench.py --smoke     # CI smoke

* **planted recall/precision** — the ISSUE 7 acceptance scenario: a
  seeded block-correlation model, a snapshot with **no materialized pair
  index** (``top_index=0``), and ``pairs_above`` answering by hierarchical
  descent alone.  Seeded and deterministic: the CI check enforces the
  recall and precision floors unconditionally.
* **descent vs exhaustive scan** — ``find_heavy`` against querying every
  one of ``num_pairs(1024)`` keys (~524k) and filtering, same sketch,
  same planted truth.  The descent prunes by dyadic interval so it must
  not pay for the key space it rules out.
* **memory overhead** — hierarchy bytes vs a flat ``CountSketch`` at the
  same leaf ``(K, R)``; the ratio is the level count by construction and
  the planner's depth-for-width trade is recorded alongside.

Timing floors are gated on ``meta.cpu_count`` like every other suite;
the recall/precision floors are deterministic and always enforced.
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
from repro.data.synthetic import BlockCorrelationModel
from repro.hashing.pairs import num_pairs, pair_to_index
from repro.serving import QueryEngine, SketchSnapshot
from repro.sketch import CountSketch, HierarchicalCountSketch, plan

REPO_ROOT = Path(__file__).resolve().parent.parent

NUM_TABLES = 5
NUM_BUCKETS = 4096
BRANCHING = 16
SEED = 7

#: CI gates (see _check): descent on the indexless snapshot must keep
#: recall/precision at least this high on the seeded planted scenario.
RECALL_FLOOR = 0.95
PRECISION_FLOOR = 0.5


def _bench_open_world(smoke: bool) -> tuple[list[dict], dict]:
    """Acceptance scenario: planted block model, snapshot with no index."""
    dim = 64
    n = 4096
    threshold = 0.35
    model = BlockCorrelationModel.from_alpha(dim, 0.05, seed=42)
    samples = model.sample(n)
    truth = set(model.signal_pairs().tolist())

    sketch = HierarchicalCountSketch(
        NUM_TABLES, NUM_BUCKETS, key_space=num_pairs(dim),
        branching=BRANCHING, seed=SEED,
    )
    estimator = SketchEstimator(sketch, n, name="HCS", two_sided=True, track_top=0)
    sketcher = CovarianceSketcher(dim, estimator, mode="correlation", batch_size=64)
    t0 = time.perf_counter()
    sketcher.fit_dense(samples)
    fit_seconds = time.perf_counter() - t0

    snapshot = SketchSnapshot.from_sketcher(sketcher, top_index=0)
    engine = QueryEngine(snapshot)
    trials = 3 if smoke else 7
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        i, j, estimates = engine.pairs_above(threshold)
        best = min(best, time.perf_counter() - t0)
    found = set(pair_to_index(i, j, dim).tolist())
    recall = len(found & truth) / len(truth)
    precision = len(found & truth) / max(1, len(found))

    records = [
        {
            "op": "open_world_pairs_above",
            "dim": dim,
            "samples": n,
            "threshold": threshold,
            "index_size": int(snapshot.index_size),
            "planted_pairs": len(truth),
            "returned_pairs": int(i.size),
            "recall": recall,
            "precision": precision,
            "fit_seconds": fit_seconds,
            "query_ms": best * 1e3,
        }
    ]
    headline = {
        "open_world_recall": recall,
        "open_world_precision": precision,
        "open_world_index_size": int(snapshot.index_size),
        "open_world_query_ms": best * 1e3,
    }
    return records, headline


def _bench_descent_vs_scan(smoke: bool, rng) -> tuple[list[dict], dict]:
    """find_heavy vs querying the entire key space, pair-domain keys."""
    dim = 512 if smoke else 1024
    key_space = num_pairs(dim)
    threshold = 0.5
    num_heavy = 40
    sketch = HierarchicalCountSketch(
        NUM_TABLES, NUM_BUCKETS, key_space=key_space,
        branching=BRANCHING, seed=SEED,
    )
    noise_keys = rng.integers(0, key_space, size=20_000 if smoke else 100_000)
    sketch.insert(noise_keys, rng.normal(0.0, 0.005, size=noise_keys.size))
    planted = rng.choice(key_space, size=num_heavy, replace=False).astype(np.int64)
    sketch.insert(planted, rng.choice([-1.0, 1.0], size=num_heavy))
    sketch.freeze()
    sketch.find_heavy(threshold)  # warm the frozen noise-floor cache

    trials = 3 if smoke else 7
    descent = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        keys, _ = sketch.find_heavy(threshold)
        descent = min(descent, time.perf_counter() - t0)

    all_keys = np.arange(key_space, dtype=np.int64)
    scan = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        estimates = sketch.query(all_keys)
        hits = all_keys[np.abs(estimates) >= threshold]
        scan = min(scan, time.perf_counter() - t0)

    descent_recall = len(set(keys.tolist()) & set(planted.tolist())) / num_heavy
    agreement = set(keys.tolist()) == set(hits.tolist())
    records = [
        {
            "op": "descent_vs_scan",
            "key_space": key_space,
            "levels": sketch.levels,
            "planted_keys": num_heavy,
            "descent_ms": descent * 1e3,
            "scan_ms": scan * 1e3,
            "speedup": scan / descent,
            "descent_recall": descent_recall,
            "matches_exhaustive_scan": agreement,
        }
    ]
    headline = {
        "descent_ms": descent * 1e3,
        "scan_ms": scan * 1e3,
        "descent_speedup": scan / descent,
        "descent_matches_scan": agreement,
    }
    return records, headline


def _bench_memory_overhead() -> tuple[list[dict], dict]:
    """Hierarchy residency vs a flat sketch at the same leaf (K, R)."""
    dim = 512
    hierarchy = HierarchicalCountSketch(
        NUM_TABLES, NUM_BUCKETS, key_space=num_pairs(dim),
        branching=BRANCHING, seed=SEED,
    )
    flat = CountSketch(NUM_TABLES, NUM_BUCKETS, seed=SEED)
    ratio = hierarchy.memory_bytes / flat.memory_bytes
    deep_plan = plan(dim, flat.memory_bytes / (1 << 20), levels=hierarchy.levels)
    records = [
        {
            "op": "memory_overhead",
            "levels": hierarchy.levels,
            "hierarchy_bytes": int(hierarchy.memory_bytes),
            "flat_bytes": int(flat.memory_bytes),
            "overhead_ratio": ratio,
            "planner_matched_budget": deep_plan.to_dict(),
        }
    ]
    headline = {
        "memory_overhead_ratio": ratio,
        "hierarchy_levels": hierarchy.levels,
        "planner_buckets_at_matched_budget": deep_plan.num_buckets,
    }
    return records, headline


def run_benchmarks(smoke: bool = False) -> dict:
    rng = np.random.default_rng(0)
    open_records, open_headline = _bench_open_world(smoke)
    scan_records, scan_headline = _bench_descent_vs_scan(smoke, rng)
    mem_records, mem_headline = _bench_memory_overhead()
    cpu_count = os.cpu_count() or 1
    return {
        "meta": {
            "benchmark": "bench_discovery",
            "smoke": smoke,
            "num_tables": NUM_TABLES,
            "num_buckets": NUM_BUCKETS,
            "branching": BRANCHING,
            "cpu_count": cpu_count,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": (
                "recall/precision floors are deterministic and always "
                "enforced; the descent-beats-scan latency floor applies "
                "only when meta.cpu_count >= 2"
            ),
        },
        "headline": {
            **open_headline,
            **scan_headline,
            **mem_headline,
            "cpu_count": cpu_count,
        },
        "results": open_records + scan_records + mem_records,
    }


def write_report(report: dict, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")


def print_report(report: dict) -> None:
    for rec in report["results"]:
        detail = {k: v for k, v in rec.items() if k != "op"}
        print(f"{rec['op']:<24}{json.dumps(detail)}")
    print("headline:", json.dumps(report["headline"], indent=2))


def main(smoke: bool = False, out: Path | None = None) -> dict:
    report = run_benchmarks(smoke=smoke)
    print_report(report)
    write_report(report, out or REPO_ROOT / "BENCH_discovery.json")
    return report


def _check(report: dict) -> list:
    """CI gate for the discovery suite.

    Deterministic gates (always enforced): on the seeded acceptance
    scenario the indexless snapshot must recover >= 95% of the planted
    pairs with precision >= 0.5, and the descent must return the same key
    set as the exhaustive scan of its own sketch.  The descent-beats-scan
    latency floor is a timing measurement, so like every other suite's
    floors it applies only when the measuring machine had >= 2 cores
    (``meta.cpu_count``).
    """
    failures = []
    headline = report["headline"]
    if headline["open_world_recall"] < RECALL_FLOOR:
        failures.append(
            f"open-world recall {headline['open_world_recall']:.3f} fell "
            f"below the {RECALL_FLOOR} floor on the seeded planted scenario"
        )
    if headline["open_world_precision"] < PRECISION_FLOOR:
        failures.append(
            f"open-world precision {headline['open_world_precision']:.3f} "
            f"fell below the {PRECISION_FLOOR} floor — the noise-floor "
            "calibration is admitting junk intervals"
        )
    if not headline["descent_matches_scan"]:
        failures.append(
            "find_heavy disagrees with the exhaustive scan of its own "
            "sketch — the descent pruned a qualifying interval"
        )
    cpu_count = int(report["meta"].get("cpu_count") or 1)
    if cpu_count >= 2 and headline["descent_speedup"] < 1.0:
        failures.append(
            f"hierarchical descent ({headline['descent_ms']:.2f}ms) is "
            f"slower than exhaustively scanning all keys "
            f"({headline['scan_ms']:.2f}ms) — the pruning buys nothing"
        )
    return failures


SUITE = register(BenchSuite(name="discovery", run=main, check=_check))


if __name__ == "__main__":
    main()

"""Adaptive re-sketching benchmark suite.

Measures what closing the planner loop online actually buys, writing
``BENCH_autoscale.json`` (``BENCH_autoscale.smoke.json`` in smoke
mode)::

    PYTHONPATH=src python benchmarks/bench_autoscale.py       # full
    PYTHONPATH=src python benchmarks/run_bench.py --smoke     # CI smoke

The workload is the canonical mid-stream regime change
(:class:`AbruptShiftStream`, shift at 75% of the stream) scored against
the *end-of-stream* truth — the deployment question is "what is
correlated now", not "what was ever correlated".

* **adaptive** — a :meth:`ServingEstimator.autoscaled` stack that starts
  deliberately under-provisioned, grows ``R`` through history-preserving
  migrations while the probe's collision energy stays above its ceiling,
  and shrinks its pane window when post-shift top-K churn fires.  Peak
  memory is charged honestly: every migration holds the old *and* new
  ring simultaneously, and that double-buffer transient is the peak.
* **static family** — fixed non-windowed configurations fit over the
  whole stream, including one given the adaptive run's *entire peak*
  budget as a single sketch.  They blend pre- and post-shift mass, so
  the dead regime's 3x head start buries the live pairs regardless of
  resolution.

The CI check enforces the headline claim deterministically and
unconditionally: adaptive must strictly beat **every** static config at
equal (or larger-for-the-static) peak memory.  Migration latency
ceilings are timing measurements and, like every other suite's floors,
apply only when ``meta.cpu_count >= 2``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from registry import BenchSuite, register
from repro.core.api import build_estimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.data.drift import AbruptShiftStream
from repro.distributed.shard import ShardSpec
from repro.evaluation.metrics import max_f1_score
from repro.hashing.pairs import pair_to_index
from repro.serving import ServingEstimator

REPO_ROOT = Path(__file__).resolve().parent.parent

DIM = 120
NUM_TABLES = 3
START_BUCKETS = 256
NUM_PANES = 5
CHUNK = 64
SEED = 3
ITEMSIZE = 8  # float64 counters throughout — quantization is bench_memory's story

#: CI gates (see _check): adaptive must beat every static strictly, and a
#: single history-preserving migration must stay under this many seconds
#: on the full workload (timing-gated).
MIGRATION_SECONDS_CEILING = 2.0


def _ring_bytes(num_panes: int, num_buckets: int) -> int:
    """Steady-state counter bytes of a ring: one table set per pane."""
    return num_panes * NUM_TABLES * num_buckets * ITEMSIZE


def _sparse_rows(data: np.ndarray):
    idx = np.arange(data.shape[1], dtype=np.int64)
    return [(idx, data[t]) for t in range(data.shape[0])]


def _bench_adaptive(data, truth, n, *, pane_samples, check_every, max_buckets):
    est = ServingEstimator.autoscaled(
        ShardSpec(
            dim=DIM,
            total_samples=n,
            batch_size=32,
            num_tables=NUM_TABLES,
            num_buckets=START_BUCKETS,
            seed=SEED,
            mode="correlation",
            track_top=256,
        ),
        num_panes=NUM_PANES,
        pane_samples=pane_samples,
        refresh_every=check_every,
        autoscale_options=dict(
            check_every=check_every,
            cooldown=1,
            collision_ceiling=1e-3,
            churn_ceiling=0.35,
            max_budget_bytes=NUM_TABLES * max_buckets * ITEMSIZE,
            topk=truth.size,
        ),
    )
    rows = _sparse_rows(data)
    config = (NUM_PANES, START_BUCKETS)
    peak_bytes = _ring_bytes(*config)
    transitions = []
    max_migration_seconds = 0.0
    version = est.config_version
    t0 = time.perf_counter()
    for s in range(0, n, CHUNK):
        est.ingest_sparse(rows[s : s + CHUNK])
        if est.config_version != version:
            version = est.config_version
            new = (est.sketcher.num_panes, est.sketcher.spec.num_buckets)
            # The double-buffered swap held both rings at once.
            transient = _ring_bytes(*config) + _ring_bytes(*new)
            peak_bytes = max(peak_bytes, transient)
            transitions.append(
                {
                    "at_samples": s + CHUNK,
                    "from": config,
                    "to": new,
                    "transient_bytes": transient,
                    "seconds": est.last_migration_seconds,
                    "trigger": est.last_migration_trigger,
                }
            )
            max_migration_seconds = max(
                max_migration_seconds, est.last_migration_seconds
            )
            config = new
    ingest_seconds = time.perf_counter() - t0
    est.refresh()
    i, j, _ = est.top_pairs(truth.size)
    keys = pair_to_index(np.asarray(i), np.asarray(j), DIM)
    return {
        "op": "adaptive",
        "f1": float(max_f1_score(keys, truth)),
        "peak_bytes": int(peak_bytes),
        "final_num_buckets": int(est.sketcher.spec.num_buckets),
        "final_num_panes": int(est.sketcher.num_panes),
        "migrations": int(est.migration_count),
        "max_migration_seconds": max_migration_seconds,
        "ingest_seconds": ingest_seconds,
        "transitions": transitions,
    }


def _bench_static(data, truth, n, num_buckets: int) -> dict:
    est = build_estimator(
        "cs", n, NUM_TABLES, num_buckets, seed=SEED, track_top=256
    )
    sketcher = CovarianceSketcher(DIM, est, mode="correlation", batch_size=32)
    t0 = time.perf_counter()
    sketcher.fit_dense(data)
    seconds = time.perf_counter() - t0
    i, j, _ = sketcher.top_pairs(truth.size)
    keys = pair_to_index(np.asarray(i), np.asarray(j), DIM)
    return {
        "op": f"static_r{num_buckets}",
        "num_buckets": int(num_buckets),
        "peak_bytes": int(NUM_TABLES * num_buckets * ITEMSIZE),
        "f1": float(max_f1_score(keys, truth)),
        "fit_seconds": seconds,
    }


def run_benchmarks(smoke: bool = False) -> dict:
    n = 2048 if smoke else 4096
    pane_samples = 128 if smoke else 256
    check_every = 128 if smoke else 256
    max_buckets = 1024 if smoke else 2048
    stream = AbruptShiftStream(
        DIM, n, switch_at=(3 * n) // 4, alpha=0.02, seed=11
    )
    data = stream.generate()
    truth = stream.signal_pairs_at(n - 1)

    adaptive = _bench_adaptive(
        data,
        truth,
        n,
        pane_samples=pane_samples,
        check_every=check_every,
        max_buckets=max_buckets,
    )
    # The static family: the starting shape, the adaptive final shape, and
    # one config handed the adaptive run's whole peak budget outright.
    equal_peak_buckets = adaptive["peak_bytes"] // (NUM_TABLES * ITEMSIZE)
    statics = [
        _bench_static(data, truth, n, r)
        for r in sorted(
            {
                START_BUCKETS,
                adaptive["final_num_buckets"],
                equal_peak_buckets,
            }
        )
    ]

    cpu_count = os.cpu_count() or 1
    best_static = max(s["f1"] for s in statics)
    return {
        "meta": {
            "benchmark": "bench_autoscale",
            "smoke": smoke,
            "dim": DIM,
            "samples": n,
            "num_tables": NUM_TABLES,
            "switch_at": (3 * n) // 4,
            "truth_pairs": int(truth.size),
            "cpu_count": cpu_count,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": (
                "adaptive-beats-static F1 is deterministic and always "
                "enforced; migration latency ceilings apply only when "
                "meta.cpu_count >= 2"
            ),
        },
        "headline": {
            "f1_adaptive": adaptive["f1"],
            "f1_best_static": best_static,
            "f1_margin": adaptive["f1"] - best_static,
            "adaptive_peak_bytes": adaptive["peak_bytes"],
            "largest_static_bytes": max(s["peak_bytes"] for s in statics),
            "migrations": adaptive["migrations"],
            "max_migration_seconds": adaptive["max_migration_seconds"],
            "cpu_count": cpu_count,
        },
        "results": [adaptive, *statics],
    }


def write_report(report: dict, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")


def print_report(report: dict) -> None:
    for rec in report["results"]:
        detail = {k: v for k, v in rec.items() if k not in ("op", "transitions")}
        print(f"{rec['op']:<22}{json.dumps(detail)}")
    print("headline:", json.dumps(report["headline"], indent=2))


def main(smoke: bool = False, out: Path | None = None) -> dict:
    report = run_benchmarks(smoke=smoke)
    print_report(report)
    write_report(report, out or REPO_ROOT / "BENCH_autoscale.json")
    return report


def _check(report: dict) -> list:
    """CI gate for the adaptive re-sketching suite.

    Deterministic gates (always enforced): the adaptive run must migrate
    at least once, its charged peak must cover the largest static's
    budget (otherwise the comparison is rigged), and its end-of-stream F1
    must strictly beat **every** static configuration.  The migration
    latency ceiling is a timing measurement, so it applies only when the
    measuring machine had >= 2 cores (``meta.cpu_count``).
    """
    failures = []
    results = {rec["op"]: rec for rec in report["results"]}
    adaptive = results["adaptive"]
    statics = [rec for op, rec in results.items() if op.startswith("static_")]
    if adaptive["migrations"] < 1:
        failures.append(
            "the adaptive run never migrated — no trigger fired, so the "
            "suite measured a static config twice"
        )
    for rec in statics:
        if rec["peak_bytes"] > adaptive["peak_bytes"]:
            failures.append(
                f"{rec['op']} was given {rec['peak_bytes']} bytes, more "
                f"than the adaptive peak {adaptive['peak_bytes']} — the "
                "equal-memory comparison is broken"
            )
        if adaptive["f1"] <= rec["f1"]:
            failures.append(
                f"adaptive F1 {adaptive['f1']:.3f} does not beat "
                f"{rec['op']} ({rec['f1']:.3f}) at equal peak memory — "
                "re-sketching stopped paying for itself"
            )
    cpu_count = int(report["meta"].get("cpu_count") or 1)
    if cpu_count >= 2:
        worst = adaptive["max_migration_seconds"]
        if worst > MIGRATION_SECONDS_CEILING:
            failures.append(
                f"slowest migration took {worst:.2f}s "
                f"(ceiling {MIGRATION_SECONDS_CEILING}s) — the window "
                "replay is no longer a sub-second pause"
            )
    return failures


SUITE = register(BenchSuite(name="autoscale", run=main, check=_check))


if __name__ == "__main__":
    main()

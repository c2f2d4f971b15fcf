"""Streaming (decay + sliding-window) benchmark suite.

Measures the three costs the ``repro.streaming`` subsystem introduces and
the accuracy win it buys, writing ``BENCH_streaming.json``
(``BENCH_streaming.smoke.json`` in smoke mode)::

    PYTHONPATH=src python benchmarks/bench_streaming.py           # full
    PYTHONPATH=src python benchmarks/run_bench.py --smoke         # CI smoke

* **pane rotation** — closing the open pane into an immutable
  :class:`ShardResult` (a counter copy + tracker snapshot).  This is the
  only extra write-side cost of windowing; ingestion itself runs the
  ordinary fused hot path.
* **window materialisation + windowed queries** — one merge pass over the
  retained panes (the PR-2 merge laws), then batched query throughput
  against the materialised window estimator (keys/s).
* **decayed F1 under drift** — top-pair F1 against the *current* signal
  set after an abrupt drift, decayed estimator vs the no-decay baseline at
  the same memory budget.  Seeded and deterministic, so the CI check can
  require the decayed win unconditionally — it is an accuracy property,
  not a throughput number.

Throughput floors are gated on ``meta.cpu_count`` (see
``check_regressions.py``): a 1-CPU container records its numbers but is
never failed on them.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from registry import BenchSuite, register
from timing import best_seconds
from repro.core.api import build_estimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.data.drift import AbruptShiftStream
from repro.distributed.shard import ShardSpec
from repro.evaluation.metrics import max_f1_score
from repro.hashing.pairs import pair_to_index
from repro.streaming import PaneRing, decay_from_half_life, make_decaying_sketcher

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The paper's table shape (Table 2 regime), shrunk in smoke mode.
NUM_TABLES = 5
DIM = 10**6
NNZ = 64
BATCH_SIZE = 32
SEED = 17

#: Windowed-query floor (keys/s), enforced only on >= 4 core machines.
WINDOW_QPS_FLOOR = 100_000


def _sparse_stream(rng, n):
    return [
        (
            np.sort(rng.choice(DIM, size=NNZ, replace=False)).astype(np.int64),
            rng.standard_normal(NNZ),
        )
        for _ in range(n)
    ]


def _bench_panes(smoke: bool, rng) -> tuple[list[dict], dict]:
    num_buckets = 1 << (14 if smoke else 17)
    pane_samples = 4 * BATCH_SIZE
    num_panes = 4
    spec = ShardSpec(
        dim=DIM,
        total_samples=num_panes * pane_samples,
        num_tables=NUM_TABLES,
        num_buckets=num_buckets,
        seed=SEED,
        batch_size=BATCH_SIZE,
        track_top=1024,
        mode="covariance",
    )
    ring = PaneRing(spec, num_panes=num_panes, pane_samples=pane_samples)

    # Fill pane by pane, timing each explicit rotation; extra panes
    # exercise eviction.  The last pane stays open (full, unrotated) so
    # the materialisation below merges a true num_panes-pane window.
    rotate_seconds = []
    for _ in range(num_panes + 2):
        ring.ingest(_sparse_stream(rng, pane_samples))
        t0 = time.perf_counter()
        ring.rotate()
        rotate_seconds.append(time.perf_counter() - t0)
    ring.ingest(_sparse_stream(rng, pane_samples))
    assert ring.window_span == num_panes * pane_samples

    t0 = time.perf_counter()
    window = ring.window()
    window_build_s = time.perf_counter() - t0

    # Batched windowed-query throughput on the materialised estimator.
    keys = rng.integers(0, window.num_pairs, size=10_000).astype(np.int64)
    trials = 3 if smoke else 10
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        window.estimate_keys(keys)
        best = min(best, time.perf_counter() - t0)
    qps = keys.size / best

    records = [
        {
            "op": "pane_rotate",
            "num_buckets": num_buckets,
            "pane_samples": pane_samples,
            "seconds_mean": float(np.mean(rotate_seconds)),
            "seconds_best": float(np.min(rotate_seconds)),
        },
        {
            "op": "window_materialize",
            "num_panes": num_panes,
            "window_span": int(ring.window_span),
            "seconds": window_build_s,
        },
        {
            "op": "windowed_query",
            "batch_keys": int(keys.size),
            "seconds_best": best,
            "keys_per_sec": qps,
        },
    ]
    headline = {
        "pane_rotate_ms": float(np.mean(rotate_seconds)) * 1e3,
        "window_build_ms": window_build_s * 1e3,
        "windowed_query_keys_per_sec": qps,
    }
    return records, headline


def _bench_drift_f1(smoke: bool) -> tuple[list[dict], dict]:
    dim = 120
    n = 2048 if smoke else 8192
    memory = NUM_TABLES * 2048
    stream = AbruptShiftStream(dim, n, alpha=0.02, seed=11)
    data = stream.generate()
    truth_now = stream.signal_pairs_at(n - 1)
    half_life = n / 16

    def baseline():
        return CovarianceSketcher(
            dim,
            build_estimator(
                "cs", n, NUM_TABLES, memory // NUM_TABLES, seed=3, track_top=256
            ),
            mode="correlation",
            batch_size=BATCH_SIZE,
        )

    def decayed():
        return make_decaying_sketcher(
            dim,
            n,
            gamma=decay_from_half_life(half_life),
            num_tables=NUM_TABLES,
            num_buckets=memory // NUM_TABLES,
            seed=3,
            mode="correlation",
            batch_size=BATCH_SIZE,
            track_top=256,
        )

    # Both arms timed in pairs, each call a fresh sketcher's fit.
    trials = 3 if smoke else 5
    base_seconds, dec_seconds = best_seconds(
        (lambda: baseline, lambda make: make().fit_dense(data)),
        (lambda: decayed, lambda make: make().fit_dense(data)),
        trials=trials,
        inner=1,
    )

    def fit_f1(make, seconds):
        i, j, _ = make().fit_dense(data).top_pairs(truth_now.size)
        keys = pair_to_index(i, j, dim)
        return {
            "f1": float(max_f1_score(keys, truth_now)),
            "fit_seconds": seconds,
            "trials": trials,
        }

    base = fit_f1(baseline, base_seconds)
    dec = fit_f1(decayed, dec_seconds)

    records = [
        {"op": "drift_f1_baseline", "dim": dim, "samples": n, **base},
        {
            "op": "drift_f1_decayed",
            "dim": dim,
            "samples": n,
            "half_life": half_life,
            **dec,
        },
    ]
    headline = {
        "drift_f1_baseline": base["f1"],
        "drift_f1_decayed": dec["f1"],
        "decay_fit_overhead": dec["fit_seconds"] / base["fit_seconds"],
    }
    return records, headline


def run_benchmarks(smoke: bool = False) -> dict:
    rng = np.random.default_rng(0)
    pane_records, pane_headline = _bench_panes(smoke, rng)
    drift_records, drift_headline = _bench_drift_f1(smoke)
    cpu_count = os.cpu_count() or 1
    return {
        "meta": {
            "benchmark": "bench_streaming",
            "smoke": smoke,
            "num_tables": NUM_TABLES,
            "dim": DIM,
            "nnz": NNZ,
            "batch_size": BATCH_SIZE,
            "cpu_count": cpu_count,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": (
                "drift F1 numbers are seeded and deterministic; throughput "
                "floors apply only when meta.cpu_count >= 4"
            ),
        },
        "headline": {**pane_headline, **drift_headline, "cpu_count": cpu_count},
        "results": pane_records + drift_records,
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
    write_report(report, out or REPO_ROOT / "BENCH_streaming.json")
    return report


def _check(report: dict) -> list:
    """CI gate for the streaming suite.

    The decayed-beats-baseline F1 margin is deterministic (seeded stream,
    seeded hashes) and is enforced on every machine.  The windowed-query
    floor is enforced only when the *measuring* machine had >= 4 cores
    (``meta.cpu_count``), so 1-CPU containers record numbers without
    failing throughput floors.
    """
    failures = []
    headline = report["headline"]
    if headline["drift_f1_decayed"] < headline["drift_f1_baseline"] + 0.1:
        failures.append(
            "decay stopped beating the no-decay baseline after drift: "
            f"decayed F1 {headline['drift_f1_decayed']:.3f} vs baseline "
            f"{headline['drift_f1_baseline']:.3f}"
        )
    cpu_count = int(report["meta"].get("cpu_count") or 1)
    if (
        cpu_count >= 4
        and headline["windowed_query_keys_per_sec"] < WINDOW_QPS_FLOOR
    ):
        failures.append(
            f"windowed query throughput "
            f"{headline['windowed_query_keys_per_sec']:,.0f} keys/s below "
            f"the {WINDOW_QPS_FLOOR:,} floor"
        )
    return failures


SUITE = register(BenchSuite(name="streaming", run=main, check=_check))


if __name__ == "__main__":
    main()

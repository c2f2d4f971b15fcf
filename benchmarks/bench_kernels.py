"""Fused-kernel microbenchmarks: fused vs. legacy (pre-fusion) hot paths.

Measures the kernels that PR 1 fused — multi-table hashing, count-sketch
insert/query, top-k tracking, and sparse pair expansion — against the
per-table / per-sample reference implementations preserved in
:mod:`repro.reference`, plus the end-to-end sparse covariance pipeline,
the sweep that measures where ``fit_sparse`` should stop expanding
pairs and take one GEMM per batch (``route`` records), and ASCS's staged
gate against query plus compare (``gate`` records).

Run directly (full workloads, writes ``BENCH_kernels.json`` at the repo
root)::

    PYTHONPATH=src python benchmarks/bench_kernels.py

or through the smoke-mode entry point used by CI::

    PYTHONPATH=src python benchmarks/run_bench.py --smoke

Every record in the JSON carries ``op``, ``batch``, per-implementation
seconds, ``speedup`` (legacy/fused) and fused ``updates_per_sec`` so future
PRs can diff the perf trajectory machine-readably.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from registry import BenchSuite, register
from timing import best_seconds
from repro.core.estimator import SketchEstimator
from repro.covariance import pipeline
from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.updates import sparse_batch_pairs, validate_sparse_batch
from repro.hashing.families import MultiplyShiftHash, MultiTableHasher, SignHash
from repro.reference import (
    LegacyCountSketch,
    LegacySparseMoments,
    LegacyTopKTracker,
    legacy_sparse_batch_pairs,
)
from repro.sketch.base import ValueSketch
from repro.sketch.count_sketch import CountSketch
import repro.sketch.kernels as kernels
from repro.sketch.kernels import available_backends, numba_version
from repro.sketch.topk import TopKTracker

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The paper's table shape: K=5 tables, R=2^17 buckets (Table 2 regime).
NUM_TABLES = 5
NUM_BUCKETS = 1 << 17


def _record(op, batch, legacy_s, fused_s, updates, **extra):
    rec = {
        "op": op,
        "batch": int(batch),
        "legacy_seconds": legacy_s,
        "fused_seconds": fused_s,
        "speedup": legacy_s / fused_s,
        "updates_per_sec": updates / fused_s,
        "legacy_updates_per_sec": updates / legacy_s,
    }
    rec.update(extra)
    return rec


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _bench_count_sketch(results, *, batches, trials, inner, rng):
    for n in batches:
        keys = rng.integers(0, 10**12, size=n).astype(np.int64)
        values = rng.standard_normal(n)

        def insert(sk):
            sk.insert(keys, values)

        legacy_s, fused_s = best_seconds(
            (lambda: LegacyCountSketch(NUM_TABLES, NUM_BUCKETS, seed=1), insert),
            (lambda: CountSketch(NUM_TABLES, NUM_BUCKETS, seed=1), insert),
            trials=trials,
            inner=inner,
        )
        results.append(_record("countsketch_insert", n, legacy_s, fused_s, n))

        legacy = LegacyCountSketch(NUM_TABLES, NUM_BUCKETS, seed=1)
        fused = CountSketch(NUM_TABLES, NUM_BUCKETS, seed=1)
        legacy.insert(keys, values)
        fused.insert(keys, values)
        legacy_s, fused_s = best_seconds(
            (lambda: legacy, lambda sk: sk.query(keys)),
            (lambda: fused, lambda sk: sk.query(keys)),
            trials=trials,
            inner=inner,
        )
        results.append(_record("countsketch_query", n, legacy_s, fused_s, n))


def _bench_hash(results, *, trials, inner, rng):
    """Every table's bucket and sign hashes: one ``bucket_sign_u64``
    broadcast against a :class:`MultiplyShiftHash` and a :class:`SignHash`
    per table, the hashes ``LegacyCountSketch`` calls."""
    n = 65536
    keys = rng.integers(0, 10**12, size=n).astype(np.int64)
    seeds = list(range(NUM_TABLES))
    sign_seeds = list(range(NUM_TABLES, 2 * NUM_TABLES))
    per_table = [
        (MultiplyShiftHash(NUM_BUCKETS, s), SignHash(t))
        for s, t in zip(seeds, sign_seeds)
    ]
    hasher = MultiTableHasher(NUM_BUCKETS, seeds, sign_seeds)

    def legacy_hash(_):
        for bucket, sign in per_table:
            bucket(keys)
            sign(keys)

    legacy_s, fused_s = best_seconds(
        (lambda: None, legacy_hash),
        (lambda: None, lambda _: hasher.bucket_sign_u64(keys)),
        trials=trials,
        inner=inner,
    )
    results.append(_record("hash", n, legacy_s, fused_s, n * NUM_TABLES))


def _bench_tracker(results, *, trials, inner, rng):
    # Trillion-scale streaming: mostly-fresh keys per batch, capacity far
    # above the batch size — the regime table2-style retrieval runs in.
    n = 8192
    num_batches = 16
    stream = [
        (
            rng.integers(0, 10**12, size=n).astype(np.int64),
            rng.standard_normal(n),
        )
        for _ in range(num_batches)
    ]

    def offer_stream(make_tracker):
        tr = make_tracker()
        for keys, ests in stream:
            tr.offer(keys, ests)

    legacy_s, fused_s = best_seconds(
        (lambda: None, lambda _: offer_stream(lambda: LegacyTopKTracker(50_000))),
        (lambda: None, lambda _: offer_stream(lambda: TopKTracker(50_000))),
        trials=trials,
        inner=1,
    )
    results.append(
        _record("topk_offer_stream", n * num_batches, legacy_s, fused_s, n * num_batches)
    )

    # Refresh-heavy: repeated offers of overlapping keys into a small pool,
    # forcing a dedup/prune on nearly every call (worst case for the
    # array-backed pool, best case for the dict).
    keys = rng.integers(0, 10**4, size=n).astype(np.int64)
    ests = rng.standard_normal(n)
    legacy_s, fused_s = best_seconds(
        (lambda: LegacyTopKTracker(2048), lambda tr: tr.offer(keys, ests)),
        (lambda: TopKTracker(2048), lambda tr: tr.offer(keys, ests)),
        trials=trials,
        inner=inner,
    )
    results.append(_record("topk_offer_hot", n, legacy_s, fused_s, n))


def _bench_sparse_expansion(results, *, trials, inner, rng, num_samples):
    dim = 10**7
    # Real URL/DNA streams have per-sample nnz variation, which also defeats
    # the per-m lru cache inside the legacy per-sample triu expansion.
    lengths = rng.integers(32, 97, size=num_samples).astype(np.int64)
    idx = np.concatenate(
        [np.sort(rng.choice(dim, size=int(m), replace=False)) for m in lengths]
    ).astype(np.int64)
    val = rng.standard_normal(idx.size)
    pairs = int((lengths * (lengths - 1) // 2).sum())

    legacy_s, fused_s = best_seconds(
        (lambda: None, lambda _: legacy_sparse_batch_pairs(idx, val, lengths, dim)),
        (lambda: None, lambda _: sparse_batch_pairs(idx, val, lengths, dim)),
        trials=trials,
        inner=inner,
    )
    results.append(
        _record("sparse_pair_expansion", num_samples, legacy_s, fused_s, pairs)
    )


def _bench_sparse_pipeline(results, *, trials, rng, num_samples):
    """End-to-end ``fit_sparse``: expansion + sketch ingest of the pair
    stream + candidate tracking, fused stack vs. the full legacy stack."""
    dim = 10**6
    nnz = 64
    batch_size = 32
    samples = [
        (
            np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64),
            rng.standard_normal(nnz),
        )
        for _ in range(num_samples)
    ]
    pairs = num_samples * (nnz * (nnz - 1) // 2)

    def run_fused():
        est = SketchEstimator(
            CountSketch(NUM_TABLES, NUM_BUCKETS, seed=3),
            num_samples,
            track_top=1024,
        )
        pipe = CovarianceSketcher(
            dim, est, mode="covariance", batch_size=batch_size
        )
        pipe.fit_sparse(iter(samples))
        return est

    def run_legacy():
        est = SketchEstimator(
            LegacyCountSketch(NUM_TABLES, NUM_BUCKETS, seed=3),
            num_samples,
            track_top=1024,
        )
        est.tracker = LegacyTopKTracker(1024)
        moments = LegacySparseMoments(dim)
        for start in range(0, num_samples, batch_size):
            chunk = samples[start : start + batch_size]
            lengths = np.asarray([s[0].size for s in chunk], dtype=np.int64)
            idx = np.concatenate([s[0] for s in chunk])
            val = np.concatenate([s[1] for s in chunk])
            moments.update_batch(idx, val, num_samples=len(chunk))
            keys, products = legacy_sparse_batch_pairs(idx, val, lengths, dim)
            est.ingest(keys, products, num_samples=len(chunk))
        return est

    # Sanity: both stacks must leave the same counters behind.
    np.testing.assert_array_equal(run_fused().sketch.table, run_legacy().sketch.table)

    legacy_s, fused_s = best_seconds(
        (lambda: None, lambda _: run_legacy()),
        (lambda: None, lambda _: run_fused()),
        trials=trials,
        inner=1,
    )
    results.append(
        _record(
            "sparse_pipeline_fit",
            num_samples,
            legacy_s,
            fused_s,
            pairs,
            pairs_per_sample=nnz * (nnz - 1) // 2,
            batch_size=batch_size,
        )
    )


#: Route sweep: the default pipeline batch over a fixed union of features
#: drawn from a 10^6-feature space, per-sample nnz growing to full cover.
ROUTE_BATCH = 32
ROUTE_UNION = 256
ROUTE_DIM = 10**6
#: The sketch each route's updates go into: perfbench's K and R.
ROUTE_TABLES = 5
ROUTE_BUCKETS = 1 << 15


def _bench_route(results, *, trials, nnz_grid):
    """Pair expansion vs the GEMM route on one batch as its samples overlap.

    Each point times both routes of ``CovarianceSketcher`` on the same
    batch, each through to the sketch: the route's pair updates plus one
    ``CountSketch(5, 2**15).insert`` of what it emits.  The expanded route
    emits every sample's pairs, repeats included, the GEMM route one sum
    per co-observed pair, so timing the updates alone would compare
    different work.  The decision itself, one sort of the indices, is paid
    either way and left out.  ``overlap`` is the expanded pair count over
    the union's pair count, the quantity ``GEMM_CROSSOVER`` thresholds.
    """
    rng = np.random.default_rng(7)
    features = rng.choice(ROUTE_DIM, size=ROUTE_UNION, replace=False)
    sketcher = CovarianceSketcher(ROUTE_DIM, None)

    def sketch():
        return CountSketch(ROUTE_TABLES, ROUTE_BUCKETS, seed=3)

    # On some hosts a process's BLAS threads answer small products ~20x
    # slower for a second or more at a time; let them settle first.
    warm = rng.standard_normal((ROUTE_BATCH, ROUTE_UNION))
    until = time.perf_counter() + 2.0
    while time.perf_counter() < until:
        warm.T @ warm
    for m in nnz_grid:
        order = rng.permutation(features)
        batch = [
            (
                np.sort(order[(s * m + np.arange(m)) % ROUTE_UNION]),
                rng.standard_normal(m),
            )
            for s in range(ROUTE_BATCH)
        ]
        idx, val, lengths = validate_sparse_batch(batch, ROUTE_DIM)
        union = np.unique(idx)

        def expand(sk):
            sk.insert(*sparse_batch_pairs(idx, val, lengths, ROUTE_DIM))

        def gemm(sk):
            sk.insert(*sketcher._gemm_pair_updates(idx, val, lengths, union))

        expand_s, gemm_s = best_seconds(
            (sketch, expand), (sketch, gemm), trials=trials, inner=1
        )
        expanded = int((lengths * (lengths - 1)).sum()) // 2
        u = union.size
        results.append(
            {
                "op": "route",
                "batch": ROUTE_BATCH,
                "union": int(u),
                "nnz": int(m),
                "overlap": expanded / (u * (u - 1) // 2),
                "expand_seconds": expand_s,
                "gemm_seconds": gemm_s,
            }
        )


def route_crossover(report: dict) -> float | None:
    """The overlap where the GEMM route starts to win, interpolated
    log-linearly between the two sweep points that bracket it."""
    points = sorted(
        (rec["overlap"], rec["expand_seconds"] / rec["gemm_seconds"])
        for rec in report.get("results", [])
        if rec.get("op") == "route"
    )
    for (lo, lo_ratio), (hi, hi_ratio) in zip(points, points[1:]):
        if lo_ratio < 1.0 <= hi_ratio:
            t = -np.log(lo_ratio) / (np.log(hi_ratio) - np.log(lo_ratio))
            return float(np.exp(np.log(lo) + t * (np.log(hi) - np.log(lo))))
    return None


#: Gate records: ``ingest_narrow``'s sketch and gate batch (K = 5,
#: R = 2^15, ~29k pair keys per 32-row batch) at shares of keys still in
#: doubt after the gate's first stage: its passes run from ~85% on the
#: first batch after exploration down to ~4% in the steady state.
GATE_TABLES = 5
GATE_BUCKETS = 1 << 15
GATE_BATCH = 29_000
GATE_DOUBT = (0.01, 0.05, 0.30, 0.65)


def _bench_gate(results, *, trials, inner, rng):
    """``CountSketch.gate`` against the default gate on one batch.

    The table holds 400k random updates.  Per level, ``tau`` is the
    quantile of the keys' first-stage maxima that leaves that share of
    keys in doubt.  Each level times the default gate
    (:meth:`repro.sketch.ValueSketch.gate`: query, then compare) and the
    staged one, whose mask and estimates must equal the default's.
    """
    with _pinned_kernels("numpy"):  # the compiled leg keeps the default
        sketch = CountSketch(GATE_TABLES, GATE_BUCKETS, seed=1)
    sketch.insert(
        rng.integers(0, 5 * 10**11, size=400_000), rng.standard_normal(400_000)
    )
    keys = rng.integers(0, 5 * 10**11, size=GATE_BATCH).astype(np.int64)
    h = (GATE_TABLES + 1) // 2
    top = sketch.query_per_table(keys)[:h].max(axis=0)
    for doubt in GATE_DOUBT:
        tau = float(np.quantile(top, 1.0 - doubt))
        mask, estimates = ValueSketch.gate(sketch, keys, tau)
        got_mask, got_estimates = sketch.gate(keys, tau)
        query_s, gate_s = best_seconds(
            (lambda: None, lambda _: ValueSketch.gate(sketch, keys, tau)),
            (lambda: None, lambda _: sketch.gate(keys, tau)),
            trials=trials,
            inner=inner,
        )
        results.append(
            {
                "op": "gate",
                "batch": GATE_BATCH,
                "doubt": float(np.mean(top >= tau)),
                "accepted": float(mask.mean()),
                "query_seconds": query_s,
                "gate_seconds": gate_s,
                "identical": bool(
                    np.array_equal(got_mask, mask)
                    and np.array_equal(got_estimates, estimates)
                ),
            }
        )


@contextmanager
def _pinned_kernels(backend):
    """Make ``backend`` the kernels that sketches built inside will run.

    The platform picks the kernels, so the numpy leg on a numba host is
    reached by pinning the one-shot import state of
    :mod:`repro.sketch.kernels` to "no compiled module".  A sketch arms
    the compiled path when it is built, so pinning construction suffices.
    """
    compiled = kernels.numba_kernels()
    kernels._jit_module = compiled if backend == "numba" else None
    try:
        yield
    finally:
        kernels._jit_module = compiled


def _bench_backends(results, *, batches, trials, inner, rng):
    """Kernel-backend axis: numpy vs numba on the same sketch hot paths.

    Each leg builds its sketches under :func:`_pinned_kernels`, so a host
    with numba measures both sides of the axis, inside the same trials.
    Records carry ``backend``
    + absolute ``seconds``/``updates_per_sec``; ``check_regressions``
    derives the numba-vs-numpy speedup from pairs of records and requires
    >= 5x on insert when numba is importable.
    """
    backends = available_backends()

    def make(backend):
        with _pinned_kernels(backend):
            return CountSketch(NUM_TABLES, NUM_BUCKETS, seed=1)

    for n in batches:
        keys = rng.integers(0, 10**12, size=n).astype(np.int64)
        values = rng.standard_normal(n)
        warm = {backend: make(backend) for backend in backends}
        for sk in warm.values():
            sk.insert(keys, values)
        sides = {
            "backend_insert": [
                (partial(make, backend), lambda sk: sk.insert(keys, values))
                for backend in backends
            ],
            "backend_query": [
                (partial(warm.get, backend), lambda sk: sk.query(keys))
                for backend in backends
            ],
            "backend_insert_and_query": [
                (partial(make, backend), lambda sk: sk.insert_and_query(keys, values))
                for backend in backends
            ],
        }
        for op, legs in sides.items():
            timed = best_seconds(*legs, trials=trials, inner=inner)
            for backend, seconds in zip(backends, timed):
                results.append(
                    {
                        "op": op,
                        "backend": backend,
                        "batch": int(n),
                        "seconds": seconds,
                        "updates_per_sec": n / seconds,
                    }
                )


def backend_speedup(report: dict, op: str = "backend_insert") -> float | None:
    """Best numba-over-numpy throughput ratio for ``op`` across batches.

    ``None`` when the report has no numba leg (numba not importable where
    it ran) — callers skip their threshold checks in that case.
    """
    by_batch: dict[int, dict[str, float]] = {}
    for rec in report.get("results", []):
        if rec.get("op") == op and "backend" in rec:
            by_batch.setdefault(rec["batch"], {})[rec["backend"]] = rec[
                "updates_per_sec"
            ]
    ratios = [
        rates["numba"] / rates["numpy"]
        for rates in by_batch.values()
        if "numba" in rates and "numpy" in rates
    ]
    return max(ratios) if ratios else None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_benchmarks(smoke: bool = False) -> dict:
    rng = np.random.default_rng(0)
    results: list[dict] = []
    if smoke:
        trials, inner = 3, 2
        batches = (256, 4096)
        expansion_samples = 8
        pipeline_samples = 64
        # Overlaps 0.12 and 8, far enough from the crossover that a slow
        # BLAS spell cannot flip them: a smoke run catches gross errors.
        route_nnz = (16, 128)
    else:
        trials, inner = 7, 5
        batches = (256, 1024, 4096, 16384, 100_000)
        expansion_samples = 32
        pipeline_samples = 512
        route_nnz = (8, 16, 24, 32, 36, 40, 44, 48, 56, 64, 96, 128, 192, 256)

    _bench_count_sketch(results, batches=batches, trials=trials, inner=inner, rng=rng)
    _bench_hash(results, trials=trials, inner=inner, rng=rng)
    _bench_tracker(results, trials=trials, inner=inner, rng=rng)
    _bench_sparse_expansion(
        results, trials=trials, inner=inner, rng=rng, num_samples=expansion_samples
    )
    _bench_sparse_pipeline(
        results, trials=max(2, trials // 2), rng=rng, num_samples=pipeline_samples
    )
    _bench_route(results, trials=trials, nnz_grid=route_nnz)
    _bench_gate(results, trials=trials, inner=inner, rng=rng)
    _bench_backends(results, batches=batches, trials=trials, inner=inner, rng=rng)

    def _speedup(op, batch=None):
        for rec in results:
            if rec["op"] == op and (batch is None or rec["batch"] == batch):
                return rec["speedup"]
        return None

    headline = {
        # The bench_sketch_ops.py small-batch insert workload (batch=256):
        # the regime the ASCS sampling gate produces once filtering is on.
        "countsketch_insert_speedup": _speedup("countsketch_insert", batches[0]),
        "countsketch_query_speedup": _speedup("countsketch_query", batches[-1]),
        "sparse_pipeline_speedup": _speedup("sparse_pipeline_fit"),
        "topk_offer_speedup": _speedup("topk_offer_stream"),
    }
    report = {
        "meta": {
            "benchmark": "bench_kernels",
            "smoke": smoke,
            "num_tables": NUM_TABLES,
            "num_buckets": NUM_BUCKETS,
            "cpu_count": os.cpu_count() or 1,
            "numpy": np.__version__,
            "numba": numba_version(),
            "kernel_backends": list(available_backends()),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "headline": headline,
        "results": results,
    }
    headline["numba_insert_speedup"] = backend_speedup(report)
    headline["route_crossover_measured"] = route_crossover(report)
    headline["route_crossover_shipped"] = pipeline.GEMM_CROSSOVER
    return report


def write_report(report: dict, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")


def print_report(report: dict) -> None:
    print(f"{'op':<32}{'batch':>8}{'legacy':>12}{'fused':>12}{'speedup':>9}")
    for rec in report["results"]:
        if "speedup" in rec:
            print(
                f"{rec['op']:<32}{rec['batch']:>8}"
                f"{rec['legacy_seconds'] * 1e6:>10.1f}us"
                f"{rec['fused_seconds'] * 1e6:>10.1f}us"
                f"{rec['speedup']:>8.2f}x"
            )
        elif rec["op"] == "gate":
            print(
                f"{'gate doubt=' + format(rec['doubt'], '.2f'):<32}"
                f"{rec['batch']:>8}"
                f"{rec['query_seconds'] * 1e6:>10.1f}us"
                f"{rec['gate_seconds'] * 1e6:>10.1f}us"
                f"{rec['query_seconds'] / rec['gate_seconds']:>8.2f}x"
            )
        elif rec["op"] == "route":
            print(
                f"{'route overlap=' + format(rec['overlap'], '.3f'):<32}"
                f"{rec['nnz']:>8}"
                f"{rec['expand_seconds'] * 1e6:>10.1f}us"
                f"{rec['gemm_seconds'] * 1e6:>10.1f}us"
                f"{rec['expand_seconds'] / rec['gemm_seconds']:>8.2f}x"
            )
        else:
            label = f"{rec['op']}[{rec['backend']}]"
            print(
                f"{label:<32}{rec['batch']:>8}"
                f"{'':>12}"
                f"{rec['seconds'] * 1e6:>10.1f}us"
                f"{rec['updates_per_sec'] / 1e6:>7.1f}M/s"
            )
    print("headline:", json.dumps(report["headline"], indent=2))


def main(smoke: bool = False, out: Path | None = None) -> dict:
    report = run_benchmarks(smoke=smoke)
    print_report(report)
    write_report(report, out or REPO_ROOT / "BENCH_kernels.json")
    return report


#: Minimum numba-over-numpy insert throughput ratio the gate demands.  The
#: compiled scatter loop removes the (K+1)-pass numpy overhead entirely, so
#: anything below this means the JIT path silently degraded.
NUMBA_MIN_INSERT_SPEEDUP = 5.0

#: How much slower than the other route a swept batch's chosen route may
#: time before the shipped crossover counts as wrong: two best-of-N timings
#: of the same work differ by up to this much across runs on a shared host.
ROUTE_NOISE = 1.5

def _check(report: dict) -> list:
    """CI gate: no fused kernel may regress below parity with the
    reference, the staged ASCS gate must match query plus compare, and —
    on a host with two or more CPUs — the gate must be no slower than
    query plus compare at any level and, when the report carries a numba leg, the
    compiled insert path must actually pay for itself."""
    problems = []
    regressions = [
        rec["op"]
        for rec in report["results"]
        if "speedup" in rec and rec["speedup"] < 0.5
    ]
    if regressions:
        problems.append("severe regressions: " + ", ".join(regressions))
    gates = [rec for rec in report["results"] if rec["op"] == "gate"]
    problems.extend(
        f"gate at doubt {rec['doubt']:.2f} differs from query plus compare"
        for rec in gates
        if not rec["identical"]
    )
    meta = report.get("meta", {})
    # Gate on the recorded host shape: the threshold is calibrated for a
    # real runner, not a starved single-vCPU container.
    if meta.get("numba") is not None and int(meta.get("cpu_count", 1)) >= 2:
        ratio = backend_speedup(report)
        if ratio is not None and ratio < NUMBA_MIN_INSERT_SPEEDUP:
            problems.append(
                f"numba insert speedup {ratio:.1f}x is below the "
                f"{NUMBA_MIN_INSERT_SPEEDUP:.0f}x floor over numpy"
            )
    if int(meta.get("cpu_count", 1)) >= 2:
        problems.extend(_route_problems(report))
        problems.extend(
            f"gate at doubt {rec['doubt']:.2f} is "
            f"{rec['gate_seconds'] / rec['query_seconds']:.2f}x query plus compare"
            for rec in gates
            if rec["gate_seconds"] > rec["query_seconds"]
        )
    return problems


def _route_problems(report: dict) -> list:
    """Swept batches the shipped ``GEMM_CROSSOVER`` sends to the route that
    timed slower by more than :data:`ROUTE_NOISE`."""
    problems = []
    for rec in report["results"]:
        if rec["op"] != "route":
            continue
        gemm = rec["overlap"] >= pipeline.GEMM_CROSSOVER
        chosen, other = (
            (rec["gemm_seconds"], rec["expand_seconds"])
            if gemm
            else (rec["expand_seconds"], rec["gemm_seconds"])
        )
        if chosen > ROUTE_NOISE * other:
            problems.append(
                f"GEMM_CROSSOVER={pipeline.GEMM_CROSSOVER} sends the "
                f"overlap-{rec['overlap']:.3f} batch to the "
                f"{'gemm' if gemm else 'expand'} route, "
                f"{chosen / other:.2f}x slower than the other"
            )
    return problems


SUITE = register(BenchSuite(name="kernels", run=main, check=_check))


if __name__ == "__main__":
    main()

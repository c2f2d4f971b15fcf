"""The batch-ingest workloads: rows -> ``fit_sparse`` -> ``SketchSnapshot``.

One *pass* builds a fresh write side from the workload's spec, feeds every
row through ``CovarianceSketcher.fit_sparse`` in fixed chunks, and ends in
``SketchSnapshot.from_sketcher``.  A closed loop of in-process reads then
runs against the snapshot through a ``QueryEngine``.  Passes repeat until
the run's time is spent; every pass over the same rows must leave the same
state, bit for bit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import common, inputs as gen
from perfbench.common import Tally
from perfbench.tracing import Tracer, clock, install_layers, layer_metrics, write_spans
from repro.serving.engine import QueryEngine
from repro.serving.snapshot import SketchSnapshot

TOP_INDEX = 1024
READS_PER_PASS = 400
SETUP_REPEATS = 3
WARMUP_S = 2.0


def make_inputs(workload: str, seed: int) -> gen.BatchInputs:
    return gen.ingest_narrow(seed) if workload == "ingest_narrow" else gen.ingest_wide(seed)


def build_spec(data: gen.BatchInputs):
    """The set-up step: resolve the schedule (ASCS pilot) and the spec."""
    if data.name == "ingest_narrow":
        return gen.narrow_spec(data.rows[: data.pilot_rows])
    return gen.wide_spec()


def setup_role(workload: str, seed: int) -> None:
    """Child process of :func:`measure_setup`: report when it was ready."""
    imported = clock()
    data = make_inputs(workload, seed)  # input making is not set-up
    started = clock()
    build_spec(data).build_sketcher()
    print(json.dumps({"imported": imported, "build_s": clock() - started}), flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Cold process to ready to ingest, input generation excluded."""
    run_py = Path(__file__).resolve().parent / "run.py"
    cmd = [sys.executable, str(run_py), "--role", "setup", "--workload", workload,
           "--seed", str(seed)]
    spawned = clock()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return (report["imported"] - spawned) + report["build_s"]


@dataclass
class Pass:
    sketcher: object
    snapshot: SketchSnapshot
    seconds: float  # first row in -> snapshot out
    chunk_latency: list  # seconds per fit_sparse call
    freshness: list  # seconds from a chunk's entry to the snapshot


def one_pass(spec, rows: list, chunk: int) -> Pass:
    sketcher = spec.build_sketcher()
    starts, latency = [], []
    first = clock()
    for c in range(0, len(rows), chunk):
        started = clock()
        sketcher.fit_sparse(rows[c : c + chunk])
        latency.append(clock() - started)
        starts.append(started)
    snapshot = SketchSnapshot.from_sketcher(sketcher, top_index=TOP_INDEX)
    done = clock()
    return Pass(sketcher, snapshot, done - first, latency, [done - s for s in starts])


@dataclass
class Timings:
    """What one measured pass and its read block took, raw, with the host
    speed factors over each (see :class:`common.HostSpeed`)."""

    seconds: float
    chunk_latency: list
    freshness: list
    factor: float
    reads: list
    read_seconds: float
    read_factor: float


def timing_metrics(rows: int, passes: list, scaled: bool) -> dict:
    """The end-to-end timing metrics over ``passes``, scaled or raw."""
    seconds, latency, fresh, reads, read_seconds = [], [], [], [], 0.0
    for t in passes:
        f, rf = (t.factor, t.read_factor) if scaled else (1.0, 1.0)
        seconds.append(t.seconds * f)
        latency += [x * f for x in t.chunk_latency]
        fresh += [x * f for x in t.freshness]
        reads += [x * rf for x in t.reads]
        read_seconds += t.read_seconds * rf
    ms = 1e3
    return {
        "ingest_rows_per_s": common.median([rows / s for s in seconds]),
        "query_p50_ms": common.percentile(reads, 50) * ms,
        "query_p95_ms": common.percentile(reads, 95) * ms,
        "query_per_s": len(reads) / read_seconds,
        "ingest_p50_ms": common.percentile(latency, 50) * ms,
        "ingest_p75_ms": common.percentile(latency, 75) * ms,
        "freshness_p50_ms": common.percentile(fresh, 50) * ms,
        "freshness_p90_ms": common.percentile(fresh, 90) * ms,
    }


def run_reads(snapshot, ops: list, offset: int, count: int, threshold: float,
              tally: Tally) -> tuple[list, float, QueryEngine]:
    """Closed loop, one client: ``count`` reads of the mix, in process."""
    engine = QueryEngine(snapshot)
    latency = []
    began = clock()
    for n in range(count):
        op = ops[(offset + n) % len(ops)]
        tally.attempt()
        started = clock()
        try:
            if op.kind == "pair":
                value = engine.query_pair(op.i, op.j)
                ok = np.isfinite(value)
            elif op.kind == "query":
                ok = np.isfinite(engine.query_keys(np.asarray(op.keys))).all()
            elif op.kind == "top":
                ok = engine.top_pairs(gen.TOP_K)[0].size == min(gen.TOP_K, snapshot.index_size)
            else:
                i, _, est = engine.pairs_above(threshold, limit=gen.ABOVE_LIMIT)
                ok = bool((est >= threshold).all())
        except Exception as exc:  # noqa: BLE001 - a failed read is counted
            tally.fail(f"read {op.kind}: {type(exc).__name__}: {exc}")
            continue
        latency.append(clock() - started)
        if not ok:
            tally.fail(f"read {op.kind}: bad answer")
    return latency, clock() - began, engine


def check_pass(result: Pass, reference: Pass | None, data, tally: Tally) -> None:
    """Snapshot answers equal the live estimator's; passes are identical."""
    keys = np.unique(np.concatenate([data.planted[:64], result.snapshot.index_keys[:64]]))
    tally.attempt()
    served = result.snapshot.query_keys(keys)
    live = result.sketcher.estimate_keys(keys)
    if common.repr_mismatches(served, live):
        tally.fail("snapshot.query_keys differs from the live estimator")
    if reference is None:
        return
    tally.attempt()
    if not same_state(result.sketcher, reference.sketcher) or not np.array_equal(
        result.snapshot.index_keys, reference.snapshot.index_keys
    ):
        tally.fail("two passes over the same rows left different state")


def same_state(a, b) -> bool:
    """Sketch counters and tracker pool bit-identical."""
    ea, eb = a.estimator, b.estimator
    if not np.array_equal(ea.sketch.table, eb.sketch.table):
        return False
    if (ea.tracker is None) != (eb.tracker is None):
        return False
    if ea.tracker is not None:
        ka, va = ea.tracker.snapshot()
        kb, vb = eb.tracker.snapshot()
        if not (np.array_equal(ka, kb) and np.array_equal(va, vb)):
            return False
    return (ea.updates_examined, ea.updates_accepted) == (
        eb.updates_examined, eb.updates_accepted
    )


def quality(result: Pass, data) -> float:
    return common.top_f1(result.snapshot.index_keys[: data.planted.size], data.planted)


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    data = make_inputs(workload, seed)
    tally = Tally()
    common.emit("meta", common.run_metadata(workload, seed, seconds, trace))
    setups = [] if trace else [measure_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    spec = build_spec(data)

    # Untimed warm-up: a short prefix pass for first-call costs, then full
    # passes for WARMUP_S.  The first few full passes of a process run up to
    # 30% slower (the allocator and page tables are still growing).
    warm = one_pass(spec, data.rows[: data.warmup_rows], data.chunk)
    warm_until = clock() + WARMUP_S
    while clock() < warm_until:
        warm = one_pass(spec, data.rows, data.chunk)
        run_reads(warm.snapshot, data.reads, 0, READS_PER_PASS, data.above_threshold, Tally())

    if trace:
        return run_traced(data, spec, tally, seconds, seed)

    # Pass and read timings are scaled by the host's speed over the interval
    # they cover (see common.HostSpeed and the README): raw, they spread
    # past their bounds from run to run on a shared host.  The raw figures
    # go on the detail line.
    speed = common.HostSpeed(data.probe)
    reference, passes = None, []
    deadline = clock() + seconds
    while reference is None or clock() < deadline:
        result = one_pass(spec, data.rows, data.chunk)
        factor = speed.factor()
        tally.attempt(len(result.chunk_latency))
        lat, spent, _ = run_reads(
            result.snapshot, data.reads, len(passes) * READS_PER_PASS,
            READS_PER_PASS, data.above_threshold, tally,
        )
        passes.append(Timings(result.seconds, result.chunk_latency, result.freshness,
                              factor, lat, spent, speed.factor()))
        check_pass(result, reference, data, tally)
        if reference is None:
            reference = result

    f1 = quality(reference, data)
    if f1 < 0.5:
        tally.fail(f"top_f1 {f1:.3f} below the 0.5 floor")
    metrics = {
        "setup_s": common.median(setups),
        "top_f1": f1,
        "peak_rss_mb": common.peak_rss_mb(),
        **timing_metrics(len(data.rows), passes, scaled=True),
    }
    common.emit("detail", {
        "passes": len(passes), "pass_seconds": [t.seconds for t in passes],
        "host_probe": data.probe, "host_speed_factors": [t.factor for t in passes],
        "raw": timing_metrics(len(data.rows), passes, scaled=False),
        "rows_per_pass": len(data.rows),
        "reads": sum(len(t.reads) for t in passes),
        "ingest_calls": sum(len(t.chunk_latency) for t in passes),
        "setup_runs": setups,
        "accept_ratio": reference.sketcher.estimator.acceptance_rate,
        "problems": tally.problems,
    })
    common.emit_result(tally=tally, metrics=metrics, units=common.END_TO_END)


def run_traced(data, spec, tally: Tally, seconds: float, seed: int) -> None:
    """Untraced and traced passes over the same rows, alternating until the
    time is spent.  Every traced pass must leave the untraced state; the
    per-layer numbers are those of the traced pass with the median wall
    time (one real pass, so they add up)."""

    def timed_pass(tracer=None):
        began = clock()
        if tracer is None:
            result = one_pass(spec, data.rows, data.chunk)
            run_reads(result.snapshot, data.reads, 0, READS_PER_PASS,
                      data.above_threshold, tally)
            return result, None, clock() - began
        install_layers(tracer)
        try:
            with tracer.span("bench.pass"):
                result = one_pass(spec, data.rows, data.chunk)
            with tracer.span("bench.reads"):
                _, _, engine = run_reads(result.snapshot, data.reads, 0, READS_PER_PASS,
                                         data.above_threshold, tally)
        finally:
            tracer.restore()
        return result, engine, clock() - began

    reference, _, wall = timed_pass()
    plain_walls, traced = [wall], []
    deadline = clock() + seconds
    while not traced or clock() < deadline:
        tracer = Tracer()
        result, engine, wall = timed_pass(tracer)
        check_pass(result, reference, data, tally)
        traced.append((wall, tracer.spans, result, engine))
        plain_walls.append(timed_pass()[2])

    traced.sort(key=lambda t: t[0])
    wall, spans, result, engine = traced[len(traced) // 2]
    write_spans(common.WORK / f"spans-{data.name}-{seed}.json", spans)
    metrics = layer_metrics(spans)
    metrics.update({
        "core.accept_ratio": result.sketcher.estimator.acceptance_rate,
        "serving.cache_hit_ratio": engine.stats()["cache"]["hit_rate"],
        "gen.lag_ms": 0.0,
        "trace.overhead_ratio": wall / common.median(plain_walls),
        "trace.rows": len(data.rows),
    })
    common.emit("detail", {"problems": tally.problems, "traced_passes": len(traced),
                           "untraced_wall_s": plain_walls,
                           "traced_wall_s": [t[0] for t in traced]})
    common.emit_result(tally=tally, metrics=metrics, units=common.PER_LAYER)

"""The live-serving workload: a durable ``ServingEstimator`` behind
``ServingHTTPServer`` in its own process, driven over keep-alive
connections by one reader (closed loop) and one writer (open loop).
"""

from __future__ import annotations

import http.client
import itertools
import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import common, inputs as gen
from perfbench.tracing import (
    Span,
    Tracer,
    clock,
    install_server_layers,
    layer_metrics,
    roots_of,
    write_spans,
)
from repro.hashing.pairs import pair_to_index
from repro.serving.snapshot import SketchSnapshot

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TOP_INDEX = 1024
WARMUP_READS = 20
#: WAL records per checkpoint: two checkpoints in a 20 s run, one in the
#: 10 s traced half, and few slow batches beside the reply stalls.
CHECKPOINT_EVERY = 100
#: Server span ids are shifted past every client span id.
SERVER_SID_BASE = 1 << 40


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def server_role(seed: int, work: Path, trace: bool) -> None:
    """Serve until a line arrives on stdin, then write the exit report."""
    from repro.serving.http import serve_in_background
    from repro.serving.live import ServingEstimator

    serving = ServingEstimator.durable(
        work / "durable",
        gen.serve_spec(),
        durable_options={"checkpoint_every": CHECKPOINT_EVERY},
        top_index=TOP_INDEX,
    )
    serving.refresh()
    server, _ = serve_in_background(serving, ("127.0.0.1", 0))
    tracer, engines = None, []
    if trace:
        tracer = Tracer()
        install_server_layers(tracer, server.RequestHandlerClass, engines)
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.readline()
    server.stop()
    serving.sketcher.close()
    if tracer is not None:
        tracer.restore()
    estimator = serving.sketcher.estimator
    keys, ests = estimator.tracker.snapshot()
    np.savez(work / "state.npz", table=estimator.sketch.table, tracker_keys=keys,
             tracker_estimates=ests)
    hits = sum(e.stats()["cache"]["hits"] for e in engines)
    misses = sum(e.stats()["cache"]["misses"] for e in engines)
    report = {
        "rss_mb": common.peak_rss_mb(),
        "accept_ratio": estimator.acceptance_rate,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "spans": [s.as_list() for s in tracer.spans] if tracer else [],
    }
    (work / "server.json").write_text(json.dumps(report))


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    work: Path
    ready_s: float

    def stop(self) -> dict:
        """Ask the server to exit, wait for it, read its report."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        report = json.loads((self.work / "server.json").read_text())
        with np.load(self.work / "state.npz") as state:
            report["state"] = {k: state[k].copy() for k in state.files}
        return report


def start_server(seed: int, work: Path, trace: bool) -> Server:
    """Spawn a server; ready once ``/health`` reports a served snapshot."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--role", "server",
           "--workload", "serve_mixed", "--seed", str(seed),
           "--work", str(work), "--trace", str(int(trace))]
    spawned = clock()
    with open(work / "server.err", "w") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True)
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before listening: "
                               + (work / "server.err").read_text()[-2000:])
        port = json.loads(line)["port"]
        deadline = time.monotonic() + 60
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/health")
                health = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            if health.get("snapshot_id") is not None:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never served a snapshot")
            time.sleep(0.002)
        return Server(proc, port, work, clock() - spawned)
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One persistent HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def request(self, method: str, path: str, body: bytes | None, rid: int):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        headers = {"X-Request-Id": str(rid)}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, json.loads(data) if data else None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def read_request(op: gen.ReadOp, threshold: float):
    if op.kind == "pair":
        return "GET", f"/pair?i={op.i}&j={op.j}", None
    if op.kind == "query":
        return "POST", "/query", json.dumps({"keys": list(op.keys)}).encode()
    if op.kind == "top":
        return "GET", f"/top?k={gen.TOP_K}", None
    return "GET", f"/above?threshold={threshold!r}&limit={gen.ABOVE_LIMIT}", None


def read_ok(op: gen.ReadOp, payload, threshold: float) -> bool:
    if op.kind == "pair":
        return np.isfinite(payload["estimate"])
    if op.kind == "query":
        return len(payload["estimates"]) == len(op.keys)
    est = payload["estimates"]
    if len(payload["i"]) != len(est) or any(b > a for a, b in zip(est, est[1:])):
        return False
    if op.kind == "top":
        return len(est) <= gen.TOP_K
    return len(est) <= gen.ABOVE_LIMIT and all(e >= threshold for e in est)


@dataclass
class Log(common.Tally):
    """Everything one measured session observed, client side."""

    reads: list = field(default_factory=list)  # seconds
    ingest: list = field(default_factory=list)  # seconds from due time
    freshness: list = field(default_factory=list)  # seconds from due time
    lag: list = field(default_factory=list)  # seconds late vs schedule
    spans: list = field(default_factory=list)  # client Spans
    sent: int = 0  # batches acknowledged
    rows: int = 0
    read_seconds: float = 0.0  # measured span of the read loop
    write_seconds: float = 0.0  # schedule start to the last refresh
    f1: float = 0.0


def reader(conn: Connection, data: gen.ServeInputs, rids, end: float, log: Log) -> float:
    """Closed loop, one client: the next read leaves when the last returned."""
    n = 0
    while clock() < end:
        op = data.reads[n % len(data.reads)]
        n += 1
        method, path, body = read_request(op, data.above_threshold)
        rid = next(rids)
        log.attempt()
        started = clock()
        try:
            status, payload = conn.request(method, path, body, rid)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            log.fail(f"read {op.kind}: {type(exc).__name__}: {exc}")
            continue
        done = clock()
        if status != 200 or not read_ok(op, payload, data.above_threshold):
            log.fail(f"read {op.kind}: status {status}")
            continue
        log.reads.append(done - started)
        log.spans.append(Span(rid, "client.read", started, done, rid=rid))
    return clock()


def writer(conn: Connection, data: gen.ServeInputs, rids, start: float,
           end: float, log: Log) -> float:
    """Open loop: batch ``k`` is due at ``start + k * interval``; a refresh
    follows every ``refresh_every`` batches and once more at the end."""
    pending: list[float] = []
    last_refresh = start

    def call(path: str, body, due: float | None):
        rid = next(rids)
        log.attempt()
        sent = clock()
        if due is not None:
            log.lag.append(max(0.0, sent - due))
        try:
            status, payload = conn.request("POST", path, body, rid)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            log.fail(f"{path}: {type(exc).__name__}: {exc}")
            return None, None
        done = clock()
        log.spans.append(Span(rid, "client.write", sent, done, rid=rid))
        if status != 200:
            log.fail(f"{path}: status {status}")
            return None, None
        return payload, done

    def refresh():
        nonlocal pending, last_refresh
        payload, done = call("/refresh", None, None)
        if payload is not None:
            log.freshness += [done - due for due in pending]
            last_refresh = done
        pending = []

    for k, body in enumerate(data.batch_bodies):
        due = start + k * data.interval_s
        if due >= end:
            break
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        payload, done = call("/ingest", body, due)
        if payload is None:
            continue
        if payload.get("ingested") != len(data.batch_rows[k]):
            log.fail("/ingest acknowledged the wrong row count")
            continue
        log.ingest.append(done - due)
        log.sent += 1
        log.rows += len(data.batch_rows[k])
        pending.append(due)
        if log.sent % data.refresh_every == 0:
            refresh()
    if pending:
        refresh()
    return last_refresh


def replica(data: gen.ServeInputs, sent: int):
    """The same batches through an in-process write side, untraced."""
    sketcher = gen.serve_spec().build_sketcher()
    for rows in data.warmup_rows + data.batch_rows[:sent]:
        sketcher.fit_sparse(rows)
    return sketcher, SketchSnapshot.from_sketcher(sketcher, top_index=TOP_INDEX)


def session(data: gen.ServeInputs, server: Server, seconds: float) -> tuple[Log, dict]:
    """Warm up, measure for ``seconds``, check the answers, stop the server."""
    log = Log()
    rids = itertools.count(1)
    write_conn, read_conn = Connection(server.port), Connection(server.port)
    try:
        # Untimed warm-up over a prefix of the input.
        for body in data.warmup_bodies:
            write_conn.request("POST", "/ingest", body, next(rids))
        write_conn.request("POST", "/refresh", None, next(rids))
        for op in data.reads[:WARMUP_READS]:
            read_conn.request(*read_request(op, data.above_threshold), next(rids))

        start = clock() + 0.01
        end = start + seconds
        out = {}
        threads = [
            threading.Thread(target=lambda: out.__setitem__(
                "read_end", reader(read_conn, data, rids, end, log))),
            threading.Thread(target=lambda: out.__setitem__(
                "write_end", writer(write_conn, data, rids, start, end, log))),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.read_seconds = out["read_end"] - start
        log.write_seconds = out["write_end"] - start

        # Answers over HTTP must equal the in-process snapshot's, repr-exact.
        sketcher, snapshot = replica(data, log.sent)
        k = data.planted.size
        log.attempt(2)
        _, top =write_conn.request("GET", f"/top?k={k}", None, next(rids))
        body = json.dumps({"keys": data.check_keys.tolist()}).encode()
        _, answer = write_conn.request("POST", "/query", body, next(rids))
        ri, rj, rest = snapshot.top_pairs(k)
        if (top["i"] != ri.tolist() or top["j"] != rj.tolist()
                or common.repr_mismatches(top["estimates"], rest)):
            log.fail("/top differs from the in-process snapshot")
        mismatches = common.repr_mismatches(
            answer["estimates"], snapshot.query_keys(data.check_keys))
        if mismatches:
            log.fail(f"/query differs from SketchSnapshot.query_keys at {mismatches} keys")
        i, j = np.asarray(top["i"], dtype=np.int64), np.asarray(top["j"], dtype=np.int64)
        log.f1 = common.top_f1(pair_to_index(i, j, data.dim), data.planted)
    finally:
        write_conn.close()
        read_conn.close()
        report = server.stop()

    # The server's final write side equals the replica's, bit for bit.
    log.attempt()
    state = report["state"]
    keys, ests = sketcher.estimator.tracker.snapshot()
    if not (np.array_equal(state["table"], sketcher.estimator.sketch.table)
            and np.array_equal(state["tracker_keys"], keys)
            and np.array_equal(state["tracker_estimates"], ests)):
        log.fail("server state differs from the in-process replica")
    return log, report


def merged_spans(log: Log, report: dict) -> tuple[list, int]:
    """Client spans plus the server spans of the requests they made, and
    how many server spans had to be clipped.

    A server span is clipped to its client span's interval: the handler can
    still be closing (metrics, admission semaphore, a GIL wait) after the
    client has read the whole reply.
    """
    client = {s.sid: s for s in log.spans}
    spans = list(log.spans)
    for row in report["spans"]:
        span = Span.from_list(row)
        span.sid += SERVER_SID_BASE
        if span.parent is not None:
            span.parent += SERVER_SID_BASE
        elif span.rid in client:
            span.parent = span.rid
        spans.append(span)
    # Warm-up and check requests have no client span: drop their trees.
    root = roots_of(spans)
    kept, clipped = [], 0
    for span in spans:
        top = client.get(root[span.sid])
        if top is None:
            continue
        if span.start < top.start or span.end > top.end:
            clipped += 1
            span.start = min(max(span.start, top.start), top.end)
            span.end = max(min(span.end, top.end), span.start)
        kept.append(span)
    return kept, clipped


def run(seed: int, seconds: float, trace: bool) -> None:
    data = gen.serve_mixed(seed, seconds)
    common.emit("meta", common.run_metadata("serve_mixed", seed, seconds, trace))
    base = common.WORK / f"serve-{seed}-{int(trace)}-{int(time.time() * 1e3)}"
    try:
        if trace:
            run_traced(data, seed, seconds, base)
        else:
            run_plain(data, seed, seconds, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run_plain(data, seed: int, seconds: float, base: Path) -> None:
    setups = []
    for n in range(SETUP_REPEATS):
        server = start_server(seed, base / f"setup{n}", trace=False)
        setups.append(server.ready_s)
        if n < SETUP_REPEATS - 1:
            server.stop()
    log, report = session(data, server, seconds)
    if log.f1 < 0.5:
        log.fail(f"top_f1 {log.f1:.3f} below the 0.5 floor")
    ms = 1e3
    metrics = {
        "setup_s": common.median(setups),
        # The writer's offered rate (an open loop) unless a batch outlasts
        # the period; the cost of /ingest shows in ingest_p50/p75_ms.
        "ingest_rows_per_s": log.rows / log.write_seconds,
        "top_f1": log.f1,
        "peak_rss_mb": report["rss_mb"],
        "query_p50_ms": common.percentile(log.reads, 50) * ms,
        "query_p95_ms": common.percentile(log.reads, 95) * ms,
        "query_per_s": len(log.reads) / log.read_seconds,
        "ingest_p50_ms": common.percentile(log.ingest, 50) * ms,
        "ingest_p75_ms": common.percentile(log.ingest, 75) * ms,
        "freshness_p50_ms": common.percentile(log.freshness, 50) * ms,
        "freshness_p90_ms": common.percentile(log.freshness, 90) * ms,
    }
    common.emit("detail", {
        "reads": len(log.reads), "ingest_batches": log.sent, "rows": log.rows,
        "freshness_samples": len(log.freshness), "setup_runs": setups,
        "max_lag_ms": max(log.lag, default=0.0) * ms, "problems": log.problems,
    })
    common.emit_result(tally=log, metrics=metrics, units=common.END_TO_END)


def run_traced(data, seed: int, seconds: float, base: Path) -> None:
    """Half the time untraced, half traced; per-layer numbers from the
    traced half, whose final state must equal the untraced replica's."""
    half = seconds / 2.0
    plain, _ = session(data, start_server(seed, base / "plain", trace=False), half)
    traced, report = session(data, start_server(seed, base / "traced", trace=True), half)
    spans, clipped = merged_spans(traced, report)
    write_spans(common.WORK / f"spans-serve_mixed-{seed}.json", spans)
    metrics = layer_metrics(spans)
    metrics.update({
        "core.accept_ratio": report["accept_ratio"],
        "serving.cache_hit_ratio": report["cache_hit_ratio"],
        "gen.lag_ms": max(traced.lag, default=0.0) * 1e3,
        # /ingest latency is server work; a read waits on the reply stall
        # timer whatever tracing costs.
        "trace.overhead_ratio": common.median(traced.ingest) / common.median(plain.ingest),
        "trace.rows": traced.rows,
    })
    tally = common.Tally(attempted=plain.attempted + traced.attempted,
                         failed=plain.failed + traced.failed,
                         problems=plain.problems + traced.problems)
    common.emit("detail", {"problems": tally.problems, "reads": len(traced.reads),
                           "batches": traced.sent, "clipped_server_spans": clipped})
    common.emit_result(tally=tally, metrics=metrics, units=common.PER_LAYER)

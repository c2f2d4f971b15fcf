"""Durability-tier benchmark suite: what does crash safety cost, and how
fast is coming back?

Writes ``BENCH_faults.json`` (``BENCH_faults.smoke.json`` in smoke
mode)::

    PYTHONPATH=src python benchmarks/bench_faults.py          # full
    PYTHONPATH=src python benchmarks/run_bench.py --smoke     # CI smoke

* **ingest overhead** — the same deterministic stream through a bare
  sketcher vs a :class:`~repro.durability.DurableSketcher` (WAL append +
  periodic checkpoints), so the write-ahead tax is a number, not a vibe.
* **recovery time** — kill ingestion mid-record at a seeded byte budget
  (:class:`~repro.durability.faults.FaultyFS`), then time the full
  reopen: checkpoint walk-back + load + WAL replay.  Reported alongside
  the replay debt (records past the checkpoint) it had to pay.
* **replay throughput** — recovery from a checkpoint-free journal, i.e.
  pure WAL replay, in records/s and samples/s.
* **checkpoint latency** — one full checkpoint write (state extraction +
  checksummed atomic ``.npz``), the pause a cadence tick inserts.

A deterministic gate always applies: the recovered estimator's table must
be bit-identical to the uninterrupted reference run (the crash-recovery
contract, re-proven on the benchmark workload).  Timing floors — recovery
wall-clock, replay throughput — are hardware-dependent and, like every
other suite, only enforced when the recording machine had
``meta.cpu_count >= 2``.
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
from repro.distributed import ShardSpec
from repro.durability import DurableSketcher
from repro.durability.faults import FaultyFS, SimulatedCrash

REPO_ROOT = Path(__file__).resolve().parent.parent

SEED = 29
DIM = 256

#: CI floors (see _check), enforced only when meta.cpu_count >= 2.
RECOVERY_SECONDS_CEILING = 10.0
REPLAY_RECORDS_PER_S_FLOOR = 50.0
INGEST_OVERHEAD_CEILING = 5.0


def _spec(total_samples: int) -> ShardSpec:
    return ShardSpec(
        dim=DIM,
        total_samples=total_samples,
        num_tables=3,
        num_buckets=1024,
        seed=SEED,
    )


def _batches(num_batches: int, batch_samples: int):
    rng = np.random.default_rng(SEED)
    batches = []
    for _ in range(num_batches):
        batch = []
        for _ in range(batch_samples):
            k = int(rng.integers(3, 9))
            idx = rng.choice(DIM, size=k, replace=False).astype(np.int64)
            val = rng.standard_normal(k)
            batch.append((idx, val))
        batches.append(batch)
    return batches


def _bench_ingest_overhead(spec, batches):
    """Bare sketcher vs durable wrapper over the identical stream, timed
    in pairs (:func:`timing.best_seconds`): every trial builds both fresh,
    the durable one in a directory of its own, and times both."""
    trials = 5
    every = len(batches) // 4  # checkpoint cadence
    scratch = TemporaryDirectory(prefix="bench-faults-")
    durables = []

    def fresh_durable():
        directory = Path(scratch.name) / f"wal-{len(durables)}"
        durables.append(DurableSketcher(directory, spec, checkpoint_every=every))
        return durables[-1]

    def ingest(sketcher):
        for batch in batches:
            sketcher.fit_sparse(batch)

    try:
        bare_seconds, durable_seconds = best_seconds(
            (spec.build_sketcher, ingest),
            (fresh_durable, ingest),
            trials=trials,
            inner=1,
        )
    finally:
        for durable in durables:
            durable.close()
        scratch.cleanup()
    journal = durables[-1].journal
    journal_bytes_per_batch = journal.bytes_written / journal.records_written

    records = [
        {
            "op": "ingest_bare",
            "batches": len(batches),
            "trials": trials,
            "seconds": bare_seconds,
        },
        {
            "op": "ingest_durable",
            "batches": len(batches),
            "trials": trials,
            "seconds": durable_seconds,
            "journal_bytes": round(journal_bytes_per_batch * len(batches)),
            "checkpoints": len(batches) // every,
        },
    ]
    headline = {
        "ingest_overhead": durable_seconds / bare_seconds,
        "journal_bytes_per_batch": journal_bytes_per_batch,
    }
    return records, headline


def _bench_recovery(spec, batches, *, checkpoint_every: int):
    """Crash at a seeded byte budget, then time the recovery reopen."""
    reference = spec.build_sketcher()
    for batch in batches:
        reference.fit_sparse(iter(batch))

    with TemporaryDirectory(prefix="bench-faults-") as scratch:
        directory = Path(scratch) / "wal"
        # Kill ~85% of the way through the journal: recovery pays a
        # checkpoint load plus a realistic replay debt.
        probe = DurableSketcher(
            Path(scratch) / "probe", spec, checkpoint_every=0
        )
        for batch in batches:
            probe.fit_sparse(batch)
        kill_at = int(probe.journal.bytes_written * 0.85)
        probe.close()

        fs = FaultyFS(kill_at_bytes=kill_at)
        durable = DurableSketcher(
            directory, spec, checkpoint_every=checkpoint_every, open_fn=fs
        )
        crashed_at = None
        for index, batch in enumerate(batches):
            try:
                durable.fit_sparse(batch)
            except SimulatedCrash:
                crashed_at = index
                break
        assert crashed_at is not None, "kill budget never fired"

        t0 = time.perf_counter()
        recovered = DurableSketcher(directory, checkpoint_every=checkpoint_every)
        recovery_seconds = time.perf_counter() - t0
        replayed = recovered.replayed_records

        for batch in batches[crashed_at:]:
            recovered.fit_sparse(batch)
        table_identical = bool(
            np.array_equal(
                recovered.estimator.sketch.table,
                reference.estimator.sketch.table,
            )
            and recovered.samples_seen == reference.samples_seen
        )
        recovered.close()

    record = {
        "op": f"recovery_ckpt{checkpoint_every}",
        "kill_at_bytes": kill_at,
        "crashed_at_batch": crashed_at,
        "checkpoint_every": checkpoint_every,
        "recovery_seconds": recovery_seconds,
        "replayed_records": replayed,
        "bit_identical": table_identical,
    }
    return record, recovery_seconds, replayed, table_identical


def _bench_replay_throughput(spec, batches):
    """Checkpoint-free journal: recovery time == pure WAL replay."""
    samples_per_batch = len(batches[0])
    with TemporaryDirectory(prefix="bench-faults-") as scratch:
        directory = Path(scratch) / "wal"
        durable = DurableSketcher(directory, spec, checkpoint_every=0)
        for batch in batches:
            durable.fit_sparse(batch)
        durable.close()

        t0 = time.perf_counter()
        recovered = DurableSketcher(directory, checkpoint_every=0)
        seconds = time.perf_counter() - t0
        replayed = recovered.replayed_records
        recovered.close()

    records_per_s = replayed / seconds if seconds > 0 else float("inf")
    record = {
        "op": "replay_throughput",
        "replayed_records": replayed,
        "seconds": seconds,
        "records_per_s": records_per_s,
        "samples_per_s": records_per_s * samples_per_batch,
    }
    return record, records_per_s


def _bench_checkpoint_latency(spec, batches):
    with TemporaryDirectory(prefix="bench-faults-") as scratch:
        durable = DurableSketcher(
            Path(scratch) / "wal", spec, checkpoint_every=0
        )
        for batch in batches:
            durable.fit_sparse(batch)
        t0 = time.perf_counter()
        path = durable.checkpoint()
        seconds = time.perf_counter() - t0
        size = path.stat().st_size
        durable.close()
    return {
        "op": "checkpoint_write",
        "seconds": seconds,
        "checkpoint_bytes": size,
    }


def run_benchmarks(smoke: bool = False) -> dict:
    num_batches = 64 if smoke else 512
    batch_samples = 8 if smoke else 16
    spec = _spec(total_samples=num_batches * batch_samples)
    batches = _batches(num_batches, batch_samples)

    overhead_records, overhead_headline = _bench_ingest_overhead(spec, batches)
    recovery_record, recovery_seconds, replay_debt, identical = _bench_recovery(
        spec, batches, checkpoint_every=max(1, num_batches // 8)
    )
    replay_record, records_per_s = _bench_replay_throughput(spec, batches)
    checkpoint_record = _bench_checkpoint_latency(spec, batches)

    cpu_count = os.cpu_count() or 1
    return {
        "meta": {
            "benchmark": "bench_faults",
            "smoke": smoke,
            "dim": DIM,
            "num_batches": num_batches,
            "batch_samples": batch_samples,
            "seed": SEED,
            "cpu_count": cpu_count,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": (
                "bit-identity of the recovered state is deterministic and "
                "always enforced; recovery-time and replay-throughput "
                "floors apply only when meta.cpu_count >= 2"
            ),
        },
        "headline": {
            **overhead_headline,
            "recovery_seconds": recovery_seconds,
            "recovery_replay_debt": replay_debt,
            "recovered_bit_identical": identical,
            "replay_records_per_s": records_per_s,
            "checkpoint_seconds": checkpoint_record["seconds"],
            "cpu_count": cpu_count,
        },
        "results": (
            overhead_records
            + [recovery_record, replay_record, checkpoint_record]
        ),
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
    write_report(report, out or REPO_ROOT / "BENCH_faults.json")
    return report


def _check(report: dict) -> list:
    """CI gate for the durability suite.

    The bit-identity of crash recovery is deterministic and always
    enforced — a report whose recovered state diverged is a correctness
    regression no hardware excuse covers.  The wall-clock floors
    (recovery time, replay throughput, WAL ingest overhead) gate on the
    recording machine's ``meta.cpu_count`` like every other suite.
    """
    failures = []
    headline = report["headline"]
    if not headline.get("recovered_bit_identical"):
        failures.append(
            "crash recovery diverged from the uninterrupted run — the "
            "checkpoint+replay contract is broken"
        )
    cpu_count = int(report["meta"].get("cpu_count") or 1)
    if cpu_count >= 2:
        if headline["recovery_seconds"] > RECOVERY_SECONDS_CEILING:
            failures.append(
                f"recovery took {headline['recovery_seconds']:.2f}s "
                f"(ceiling {RECOVERY_SECONDS_CEILING}s) for "
                f"{headline['recovery_replay_debt']} replayed record(s)"
            )
        if headline["replay_records_per_s"] < REPLAY_RECORDS_PER_S_FLOOR:
            failures.append(
                f"WAL replay throughput {headline['replay_records_per_s']:.0f} "
                f"records/s fell below the {REPLAY_RECORDS_PER_S_FLOOR:.0f} floor"
            )
        if headline["ingest_overhead"] > INGEST_OVERHEAD_CEILING:
            failures.append(
                f"durable ingest costs {headline['ingest_overhead']:.2f}x "
                f"bare ingest (ceiling {INGEST_OVERHEAD_CEILING}x) — the WAL "
                "append path regressed"
            )
    return failures


SUITE = register(BenchSuite(name="faults", run=main, check=_check))


if __name__ == "__main__":
    main()

"""Crash-recovery property suite: kill the process anywhere, lose nothing.

The durability tier's core claim — *checkpoint + WAL replay is
bit-identical to the uninterrupted run* — is proven here the only way it
can be: by actually killing ingestion at seeded byte offsets
(:class:`~repro.durability.faults.FaultyFS` tears the write that crosses
the budget and raises :class:`SimulatedCrash`), recovering from the bytes
that really landed on disk, resuming the stream, and comparing the final
estimator state array-for-array against a run that never crashed.  The
kill points sweep the whole journal — mid-magic, mid-record-header,
mid-payload — under both float64 and quantized int16 storage.

Alongside the property live the unit contracts it rests on: journal
framing and torn-tail tolerance, WAL gap detection, checkpoint
quarantine-and-fall-back, checkpoint/journal continuity, disk-full
behaviour, and the serving CheckpointManager's walk-back over
hand-truncated snapshot files.
"""

import errno
import hashlib
import os
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.covariance import InvalidBatchError
from repro.distributed import ShardSpec
from repro.distributed.shard import (
    extract_shard_result,
    load_shard_result,
    save_shard_result,
    sketch_shard,
    spec_with,
)
from repro.durability import (
    DurableSketcher,
    IngestJournal,
    IntegrityError,
    journal_end_seq,
    replay_journal,
)
from repro.distributed import shard as shard_module
from repro.durability.faults import (
    FaultyFS,
    Flaky,
    SimulatedCrash,
    flip_byte,
    truncate_file,
)

pytestmark = pytest.mark.faults

SPECS = {
    "float64": ShardSpec(
        dim=48, total_samples=4000, num_tables=3, num_buckets=128, seed=11
    ),
    "int16": ShardSpec(
        dim=48,
        total_samples=4000,
        num_tables=3,
        num_buckets=128,
        seed=11,
        storage="int16",
        quantum=0.25,
    ),
}

#: Byte budgets after which the simulated process dies.  Spread across the
#: journal (records are a few hundred bytes; the full stream is ~8 KiB),
#: so the kills land mid-magic, mid-header and mid-payload of different
#: batches — ten distinct kill points per storage dtype.
KILL_POINTS = (3, 40, 300, 700, 1100, 1700, 2600, 3500, 4800, 6400)


def _batches(spec, *, num_batches=30, batch_samples=4, seed=5):
    """A deterministic stream of sparse ingest batches."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(num_batches):
        batch = []
        for _ in range(batch_samples):
            k = int(rng.integers(2, 6))
            idx = rng.choice(spec.dim, size=k, replace=False).astype(np.int64)
            val = rng.integers(1, 5, size=k).astype(np.float64)
            batch.append((idx, val))
        batches.append(batch)
    return batches


def _state_arrays(sketcher, spec):
    """The full estimator state as named arrays (the bit-identity probe)."""
    result = extract_shard_result(sketcher, spec)
    return {
        "table": result.table,
        "samples_seen": np.asarray(result.samples_seen),
        "updates_examined": np.asarray(result.updates_examined),
        "updates_accepted": np.asarray(result.updates_accepted),
        "tracker_keys": result.tracker_keys,
        "tracker_estimates": result.tracker_estimates,
        "moments_sum": result.moments_sum,
        "moments_sumsq": result.moments_sumsq,
        "moments_count": np.asarray(result.moments_count),
    }


def _assert_bit_identical(left, right, spec, context=""):
    a, b = _state_arrays(left, spec), _state_arrays(right, spec)
    for name in a:
        av, bv = np.asarray(a[name]), np.asarray(b[name])
        assert av.dtype == bv.dtype, f"{context}{name}: dtype diverged"
        np.testing.assert_array_equal(av, bv, err_msg=f"{context}{name}")


# ----------------------------------------------------------------------
# The tentpole property: kill anywhere, recover bit-identically
# ----------------------------------------------------------------------
class TestCrashRecoveryBitIdentity:
    @pytest.mark.parametrize("storage", sorted(SPECS))
    @pytest.mark.parametrize("kill_at", KILL_POINTS)
    def test_kill_point_recovers_bit_identical(self, storage, kill_at, tmp_path):
        spec = SPECS[storage]
        batches = _batches(spec)

        # Reference: the run that never crashes.
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))

        # Crashing run: the journal's writes die at the byte budget.
        fs = FaultyFS(kill_at_bytes=kill_at)
        durable = DurableSketcher(
            tmp_path, spec, checkpoint_every=5, open_fn=fs
        )
        crashed_at = None
        for index, batch in enumerate(batches):
            try:
                durable.fit_sparse(batch)
            except SimulatedCrash:
                crashed_at = index
                break
        assert crashed_at is not None, (
            f"kill budget {kill_at} never fired; the sweep no longer covers "
            "the journal — adjust KILL_POINTS"
        )
        assert fs.crashed
        # The dying process does NOT close anything — recovery must work
        # from whatever bytes the torn write left behind.

        recovered = DurableSketcher(tmp_path, checkpoint_every=5)
        # The crashed batch was never acknowledged (append raised before
        # applying), so the producer resends it, then the rest.
        for batch in batches[crashed_at:]:
            recovered.fit_sparse(batch)
        recovered.close()

        _assert_bit_identical(
            recovered, reference, spec,
            context=f"[storage={storage} kill_at={kill_at}] ",
        )
        assert recovered.samples_seen == reference.samples_seen

    @pytest.mark.parametrize("storage", sorted(SPECS))
    @pytest.mark.parametrize("kill_at", (40, 5000, 20000))
    def test_dense_kill_point_recovers_bit_identical(self, storage, kill_at, tmp_path):
        """Dense rows journal as ``(arange(d), row)`` samples; apply and
        replay send them through the same GEMM route."""
        spec = SPECS[storage]
        rng = np.random.default_rng(kill_at)
        batches = [rng.standard_normal((4, spec.dim)) for _ in range(12)]
        features = np.arange(spec.dim)
        reference = spec.build_sketcher()
        for rows in batches:
            reference.fit_sparse([(features, row) for row in rows])

        fs = FaultyFS(kill_at_bytes=kill_at)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=5, open_fn=fs)
        crashed_at = None
        for index, rows in enumerate(batches):
            try:
                durable.fit_dense(rows)
            except SimulatedCrash:
                crashed_at = index
                break
        assert crashed_at is not None, f"kill budget {kill_at} never fired"

        recovered = DurableSketcher(tmp_path, checkpoint_every=5)
        for rows in batches[crashed_at:]:
            recovered.fit_dense(rows)
        recovered.close()
        _assert_bit_identical(
            recovered,
            reference,
            spec,
            context=f"[dense storage={storage} kill_at={kill_at}] ",
        )
        assert recovered.samples_seen == reference.samples_seen

    @pytest.mark.parametrize("storage", sorted(SPECS))
    def test_double_crash_still_recovers(self, storage, tmp_path):
        """A crash during the *recovered* run must also be recoverable."""
        spec = SPECS[storage]
        batches = _batches(spec)
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))

        position = 0
        for kill_at in (900, 2300):
            fs = FaultyFS(kill_at_bytes=kill_at)
            durable = DurableSketcher(
                tmp_path, spec, checkpoint_every=4, open_fn=fs
            )
            for index in range(position, len(batches)):
                try:
                    durable.fit_sparse(batches[index])
                except SimulatedCrash:
                    position = index
                    break
            else:
                pytest.fail(f"kill budget {kill_at} never fired")

        final = DurableSketcher(tmp_path, checkpoint_every=4)
        for batch in batches[position:]:
            final.fit_sparse(batch)
        final.close()
        _assert_bit_identical(final, reference, spec)

    def test_windowed_recovery_bit_identical(self, tmp_path):
        """The sliding-window write side recovers through the same path."""
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=48)
        from repro.streaming import PaneRing

        reference = PaneRing(spec, num_panes=4, pane_samples=32)
        for batch in batches:
            reference.fit_sparse(iter(batch))

        fs = FaultyFS(kill_at_bytes=4000)
        durable = DurableSketcher(
            tmp_path, spec, num_panes=4, pane_samples=32,
            checkpoint_every=5, open_fn=fs,
        )
        crashed_at = None
        for index, batch in enumerate(batches):
            try:
                durable.fit_sparse(batch)
            except SimulatedCrash:
                crashed_at = index
                break
        assert crashed_at is not None

        recovered = DurableSketcher(tmp_path, checkpoint_every=5)
        assert recovered.windowed
        for batch in batches[crashed_at:]:
            recovered.fit_sparse(batch)
        recovered.close()
        assert recovered.samples_seen == reference.samples_seen
        assert recovered.window_span == reference.window_span
        left, right = recovered.panes(), reference.panes()
        assert len(left) == len(right)
        for lp, rp in zip(left, right):
            assert (lp.start, lp.num_samples) == (rp.start, rp.num_samples)
            np.testing.assert_array_equal(lp.table, rp.table)
        np.testing.assert_array_equal(
            recovered.window().estimator.sketch.table,
            reference.window().estimator.sketch.table,
        )

    def test_recovery_is_cold_start_safe(self, tmp_path):
        """Crash before the first checkpoint: recovery replays from zero."""
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=6)
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        fs = FaultyFS(kill_at_bytes=700)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=0, open_fn=fs)
        crashed_at = None
        for index, batch in enumerate(batches):
            try:
                durable.fit_sparse(batch)
            except SimulatedCrash:
                crashed_at = index
                break
        assert crashed_at is not None
        recovered = DurableSketcher(tmp_path)
        assert recovered.recovered_from is None  # no checkpoint existed
        assert recovered.replayed_records == crashed_at
        for batch in batches[crashed_at:]:
            recovered.fit_sparse(batch)
        recovered.close()
        _assert_bit_identical(recovered, reference, spec)


# ----------------------------------------------------------------------
# Journal unit contracts
# ----------------------------------------------------------------------
class TestIngestJournal:
    def _batch(self, seed=0, n=3):
        rng = np.random.default_rng(seed)
        return [
            (
                rng.integers(0, 64, size=4).astype(np.int64),
                rng.standard_normal(4),
            )
            for _ in range(n)
        ]

    def test_round_trip_preserves_batches(self, tmp_path):
        batches = [self._batch(seed) for seed in range(7)]
        with IngestJournal(tmp_path, rotate_every=3) as journal:
            for batch in batches:
                journal.append(batch)
        replayed = list(replay_journal(tmp_path))
        assert [seq for seq, _ in replayed] == list(range(7))
        for (_, got), want in zip(replayed, batches):
            assert len(got) == len(want)
            for (gi, gv), (wi, wv) in zip(got, want):
                np.testing.assert_array_equal(gi, wi)
                np.testing.assert_array_equal(gv, wv)

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        with IngestJournal(tmp_path, rotate_every=100) as journal:
            for seed in range(5):
                journal.append(self._batch(seed))
        (segment,) = journal.segments()
        truncate_file(segment, keep=segment.stat().st_size - 7)
        seqs = [seq for seq, _ in replay_journal(tmp_path)]
        assert seqs == [0, 1, 2, 3]  # the torn record 4 is dropped

    def test_reopen_resumes_after_torn_tail(self, tmp_path):
        with IngestJournal(tmp_path, rotate_every=100) as journal:
            for seed in range(5):
                journal.append(self._batch(seed))
        (segment,) = journal.segments()
        truncate_file(segment, keep=segment.stat().st_size - 7)
        with IngestJournal(tmp_path, rotate_every=100) as journal:
            assert journal.next_seq == 4  # resumes where replay ends
            journal.append(self._batch(99))
        assert journal_end_seq(tmp_path) == 4
        # The re-written seq 4 lives in a fresh segment; replay must not
        # trip over the stale torn segment still covering nothing new.
        assert len(list(replay_journal(tmp_path))) == 5

    def test_gap_between_segments_is_fatal(self, tmp_path):
        journal = IngestJournal(tmp_path, rotate_every=2)
        for seed in range(6):
            journal.append(self._batch(seed))
        journal.close()
        segments = journal.segments()
        assert len(segments) == 3
        segments[1].unlink()  # an acknowledged middle segment vanishes
        with pytest.raises(IntegrityError, match="WAL gap"):
            list(replay_journal(tmp_path))

    def test_corrupt_middle_record_is_fatal(self, tmp_path):
        journal = IngestJournal(tmp_path, rotate_every=2)
        for seed in range(6):
            journal.append(self._batch(seed))
        journal.close()
        segments = journal.segments()
        flip_byte(segments[1], seed=1)  # tears segment 1's valid prefix
        with pytest.raises(IntegrityError, match="WAL gap"):
            list(replay_journal(tmp_path))

    def test_prune_through_keeps_uncovered_segments(self, tmp_path):
        journal = IngestJournal(tmp_path, rotate_every=2)
        for seed in range(6):
            journal.append(self._batch(seed))
        journal.close()
        deleted = journal.prune_through(3)  # covers segments [0,1] and [2,3]
        assert len(deleted) == 2
        assert [seq for seq, _ in replay_journal(tmp_path)] == [4, 5]

    def test_disk_full_append_is_retryable(self, tmp_path):
        fs = FaultyFS(disk_full_at_bytes=400)
        journal = IngestJournal(tmp_path, rotate_every=100, open_fn=fs)
        appended = 0
        with pytest.raises(OSError):
            for seed in range(50):
                journal.append(self._batch(seed))
                appended += 1
        assert fs.disk_full_hits == 1
        fs.heal()  # space freed: the same journal keeps accepting
        journal.append(self._batch(123))
        journal.close()
        # Everything acknowledged (including the post-heal append) replays;
        # the torn ENOSPC record does not.
        assert len(list(replay_journal(tmp_path))) == appended + 1

    def test_crash_closes_writers_and_loses_their_buffers(self, tmp_path):
        fs = FaultyFS(kill_at_bytes=10)
        buffered = fs(tmp_path / "buffered.bin", "wb")
        buffered.write(b"lost")  # still in the process's buffer
        torn = fs(tmp_path / "torn.bin", "wb")
        with pytest.raises(SimulatedCrash):
            torn.write(b"0123456789")
        assert buffered.closed and torn.closed
        assert (tmp_path / "buffered.bin").read_bytes() == b""
        assert (tmp_path / "torn.bin").read_bytes() == b"012345"

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="rotate_every"):
            IngestJournal(tmp_path, rotate_every=0)
        with pytest.raises(ValueError, match="fsync"):
            IngestJournal(tmp_path, fsync="sometimes")
        with pytest.raises(ValueError, match="prefix"):
            IngestJournal(tmp_path, prefix="has-dash")


# ----------------------------------------------------------------------
# DurableSketcher checkpoint discipline
# ----------------------------------------------------------------------
class TestDurableCheckpoints:
    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path, caplog):
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=12)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=4)
        for batch in batches:
            durable.fit_sparse(batch)
        durable.close()
        checkpoints = sorted(tmp_path.glob("ckpt-*.npz"))
        assert len(checkpoints) >= 2
        truncate_file(checkpoints[-1], fraction=0.4)

        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))

        with caplog.at_level("WARNING"):
            recovered = DurableSketcher(tmp_path, checkpoint_every=4)
        recovered.close()
        assert "quarantin" in caplog.text
        assert checkpoints[-1].with_name(
            checkpoints[-1].name + ".corrupt"
        ).exists()
        # Fell back one checkpoint, replayed the WAL suffix: same state.
        _assert_bit_identical(recovered, reference, spec)

    def test_all_checkpoints_corrupt_replays_from_scratch(self, tmp_path):
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=10)
        durable = DurableSketcher(
            tmp_path, spec, checkpoint_every=4, keep_checkpoints=8
        )
        for batch in batches:
            durable.fit_sparse(batch)
        durable.close()
        for path in tmp_path.glob("ckpt-*.npz"):
            # Truncation (unlike a random bit flip, which can land on a
            # semantically dead zip byte) always invalidates the archive.
            truncate_file(path, fraction=0.6)
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        recovered = DurableSketcher(tmp_path)
        recovered.close()
        assert recovered.recovered_from is None
        assert recovered.replayed_records == len(batches)
        _assert_bit_identical(recovered, reference, spec)

    def test_checkpoint_journal_gap_refuses_silent_divergence(self, tmp_path):
        spec = SPECS["float64"]
        durable = DurableSketcher(
            tmp_path, spec, checkpoint_every=0, rotate_every=2
        )
        for batch in _batches(spec, num_batches=8):
            durable.fit_sparse(batch)
        durable.close()
        # The WAL's oldest segment vanishes (over-pruned, lost to a bad
        # disk) with no checkpoint bridging the missing records: recovery
        # must refuse rather than silently diverge from record 2 onward.
        segments = sorted(tmp_path.glob("wal-*.wal"))
        assert len(segments) >= 3
        segments[0].unlink()
        with pytest.raises(IntegrityError, match="resumes at"):
            DurableSketcher(tmp_path)

    def test_prune_keeps_wal_for_previous_checkpoint(self, tmp_path):
        """keep_checkpoints=2 must retain the WAL suffix the *older*
        retained checkpoint needs — losing the newest one stays safe."""
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=20)
        durable = DurableSketcher(
            tmp_path, spec, checkpoint_every=4, rotate_every=2
        )
        for batch in batches:
            durable.fit_sparse(batch)
        durable.close()
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        newest = sorted(tmp_path.glob("ckpt-*.npz"))[-1]
        truncate_file(newest, fraction=0.3)
        recovered = DurableSketcher(tmp_path)
        recovered.close()
        _assert_bit_identical(recovered, reference, spec)

    def test_damaged_checkpoint_does_not_fail_a_later_ingest(self, tmp_path):
        """Pruning must not re-read a checkpoint this process wrote: one
        damaged on disk since would fail the ingest that triggers the next
        checkpoint after its batch was applied."""
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=6)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=2)
        for batch in batches[:4]:
            durable.fit_sparse(batch)
        truncate_file(sorted(tmp_path.glob("ckpt-*.npz"))[-1], fraction=0.5)
        for batch in batches[4:]:
            durable.fit_sparse(batch)
        assert durable.samples_seen == 4 * len(batches)
        durable.close()

    def test_damaged_checkpoint_does_not_fail_a_later_http_ingest(self, tmp_path):
        from repro.serving import ServingEstimator
        from repro.serving.http import ServingClient, serve_in_background

        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=6)
        serving = ServingEstimator.durable(
            tmp_path, spec, durable_options={"checkpoint_every": 2}
        )
        server, _thread = serve_in_background(serving)
        try:
            client = ServingClient(server.url, retries=0)
            for batch in batches[:4]:
                client.ingest(batch)
            truncate_file(sorted(tmp_path.glob("ckpt-*.npz"))[-1], fraction=0.5)
            for batch in batches[4:]:
                assert client.ingest(batch)["ingested"] == len(batch)
            assert client.stats()["write_samples_seen"] == 4 * len(batches)
        finally:
            server.stop(timeout=5.0)
            serving.sketcher.close()

    def test_unreadable_oldest_checkpoint_keeps_the_journal(self, tmp_path, caplog):
        """A kept checkpoint this process never read is read back for its
        WAL position; one that fails is quarantined and not counted, and
        the journal stays whole back to the oldest checkpoint that reads."""
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=8)
        options = dict(checkpoint_every=2, keep_checkpoints=3, rotate_every=1)
        durable = DurableSketcher(tmp_path, spec, **options)
        for batch in batches[:6]:
            durable.fit_sparse(batch)
        durable.close()
        reopened = DurableSketcher(tmp_path, **options)
        assert reopened.recovered_from == 2
        truncate_file(tmp_path / "ckpt-00000001.npz", fraction=0.5)
        segments = set(tmp_path.glob("wal-*.wal"))
        with caplog.at_level("WARNING"):
            for batch in batches[6:]:
                reopened.fit_sparse(batch)
        reopened.close()
        assert "quarantining corrupt checkpoint" in caplog.text
        assert (tmp_path / "ckpt-00000001.npz.corrupt").exists()
        assert (tmp_path / "ckpt-00000000.npz").exists()
        assert segments <= set(tmp_path.glob("wal-*.wal"))

    @staticmethod
    def _damage_in_place(path):
        """Flip 64 bytes mid-file and restore the mtime: the size and
        mtime still read as written."""
        st = path.stat()
        with open(path, "r+b") as handle:
            handle.seek(st.st_size // 2 - 32)
            chunk = handle.read(64)
            handle.seek(st.st_size // 2 - 32)
            handle.write(bytes(b ^ 0xFF for b in chunk))
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))

    @pytest.mark.parametrize(
        "storage, damage",
        [pytest.param(s, "truncated", id=s) for s in sorted(SPECS)]
        + [pytest.param(s, "in_place", id=f"{s}-in_place") for s in sorted(SPECS)],
    )
    def test_damaged_checkpoints_never_leave_the_directory_unrecoverable(
        self, storage, damage, tmp_path
    ):
        """The journal is pruned only through a checkpoint that read back:
        a damaged one is quarantined, whether or not its size and mtime
        changed, so the last good checkpoint and the journal it needs
        survive losing the newest one too."""
        spec = SPECS[storage]
        batches = _batches(spec, num_batches=6)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=2, rotate_every=1)
        for batch in batches[:4]:
            durable.fit_sparse(batch)
        newest = sorted(tmp_path.glob("ckpt-*.npz"))[-1]
        if damage == "in_place":
            before = newest.stat()
            self._damage_in_place(newest)
            after = newest.stat()
            assert after.st_size == before.st_size
            assert after.st_mtime_ns == before.st_mtime_ns
        else:
            truncate_file(newest, fraction=0.5)
        for batch in batches[4:]:
            durable.fit_sparse(batch)
        durable.close()
        assert (tmp_path / "ckpt-00000001.npz.corrupt").exists()
        truncate_file(sorted(tmp_path.glob("ckpt-*.npz"))[-1], fraction=0.5)

        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        recovered = DurableSketcher(tmp_path)
        recovered.close()
        assert recovered.recovered_from == 0
        _assert_bit_identical(recovered, reference, spec)

    @staticmethod
    def _fail_next_checkpoint(monkeypatch):
        """Make the next checkpoint write fail as a full disk would."""
        flaky = Flaky(
            shard_module.write_npz,
            exc_factory=lambda: OSError(errno.ENOSPC, "No space left on device"),
        )
        monkeypatch.setattr(shard_module, "write_npz", flaky)
        return flaky

    @pytest.mark.parametrize("storage", sorted(SPECS))
    def test_failed_checkpoint_acknowledges_the_applied_batch(
        self, storage, tmp_path, monkeypatch, caplog
    ):
        """The cadence checkpoint runs after the batch was journalled and
        applied: its failure is logged and counted, not raised, and the
        next batch retries it."""
        spec = SPECS[storage]
        batches = _batches(spec, num_batches=6)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=2)
        for batch in batches[:2]:
            durable.fit_sparse(batch)
        flaky = self._fail_next_checkpoint(monkeypatch)
        durable.fit_sparse(batches[2])
        with caplog.at_level("WARNING"):
            durable.fit_sparse(batches[3])
        assert flaky.faults == 1
        assert "checkpoint of" in caplog.text
        assert durable.samples_seen == 4 * 4
        assert durable.journal.last_seq == 3
        assert durable.checkpoint_seq == 1
        stats = durable.stats()
        assert stats["checkpoint_failures"] == 1
        assert durable.registry.get("repro_ckpt_failures_total").value == 1
        durable.fit_sparse(batches[4])
        assert durable.checkpoint_seq == 4
        assert durable.wal_lag == 0
        durable.fit_sparse(batches[5])
        durable.close()

        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        _assert_bit_identical(durable, reference, spec)
        recovered = DurableSketcher(tmp_path)
        recovered.close()
        _assert_bit_identical(recovered, reference, spec)

    @pytest.mark.parametrize("storage", sorted(SPECS))
    def test_failed_checkpoint_answers_200_over_http(
        self, storage, tmp_path, monkeypatch
    ):
        from repro.serving import ServingEstimator
        from repro.serving.http import ServingClient, serve_in_background

        spec = SPECS[storage]
        batches = _batches(spec, num_batches=6)
        serving = ServingEstimator.durable(
            tmp_path, spec, durable_options={"checkpoint_every": 2}
        )
        server, _thread = serve_in_background(serving)
        try:
            client = ServingClient(server.url, retries=0)
            for batch in batches[:2]:
                client.ingest(batch)
            flaky = self._fail_next_checkpoint(monkeypatch)
            for batch in batches[2:]:
                assert client.ingest(batch)["ingested"] == len(batch)
            assert flaky.faults == 1
            stats = client.stats()
            assert stats["write_samples_seen"] == 4 * len(batches)
            assert stats["durability"]["checkpoint_failures"] == 1
        finally:
            server.stop(timeout=5.0)
            serving.sketcher.close()

    def test_recover_classmethod_requires_recipe(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DurableSketcher.recover(tmp_path / "nowhere")

    def test_spec_mismatch_is_rejected(self, tmp_path):
        spec = SPECS["float64"]
        DurableSketcher(tmp_path, spec).close()
        other = spec_with(spec, seed=999)
        with pytest.raises(ValueError, match="differs from the persisted"):
            DurableSketcher(tmp_path, other)

    @pytest.mark.parametrize(
        "bad",
        [
            {"num_buckets": 0},
            {"batch_size": 0},
            {"storage": "int16", "quantum": float("nan")},
        ],
        ids=["zero-buckets", "zero-batch", "nan-quantum"],
    )
    def test_unbuildable_spec_leaves_directory_unbound(self, bad, tmp_path):
        """A spec that cannot build is refused before ``spec.npz`` exists,
        so the corrected spec still opens the same directory."""
        spec = SPECS["float64"]
        with pytest.raises(ValueError):
            DurableSketcher(tmp_path, spec_with(spec, **bad))
        assert not (tmp_path / "spec.npz").exists()
        batches = _batches(spec, num_batches=3)
        with DurableSketcher(tmp_path, spec) as durable:
            for batch in batches:
                durable.fit_sparse(batch)
        reopened = DurableSketcher(tmp_path, spec)
        reopened.close()
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        _assert_bit_identical(reopened, reference, spec)

    def test_refused_batch_is_not_journalled(self, tmp_path):
        """A malformed batch raises before the WAL holds it, so the
        directory still recovers."""
        self._refuse_then_recover(
            tmp_path, (np.array([3, 9, 3]), np.array([1.0, 2.0, 3.0]))
        )

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_is_not_journalled(self, bad_value, tmp_path):
        self._refuse_then_recover(
            tmp_path, (np.array([3, 9]), np.array([1.0, bad_value]))
        )

    def _refuse_then_recover(self, tmp_path, bad_sample):
        spec = SPECS["float64"]
        batches = _batches(spec, num_batches=4)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=0)
        for batch in batches[:2]:
            durable.fit_sparse(batch)
        bad = batches[2] + [bad_sample]
        with pytest.raises(ValueError):
            durable.fit_sparse(bad)
        durable.fit_sparse(batches[3])
        assert durable.journal.stats()["records_written"] == 3
        durable.close()

        recovered = DurableSketcher(tmp_path)
        recovered.close()
        assert recovered.replayed_records == 3
        reference = spec.build_sketcher()
        for batch in batches[:2] + batches[3:]:
            reference.fit_sparse(iter(batch))
        _assert_bit_identical(recovered, reference, spec)

    @pytest.mark.parametrize("windowed", [False, True], ids=["plain", "windowed"])
    @pytest.mark.parametrize(
        "bad_sample",
        [
            (np.array([3, 9]), np.array([1.0, np.nan])),
            (np.array([3, 9]), np.array([np.inf, 2.0])),
            (np.array([3, 48]), np.array([1.0, 2.0])),
        ],
        ids=["nan", "inf", "index-past-dim"],
    )
    def test_replay_sets_aside_what_an_older_writer_journalled(
        self, windowed, bad_sample, tmp_path, caplog
    ):
        """A WAL written before batches were checked first can hold a
        record today's checks refuse.  Replay keeps a copy of it aside
        and opens, with the state today's writer builds by refusing it."""
        from repro.serving import ServingEstimator
        from repro.streaming import PaneRing

        spec = SPECS["float64"]
        # 12-sample batches, so the window rotates its 32-sample panes.
        batches = _batches(spec, num_batches=4, batch_samples=12)
        geometry = dict(num_panes=3, pane_samples=32) if windowed else {}
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=0, **geometry)
        for batch in batches[:2]:
            durable.fit_sparse(batch)
        # What an older writer did: journal the batch without checking it.
        bad = batches[2] + [bad_sample]
        assert durable.journal.append(bad) == 2
        durable.fit_sparse(batches[3])
        durable.close()

        reference = PaneRing(spec, **geometry) if windowed else spec.build_sketcher()
        for batch in batches[:2] + batches[3:]:
            reference.fit_sparse(iter(batch))

        def assert_matches_reference(sketcher):
            assert sketcher.samples_seen == reference.samples_seen
            if windowed:
                np.testing.assert_array_equal(
                    sketcher.window().estimator.sketch.table,
                    reference.window().estimator.sketch.table,
                )
            else:
                _assert_bit_identical(sketcher, reference, spec)

        with caplog.at_level("WARNING"):
            recovered = DurableSketcher(tmp_path, checkpoint_every=0)
        assert "setting aside WAL record 2" in caplog.text
        assert (recovered.replayed_records, recovered.refused_records) == (4, 1)
        assert recovered.stats()["refused_records"] == 1
        assert_matches_reference(recovered)
        with np.load(tmp_path / "refused-00000002.npz") as kept:
            assert int(kept["seq"]) == 2
            np.testing.assert_array_equal(
                kept["lengths"], [idx.size for idx, _ in bad]
            )
            np.testing.assert_array_equal(
                kept["indices"], np.concatenate([idx for idx, _ in bad])
            )
            np.testing.assert_array_equal(
                kept["values"], np.concatenate([val for _, val in bad])
            )
        # Once a checkpoint covers the record, nothing is set aside again.
        recovered.checkpoint()
        recovered.close()
        serving = ServingEstimator.durable(tmp_path)
        serving.sketcher.close()
        assert serving.sketcher.refused_records == 0
        assert_matches_reference(serving.sketcher)

    def test_serving_ingests_dense_rows_durably(self, tmp_path):
        from repro.serving import ServingEstimator

        spec = SPECS["float64"]
        rows = np.random.default_rng(2).standard_normal((6, spec.dim))
        serving = ServingEstimator.durable(tmp_path, spec)
        serving.ingest_dense(rows)
        serving.sketcher.close()
        reference = spec.build_sketcher()
        reference.fit_sparse([(np.arange(spec.dim), row) for row in rows])
        recovered = DurableSketcher(tmp_path)
        recovered.close()
        assert recovered.samples_seen == 6
        _assert_bit_identical(recovered, reference, spec)

    def test_stats_report_wal_lag(self, tmp_path):
        spec = SPECS["float64"]
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=0)
        for batch in _batches(spec, num_batches=3):
            durable.fit_sparse(batch)
        assert durable.wal_lag == 3
        durable.checkpoint()
        assert durable.wal_lag == 0
        stats = durable.stats()
        assert stats["journal"]["records_written"] == 3
        assert stats["checkpoints"] == 1
        durable.close()


# ----------------------------------------------------------------------
# Serving CheckpointManager walk-back (the satellite regression)
# ----------------------------------------------------------------------
class TestCheckpointManagerWalkBack:
    def _manager(self, tmp_path, snapshots=3):
        from repro.serving import CheckpointManager, SketchSnapshot

        spec = SPECS["float64"]
        sketcher = spec.build_sketcher()
        manager = CheckpointManager(tmp_path, retain=snapshots + 1)
        for seed in range(snapshots):
            for batch in _batches(spec, num_batches=4, seed=seed):
                sketcher.fit_sparse(iter(batch))
            manager.save(SketchSnapshot.from_sketcher(sketcher, top_index=16))
        return manager

    def test_truncated_newest_falls_back_to_previous(self, tmp_path, caplog):
        manager = self._manager(tmp_path)
        paths = manager.checkpoints()
        truncate_file(paths[-1], fraction=0.5)  # hand-truncated newest
        with caplog.at_level("WARNING"):
            snapshot = manager.load_latest()
        assert snapshot is not None
        assert "quarantin" in caplog.text
        # The bad file was renamed aside, not deleted, not served.
        assert not paths[-1].exists()
        assert paths[-1].with_name(paths[-1].name + ".corrupt").exists()

    def test_bit_flipped_newest_falls_back(self, tmp_path):
        manager = self._manager(tmp_path)
        paths = manager.checkpoints()
        flip_byte(paths[-1], seed=7)
        snapshot = manager.load_latest()
        assert snapshot is not None

    def test_every_checkpoint_corrupt_returns_none(self, tmp_path):
        manager = self._manager(tmp_path)
        for path in manager.checkpoints():
            truncate_file(path, fraction=0.3)
        assert manager.load_latest() is None


# ----------------------------------------------------------------------
# Every loader reports a damaged archive as an IntegrityError
# ----------------------------------------------------------------------
def _stream_samples(spec):
    return [sample for batch in _batches(spec, num_batches=4) for sample in batch]


def _sketch_file(tmp_path):
    from repro.sketch.count_sketch import CountSketch
    from repro.sketch.serialization import load_sketch, save_sketch

    sketch = CountSketch(3, 256, seed=3)
    sketch.insert(np.arange(600), np.arange(600, dtype=np.float64))
    path = tmp_path / "sketch.npz"
    save_sketch(sketch, path)
    return path, lambda: load_sketch(path)


def _snapshot_file(tmp_path, **load_options):
    from repro.serving import SketchSnapshot

    sketcher = SPECS["float64"].build_sketcher()
    sketcher.fit_sparse(iter(_stream_samples(SPECS["float64"])))
    path = SketchSnapshot.from_sketcher(sketcher, top_index=16).save(
        tmp_path / "snapshot.npz"
    )
    return path, lambda: SketchSnapshot.load(path, **load_options)


def _shard_file(tmp_path):
    spec = SPECS["float64"]
    path = tmp_path / "shard.npz"
    save_shard_result(sketch_shard(spec, _stream_samples(spec)), path)
    return path, lambda: load_shard_result(path)


def _recipe_file(tmp_path):
    DurableSketcher(tmp_path, SPECS["float64"]).close()
    return tmp_path / "spec.npz", lambda: DurableSketcher(tmp_path)


def _ring_file(pick):
    def build(tmp_path):
        from repro.streaming import PaneRing

        spec = spec_with(SPECS["float64"], batch_size=4)
        ring = PaneRing(spec, num_panes=3, pane_samples=8, retain_raw=True)
        for batch in _batches(spec, num_batches=6):
            ring.fit_sparse(batch)
        directory = tmp_path / "ring"
        ring.save(directory)
        return pick(directory), lambda: PaneRing.load(directory)

    return build


#: loader -> ``build(tmp_path) -> (file it reads, load())``.
LOADERS = {
    "load_sketch": _sketch_file,
    "snapshot": _snapshot_file,
    "snapshot-mmap": lambda tmp: _snapshot_file(tmp, mmap=True),
    "snapshot-mmap-verify-tables": lambda tmp: _snapshot_file(
        tmp, mmap=True, verify_tables=True
    ),
    "shard_result": _shard_file,
    "durable-recipe": _recipe_file,
    "ring-manifest": _ring_file(lambda directory: directory / "ring.npz"),
    "ring-pane": _ring_file(lambda directory: sorted(directory.glob("pane-*"))[0]),
}


def _flip_largest_member(path):
    """Flip one bit mid-way through the stored bytes of the archive's
    largest member (past its zip local header, which a read may ignore)."""
    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda member: member.compress_size)
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", handle.read(4))
    start = info.header_offset + 30 + name_len + extra_len
    flip_byte(path, offset=start + info.compress_size // 2)


class TestEveryLoaderReportsCorruption:
    """A truncated or bit-flipped archive is an IntegrityError naming the
    file, whichever loader reads it — never a zipfile/zlib internal error.
    The flip runs only where the read covers the flipped member: eager
    loads, and mmap loads that verify their tables."""

    @pytest.mark.parametrize(
        "loader, damage",
        [(name, "truncate") for name in LOADERS]
        + [(name, "flip") for name in LOADERS if name != "snapshot-mmap"],
    )
    def test_damaged_archive_raises_integrity_error(self, loader, damage, tmp_path):
        path, load = LOADERS[loader](tmp_path)
        if damage == "truncate":
            truncate_file(path, fraction=0.5)
        else:
            _flip_largest_member(path)
        with pytest.raises(IntegrityError) as excinfo:
            load()
        assert str(path) in str(excinfo.value)


# ----------------------------------------------------------------------
# Validate-then-apply, as properties: a refused batch leaves no trace
# ----------------------------------------------------------------------
#: ASCS (past its exploration phase after a few batches) with a tracker,
#: so the accept counters and the tracker are writer state too.
ASCS_SPEC = spec_with(
    SPECS["float64"],
    method="ascs",
    schedule=(8, 0.01, 0.1, 4000),
    track_top=32,
    batch_size=4,
)


def _set(array, position, value):
    array = array.copy()
    array[position] = value
    return array


#: Ways one sample fails the batch checks; each maps a good
#: ``(indices, values)`` sample to a bad one.
FAULTS = {
    "nan-value": lambda i, v: (i, _set(v, 0, np.nan)),
    "inf-value": lambda i, v: (i, _set(v, -1, np.inf)),
    "minus-inf-value": lambda i, v: (i, _set(v, 0, -np.inf)),
    "index-past-dim": lambda i, v: (_set(i, -1, ASCS_SPEC.dim), v),
    "negative-index": lambda i, v: (_set(i, 0, -1), v),
    "repeated-index": lambda i, v: (_set(i, 1, i[0]), v),
    "misaligned": lambda i, v: (i, v[:-1]),
    "two-dimensional": lambda i, v: (i[None, :], v[None, :]),
}


def _samples(rng, n):
    """``n`` sparse samples of 2-6 distinct indices, in no fixed order."""
    samples = []
    for _ in range(n):
        k = int(rng.integers(2, 7))
        indices = rng.choice(ASCS_SPEC.dim, size=k, replace=False).astype(np.int64)
        samples.append((indices, rng.standard_normal(k)))
    return samples


def _digest(sketcher) -> str:
    """SHA-256 over all writer state: samples seen, moments, sketch table,
    tracker and accept counters (:func:`_state_arrays`)."""
    digest = hashlib.sha256()
    for name, value in _state_arrays(sketcher, ASCS_SPEC).items():
        array = np.ascontiguousarray(value)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestRefusalLeavesNoTrace:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 20),
        fault=st.sampled_from([None, *FAULTS]),
        position=st.integers(0, 19),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_list_applies_whole_or_changes_nothing(self, seed, size, fault, position):
        """A list (an ``/ingest`` body) spanning several batches applies
        completely, exactly as the same samples streamed batch by batch,
        or, with one bad sample anywhere, changes nothing."""
        rng = np.random.default_rng(seed)
        warm = _samples(rng, 12)
        samples = _samples(rng, size)
        sketcher = ASCS_SPEC.build_sketcher()
        sketcher.fit_sparse(warm)
        before = _digest(sketcher)
        if fault is None:
            sketcher.fit_sparse(samples)
            streamed = ASCS_SPEC.build_sketcher()
            streamed.fit_sparse(warm)
            streamed.fit_sparse(iter(samples))
            assert sketcher.samples_seen == len(warm) + size
            assert _digest(sketcher) == _digest(streamed)
        else:
            at = position % size
            samples[at] = FAULTS[fault](*samples[at])
            with pytest.raises(InvalidBatchError):
                sketcher.fit_sparse(samples)
            assert _digest(sketcher) == before

    @given(
        seed=st.integers(0, 2**32 - 1),
        sent_before=st.integers(0, 4),
        sent_after=st.integers(0, 3),
        fault=st.sampled_from(sorted(FAULTS)),
        position=st.integers(0, 5),
        checkpoint_every=st.sampled_from([0, 1, 2]),
    )
    @settings(max_examples=15, deadline=None)
    def test_reopening_after_a_refusal_equals_never_sending_it(
        self, seed, sent_before, sent_after, fault, position, checkpoint_every
    ):
        rng = np.random.default_rng(seed)
        batches = [_samples(rng, 4) for _ in range(sent_before + sent_after)]
        bad = _samples(rng, 6)
        bad[position] = FAULTS[fault](*bad[position])

        def reopened(directory, stream):
            with DurableSketcher(
                directory, ASCS_SPEC, checkpoint_every=checkpoint_every
            ) as durable:
                for batch in stream:
                    if batch is bad:
                        with pytest.raises(InvalidBatchError):
                            durable.fit_sparse(batch)
                    else:
                        durable.fit_sparse(batch)
            with DurableSketcher(directory) as durable:
                return _digest(durable), durable.journal.last_seq

        with tempfile.TemporaryDirectory() as root:
            refused = reopened(
                Path(root, "refused"),
                batches[:sent_before] + [bad] + batches[sent_before:],
            )
            assert refused == reopened(Path(root, "clean"), batches)

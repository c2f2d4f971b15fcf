"""Crash-safe ingestion: checkpoint + write-ahead log around a sketcher.

:class:`DurableSketcher` wraps a write side — a plain
:class:`repro.covariance.CovarianceSketcher` built from a
:class:`repro.distributed.ShardSpec`, or a windowed
:class:`repro.streaming.PaneRing` — and makes it survive process death:

* every ingest call is journalled to an :class:`~repro.durability.journal.
  IngestJournal` *before* it is applied (write-ahead discipline);
* periodic checkpoints persist the full estimator state atomically with
  integrity checksums, each stamped with the WAL position it covers;
* :func:`DurableSketcher.recover` (or simply re-opening the directory)
  loads the newest *valid* checkpoint — quarantining truncated or corrupt
  ones with a logged reason — and replays the journalled batches past it.

Every artifact here is read through
:func:`repro.durability.integrity.read_npz` and the checkpoint walk-back is
:func:`repro.durability.integrity.load_newest`, the same reader and walk
the serving ``CheckpointManager`` uses: a damaged recipe, checkpoint, ring
manifest or pane is always an :class:`IntegrityError` naming the file.

Because ingestion is deterministic at call granularity (``fit_sparse``
batches on a fixed grid and flushes per call; ASCS gates on the sketch
state, no RNG), the recovered state is **bit-identical** to the
uninterrupted run — the property ``tests/test_crash_recovery.py`` proves
at seeded-random kill points under both float64 and int16 storage.

Layout of a durable directory::

    spec.npz            the recipe (ShardSpec + ring geometry) — recovery
                        is self-contained, no constructor args needed
    wal-<seq>.wal       journal segments (see repro.durability.journal)
    ckpt-<n>.npz        checkpoint n: ShardResult + ``wal_seq`` member
    ckpt-<n>.ring/      (windowed mode) the PaneRing state; ckpt-<n>.npz
                        is then a marker written *after* the ring, so a
                        half-written ring is never considered valid
    *.corrupt           quarantined artifacts (renamed, never deleted)
    refused-<seq>.npz   a WAL record replay set aside because it fails
                        the batch checks (see DurableSketcher._replay)

The wrapper quacks like the write side it wraps (``dim`` / ``mode`` /
``samples_seen`` / ``fit_sparse`` / ``estimator`` /
``export_snapshot_state`` pass through), so it slots directly into
:class:`repro.serving.ServingEstimator`; ``fit_dense`` journals dense
rows as sparse samples over every feature.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path

import numpy as np

from repro.covariance.updates import (
    InvalidBatchError,
    dense_rows_as_samples,
    validate_sparse_batch,
)
from repro.distributed.shard import (
    ShardSpec,
    extract_shard_result,
    restore_sketcher,
    save_shard_result,
    shard_result_from_arrays,
    spec_from_arrays,
    spec_to_arrays,
)
from repro.durability.integrity import (
    IntegrityError,
    load_newest,
    quarantine,
    read_npz,
    write_npz,
)
from repro.durability.journal import IngestJournal
from repro.obs.metrics import MetricsRegistry
from repro.streaming.windows import PaneRing

__all__ = ["DurableSketcher"]

logger = logging.getLogger(__name__)

_RECIPE = "spec.npz"
_CKPT_RE = re.compile(r"^ckpt-(?P<id>\d{8})\.npz$")


class DurableSketcher:
    """Checkpoint + WAL wrapper making a sketcher crash-safe.

    Opening a directory that already holds a recipe **recovers** (newest
    valid checkpoint + journal replay); an empty directory **creates**
    (``spec`` required).  All state lives under ``directory``.

    Parameters
    ----------
    directory:
        The durable directory (created if missing).
    spec:
        The :class:`repro.distributed.ShardSpec` recipe.  Required when
        creating; optional (and cross-checked) when recovering.
    num_panes, pane_samples:
        When given at create time, the write side is a sliding-window
        :class:`repro.streaming.PaneRing` with this geometry instead of a
        plain sketcher.  Persisted in the recipe.
    checkpoint_every:
        Auto-checkpoint after this many journalled ingest calls
        (``0`` disables — call :meth:`checkpoint` manually).  Default 64.
    keep_checkpoints:
        Intact checkpoints retained before pruning (older WAL segments
        fully covered by the *oldest retained* checkpoint are pruned with
        them, which is why the default keeps 2: the newest checkpoint can
        be lost to corruption and recovery still has the journal suffix
        the previous one needs).  One damaged on disk is quarantined and
        does not count; the oldest retained one is read back in full before
        the journal is pruned through it.
    fsync, rotate_every, open_fn:
        Passed to :class:`~repro.durability.journal.IngestJournal`
        (``open_fn`` is the fault-injection hook).
    registry:
        The stack's :class:`repro.obs.MetricsRegistry` (a fresh one when
        omitted).  The journal shares it, so WAL append/fsync/rotate
        timings, checkpoint size/duration and replay progress all land in
        one exposition; a :class:`repro.serving.ServingEstimator` wrapping
        this sketcher adopts the same registry automatically.
    """

    def __init__(
        self,
        directory,
        spec: ShardSpec | None = None,
        *,
        num_panes: int | None = None,
        pane_samples: int | None = None,
        retain_raw: bool = False,
        checkpoint_every: int | None = None,
        keep_checkpoints: int | None = None,
        fsync: str = "rotate",
        rotate_every: int = 256,
        open_fn=open,
        registry: MetricsRegistry | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._ckpt_seconds = self.registry.histogram(
            "repro_ckpt_write_seconds",
            "checkpoint persist duration (journal sync + state write + prune)",
        )
        self._ckpt_total = self.registry.counter(
            "repro_ckpt_writes_total", "checkpoints persisted"
        )
        self._ckpt_bytes = self.registry.gauge(
            "repro_ckpt_last_bytes", "size of the newest checkpoint on disk"
        )
        self._replayed_total = self.registry.counter(
            "repro_wal_replayed_records_total",
            "WAL records replayed during recovery",
        )
        self._refused_total = self.registry.counter(
            "repro_wal_refused_records_total",
            "WAL records set aside during recovery: they fail the batch checks",
        )
        self._ckpt_failed_total = self.registry.counter(
            "repro_ckpt_failures_total",
            "cadence checkpoints that failed to persist; the batch that "
            "triggered one stands and the next batch retries it",
        )
        self.refused_records = 0
        self.checkpoint_failures = 0
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        recipe_path = self.directory / _RECIPE
        fresh = None
        if recipe_path.exists():
            self._load_recipe(recipe_path, spec, num_panes, pane_samples)
        else:
            if spec is None:
                raise ValueError(
                    f"{self.directory} holds no {_RECIPE} — pass a ShardSpec "
                    "to create a new durable sketcher"
                )
            if (num_panes is None) != (pane_samples is None):
                raise ValueError(
                    "windowed mode needs both num_panes and pane_samples"
                )
            self.spec = spec
            self.num_panes = num_panes
            self.pane_samples = pane_samples
            self.retain_raw = bool(retain_raw)
            # Build the write side before the recipe exists: a spec that
            # cannot build must not bind the directory to itself.
            fresh = self._fresh_inner()
            self._write_recipe(recipe_path)
        self.windowed = self.num_panes is not None
        self.checkpoint_every = (
            64 if checkpoint_every is None else int(checkpoint_every)
        )
        self.keep_checkpoints = max(
            1, 2 if keep_checkpoints is None else int(keep_checkpoints)
        )

        # --- recover state: newest valid checkpoint, then WAL replay ---
        inner, ckpt_seq, ckpt_id = self._load_latest_checkpoint()
        if inner is not None and self.windowed:
            # A migration commits at the checkpoint-marker write and only
            # then rewrites the recipe: a crash in between leaves a recipe
            # one configuration behind the newest valid checkpoint.  The
            # checkpoint is the committed truth — adopt its spec/geometry
            # and self-heal the recipe, so recovery always lands on
            # exactly one side of the migration, never a hybrid.
            self._adopt_config(inner)
        if inner is None:
            inner = fresh if fresh is not None else self._fresh_inner()
        self._inner = inner
        self.checkpoint_seq = ckpt_seq
        self.recovered_from = ckpt_id
        #: ``(wal_seq, file signature)`` of each checkpoint this process
        #: wrote, recovered from or verified, so pruning re-reads a file
        #: only when it no longer looks as it did then (see _intact).
        self._ckpt_written = {}
        if ckpt_id is not None:
            path = self.directory / f"ckpt-{ckpt_id:08d}.npz"
            self._ckpt_written[ckpt_id] = (ckpt_seq, self._signature(path))
        self._next_ckpt = self._next_checkpoint_id()
        self.journal = IngestJournal(
            self.directory,
            prefix="wal",
            rotate_every=rotate_every,
            fsync=fsync,
            open_fn=open_fn,
            registry=self.registry,
        )
        self.registry.gauge_fn(
            "repro_wal_lag",
            lambda: self.wal_lag,
            "acknowledged WAL records not yet covered by a checkpoint",
        )
        self.replayed_records = self._replay(after=ckpt_seq)
        self._records_since_checkpoint = self.replayed_records
        if self.recovered_from is not None or self.replayed_records:
            logger.info(
                "durable recover %s: checkpoint %s + %d replayed record(s), "
                "samples_seen=%d",
                self.directory,
                self.recovered_from,
                self.replayed_records,
                self._inner.samples_seen,
            )

    # ------------------------------------------------------------------
    # Recipe
    # ------------------------------------------------------------------
    def _write_recipe(self, path: Path) -> None:
        payload = dict(spec_to_arrays(self.spec))
        payload["windowed"] = np.asarray(int(self.num_panes is not None))
        payload["num_panes"] = np.asarray(
            -1 if self.num_panes is None else int(self.num_panes)
        )
        payload["pane_samples"] = np.asarray(
            -1 if self.pane_samples is None else int(self.pane_samples)
        )
        payload["retain_raw"] = np.asarray(int(self.retain_raw))
        write_npz(path, payload)

    def _load_recipe(self, path, spec, num_panes, pane_samples) -> None:
        with read_npz(path) as data:
            recipe_spec = spec_from_arrays(data)
            windowed = bool(int(data["windowed"]))
            recipe_panes = int(data["num_panes"]) if windowed else None
            recipe_samples = int(data["pane_samples"]) if windowed else None
            recipe_retain = bool(int(data.get("retain_raw", 0)))
        if spec is not None and spec != recipe_spec:
            raise ValueError(
                f"{path}: the passed spec differs from the persisted recipe; "
                "a durable directory is bound to its recipe (only migrate() "
                "rewrites it)"
            )
        if num_panes is not None and num_panes != recipe_panes:
            raise ValueError(
                f"{path}: num_panes={num_panes} differs from the persisted "
                f"recipe ({recipe_panes})"
            )
        if pane_samples is not None and pane_samples != recipe_samples:
            raise ValueError(
                f"{path}: pane_samples={pane_samples} differs from the "
                f"persisted recipe ({recipe_samples})"
            )
        self.spec = recipe_spec
        self.num_panes = recipe_panes
        self.pane_samples = recipe_samples
        self.retain_raw = recipe_retain

    def _adopt_config(self, ring: PaneRing) -> None:
        """Align the recipe with a committed checkpoint's configuration."""
        if (
            ring.spec == self.spec
            and ring.num_panes == self.num_panes
            and ring.pane_samples == self.pane_samples
            and ring.retain_raw == self.retain_raw
        ):
            return
        logger.info(
            "%s: committed checkpoint carries a migrated configuration; "
            "adopting it and rewriting the recipe",
            self.directory,
        )
        self.spec = ring.spec
        self.num_panes = ring.num_panes
        self.pane_samples = ring.pane_samples
        self.retain_raw = ring.retain_raw
        self._write_recipe(self.directory / _RECIPE)

    def _fresh_inner(self):
        if self.num_panes is not None:
            return PaneRing(
                self.spec,
                num_panes=self.num_panes,
                pane_samples=self.pane_samples,
                registry=self.registry,
                retain_raw=self.retain_raw,
            )
        return self.spec.build_sketcher()

    @classmethod
    def recover(cls, directory, **kwargs) -> "DurableSketcher":
        """Reopen an existing durable directory (explicit-intent spelling:
        raises if there is nothing to recover)."""
        if not (Path(directory) / _RECIPE).exists():
            raise FileNotFoundError(
                f"{directory} is not a durable directory (no {_RECIPE})"
            )
        return cls(directory, **kwargs)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoints(self) -> list[tuple[int, Path]]:
        out = []
        for path in self.directory.iterdir():
            match = _CKPT_RE.match(path.name)
            if match:
                out.append((int(match.group("id")), path))
        out.sort()
        return out

    def _next_checkpoint_id(self) -> int:
        entries = self._checkpoints()
        return entries[-1][0] + 1 if entries else 0

    def _load_checkpoint(self, path: Path):
        """``(live_write_side, wal_seq, id)`` restored from one checkpoint."""
        ckpt_id = int(_CKPT_RE.match(path.name).group("id"))
        with read_npz(path) as data:
            wal_seq = int(data["wal_seq"])
            if not self.windowed:
                inner = restore_sketcher(shard_result_from_arrays(data))
                return inner, wal_seq, ckpt_id
        ring = PaneRing.load(path.with_suffix(".ring"), registry=self.registry)
        return ring, wal_seq, ckpt_id

    def _load_latest_checkpoint(self):
        """Newest valid checkpoint as ``(live_write_side, wal_seq, id)``.

        Walks the checkpoints newest-first; truncated, bit-flipped or
        half-written ones are quarantined (renamed ``*.corrupt``, with
        their ring directory) with a logged reason and the walk continues —
        the walk-back ``CheckpointManager.load_latest`` shares.  Returns
        ``(None, -1, None)`` when no checkpoint survives.
        """
        found = load_newest(
            [path for _, path in self._checkpoints()],
            self._load_checkpoint,
            lambda path, exc: quarantine(path, exc, path.with_suffix(".ring")),
        )
        return found or (None, -1, None)

    def checkpoint(self) -> Path:
        """Persist the current state; returns the checkpoint path.

        The covered journal suffix is fsynced first, so the checkpoint
        never claims a WAL position the disk does not actually hold.  Old
        checkpoints beyond ``keep_checkpoints`` are pruned, along with the
        journal segments fully covered by the oldest retained checkpoint.
        A write that fails raises here; the cadence checkpoint inside
        :meth:`fit_sparse` logs it instead and retries at the next batch.
        """
        return self._commit(self._inner)

    def migrate(self, spec: ShardSpec, *, num_panes: int | None = None) -> Path:
        """Re-shape the windowed write side crash-safely, keeping history.

        Rebuilds the ring under the new ``spec`` (and optionally a new
        window size) by replaying its retained raw panes
        (:meth:`repro.streaming.PaneRing.rebuild` — requires the sketcher
        to have been created with ``retain_raw=True``), then commits the
        result as a checkpoint.  The write order makes mid-migration
        crashes land on **exactly one side**:

        1. the new ring directory is written first — a crash here leaves
           the old-configuration checkpoint newest, recovery stays on the
           old side and the orphaned ring directory is inert;
        2. the checkpoint **marker** is written atomically — this is the
           commit point: once it exists, recovery loads the new ring;
        3. the recipe is rewritten last — a crash between 2 and 3 is
           healed at recovery by adopting the checkpoint's configuration
           over the stale recipe.

        WAL continuity is unbroken: the migration checkpoint covers the
        journal position at commit, so records ingested after it replay
        into the new configuration on recovery, exactly like any other
        checkpoint.  Returns the marker path.
        """
        if not self.windowed:
            raise ValueError(
                "migrate() needs a windowed durable sketcher "
                "(create with num_panes/pane_samples)"
            )
        return self._commit(
            self._inner.rebuild(spec, num_panes=num_panes, registry=self.registry)
        )

    def _commit(self, inner) -> Path:
        """Checkpoint ``inner`` and make it the write side.

        Syncs the journal, writes the state, then the marker — the commit
        point: a failure before it leaves the previous checkpoint, ring
        and recipe in force.  Only after it does a windowed ``inner``
        with a new configuration (a migration) take over the spec and the
        recipe.  Then the ids advance and old checkpoints are pruned.
        """
        with self._ckpt_seconds.time():
            self.journal.sync()
            wal_seq = self.journal.last_seq
            ckpt_id = self._next_ckpt
            path = self.directory / f"ckpt-{ckpt_id:08d}.npz"
            if self.windowed:
                # Ring first, tiny marker last + atomically (write_npz's
                # tmp + rename): recovery treats a checkpoint as existing
                # only once its marker is complete.
                inner.save(path.with_suffix(".ring"))
                write_npz(
                    path, {"ring": np.asarray(1), "wal_seq": np.asarray(wal_seq)}
                )
                self._adopt_config(inner)
            else:
                result = extract_shard_result(inner, self.spec)
                save_shard_result(result, path, extra={"wal_seq": wal_seq})
            self._inner = inner
            self._ckpt_written[ckpt_id] = (wal_seq, self._signature(path))
            self._next_ckpt = ckpt_id + 1
            self.checkpoint_seq = wal_seq
            self._records_since_checkpoint = 0
            self._prune()
        self._ckpt_total.inc()
        self._ckpt_bytes.set(path.stat().st_size)
        return path

    def _signature(self, path: Path) -> tuple:
        """``(name, size, mtime_ns)`` of each file of one checkpoint: the
        ``.npz`` and, windowed, the files of its ring."""
        files = [path]
        ring = path.with_suffix(".ring")
        if self.windowed and ring.is_dir():
            files += sorted(ring.iterdir())
        signature = []
        for f in files:
            st = f.stat()
            signature.append((f.name, st.st_size, st.st_mtime_ns))
        return tuple(signature)

    def _intact(self, ckpt_id: int, path: Path, *, reread: bool = False) -> int | None:
        """The ``wal_seq`` of a checkpoint that still reads as written, or
        ``None`` after quarantining a damaged one.

        Without ``reread``, a checkpoint whose files have the sizes and
        mtimes recorded when it was written (or recovered from) is trusted
        as is, so damage in place that keeps both goes unseen.  Any other,
        and every one with ``reread``, is read back through
        :func:`read_npz`, every file of it; one that fails is set aside as
        recovery would set it aside.
        """
        known = self._ckpt_written.get(ckpt_id)
        try:
            signature = self._signature(path)
            if not reread and known is not None and known[1] == signature:
                return known[0]
            with read_npz(path) as data:
                wal_seq = int(data["wal_seq"])
            for name, _, _ in signature[1:]:
                with read_npz(path.with_suffix(".ring") / name):
                    pass
        except (IntegrityError, OSError) as exc:
            self._ckpt_written.pop(ckpt_id, None)
            quarantine(path, exc, path.with_suffix(".ring"))
            return None
        self._ckpt_written[ckpt_id] = (wal_seq, signature)
        return wal_seq

    def _prune(self) -> None:
        """Keep the newest ``keep_checkpoints`` intact checkpoints; drop
        the older ones and the journal segments the oldest kept one covers.

        The journal is never pruned through a checkpoint that did not read
        back: the oldest kept one is read in full through :func:`read_npz`
        whatever its size and mtime say, one read per commit, and one that
        fails is quarantined and the next older one takes its place.  The
        newer kept ones count when their files still have the sizes and
        mtimes recorded when they were written (see :meth:`_intact`); one
        truncated, rewritten or replaced since is quarantined and does not
        count.  When no checkpoint reads back as the oldest kept one, the
        journal is left whole.
        """
        checkpoints = self._checkpoints()
        kept, verified = [], False
        for n, (ckpt_id, path) in enumerate(reversed(checkpoints), 1):
            if len(kept) < self.keep_checkpoints:
                oldest = len(kept) == self.keep_checkpoints - 1 or n == len(checkpoints)
                wal_seq = self._intact(ckpt_id, path, reread=oldest)
                if wal_seq is not None:
                    kept.append(wal_seq)
                    verified = oldest
                continue
            self._ckpt_written.pop(ckpt_id, None)
            path.unlink(missing_ok=True)
            ring = path.with_suffix(".ring")
            if ring.exists():
                for pane in ring.iterdir():
                    pane.unlink()
                ring.rmdir()
        if verified and kept[-1] >= 0:
            self.journal.prune_through(kept[-1])

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(self, *, after: int) -> int:
        """Apply journalled records past ``after``; returns the count.

        Enforces continuity between the checkpoint and the journal: the
        first replayed record must be ``after + 1`` — a gap means the WAL
        was pruned past what this checkpoint covers (all newer checkpoints
        were lost), which is unrecoverable without silent divergence.

        A record that fails today's batch checks was journalled by an
        older writer that did not check first (a NaN value, an index past
        ``dim``).  It is set aside instead of applied, so the directory
        still opens: see :meth:`_set_aside`.
        """
        expected = after + 1
        replayed = 0
        for seq, samples in self.journal.records(after=after):
            if seq != expected:
                raise IntegrityError(
                    f"{self.directory}: checkpoint covers WAL record {after} "
                    f"but the journal resumes at {seq} — records "
                    f"{expected}..{seq - 1} were pruned or lost; recovery "
                    "cannot reconstruct the stream bit-identically"
                )
            try:
                # A list is checked whole before any of it is applied.
                self._inner.fit_sparse(samples)
            except InvalidBatchError as exc:
                self._set_aside(seq, samples, exc)
            else:
                self._replayed_total.inc()
            expected = seq + 1
            replayed += 1
        return replayed

    def _set_aside(self, seq: int, samples: list, reason: Exception) -> None:
        """Keep a refused WAL record as ``refused-<seq>.npz`` and log why.

        Nothing of the record reaches the write side, which so holds the
        state today's writer would have built by refusing the batch.  The
        copy outlives the segment, which the next checkpoint prunes.
        """
        path = self.directory / f"refused-{seq:08d}.npz"
        logger.warning(
            "setting aside WAL record %d of %s as %s: %s",
            seq,
            self.directory,
            path.name,
            reason,
        )
        self.refused_records += 1
        self._refused_total.inc()
        write_npz(
            path,
            {
                "seq": np.asarray(seq, dtype=np.int64),
                "reason": np.asarray(str(reason)),
                "lengths": np.asarray([len(i) for i, _ in samples], dtype=np.int64),
                "indices": np.concatenate([i for i, _ in samples]),
                "values": np.concatenate([v for _, v in samples]),
            },
        )

    # ------------------------------------------------------------------
    # Write side (the ServingEstimator duck-type surface)
    # ------------------------------------------------------------------
    def fit_sparse(self, samples) -> "DurableSketcher":
        """Journal one ingest batch, then apply it.

        The batch is materialised (the journal and the estimator both
        consume it), checked, durably appended, and only then fed to the
        wrapped write side — so a crash at any byte leaves either "not
        acknowledged, not applied" (safe to resend) or "acknowledged and
        replayable".  A malformed batch raises ``ValueError`` before the
        journal sees it: a record that cannot apply would fail every later
        recovery.  Empty batches are not journalled.
        """
        batch = samples if isinstance(samples, list) else list(samples)
        if not batch:
            return self
        validate_sparse_batch(batch, self.dim)
        self.journal.append(batch)
        self._inner.fit_sparse(iter(batch))
        self._records_since_checkpoint += 1
        if self.checkpoint_every and (
            self._records_since_checkpoint >= self.checkpoint_every
        ):
            try:
                self.checkpoint()
            except OSError as exc:
                # The batch is journalled and applied: it stands, and a
                # client that saw an error would send it again.  The
                # journal still holds everything since the last good
                # checkpoint, and the next batch retries this one.
                self.checkpoint_failures += 1
                self._ckpt_failed_total.inc()
                logger.warning(
                    "checkpoint of %s failed; the batch stands and the next "
                    "batch retries it: %s",
                    self.directory,
                    exc,
                )
        return self

    def fit_dense(self, batch) -> "DurableSketcher":
        """Journal and apply dense rows as samples over every feature.

        The WAL records sparse batches, so each row is journalled as one
        ``(arange(d), row)`` sample; ``fit_sparse`` then sends the batch
        through one GEMM instead of expanding its pairs.
        """
        return self.fit_sparse(dense_rows_as_samples(batch, self.dim))

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def mode(self) -> str:
        return self.spec.mode

    @property
    def samples_seen(self) -> int:
        return self._inner.samples_seen

    @property
    def estimator(self):
        return self._inner.estimator

    @property
    def wal_lag(self) -> int:
        """Acknowledged WAL records not yet covered by a checkpoint — the
        replay debt a crash right now would incur."""
        return self.journal.last_seq - self.checkpoint_seq

    def __getattr__(self, name):
        # Everything else (export_snapshot_state, window_span, window,
        # rotate, ...) passes through to the wrapped write side.
        if name == "_inner":  # recursion guard during unpickling/partial init
            raise AttributeError(name)
        return getattr(self._inner, name)

    def stats(self) -> dict:
        return {
            "windowed": self.windowed,
            "samples_seen": int(self._inner.samples_seen),
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoints": len(self._checkpoints()),
            "checkpoint_every": self.checkpoint_every,
            "wal_lag": self.wal_lag,
            "replayed_records": self.replayed_records,
            "refused_records": self.refused_records,
            "checkpoint_failures": self.checkpoint_failures,
            "recovered_from": self.recovered_from,
            "journal": self.journal.stats(),
        }

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "DurableSketcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableSketcher({self.directory}, windowed={self.windowed}, "
            f"seen={self._inner.samples_seen}, wal_lag={self.wal_lag})"
        )

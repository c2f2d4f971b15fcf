"""Sliding-window covariance estimation as a ring of mergeable panes.

A sliding window over a count-sketched stream does not need per-sample
eviction: count sketches are linear, so a window is just a **sum of panes**
— contiguous, batch-aligned sub-streams sketched independently.  The ring
keeps the newest ``num_panes`` panes (one open, the rest closed/immutable);
ingestion only ever touches the open pane's ordinary hot path, rotation
closes the open pane into a :class:`repro.distributed.ShardResult`, and the
window estimator is materialised with **one merge pass** over the retained
panes using exactly the merge laws of PR 2
(:func:`repro.distributed.merge_shard_results`): exact counter and moment
summation, tracker-pool union re-queried against the merged sketch, ASCS
schedule position re-derived from the window's sample count.

Because pane boundaries sit on the pipeline's batch grid, the materialised
window is **bit-identical** to a one-shot
:meth:`~repro.covariance.CovarianceSketcher.fit_sparse` over the same
window's batches whenever the partial counter sums are exactly
representable (integer-valued streams; and equal up to float-addition
regrouping otherwise) — the invariant ``tests/test_pane_ring.py`` pins.

Panes persist individually as ``.npz`` files (via
:func:`repro.distributed.save_shard_result`, which serialises the sketch
state through the same kind registry as serving snapshots), so a ring can
checkpoint and resume, or panes can be produced by remote workers and
assembled into windows by a reducer.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence
from itertools import islice
from pathlib import Path

import numpy as np

from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.updates import dense_rows_as_samples, validate_sparse_batch
from repro.distributed.reduce import merge_shard_results
from repro.distributed.shard import (
    ShardResult,
    ShardSpec,
    extract_shard_result,
    restore_sketcher,
    save_shard_result,
    shard_result_from_arrays,
)
from repro.durability.integrity import read_npz, write_npz
from repro.obs.metrics import MetricsRegistry, NullRegistry

__all__ = ["PaneRing"]

_MANIFEST = "ring.npz"


def _pack_raw(chunks: list[list]) -> dict:
    """Flatten a pane's recorded raw chunks into ``.npz``-able arrays.

    Three levels of structure survive the round-trip: per-chunk sample
    counts (the ``fit_sparse`` call boundaries), per-sample nnz, and the
    concatenated indices/values.  Values are stored as float64 — exact for
    the integer-valued and float64 streams the bit-identity law covers.
    """
    idx_parts, val_parts, sample_lens, chunk_lens = [], [], [], []
    for chunk in chunks:
        chunk_lens.append(len(chunk))
        for indices, values in chunk:
            indices = np.asarray(indices, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            sample_lens.append(indices.size)
            idx_parts.append(indices)
            val_parts.append(values)
    return {
        "raw_chunk_lens": np.asarray(chunk_lens, dtype=np.int64),
        "raw_sample_lens": np.asarray(sample_lens, dtype=np.int64),
        "raw_indices": (
            np.concatenate(idx_parts)
            if idx_parts
            else np.zeros(0, dtype=np.int64)
        ),
        "raw_values": (
            np.concatenate(val_parts)
            if val_parts
            else np.zeros(0, dtype=np.float64)
        ),
    }


def _unpack_raw(data) -> list[list]:
    """Rebuild recorded raw chunks from :func:`_pack_raw` members."""
    indices = data["raw_indices"]
    values = data["raw_values"]
    samples = []
    pos = 0
    for n in data["raw_sample_lens"].astype(np.int64).tolist():
        samples.append(
            (indices[pos : pos + n].copy(), values[pos : pos + n].copy())
        )
        pos += n
    chunks = []
    start = 0
    for count in data["raw_chunk_lens"].astype(np.int64).tolist():
        chunks.append(samples[start : start + count])
        start += count
    return chunks


class PaneRing:
    """Bounded ring of mergeable panes — the sliding-window write side.

    Parameters
    ----------
    spec:
        The shared :class:`repro.distributed.ShardSpec` every pane is built
        from (same seed/shape — the mergeability requirement).  ``cs`` and
        ``ascs`` methods are supported, like any sharded run.
    num_panes:
        Window size in panes.  The ring retains the open pane plus the
        ``num_panes - 1`` most recent closed panes; older panes age out of
        the window (the retention policy).
    pane_samples:
        Samples per pane.  Must be a positive multiple of
        ``spec.batch_size`` so pane boundaries sit on the pipeline's batch
        grid — the precondition for the bit-identity law above.
    registry:
        Optional :class:`repro.obs.MetricsRegistry` receiving the ring's
        telemetry: ``repro_pane_rotate_seconds`` /
        ``repro_window_merge_seconds`` histograms plus live gauges over
        rotations, retained panes and window span.  Stack owners pass
        theirs (a durable windowed sketcher shares its registry; so does
        :meth:`repro.serving.ServingEstimator.windowed`); the default is a
        no-op registry.
    retain_raw:
        The **pane retention contract** for migration.  When ``True`` the
        ring additionally keeps, per retained pane, the raw sparse sample
        chunks exactly as they were fed to the open pane's ``fit_sparse``
        — one recorded chunk per call, preserving the call/batch structure
        that pins bit-identity.  Retained raws age out with their pane,
        persist alongside it in :meth:`save` and enable :meth:`rebuild`:
        replaying the window into a sketch built from a *different*
        :class:`ShardSpec` (wider, narrower, requantized), bit-identical
        to fitting that spec over the retained window from scratch.
        Costs O(window nnz) extra memory; off by default.

    Notes
    -----
    ``ingest`` rotates **lazily**: a full open pane is closed only when the
    next sample actually arrives, so after ingesting exactly
    ``num_panes * pane_samples`` samples the window spans all of them.
    Each ``ingest`` call flushes a trailing partial batch (the
    ``fit_sparse`` contract), so feed multiples of ``spec.batch_size`` per
    call when exact batch-grid equivalence with a one-shot fit matters.

    The ring itself quacks like the write side of a
    :class:`~repro.covariance.CovarianceSketcher` (``dim`` / ``mode`` /
    ``samples_seen`` / ``fit_sparse`` / ``estimator``), so it can be handed
    directly to :class:`repro.serving.ServingEstimator` — the windowed
    serving mode.
    """

    def __init__(
        self,
        spec: ShardSpec,
        *,
        num_panes: int,
        pane_samples: int,
        registry: MetricsRegistry | None = None,
        retain_raw: bool = False,
    ):
        if num_panes < 1:
            raise ValueError(f"num_panes must be >= 1, got {num_panes}")
        if pane_samples < 1 or pane_samples % spec.batch_size != 0:
            raise ValueError(
                "pane_samples must be a positive multiple of spec.batch_size "
                f"({spec.batch_size}), got {pane_samples}"
            )
        self.spec = spec
        self.num_panes = int(num_panes)
        self.pane_samples = int(pane_samples)
        self.retain_raw = bool(retain_raw)
        self._closed: deque[ShardResult] = deque(maxlen=self.num_panes - 1)
        # Raw chunks are kept in lockstep with ``_closed`` (same maxlen), so
        # a pane and its raws age out of the window together.
        self._closed_raw: deque[list[list]] = deque(maxlen=self.num_panes - 1)
        self._open_raw: list[list] = []
        self._open = spec.build_sketcher()
        self._open_start = 0
        self._pane_seq = 0
        self.samples_seen = 0
        self.rotations = 0
        self.last_rotate_seconds = 0.0
        self.registry = registry if registry is not None else NullRegistry()
        reg = self.registry
        self._rotate_seconds = reg.histogram(
            "repro_pane_rotate_seconds",
            "open-pane close: shard-state extraction + ring append",
        )
        self._merge_seconds = reg.histogram(
            "repro_window_merge_seconds",
            "window materialisation: one merge pass over retained panes",
        )
        reg.gauge_fn(
            "repro_pane_rotations",
            lambda: self.rotations,
            "panes closed since the ring was created",
        )
        reg.gauge_fn(
            "repro_pane_retained",
            lambda: len(self._closed),
            "closed panes currently inside the window",
        )
        reg.gauge_fn(
            "repro_pane_window_span",
            lambda: self.window_span,
            "samples currently inside the window",
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def mode(self) -> str:
        return self.spec.mode

    def ingest(self, samples) -> int:
        """Stream sparse ``(indices, values)`` samples through the ring.

        Fills the open pane through the ordinary fused ingest path,
        rotating at pane boundaries.  Returns the number of samples
        ingested.
        """
        it = iter(samples)
        total = 0
        while True:
            room = self.pane_samples - self._open.samples_seen
            if room <= 0:
                # Open pane full: rotate lazily, only if more data arrives.
                try:
                    first = next(it)
                except StopIteration:
                    break
                self.rotate()
                chunk = [first]
                chunk.extend(islice(it, self.pane_samples - 1))
            else:
                chunk = list(islice(it, room))
            if not chunk:
                break
            self._open.fit_sparse(iter(chunk))
            if self.retain_raw:
                # One recorded chunk per fit_sparse call: replay must
                # reproduce the exact call structure (each call flushes a
                # trailing partial batch) for bit-identity to hold.
                self._open_raw.append(chunk)
            total += len(chunk)
            self.samples_seen += len(chunk)
        return total

    # Alias so the ring can stand in for a CovarianceSketcher write side
    # (ServingEstimator.ingest_sparse calls fit_sparse).  A sequence is
    # checked whole first, so a bad sample refuses it before any pane
    # fills or rotates, as CovarianceSketcher.fit_sparse refuses it.
    def fit_sparse(self, samples) -> "PaneRing":
        if isinstance(samples, Sequence):
            validate_sparse_batch(samples, self.spec.dim)
        self.ingest(samples)
        return self

    def fit_dense(self, batch) -> "PaneRing":
        """Ingest dense rows as samples that observe every feature.

        The rows are checked whole first, so a bad one refuses them all
        before any pane fills or rotates.
        """
        self.ingest(dense_rows_as_samples(batch, self.spec.dim))
        return self

    def rotate(self) -> ShardResult | None:
        """Close the open pane into an immutable :class:`ShardResult`.

        The closed pane joins the ring (evicting the oldest retained pane
        once ``num_panes - 1`` are held) and a fresh open pane starts at
        the next stream offset.  Rotating an empty open pane is a no-op —
        an empty pane would silently evict a real one from the window.
        """
        if self._open.samples_seen == 0:
            return None
        started = time.perf_counter()
        result = extract_shard_result(
            self._open,
            self.spec,
            shard_index=self._pane_seq,
            num_shards=self.num_panes,
            start=self._open_start,
        )
        self._closed.append(result)
        if self.retain_raw:
            self._closed_raw.append(self._open_raw)
            self._open_raw = []
        self._pane_seq += 1
        self._open_start += result.num_samples
        self._open = self.spec.build_sketcher()
        self.rotations += 1
        self.last_rotate_seconds = time.perf_counter() - started
        self._rotate_seconds.observe(self.last_rotate_seconds)
        return result

    # ------------------------------------------------------------------
    # Window materialisation (the read side)
    # ------------------------------------------------------------------
    def panes(self) -> list[ShardResult]:
        """The retained panes, oldest first, including the open pane's
        current state (extracted on the fly when non-empty)."""
        out = list(self._closed)
        if self._open.samples_seen:
            out.append(
                extract_shard_result(
                    self._open,
                    self.spec,
                    shard_index=self._pane_seq,
                    num_shards=self.num_panes,
                    start=self._open_start,
                )
            )
        return out

    def window(self) -> CovarianceSketcher:
        """Materialise the window estimator with one merge pass.

        Runs :func:`repro.distributed.merge_shard_results` over the
        retained panes — all of PR 2's merge laws apply — and returns a
        queryable pipeline covering exactly the window's samples.  An
        empty ring yields a fresh zero-state pipeline.
        """
        panes = self.panes()
        if not panes:
            return self.spec.build_sketcher()
        with self._merge_seconds.time():
            return merge_shard_results(panes)

    @property
    def estimator(self):
        """The materialised window estimator (for snapshot builders)."""
        return self.window().estimator

    def export_snapshot_state(self, lock=None) -> dict:
        """Snapshot-export hook honouring the serving lock contract.

        :meth:`repro.serving.SketchSnapshot.from_sketcher` calls this when
        present: the per-pane state extraction (counter copies) happens
        under ``lock``, but the expensive merge pass runs on the immutable
        extracted panes **after** release — so a concurrent ingester is
        blocked for a copy, not for the window materialisation.
        """
        if lock is not None:
            with lock:
                panes = self.panes()
        else:
            panes = self.panes()
        if panes:
            with self._merge_seconds.time():
                merged = merge_shard_results(panes).estimator
        else:
            merged = self.spec.build_sketcher().estimator
        return merged.export_snapshot_state()

    @property
    def window_span(self) -> int:
        """Samples currently inside the window."""
        return (
            sum(p.num_samples for p in self._closed) + self._open.samples_seen
        )

    @property
    def window_start(self) -> int:
        """Global stream offset of the oldest sample in the window."""
        if self._closed:
            return self._closed[0].start
        return self._open_start

    # ------------------------------------------------------------------
    # Migration (history-preserving re-sketch)
    # ------------------------------------------------------------------
    def rebuild(
        self,
        spec: ShardSpec,
        *,
        num_panes: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> "PaneRing":
        """Re-ingest the retained window into a ring with a new spec.

        The migration primitive: replays each retained pane's recorded raw
        chunks — one ``fit_sparse`` call per recorded chunk, rotating at
        the original pane boundaries — into a fresh ring built from
        ``spec``.  The result is **bit-identical** to having run the new
        configuration over the retained window from scratch (same chunk
        and pane structure, same seed-derived hashes), while global
        bookkeeping (pane sequence numbers, stream offsets,
        ``samples_seen``, ``rotations``) carries over so merges, staleness
        accounting and downstream WAL continuity are unaffected.

        ``num_panes`` may shrink the window (decay escalation): only the
        newest ``num_panes - 1`` closed panes are replayed.  Requires
        ``retain_raw=True``; the rebuilt ring retains raws too, so it can
        itself migrate later.  ``self`` is left untouched — callers swap
        atomically after the rebuild succeeds (double-buffered migration).
        """
        if not self.retain_raw:
            raise ValueError(
                "rebuild() needs the pane retention contract: construct the "
                "ring with retain_raw=True to record replayable raw panes"
            )
        target_panes = self.num_panes if num_panes is None else int(num_panes)
        ring = PaneRing(
            spec,
            num_panes=target_panes,
            pane_samples=self.pane_samples,
            registry=registry,
            retain_raw=True,
        )
        closed = list(self._closed)
        raws = [list(chunks) for chunks in self._closed_raw]
        drop = len(closed) - max(0, target_panes - 1)
        if drop > 0:
            closed, raws = closed[drop:], raws[drop:]
        if closed:
            ring._open_start = closed[0].start
            ring._pane_seq = closed[0].shard_index
        else:
            ring._open_start = self._open_start
            ring._pane_seq = self._pane_seq
        for pane, chunks in zip(closed, raws):
            for chunk in chunks:
                ring._open.fit_sparse(iter(chunk))
                ring._open_raw.append(chunk)
            if ring._open.samples_seen != pane.num_samples:
                raise RuntimeError(
                    f"pane {pane.shard_index} replay mismatch: recorded raws "
                    f"cover {ring._open.samples_seen} samples, pane holds "
                    f"{pane.num_samples}"
                )
            ring.rotate()
        for chunk in self._open_raw:
            ring._open.fit_sparse(iter(chunk))
            ring._open_raw.append(chunk)
        # Global bookkeeping continues from the source ring: the rebuild is
        # a re-sketch of retained history, not a new stream.
        ring.samples_seen = self.samples_seen
        ring.rotations = self.rotations
        return ring

    # ------------------------------------------------------------------
    # Persistence (.npz panes + manifest, through the kind registry)
    # ------------------------------------------------------------------
    def save(self, directory) -> list[Path]:
        """Persist the ring: one ``pane-<seq>.npz`` per pane + ``ring.npz``.

        The open pane is always written (even empty) so the manifest can
        rebuild a live pipeline; stale pane files from earlier saves are
        pruned.  Returns the written pane paths, oldest first.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        panes = list(self._closed)
        panes.append(
            extract_shard_result(
                self._open,
                self.spec,
                shard_index=self._pane_seq,
                num_shards=self.num_panes,
                start=self._open_start,
            )
        )
        raws: list[list | None] = [None] * len(panes)
        if self.retain_raw:
            raws = [*self._closed_raw, self._open_raw]
        paths = []
        for pane, chunks in zip(panes, raws):
            path = directory / f"pane-{pane.shard_index:08d}.npz"
            extra = _pack_raw(chunks) if chunks is not None else None
            save_shard_result(pane, path, extra=extra)
            paths.append(path)
        # Manifest last, atomically: a crash mid-save leaves either the old
        # manifest (pointing at the old, still-present pane files) or the
        # new one — never a manifest referencing half-written panes.
        write_npz(
            directory / _MANIFEST,
            {
                "num_panes": np.asarray(self.num_panes),
                "pane_samples": np.asarray(self.pane_samples),
                "open_seq": np.asarray(self._pane_seq),
                "closed_seqs": np.asarray(
                    [p.shard_index for p in self._closed], dtype=np.int64
                ),
                "samples_seen": np.asarray(self.samples_seen),
                "rotations": np.asarray(self.rotations),
                "retain_raw": np.asarray(int(self.retain_raw)),
            },
        )
        keep = {path.name for path in paths} | {_MANIFEST}
        for stale in directory.glob("pane-*.npz"):
            if stale.name not in keep:
                stale.unlink()
        return paths

    @classmethod
    def load(cls, directory, *, registry=None) -> "PaneRing":
        """Restore a ring persisted by :meth:`save`.

        Closed panes load as immutable results; the open pane is restored
        to a live pipeline (counters, moments, sampler stats, tracker), so
        ingestion continues where it left off.  ``registry`` rebinds the
        restored ring's telemetry (rotation counts resume from the
        persisted value).
        """
        directory = Path(directory)
        with read_npz(directory / _MANIFEST) as manifest:
            num_panes = int(manifest["num_panes"])
            pane_samples = int(manifest["pane_samples"])
            open_seq = int(manifest["open_seq"])
            closed_seqs = manifest["closed_seqs"].astype(np.int64).tolist()
            samples_seen = int(manifest["samples_seen"])
            rotations = int(manifest["rotations"])
            retain_raw = bool(int(manifest.get("retain_raw", 0)))

        def pane(seq) -> tuple[ShardResult, list[list] | None]:
            with read_npz(directory / f"pane-{seq:08d}.npz") as data:
                raw = _unpack_raw(data) if retain_raw else None
                return shard_result_from_arrays(data), raw

        open_result, open_raw = pane(open_seq)
        ring = cls(
            open_result.spec,
            num_panes=num_panes,
            pane_samples=pane_samples,
            registry=registry,
            retain_raw=retain_raw,
        )
        for seq in closed_seqs:
            result, raw = pane(seq)
            ring._closed.append(result)
            if retain_raw:
                ring._closed_raw.append(raw)
        if retain_raw:
            ring._open_raw = open_raw
        ring._open = restore_sketcher(open_result)
        ring._open_start = open_result.start
        ring._pane_seq = open_seq
        ring.samples_seen = samples_seen
        ring.rotations = rotations
        return ring

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PaneRing(panes={len(self._closed)}+open, "
            f"pane_samples={self.pane_samples}, span={self.window_span}, "
            f"seen={self.samples_seen})"
        )

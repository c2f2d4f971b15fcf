"""Immutable query-optimized snapshots of a fitted sketch estimator.

The write path (:mod:`repro.covariance`, :mod:`repro.distributed`) produces
estimators that keep mutating as the stream flows.  A
:class:`SketchSnapshot` is the read path's unit of state: a frozen,
self-contained copy of everything needed to answer queries —

* the sketch counters (deep-copied and made read-only, so queries against
  the snapshot are bit-identical to ``estimator.estimate`` at the moment it
  was taken and can never observe later ingestion);
* a materialized **top-pair index**: the ``top_index`` best pairs by
  estimate, with their flat keys and ``(i, j)`` coordinates, sorted by
  decreasing rank — ``top_pairs`` and thresholded range queries are pure
  array slices;
* a per-feature **neighbor index** mapping feature ``i`` to its candidate
  correlated partners (both endpoints of every indexed pair), each
  feature's partners sorted by decreasing rank — ``top_neighbors`` is two
  binary searches.

Snapshots persist atomically to single ``.npz`` files (write-temp +
``os.replace``), and :class:`CheckpointManager` keeps a bounded history of
them on disk.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from repro.durability.integrity import load_newest, read_npz, write_npz
from repro.hashing.pairs import index_to_pair, num_pairs, pair_to_index
from repro.sketch.serialization import sketch_from_arrays, sketch_to_arrays
from repro.sketch.topk import scan_top_keys

__all__ = ["SketchSnapshot", "CheckpointManager"]

#: Process-wide monotonically increasing snapshot identity.  Readers use it
#: to tell "which snapshot answered me" apart across atomic swaps.
_SNAPSHOT_IDS = count(1)

#: Pair spaces up to this size are index-built by exact scan; beyond it the
#: estimator's candidate tracker supplies the pool (trillion-scale protocol,
#: same crossover as ``CovarianceSketcher.top_pairs``).
_SCAN_LIMIT = 4_000_000

_SKETCH_PREFIX = "sk_"


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SketchSnapshot:
    """Frozen, query-ready view of a fitted covariance/correlation sketch.

    Build one with :meth:`from_sketcher` (also reachable as
    ``SketchResult.snapshot()`` / ``ShardedFit.snapshot()``), from persisted
    shard files with :meth:`from_shard_results`, or load one with
    :meth:`load`.  All arrays are read-only; the dataclass is frozen; the
    sketch is a read-only deep copy — mutating the live estimator after the
    snapshot is taken can never change an already-taken snapshot.
    """

    dim: int
    mode: str
    method: str
    total_samples: int
    samples_seen: int
    two_sided: bool
    sketch: object
    index_keys: np.ndarray
    index_i: np.ndarray
    index_j: np.ndarray
    index_estimates: np.ndarray
    index_rank: np.ndarray
    nbr_feature: np.ndarray
    nbr_partner: np.ndarray
    nbr_key: np.ndarray
    nbr_estimate: np.ndarray
    index_exact: bool
    snapshot_id: int = field(default_factory=lambda: next(_SNAPSHOT_IDS))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sketcher(
        cls,
        sketcher,
        *,
        top_index: int = 1024,
        scan: bool | None = None,
        chunk: int = 1 << 20,
        lock: "threading.Lock | None" = None,
    ) -> "SketchSnapshot":
        """Snapshot a fitted :class:`repro.covariance.CovarianceSketcher`.

        Parameters
        ----------
        sketcher:
            The live write-side pipeline (any estimator whose sketch
            supports deep copy — all four methods do).
        top_index:
            Size of the materialized top-pair index (bounds ``top_pairs``
            and range queries; ``top_neighbors`` sees both endpoints of
            every indexed pair).
        scan:
            ``True`` ranks the index by querying every pair key (exact;
            small pair spaces), ``False`` uses the estimator's candidate
            tracker.  Default: scan iff ``p <= 4e6``, matching
            ``CovarianceSketcher.top_pairs``.
        chunk:
            Scan chunk size in keys.
        lock:
            Optional lock held only while the estimator state is cloned.
            The expensive index build runs on the clone after release, so a
            concurrent ingester is blocked for the copy, not the scan —
            this is what keeps ``ServingEstimator.refresh`` cheap on the
            write side.  A sketcher that exposes its own
            ``export_snapshot_state(lock=...)`` (a windowed
            :class:`~repro.streaming.PaneRing`, whose pane-merge pass must
            likewise run off-lock) takes over the lock discipline itself.
        """
        exporter = getattr(sketcher, "export_snapshot_state", None)
        if exporter is not None:
            state = exporter(lock=lock)
        elif lock is not None:
            with lock:
                state = sketcher.estimator.export_snapshot_state()
        else:
            state = sketcher.estimator.export_snapshot_state()
        return cls._from_state(
            state,
            dim=sketcher.dim,
            mode=sketcher.mode,
            top_index=top_index,
            scan=scan,
            chunk=chunk,
        )

    @classmethod
    def from_estimator(
        cls,
        estimator,
        dim: int,
        *,
        mode: str = "covariance",
        top_index: int = 1024,
        scan: bool | None = None,
        chunk: int = 1 << 20,
    ) -> "SketchSnapshot":
        """Snapshot a bare estimator (no pipeline) over ``dim`` features."""
        return cls._from_state(
            estimator.export_snapshot_state(),
            dim=int(dim),
            mode=mode,
            top_index=top_index,
            scan=scan,
            chunk=chunk,
        )

    @classmethod
    def from_shard_results(cls, shards, **kwargs) -> "SketchSnapshot":
        """Snapshot directly from merged :class:`repro.distributed.ShardResult`s.

        Runs :func:`repro.distributed.merge_shard_results` (all merge laws
        apply) and snapshots the merged sketcher — the reducer-to-serving
        handoff for shard files persisted by remote workers.
        """
        # Lazy import: repro.distributed builds on repro.core, and serving
        # sits above both.
        from repro.distributed.reduce import merge_shard_results

        return cls.from_sketcher(merge_shard_results(shards), **kwargs)

    @classmethod
    def _from_state(
        cls,
        state: dict,
        *,
        dim: int,
        mode: str,
        top_index: int,
        scan: bool | None,
        chunk: int,
    ) -> "SketchSnapshot":
        sketch = state["sketch"]
        two_sided = bool(state["two_sided"])
        p = num_pairs(dim)
        if scan is None:
            scan = p <= _SCAN_LIMIT
        keys, estimates = _top_keys(
            sketch,
            p,
            int(top_index),
            chunk=chunk,
            two_sided=two_sided,
            scan=scan,
            tracker_keys=state["tracker_keys"],
        )
        return cls._assemble(
            dim=dim,
            mode=mode,
            method=str(state["name"]),
            total_samples=int(state["total_samples"]),
            samples_seen=int(state["samples_seen"]),
            two_sided=two_sided,
            sketch=sketch,
            keys=keys,
            estimates=estimates,
            index_exact=bool(scan),
        )

    @classmethod
    def _assemble(
        cls,
        *,
        dim: int,
        mode: str,
        method: str,
        total_samples: int,
        samples_seen: int,
        two_sided: bool,
        sketch,
        keys: np.ndarray,
        estimates: np.ndarray,
        index_exact: bool,
        snapshot_id: int | None = None,
    ) -> "SketchSnapshot":
        rank = np.abs(estimates) if two_sided else estimates.copy()
        i, j = (
            index_to_pair(keys, dim)
            if keys.size
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        # Neighbor index: both endpoints of every indexed pair, grouped by
        # feature, each feature's partners in decreasing rank order.  One
        # lexsort; lookups are two binary searches on nbr_feature.
        feat = np.concatenate([i, j])
        partner = np.concatenate([j, i])
        pkey = np.concatenate([keys, keys])
        pest = np.concatenate([estimates, estimates])
        prank = np.concatenate([rank, rank])
        order = np.lexsort((np.arange(feat.size), -prank, feat))
        extra = {} if snapshot_id is None else {"snapshot_id": int(snapshot_id)}
        return cls(
            dim=int(dim),
            mode=str(mode),
            method=str(method),
            total_samples=int(total_samples),
            samples_seen=int(samples_seen),
            two_sided=bool(two_sided),
            sketch=sketch,
            index_keys=_readonly(keys),
            index_i=_readonly(i),
            index_j=_readonly(j),
            index_estimates=_readonly(estimates),
            index_rank=_readonly(rank),
            nbr_feature=_readonly(feat[order]),
            nbr_partner=_readonly(partner[order]),
            nbr_key=_readonly(pkey[order]),
            nbr_estimate=_readonly(pest[order]),
            index_exact=bool(index_exact),
            **extra,
        )

    # ------------------------------------------------------------------
    # Queries (bit-identical to estimator.estimate on the frozen state)
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        return num_pairs(self.dim)

    @property
    def index_size(self) -> int:
        return self.index_keys.size

    def query_keys(self, keys) -> np.ndarray:
        """Estimates for flat pair keys — one fused gather.

        Keys are range-checked against the pair space: the hash functions
        would happily bucket any int64, so a key computed with the wrong
        ``dim`` must fail loudly instead of returning plausible junk.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size:
            p = self.num_pairs
            if int(keys.min()) < 0 or int(keys.max()) >= p:
                raise ValueError(f"pair keys must lie in [0, {p})")
        return np.asarray(self.sketch.query(keys), dtype=np.float64)

    def query_pairs(self, i, j) -> np.ndarray:
        """Estimates for explicit ``(i, j)`` pairs (``i < j`` elementwise)."""
        return self.query_keys(pair_to_index(i, j, self.dim))

    def top_pairs(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``k`` best indexed pairs: ``(i, j, estimates)``, rank-desc.

        ``k`` must be ``>= 0`` (``k=0`` returns empty arrays): a negative
        ``k`` is a caller error, not a Python negative slice — before this
        check, ``k=-1`` silently returned all-but-one of the index.
        """
        k = int(k)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        k = min(k, self.index_size)
        return self.index_i[:k], self.index_j[:k], self.index_estimates[:k]

    def top_neighbors(
        self, feature: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature ``i``'s ``k`` best candidate partners: ``(partners, estimates)``.

        Candidates come from the materialized pair index (complete when the
        snapshot was scan-built, tracker-bounded otherwise); estimates are
        the frozen sketch's, so they match ``query_pairs`` bit-for-bit.
        """
        feature = int(feature)
        if not 0 <= feature < self.dim:
            raise ValueError(f"feature must be in [0, {self.dim}), got {feature}")
        k = int(k)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        lo = int(np.searchsorted(self.nbr_feature, feature, side="left"))
        hi = int(np.searchsorted(self.nbr_feature, feature, side="right"))
        hi = min(hi, lo + k)
        return self.nbr_partner[lo:hi].copy(), self.nbr_estimate[lo:hi].copy()

    def pairs_above(
        self, threshold: float, *, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All pairs with rank ``>= threshold``, rank-desc.

        Rank is ``|estimate|`` for two-sided snapshots, the signed estimate
        otherwise.  ``threshold`` must not be NaN (``np.searchsorted``
        comparisons with NaN silently misbehave) and ``limit`` must be
        ``>= 0`` when given.

        Resolution strategy, in order:

        * **Materialized index** when it provably covers the query — the
          index was scan-built (``index_exact``) and either the threshold
          sits above the smallest indexed rank or the whole pair space is
          indexed.  A binary search: O(log index + answer).
        * **Hierarchical descent** when the backing sketch supports
          ``find_heavy`` (method ``"hcs"``) and the threshold is positive:
          the answer is recovered from the sketch alone, over the *full*
          pair space — open-world discovery with no index and no candidate
          enumeration.
        * Otherwise the (possibly tracker-bounded) index slice, the
          historical best-effort answer.
        """
        threshold = float(threshold)
        if math.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
        covered = self.index_exact and (
            (self.index_size > 0 and threshold > float(self.index_rank[-1]))
            or self.index_size == self.num_pairs
        )
        if (
            not covered
            and threshold > 0.0
            and hasattr(self.sketch, "find_heavy")
        ):
            keys, estimates = self.sketch.find_heavy(
                threshold, two_sided=self.two_sided, limit=limit
            )
            if keys.size:
                i, j = index_to_pair(keys, self.dim)
            else:
                i = j = np.empty(0, dtype=np.int64)
            return i, j, estimates
        # index_rank is descending; search its negation.
        n = int(np.searchsorted(-self.index_rank, -threshold, side="right"))
        if limit is not None:
            n = min(n, limit)
        return self.index_i[:n], self.index_j[:n], self.index_estimates[:n]

    def pairs_in_range(
        self, lo: float, hi: float, *, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indexed pairs with ``lo <= rank < hi``, rank-desc.

        Rank is ``|estimate|`` for two-sided snapshots, the signed estimate
        otherwise.  Bounds must be non-NaN with ``lo <= hi``; ``limit``
        must be ``>= 0`` when given.  Unlike :meth:`pairs_above` this stays
        index-backed (a bounded-above band cannot prune a mass descent).
        """
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"range bounds must not be NaN: lo={lo}, hi={hi}")
        if hi < lo:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
        # side='right' on the (negated, ascending) ranks skips entries with
        # rank exactly hi — the half-open [lo, hi) contract.
        start = int(np.searchsorted(-self.index_rank, -hi, side="right"))
        stop = int(np.searchsorted(-self.index_rank, -lo, side="right"))
        if limit is not None:
            stop = min(stop, start + limit)
        return (
            self.index_i[start:stop],
            self.index_j[start:stop],
            self.index_estimates[start:stop],
        )

    # ------------------------------------------------------------------
    # Persistence (atomic .npz)
    # ------------------------------------------------------------------
    def save(self, path, *, compress: bool = False) -> Path:
        """Atomically persist to ``path`` (single ``.npz`` file).

        The payload is written to a temporary file in the target directory
        and ``os.replace``d into place, so a concurrent reader (or a crash)
        sees either the old complete file or the new complete file — never
        a torn write.  Every member is covered by a per-array CRC32 plus a
        manifest digest (:mod:`repro.durability.integrity`), so bit rot or
        a torn copy is *detected at load* instead of served.  The backing
        sketch must be a serialisable kind
        (see :mod:`repro.sketch.serialization`).

        Members are *stored* (uncompressed) by default so :meth:`load`
        can map the counter table zero-copy (``mmap=True``); counter
        tables are high-entropy floats, so deflate buys little anyway.
        Pass ``compress=True`` to trade mmap-ability for size.
        """
        payload = {
            "dim": np.asarray(self.dim),
            "mode": np.asarray(self.mode),
            "method": np.asarray(self.method),
            "total_samples": np.asarray(self.total_samples),
            "samples_seen": np.asarray(self.samples_seen),
            "two_sided": np.asarray(self.two_sided),
            "index_keys": self.index_keys,
            "index_estimates": self.index_estimates,
            "index_exact": np.asarray(self.index_exact),
        }
        for name, array in sketch_to_arrays(self.sketch).items():
            payload[_SKETCH_PREFIX + name] = array
        return write_npz(path, payload, compress=compress)

    @classmethod
    def load(
        cls, path, *, mmap: bool = False, verify_tables: bool = False
    ) -> "SketchSnapshot":
        """Restore a snapshot written by :meth:`save`.

        The sketch is rebuilt (same hashes, exact counters) and re-frozen;
        the indexes are re-derived from the stored key/estimate arrays, so
        every query answers exactly as the original snapshot did.  The
        loaded snapshot gets a fresh ``snapshot_id`` (identity is
        per-process).

        Integrity: every member read is checked against the CRCs recorded
        at save time (:func:`repro.durability.integrity.read_npz`; files
        predating the integrity layer load unverified).  A mismatch raises
        :class:`repro.durability.IntegrityError` naming the file, the
        member and the reason — a corrupted snapshot is never silently
        served.

        With ``mmap=True`` the counter table — by far the bulk of a
        snapshot — is a read-only ``np.memmap`` of the archive member
        instead of a materialized copy: opening costs two header reads
        regardless of snapshot size, pages fault in on first query, and a
        :class:`CheckpointManager` hot-swap never holds two resident
        copies of the counters.  The mapped table is CRC-checked only with
        ``verify_tables=True``.  Requires the default uncompressed save;
        writes through any path hit the read-only-mmap guard
        (:func:`repro.sketch.base.reject_readonly_counters`).
        """
        with read_npz(path, mmap=mmap, verify_tables=verify_tables) as data:
            sketch = sketch_from_arrays(
                {
                    name[len(_SKETCH_PREFIX) :]: array
                    for name, array in data.items()
                    if name.startswith(_SKETCH_PREFIX)
                },
                copy=not mmap,
            )
            if hasattr(sketch, "freeze"):
                sketch.freeze()
            return cls._assemble(
                dim=int(data["dim"]),
                mode=str(data["mode"]),
                method=str(data["method"]),
                total_samples=int(data["total_samples"]),
                samples_seen=int(data["samples_seen"]),
                two_sided=bool(data["two_sided"]),
                sketch=sketch,
                keys=data["index_keys"],
                estimates=data["index_estimates"],
                index_exact=bool(data["index_exact"]),
            )

    def meta(self) -> dict:
        """JSON-ready description (served by the HTTP ``/stats`` endpoint)."""
        return {
            "snapshot_id": self.snapshot_id,
            "dim": self.dim,
            "num_pairs": self.num_pairs,
            "mode": self.mode,
            "method": self.method,
            "total_samples": self.total_samples,
            "samples_seen": self.samples_seen,
            "two_sided": self.two_sided,
            "index_size": int(self.index_size),
            "index_exact": self.index_exact,
            "memory_floats": int(self.sketch.memory_floats),
            "memory_bytes": int(self.sketch.memory_bytes),
        }


def _top_keys(
    sketch,
    p: int,
    k: int,
    *,
    chunk: int,
    two_sided: bool,
    scan: bool,
    tracker_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, estimates)`` of the ``k`` best pairs, rank-desc.

    Rank is ``|estimate|`` when ``two_sided`` (the sidedness the sampling
    rule and tracker already use), the signed estimate otherwise.
    """
    if k < 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    def rank_of(est: np.ndarray) -> np.ndarray:
        return np.abs(est) if two_sided else est

    if not scan:
        keys = np.asarray(tracker_keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        estimates = np.asarray(sketch.query(keys), dtype=np.float64)
        order = np.argsort(-rank_of(estimates), kind="stable")[:k]
        return keys[order].copy(), estimates[order].copy()

    # Exact enumeration: the shared fixed-buffer scan kernel the pipeline's
    # top_pairs also uses, with this snapshot's rank transform.
    return scan_top_keys(
        sketch.query,
        p,
        k,
        chunk=chunk,
        rank_fn=rank_of if two_sided else None,
    )


#: Checkpoint filename shape: ``<prefix>-<sequence>.npz``.
_CKPT_RE = re.compile(r"^(?P<prefix>.+)-(?P<seq>\d{8})\.npz$")


class CheckpointManager:
    """Bounded on-disk history of serving snapshots.

    Every :meth:`save` writes ``<prefix>-<seq>.npz`` (monotonically
    increasing sequence, resumed from whatever is already on disk) through
    the snapshot's atomic write path, then prunes to the newest ``retain``
    files.  A crash between write and prune leaves extra checkpoints, never
    a torn one.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).
    retain:
        How many newest checkpoints to keep (>= 1).
    prefix:
        Filename prefix, for several managed histories in one directory.
    """

    def __init__(self, directory, *, retain: int = 3, prefix: str = "snapshot"):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        if "-" in prefix or "/" in prefix:
            raise ValueError(f"prefix must not contain '-' or '/', got {prefix!r}")
        self.directory = Path(directory)
        self.retain = int(retain)
        self.prefix = prefix
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[int, Path]]:
        out = []
        for path in self.directory.iterdir():
            match = _CKPT_RE.match(path.name)
            if match and match.group("prefix") == self.prefix:
                out.append((int(match.group("seq")), path))
        out.sort()
        return out

    def checkpoints(self) -> list[Path]:
        """Existing checkpoint paths, oldest first."""
        return [path for _, path in self._entries()]

    def latest(self) -> Path | None:
        """Path of the newest checkpoint, or ``None``."""
        entries = self._entries()
        return entries[-1][1] if entries else None

    def save(self, snapshot: SketchSnapshot) -> Path:
        """Persist ``snapshot`` as the next checkpoint and prune old ones."""
        entries = self._entries()
        seq = entries[-1][0] + 1 if entries else 1
        path = self.directory / f"{self.prefix}-{seq:08d}.npz"
        snapshot.save(path)
        for _, old in self._entries()[: -self.retain]:
            old.unlink(missing_ok=True)
        return path

    def load_latest(self, *, mmap: bool = False) -> SketchSnapshot | None:
        """Load the newest *valid* checkpoint, or ``None`` when none loads.

        Walks the history newest-first
        (:func:`repro.durability.integrity.load_newest`): a truncated,
        bit-flipped or otherwise unreadable checkpoint is **quarantined** —
        renamed to ``<name>.corrupt`` with the reason logged — and the walk
        falls back to the next-newest file instead of crashing the serving
        process on one bad artifact.  (A crash mid-``save`` cannot produce
        a torn file — writes are atomic — but bit rot, partial copies and
        full disks can.)

        ``mmap=True`` maps the counter table zero-copy (see
        :meth:`SketchSnapshot.load`) — the hot-swap path a serving process
        uses to roll to a new multi-GB checkpoint without ever holding two
        resident copies.
        """
        return load_newest(
            self.checkpoints(), lambda path: SketchSnapshot.load(path, mmap=mmap)
        )

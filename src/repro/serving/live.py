"""Double-buffered concurrent ingest/serve estimator.

:class:`ServingEstimator` pairs a live write-side
:class:`repro.covariance.CovarianceSketcher` with a read-side
:class:`~repro.serving.QueryEngine` over an immutable snapshot.  Ingestion
keeps mutating the write side under a lock; :meth:`refresh` clones the
write-side state (holding the lock only for the copy), builds the
query-optimized snapshot and engine off-line, and **atomically swaps** the
engine reference.  Readers capture the engine reference once per query, so
every answer comes entirely from one frozen snapshot — a query can never
observe a half-updated sketch, and concurrent swaps only change which
complete snapshot the *next* query sees.

The swap is a single attribute rebind (atomic under CPython); readers never
block writers and writers never block readers except for the brief
state-clone inside :meth:`refresh`.
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np

from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.updates import InvalidBatchError
from repro.durability.breaker import CircuitBreaker
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.serving.engine import QueryEngine
from repro.serving.snapshot import SketchSnapshot

__all__ = ["ServingEstimator"]

logger = logging.getLogger(__name__)


class ServingEstimator:
    """Serve covariance queries while the underlying stream keeps flowing.

    Parameters
    ----------
    sketcher:
        The write-side pipeline (any fitted or fresh
        :class:`CovarianceSketcher`).  Build one from a
        :class:`repro.distributed.ShardSpec` with :meth:`from_spec`.
    top_index:
        Materialized top-pair index size per snapshot.
    scan:
        Index build strategy (see :meth:`SketchSnapshot.from_sketcher`).
    cache_size:
        LRU result-cache capacity of each swapped-in engine (the cache is
        per-snapshot: stale estimates can never outlive their snapshot).
    refresh_every:
        Auto-refresh after this many ingested samples (0 = manual
        :meth:`refresh` only).
    breaker:
        Ingest :class:`~repro.durability.CircuitBreaker` (a default one is
        built when omitted).  After ``failure_threshold`` consecutive
        ingest failures, further ingests are rejected instantly with
        :class:`~repro.durability.CircuitOpenError` (the HTTP layer maps
        it to 503 + ``Retry-After``) until the cooldown's half-open probe
        succeeds — a broken write path fails fast instead of stacking
        request threads behind the write lock.
    registry:
        The stack's :class:`repro.obs.MetricsRegistry`.  Defaults to the
        write side's own registry when it has one (a durable sketcher
        does, so WAL metrics share the exposition), else a fresh one.
        Every swapped-in engine and the default circuit breaker reuse it;
        ``swap_count`` / ``refresh_failures`` and the ``stats()`` /
        ``health()`` payloads are thin views over its instruments.

    Degradation model
    -----------------
    Reads are **stale-but-available**: the served snapshot only ever swaps
    on a *successful* refresh, so a failing or hung refresh leaves the
    last good snapshot serving.  A hung refresh cannot stall ingestion
    either — the auto-refresh trigger skips when a refresh is already in
    flight — and a *failing* auto-refresh marks the estimator
    :attr:`degraded` (with the error recorded) rather than failing the
    ingest that triggered it.  Staleness is observable: :meth:`stats` and
    :meth:`health` report ``stale_samples`` (write-side samples the served
    snapshot has not seen), ``stale_seconds``, the breaker state, and —
    for a durable write side (:class:`repro.durability.DurableSketcher`) —
    the WAL replay lag.

    Notes
    -----
    The write side may also be a streaming estimator from
    :mod:`repro.streaming`: a :class:`~repro.streaming.PaneRing`
    (sliding-window mode — each snapshot materialises the current window
    with one pane-merge pass; build with :meth:`windowed`) or a
    :class:`~repro.streaming.DecayingSketcher` (time-decayed mode).  Both
    are detected by duck typing and surface their ``window_span`` /
    ``decay`` metadata through :meth:`stats`, hence through the HTTP
    ``/stats`` route.
    """

    def __init__(
        self,
        sketcher: CovarianceSketcher,
        *,
        top_index: int = 1024,
        scan: bool | None = None,
        cache_size: int = 8192,
        refresh_every: int = 0,
        breaker: CircuitBreaker | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if refresh_every < 0:
            raise ValueError(f"refresh_every must be >= 0, got {refresh_every}")
        self.sketcher = sketcher
        self.top_index = int(top_index)
        self.scan = scan
        self.cache_size = int(cache_size)
        self.refresh_every = int(refresh_every)
        # One registry per serving stack: adopt the write side's (a durable
        # sketcher carries one so WAL/checkpoint metrics land in the same
        # exposition) or start fresh.  Engines built on every swap reuse it,
        # so latency histograms accumulate across snapshots.  Leaf write
        # sides (a bare PaneRing / DecayingSketcher) default to a no-op
        # registry — never adopt that, or the whole stack goes silent.
        if registry is None:
            adopted = getattr(sketcher, "registry", None)
            if not isinstance(adopted, NullRegistry):
                registry = adopted
        self.registry = registry if registry is not None else MetricsRegistry()
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(registry=self.registry)
        )
        self._write_lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._engine: QueryEngine | None = None
        self._retired: list[QueryEngine] = []
        self.last_swap_seconds = 0.0
        self._samples_at_refresh = 0
        self._last_swap_monotonic: float | None = None
        self.last_refresh_error: str | None = None
        self._degraded = False
        # Streaming write sides (repro.streaming) are duck-typed: a windowed
        # ring exposes window_span, a decaying pipeline exposes decay.
        self._windowed = hasattr(sketcher, "window_span")
        self.last_window_span: int | None = None
        # Migration state (the autoscale loop): the served configuration is
        # versioned, and each committed migration bumps it.  ``probe`` and
        # ``autoscaler`` are attached by :meth:`autoscaled` (or manually);
        # both are optional — a plain serving stack never touches them.
        self.probe = None
        self.autoscaler = None
        self.config_version = 0
        self.migration_count = 0
        self.last_migration_seconds = 0.0
        self.last_migration_trigger: str | None = None
        self.last_migration_reason: str | None = None
        # Registry-backed counters are the single source of truth;
        # `swap_count` / `refresh_failures` stay available as properties so
        # stats()/health() (and existing callers) are thin views over them.
        reg = self.registry
        self._swaps_total = reg.counter(
            "repro_serving_swaps_total", "snapshot engine swaps installed"
        )
        self._refresh_failures_total = reg.counter(
            "repro_serving_refresh_failures_total",
            "failed snapshot refresh attempts",
        )
        self._swap_seconds = reg.histogram(
            "repro_serving_swap_seconds",
            "refresh duration: state clone + index build + engine swap",
        )
        self._ingest_seconds = reg.histogram(
            "repro_serving_ingest_seconds",
            "write-side ingest batch duration (lock wait included)",
        )
        self._migration_seconds = reg.histogram(
            "repro_serving_migration_seconds",
            "live migration duration: window replay + write-side swap",
        )
        reg.gauge_fn(
            "repro_serving_config_version",
            lambda: self.config_version,
            "served configuration version (bumped per committed migration)",
        )
        reg.gauge_fn(
            "repro_serving_stale_samples",
            lambda: self.stale_samples,
            "write-side samples the served snapshot has not seen",
        )
        reg.gauge_fn(
            "repro_serving_stale_seconds",
            lambda: (
                float("nan")
                if self.stale_seconds is None
                else self.stale_seconds
            ),
            "seconds since the served engine was swapped in",
        )
        reg.gauge_fn(
            "repro_serving_degraded",
            lambda: float(self._degraded or self.breaker.state != "closed"),
            "1 while serving stale after a failed refresh or open breaker",
        )
        reg.gauge_fn(
            "repro_serving_write_samples_seen",
            lambda: self.sketcher.samples_seen,
            "samples ingested into the write side",
        )
        reg.gauge_fn(
            "repro_serving_wal_lag",
            lambda: (
                float("nan")
                if getattr(self.sketcher, "wal_lag", None) is None
                else self.sketcher.wal_lag
            ),
            "WAL records past the last checkpoint (NaN when not durable)",
        )

    @classmethod
    def from_spec(cls, spec, **kwargs) -> "ServingEstimator":
        """Build around a fresh estimator from a :class:`ShardSpec`."""
        return cls(spec.build_sketcher(), **kwargs)

    @classmethod
    def windowed(
        cls, spec, *, num_panes: int, pane_samples: int, **kwargs
    ) -> "ServingEstimator":
        """Build a sliding-window serving estimator around a fresh
        :class:`~repro.streaming.PaneRing` (see :mod:`repro.streaming`)."""
        # Lazy import: repro.streaming builds on repro.distributed, which
        # sits beside (not under) the serving read path.
        from repro.streaming import PaneRing

        registry = kwargs.pop("registry", None)
        if registry is None:
            registry = MetricsRegistry()
        retain_raw = kwargs.pop("retain_raw", False)
        return cls(
            PaneRing(
                spec,
                num_panes=num_panes,
                pane_samples=pane_samples,
                registry=registry,
                retain_raw=retain_raw,
            ),
            registry=registry,
            **kwargs,
        )

    @classmethod
    def autoscaled(
        cls,
        spec,
        *,
        num_panes: int,
        pane_samples: int,
        probe=None,
        autoscale_options: dict | None = None,
        **kwargs,
    ) -> "ServingEstimator":
        """A windowed serving estimator that re-plans itself online.

        Builds :meth:`windowed` with the pane retention contract enabled
        (``retain_raw=True`` — the window's raw panes are kept so the
        sketch can be re-shaped without losing history), attaches
        ``probe`` (an :class:`repro.obs.AccuracyProbe`; one is built from
        the spec when omitted) and an :class:`repro.autoscale.AutoScaler`
        driving :meth:`migrate` from the probe's gauges.
        ``autoscale_options`` are passed to the
        :class:`~repro.autoscale.AutoScaler` constructor (``check_every``,
        ``cooldown``, trigger thresholds, ...).
        """
        from repro.autoscale import AutoScaler
        from repro.hashing.pairs import num_pairs
        from repro.obs.probe import AccuracyProbe

        est = cls.windowed(
            spec,
            num_panes=num_panes,
            pane_samples=pane_samples,
            retain_raw=True,
            **kwargs,
        )
        if probe is None:
            probe = AccuracyProbe(
                np.empty(0, dtype=np.int64),
                registry=est.registry,
                key_space=num_pairs(spec.dim),
                seed=spec.seed,
            )
        est.probe = probe
        est.autoscaler = AutoScaler(est, **(autoscale_options or {}))
        return est

    @classmethod
    def durable(cls, directory, spec=None, *, durable_options=None, **kwargs):
        """Build around a crash-safe :class:`repro.durability.DurableSketcher`.

        Opens (or creates) the durable directory — recovery, if needed,
        happens right here — and serves from it: every ingest is
        write-ahead logged and periodically checkpointed, and
        :meth:`stats` / :meth:`health` surface the WAL lag.
        ``durable_options`` are passed to the
        :class:`~repro.durability.DurableSketcher` constructor
        (``checkpoint_every``, ``num_panes``, ``fsync``, ...).
        """
        from repro.durability.durable import DurableSketcher

        return cls(
            DurableSketcher(directory, spec, **(durable_options or {})),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def ingest_sparse(self, samples) -> None:
        """Stream sparse ``(indices, values)`` samples into the write side.

        A list (an ``/ingest`` body) is applied whole or not at all; see
        :meth:`repro.covariance.CovarianceSketcher.fit_sparse`.  Guarded by
        the ingest circuit breaker: while the write path is failing
        repeatedly, calls are rejected instantly with
        :class:`~repro.durability.CircuitOpenError` instead of queueing on
        the write lock.  A batch refused by its checks
        (:class:`~repro.covariance.InvalidBatchError`) is the caller's
        fault and does not count as a write-path failure.
        """
        self.breaker.before_call()
        try:
            with self._ingest_seconds.time(), self._write_lock:
                self.sketcher.fit_sparse(samples)
        except InvalidBatchError:
            self.breaker.record_refusal()
            raise
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        self._maybe_refresh()
        self._maybe_autoscale()

    def ingest_dense(self, batch: np.ndarray) -> None:
        """Stream a dense ``(n, d)`` batch into the write side, under the
        same breaker discipline as :meth:`ingest_sparse`.  Every write side
        takes the rows as samples that observe every feature, so a wrong
        width is a refusal (:class:`~repro.covariance.InvalidBatchError`)."""
        self.breaker.before_call()
        try:
            with self._ingest_seconds.time(), self._write_lock:
                self.sketcher.fit_dense(batch)
        except InvalidBatchError:
            self.breaker.record_refusal()
            raise
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        self._maybe_refresh()
        self._maybe_autoscale()

    def _maybe_autoscale(self) -> None:
        """Give an attached :class:`repro.autoscale.AutoScaler` its tick.

        Runs after the ingest committed and outside every lock (the scaler
        re-enters through :meth:`migrate`, which takes the write lock
        itself).  Scaler errors must never fail the ingest that triggered
        them — they are recorded on the scaler's decision log instead.
        """
        scaler = self.autoscaler
        if scaler is not None:
            scaler.on_ingest()

    def _maybe_refresh(self) -> None:
        if self.refresh_every <= 0:
            return
        if (
            self.sketcher.samples_seen - self._samples_at_refresh
            < self.refresh_every
        ):
            return
        # Non-blocking: if a refresh is already in flight (or hung), the
        # ingest that tripped the threshold must not stall behind it — the
        # last good snapshot keeps serving and a later batch re-triggers.
        if not self._refresh_lock.acquire(blocking=False):
            return
        try:
            # Re-check under the lock: two ingesters crossing the threshold
            # together must not build two snapshots of the same state.
            if (
                self.sketcher.samples_seen - self._samples_at_refresh
                >= self.refresh_every
            ):
                try:
                    self._refresh_locked()
                except Exception as exc:  # noqa: BLE001 - stale-but-available
                    # The ingest itself succeeded; a broken refresh must
                    # not fail it.  Serve the last good snapshot, mark the
                    # estimator degraded, surface the reason in health().
                    self._note_refresh_failure(exc)
                    logger.warning(
                        "auto-refresh failed; serving stale snapshot (%s)", exc
                    )
        finally:
            self._refresh_lock.release()

    def _note_refresh_failure(self, exc: BaseException) -> None:
        self._refresh_failures_total.inc()
        self.last_refresh_error = f"{type(exc).__name__}: {exc}"
        self._degraded = True

    # ------------------------------------------------------------------
    # Snapshot / swap
    # ------------------------------------------------------------------
    def refresh(self) -> SketchSnapshot:
        """Snapshot the write side and atomically swap it into the read side.

        The write lock is held only while the estimator state is cloned;
        the index build and engine construction run on the clone.
        Refreshes themselves are serialized (a second caller waits, then
        builds from the then-current state), so an older snapshot can never
        be installed over a newer one.  Returns the snapshot that is now
        being served.  Unlike the auto-refresh path, a failure here
        propagates to the caller (after being recorded in
        :attr:`last_refresh_error`) — an explicit refresh request deserves
        an explicit answer.
        """
        with self._refresh_lock:
            try:
                return self._refresh_locked()
            except Exception as exc:
                self._note_refresh_failure(exc)
                raise

    def _refresh_locked(self) -> SketchSnapshot:
        started = time.perf_counter()
        snapshot = SketchSnapshot.from_sketcher(
            self.sketcher,
            top_index=self.top_index,
            scan=self.scan,
            lock=self._write_lock,
        )
        self.install(snapshot)
        # A successful swap ends any degradation episode.
        self._degraded = False
        self.last_refresh_error = None
        self.last_swap_seconds = time.perf_counter() - started
        self._swap_seconds.observe(self.last_swap_seconds)
        if self._windowed:
            # A windowed snapshot's samples_seen counts only the window's
            # contents, not the stream position — credit the ring's total
            # ingest position instead (samples landing during the off-lock
            # index build may be slightly over-credited; the next batch
            # re-triggers the refresh check either way).
            self._samples_at_refresh = self.sketcher.samples_seen
            # The snapshot's samples_seen *is* the span of the panes it was
            # built from; reading the live ring here instead could report a
            # span a concurrent ingester created after the extraction.
            self.last_window_span = int(snapshot.samples_seen)
        else:
            # Credit only what the snapshot actually contains: samples
            # ingested concurrently with the off-lock index build must
            # still count toward the next refresh_every window.
            self._samples_at_refresh = snapshot.samples_seen
        return snapshot

    def install(self, snapshot: SketchSnapshot) -> QueryEngine:
        """Serve a prebuilt snapshot (atomic engine swap).

        Lets a reducer push snapshots built elsewhere (e.g. from merged
        shard files) into a running server.  The previous engine is retired
        but kept so in-flight readers holding its reference finish safely,
        and so its cache stats remain inspectable.
        """
        engine = QueryEngine(
            snapshot, cache_size=self.cache_size, registry=self.registry
        )
        previous = self._engine
        self._engine = engine  # atomic rebind — the swap
        self._swaps_total.inc()
        self._last_swap_monotonic = time.monotonic()
        if previous is not None:
            self._retired.append(previous)
            del self._retired[:-4]  # bound the kept history
        return engine

    # ------------------------------------------------------------------
    # Migration (the autoscale write-side swap)
    # ------------------------------------------------------------------
    def _spec_for_plan(self, plan) -> "object":
        """Map a :class:`repro.sketch.CapacityPlan` onto the current spec."""
        from repro.distributed.shard import spec_with

        spec = self.sketcher.spec
        changes = {
            "num_tables": plan.num_tables,
            "num_buckets": plan.num_buckets,
            "storage": plan.storage,
            "quantum": plan.quantum,
        }
        if spec.method == "hcs":
            changes["levels"] = plan.levels
            changes["branching"] = plan.branching
        return spec_with(spec, **changes)

    def migrate(
        self,
        target,
        *,
        num_panes: int | None = None,
        trigger: str = "manual",
        reason: str = "",
    ) -> None:
        """Move the live write side to a new configuration, keeping history.

        ``target`` is a :class:`repro.distributed.ShardSpec` or a
        :class:`repro.sketch.CapacityPlan` (mapped onto the current spec's
        stream geometry).  The write side must support history-preserving
        re-sketching: a :class:`~repro.streaming.PaneRing` built with
        ``retain_raw=True`` (its :meth:`~repro.streaming.PaneRing.rebuild`
        replays the retained window into the new shape, bit-identical to a
        from-scratch fit) or a :class:`~repro.durability.DurableSketcher`
        wrapping one (its ``migrate`` additionally checkpoints the new side
        atomically, so a crash lands on exactly one configuration).

        Reads are never blocked: the current engine keeps serving the old
        snapshot throughout and the read side moves on the next refresh —
        which this method performs immediately after the write-side swap
        (double-buffered end to end).  Ingest *is* blocked for the replay
        duration; the cost is O(retained window nnz) and is tracked in the
        ``repro_serving_migration_seconds`` histogram.

        An attached :class:`~repro.obs.AccuracyProbe` is :meth:`reset
        <repro.obs.AccuracyProbe.reset>` after the swap so post-migration
        gauges never blend measurements of two configurations, and
        ``config_version`` bumps — ``stats()`` / ``/metrics`` expose the
        version, count, duration and trigger of migrations.
        """
        from repro.distributed.shard import ShardSpec

        spec = (
            target
            if isinstance(target, ShardSpec)
            else self._spec_for_plan(target)
        )
        started = time.perf_counter()
        with self._write_lock:
            if hasattr(self.sketcher, "migrate"):
                # Durable write side: crash-safe rebuild + checkpoint.
                self.sketcher.migrate(spec, num_panes=num_panes)
            elif hasattr(self.sketcher, "rebuild"):
                self.sketcher = self.sketcher.rebuild(
                    spec,
                    num_panes=num_panes,
                    registry=self.sketcher.registry,
                )
            else:
                raise TypeError(
                    "migrate() needs a history-preserving write side: a "
                    "PaneRing with retain_raw=True (see "
                    "ServingEstimator.windowed/autoscaled) or a "
                    "DurableSketcher wrapping one"
                )
        elapsed = time.perf_counter() - started
        self.config_version += 1
        self.migration_count += 1
        self.last_migration_seconds = elapsed
        self.last_migration_trigger = trigger
        self.last_migration_reason = reason or None
        self._migration_seconds.observe(elapsed)
        self.registry.counter(
            "repro_serving_migrations_total",
            "committed live migrations by trigger",
            labels={"trigger": trigger},
        ).inc()
        if self.probe is not None:
            # Stale-probe seam: pre-migration reservoir/SNR windows measure
            # a sketch that no longer exists.
            self.probe.reset()
        # Move the read side now (the engine gauge_fns and window gauges
        # rebind through self.sketcher automatically).  A refresh failure
        # here leaves the old snapshot serving (stale-but-available) and
        # propagates like any explicit refresh failure.
        self.refresh()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        """The currently served engine (auto-snapshots on first access)."""
        engine = self._engine
        if engine is None:
            self.refresh()
            engine = self._engine
        return engine

    @property
    def snapshot(self) -> SketchSnapshot:
        return self.engine.snapshot

    @property
    def served_snapshot_id(self) -> int | None:
        """Id of the currently served snapshot, ``None`` before the first
        swap — a side-effect-free probe (liveness checks must not trigger
        the ``engine`` property's auto-snapshot build)."""
        engine = self._engine
        return None if engine is None else engine.snapshot.snapshot_id

    def query_pair(self, i: int, j: int) -> float:
        return self.engine.query_pair(i, j)

    def query_pairs(self, i, j) -> np.ndarray:
        return self.engine.query_pairs(i, j)

    def query_keys(self, keys) -> np.ndarray:
        return self.engine.query_keys(keys)

    def query_keys_versioned(self, keys) -> tuple[int, np.ndarray]:
        """``(snapshot_id, estimates)`` answered by one consistent snapshot.

        The engine reference is captured once, so the id and every estimate
        come from the same frozen snapshot even if a swap lands mid-call —
        the no-torn-reads contract the concurrency tests assert.
        """
        engine = self.engine
        return engine.snapshot.snapshot_id, engine.query_keys(keys)

    def top_pairs(self, k: int):
        return self.engine.top_pairs(k)

    def top_neighbors(self, feature: int, k: int):
        return self.engine.top_neighbors(feature, k)

    def pairs_above(self, threshold: float, *, limit: int | None = None):
        return self.engine.pairs_above(threshold, limit=limit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def swap_count(self) -> int:
        """Engine swaps installed (thin view over the registry counter)."""
        return int(self._swaps_total.value)

    @property
    def refresh_failures(self) -> int:
        """Failed refresh attempts (thin view over the registry counter)."""
        return int(self._refresh_failures_total.value)

    @property
    def degraded(self) -> bool:
        """``True`` while the last (auto-)refresh failed and no successful
        swap has happened since — reads still work, but off a snapshot
        older than the configured refresh cadence implies."""
        return self._degraded

    @property
    def stale_samples(self) -> int:
        """Write-side samples the currently served snapshot has not seen."""
        return int(self.sketcher.samples_seen - self._samples_at_refresh)

    @property
    def stale_seconds(self) -> float | None:
        """Seconds since the served engine was swapped in (``None`` before
        the first swap)."""
        if self._last_swap_monotonic is None:
            return None
        return time.monotonic() - self._last_swap_monotonic

    def health(self) -> dict:
        """JSON-ready degradation probe (the HTTP ``/health`` payload).

        ``status`` is ``"ok"`` or ``"degraded"`` — degraded when the last
        refresh failed or the ingest circuit breaker is not closed.  Either
        way the estimator keeps answering queries from the last good
        snapshot (stale-but-available); the remaining fields say *how*
        stale and *why* degraded.
        """
        degraded = self._degraded or self.breaker.state != "closed"
        return {
            "status": "degraded" if degraded else "ok",
            "snapshot_id": self.served_snapshot_id,
            "writable": True,
            "degraded": degraded,
            "stale_samples": self.stale_samples,
            "stale_seconds": self.stale_seconds,
            "refresh_failures": self.refresh_failures,
            "last_refresh_error": self.last_refresh_error,
            "breaker": self.breaker.state,
            "wal_lag": getattr(self.sketcher, "wal_lag", None),
        }

    def stats(self) -> dict:
        """JSON-ready serving stats: swaps, write-side progress, engine.

        Streaming write sides add their recency metadata: ``window_span``
        (current and as of the last swap), pane geometry and rotation count
        for a :class:`~repro.streaming.PaneRing`; the ``decay`` factor for
        a :class:`~repro.streaming.DecayingSketcher`.
        """
        engine = self._engine
        out = {
            "swap_count": self.swap_count,
            "last_swap_seconds": self.last_swap_seconds,
            "refresh_every": self.refresh_every,
            "write_samples_seen": self.sketcher.samples_seen,
            "window_span": None,
            "decay": getattr(self.sketcher, "decay", None),
            "engine": None if engine is None else engine.stats(),
            "degraded": self._degraded,
            "refresh_failures": self.refresh_failures,
            "last_refresh_error": self.last_refresh_error,
            "stale_samples": self.stale_samples,
            "stale_seconds": self.stale_seconds,
            "breaker": self.breaker.stats(),
            "config_version": self.config_version,
            "migrations": {
                "count": self.migration_count,
                "last_seconds": self.last_migration_seconds,
                "last_trigger": self.last_migration_trigger,
                "last_reason": self.last_migration_reason,
            },
        }
        if self.autoscaler is not None:
            out["autoscaler"] = self.autoscaler.stats()
        if getattr(self.sketcher, "wal_lag", None) is not None:
            # Durable write side: surface WAL/checkpoint progress.
            out["durability"] = self.sketcher.stats()
        if self._windowed:
            out["window_span"] = int(self.sketcher.window_span)
            out["window"] = {
                "window_span": int(self.sketcher.window_span),
                "served_window_span": self.last_window_span,
                "num_panes": int(self.sketcher.num_panes),
                "pane_samples": int(self.sketcher.pane_samples),
                "rotations": int(self.sketcher.rotations),
                "last_rotate_seconds": float(self.sketcher.last_rotate_seconds),
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        engine = self._engine
        served = "none" if engine is None else engine.snapshot.snapshot_id
        return (
            f"ServingEstimator(serving=snapshot {served}, "
            f"swaps={self.swap_count}, "
            f"write_samples={self.sketcher.samples_seen})"
        )

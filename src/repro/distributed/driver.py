"""Sharded parallel ingestion driver: partition → map → reduce.

:func:`fit_sparse_sharded` is the one-call entry point: it materialises a
sparse sample stream, partitions it into contiguous batch-aligned shards,
runs one worker per shard (in-process or via ``multiprocessing``), and
reduces the shard states into a single queryable estimator.

Backends
--------
``"serial"``
    Executes the same partition plan in-process, threading **one**
    estimator through the shards in stream order.  Because shard
    boundaries are aligned to the pipeline's batch grid, the sequence of
    ingested batches is exactly the sequence ``fit_sparse`` produces, so
    the serial backend is **bit-identical** to the single-shard
    ``CovarianceSketcher.fit_sparse`` path — the correctness baseline every
    parallel run is measured against.
``"process"``
    True map/reduce over a ``multiprocessing`` pool: every shard builds an
    independent zero-state estimator (same spec, same seed) and the
    results merge via :func:`repro.distributed.merge_shard_results`.  For
    ``cs`` the merged counters equal the serial run up to float-addition
    regrouping (bit-for-bit when partial sums are exactly representable);
    for ``ascs`` the sampling decisions are shard-local, making the merge
    approximate in *selection* (see :mod:`repro.distributed.reduce`).
    ``mode="correlation"`` additionally normalises each shard by its own
    running std — equal in expectation under the paper's i.i.d. stream
    assumption, not bitwise.

Shard boundaries are aligned to multiples of ``batch_size`` so every
backend and worker count ingests the *same multiset of batches*; only the
grouping of counter additions differs.  That is what makes the determinism
guarantees testable (``tests/test_sharded_driver.py``).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import ThresholdSchedule
from repro.covariance.pipeline import CovarianceSketcher
from repro.distributed.reduce import merge_shard_results
from repro.distributed.shard import (
    ShardResult,
    ShardSpec,
    extract_shard_result,
    sketch_shard,
)
from repro.obs.metrics import MetricsRegistry, NullRegistry

__all__ = ["ShardedFit", "fit_sparse_sharded", "partition_batches"]

BACKENDS = ("serial", "process")


@dataclass
class ShardedFit:
    """Outcome of :func:`fit_sparse_sharded`.

    ``sketcher`` is the merged (or serially threaded) pipeline — query it
    exactly like a ``fit_sparse`` result.  ``partition`` records the
    ``(start, stop)`` sample slice of every shard; ``shard_results`` holds
    the per-shard states when requested — one per worker for the process
    backend, a single whole-stream snapshot (``num_shards=1``) for the
    serial backend, which threads one estimator and has no per-shard
    states to keep.
    """

    sketcher: CovarianceSketcher
    spec: ShardSpec
    backend: str
    n_workers: int
    partition: list[tuple[int, int]]
    shard_results: list[ShardResult] | None = None

    @property
    def estimator(self):
        return self.sketcher.estimator

    def top_pairs(self, k: int, **kwargs):
        """Delegate to :meth:`repro.covariance.CovarianceSketcher.top_pairs`."""
        return self.sketcher.top_pairs(k, **kwargs)

    def snapshot(self, **kwargs):
        """Freeze the merged state into a serving snapshot.

        Equivalent to ``repro.serving.SketchSnapshot.from_sketcher`` on the
        merged sketcher — the scale-out write path handing off to the read
        path.  (To snapshot persisted per-shard files without a driver run,
        use ``SketchSnapshot.from_shard_results``.)
        """
        # Lazy import: repro.serving builds on repro.distributed.
        from repro.serving import SketchSnapshot

        return SketchSnapshot.from_sketcher(self.sketcher, **kwargs)


def partition_batches(
    num_samples: int, batch_size: int, n_workers: int
) -> list[tuple[int, int]]:
    """Contiguous batch-aligned shard boundaries.

    Splits the ``ceil(num_samples / batch_size)`` ingestion batches as
    evenly as possible across workers; every boundary except the stream end
    is a multiple of ``batch_size``.  This guarantees each shard ingests
    exactly the batches the unsharded run would, which is what makes the
    serial backend bit-identical and the process backend's counter merge a
    pure regrouping of the same additions.  Workers beyond the batch count
    get no shard (the returned list may be shorter than ``n_workers``).
    """
    if num_samples < 0:
        raise ValueError(f"num_samples must be non-negative, got {num_samples}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if num_samples == 0:
        return []
    num_batches = -(-num_samples // batch_size)
    bounds: list[tuple[int, int]] = []
    for chunk in np.array_split(np.arange(num_batches), min(n_workers, num_batches)):
        if chunk.size == 0:
            continue
        start = int(chunk[0]) * batch_size
        stop = min((int(chunk[-1]) + 1) * batch_size, num_samples)
        bounds.append((start, stop))
    return bounds


def _run_shard(args) -> tuple[ShardResult, float]:
    """Top-level pool task (must be picklable for the process backend).

    Returns the shard state plus its worker-side ingest wall time, so the
    driver can record per-shard throughput without a side channel.
    """
    spec, samples, shard_index, num_shards, start = args
    started = time.perf_counter()
    result = sketch_shard(
        spec, samples, shard_index=shard_index, num_shards=num_shards, start=start
    )
    return result, time.perf_counter() - started


def _normalise_samples(samples) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for sample in samples:
        idx, val = sample[0], sample[1]
        out.append(
            (np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.float64))
        )
    return out


def _default_context() -> str:
    methods = multiprocessing.get_all_start_methods()
    # fork inherits sys.path and loaded modules — cheapest start and works
    # regardless of how the parent located the package; spawn elsewhere.
    return "fork" if "fork" in methods else "spawn"


def fit_sparse_sharded(
    samples,
    dim: int,
    *,
    total_samples: int | None = None,
    method: str = "cs",
    num_tables: int = 5,
    num_buckets: int = 4096,
    seed: int = 0,
    mode: str = "covariance",
    batch_size: int = 32,
    std_floor: float = 1e-6,
    track_top: int = 0,
    two_sided: bool = False,
    storage: str = "float64",
    quantum: float | None = None,
    schedule: ThresholdSchedule | tuple | None = None,
    n_workers: int = 1,
    backend: str = "serial",
    mp_context: str | None = None,
    keep_shard_results: bool = False,
    registry: MetricsRegistry | None = None,
) -> ShardedFit:
    """Fit a sparse stream through sharded (optionally parallel) ingestion.

    Parameters
    ----------
    samples:
        Iterable of sparse ``(indices, values)`` samples; materialised into
        a list so it can be partitioned (stream relays that cannot be
        materialised should persist :class:`ShardResult` files from
        :func:`repro.distributed.sketch_shard` and reduce explicitly).
    dim:
        Feature dimension ``d``.
    total_samples:
        Global ``T`` for the ``1/T`` update scaling; defaults to the
        materialised stream length.
    method:
        ``"cs"`` or ``"ascs"`` — the mergeable estimators.  ``"ascs"``
        requires ``schedule``.
    storage, quantum:
        Counter tier of every shard's sketch (:mod:`repro.sketch.storage`)
        — part of the shared spec, so all shards store counters in the
        same unit and the reducer's summation stays exact (quantized
        shards widen on merge instead of wrapping).
    schedule:
        A :class:`repro.core.ThresholdSchedule` or its
        ``(exploration_length, tau0, theta, total_samples)`` tuple.
    n_workers, backend:
        ``backend="serial"`` threads one estimator through the partition
        (bit-identical to ``fit_sparse``); ``backend="process"`` runs one
        OS process per shard and merges.
    mp_context:
        ``multiprocessing`` start method (default: ``fork`` when
        available, else ``spawn``).
    keep_shard_results:
        Retain the per-shard :class:`ShardResult` objects on the returned
        :class:`ShardedFit` (process backend only; each holds a full
        counter table).
    registry:
        Optional :class:`repro.obs.MetricsRegistry` receiving the run's
        telemetry: ``repro_shard_ingest_seconds`` (one observation per
        shard), ``repro_shard_merge_seconds`` (the reduce pass), and
        ``repro_shard_ingest_samples_per_second`` (aggregate per-shard
        ingest rate of this run).

    Returns
    -------
    :class:`ShardedFit` whose ``sketcher`` answers ``estimate_keys`` /
    ``top_pairs`` like a ``fit_sparse`` result.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    sample_list = _normalise_samples(samples)
    n = len(sample_list)
    if n == 0:
        raise ValueError("cannot fit an empty sample stream")
    if isinstance(schedule, ThresholdSchedule):
        schedule = (
            schedule.exploration_length,
            schedule.tau0,
            schedule.theta,
            schedule.total_samples,
        )
    spec = ShardSpec(
        dim=dim,
        total_samples=int(total_samples if total_samples is not None else n),
        method=method,
        num_tables=num_tables,
        num_buckets=num_buckets,
        seed=seed,
        mode=mode,
        batch_size=batch_size,
        std_floor=std_floor,
        track_top=track_top,
        two_sided=two_sided,
        storage=storage,
        quantum=quantum,
        schedule=schedule,
    )
    partition = partition_batches(n, batch_size, n_workers)
    reg = registry if registry is not None else NullRegistry()
    ingest_hist = reg.histogram(
        "repro_shard_ingest_seconds", "per-shard sparse ingest wall time"
    )
    merge_hist = reg.histogram(
        "repro_shard_merge_seconds", "shard-state reduce (merge) pass"
    )
    throughput_gauge = reg.gauge(
        "repro_shard_ingest_samples_per_second",
        "aggregate per-shard ingest rate of the last sharded fit",
    )

    if backend == "serial":
        sketcher = spec.build_sketcher()
        ingest_elapsed = 0.0
        for start, stop in partition:
            started = time.perf_counter()
            sketcher.fit_sparse(iter(sample_list[start:stop]))
            elapsed = time.perf_counter() - started
            ingest_hist.observe(elapsed)
            ingest_elapsed += elapsed
        if ingest_elapsed > 0.0:
            throughput_gauge.set(n / ingest_elapsed)
        shard_results = None
        if keep_shard_results:
            # The serial backend threads one estimator, so the only
            # extractable state is a single whole-stream snapshot.
            shard_results = [extract_shard_result(sketcher, spec, num_shards=1)]
        return ShardedFit(
            sketcher=sketcher,
            spec=spec,
            backend=backend,
            n_workers=len(partition),
            partition=partition,
            shard_results=shard_results,
        )

    tasks = [
        (spec, sample_list[start:stop], index, len(partition), start)
        for index, (start, stop) in enumerate(partition)
    ]
    if len(tasks) == 1:
        # A single shard needs no pool (and no serialisation round-trip).
        timed = [_run_shard(tasks[0])]
    else:
        ctx = multiprocessing.get_context(mp_context or _default_context())
        with ctx.Pool(processes=len(tasks)) as pool:
            timed = pool.map(_run_shard, tasks)
    results = [result for result, _ in timed]
    ingest_elapsed = 0.0
    for result, elapsed in timed:
        ingest_hist.observe(elapsed)
        ingest_elapsed += elapsed
    if ingest_elapsed > 0.0:
        throughput_gauge.set(n / ingest_elapsed)
    with merge_hist.time():
        sketcher = merge_shard_results(results)
    return ShardedFit(
        sketcher=sketcher,
        spec=spec,
        backend=backend,
        n_workers=len(tasks),
        partition=partition,
        shard_results=results if keep_shard_results else None,
    )

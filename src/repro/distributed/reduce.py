"""Reduce step: merge per-shard states into one estimator.

The merge laws, per component:

* **Sketch counters** — exact summation in shard order (count sketches are
  linear; ``merged.table = sum_k table_k`` reproduces the unsharded
  counters up to float-addition regrouping, and bit-for-bit when the
  stream's partial sums are exactly representable).
* **Moment accumulators** — exact summation
  (:meth:`repro.covariance.SparseMoments.merge`).
* **Top-k tracker** — union of the per-shard candidate pools, re-estimated
  with *one* gather query against the merged sketch, then re-pruned to
  capacity (:meth:`repro.sketch.TopKTracker.merge`).  Per-shard estimates
  must not survive: they only reflect per-shard mass, roughly ``1/W`` of
  the merged estimate.
* **ASCS sampler state** — per-shard accept/examine counts are summed, and
  the threshold-schedule position is re-derived from the *total* ingested
  sample count: the schedule is a pure function of ``samples_seen``, so
  setting the merged estimator's ``samples_seen`` to the sum positions
  ``current_threshold`` (and any further ingestion) exactly where a stream
  of that combined length would be.

Why the ASCS merge is approximate: each shard's sampling gate consulted
*its own* partial sketch, so shard-local accept decisions differ from the
decisions one sequential pass would have made.  The counters that were
accepted merge exactly; the *selection* of what got accepted is per-shard.
``tests/test_sharded_merge.py`` quantifies the retrieval impact (top-k F1
versus the unsharded run).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Sequence

from repro.covariance.pipeline import CovarianceSketcher
from repro.distributed.shard import ShardResult, ShardSpec

__all__ = ["merge_shard_results"]


def _check_uniform_specs(shards: Sequence[ShardResult]) -> ShardSpec:
    """All shards must share one spec; report the first differing field."""
    spec = shards[0].spec
    for shard in shards[1:]:
        if shard.spec == spec:
            continue
        for f in fields(ShardSpec):
            a, b = getattr(spec, f.name), getattr(shard.spec, f.name)
            if a != b:
                raise ValueError(
                    "shard results are mergeable only with identical specs; "
                    f"shard {shard.shard_index} differs on {f.name}: "
                    f"{a!r} != {b!r}"
                )
        raise ValueError("shard results are mergeable only with identical specs")
    return spec


def merge_shard_results(shards: Sequence[ShardResult]) -> CovarianceSketcher:
    """Merge shard results into one queryable :class:`CovarianceSketcher`.

    Shards are merged in ``start`` order (stream order), so the result is
    deterministic regardless of worker completion order.  Raises
    ``ValueError`` for an empty list, mismatched specs, duplicate shard
    indices, or sample ranges that do not tile the stream contiguously
    (a dropped or doubled shard file must fail loudly, not merge quietly
    wrong).
    """
    shards = list(shards)
    if not shards:
        raise ValueError("cannot merge zero shard results")
    spec = _check_uniform_specs(shards)
    indices = [s.shard_index for s in shards]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices in merge: {sorted(indices)}")
    shards.sort(key=lambda s: (s.start, s.shard_index))
    for prev, cur in zip(shards, shards[1:]):
        if cur.start != prev.stop:
            raise ValueError(
                "shard sample ranges must tile the stream contiguously; "
                f"shard {cur.shard_index} starts at {cur.start} but the "
                f"preceding shard ends at {prev.stop} (missing or "
                "overlapping shard?)"
            )

    estimator = spec.build_estimator()
    sketch = estimator.sketch
    if any(s.table.shape != sketch.table.shape for s in shards):
        raise ValueError("shard table shape does not match the spec's sketch")
    for shard in shards:
        # Storage-aware summation: float tables add in place exactly as
        # before; quantized tables widen (exactly) instead of letting a
        # narrow integer add wrap silently.
        sketch.add_table(shard.table)

    estimator.samples_seen = int(sum(s.samples_seen for s in shards))
    estimator.updates_examined = int(sum(s.updates_examined for s in shards))
    estimator.updates_accepted = int(sum(s.updates_accepted for s in shards))

    if estimator.tracker is not None:
        # Union of the per-shard pools (stream order), one gather query
        # against the merged sketch, re-prune — the TopKTracker merge law.
        estimator.tracker.rebuild_from_pools(
            [s.tracker_keys for s in shards], sketch
        )

    sketcher = CovarianceSketcher(
        spec.dim,
        estimator,
        mode=spec.mode,
        batch_size=spec.batch_size,
        std_floor=spec.std_floor,
    )
    moments = sketcher.sparse_moments
    for shard in shards:
        moments._sum += shard.moments_sum
        moments._sumsq += shard.moments_sumsq
        moments.count += int(shard.moments_count)
    sketcher.samples_seen = estimator.samples_seen
    return sketcher

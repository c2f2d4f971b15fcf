"""Shard workers for parallel one-pass ingestion.

Count sketches are linear, so a stream partitioned into shards can be
sketched independently and the per-shard states summed (section 3 of the
paper implies exactly this deployment mode at trillion scale).  This module
defines the unit of that map step:

* :class:`ShardSpec` — the picklable recipe every worker builds its
  estimator from.  All shards share one seed, so their sketches are
  mergeable; the spec is also the merge-compatibility fingerprint the
  reducer validates.
* :class:`ShardResult` — the complete serializable output of one shard:
  sketch counters, top-k tracker state, ASCS sampler statistics and the
  per-feature moment accumulators.  Round-trips through ``.npz`` without
  pickling, like :mod:`repro.sketch.serialization`.
* :func:`sketch_shard` — the worker: stream a slice of samples through a
  fresh :class:`repro.covariance.CovarianceSketcher` and extract the
  result.

ASCS merge law (worker half)
----------------------------
Each shard runs the *global* threshold schedule at its *local* stream
position.  That is the consistent choice: updates are scaled by the global
``1/T``, so after a shard has ingested ``t`` samples a key with mean ``mu``
estimates to roughly ``mu * t / T`` — the same magnitude the unsharded run
sees at global position ``t``, which is what ``tau(t)`` was calibrated
against.  Consequently every shard performs its own exploration period
(its sketch starts empty and must build coarse estimates before it can
gate), and shards shorter than ``T0`` degrade gracefully to vanilla CS.
The reducer half of the law lives in :mod:`repro.distributed.reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.core.ascs import ActiveSamplingCountSketch
from repro.core.estimator import SketchEstimator
from repro.core.schedule import ThresholdSchedule
from repro.covariance.pipeline import CovarianceSketcher
from repro.durability.integrity import read_npz, write_npz
from repro.hashing.families import check_family
from repro.hashing.pairs import num_pairs
from repro.sketch.count_sketch import CountSketch
from repro.sketch.hierarchical import HierarchicalCountSketch

__all__ = [
    "ShardSpec",
    "ShardResult",
    "sketch_shard",
    "save_shard_result",
    "load_shard_result",
    "shard_result_from_arrays",
    "spec_to_arrays",
    "spec_from_arrays",
    "restore_sketcher",
]

#: Estimator methods whose state merges losslessly enough to shard.
#: An ASketch filter holds order-dependent state, so the sharded driver
#: rejects it (see ``AugmentedSketch.merge``).  ``hcs``
#: (the hierarchical count sketch) merges exactly per level — its stacked
#: table rides the same summation law as a flat table.
MERGEABLE_METHODS = ("cs", "ascs", "hcs")


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build its estimator — and nothing else.

    All shards of one run share a spec: same sketch shape, same seed (the
    mergeability requirement), same global ``total_samples`` so updates are
    scaled by the same ``1/T``.  The spec doubles as the reducer's
    merge-compatibility fingerprint.

    Attributes
    ----------
    dim:
        Number of features ``d`` of the underlying stream.
    total_samples:
        Global stream length ``T`` (not the shard length) — the ``1/T``
        update scaling and the ASCS ramp normaliser.
    method:
        ``"cs"``, ``"ascs"`` or ``"hcs"`` (the mergeable estimators;
        ``"hcs"`` backs the estimator with a
        :class:`repro.sketch.HierarchicalCountSketch` over the pair-key
        space for open-world ``find_heavy`` discovery).
    schedule:
        ``(exploration_length, tau0, theta, total_samples)`` tuple for
        ``method="ascs"``; ``None`` for ``"cs"``.
    num_tables, num_buckets, seed:
        Backing :class:`repro.sketch.CountSketch` parameters.
    storage, quantum:
        Counter storage of the backing sketch (see
        :mod:`repro.sketch.storage`): ``"float64"`` (default),
        ``"float32"``, or quantized ``"int16"``/``"int32"`` with a
        fixed-point ``quantum``.  Part of the merge fingerprint — every
        shard must store counters in the same unit.
    mode, batch_size, std_floor:
        :class:`repro.covariance.CovarianceSketcher` parameters.
    track_top, two_sided:
        Estimator candidate-tracking parameters.
    levels, branching:
        Hierarchy shape for ``method="hcs"``: ``levels == 0`` (the
        default) auto-sizes the depth from the pair-key space; both are
        part of the merge fingerprint and ignored by flat methods.
    """

    dim: int
    total_samples: int
    method: str = "cs"
    num_tables: int = 5
    num_buckets: int = 4096
    seed: int = 0
    storage: str = "float64"
    quantum: float | None = None
    mode: str = "covariance"
    batch_size: int = 32
    std_floor: float = 1e-6
    track_top: int = 0
    two_sided: bool = False
    levels: int = 0
    branching: int = 16
    schedule: tuple[int, float, float, int] | None = None

    def __post_init__(self):
        if self.quantum is not None:
            object.__setattr__(self, "quantum", float(self.quantum))
        if self.method not in MERGEABLE_METHODS:
            raise ValueError(
                f"sharded ingestion supports methods {MERGEABLE_METHODS}; "
                f"got {self.method!r} (ASketch state is order-dependent "
                "and does not merge exactly)"
            )
        if self.method == "ascs":
            if self.schedule is None:
                raise ValueError("method='ascs' requires a schedule")
            schedule = tuple(self.schedule)
            if len(schedule) != 4:
                raise ValueError(
                    "schedule must be (exploration_length, tau0, theta, "
                    f"total_samples); got {self.schedule!r}"
                )
            if int(schedule[3]) != int(self.total_samples):
                raise ValueError(
                    "schedule total_samples must equal the spec's global "
                    f"total_samples; {schedule[3]} != {self.total_samples}"
                )
            object.__setattr__(
                self,
                "schedule",
                (
                    int(schedule[0]),
                    float(schedule[1]),
                    float(schedule[2]),
                    int(schedule[3]),
                ),
            )
        elif self.schedule is not None:
            raise ValueError("schedule is only meaningful for method='ascs'")

    # ------------------------------------------------------------------
    def build_estimator(self) -> SketchEstimator:
        """A fresh zero-state estimator following this spec."""
        if self.method == "hcs":
            sketch = HierarchicalCountSketch(
                self.num_tables,
                self.num_buckets,
                key_space=num_pairs(self.dim),
                branching=self.branching,
                levels=self.levels or None,
                seed=self.seed,
                dtype=self.storage,
                quantum=self.quantum,
            )
        else:
            sketch = CountSketch(
                self.num_tables,
                self.num_buckets,
                seed=self.seed,
                dtype=self.storage,
                quantum=self.quantum,
            )
        common = dict(track_top=self.track_top, two_sided=self.two_sided)
        if self.method == "ascs":
            return ActiveSamplingCountSketch(
                sketch,
                self.total_samples,
                ThresholdSchedule(*self.schedule),
                name="ASCS",
                **common,
            )
        name = "HCS" if self.method == "hcs" else "CS"
        return SketchEstimator(sketch, self.total_samples, name=name, **common)

    def build_sketcher(self) -> CovarianceSketcher:
        """A fresh covariance pipeline around :meth:`build_estimator`."""
        return CovarianceSketcher(
            self.dim,
            self.build_estimator(),
            mode=self.mode,
            batch_size=self.batch_size,
            std_floor=self.std_floor,
        )


@dataclass
class ShardResult:
    """Complete serializable state one shard worker hands the reducer.

    Everything the reducer's merge laws consume:

    * ``table`` — the sketch counters (merged by exact summation);
    * ``tracker_keys`` / ``tracker_estimates`` — the top-k candidate pool
      (merged by union + one re-query against the merged sketch);
    * ``samples_seen`` / ``updates_examined`` / ``updates_accepted`` — the
      ASCS sampler statistics (merged by summation; the merged
      ``samples_seen`` re-derives the threshold-schedule position);
    * ``moments_*`` — the :class:`repro.covariance.SparseMoments`
      accumulators (merged by exact summation).
    """

    spec: ShardSpec
    shard_index: int
    num_shards: int
    start: int
    stop: int
    table: np.ndarray
    samples_seen: int
    updates_examined: int
    updates_accepted: int
    moments_count: int
    moments_sum: np.ndarray
    moments_sumsq: np.ndarray
    tracker_keys: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    tracker_estimates: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )

    @property
    def num_samples(self) -> int:
        return self.stop - self.start

    @property
    def acceptance_rate(self) -> float:
        if self.updates_examined == 0:
            return 1.0
        return self.updates_accepted / self.updates_examined


def extract_shard_result(
    sketcher: CovarianceSketcher,
    spec: ShardSpec,
    *,
    shard_index: int = 0,
    num_shards: int = 1,
    start: int = 0,
) -> ShardResult:
    """Snapshot a fitted sketcher's state into a :class:`ShardResult`."""
    est = sketcher.estimator
    if est.tracker is not None:
        tracker_keys, tracker_ests = est.tracker.snapshot()
    else:
        tracker_keys = np.empty(0, dtype=np.int64)
        tracker_ests = np.empty(0, dtype=np.float64)
    moments = sketcher.sparse_moments
    return ShardResult(
        spec=spec,
        shard_index=int(shard_index),
        num_shards=int(num_shards),
        start=int(start),
        stop=int(start) + int(sketcher.samples_seen),
        table=est.sketch.table.copy(),
        samples_seen=int(est.samples_seen),
        updates_examined=int(est.updates_examined),
        updates_accepted=int(est.updates_accepted),
        moments_count=int(moments.count),
        moments_sum=moments._sum.copy(),
        moments_sumsq=moments._sumsq.copy(),
        tracker_keys=tracker_keys,
        tracker_estimates=tracker_ests,
    )


def sketch_shard(
    spec: ShardSpec,
    samples,
    *,
    shard_index: int = 0,
    num_shards: int = 1,
    start: int = 0,
) -> ShardResult:
    """Map step: stream one shard of sparse samples into a fresh estimator.

    Parameters
    ----------
    spec:
        The shared :class:`ShardSpec`.
    samples:
        Iterable of sparse ``(indices, values)`` samples — this shard's
        contiguous slice of the global stream.
    shard_index, num_shards, start:
        Provenance recorded in the result; ``start`` is the shard's global
        stream offset (used for coverage checks at reduce time).
    """
    sketcher = spec.build_sketcher()
    sketcher.fit_sparse(iter(samples))
    return extract_shard_result(
        sketcher, spec, shard_index=shard_index, num_shards=num_shards, start=start
    )


# ----------------------------------------------------------------------
# Serialisation (.npz, no pickling — mirrors repro.sketch.serialization)
# ----------------------------------------------------------------------
def spec_to_arrays(spec: ShardSpec, *, prefix: str = "spec_") -> dict:
    """A :class:`ShardSpec` as a flat ``{name: ndarray}`` dict.

    Each field is stored as ``np.asarray(value)`` (scalars as 0-d arrays,
    strings as fixed unicode), so the dict survives ``np.savez`` with
    ``allow_pickle=False``.  A ``None`` optional encodes as NaN — four of
    them for the schedule.  The durability tier persists a spec alone (the
    recovery recipe); :func:`save_shard_result` embeds the same members
    inside each shard file.
    """
    payload: dict[str, np.ndarray] = {}
    for f in fields(ShardSpec):
        value = getattr(spec, f.name)
        if value is None:
            value = [np.nan] * 4 if f.name == "schedule" else np.nan
        payload[prefix + f.name] = np.asarray(value)
    return payload


def spec_from_arrays(data, *, prefix: str = "spec_") -> ShardSpec:
    """Rebuild a :class:`ShardSpec` from :func:`spec_to_arrays` output.

    0-d members decode with ``.item()`` and the schedule as a tuple
    (``ShardSpec`` coerces its element types); NaN decodes back to
    ``None``.  Only the spec's current fields are read.  Members missing
    from ``data`` keep their dataclass defaults, so files written before a
    spec field existed (e.g. pre-memory-tier shards with no
    ``storage``/``quantum``) still load.

    Of the members older files carry for fields that no longer exist,
    ``spec_backend`` is ignored: the kernel backend never changes a
    counter.  ``spec_family`` cannot be: the persisted table was hashed
    with that family, and rebuilding it with multiply-shift would give a
    silently wrong sketch, so any other family raises ``ValueError``
    (:func:`repro.hashing.check_family`).
    """
    if prefix + "family" in data:
        check_family(data[prefix + "family"])
    spec_kwargs = {}
    for f in fields(ShardSpec):
        member = prefix + f.name
        if member not in data:
            continue
        raw = np.asarray(data[member])
        if raw.dtype.kind == "f" and np.isnan(raw).any():
            spec_kwargs[f.name] = None
        else:
            spec_kwargs[f.name] = raw.item() if raw.ndim == 0 else tuple(raw.tolist())
    return ShardSpec(**spec_kwargs)


def save_shard_result(result: ShardResult, path, *, extra: dict | None = None) -> None:
    """Persist a :class:`ShardResult` to ``path`` (``.npz``).

    Workers on separate machines write these; the reducer loads and merges.
    No pickled objects are involved (``allow_pickle=False`` round-trip).
    The write is atomic (temp file + ``os.replace``) and the archive embeds
    per-array CRC32s plus a manifest digest
    (:mod:`repro.durability.integrity`), so a torn or bit-flipped shard
    file is *detected at load* instead of merging silent garbage.

    ``extra`` members (0-d arrays) ride along inside the archive — the
    durability tier stores the WAL position a checkpoint covers this way.
    """
    payload = {
        "shard_index": np.asarray(result.shard_index),
        "num_shards": np.asarray(result.num_shards),
        "start": np.asarray(result.start),
        "stop": np.asarray(result.stop),
        "table": result.table,
        "samples_seen": np.asarray(result.samples_seen),
        "updates_examined": np.asarray(result.updates_examined),
        "updates_accepted": np.asarray(result.updates_accepted),
        "moments_count": np.asarray(result.moments_count),
        "moments_sum": result.moments_sum,
        "moments_sumsq": result.moments_sumsq,
        "tracker_keys": result.tracker_keys,
        "tracker_estimates": result.tracker_estimates,
        **spec_to_arrays(result.spec),
    }
    if extra:
        payload.update({name: np.asarray(value) for name, value in extra.items()})
    write_npz(path, payload, compress=True)


def load_shard_result(path) -> ShardResult:
    """Restore a :class:`ShardResult` written by :func:`save_shard_result`.

    Files carrying integrity members are CRC-verified, and a file that
    cannot be read raises :class:`repro.durability.IntegrityError` naming
    it and the reason; files from before the durability tier load
    unverified, exactly as they always did.
    """
    with read_npz(path) as data:
        return shard_result_from_arrays(data)


def shard_result_from_arrays(data) -> ShardResult:
    """Decode :func:`save_shard_result` members (as :func:`read_npz`
    yields them) into a :class:`ShardResult` that adopts their arrays."""
    return ShardResult(
        spec=spec_from_arrays(data),
        shard_index=int(data["shard_index"]),
        num_shards=int(data["num_shards"]),
        start=int(data["start"]),
        stop=int(data["stop"]),
        table=data["table"],
        samples_seen=int(data["samples_seen"]),
        updates_examined=int(data["updates_examined"]),
        updates_accepted=int(data["updates_accepted"]),
        moments_count=int(data["moments_count"]),
        moments_sum=data["moments_sum"],
        moments_sumsq=data["moments_sumsq"],
        tracker_keys=data["tracker_keys"],
        tracker_estimates=data["tracker_estimates"],
    )


def restore_sketcher(result: ShardResult) -> CovarianceSketcher:
    """Rebuild a live (writable) pipeline from a persisted shard/pane state.

    The inverse of :func:`extract_shard_result`: counters, moment
    accumulators, sampler statistics and the tracker pool are all restored,
    so further ingestion behaves exactly as if the state had never been
    persisted (the tracker restore relies on ``TopKTracker.snapshot``'s
    replay guarantee).  This is the recovery primitive shared by
    :class:`repro.streaming.PaneRing` resume and the durability tier's
    checkpoint + WAL replay (:class:`repro.durability.DurableSketcher`).
    """
    sketcher = result.spec.build_sketcher()
    estimator = sketcher.estimator
    # load_table adopts the persisted table's width: a quantized pane that
    # widened past the spec's declared dtype restores without down-casting.
    estimator.sketch.load_table(result.table)
    estimator.samples_seen = int(result.samples_seen)
    estimator.updates_examined = int(result.updates_examined)
    estimator.updates_accepted = int(result.updates_accepted)
    if estimator.tracker is not None and result.tracker_keys.size:
        estimator.tracker.offer(result.tracker_keys, result.tracker_estimates)
    moments = sketcher.sparse_moments
    moments._sum[:] = result.moments_sum
    moments._sumsq[:] = result.moments_sumsq
    moments.count = int(result.moments_count)
    sketcher.samples_seen = int(result.samples_seen)
    return sketcher


def spec_with(spec: ShardSpec, **changes) -> ShardSpec:
    """A copy of ``spec`` with fields replaced (validation re-runs)."""
    return replace(spec, **changes)

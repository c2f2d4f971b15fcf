"""High-level one-call API: data in, top correlation pairs out.

This is the entry point a downstream user adopts.  It packages the paper's
full recipe (section 8.1):

1. a pilot pass over the first few percent of the data estimates the
   signal strength ``u`` (the ``(1-alpha)`` percentile of pilot count-sketch
   estimates) and the noise scale ``sigma`` (root mean square pair product);
2. Algorithm 3 turns (``u``, ``sigma``, ``alpha``, sketch shape) into the
   exploration length ``T0`` and threshold slope ``theta``;
3. one streaming pass feeds every sample through the chosen estimator
   (``ascs``, ``cs`` or ``asketch``);
4. retrieval returns the top pairs with their estimates.

For sparse streams too large for one process, :func:`fit_sparse_sharded`
is the scale-out variant of step 3: it partitions the stream into
batch-aligned shards, sketches each shard independently (``serial`` or
``multiprocessing`` backends) and merges the shard states — exact counter
and moment summation, top-k candidate union re-queried against the merged
sketch, and ASCS sampler counts summed with the threshold-schedule
position re-derived from the total sample count.  The serial backend is
bit-identical to ``CovarianceSketcher.fit_sparse``; the full merge laws
live in :mod:`repro.distributed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ascs import ActiveSamplingCountSketch
from repro.core.estimator import SketchEstimator
from repro.core.schedule import ThresholdSchedule
from repro.covariance.pipeline import CovarianceSketcher
from repro.hashing.pairs import num_pairs
from repro.sketch.augmented import AugmentedSketch
from repro.sketch.count_sketch import CountSketch
from repro.theory.bounds import ProblemModel
from repro.theory.planner import ASCSPlan, plan_hyperparameters

__all__ = [
    "SketchResult",
    "PilotEstimates",
    "run_pilot",
    "build_estimator",
    "fit_sparse_sharded",
    "sketch_correlations",
]

METHODS = ("ascs", "cs", "asketch")


@dataclass
class PilotEstimates:
    """Signal/noise scale estimated from a pilot prefix of the stream."""

    u: float
    sigma: float
    num_pilot_samples: int
    percentiles: dict[float, float] = field(default_factory=dict)


@dataclass
class SketchResult:
    """Outcome of :func:`sketch_correlations`."""

    pairs_i: np.ndarray
    pairs_j: np.ndarray
    estimates: np.ndarray
    method: str
    plan: ASCSPlan | None
    pilot: PilotEstimates | None
    sketcher: CovarianceSketcher

    @property
    def estimator(self):
        return self.sketcher.estimator

    def snapshot(self, **kwargs):
        """Freeze this result into a query-optimized serving snapshot.

        Convenience hook for the read path: returns
        ``repro.serving.SketchSnapshot.from_sketcher(self.sketcher)``.  See
        :mod:`repro.serving` for the query engine, double-buffered serving
        estimator and HTTP front end built on top of it.
        """
        # Lazy import: repro.serving builds on repro.core.
        from repro.serving import SketchSnapshot

        return SketchSnapshot.from_sketcher(self.sketcher, **kwargs)


def _as_dense(data) -> np.ndarray:
    if hasattr(data, "toarray") and not isinstance(data, np.ndarray):
        return np.asarray(data.toarray(), dtype=np.float64)
    return np.asarray(data, dtype=np.float64)


def run_pilot(
    data,
    alpha: float,
    *,
    num_tables: int = 5,
    num_buckets: int = 4096,
    pilot_fraction: float = 0.05,
    mode: str = "correlation",
    seed: int = 0,
    extra_percentiles: tuple[float, ...] = (),
) -> PilotEstimates:
    """Estimate ``u`` and ``sigma`` from the first ``pilot_fraction`` of data.

    Follows section 8.1: insert the pilot prefix into a vanilla count
    sketch, query the pair estimates and take the ``(1 - alpha)``
    percentile as the signal strength ``u``; ``sigma`` is the section-7.2
    average-variance relaxation (RMS of pilot pair products).
    """
    dense = _as_dense(data)
    n, d = dense.shape
    n_pilot = max(min(n, 30), int(round(pilot_fraction * n)))
    pilot = dense[:n_pilot]

    sketch = CountSketch(num_tables, num_buckets, seed=seed + 101)
    estimator = SketchEstimator(sketch, total_samples=n_pilot, name="pilot")
    sketcher = CovarianceSketcher(
        d, estimator, mode=mode, batch_size=max(8, n_pilot // 8)
    )
    sketcher.fit_dense(pilot)

    p = num_pairs(d)
    if p <= 4_000_000:
        keys = np.arange(p, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed + 13)
        keys = rng.integers(0, p, size=200_000)
    estimates = estimator.estimate(keys)
    u = float(np.quantile(estimates, 1.0 - alpha))

    # sigma via the section-7.2 relaxation on the same (normalised) stream.
    if mode == "correlation":
        std = sketcher.sparse_moments.std(floor=sketcher.std_floor)
        work = pilot / std
    else:
        work = pilot
    gram_sq = 0.0
    for row in work:
        prod = np.outer(row, row)
        gram_sq += float((prod**2).sum() - (np.diag(prod) ** 2).sum()) / 2.0
    sigma = float(np.sqrt(gram_sq / (p * n_pilot)))

    percentiles = {
        q: float(np.quantile(estimates, q)) for q in extra_percentiles
    }
    return PilotEstimates(
        u=max(u, 1e-12),
        sigma=max(sigma, 1e-12),
        num_pilot_samples=n_pilot,
        percentiles=percentiles,
    )


def build_estimator(
    method: str,
    total_samples: int,
    num_tables: int,
    num_buckets: int,
    *,
    plan: ASCSPlan | None = None,
    seed: int = 0,
    track_top: int = 0,
    two_sided: bool = False,
    observer=None,
    filter_capacity: int | None = None,
    storage: str = "float64",
    quantum: float | None = None,
) -> SketchEstimator:
    """Construct any of the three comparable estimators at a common budget.

    ``storage``/``quantum`` select the counter tier of the backing sketch
    (:mod:`repro.sketch.storage`): ``"int16"``/``"int32"`` fixed-point
    tables hold the same ``(K, R)`` shape at 2/4 bytes per counter and
    widen exactly on saturation.  All three methods accept it.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    common = dict(
        track_top=track_top, two_sided=two_sided, observer=observer
    )
    tier = dict(dtype=storage, quantum=quantum)
    if method == "ascs":
        if plan is None:
            raise ValueError("method='ascs' requires a plan (run Algorithm 3 first)")
        sketch = CountSketch(num_tables, num_buckets, seed=seed, **tier)
        schedule = ThresholdSchedule.from_plan(plan, total_samples)
        return ActiveSamplingCountSketch(
            sketch, total_samples, schedule, name="ASCS", **common
        )
    if method == "cs":
        sketch = CountSketch(num_tables, num_buckets, seed=seed, **tier)
        return SketchEstimator(sketch, total_samples, name="CS", **common)
    capacity = filter_capacity or max(32, num_buckets // 64)
    # Charge the filter against the budget so comparisons stay fair.
    buckets = max(1, num_buckets - (2 * capacity) // num_tables)
    sketch = AugmentedSketch(
        num_tables,
        buckets,
        filter_capacity=capacity,
        seed=seed,
        two_sided=two_sided,
        **tier,
    )
    return SketchEstimator(sketch, total_samples, name="ASketch", **common)


def fit_sparse_sharded(samples, dim: int, **kwargs):
    """Sharded (optionally multiprocess) sparse ingestion — scale-out fit.

    Partitions a sparse sample stream into contiguous batch-aligned shards,
    sketches every shard with an independent estimator built from one
    shared :class:`repro.distributed.ShardSpec` (same seed → mergeable),
    and reduces the shard states into a single queryable estimator.

    Parameters (all keyword-only; see
    :func:`repro.distributed.driver.fit_sparse_sharded` for the full list)
    ----------------------------------------------------------------------
    samples:
        Iterable of sparse ``(indices, values)`` samples.
    dim:
        Feature dimension ``d``.
    method:
        ``"cs"`` (default) or ``"ascs"`` — only the linear-mergeable
        estimators; ``"ascs"`` also needs ``schedule`` (a
        :class:`repro.core.ThresholdSchedule` or its parameter tuple).
    n_workers, backend:
        ``backend="serial"`` (default) threads one estimator through the
        partition and is bit-identical to
        :meth:`repro.covariance.CovarianceSketcher.fit_sparse`;
        ``backend="process"`` maps shards over a ``multiprocessing`` pool
        and merges — exact for CS counters/moments up to float-addition
        regrouping, approximate in ASCS *selection* (each shard's sampling
        gate consulted its own partial sketch).  Merge laws and measured
        scaling: ``PERF.md`` ("Sharded ingestion").

    Returns
    -------
    :class:`repro.distributed.ShardedFit`; its ``sketcher`` answers
    ``estimate_keys`` / ``top_pairs`` like a ``fit_sparse`` result.
    """
    # Imported lazily: repro.distributed builds on repro.core, so a
    # module-level import here would be circular.
    from repro.distributed.driver import fit_sparse_sharded as _fit_sparse_sharded

    return _fit_sparse_sharded(samples, dim, **kwargs)


def sketch_correlations(
    data,
    memory_floats: int,
    *,
    method: str = "ascs",
    alpha: float = 0.01,
    top_k: int = 100,
    num_tables: int = 5,
    mode: str = "correlation",
    batch_size: int = 32,
    pilot_fraction: float = 0.05,
    tau0: float = 1e-4,
    delta: float | None = None,
    delta_star: float | None = None,
    u: float | None = None,
    sigma: float | None = None,
    two_sided: bool = False,
    decay: float | None = None,
    storage: str = "float64",
    quantum: float | None = None,
    seed: int = 0,
) -> SketchResult:
    """One-pass sparse correlation estimation with a memory budget.

    Parameters
    ----------
    data:
        ``(n, d)`` dense array or scipy sparse matrix.  Rows are treated as
        one ordered stream (shuffle upstream if your data is not i.i.d.,
        section 3).
    memory_floats:
        Total sketch budget ``M``; the paper's recipe ``R = M / K`` sizes
        the tables.
    method:
        ``"ascs"`` (default), ``"cs"`` or ``"asketch"``.
    alpha:
        Assumed fraction of signal pairs (Table 3 lists the paper's picks).
    u, sigma:
        Optional overrides for the pilot estimates.
    top_k:
        Number of top pairs to return.
    decay:
        Optional per-sample exponential decay factor in ``(0, 1)``.
        Estimates become recency-weighted (decayed) means, which track
        drifting streams instead of the all-time average — see
        :mod:`repro.streaming`.  Supported for ``method="cs"`` only: the
        ASCS threshold schedule and the filter baselines are calibrated
        against undecayed mass.
    storage, quantum:
        Counter tier of the backing sketch (:mod:`repro.sketch.storage`).
        ``storage="int16"`` stores fixed-point counters at 2 bytes each —
        4x the buckets of float64 at the same byte budget — widening
        exactly on saturation; :func:`repro.sketch.planner.plan` picks
        these (plus ``K``/``R``) from a byte budget directly.

    Returns
    -------
    :class:`SketchResult` with the top pairs sorted by decreasing estimate.
    """
    dense = _as_dense(data)
    n, d = dense.shape
    num_buckets = max(16, int(memory_floats) // int(num_tables))

    if decay is not None:
        if method != "cs":
            raise ValueError(
                "decay is supported for method='cs' only (the ASCS schedule "
                f"and filter baselines assume undecayed mass), got {method!r}"
            )
        # Lazy import: repro.streaming builds on repro.core.
        from repro.streaming import make_decaying_sketcher

        sketcher = make_decaying_sketcher(
            d,
            n,
            gamma=float(decay),
            num_tables=num_tables,
            num_buckets=num_buckets,
            seed=seed,
            mode=mode,
            batch_size=batch_size,
            track_top=max(4 * top_k, 64),
            two_sided=two_sided,
            storage=storage,
            quantum=quantum,
        )
        sketcher.fit_dense(dense)
        i, j, estimates = sketcher.top_pairs(top_k)
        return SketchResult(
            pairs_i=i,
            pairs_j=j,
            estimates=estimates,
            method=method,
            plan=None,
            pilot=None,
            sketcher=sketcher,
        )

    pilot = None
    plan = None
    if method == "ascs":
        if u is None or sigma is None:
            pilot = run_pilot(
                dense,
                alpha,
                num_tables=num_tables,
                num_buckets=num_buckets,
                pilot_fraction=pilot_fraction,
                mode=mode,
                seed=seed,
            )
            u = u if u is not None else pilot.u
            sigma = sigma if sigma is not None else pilot.sigma
        model = ProblemModel(
            p=num_pairs(d),
            alpha=alpha,
            u=u,
            sigma=sigma,
            T=n,
            num_tables=num_tables,
            num_buckets=num_buckets,
        )
        plan = plan_hyperparameters(
            model, tau0=tau0, delta=delta, delta_star=delta_star
        )

    estimator = build_estimator(
        method,
        n,
        num_tables,
        num_buckets,
        plan=plan,
        seed=seed,
        two_sided=two_sided,
        track_top=max(4 * top_k, 64),
        storage=storage,
        quantum=quantum,
    )
    sketcher = CovarianceSketcher(d, estimator, mode=mode, batch_size=batch_size)
    sketcher.fit_dense(dense)

    i, j, estimates = sketcher.top_pairs(top_k)
    return SketchResult(
        pairs_i=i,
        pairs_j=j,
        estimates=estimates,
        method=method,
        plan=plan,
        pilot=pilot,
        sketcher=sketcher,
    )

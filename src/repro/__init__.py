"""repro — Active Sampling Count Sketch (ASCS), SIGMOD 2021 reproduction.

Online one-pass sparse estimation of very large covariance/correlation
matrices.  The package layers:

* :mod:`repro.hashing` — pair-index algebra and multiply-shift hashing;
* :mod:`repro.sketch` — count sketch, ASketch, top-k tracking;
* :mod:`repro.covariance` — streaming moments, pair updates, the pipeline;
* :mod:`repro.theory` — Theorems 1-3 and the Algorithm-3 planner;
* :mod:`repro.core` — ASCS itself and the high-level API;
* :mod:`repro.distributed` — sharded parallel ingestion: mergeable shard
  workers, the merge-law reducer and the ``fit_sparse_sharded`` driver;
* :mod:`repro.serving` — the read path: immutable query-optimized
  snapshots, the cached single-gather query engine, double-buffered
  concurrent ingest/serve and a stdlib HTTP front end;
* :mod:`repro.streaming` — recency over unbounded streams: exponential
  time decay (lazy O(1) scale) and sliding windows as rings of mergeable
  panes;
* :mod:`repro.obs` — dependency-free observability: the metrics registry
  behind every ``stats()`` view and the ``/metrics`` exposition, request
  tracing, structured JSON logging and the accuracy probe;
* :mod:`repro.autoscale` — adaptive re-sketching: the online
  ``AutoScaler`` loop that watches the accuracy probe's gauges and
  re-shapes a live serving stack through history-preserving migrations;
* :mod:`repro.data` — synthetic datasets and stream generators;
* :mod:`repro.evaluation` — paper metrics and the comparison harness;
* :mod:`repro.experiments` — one module per paper table/figure;
* :mod:`repro.reference` — pre-fusion reference implementations used by
  the equivalence tests and kernel benchmarks.

Performance architecture: every per-update hot path is a fused vectorised
pass over all ``K`` hash tables at once — stacked hash parameters produce
``(K, n)`` bucket/sign matrices in one broadcast, counters live in a flat
``(K*R,)`` array scattered/gathered through single numpy kernels, and the
tracker and sparse pair expansion are loop-free.  See ``PERF.md`` for the
layout, the fused hash contract, measured throughput, and
``benchmarks/bench_kernels.py`` / ``benchmarks/run_bench.py`` usage.

Quick start::

    import numpy as np
    from repro import sketch_correlations
    from repro.data import BlockCorrelationModel

    model = BlockCorrelationModel.from_alpha(300, alpha=0.01, seed=7)
    data = model.sample(4000)
    result = sketch_correlations(data, memory_floats=20_000, method="ascs",
                                 alpha=0.01, top_k=20)
    for i, j, est in zip(result.pairs_i, result.pairs_j, result.estimates):
        print(f"({i:3d},{j:3d})  corr-estimate={est:+.3f}")
"""

from repro.autoscale import AutoScaler, plan_from_spec
from repro.core import (
    ActiveSamplingCountSketch,
    SketchEstimator,
    SketchResult,
    ThresholdSchedule,
    build_estimator,
    fit_sparse_sharded,
    run_pilot,
    sketch_correlations,
)
from repro.covariance import CovarianceSketcher
from repro.obs import (
    AccuracyProbe,
    MetricsRegistry,
    Tracer,
    get_logger,
    render_exposition,
)
from repro.obs import configure as configure_logging
from repro.serving import (
    CheckpointManager,
    QueryEngine,
    ServingEstimator,
    SketchSnapshot,
)
from repro.sketch import CountSketch, DecayedSketch
from repro.streaming import (
    DecayingSketcher,
    PaneRing,
    make_decaying_sketcher,
)
from repro.theory import ProblemModel, plan_hyperparameters

__version__ = "1.0.0"

__all__ = [
    "AccuracyProbe",
    "ActiveSamplingCountSketch",
    "AutoScaler",
    "CheckpointManager",
    "CountSketch",
    "CovarianceSketcher",
    "DecayedSketch",
    "DecayingSketcher",
    "MetricsRegistry",
    "PaneRing",
    "ProblemModel",
    "QueryEngine",
    "ServingEstimator",
    "SketchEstimator",
    "SketchResult",
    "SketchSnapshot",
    "ThresholdSchedule",
    "Tracer",
    "build_estimator",
    "configure_logging",
    "fit_sparse_sharded",
    "get_logger",
    "make_decaying_sketcher",
    "plan_from_spec",
    "plan_hyperparameters",
    "render_exposition",
    "run_pilot",
    "sketch_correlations",
    "__version__",
]

"""Recency-weighted (exponentially decayed) streaming estimation.

The write-side counterpart of :class:`repro.sketch.DecayedSketch`: the
moment tracker, the estimator and the pipeline subclass that together turn
the one-pass covariance sketcher into an *online* estimator whose answers
track the recent stream instead of the all-time average.

Decay is clocked in **samples**: every ingested batch of ``b`` samples ages
all previously accumulated mass by ``gamma**b`` before the new batch enters
at full weight (batch-granular decay — the same coarsening batching already
applies to the ASCS sampling decisions).  Dense rows age it the same way:
``fit_dense`` feeds them through ``fit_sparse`` as samples that observe
every feature.  All aging is lazy scalar work: the sketch keeps one
pending scale (see :mod:`repro.sketch.decay`) and the moment tracker keeps
another, so the fused scatter/gather hot paths and the O(nnz) moment
updates are untouched.

Estimates are **decayed means**: with decayed mass ``S(t) = sum_k
gamma^(t - t_k) v_k`` and decayed weight ``W(t) = sum_k gamma^(t - t_k)``,
the estimator returns ``S(t) / W(t)`` — which equals the plain stream mean
when ``gamma == 1`` and converges to the post-drift mean within a few decay
half-lives after an abrupt distribution change.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Observer, SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.sketch.base import scatter_add_flat
from repro.sketch.count_sketch import CountSketch
from repro.sketch.decay import DecayedSketch, decay_from_half_life

__all__ = [
    "DecayedSparseMoments",
    "DecayedSketchEstimator",
    "DecayingSketcher",
    "make_decaying_sketcher",
]

#: Lazy-scale flush bound of the moment tracker (see DecayedSketch).
_FLUSH_BELOW = 2.0**-40


class DecayedSparseMoments:
    """Decayed per-feature moments for sparse streams — O(nnz) updates.

    The recency-weighted analogue of
    :class:`repro.covariance.SparseMoments`: ``mean`` and ``variance`` are
    computed from exponentially decayed ``sum`` / ``sum of squares`` /
    sample-weight accumulators.  ``weight`` (the decayed effective count)
    replaces ``count`` in every ratio.

    Accumulators store values in a floating unit: the *actual* decayed
    accumulator is ``stored * _scale``.  Aging multiplies ``_scale`` (O(1));
    additions divide the incoming contribution by ``_scale`` (same cost as
    the undecayed update); ratios like ``mean = sum / weight`` never need
    the scale at all because it cancels.
    """

    def __init__(self, dim: int, gamma: float):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.gamma = float(gamma)
        self._scale = 1.0
        self.dim = int(dim)
        self.count = 0
        self.flushes = 0
        self._weight = 0.0
        self._sum = np.zeros(self.dim, dtype=np.float64)
        self._sumsq = np.zeros(self.dim, dtype=np.float64)

    def _age(self, num_samples: int) -> None:
        if self.gamma == 1.0 or num_samples == 0:
            return
        self._scale *= self.gamma ** int(num_samples)
        if self._scale < _FLUSH_BELOW:
            self._flush()

    def _flush(self) -> None:
        self._sum *= self._scale
        self._sumsq *= self._scale
        self._weight *= self._scale
        self._scale = 1.0
        self.flushes += 1

    def update_batch(
        self, indices: np.ndarray, values: np.ndarray, num_samples: int
    ) -> None:
        """Age existing mass by ``gamma**num_samples``, then fold the batch in."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        self._age(num_samples)
        if indices.size:
            if self._scale != 1.0:
                values = values / self._scale
                squares = values * values * self._scale
            else:
                squares = values * values
            use_bincount = indices.size * 16 >= self.dim
            scatter_add_flat(self._sum, indices, values, use_bincount=use_bincount)
            scatter_add_flat(self._sumsq, indices, squares, use_bincount=use_bincount)
        self.count += int(num_samples)
        self._weight += int(num_samples) / self._scale

    @property
    def weight(self) -> float:
        """Decayed effective sample count ``sum_k gamma^(age_k)``."""
        return self._weight * self._scale

    @property
    def mean(self) -> np.ndarray:
        if self._weight == 0.0:
            return np.zeros(self.dim)
        return self._sum / self._weight

    def variance(self) -> np.ndarray:
        if self._weight == 0.0:
            return np.full(self.dim, np.nan)
        mean = self._sum / self._weight
        return np.maximum(self._sumsq / self._weight - mean * mean, 0.0)

    def std(self, floor: float = 0.0) -> np.ndarray:
        return np.maximum(np.sqrt(self.variance()), floor)


class DecayedSketchEstimator(SketchEstimator):
    """Ingest-everything estimator whose answers are decayed stream means.

    Wraps a :class:`repro.sketch.DecayedSketch`: every ``ingest`` ticks the
    decay clock by the batch's sample count before inserting (so earlier
    mass ages, the new batch enters at full weight), and ``estimate``
    renormalises the sketch content by ``total_samples / decayed_weight``
    so queries return decayed means in the same units the undecayed
    estimator reports.  Snapshot export folds the same factor into the
    frozen sketch's lazy scale — one float product — so serving snapshots
    answer **bit-identically** to :meth:`estimate` at export time.
    """

    def __init__(
        self,
        sketch: DecayedSketch,
        total_samples: int,
        *,
        track_top: int = 0,
        two_sided: bool = False,
        observer: Observer | None = None,
        name: str = "DecayedCS",
    ):
        if not isinstance(sketch, DecayedSketch):
            raise TypeError(
                "DecayedSketchEstimator requires a DecayedSketch, got "
                f"{type(sketch).__name__}"
            )
        super().__init__(
            sketch,
            total_samples,
            track_top=track_top,
            two_sided=two_sided,
            observer=observer,
            name=name,
        )
        self.decayed_weight = 0.0

    @property
    def gamma(self) -> float:
        return self.sketch.gamma

    def _norm(self) -> float:
        """``total_samples / decayed_weight`` — undoes the 1/T ingest scaling
        and divides by the decayed effective count in one factor."""
        if self.decayed_weight <= 0.0:
            return 1.0
        return self.total_samples / self.decayed_weight

    def ingest(self, keys, values, num_samples: int = 1) -> None:
        self.sketch.tick(num_samples)
        self.decayed_weight = (
            self.decayed_weight * self.gamma ** int(num_samples) + int(num_samples)
        )
        super().ingest(keys, values, num_samples)

    def estimate(self, keys) -> np.ndarray:
        return self.sketch.query_scaled(keys, self._norm())

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        keys, estimates = super().top_k(k)
        norm = self._norm()
        if norm != 1.0:
            estimates = estimates * norm
        return keys, estimates

    def export_snapshot_state(self) -> dict:
        state = super().export_snapshot_state()
        # Bake the decayed-mean normalisation into the frozen copy's lazy
        # scale: snapshot queries compute backing * (scale * norm) — the
        # exact product estimate() uses — so they stay bit-identical.
        frozen = state["sketch"]
        frozen._scale = frozen._scale * self._norm()
        state["decay"] = self.gamma
        state["decayed_weight"] = self.decayed_weight
        return state


class DecayingSketcher(CovarianceSketcher):
    """Covariance pipeline whose sketch *and* moments forget exponentially.

    A drop-in :class:`repro.covariance.CovarianceSketcher` subclass: the
    per-feature moment tracker is replaced with its decayed variant (so
    correlation-mode normalisation uses the *recent* stds) and the
    estimator is expected to tick the sketch's decay clock per batch
    (:class:`DecayedSketchEstimator` does).  Build one with
    :func:`make_decaying_sketcher`.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`, optional) receives
    the decay telemetry: the moment tracker's lazy-scale flush count, the
    decayed effective weight, and the configured gamma —
    all evaluated at collect time, so the ingest hot path is untouched.
    """

    def __init__(
        self,
        dim: int,
        estimator,
        *,
        gamma: float,
        registry: MetricsRegistry | None = None,
        **kwargs,
    ):
        super().__init__(dim, estimator, **kwargs)
        self.decay = float(gamma)
        self.sparse_moments = DecayedSparseMoments(self.dim, self.decay)
        self.registry = registry if registry is not None else NullRegistry()
        reg = self.registry
        reg.gauge_fn(
            "repro_decay_flushes",
            lambda: self.sparse_moments.flushes,
            "lazy-scale flushes of the decayed moment tracker",
        )
        reg.gauge_fn(
            "repro_decay_weight",
            lambda: self.estimator.decayed_weight
            if hasattr(self.estimator, "decayed_weight")
            else self.sparse_moments.weight,
            "decayed effective sample count of the estimator",
        )
        reg.gauge_fn(
            "repro_decay_gamma",
            lambda: self.decay,
            "per-sample decay factor",
        )


def make_decaying_sketcher(
    dim: int,
    total_samples: int,
    *,
    gamma: float | None = None,
    half_life: float | None = None,
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
    registry: MetricsRegistry | None = None,
) -> DecayingSketcher:
    """One-call factory: decayed count sketch + estimator + pipeline.

    Exactly one of ``gamma`` (per-sample decay factor) and ``half_life``
    (samples until mass halves) must be given.  The returned pipeline is
    used like any :class:`~repro.covariance.CovarianceSketcher` —
    ``fit_dense`` / ``fit_sparse`` / ``estimate_keys`` / ``top_pairs`` —
    and serves through the snapshot/engine read path unchanged.

    ``storage``/``quantum`` select the counter tier
    (:mod:`repro.sketch.storage`).  ``float32`` halves decayed-table
    memory; quantized (int16/int32) backings are rejected by
    :class:`~repro.sketch.DecayedSketch` — decayed inserts store values
    scaled by ``1/gamma^ticks``, which outgrows any fixed-point range.
    """
    if (gamma is None) == (half_life is None):
        raise ValueError("specify exactly one of gamma and half_life")
    if gamma is None:
        gamma = decay_from_half_life(half_life)
    sketch = DecayedSketch(
        CountSketch(
            num_tables, num_buckets, seed=seed, dtype=storage, quantum=quantum
        ),
        gamma,
    )
    estimator = DecayedSketchEstimator(
        sketch, total_samples, track_top=track_top, two_sided=two_sided
    )
    return DecayingSketcher(
        dim,
        estimator,
        gamma=gamma,
        registry=registry,
        mode=mode,
        batch_size=batch_size,
        std_floor=std_floor,
    )

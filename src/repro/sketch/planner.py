"""Capacity planner for the compact memory tier.

The paper sizes sketches in *counters* (``M`` floats, ``R = M / K``); the
memory tier makes *bytes per counter* the real lever: at a fixed byte
budget, int16 fixed-point storage buys 4x the buckets of float64, and
collision noise shrinks linearly in ``R`` (Lemma 1's ``1/R`` variance),
while the quantization it introduces is bounded by half a quantum — orders
of magnitude below the paper's signal strengths.

:func:`plan` turns ``(n_features, memory budget)`` into a concrete
``(K, R, dtype, quantum)`` recommendation::

    from repro.sketch.planner import plan

    p = plan(n_features=1_000_000, budget_mb=64)
    sketch = p.build_sketch(seed=7)          # ready for SketchEstimator
    p.predicted_bytes_per_counter            # 2.0 for int16
    p.measured_bytes_per_counter(sketch)     # == 2.0 until promotion

and reports the prediction the benchmarks verify: predicted vs measured
bytes/counter (``benchmarks/bench_memory.py`` commits the measured
numbers to ``BENCH_memory.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hashing.pairs import num_pairs
from repro.sketch.count_sketch import CountSketch
from repro.sketch.hierarchical import HierarchicalCountSketch
from repro.sketch.storage import STORAGE_DTYPES, resolve_storage

__all__ = ["CapacityPlan", "ObservedSignals", "Replan", "plan", "replan"]


def _finite_knob(name: str, value) -> float:
    """Reject NaN/inf knobs before they poison a quantum downstream.

    ``NaN <= 0`` is False, so a NaN budget or value range sails past every
    ordering check and turns into a NaN quantum that silently zeroes (or
    NaN-fills) every quantized table built from the plan.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value

#: Storage candidates, narrowest first — the order :func:`plan` tries.
_CANDIDATES = ("int16", "int32", "float32", "float64")

#: Default ratio of the int range reserved above ``value_range``: with
#: headroom 1.25, values may overshoot the declared range by 25% before
#: the (exact, automatic) widening kicks in.
DEFAULT_HEADROOM = 1.25


@dataclass(frozen=True)
class CapacityPlan:
    """A concrete sketch sizing for one (features, budget) problem.

    Attributes
    ----------
    n_features, num_pairs:
        The problem: ``d`` features stream ``d*(d-1)/2`` pair keys.
    budget_bytes:
        The byte budget the plan was fitted to.
    num_tables, num_buckets, storage, quantum:
        The recommendation: build with :meth:`build_sketch`.
    predicted_bytes_per_counter:
        Bytes each counter occupies while the declared dtype holds
        (quantized tables widen — exactly — if the stream saturates them;
        :meth:`measured_bytes_per_counter` reports the realised figure).
    counters_vs_float64:
        How many more counters this storage affords than float64 at the
        same budget (4.0 for int16).
    predicted_snr_gain_db:
        Collision-noise reduction vs a float64 plan at the same budget:
        variance scales as ``1/R`` (Lemma 1), so
        ``10 * log10(counters_vs_float64)``.
    quantization_step_rel:
        ``quantum / value_range`` — the relative resolution floor
        quantization adds (0 for float storage).
    levels, branching:
        Hierarchical-index depth and fan-out.  ``levels == 1`` is the flat
        sketch; deeper plans split the byte budget evenly across levels
        (each level is a full ``K x R`` table), buying open-world
        ``find_heavy`` discovery at the cost of ``1/levels`` of the
        buckets — the depth-vs-width trade the planner makes explicit.
    """

    n_features: int
    num_pairs: int
    budget_bytes: int
    num_tables: int
    num_buckets: int
    storage: str
    quantum: float | None
    predicted_bytes_per_counter: float
    counters_vs_float64: float
    predicted_snr_gain_db: float
    quantization_step_rel: float
    levels: int = 1
    branching: int = 16

    @property
    def total_counters(self) -> int:
        return self.levels * self.num_tables * self.num_buckets

    @property
    def predicted_total_bytes(self) -> int:
        return int(self.total_counters * self.predicted_bytes_per_counter)

    def build_sketch(self, *, seed: int = 0):
        """A sketch following this plan.

        Flat plans (``levels == 1``) build a
        :class:`~repro.sketch.CountSketch`; deeper plans build a
        :class:`~repro.sketch.HierarchicalCountSketch` over the pair-key
        space, ready for open-world ``find_heavy`` discovery.
        """
        if self.levels > 1:
            return HierarchicalCountSketch(
                self.num_tables,
                self.num_buckets,
                key_space=self.num_pairs,
                branching=self.branching,
                levels=self.levels,
                seed=seed,
                dtype=self.storage,
                quantum=self.quantum,
            )
        return CountSketch(
            self.num_tables,
            self.num_buckets,
            seed=seed,
            dtype=self.storage,
            quantum=self.quantum,
        )

    def measured_bytes_per_counter(self, sketch) -> float:
        """Realised bytes/counter of a (possibly fitted) sketch.

        Compare with :attr:`predicted_bytes_per_counter`: a gap means the
        stream saturated the declared dtype and the table widened.
        """
        return sketch.memory_bytes / sketch.memory_floats

    def to_dict(self) -> dict:
        """JSON-ready summary (benchmarks embed this in their reports)."""
        return {
            "n_features": self.n_features,
            "num_pairs": self.num_pairs,
            "budget_bytes": self.budget_bytes,
            "num_tables": self.num_tables,
            "num_buckets": self.num_buckets,
            "storage": self.storage,
            "quantum": self.quantum,
            "predicted_bytes_per_counter": self.predicted_bytes_per_counter,
            "counters_vs_float64": self.counters_vs_float64,
            "predicted_snr_gain_db": self.predicted_snr_gain_db,
            "levels": self.levels,
            "branching": self.branching,
        }


def plan(
    n_features: int,
    budget_mb: float,
    *,
    num_tables: int = 5,
    storage: str | None = None,
    value_range: float = 1.0,
    target_f1: float | None = None,
    quantization_tolerance: float | None = None,
    headroom: float = DEFAULT_HEADROOM,
    pow2_buckets: bool = False,
    levels: int = 1,
    branching: int = 16,
) -> CapacityPlan:
    """Recommend ``(K, R, dtype, quantum)`` for a byte budget.

    Parameters
    ----------
    n_features:
        Feature dimension ``d`` of the covariance problem (the key space
        is its pair count — reported on the plan for sanity checks).
    budget_mb:
        Counter-memory budget in MiB.
    num_tables:
        ``K`` (the paper's 5 unless you know better).
    storage:
        Pin a storage dtype instead of letting the planner pick.  When
        ``None`` the narrowest candidate whose relative quantization step
        is below the tolerance wins — int16 for every realistic
        correlation workload.
    value_range:
        Largest accumulated |counter| the tables must represent without
        widening.  Sets the fixed-point quantum:
        ``headroom * value_range / int_max``.  Note a *bucket* holds the
        signed sum of every colliding key's mass, so on dense signal
        regimes (many strong pairs per bucket — ``alpha * p / R`` large)
        counters can stack past the per-estimate bound; exceeding it is
        always safe — the table widens exactly — it just costs the bytes
        the narrow rung promised to save (1.0 works for correlation mode
        with sparse signals; pass the expected stack height otherwise).
    target_f1, quantization_tolerance:
        Accuracy demand.  ``quantization_tolerance`` bounds
        ``quantum / value_range`` directly; ``target_f1`` is a convenience
        mapping (``1 - target_f1``, clamped to [1e-5, 0.05]) for callers
        thinking in retrieval terms.  Defaults to 1e-3 — roughly 30x
        coarser than int16 actually delivers, so int16 is the default
        recommendation, as it should be.
    headroom:
        Saturation margin above ``value_range`` (see
        :data:`DEFAULT_HEADROOM`).  Exceeding it is safe — the table
        widens exactly — it just costs the memory the plan promised to
        save.
    pow2_buckets:
        Round ``R`` down to a power of two (bitmask bucket ranges).
    levels, branching:
        Hierarchical-index depth and fan-out (``levels == 1`` keeps the
        flat sketch).  A depth-``L`` plan holds ``L`` full ``K x R``
        tables, so the same byte budget buys ``1/L`` of the buckets —
        collision noise grows by ``10*log10(L)`` dB in exchange for
        open-world ``find_heavy`` discovery over the whole pair space.
    """
    if n_features < 2:
        raise ValueError(f"n_features must be >= 2, got {n_features}")
    budget_mb = _finite_knob("budget_mb", budget_mb)
    if budget_mb <= 0:
        raise ValueError(f"budget_mb must be > 0, got {budget_mb}")
    if num_tables < 1:
        raise ValueError(f"num_tables must be >= 1, got {num_tables}")
    value_range = _finite_knob("value_range", value_range)
    if value_range <= 0:
        raise ValueError(f"value_range must be > 0, got {value_range}")
    headroom = _finite_knob("headroom", headroom)
    if headroom < 1.0:
        raise ValueError(f"headroom must be >= 1, got {headroom}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if branching < 2:
        raise ValueError(f"branching must be >= 2, got {branching}")
    if quantization_tolerance is None:
        if target_f1 is not None:
            target_f1 = _finite_knob("target_f1", target_f1)
            if not 0.0 < target_f1 < 1.0:
                raise ValueError(f"target_f1 must be in (0, 1), got {target_f1}")
            quantization_tolerance = min(max(1.0 - target_f1, 1e-5), 0.05)
        else:
            quantization_tolerance = 1e-3
    else:
        quantization_tolerance = _finite_knob(
            "quantization_tolerance", quantization_tolerance
        )

    budget_bytes = int(budget_mb * (1 << 20))

    def step_rel(name: str) -> float:
        dtype = np.dtype(name)
        if dtype.kind != "i":
            return 0.0
        return headroom / float(np.iinfo(dtype).max)

    if storage is not None:
        chosen = resolve_storage(storage).name
    else:
        chosen = "float64"
        for candidate in _CANDIDATES:
            if step_rel(candidate) <= quantization_tolerance:
                chosen = candidate
                break
    if chosen not in STORAGE_DTYPES:  # pragma: no cover - resolve_storage guards
        raise ValueError(f"unsupported storage {chosen!r}")

    itemsize = np.dtype(chosen).itemsize
    # The budget covers every level's K x R table, so depth divides width.
    num_buckets = max(16, budget_bytes // (levels * num_tables * itemsize))
    if pow2_buckets:
        num_buckets = 1 << (int(num_buckets).bit_length() - 1)
    # The float64 reference also carries `levels` tables: the reported SNR
    # gain isolates the storage effect, not the depth-vs-width trade.
    buckets_f64 = max(16, budget_bytes // (levels * num_tables * 8))
    if pow2_buckets:
        buckets_f64 = 1 << (int(buckets_f64).bit_length() - 1)

    quantum = None
    if np.dtype(chosen).kind == "i":
        quantum = headroom * value_range / float(np.iinfo(np.dtype(chosen)).max)

    gain = num_buckets / buckets_f64
    return CapacityPlan(
        n_features=int(n_features),
        num_pairs=int(num_pairs(int(n_features))),
        budget_bytes=budget_bytes,
        num_tables=int(num_tables),
        num_buckets=int(num_buckets),
        storage=chosen,
        quantum=quantum,
        predicted_bytes_per_counter=float(itemsize),
        counters_vs_float64=float(gain),
        predicted_snr_gain_db=float(10.0 * np.log10(gain)) if gain > 0 else 0.0,
        quantization_step_rel=float(step_rel(chosen)),
        levels=int(levels),
        branching=int(branching),
    )


@dataclass(frozen=True)
class ObservedSignals:
    """What the live system measured — the input half of :func:`replan`.

    Fields default to ``None`` (= not observed); :func:`replan` skips any
    trigger whose signal is missing or non-finite, so a partially
    instrumented stack degrades to fewer triggers instead of garbage
    decisions.

    Attributes
    ----------
    samples_seen:
        Write-side stream position when the observation was taken.
    collision_energy:
        Mean squared estimate at never-inserted sentinel keys
        (:class:`repro.obs.AccuracyProbe`) — pure collision/noise mass,
        the live proxy for Lemma 1's ``||f||^2 / R`` variance.
    rosnr:
        Observed SNR over the baseline SNR (the probe's ROSNR gauge, or
        the read-side ``estimate_snr`` normalised by its first reading).
    topk_churn:
        Fraction of the top-K set replaced since the last probe sample —
        the drift signal.
    saturation:
        Largest |counter| as a fraction of the quantized dtype's range
        (:attr:`repro.sketch.storage.CounterStore.saturation`); 0 for
        float storage.
    """

    samples_seen: int = 0
    collision_energy: float | None = None
    rosnr: float | None = None
    topk_churn: float | None = None
    saturation: float | None = None


@dataclass(frozen=True)
class Replan:
    """One re-planning decision: the action, the new plan, and why.

    ``action`` is one of ``"hold"`` (no change), ``"grow"`` (wider
    buckets at a bigger byte budget), ``"demote"`` (same shape, cold
    history pushed onto the int16 fixed-point rung) or
    ``"escalate_decay"`` (same sketch, ``window_scale`` < 1 asks the
    windowed write side to retain fewer panes — the pane-ring spelling of
    a faster decay).  ``plan`` is always a complete :class:`CapacityPlan`
    (equal to ``current`` for holds and pure window changes), so callers
    migrate with a full recipe, never a diff they must apply themselves.
    """

    action: str
    plan: CapacityPlan
    reason: str
    window_scale: float = 1.0

    @property
    def changed(self) -> bool:
        return self.action != "hold"


def _sized(current: CapacityPlan, *, budget_bytes: int, storage: str) -> CapacityPlan:
    """Re-run :func:`plan` for a new budget/storage, keeping the rest."""
    return plan(
        current.n_features,
        budget_bytes / float(1 << 20),
        num_tables=current.num_tables,
        storage=storage,
        levels=current.levels,
        branching=current.branching,
    )


def replan(
    current: CapacityPlan,
    observed: ObservedSignals,
    *,
    collision_ceiling: float | None = None,
    rosnr_floor: float | None = None,
    churn_ceiling: float | None = 0.5,
    saturation_ceiling: float | None = 0.85,
    demote_collision_floor: float | None = None,
    growth: float = 2.0,
    window_shrink: float = 0.5,
    max_budget_bytes: int | None = None,
) -> Replan:
    """The planner-loop delta API: ``(current plan, observations) -> next``.

    A pure function — no clocks, no cooldowns, no migration mechanics;
    :class:`repro.autoscale.AutoScaler` owns cadence and execution.  The
    triggers, checked in severity order (first match wins):

    1. **saturation** >= ``saturation_ceiling`` — the quantized table is
       about to widen (which is exact but silently doubles residency);
       grow instead, spreading mass over more buckets.
    2. **collision_energy** > ``collision_ceiling`` or **rosnr** <
       ``rosnr_floor`` — collision noise ate the SNR margin; grow the
       byte budget by ``growth`` (collision variance shrinks as ``1/R``,
       Lemma 1).
    3. **topk_churn** > ``churn_ceiling`` — the heavy set itself is
       moving (drift); keep the sketch, shrink the retained window by
       ``window_shrink`` so stale mass ages out faster.
    4. **collision_energy** < ``demote_collision_floor`` on float storage
       — quiet regime; demote cold history to int16 fixed point at the
       same ``(K, R)`` (4x fewer bytes, quantization noise bounded by
       half a quantum).

    ``None`` disables a trigger; non-finite thresholds are rejected, and
    non-finite *observations* are treated as missing (a probe that has
    not closed a window yet reports NaN — that must never trigger a
    migration).  ``max_budget_bytes`` caps growth: at the cap the grow
    triggers hold instead, so a noisy workload cannot ratchet memory
    unboundedly.
    """
    for name, threshold in (
        ("collision_ceiling", collision_ceiling),
        ("rosnr_floor", rosnr_floor),
        ("churn_ceiling", churn_ceiling),
        ("saturation_ceiling", saturation_ceiling),
        ("demote_collision_floor", demote_collision_floor),
    ):
        if threshold is not None:
            _finite_knob(name, threshold)
    growth = _finite_knob("growth", growth)
    if growth <= 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    window_shrink = _finite_knob("window_shrink", window_shrink)
    if not 0.0 < window_shrink < 1.0:
        raise ValueError(f"window_shrink must be in (0, 1), got {window_shrink}")

    def signal(value: float | None) -> float | None:
        if value is None:
            return None
        value = float(value)
        return value if math.isfinite(value) else None

    collision = signal(observed.collision_energy)
    rosnr = signal(observed.rosnr)
    churn = signal(observed.topk_churn)
    saturation = signal(observed.saturation)

    def grow(reason: str) -> Replan:
        target = int(current.budget_bytes * growth)
        if max_budget_bytes is not None and target > max_budget_bytes:
            if current.budget_bytes >= max_budget_bytes:
                return Replan(
                    "hold",
                    current,
                    f"{reason}; already at the {max_budget_bytes}-byte cap",
                )
            target = int(max_budget_bytes)
        return Replan(
            "grow",
            _sized(current, budget_bytes=target, storage=current.storage),
            reason,
        )

    if saturation_ceiling is not None and saturation is not None:
        if saturation >= saturation_ceiling:
            return grow(
                f"counter saturation {saturation:.2f} >= {saturation_ceiling:.2f}"
            )
    if collision_ceiling is not None and collision is not None:
        if collision > collision_ceiling:
            return grow(
                f"collision energy {collision:.3g} > {collision_ceiling:.3g}"
            )
    if rosnr_floor is not None and rosnr is not None:
        if rosnr < rosnr_floor:
            return grow(f"ROSNR {rosnr:.3g} < floor {rosnr_floor:.3g}")
    if churn_ceiling is not None and churn is not None:
        if churn > churn_ceiling:
            return Replan(
                "escalate_decay",
                current,
                f"top-K churn {churn:.2f} > {churn_ceiling:.2f}",
                window_scale=window_shrink,
            )
    if (
        demote_collision_floor is not None
        and collision is not None
        and collision < demote_collision_floor
        and np.dtype(current.storage).kind == "f"
    ):
        demoted = _sized(
            current,
            budget_bytes=current.levels
            * current.num_tables
            * current.num_buckets
            * np.dtype("int16").itemsize,
            storage="int16",
        )
        return Replan(
            "demote",
            demoted,
            f"collision energy {collision:.3g} < {demote_collision_floor:.3g}; "
            "demoting cold history to int16",
        )
    return Replan("hold", current, "no trigger fired")

"""Cold Filter (Zhou et al. — SIGMOD 2018), value-adapted.

Cold Filter is a meta-framework: a cheap low-resolution layer absorbs the
long tail of cold items, and only items whose accumulated mass crosses a
threshold are forwarded to the accurate (expensive) structure behind it.
Here the gate is a conservative-update count-min over *absolute* update
mass with saturating counters, and the accurate structure is a count sketch
holding the signed values of hot keys.

Query semantics: a key that never crossed the gate is estimated by the
(signed) mass it left in the gate — which for covariance streams is clipped
at the threshold, exactly the "cold items don't matter" trade Cold Filter
makes; hot keys are estimated by gate threshold + count sketch remainder.
For top-correlation retrieval only hot keys matter, so the harness treats
the gate as a pure SNR booster, the same role it plays in the paper's
comparison (section 8.3 skips Cold Filter "due to its similarity to
Augmented Sketch" — we implement it anyway).
"""

from __future__ import annotations

import numpy as np

from repro.sketch.base import ValueSketch, ensure_mergeable, validate_batch
from repro.sketch.count_min import CountMinSketch
from repro.sketch.count_sketch import CountSketch

__all__ = ["ColdFilterSketch"]


class ColdFilterSketch(ValueSketch):
    """Two-layer cold filter over a count sketch.

    Parameters
    ----------
    num_tables, num_buckets, seed, family:
        Parameters of the main :class:`CountSketch`.
    filter_buckets:
        Buckets of the gating count-min layer (typically ``>= num_buckets``
        since its counters are conceptually narrow).
    filter_tables:
        Hash tables of the gate (Cold Filter uses 2-3 cheap ones).
    threshold:
        Absolute-mass level at which a key graduates to the main sketch.
    dtype, quantum:
        Counter storage of the main :class:`CountSketch` (see
        :mod:`repro.sketch.storage`).  The gate stays float64: its
        conservative-update clamp is a non-linear in-place pass that
        quantized storage cannot express (and it is already charged at a
        quarter-float per counter in the budget accounting).
    """

    # The gate takes |value| and forwards overflow per occurrence, so the
    # repeats of a key within a batch gate and forward differently from
    # their sum (|a| + |b| is not |a + b|): insert wants one sum per key.
    needs_key_sums = True

    def __init__(
        self,
        num_tables: int,
        num_buckets: int,
        *,
        filter_buckets: int | None = None,
        filter_tables: int = 3,
        threshold: float = 1.0,
        seed: int = 0,
        family: str = "multiply-shift",
        dtype=np.float64,
        quantum: float | None = None,
    ):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.sketch = CountSketch(
            num_tables, num_buckets, seed=seed, family=family,
            dtype=dtype, quantum=quantum,
        )
        self.threshold = float(threshold)
        gate_r = int(filter_buckets) if filter_buckets else num_buckets
        self.gate = CountMinSketch(
            filter_tables,
            gate_r,
            seed=seed + 1,
            family=family,
            conservative=True,
            cap=self.threshold,
        )

    def insert(self, keys, values) -> None:
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return
        mass = np.abs(values)
        before = self.gate.query(keys)
        self.gate.insert(keys, mass)
        after = self.gate.query(keys)

        hot = after >= self.threshold
        if not hot.any():
            return
        # A key crossing the threshold this batch forwards only its overflow
        # beyond the gate cap; keys already saturated forward everything.
        overflow = np.where(
            before >= self.threshold,
            values,
            np.sign(values) * np.maximum(mass - (self.threshold - before), 0.0),
        )
        self.sketch.insert(keys[hot], overflow[hot])

    def query(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        gate_mass = self.gate.query(keys)
        main = self.sketch.query(keys)
        hot = gate_mass >= self.threshold
        # Hot keys: gate holds `threshold` of their absolute mass; attribute
        # it with the sign of the main-sketch remainder (signals are signed
        # consistently, so this recovers the full magnitude for real heavy
        # keys and stays bounded for noise).
        out = np.where(hot, main + np.sign(main) * self.threshold, gate_mass)
        return out.astype(np.float64)

    def reset(self) -> None:
        self.sketch.reset()
        self.gate.reset()

    def freeze(self) -> "ColdFilterSketch":
        """Freeze both layers (queries keep working, writes raise)."""
        self.sketch.freeze()
        self.gate.freeze()
        return self

    def merge(self, other: "ColdFilterSketch") -> "ColdFilterSketch":
        """Cold Filter states cannot merge; raise a clear ``ValueError``.

        Compatibility (shape/seed/family/threshold) is validated first so a
        reducer that mixed up shards gets the precise mismatch, but even
        compatible states are rejected: the gate is a conservative-update
        count-min whose counters depend on the order updates arrived, and
        the main sketch only holds each key's overflow *beyond* the gate
        threshold — two shards can each stay below threshold (all mass in
        the gates) while the combined stream would have graduated the key.
        No counter summation reproduces that.  Use plain ``cs``/``ascs``
        estimators for sharded ingestion.
        """
        ensure_mergeable(self, other, ("threshold",))
        self.sketch._check_compatible(other.sketch)
        self.gate._check_compatible(other.gate)
        raise ValueError(
            "ColdFilterSketch cannot merge: the conservative-update gate is "
            "order-dependent and per-shard gates under-count keys whose mass "
            "is split across shards"
        )

    @property
    def memory_floats(self) -> int:
        # Gate counters are narrow in the original (2-4 bits); charge them
        # at a quarter of a float, rounded up, to keep budgets comparable.
        gate_floats = (self.gate.memory_floats + 3) // 4
        return self.sketch.memory_floats + gate_floats

    @property
    def memory_bytes(self) -> int:
        """Actual resident bytes (the gate is physically float64 here)."""
        return self.sketch.memory_bytes + self.gate.memory_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColdFilterSketch(K={self.sketch.num_tables}, "
            f"R={self.sketch.num_buckets}, threshold={self.threshold})"
        )

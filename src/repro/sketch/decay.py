"""Exponential time decay for value sketches via a lazy global scale.

Streaming covariance over an unbounded stream must forget: without decay a
sketch converges to the all-time average and a drifted workload keeps being
answered from stale mass.  :class:`DecayedSketch` wraps any linear value
sketch (:class:`repro.sketch.CountSketch`,
:class:`~repro.sketch.AugmentedSketch`) with exponential decay at **O(1) per
tick**:

* the wrapper keeps one scalar ``_scale`` with the invariant that the
  *current* (decayed) content of the sketch is ``stored_content * _scale``;
* ``tick(n)`` multiplies ``_scale`` by ``gamma**n`` — no counter is touched,
  so the fused scatter/gather hot paths are exactly the ones PR 1 measured;
* ``insert`` stores ``values / _scale`` so that a later query (which
  multiplies by the then-current ``_scale``) returns the value decayed by
  exactly the ticks that elapsed since insertion;
* when ``_scale`` falls below ``flush_below`` the pending decay is folded
  into the counters once (``table *= _scale``) and the scale resets to 1 —
  an O(K*R) pass amortised over tens of thousands of ticks.

With ``gamma`` a power of two (e.g. 0.5) every scale product and flush is an
exact float operation, so decayed results are bit-reproducible — the
property the merge-law tests pin down.

Merging is clock-aligned: two decayed sketches with the same ``gamma`` that
have ticked the same number of times hold counters in the same unit, so the
merge is the backing sketches' exact counter summation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DecayedSketch", "decay_from_half_life"]


def decay_from_half_life(half_life: float) -> float:
    """The per-tick factor ``gamma`` that halves mass every ``half_life`` ticks."""
    if half_life <= 0:
        raise ValueError(f"half_life must be > 0, got {half_life}")
    return float(0.5 ** (1.0 / half_life))


def _rescale_backing(sketch, factor: float) -> None:
    """Fold ``factor`` into a backing sketch's stored state in place.

    Counter tables scale linearly; an :class:`AugmentedSketch` additionally
    holds exact filter values in the same unit as its counters, so both must
    scale together or filtered keys would stop decaying.  Scaling goes
    through the sketch's storage-aware ``scale`` when available (quantized
    backings never reach here — the constructor rejects them under decay —
    but the storage-aware path keeps this helper correct for any future
    float-tier variant).
    """
    inner = getattr(sketch, "sketch", None)
    if inner is not None:  # AugmentedSketch: backing CS + exact filter
        inner.scale(factor)
        filt = sketch._filter
        for key in filt:
            filt[key] *= factor
        return
    if hasattr(sketch, "scale"):
        sketch.scale(factor)
    else:
        sketch.table *= factor


class DecayedSketch:
    """Exponentially decayed view over a linear value sketch.

    Parameters
    ----------
    sketch:
        The backing :class:`~repro.sketch.base.ValueSketch`.  Must be
        linear in its stored values (CS, ASketch).
    gamma:
        Per-tick decay factor in ``(0, 1]``.  ``1.0`` disables decay (the
        wrapper becomes a transparent pass-through).
    flush_below:
        When the lazy scale drops under this bound the pending decay is
        folded into the counters.  The default (``2**-40``) keeps stored
        magnitudes within ~``1e12`` of live magnitudes, far from overflow.
    """

    def __init__(self, sketch, gamma: float, *, flush_below: float = 2.0**-40):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if not 0.0 < flush_below < 1.0:
            raise ValueError(f"flush_below must be in (0, 1), got {flush_below}")
        backing = getattr(sketch, "sketch", sketch)  # unwrap ASketch
        if gamma < 1.0 and getattr(backing, "quantum", None) is not None:
            # Stored magnitudes grow like 1/scale between flushes (inserts
            # store v/scale), so fresh mass needs ever more integer range:
            # an int16 table widens to float64 within a handful of ticks,
            # silently voiding the compact tier.  Fixed-point cannot span
            # decay's unbounded dynamic range without lossy
            # renormalisation, so refuse rather than degrade.
            raise ValueError(
                "cannot decay a quantized (int16/int32) sketch: decayed "
                "inserts store values scaled by 1/gamma^ticks, which "
                "outgrows any fixed-point range and forces immediate "
                "promotion to float64; use float32 storage to halve "
                "decayed-table memory instead"
            )
        self.sketch = sketch
        self.gamma = float(gamma)
        self.flush_below = float(flush_below)
        self.ticks = 0
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Decay clock
    # ------------------------------------------------------------------
    def tick(self, num_ticks: int = 1) -> None:
        """Advance the decay clock by ``num_ticks`` — O(1), no counter writes.

        Content inserted before this call is worth ``gamma**num_ticks`` of
        its previous value at the next query.
        """
        if num_ticks < 0:
            raise ValueError(f"num_ticks must be >= 0, got {num_ticks}")
        if num_ticks == 0 or self.gamma == 1.0:
            self.ticks += int(num_ticks)
            return
        self.ticks += int(num_ticks)
        self._scale *= self.gamma ** int(num_ticks)
        if self._scale < self.flush_below:
            self.flush()

    def flush(self) -> None:
        """Fold the pending lazy scale into the counters (rare, amortised)."""
        if self._scale == 1.0:
            return
        _rescale_backing(self.sketch, self._scale)
        self._scale = 1.0

    @property
    def pending_scale(self) -> float:
        """The lazy factor queries currently apply (diagnostics)."""
        return self._scale

    # ------------------------------------------------------------------
    # ValueSketch interface (hot paths delegate to the backing kernels)
    # ------------------------------------------------------------------
    def insert(self, keys, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if self._scale != 1.0:
            values = values / self._scale
        self.sketch.insert(keys, values)

    def insert_and_query(self, keys, values) -> np.ndarray:
        """Fused insert + post-insert decayed estimates (one hashing pass)."""
        values = np.asarray(values, dtype=np.float64)
        if self._scale != 1.0:
            values = values / self._scale
        if hasattr(self.sketch, "insert_and_query"):
            estimates = self.sketch.insert_and_query(keys, values)
        else:
            self.sketch.insert(keys, values)
            estimates = self.sketch.query(keys)
        if self._scale != 1.0:
            estimates = estimates * self._scale
        return estimates

    def query(self, keys) -> np.ndarray:
        return self.query_scaled(keys)

    def query_scaled(self, keys, extra: float = 1.0) -> np.ndarray:
        """Decayed estimates times ``extra``, in **one** multiply.

        The decayed-mean estimator folds its ``T / W`` normalisation into
        the same product the snapshot export bakes into ``_scale``, so
        serving snapshots answer bit-identically to the live estimator.
        """
        estimates = self.sketch.query(keys)
        factor = self._scale * float(extra)
        if factor != 1.0:
            estimates = estimates * factor
        return estimates

    def query_single(self, key: int) -> float:
        return float(self.query(np.asarray([key], dtype=np.int64))[0])

    def cache_keys(self, keys) -> None:
        """Forward hash caching to the backing sketch (dense streaming)."""
        if hasattr(self.sketch, "cache_keys"):
            self.sketch.cache_keys(keys)

    def reset(self) -> None:
        self.sketch.reset()
        self.ticks = 0
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Merge / copy / freeze
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "DecayedSketch") -> None:
        if not isinstance(other, DecayedSketch):
            raise ValueError(
                f"cannot merge {type(other).__name__} into DecayedSketch"
            )
        if self.gamma != other.gamma:
            raise ValueError(
                "decayed sketches are mergeable only with identical gamma; "
                f"{self.gamma!r} != {other.gamma!r}"
            )
        if self.ticks != other.ticks:
            raise ValueError(
                "decayed sketches are mergeable only when clock-aligned "
                f"(same tick count); {self.ticks} != {other.ticks}"
            )

    def merge(self, other: "DecayedSketch") -> "DecayedSketch":
        """Sum another clock-aligned decayed sketch's content in place.

        Both sides flush first, so the backing merge is an exact counter
        summation in a shared unit — associative and commutative exactly as
        the undecayed merge law of PR 2 (bit-for-bit for exactly
        representable partial sums).
        """
        self._check_compatible(other)
        self.flush()
        other.flush()
        self.sketch.merge(other.sketch)
        return self

    def copy(self) -> "DecayedSketch":
        if hasattr(self.sketch, "copy"):
            backing = self.sketch.copy()
        else:
            import copy as _copy

            backing = _copy.deepcopy(self.sketch)
        clone = DecayedSketch(backing, self.gamma, flush_below=self.flush_below)
        clone.ticks = self.ticks
        clone._scale = self._scale
        return clone

    def freeze(self) -> "DecayedSketch":
        """Freeze the backing counters (queries keep working, writes raise)."""
        if hasattr(self.sketch, "freeze"):
            self.sketch.freeze()
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memory_floats(self) -> int:
        return self.sketch.memory_floats

    @property
    def memory_bytes(self) -> int:
        return self.sketch.memory_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecayedSketch(gamma={self.gamma:g}, ticks={self.ticks}, "
            f"scale={self._scale:g}, backing={self.sketch!r})"
        )

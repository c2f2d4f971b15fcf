"""Streaming mean estimators over flat keys — the layer Algorithm 1/2 run at.

An estimator consumes batches of (key, value) updates produced by the
covariance pipeline (a key repeats within a batch when several samples
share its pair), maintains the ``1/T`` scaling of Algorithms 1-2, tracks
top candidates for trillion-scale retrieval, and exposes a uniform query
interface.  :class:`SketchEstimator` is the ingest-everything behaviour
(vanilla CS, ASketch, Cold Filter — anything satisfying
:class:`repro.sketch.ValueSketch`); ASCS subclasses it and overrides the
acceptance rule.
"""

from __future__ import annotations

import copy
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.sketch.base import ValueSketch, validate_batch
from repro.sketch.topk import TopKTracker

__all__ = ["StreamingEstimator", "SketchEstimator"]

#: Observer signature: (samples_seen_after_batch, keys, values, accepted_mask).
Observer = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


@runtime_checkable
class StreamingEstimator(Protocol):
    """Anything that can ingest keyed updates and estimate means."""

    def ingest(self, keys, values, num_samples: int = 1) -> None: ...

    def estimate(self, keys) -> np.ndarray: ...

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]: ...


class SketchEstimator:
    """Ingest-everything streaming mean estimator backed by a value sketch.

    Parameters
    ----------
    sketch:
        Backing :class:`repro.sketch.ValueSketch` (count sketch for the
        vanilla baseline; ASketch / Cold Filter plug in unchanged).
    total_samples:
        ``T`` — stream length; updates are scaled by ``1/T`` as in
        Algorithm 1 so queries estimate the stream mean directly.
    track_top:
        Candidate-pool capacity for trillion-scale top-k retrieval
        (0 disables tracking; retrieval then requires a full scan).
    two_sided:
        Rank/accept by absolute value instead of signed value.
    observer:
        Optional hook called after every batch with
        ``(samples_seen, keys, values, accepted_mask)`` — used by the SNR
        instrumentation of Figure 5.  It sees the updates as handed in, so
        what it measures depends on how the covariance pipeline built the
        batch: the expanded sparse route hands one update per sample's
        pair (a pair two samples share carries energy ``Σv²``), the dense
        and GEMM routes one sum per pair (``(Σv)²``).
    name:
        Label used by experiment tables.
    """

    def __init__(
        self,
        sketch: ValueSketch,
        total_samples: int,
        *,
        track_top: int = 0,
        two_sided: bool = False,
        observer: Observer | None = None,
        name: str = "CS",
    ):
        if total_samples < 1:
            raise ValueError(f"total_samples must be >= 1, got {total_samples}")
        self.sketch = sketch
        self.total_samples = int(total_samples)
        self.two_sided = bool(two_sided)
        self.observer = observer
        self.name = name
        self.samples_seen = 0
        self.updates_examined = 0
        self.updates_accepted = 0
        self.tracker = (
            TopKTracker(track_top, two_sided=two_sided) if track_top else None
        )

    # ------------------------------------------------------------------
    def _accept(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(mask, estimates)`` for a batch; a ``None`` mask accepts everything.

        Subclasses (ASCS) override this with the active-sampling rule and
        return the accepted keys' estimates the rule already computed, so
        the tracker refresh below does not re-gather the same buckets.
        """
        return None, None

    def ingest(self, keys, values, num_samples: int = 1) -> None:
        """Consume a batch of (key, value) updates covering ``num_samples``
        stream samples.

        A key may repeat within the batch.  Each repeat lands in the
        sketch as its own update, and an acceptance rule (ASCS's gate)
        decides every repeat on the same pre-batch estimate, so a linear
        sketch ends up as if it had ingested the per-key sums, up to
        summation order.  ``updates_examined`` and ``updates_accepted``
        count updates as handed in, repeats included.
        """
        keys, values = validate_batch(keys, values)
        mask, gate_estimates = self._accept(keys, values)
        if mask is None:
            accepted_keys, accepted_values = keys, values
        else:
            accepted_keys, accepted_values = keys[mask], values[mask]
        scaled = accepted_values / self.total_samples
        track = self.tracker is not None and accepted_keys.size > 0
        if track and gate_estimates is None and hasattr(self.sketch, "insert_and_query"):
            # Fused insert + post-insert estimate: one hashing pass instead
            # of two, identical results.
            estimates = self.sketch.insert_and_query(accepted_keys, scaled)
        else:
            self.sketch.insert(accepted_keys, scaled)
            if not track:
                estimates = None
            elif gate_estimates is not None:
                # Reuse the estimates the acceptance rule already gathered.
                # They are pre-insert (one batch staler than the query the
                # pre-fusion code issued), which can shift tracker prune
                # decisions near the pool boundary — an accepted trade for
                # halving the gate's query cost; the final top_k re-queries
                # the finished sketch either way.
                estimates = gate_estimates
            else:
                estimates = self.sketch.query(accepted_keys)
        self.samples_seen += int(num_samples)
        self.updates_examined += keys.size
        self.updates_accepted += accepted_keys.size
        if track:
            self.tracker.offer(accepted_keys, estimates)
        if self.observer is not None:
            if mask is None:
                mask = np.ones(keys.size, dtype=bool)
            self.observer(self.samples_seen, keys, values, mask)

    def estimate(self, keys) -> np.ndarray:
        """Current mean estimates for the given keys."""
        return self.sketch.query(keys)

    def export_snapshot_state(self) -> dict:
        """Snapshot export hook: an independent frozen copy of the query state.

        Returns everything the serving layer needs to answer queries exactly
        as this estimator would right now, decoupled from future ingestion:

        * ``sketch`` — a deep copy of the backing sketch, made read-only via
          ``freeze()`` where the sketch supports it (flat-table sketches do;
          filter-backed baselines are plain copies, which is still
          independent state — their ``query`` never mutates);
        * ``tracker_keys`` — the candidate pool for trillion-scale top-k
          (empty when tracking is off);
        * the sampler statistics and identity fields.

        Querying the returned sketch is bit-identical to :meth:`estimate`
        on this estimator at the moment of export.
        """
        sketch = (
            self.sketch.copy()
            if hasattr(self.sketch, "copy")
            else copy.deepcopy(self.sketch)
        )
        if hasattr(sketch, "freeze"):
            sketch.freeze()
        if self.tracker is not None:
            tracker_keys = self.tracker.candidates()
        else:
            tracker_keys = np.empty(0, dtype=np.int64)
        return {
            "sketch": sketch,
            "tracker_keys": tracker_keys,
            "name": self.name,
            "total_samples": self.total_samples,
            "samples_seen": self.samples_seen,
            "updates_examined": self.updates_examined,
            "updates_accepted": self.updates_accepted,
            "two_sided": self.two_sided,
        }

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` candidates by final estimate (requires ``track_top``)."""
        if self.tracker is None:
            raise RuntimeError(
                "top_k requires track_top > 0; use a full scan for small key spaces"
            )
        return self.tracker.top_k(k, sketch=self.sketch)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of examined updates that reached the sketch.

        Both counts are of updates as handed in, so the rate depends on how
        the covariance pipeline built them: a pair two samples of a batch
        share counts once per sample on the expanded sparse route and once
        on the dense and GEMM routes.  Which route a sparse batch takes is
        ``repro.covariance.pipeline.GEMM_CROSSOVER``'s call.
        """
        if self.updates_examined == 0:
            return 1.0
        return self.updates_accepted / self.updates_examined

    @property
    def memory_floats(self) -> int:
        return self.sketch.memory_floats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, T={self.total_samples}, "
            f"seen={self.samples_seen})"
        )

"""Active Sampling Count Sketch — Algorithm 2, the paper's contribution.

ASCS wraps a count sketch with a two-phase ingestion policy:

* **exploration** (``t < T0``): every update is inserted, building a coarse
  estimate of each variable's mean;
* **sampling** (``t >= T0``): an update for key ``i`` is inserted only when
  the sketch's current estimate clears the schedule threshold ``tau(t)``.

Filtering removes most noise-variable mass from the tables, shrinking the
collision term ``H_e(i)`` and raising the SNR of what the sketch ingests
(Theorem 3) — which is why ASCS recovers top correlations at a tenth of the
memory vanilla CS needs (Table 2).
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Observer, SketchEstimator
from repro.core.schedule import ThresholdSchedule
from repro.sketch.count_sketch import CountSketch
from repro.theory.bounds import ProblemModel
from repro.theory.planner import ASCSPlan, plan_hyperparameters

__all__ = ["ActiveSamplingCountSketch"]


class ActiveSamplingCountSketch(SketchEstimator):
    """Algorithm 2: count sketch with exploration + active sampling.

    Parameters
    ----------
    sketch:
        Backing count sketch (or any :class:`repro.sketch.ValueSketch`).
    total_samples:
        ``T`` — stream length used for the ``1/T`` update scaling and the
        threshold ramp normalisation.
    schedule:
        The ``(T0, tau0, theta)`` threshold schedule.
    track_top / two_sided / observer / name:
        As for :class:`repro.core.SketchEstimator`.  ``two_sided=True``
        applies the threshold to ``|estimate|``, required when negative
        correlations are signals too.
    """

    def __init__(
        self,
        sketch,
        total_samples: int,
        schedule: ThresholdSchedule,
        *,
        track_top: int = 0,
        two_sided: bool = False,
        observer: Observer | None = None,
        name: str = "ASCS",
    ):
        super().__init__(
            sketch,
            total_samples,
            track_top=track_top,
            two_sided=two_sided,
            observer=observer,
            name=name,
        )
        if schedule.total_samples != total_samples:
            raise ValueError(
                "schedule.total_samples must match the estimator's total_samples"
            )
        self.schedule = schedule

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_plan(
        cls,
        plan: ASCSPlan,
        total_samples: int,
        num_tables: int,
        num_buckets: int,
        *,
        seed: int = 0,
        **kwargs,
    ) -> "ActiveSamplingCountSketch":
        """Build an ASCS from a resolved :class:`repro.theory.ASCSPlan`."""
        sketch = CountSketch(num_tables, num_buckets, seed=seed)
        schedule = ThresholdSchedule.from_plan(plan, total_samples)
        return cls(sketch, total_samples, schedule, **kwargs)

    @classmethod
    def plan_and_build(
        cls,
        model: ProblemModel,
        *,
        tau0: float = 1e-4,
        delta: float | None = None,
        delta_star: float | None = None,
        seed: int = 0,
        **kwargs,
    ) -> tuple["ActiveSamplingCountSketch", ASCSPlan]:
        """Run Algorithm 3 on ``model`` and build the resulting ASCS.

        Returns the estimator together with the plan (for reporting the
        chosen ``T0``/``theta`` as the experiment tables do).
        """
        plan = plan_hyperparameters(
            model, tau0=tau0, delta=delta, delta_star=delta_star
        )
        est = cls.from_plan(
            plan,
            model.T,
            model.num_tables,
            model.num_buckets,
            seed=seed,
            **kwargs,
        )
        return est, plan

    # ------------------------------------------------------------------
    # The sampling rule
    # ------------------------------------------------------------------
    def _accept(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        if self.schedule.in_exploration(self.samples_seen):
            return None, None
        # Algorithm 2 line 10-11: gate on the estimate as of the *previous*
        # step; with batching, samples_seen is exactly the pre-batch t-1.
        # The accepted keys' estimates are returned so ingest's tracker
        # refresh can reuse them instead of querying the same buckets a
        # second time.
        tau = self.schedule.threshold(self.samples_seen)
        return self.sketch.gate(keys, tau, two_sided=self.two_sided)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_exploration(self) -> bool:
        """Whether the estimator is still in the exploration period."""
        return self.schedule.in_exploration(self.samples_seen)

    @property
    def current_threshold(self) -> float:
        """The sampling threshold that will gate the next batch."""
        return self.schedule.threshold(self.samples_seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActiveSamplingCountSketch(T={self.total_samples}, "
            f"T0={self.schedule.exploration_length}, "
            f"tau0={self.schedule.tau0:g}, theta={self.schedule.theta:g}, "
            f"seen={self.samples_seen})"
        )

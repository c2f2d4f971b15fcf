"""Streaming estimation over unbounded, drifting streams.

Two recency mechanisms on top of the one-pass covariance sketcher, both
built so the fused ingest hot paths are untouched:

* **Exponential time decay** — :class:`repro.sketch.DecayedSketch` ages the
  whole sketch with one lazy scalar per tick; :class:`DecayedSketchEstimator`
  and :class:`DecayingSketcher` turn that into a pipeline whose estimates
  are decayed (recency-weighted) means.  Build with
  :func:`make_decaying_sketcher`.
* **Sliding windows** — :class:`PaneRing` keeps the newest panes of the
  stream as mergeable shard states and materialises a window estimator in
  one merge pass using the PR-2 merge laws.

Serving integration: hand a :class:`PaneRing` (or a
:class:`DecayingSketcher`) to :class:`repro.serving.ServingEstimator` and
snapshot swaps expose ``window_span`` / ``decay`` through the HTTP
``/stats`` route.
"""

from repro.sketch.decay import DecayedSketch, decay_from_half_life
from repro.streaming.decay import (
    DecayedSketchEstimator,
    DecayedSparseMoments,
    DecayingSketcher,
    make_decaying_sketcher,
)
from repro.streaming.windows import PaneRing

__all__ = [
    "DecayedSketch",
    "DecayedSketchEstimator",
    "DecayedSparseMoments",
    "DecayingSketcher",
    "PaneRing",
    "decay_from_half_life",
    "make_decaying_sketcher",
]

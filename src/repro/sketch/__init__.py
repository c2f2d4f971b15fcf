"""Sketch substrate: count sketch, baselines and top-k tracking."""

from repro.sketch.augmented import AugmentedSketch
from repro.sketch.base import ValueSketch
from repro.sketch.count_sketch import CountSketch
from repro.sketch.decay import DecayedSketch, decay_from_half_life
from repro.sketch.hierarchical import HierarchicalCountSketch
from repro.sketch.kernels import (
    available_backends,
    numba_available,
    resolve_backend,
)
from repro.sketch.planner import CapacityPlan, plan
from repro.sketch.serialization import load_sketch, save_sketch
from repro.sketch.storage import DEFAULT_QUANTUM, CounterStore, resolve_storage
from repro.sketch.topk import TopKTracker, scan_top_keys

__all__ = [
    "AugmentedSketch",
    "CapacityPlan",
    "CountSketch",
    "CounterStore",
    "DEFAULT_QUANTUM",
    "DecayedSketch",
    "HierarchicalCountSketch",
    "TopKTracker",
    "ValueSketch",
    "available_backends",
    "decay_from_half_life",
    "load_sketch",
    "numba_available",
    "plan",
    "resolve_backend",
    "resolve_storage",
    "save_sketch",
    "scan_top_keys",
]

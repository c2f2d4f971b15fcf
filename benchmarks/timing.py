"""Paired best-of-N timing shared by the bespoke benchmark suites."""

from __future__ import annotations

import time


def best_seconds(*sides, trials: int, inner: int) -> list[float]:
    """Best-of-``trials`` mean seconds per call of each ``(make_state, op)``.

    Every trial times every side, and the side that goes first rotates
    from trial to trial, so a slow spell of a shared host falls on all
    sides of a record instead of on whichever ran through it.
    ``make_state`` builds fresh state per trial so stateful ops (inserts,
    tracker offers) do not drift across repetitions; ``inner`` amortises
    the clock resolution for microsecond-scale ops.
    """
    # Auto-calibrate each side's inner loop so a timed window spans >= ~2 ms:
    # microsecond-scale kernels are otherwise dominated by timer jitter.
    inners = []
    for make_state, op in sides:
        probe_state = make_state()
        op(probe_state)
        t0 = time.perf_counter()
        op(probe_state)
        probe = time.perf_counter() - t0
        inners.append(max(inner, min(400, int(0.002 / max(probe, 1e-9)) + 1)))

    best = [float("inf")] * len(sides)
    for trial in range(trials):
        for k in range(len(sides)):
            i = (trial + k) % len(sides)
            make_state, op = sides[i]
            state = make_state()
            op(state)  # warm the caches / lazy allocations
            t0 = time.perf_counter()
            for _ in range(inners[i]):
                op(state)
            best[i] = min(best[i], (time.perf_counter() - t0) / inners[i])
    return best

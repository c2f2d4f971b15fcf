"""Ingest circuit breaker — fail fast while the write path is broken.

When the write side starts throwing (disk full under the WAL, a poisoned
batch, a wedged pane rotation), every further ingest attempt burns a
request thread on the same failure and stalls upstream producers behind
the write lock.  :class:`CircuitBreaker` implements the standard
three-state pattern:

* **closed** — calls flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures, calls are
  rejected instantly (:class:`CircuitOpenError`, which the HTTP layer maps
  to 503 + ``Retry-After``) until ``reset_after`` seconds pass.
* **half-open** — the first call after the cooldown is let through as a
  probe; success closes the circuit, failure re-opens it for another full
  cooldown.

A call that turns its input away before the protected operation runs
(:meth:`CircuitBreaker.record_refusal`) counts neither way, so one
client's malformed batches cannot shed every client's ingest.

The clock is injectable (``time_fn``) so the fault-injection suite drives
state transitions deterministically instead of sleeping.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import MetricsRegistry, NullRegistry

__all__ = ["CircuitBreaker", "CircuitOpenError"]


class CircuitOpenError(Exception):
    """The breaker is open: the protected operation is failing; retry later.

    ``retry_after`` is the remaining cooldown in seconds (the HTTP layer
    surfaces it as a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class CircuitBreaker:
    """Thread-safe consecutive-failure circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open the circuit.
    reset_after:
        Cooldown seconds before a half-open probe is allowed.
    time_fn:
        Monotonic clock (injectable for deterministic tests).
    name:
        Label used in error messages, stats and metric labels.
    registry:
        Optional :class:`repro.obs.MetricsRegistry` receiving the breaker's
        state-transition counters
        (``repro_breaker_transitions_total{breaker=..., to=...}`` with
        ``to`` one of ``open`` / ``reopened`` / ``closed``) and
        ``repro_breaker_rejections_total``.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_after: float = 30.0,
        time_fn=time.monotonic,
        name: str = "ingest",
        registry: MetricsRegistry | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after < 0:
            raise ValueError(f"reset_after must be >= 0, got {reset_after}")
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self.name = name
        self._time = time_fn
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        reg = registry if registry is not None else NullRegistry()
        labels = {"breaker": name}
        self._trips_total = reg.counter(
            "repro_breaker_transitions_total",
            "circuit state transitions by destination",
            labels={**labels, "to": "open"},
        )
        self._reopens_total = reg.counter(
            "repro_breaker_transitions_total",
            "circuit state transitions by destination",
            labels={**labels, "to": "reopened"},
        )
        self._closes_total = reg.counter(
            "repro_breaker_transitions_total",
            "circuit state transitions by destination",
            labels={**labels, "to": "closed"},
        )
        self._rejections_total = reg.counter(
            "repro_breaker_rejections_total",
            "calls rejected while the circuit was open",
            labels=labels,
        )
        self.rejections = 0
        self.trips = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._time() - self._opened_at >= self.reset_after:
            return "half-open"
        return "open"

    def before_call(self) -> None:
        """Gate a call: raises :class:`CircuitOpenError` while open; lets a
        single probe through when half-open."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return
            if state == "half-open" and not self._probe_in_flight:
                self._probe_in_flight = True
                return
            self.rejections += 1
            self._rejections_total.inc()
            remaining = self.reset_after - (self._time() - self._opened_at)
            raise CircuitOpenError(
                f"{self.name} circuit is open after "
                f"{self._consecutive_failures} consecutive failure(s); "
                f"retry in {max(0.0, remaining):.1f}s",
                retry_after=remaining if state == "open" else self.reset_after,
            )

    def record_success(self) -> None:
        with self._lock:
            if self._opened_at is not None:
                # A successful half-open probe: the circuit recovers.
                self._closes_total.inc()
            self._consecutive_failures = 0
            self._opened_at = None
            self._probe_in_flight = False

    def record_refusal(self) -> None:
        """The call turned its input away before the protected operation
        ran: it counts neither as a success nor as a failure, and a
        half-open probe slot opens for the next call."""
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if (
                self._consecutive_failures >= self.failure_threshold
                or self._opened_at is not None  # failed half-open probe
            ):
                if self._opened_at is None:
                    self.trips += 1
                    self._trips_total.inc()
                else:
                    self._reopens_total.inc()
                self._opened_at = self._time()

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` under the breaker's discipline."""
        self.before_call()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_after": self.reset_after,
                "rejections": self.rejections,
                "trips": self.trips,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name}, state={self.state})"

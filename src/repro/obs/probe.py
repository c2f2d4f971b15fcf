"""Online accuracy telemetry: observed ROSNR, collision energy, top-K churn.

The ROADMAP's adaptive re-sketching loop needs the system to *measure its
own signal-to-noise online*, not in offline experiments.
:class:`AccuracyProbe` produces exactly those gauges, two ways at once:

* **ingest-side energy accounting** — the probe plugs into the estimator's
  existing ``observer`` hook (the Figure-5 seam) and delegates to
  :class:`repro.theory.snr.SNRRecorder`: per measurement window it turns
  the accepted updates' signal/noise energy into an observed stream SNR
  gauge, and normalises it by a baseline SNR (pass the vanilla-CS theory
  value from :func:`repro.theory.snr.model_stream_snr`) into the observed
  **ROSNR** gauge — the exact quantity Theorem 3 lower-bounds and the
  future AutoScaler watches.  It sees the updates the estimator is
  handed, so a pair several samples of a batch share adds ``Σv²`` when
  the sparse batch expands and ``(Σv)²`` on the dense and GEMM routes,
  and the reservoir offers it once per update;
* **read-side re-querying** — the probe keeps a bounded reservoir of
  tracked keys: the *planted* signal keys plus a uniform reservoir sample
  (Algorithm R) of accepted noise keys, and a seeded set of **collision
  sentinels** — keys never inserted by the signal set, whose squared
  estimates are pure collision/noise mass.  :meth:`sample` re-queries all
  of them against any query function (an estimator, a serving engine, an
  HTTP client) and refreshes the estimate-side SNR, collision-energy and
  top-K **churn** gauges (fraction of the top set replaced since the last
  sample — the drift signal).

All gauges land in a :class:`repro.obs.MetricsRegistry`, so they ride the
``/metrics`` exposition with everything else.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.theory.snr import SNRRecorder

__all__ = ["AccuracyProbe"]


class AccuracyProbe:
    """Reservoir-backed accuracy gauges for one estimator / serving stack.

    Parameters
    ----------
    signal_keys:
        Flat pair keys of the planted / tracked signal variables (what the
        deployment *cares about*: a ground-truth plant in tests, the
        current top index in production).
    registry:
        Target :class:`MetricsRegistry` (a fresh one when omitted;
        inspect it via :attr:`registry`).
    window:
        Ingest-side measurement window in stream samples (the
        :class:`SNRRecorder` cadence).
    baseline_snr:
        Denominator of the ROSNR gauge.  Pass the model's raw-stream SNR
        (:func:`repro.theory.snr.model_stream_snr`) to read ROSNR against
        theory; ``None`` baselines against the first closed window, so
        the gauge reads *relative* SNR drift.
    reservoir:
        Capacity of the noise-key reservoir (uniform over all accepted
        noise keys seen, Algorithm R).
    collision_probes / key_space:
        Number of seeded sentinel keys drawn uniformly from
        ``[0, key_space)`` excluding the signal set.  ``key_space=None``
        disables collision sentinels.
    topk:
        Size of the tracked top set for the churn gauge.
    namespace:
        Metric-name prefix (default ``repro_accuracy``).
    """

    def __init__(
        self,
        signal_keys,
        *,
        registry: MetricsRegistry | None = None,
        window: int = 200,
        baseline_snr: float | None = None,
        reservoir: int = 256,
        collision_probes: int = 64,
        key_space: int | None = None,
        topk: int = 32,
        seed: int = 0,
        namespace: str = "repro_accuracy",
    ):
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = SNRRecorder(signal_keys, window=window)
        self._explicit_baseline = baseline_snr is not None
        self.baseline_snr = None if baseline_snr is None else float(baseline_snr)
        self.topk = int(topk)
        self._signal_keys = np.asarray(signal_keys, dtype=np.int64)
        self._signal_set = frozenset(self._signal_keys.tolist())
        self._rng = np.random.default_rng(seed)
        self._reservoir = np.empty(int(reservoir), dtype=np.int64)
        self._reservoir_fill = 0
        self._noise_seen = 0
        self._points_consumed = 0
        self._last_top: frozenset | None = None
        self._sentinels = self._draw_sentinels(collision_probes, key_space)

        ns = namespace
        g = self.registry.gauge
        self.snr_gauge = g(f"{ns}_snr", "observed stream SNR (last closed window)")
        self.rosnr_gauge = g(
            f"{ns}_rosnr", "observed SNR over the baseline (vanilla-CS) SNR"
        )
        self.signal_energy_gauge = g(
            f"{ns}_signal_energy", "accepted signal energy (last closed window)"
        )
        self.noise_energy_gauge = g(
            f"{ns}_noise_energy", "accepted noise energy (last closed window)"
        )
        self.estimate_snr_gauge = g(
            f"{ns}_estimate_snr", "re-queried signal/noise energy ratio"
        )
        self.collision_energy_gauge = g(
            f"{ns}_collision_energy", "mean squared estimate at sentinel keys"
        )
        self.churn_gauge = g(
            f"{ns}_topk_churn", "fraction of the top-K set replaced since last sample"
        )
        self.windows_counter = self.registry.counter(
            f"{ns}_windows_total", "closed SNR measurement windows"
        )
        self.samples_counter = self.registry.counter(
            f"{ns}_samples_total", "read-side probe passes"
        )
        self.tracked_gauge = self.registry.gauge_fn(
            f"{ns}_tracked_keys",
            lambda: self._signal_keys.size + self._reservoir_fill,
            "signal + reservoir keys the probe re-queries",
        )

    # ------------------------------------------------------------------
    # Ingest side: the estimator observer hook
    # ------------------------------------------------------------------
    def __call__(self, t: int, keys, values, mask) -> None:
        """Observer hook — chain into the SNR recorder, feed the reservoir."""
        self.recorder(t, keys, values, mask)
        keys = np.asarray(keys, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        if keys.size:
            accepted = keys[mask]
            if accepted.size:
                is_signal = np.fromiter(
                    (key in self._signal_set for key in accepted.tolist()),
                    dtype=bool,
                    count=accepted.size,
                )
                self._offer_noise(accepted[~is_signal])
        self._consume_points()

    def flush(self) -> None:
        """Close the current SNR window and refresh the gauges."""
        self.recorder.flush()
        self._consume_points()

    def reset(self, *, rebaseline: bool = False) -> None:
        """Drop all accumulated probe state — the migration seam.

        An engine swap/migration changes the thing the probe measures:
        letting the Algorithm-R reservoir, the open SNR window and the
        last top-K set survive the swap blends pre- and post-migration
        collision noise into single gauge readings.
        :meth:`repro.serving.ServingEstimator.migrate` calls this after
        installing the new engine, so the first post-migration window
        measures only the new configuration.

        Gauge *values* are left at their last readings (a scrape between
        migration and the next sample sees stale-but-real numbers, not
        fabricated zeros); they refresh on the next ``sample``/``flush``.
        ``rebaseline=True`` additionally forgets an auto-derived ROSNR
        baseline so the next closed window re-anchors it; an explicit
        ``baseline_snr`` from the constructor is always kept.
        """
        self.recorder = SNRRecorder(
            self._signal_keys, window=self.recorder.window
        )
        self._reservoir_fill = 0
        self._noise_seen = 0
        self._points_consumed = 0
        self._last_top = None
        if rebaseline and not self._explicit_baseline:
            self.baseline_snr = None

    def _consume_points(self) -> None:
        points = self.recorder.points
        while self._points_consumed < len(points):
            point = points[self._points_consumed]
            self._points_consumed += 1
            self.windows_counter.inc()
            self.signal_energy_gauge.set(point.signal_energy)
            self.noise_energy_gauge.set(point.noise_energy)
            snr = point.snr
            if np.isfinite(snr):
                self.snr_gauge.set(snr)
                if self.baseline_snr is None:
                    # First closed window becomes the relative baseline.
                    self.baseline_snr = snr if snr > 0 else None
                if self.baseline_snr:
                    self.rosnr_gauge.set(snr / self.baseline_snr)

    def _offer_noise(self, keys: np.ndarray) -> None:
        """Algorithm-R reservoir over every accepted noise key seen."""
        cap = self._reservoir.size
        for key in keys.tolist():
            self._noise_seen += 1
            if self._reservoir_fill < cap:
                self._reservoir[self._reservoir_fill] = key
                self._reservoir_fill += 1
            else:
                j = int(self._rng.integers(0, self._noise_seen))
                if j < cap:
                    self._reservoir[j] = key

    def _draw_sentinels(self, count: int, key_space: int | None) -> np.ndarray:
        if key_space is None or count <= 0:
            return np.empty(0, dtype=np.int64)
        if key_space <= len(self._signal_set):
            raise ValueError(
                "key_space must exceed the signal set to draw sentinels"
            )
        out: list[int] = []
        while len(out) < count:
            draw = self._rng.integers(0, key_space, size=4 * count)
            for key in draw.tolist():
                if key not in self._signal_set:
                    out.append(key)
                    if len(out) == count:
                        break
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # Read side: periodic re-query
    # ------------------------------------------------------------------
    @property
    def noise_keys(self) -> np.ndarray:
        """Current reservoir contents (uniform over accepted noise keys)."""
        return self._reservoir[: self._reservoir_fill].copy()

    @property
    def sentinel_keys(self) -> np.ndarray:
        return self._sentinels.copy()

    def sample(self, query_fn, top_keys=None) -> dict:
        """Re-query the tracked keys and refresh the read-side gauges.

        Parameters
        ----------
        query_fn:
            ``keys -> estimates`` over flat pair keys — an estimator's
            ``estimate``, a ``QueryEngine.query_keys``, or an HTTP
            client's ``query_keys``.
        top_keys:
            Current top-K keys for the churn gauge (e.g. from
            ``top_pairs``); churn is skipped when omitted.

        Returns the refreshed readings as a dict (also visible in the
        registry / the ``/metrics`` exposition).
        """
        self.samples_counter.inc()
        out: dict = {}
        signal_est = np.asarray(query_fn(self._signal_keys), dtype=np.float64)
        noise_keys = self._reservoir[: self._reservoir_fill]
        noise_est = (
            np.asarray(query_fn(noise_keys), dtype=np.float64)
            if noise_keys.size
            else np.empty(0)
        )
        signal_energy = float(np.mean(signal_est**2)) if signal_est.size else 0.0
        noise_energy = float(np.mean(noise_est**2)) if noise_est.size else 0.0
        if noise_energy > 0:
            out["estimate_snr"] = signal_energy / noise_energy
            self.estimate_snr_gauge.set(out["estimate_snr"])
        if self._sentinels.size:
            sentinel_est = np.asarray(
                query_fn(self._sentinels), dtype=np.float64
            )
            out["collision_energy"] = float(np.mean(sentinel_est**2))
            self.collision_energy_gauge.set(out["collision_energy"])
        if top_keys is not None:
            current = frozenset(
                np.asarray(top_keys, dtype=np.int64)[: self.topk].tolist()
            )
            if self._last_top is not None and (self._last_top or current):
                union = self._last_top | current
                kept = len(self._last_top & current)
                out["topk_churn"] = 1.0 - kept / max(len(union), 1)
                self.churn_gauge.set(out["topk_churn"])
            self._last_top = current
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccuracyProbe(signals={self._signal_keys.size}, "
            f"reservoir={self._reservoir_fill}/{self._reservoir.size}, "
            f"windows={self._points_consumed})"
        )

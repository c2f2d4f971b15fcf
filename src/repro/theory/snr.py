"""Empirical SNR instrumentation (section 7.1 / Figure 5).

The paper defines the SNR of the ``t``-th ingested sample as
``E ||X_S||^2 / E ||X_N||^2`` over the signal/noise variables actually
inserted into the sketch.  :class:`SNRRecorder` plugs into an estimator's
``observer`` hook, receives every (keys, values, accepted-mask) batch, and
accumulates the signal and noise energy of the accepted subset so the
realised ROSNR curve of Figure 5 can be compared with the Theorem-3 bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SNRRecorder",
    "estimate_sigma",
    "estimate_sigma_sparse",
    "model_stream_snr",
]


def model_stream_snr(alpha: float, u: float, sigma: float) -> float:
    """Closed-form raw-stream SNR under the section-6.1 generative model.

    A fraction ``alpha`` of variables are signal with per-sample values
    ``N(u, sigma^2)`` and the rest noise with ``N(0, sigma^2)``, so the
    expected inserted energies give

        ``SNR = alpha (u^2 + sigma^2) / ((1 - alpha) sigma^2)``

    — the value :class:`SNRRecorder` (and the online
    :class:`repro.obs.AccuracyProbe`) converge to on an *unsampled*
    stream, and the baseline against which observed ROSNR is normalised.
    Matches :func:`repro.theory.bounds.snr_count_sketch` evaluated on the
    equivalent :class:`~repro.theory.bounds.ProblemModel`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return alpha * (u * u + sigma * sigma) / ((1.0 - alpha) * sigma * sigma)


@dataclass
class SNRPoint:
    """One measurement window of the realised SNR."""

    t: int
    signal_energy: float
    noise_energy: float

    @property
    def snr(self) -> float:
        if self.noise_energy <= 0.0:
            return float("inf")
        return self.signal_energy / self.noise_energy


@dataclass
class SNRRecorder:
    """Accumulate inserted signal/noise energy per measurement window.

    Parameters
    ----------
    signal_keys:
        Flat keys of the true signal variables.
    window:
        Emit one :class:`SNRPoint` every ``window`` stream samples.
    """

    signal_keys: np.ndarray
    window: int = 200
    points: list[SNRPoint] = field(default_factory=list)
    _signal_set: frozenset = field(init=False)
    _t: int = 0
    _sig: float = 0.0
    _noise: float = 0.0
    _window_start: int = 0

    def __post_init__(self):
        self.signal_keys = np.asarray(self.signal_keys, dtype=np.int64)
        self._signal_set = frozenset(self.signal_keys.tolist())

    def __call__(
        self, t: int, keys: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Observer hook: record the energy of accepted updates.

        The updates are the estimator's, so the energy of a pair that
        several samples of a batch share depends on the pipeline's route:
        ``Σv²`` when the batch expands, ``(Σv)²`` on the dense and GEMM
        routes.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        if keys.size:
            accepted_keys = keys[mask]
            accepted_vals = values[mask]
            if accepted_keys.size:
                is_signal = np.fromiter(
                    (key in self._signal_set for key in accepted_keys.tolist()),
                    dtype=bool,
                    count=accepted_keys.size,
                )
                energy = accepted_vals**2
                self._sig += float(energy[is_signal].sum())
                self._noise += float(energy[~is_signal].sum())
        self._t = t
        if t - self._window_start >= self.window:
            self.flush()

    def flush(self) -> None:
        """Close the current window and append its point."""
        if self._t > self._window_start:
            self.points.append(SNRPoint(self._t, self._sig, self._noise))
        self._sig = 0.0
        self._noise = 0.0
        self._window_start = self._t

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """``(t, snr)`` arrays for plotting the realised SNR trajectory."""
        t = np.array([pt.t for pt in self.points], dtype=np.int64)
        snr = np.array([pt.snr for pt in self.points], dtype=np.float64)
        return t, snr


def estimate_sigma(samples: np.ndarray) -> float:
    """Average per-variable std from dense pilot samples of ``X``.

    Section 7.2 relaxation: approximate ``E Var(X_i)`` by the mean of
    ``X_i^2`` over a pilot window, ``(1/(p r)) sum_t sum_i X_i^(t)^2``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.size == 0:
        raise ValueError("need at least one pilot sample")
    return float(np.sqrt(np.mean(samples**2)))


def estimate_sigma_sparse(total_sq: float, p: int, r: int) -> float:
    """Sparse-stream form of :func:`estimate_sigma`.

    Parameters
    ----------
    total_sq:
        ``sum_t sum_i X_i^(t)^2`` accumulated over the pilot window (zero
        entries contribute nothing, so only non-zeros are summed).
    p:
        Number of variables.
    r:
        Number of pilot samples.
    """
    if p < 1 or r < 1:
        raise ValueError("p and r must be positive")
    if total_sq < 0:
        raise ValueError("total_sq must be non-negative")
    return float(np.sqrt(total_sq / (p * r)))

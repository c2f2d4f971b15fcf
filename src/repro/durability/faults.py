"""Deterministic fault injection — every failure mode on demand, seeded.

The durability tier's guarantees are only as good as the failures they
were tested against.  This module injects the interesting ones without
monkeypatching or real crashes, all driven by explicit parameters or a
seeded :class:`random.Random` so every test run reproduces exactly:

* :class:`FaultyFS` — an ``open()``-compatible factory whose file handles
  tear writes at a byte budget (:class:`SimulatedCrash` — the
  kill-at-random-batch primitive) or run out of disk
  (``errno.ENOSPC`` ``OSError``, healable — the circuit-breaker
  primitive).  Plug it into ``IngestJournal(open_fn=...)`` /
  ``DurableSketcher(open_fn=...)``.
* :func:`flip_byte` / :func:`truncate_file` — in-place file corruptors for
  bit-rot and torn-copy tests (conformance suite, checkpoint walk-back).
* :class:`Flaky` — a callable wrapper failing the first N invocations;
  wraps ``urllib``-style openers for dropped-connection client-retry
  tests, or a refresh hook for hung/failing-refresh degraded-serving
  tests.

Nothing here is test-only scaffolding in the pejorative sense: the
injector is shipped so operators can rehearse recovery against a copy of
production state.
"""

from __future__ import annotations

import errno
import random
from pathlib import Path

__all__ = [
    "SimulatedCrash",
    "FaultyFS",
    "Flaky",
    "flip_byte",
    "truncate_file",
]


class SimulatedCrash(BaseException):
    """The injected process-death point was reached mid-write.

    Deliberately a ``BaseException``: a simulated crash models the process
    dying, so no library ``except Exception`` recovery path may swallow it
    — the test harness alone catches it, then exercises recovery from the
    bytes actually on disk.
    """


class _FaultyFile:
    """File-object proxy that routes writes through the owning FS's
    fault schedule and delegates everything else."""

    def __init__(self, handle, fs: "FaultyFS"):
        self._handle = handle
        self._fs = fs

    def write(self, data) -> int:
        return self._fs._write(self._handle, bytes(data))

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class FaultyFS:
    """``open()``-compatible factory injecting deterministic write faults.

    Parameters
    ----------
    kill_at_bytes:
        Cumulative write budget (bytes, across every file opened for
        writing through this FS).  The write that would cross it persists
        only the prefix that fits (a *torn write* — flushed so the bytes
        really land), then raises :class:`SimulatedCrash`.  ``None``
        disables.  Any byte offset is a valid kill point: mid-magic,
        mid-header, mid-payload.
    disk_full_at_bytes:
        Budget after which writes raise ``OSError(ENOSPC)`` (also tearing
        the prefix that "fit").  Unlike a crash the process survives, so
        this exercises the journal's torn-tail re-segmenting and the
        ingest circuit breaker.  :meth:`heal` models space being freed.

    ``bytes_written`` / ``crashed`` / ``disk_full_hits`` expose what
    actually happened for assertions.  A crash closes every file this FS
    opened for writing, as the OS does for a dead process, and discards
    what their buffers still held: recovery sees exactly the bytes that
    reached the OS, and nothing is left open for the garbage collector.
    """

    def __init__(
        self,
        *,
        kill_at_bytes: int | None = None,
        disk_full_at_bytes: int | None = None,
    ):
        self.kill_at_bytes = kill_at_bytes
        self.disk_full_at_bytes = disk_full_at_bytes
        self.bytes_written = 0
        self.crashed = False
        self.disk_full_hits = 0
        self._writers = []

    def __call__(self, path, mode: str = "r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        if any(flag in mode for flag in ("w", "a", "+", "x")):
            self._writers.append(handle)
            return _FaultyFile(handle, self)
        return handle

    # ------------------------------------------------------------------
    def _budget(self) -> int | None:
        limits = [
            limit
            for limit in (self.kill_at_bytes, self.disk_full_at_bytes)
            if limit is not None
        ]
        return min(limits) if limits else None

    def _write(self, handle, data: bytes) -> int:
        budget = self._budget()
        if budget is not None and self.bytes_written + len(data) > budget:
            keep = max(0, budget - self.bytes_written)
            if keep:
                handle.write(data[:keep])
            handle.flush()
            self.bytes_written += keep
            if (
                self.kill_at_bytes is not None
                and budget == self.kill_at_bytes
            ):
                self.crashed = True
                for writer in self._writers:
                    # Closing the raw file first makes the buffered
                    # wrapper's own close a no-op instead of a flush.
                    getattr(writer, "raw", writer).close()
                raise SimulatedCrash(
                    f"simulated process death after {self.bytes_written} "
                    "bytes (torn write on disk)"
                )
            self.disk_full_hits += 1
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        written = handle.write(data)
        self.bytes_written += len(data)
        return written

    def heal(self) -> None:
        """Clear the disk-full condition (space was freed): the budget is
        re-based so subsequent writes succeed."""
        self.disk_full_at_bytes = None


class Flaky:
    """Callable wrapper that fails its first ``failures`` invocations.

    ``exc_factory`` builds the exception each time (default: a
    ``ConnectionResetError``, the dropped-connection flavour).  Wrap
    ``urllib.request.urlopen`` and hand it to
    ``ServingClient(opener=...)`` to test retry/backoff, or wrap a refresh
    hook with ``exc_factory=TimeoutError`` to model a hung refresh.
    ``calls`` and ``faults`` count what happened.
    """

    def __init__(self, fn, *, failures: int = 1, exc_factory=None):
        self.fn = fn
        self.failures = int(failures)
        self.exc_factory = exc_factory or (
            lambda: ConnectionResetError("injected: connection dropped")
        )
        self.calls = 0
        self.faults = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.faults < self.failures:
            self.faults += 1
            raise self.exc_factory()
        return self.fn(*args, **kwargs)


# ----------------------------------------------------------------------
# In-place file corruptors (bit rot / torn copies)
# ----------------------------------------------------------------------
def flip_byte(
    path,
    *,
    seed: int = 0,
    rng: random.Random | None = None,
    offset: int | None = None,
) -> int:
    """Flip one random bit of one byte of ``path`` in place.

    The byte is chosen by the seeded ``rng`` unless ``offset`` pins it
    (e.g. ``size // 2`` to guarantee landing inside an archive's payload
    rather than on a semantically dead zip header byte).  Returns the
    corrupted offset.  Seeded, so a failing corruption test reproduces
    byte-for-byte.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    rng = rng or random.Random(seed)
    offset = rng.randrange(len(data)) if offset is None else int(offset)
    data[offset] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))
    return offset


def truncate_file(path, *, keep: int | None = None, fraction: float = 0.5) -> int:
    """Truncate ``path`` in place to ``keep`` bytes (or ``fraction`` of its
    size).  Returns the new size — the torn-copy / torn-write fixture."""
    path = Path(path)
    size = path.stat().st_size
    keep = int(size * fraction) if keep is None else int(keep)
    keep = max(0, min(size, keep))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return keep

"""Checksums for persisted state — detect corruption before it is served.

Every durable artifact in the system is an ``.npz`` of named numpy arrays
(sketch files, shard results, serving snapshots, checkpoints, recipes and
ring manifests).  This module owns how all of them are written, read and
given up on:

* :func:`write_npz` writes atomically and appends, via
  :func:`integrity_payload`, a CRC32 per member array plus a manifest
  digest, encoded as three extra arrays inside the same archive;
* :func:`read_npz` is the one reader: it opens the archive, reads each
  member once, maps counter tables zero-copy on request
  (:func:`mmap_npz_array`), checks the members with :func:`verify_arrays`
  and reports anything unreadable — a torn zip, a failed checksum, a
  member a decoder needs but the file lacks — as one
  :class:`IntegrityError` naming the file and the reason;
* :func:`load_newest` is the one walk-back: the newest checkpoint that
  loads wins, and :func:`quarantine` sets aside each one that cannot be
  read on the way (renamed ``*.corrupt``, with a logged reason).

Why CRC32 and not a cryptographic hash: the threat model is *accidental*
corruption — torn writes, bit rot, partial copies — not adversaries.
CRC32 is ~bytes/cycle in zlib, catches all single-bit and burst errors up
to 32 bits, and keeps snapshot save overhead unmeasurable next to the
array I/O itself.

Files written before this layer existed carry no integrity members; they
load unverified (``verify_arrays`` is a no-op on them), so every pre-tier
checkpoint and shard file remains readable.
"""

from __future__ import annotations

import logging
import os
import struct
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "IntegrityError",
    "corruption_guard",
    "crc32_array",
    "integrity_payload",
    "load_newest",
    "mmap_npz_array",
    "quarantine",
    "read_npz",
    "verify_arrays",
    "write_npz",
    "INTEGRITY_MEMBERS",
]

logger = logging.getLogger(__name__)

#: The member names the integrity layer reserves inside an ``.npz``.
INTEGRITY_MEMBERS = ("integrity_names", "integrity_crcs", "integrity_digest")


class IntegrityError(ValueError):
    """A persisted artifact failed a checksum or could not be parsed.

    Raised with a message that names the file and the reason, so operators
    (and ``CheckpointManager``'s walk-back) can quarantine the exact bad
    artifact instead of guessing.  A ``ValueError`` subclass: corrupt
    input *is* a bad value, and pre-existing callers that handle
    ``ValueError`` around loads keep working unchanged.
    """


def crc32_array(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (dtype + shape are hashed separately
    via the name list, so two members cannot swap undetected)."""
    array = np.ascontiguousarray(array)
    return zlib.crc32(array.view(np.uint8).reshape(-1).data) & 0xFFFFFFFF


def _digest(names: list[str], crcs: list[int]) -> int:
    """Manifest digest: CRC32 over the sorted (name, crc) pairs, so a
    dropped, renamed or substituted member changes the digest even when
    every surviving member's own CRC still matches."""
    acc = 0
    for name, crc in sorted(zip(names, crcs)):
        acc = zlib.crc32(name.encode("utf-8"), acc)
        acc = zlib.crc32(int(crc).to_bytes(4, "little"), acc)
    return acc & 0xFFFFFFFF


def integrity_payload(payload: dict) -> dict[str, np.ndarray]:
    """Integrity members covering every array in ``payload``.

    Returns ``{integrity_names, integrity_crcs, integrity_digest}`` ready
    to be written into the same ``.npz``.  The members cover the payload
    as passed — add them last, after the payload is final.
    """
    names = sorted(str(k) for k in payload)
    crcs = [crc32_array(np.asarray(payload[name])) for name in names]
    return {
        "integrity_names": np.asarray(names),
        "integrity_crcs": np.asarray(crcs, dtype=np.uint32),
        "integrity_digest": np.asarray(_digest(names, crcs), dtype=np.uint32),
    }


def verify_arrays(
    data,
    *,
    source: str = "<arrays>",
    skip: tuple[str, ...] = (),
) -> bool:
    """Verify a loaded ``.npz`` (or array mapping) against its integrity
    members.

    Parameters
    ----------
    data:
        A mapping of member name -> array (an open ``np.load`` handle
        works).  Must expose the member names via ``.files`` or ``keys()``.
    source:
        Label for error messages (usually the file path).
    skip:
        Member names whose *contents* are not checked (their presence and
        their recorded CRC still feed the digest) — :func:`read_npz` skips
        mapped counter tables unless asked, keeping mmap opens O(headers).

    Returns ``True`` when integrity members were present and everything
    checked out, ``False`` when the payload predates the integrity layer
    (nothing to verify).  Raises :class:`IntegrityError` on any mismatch.
    """
    members = list(getattr(data, "files", None) or data.keys())
    if "integrity_names" not in members:
        return False
    for member in INTEGRITY_MEMBERS:
        if member not in members:
            raise IntegrityError(
                f"{source}: integrity members are incomplete (missing "
                f"{member!r}) — the file was truncated or assembled by hand"
            )
    names = [str(n) for n in np.asarray(data["integrity_names"])]
    crcs = np.asarray(data["integrity_crcs"], dtype=np.uint64).tolist()
    recorded_digest = int(np.asarray(data["integrity_digest"]))
    if len(names) != len(crcs):
        raise IntegrityError(
            f"{source}: integrity manifest is malformed "
            f"({len(names)} names vs {len(crcs)} checksums)"
        )
    if _digest(names, [int(c) for c in crcs]) != recorded_digest:
        raise IntegrityError(
            f"{source}: integrity manifest digest mismatch — the checksum "
            "table itself is corrupt"
        )
    present = set(members) - set(INTEGRITY_MEMBERS)
    missing = sorted(set(names) - present)
    if missing:
        raise IntegrityError(
            f"{source}: member(s) {', '.join(map(repr, missing))} are listed "
            "in the integrity manifest but absent from the archive "
            "(truncated or partially copied file)"
        )
    extra = sorted(present - set(names))
    if extra:
        raise IntegrityError(
            f"{source}: member(s) {', '.join(map(repr, extra))} are not "
            "covered by the integrity manifest (foreign or injected data)"
        )
    for name, crc in zip(names, crcs):
        if name in skip:
            continue
        actual = crc32_array(np.asarray(data[name]))
        if actual != int(crc):
            raise IntegrityError(
                f"{source}: member {name!r} failed its checksum "
                f"(recorded {int(crc):#010x}, computed {actual:#010x}) — "
                "the array bytes were corrupted on disk"
            )
    return True


@contextmanager
def corruption_guard(source):
    """Re-raise low-level archive failures as :class:`IntegrityError`.

    ``np.load`` on a truncated or bit-flipped ``.npz`` surfaces anything
    from ``zipfile.BadZipFile`` to ``zlib.error`` to a bare ``ValueError``
    depending on which bytes got hit.  :func:`read_npz` wraps every read
    and decode in this guard so callers always get one exception type
    that *names the file and the reason* — never a silently wrong
    artifact, never a grab-bag of internal errors.  ``FileNotFoundError``
    and existing :class:`IntegrityError`\\ s pass through untouched.
    """
    try:
        yield
    except (IntegrityError, FileNotFoundError):
        raise
    except (
        zipfile.BadZipFile,
        zlib.error,
        struct.error,
        EOFError,
        KeyError,
        ValueError,
        OSError,
    ) as exc:
        raise IntegrityError(
            f"{source}: unreadable or corrupt archive "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def write_npz(path, payload: dict, *, compress: bool = False) -> Path:
    """Atomically write an ``.npz`` with integrity members appended.

    The archive is written to a temporary file in the target directory and
    ``os.replace``d into place, so a crash mid-write leaves either the old
    complete file or no file — never a torn one (the failure mode
    ``CheckpointManager``'s walk-back and the WAL recovery path otherwise
    have to tolerate).  A missing ``.npz`` suffix is appended, matching
    ``np.savez``.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    out = dict(payload)
    out.update(integrity_payload(out))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            (np.savez_compressed if compress else np.savez)(handle, **out)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


@contextmanager
def read_npz(path, *, mmap: bool = False, verify_tables: bool = False):
    """The one reader of persisted ``.npz`` archives.

    A context manager yielding ``{member: array}``: every member read once
    and checked against the integrity members, which are then dropped.
    The ``with`` body is the caller's decode step and runs under the same
    :func:`corruption_guard`, so anything unreadable — a torn zip, a failed
    checksum, a member the decoder needs but a pre-integrity file lacks —
    surfaces as one :class:`IntegrityError` naming the file and the reason.

    With ``mmap=True`` the members named ``table`` or ``*_table`` (the
    counter tables, the bulk of any sketch) are read-only views from
    :func:`mmap_npz_array` instead of heap copies, so opening costs
    O(headers) whatever the table size.  Their CRC is checked only with
    ``verify_tables=True`` (pages fault in once, no heap copy).  Requires
    an archive written with ``compress=False``.
    """
    source = str(path)
    with corruption_guard(source):
        # Our own handle: np.load leaks the one it opens when the zip
        # directory cannot be parsed.
        with open(path, "rb") as handle:
            with np.load(handle, allow_pickle=False) as archive:
                tables = tuple(
                    name
                    for name in archive.files
                    if mmap and (name == "table" or name.endswith("_table"))
                )
                data = {
                    name: archive[name] for name in archive.files if name not in tables
                }
        data.update((name, mmap_npz_array(path, name)) for name in tables)
        verify_arrays(data, source=source, skip=() if verify_tables else tables)
        for member in INTEGRITY_MEMBERS:
            data.pop(member, None)
        yield data


def mmap_npz_array(path, member: str) -> np.ndarray:
    """Zero-copy read-only ``np.memmap`` of one array inside a ``.npz``.

    A ``.npz`` is a zip of ``.npy`` members; when the member is *stored*
    (``np.savez``, not ``np.savez_compressed``) its bytes sit contiguously
    in the archive, so the array can be mapped directly: locate the
    member's data offset from its zip local header, parse the ``.npy``
    header there, and map the payload.  This is what makes snapshot "load"
    latency independent of snapshot size — nothing is read eagerly beyond
    two headers.
    """
    if not member.endswith(".npy"):
        member = member + ".npy"
    with zipfile.ZipFile(path) as archive:
        try:
            info = archive.getinfo(member)
        except KeyError:
            raise KeyError(
                f"{path} has no member {member!r}; members: "
                f"{', '.join(archive.namelist())}"
            ) from None
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(
                f"cannot mmap {member!r} in {path}: the archive is "
                "compressed; re-save with compress=False for zero-copy "
                "loading"
            )
        header_offset = info.header_offset
    with open(path, "rb") as handle:
        handle.seek(header_offset)
        local_header = handle.read(30)
        if local_header[:4] != b"PK\x03\x04":
            raise ValueError(f"corrupt zip local header in {path}")
        name_len = int.from_bytes(local_header[26:28], "little")
        extra_len = int.from_bytes(local_header[28:30], "little")
        handle.seek(header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:  # pragma: no cover - numpy only writes 1.0/2.0 today
            shape, fortran, dtype = np.lib.format._read_array_header(
                handle, version
            )
        data_offset = handle.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def quarantine(path, reason, *companions) -> None:
    """Set an unreadable artifact aside: rename it, and each of its
    ``companions`` that exists, to ``<name>.corrupt`` and log ``reason``.
    Nothing is deleted, so an operator can still inspect what failed."""
    logger.warning("quarantining corrupt checkpoint %s: %s", path, reason)
    for target in (path, *companions):
        target = Path(target)
        try:
            os.replace(target, target.with_name(target.name + ".corrupt"))
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - quarantine is best-effort
            logger.warning("could not quarantine %s", target)


def load_newest(paths, load, on_corrupt=quarantine):
    """``load(path)`` for the newest loadable of ``paths`` (oldest first),
    or ``None`` when none loads.

    The one checkpoint walk-back: newest-first, a path whose load raises
    :class:`IntegrityError` or ``OSError`` (truncated, bit-flipped,
    half-written, vanished) goes to ``on_corrupt(path, exc)`` —
    :func:`quarantine` by default — and the walk falls back to the next
    newest instead of failing the process on one bad artifact.
    """
    for path in reversed(paths):
        try:
            return load(path)
        except (IntegrityError, OSError) as exc:
            on_corrupt(path, exc)
    return None

"""Sketch serialisation — persist and restore sketch state.

Linear sketches are the natural unit of distributed aggregation and of
serving snapshots: workers sketch shards of a stream and persist, a reducer
merges, a query engine freezes.  This module round-trips sketches through
``.npz`` files (``allow_pickle=False`` throughout): hash functions are
reconstructed from the stored seed, so a loaded sketch answers queries
(and merges) exactly like the original, and counter dtypes — including
quantized (fixed-point) storage and its ``quantum`` — survive the
round-trip bit-for-bit.

Archives keep a ``family`` member, always :data:`repro.hashing.FAMILY`
(multiply-shift), so files written here stay readable by builds that
still chose among hash families.  A file naming any other family is
refused (:func:`repro.hashing.check_family`): its counters were hashed
with functions this build cannot rebuild.

Two layers of API:

* :func:`sketch_to_arrays` / :func:`sketch_from_arrays` — the pure
  array-dict form, used by anything that embeds a sketch inside a larger
  ``.npz`` payload (``repro.serving.SketchSnapshot`` prefixes these keys);
* :func:`save_sketch` / :func:`load_sketch` — the file round-trip.

Kinds live in a **registry** (:func:`register_kind`): each kind supplies a
type test, an encoder and a decoder, plus the conformance metadata the
registry-wide test suite (``tests/test_conformance.py``) consumes — an
example factory and a declared merge law, so every kind registered here is
automatically held to the save/load, freeze and merge contracts.  The
built-in kinds are ``count-sketch``, ``augmented``, ``decayed`` (the
:class:`repro.sketch.DecayedSketch` wrapper, which nests its backing
sketch's arrays under an ``inner_`` prefix) and ``hierarchical``.  Higher layers —
sliding-window pane persistence, serving snapshots — write through the same
registry, so a new sketch kind becomes persistable everywhere (and
conformance-tested) by registering once.

Decoders accept ``copy=False`` to **adopt** the provided counter table
without copying — the zero-copy mmap path: hand them a read-only
``np.memmap`` of an uncompressed ``.npz`` member
(:func:`repro.durability.integrity.read_npz` with ``mmap=True``) and the
rebuilt sketch serves queries straight from the page cache, with writes
rejected by the frozen-table guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.durability.integrity import read_npz, write_npz
from repro.hashing.families import FAMILY, check_family
from repro.sketch.augmented import AugmentedSketch
from repro.sketch.count_sketch import CountSketch
from repro.sketch.decay import DecayedSketch
from repro.sketch.hierarchical import HierarchicalCountSketch

__all__ = [
    "save_sketch",
    "load_sketch",
    "sketch_to_arrays",
    "sketch_from_arrays",
    "register_kind",
    "supported_kinds",
    "kind_registry",
    "SUPPORTED_KINDS",
    "KindSpec",
]

#: Prefix under which the ``decayed`` kind nests its backing sketch arrays.
_INNER_PREFIX = "inner_"

#: Valid ``KindSpec.merge_law`` declarations, and what conformance enforces:
#: ``exact`` — merge is associative/commutative counter summation,
#: bit-identical to a one-shot run on exactly-representable streams;
#: ``approximate`` — merge succeeds and preserves heavy-key estimates, but
#: order may matter (e.g. ASketch filter folding);
#: ``unsupported`` — ``merge`` must raise ``ValueError`` citing
#: ``merge_reason``.
MERGE_LAWS = ("exact", "approximate", "unsupported")


@dataclass(frozen=True)
class KindSpec:
    """One serialisable sketch kind: recognition, codec and conformance.

    Attributes
    ----------
    name, cls:
        Registry key and the exact type it matches.
    to_arrays / from_arrays:
        The codec pair.  ``from_arrays(data, copy=...)`` must honour
        ``copy=False`` by adopting the counter table array it is given.
    make:
        ``make(seed) -> sketch`` — a small example instance for the
        registry-wide conformance suite.  Kinds without one fail
        conformance explicitly rather than silently escaping it.
    merge_law, merge_reason:
        Declared merge semantics (:data:`MERGE_LAWS`); ``merge_reason``
        is required for (and only for) ``unsupported``.
    """

    name: str
    cls: type
    to_arrays: Callable[[object], dict]
    from_arrays: Callable[..., object]
    make: Callable[[int], object] | None = None
    merge_law: str = "exact"
    merge_reason: str | None = None


#: kind name -> spec, in registration order (error messages enumerate these).
_KINDS: dict[str, KindSpec] = {}


def register_kind(
    name: str,
    *,
    cls: type,
    to_arrays: Callable[[object], dict],
    from_arrays: Callable[..., object],
    make: Callable[[int], object] | None = None,
    merge_law: str = "exact",
    merge_reason: str | None = None,
) -> None:
    """Register a sketch kind with the serialisation registry.

    Matching is by **exact** type — an ``isinstance`` test would misfile
    wrapper/backing relationships, e.g. an :class:`AugmentedSketch`'s
    backing :class:`CountSketch`, or a :class:`DecayedSketch`'s wrapped
    inner sketch.

    Registration is also enrolment: ``tests/test_conformance.py``
    parametrizes over this registry, so every kind registered here is
    automatically checked for save/load bit-identity, freeze immutability
    and its declared merge law.  Supply ``make`` (an example factory) and
    an honest ``merge_law``.
    """
    if merge_law not in MERGE_LAWS:
        raise ValueError(f"merge_law must be one of {MERGE_LAWS}, got {merge_law!r}")
    if (merge_law == "unsupported") != (merge_reason is not None):
        raise ValueError(
            "merge_reason is required exactly when merge_law='unsupported'"
        )
    _KINDS[name] = KindSpec(
        name=name,
        cls=cls,
        to_arrays=to_arrays,
        from_arrays=from_arrays,
        make=make,
        merge_law=merge_law,
        merge_reason=merge_reason,
    )


def _supported_kinds() -> tuple[str, ...]:
    return tuple(_KINDS)


def kind_registry() -> dict[str, KindSpec]:
    """A snapshot of the live registry (name -> :class:`KindSpec`)."""
    return dict(_KINDS)


def _kind_of(sketch) -> KindSpec:
    for spec in _KINDS.values():
        if type(sketch) is spec.cls:
            return spec
    supported = ", ".join(spec.cls.__name__ for spec in _KINDS.values())
    raise TypeError(
        f"cannot serialise {type(sketch).__name__}; supported sketch kinds "
        f"are: {supported}"
    )


def sketch_to_arrays(sketch) -> dict[str, np.ndarray]:
    """A sketch's complete state as a flat ``{name: ndarray}`` dict.

    Every value is a numpy array (scalars as 0-d arrays, strings as 0-d
    unicode), so the dict can be written via ``np.savez`` with
    ``allow_pickle=False`` — standalone or embedded under a key prefix in a
    larger payload.
    """
    spec = _kind_of(sketch)
    out = {"kind": np.asarray(spec.name)}
    out.update(spec.to_arrays(sketch))
    return out


def sketch_from_arrays(data: Mapping[str, np.ndarray], *, copy: bool = True):
    """Rebuild a sketch from :func:`sketch_to_arrays` output.

    The rebuilt sketch has identical hash functions (same seed) and
    an exact copy of the counters — the ``table`` dtype and any fixed-point
    ``quantum`` are preserved bit-for-bit — so queries, further inserts and
    merges behave exactly as on the original.

    With ``copy=False`` the counter table array in ``data`` is adopted
    directly (zero-copy): pass a read-only mmap view and the sketch serves
    from it without materializing the table in memory.
    """
    kind = str(data["kind"])
    if kind not in _KINDS:
        raise ValueError(
            f"unknown sketch kind {kind!r}; supported kinds are: "
            f"{', '.join(_KINDS)}"
        )
    return _KINDS[kind].from_arrays(data, copy=copy)


# ----------------------------------------------------------------------
# Built-in kinds
# ----------------------------------------------------------------------
def _quantum_from(data) -> float | None:
    if "quantum" not in data:
        return None  # pre-memory-tier file: plain float storage
    quantum = float(data["quantum"])
    return None if np.isnan(quantum) else quantum


def _restore_table(sketch: CountSketch, table, copy: bool) -> None:
    """Copy a persisted table in (adopting its width) or adopt it as is;
    either way a table of the wrong shape raises ``ValueError``."""
    if copy:
        sketch.load_table(table)
    else:
        sketch._store.attach(table)


def _table_arrays(sketch) -> dict:
    return {
        "num_tables": np.asarray(sketch.num_tables),
        "num_buckets": np.asarray(sketch.num_buckets),
        "seed": np.asarray(sketch.seed),
        "family": np.asarray(FAMILY),
        "table": sketch.table,
        "quantum": np.asarray(
            np.nan if sketch.quantum is None else sketch.quantum,
            dtype=np.float64,
        ),
    }


def _count_sketch_to_arrays(sketch: CountSketch) -> dict:
    return _table_arrays(sketch)


def _count_sketch_from_arrays(data, *, copy: bool = True) -> CountSketch:
    check_family(data["family"])
    table = np.asarray(data["table"]) if copy else data["table"]
    sketch = CountSketch(
        int(data["num_tables"]),
        int(data["num_buckets"]),
        seed=int(data["seed"]),
        dtype=table.dtype,
        quantum=_quantum_from(data),
    )
    _restore_table(sketch, table, copy)
    return sketch


def _augmented_to_arrays(sketch: AugmentedSketch) -> dict:
    backing = sketch.sketch
    filt = sketch._filter
    out = _table_arrays(backing)
    out.update(
        {
            "filter_capacity": np.asarray(sketch.filter_capacity),
            "exchange_every": np.asarray(sketch.exchange_every),
            "two_sided": np.asarray(sketch.two_sided),
            "inserts_since_exchange": np.asarray(sketch._inserts_since_exchange),
            "filter_keys": np.fromiter(
                filt.keys(), dtype=np.int64, count=len(filt)
            ),
            "filter_values": np.fromiter(
                filt.values(), dtype=np.float64, count=len(filt)
            ),
        }
    )
    return out


def _augmented_from_arrays(data, *, copy: bool = True) -> AugmentedSketch:
    check_family(data["family"])
    table = np.asarray(data["table"]) if copy else data["table"]
    sketch = AugmentedSketch(
        int(data["num_tables"]),
        int(data["num_buckets"]),
        filter_capacity=int(data["filter_capacity"]),
        seed=int(data["seed"]),
        exchange_every=int(data["exchange_every"]),
        two_sided=bool(data["two_sided"]),
        dtype=table.dtype,
        quantum=_quantum_from(data),
    )
    _restore_table(sketch.sketch, table, copy)
    sketch._inserts_since_exchange = int(data["inserts_since_exchange"])
    keys = np.asarray(data["filter_keys"], dtype=np.int64)
    values = np.asarray(data["filter_values"], dtype=np.float64)
    sketch._filter = dict(zip(keys.tolist(), values.tolist()))
    return sketch


def _decayed_to_arrays(sketch: DecayedSketch) -> dict:
    out = {
        "gamma": np.asarray(sketch.gamma, dtype=np.float64),
        "ticks": np.asarray(sketch.ticks),
        "scale": np.asarray(sketch._scale, dtype=np.float64),
        "flush_below": np.asarray(sketch.flush_below, dtype=np.float64),
    }
    for name, array in sketch_to_arrays(sketch.sketch).items():
        out[_INNER_PREFIX + name] = array
    return out


def _decayed_from_arrays(data, *, copy: bool = True) -> DecayedSketch:
    inner_state = {
        name[len(_INNER_PREFIX) :]: data[name]
        for name in data
        if name.startswith(_INNER_PREFIX)
    }
    wrapped = DecayedSketch(
        sketch_from_arrays(inner_state, copy=copy),
        float(data["gamma"]),
        flush_below=float(data["flush_below"]),
    )
    wrapped.ticks = int(data["ticks"])
    wrapped._scale = float(data["scale"])
    return wrapped


def _hierarchical_to_arrays(sketch: HierarchicalCountSketch) -> dict:
    out = {
        "num_tables": np.asarray(sketch.num_tables),
        "num_buckets": np.asarray(sketch.num_buckets),
        "seed": np.asarray(sketch.seed),
        "family": np.asarray(FAMILY),
        "key_space": np.asarray(sketch.key_space),
        "branching": np.asarray(sketch.branching),
        "levels": np.asarray(sketch.levels),
        # One quantum covers all levels: they are built with the same step,
        # and scale() folds any factor into every level identically.
        "quantum": np.asarray(
            np.nan if sketch.quantum is None else sketch.quantum,
            dtype=np.float64,
        ),
    }
    # Per-level members (not one stacked array): quantized levels widen
    # independently, and the "_table" suffix enrols each one in read_npz's
    # mmap / CRC-skip path.
    for index, level in enumerate(sketch._levels):
        out[f"level{index}_table"] = level.table
    return out


def _hierarchical_from_arrays(data, *, copy: bool = True) -> HierarchicalCountSketch:
    check_family(data["family"])
    levels = int(data["levels"])
    tables = [data[f"level{index}_table"] for index in range(levels)]
    leaf = np.asarray(tables[0]) if copy else tables[0]
    sketch = HierarchicalCountSketch(
        int(data["num_tables"]),
        int(data["num_buckets"]),
        key_space=int(data["key_space"]),
        branching=int(data["branching"]),
        levels=levels,
        seed=int(data["seed"]),
        dtype=leaf.dtype,
        quantum=_quantum_from(data),
    )
    # load_raw adopts each persisted level's width (promoting when the
    # incoming table is wider than the leaf-derived declared dtype).
    for level, table in zip(sketch._levels, tables):
        _restore_table(level, table, copy)
    return sketch


register_kind(
    "count-sketch",
    cls=CountSketch,
    to_arrays=_count_sketch_to_arrays,
    from_arrays=_count_sketch_from_arrays,
    make=lambda seed: CountSketch(3, 256, seed=seed),
)
register_kind(
    "augmented",
    cls=AugmentedSketch,
    to_arrays=_augmented_to_arrays,
    from_arrays=_augmented_from_arrays,
    make=lambda seed: AugmentedSketch(
        3, 256, filter_capacity=8, seed=seed, exchange_every=2
    ),
    # Filter folding consults the partially merged sketch, so merge order
    # can shift which keys stay exact — heavy keys survive either way.
    merge_law="approximate",
)
register_kind(
    "decayed",
    cls=DecayedSketch,
    to_arrays=_decayed_to_arrays,
    from_arrays=_decayed_from_arrays,
    make=lambda seed: DecayedSketch(CountSketch(3, 256, seed=seed), 0.5),
)
register_kind(
    "hierarchical",
    cls=HierarchicalCountSketch,
    to_arrays=_hierarchical_to_arrays,
    from_arrays=_hierarchical_from_arrays,
    make=lambda seed: HierarchicalCountSketch(
        3, 256, key_space=5000, branching=8, levels=3, seed=seed
    ),
)


#: The *built-in* serialisable sketch kinds, frozen at import time.  Kinds
#: added later through :func:`register_kind` are fully supported by
#: save/load but do not appear here — call :func:`supported_kinds` for the
#: live registry view (error messages always enumerate the live registry).
SUPPORTED_KINDS = _supported_kinds()


def supported_kinds() -> tuple[str, ...]:
    """The currently registered kind names, including late registrations."""
    return _supported_kinds()


def save_sketch(sketch, path, *, compress: bool = True) -> None:
    """Write a sketch's parameters and counters to ``path`` (``.npz``).

    The write is atomic (temp file + ``os.replace``) and every member is
    covered by a per-array CRC32 plus a manifest digest
    (:mod:`repro.durability.integrity`), which :func:`load_sketch`
    verifies — a truncated or bit-flipped file raises a clean
    :class:`~repro.durability.IntegrityError` naming the file and reason
    instead of rebuilding a silently wrong sketch.

    Parameters
    ----------
    sketch:
        Any sketch of a registered kind (:data:`SUPPORTED_KINDS`); anything
        else raises ``TypeError`` naming the supported kinds.
    path:
        Target file path (``.npz`` appended if missing).
    compress:
        Deflate the archive (default).  Pass ``False`` to store members
        raw so :func:`load_sketch` can map the counter table zero-copy
        (``mmap=True``); counter tables are high-entropy, so the size cost
        is small.
    """
    write_npz(path, sketch_to_arrays(sketch), compress=compress)


def load_sketch(path, *, mmap: bool = False, verify_tables: bool = False):
    """Restore a sketch written by :func:`save_sketch`.

    Integrity: members are checked against the CRCs recorded at save time
    (:func:`repro.durability.integrity.read_npz`); any corruption — torn
    tail, flipped bit, injected member — raises
    :class:`repro.durability.IntegrityError` naming the file and the
    reason.  Files written before the integrity layer load unverified.

    With ``mmap=True`` the counter table is a read-only ``np.memmap`` of
    the (uncompressed) archive member instead of a materialized copy:
    opening is O(metadata) regardless of table size, pages fault in on
    demand, and the frozen-table guard rejects any write path.  Requires
    the file to have been saved with ``compress=False``.  The mapped table
    is CRC-checked only with ``verify_tables=True`` (pages fault in once,
    no heap copy), which keeps the default open O(headers).
    """
    with read_npz(path, mmap=mmap, verify_tables=verify_tables) as data:
        sketch = sketch_from_arrays(data, copy=not mmap)
    # A mapped sketch is read-only by construction; freeze the whole state
    # so non-table side structures (an ASketch's exact filter) reject
    # writes too instead of half-mutating.
    if mmap and hasattr(sketch, "freeze"):
        sketch.freeze()
    return sketch

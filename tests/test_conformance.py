"""Registry-wide sketch conformance suite.

Auto-parametrized over the serialisation kind registry
(:func:`repro.sketch.serialization.kind_registry`): every registered kind
— current and future — is held to the same contracts *for free*:

* **save/load bit-identity** — the array codec and the file round-trip
  reproduce the exact state (dtypes, quantum, filters, decay clock);
* **freeze immutability** — after ``freeze()``, queries answer unchanged
  and every mutating entry point raises *without* partial mutation;
* **merge law** — the kind's *declared* law (``KindSpec.merge_law``):
  ``exact`` kinds must be associative/commutative bit-for-bit on random
  shard splits of an exactly-representable stream and equal to a one-shot
  run; ``approximate`` kinds must merge without error and preserve
  heavy-key estimates; ``unsupported`` kinds must raise ``ValueError``
  citing their declared reason;
* **insert/query vs reference** — estimates of isolated keys in a wide
  table recover the inserted mass.

Every contract that holds one sketch also runs on each kind's example
rebuilt at the other counter storage tiers (``count-sketch@int16``): the
quantized tier claims to drop into the system unchanged, so it answers to
the same net.

A kind registered without conformance metadata (no example factory, or an
undeclared merge law) fails loudly here instead of silently escaping the
net.
"""

import numpy as np
import pytest

from repro.sketch import (
    AugmentedSketch,
    CountSketch,
    DecayedSketch,
    HierarchicalCountSketch,
)
from repro.sketch.kernels import available_backends
from repro.sketch.serialization import (
    MERGE_LAWS,
    kind_registry,
    load_sketch,
    save_sketch,
    sketch_from_arrays,
    sketch_to_arrays,
)

KINDS = kind_registry()
BACKENDS = available_backends()

#: Each registry example, built on the counter storage given as keywords
#: (``TestStorageTiers`` pins the default build to the registry's).
STORED = {
    "count-sketch": lambda seed, **storage: CountSketch(3, 256, seed=seed, **storage),
    "augmented": lambda seed, **storage: AugmentedSketch(
        3, 256, filter_capacity=8, seed=seed, exchange_every=2, **storage
    ),
    "decayed": lambda seed, **storage: DecayedSketch(
        CountSketch(3, 256, seed=seed, **storage), 0.5
    ),
    "hierarchical": lambda seed, **storage: HierarchicalCountSketch(
        3, 256, key_space=5000, branching=8, levels=3, seed=seed, **storage
    ),
}

#: The non-default storage tiers.  At a quarter quantum the integral
#: streams quantize exactly and their counters stay inside int16.
TIERS = {
    "float32": {"dtype": "float32"},
    "int16": {"dtype": "int16", "quantum": 0.25},
}

#: (kind, tier) pairs the kind refuses to build: decay cannot run on
#: fixed-point counters.
REFUSED = {("decayed", "int16")}

#: The registry examples, then each at every tier it accepts.
CASES = sorted(KINDS) + [
    f"{name}@{tier}"
    for name in sorted(STORED)
    for tier in TIERS
    if (name, tier) not in REFUSED
]


@pytest.fixture(params=BACKENDS, autouse=True)
def kernel_backend(request, pin_kernels):
    """Run the whole conformance net once per importable kernel backend.

    Pinning the kernels before the registry factories build their
    sketches routes every contract — round-trip, freeze, merge law,
    corruption — through that backend's hot paths.  Locally this may
    collapse to numpy alone; the CI numba leg runs both.
    """
    pin_kernels(request.param)
    return request.param


def _spec(case):
    return KINDS[case.partition("@")[0]]


def _make(case, seed=0):
    name, _, tier = case.partition("@")
    spec = KINDS[name]
    if spec.make is None:
        pytest.fail(
            f"kind {name!r} is registered without an example factory; "
            "register_kind(..., make=...) so the conformance suite can "
            "exercise it"
        )
    if tier:
        return STORED[name](seed, **TIERS[tier])
    return spec.make(seed)


def _stream(rng, n=600, key_space=5000, integral=False):
    """(keys, values) usable by every kind: positive and optionally
    integer-valued (exactly representable partial sums, the
    precondition for bit-for-bit merge laws)."""
    keys = rng.integers(0, key_space, size=n)
    if integral:
        values = rng.integers(1, 8, size=n).astype(np.float64)
    else:
        values = np.abs(rng.standard_normal(n)) + 0.05
    return keys, values


def _insert_stream(sketch, keys, values, batch=100):
    for start in range(0, keys.size, batch):
        sketch.insert(keys[start : start + batch], values[start : start + batch])


def _assert_state_equal(left, right):
    """Bit-for-bit comparison through the canonical array encoding."""
    a, b = sketch_to_arrays(left), sketch_to_arrays(right)
    assert a.keys() == b.keys()
    for name in a:
        av, bv = np.asarray(a[name]), np.asarray(b[name])
        assert av.dtype == bv.dtype, f"{name}: {av.dtype} != {bv.dtype}"
        np.testing.assert_array_equal(av, bv, err_msg=name)


@pytest.fixture
def rng():
    return np.random.default_rng(90210)


class TestRegistryMetadata:
    """A registration without conformance metadata must fail loudly."""

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_kind_declares_example_factory(self, name):
        _make(name)  # fails with the actionable message when absent

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_kind_declares_valid_merge_law(self, name):
        spec = KINDS[name]
        assert spec.merge_law in MERGE_LAWS
        if spec.merge_law == "unsupported":
            assert spec.merge_reason, (
                f"kind {name!r} declares merge_law='unsupported' without a "
                "reason; raise with one so reducers surface it"
            )

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_factory_matches_registered_class(self, name):
        assert type(_make(name)) is KINDS[name].cls


class TestStorageTiers:
    """The tier cases rebuild each example through ``STORED``; a kind
    missing there, or built differently there, would escape the tiers."""

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_stored_factory_builds_the_registry_example(self, name, rng):
        assert name in STORED, (
            f"kind {name!r} has no STORED factory; add one so the storage "
            "tier cases exercise it"
        )
        stored, example = STORED[name](3), _make(name, seed=3)
        keys, values = _stream(rng)
        _insert_stream(stored, keys, values)
        _insert_stream(example, keys, values)
        _assert_state_equal(stored, example)

    @pytest.mark.parametrize(("name", "tier"), sorted(REFUSED))
    def test_left_out_tiers_are_refused(self, name, tier):
        with pytest.raises(ValueError, match="quantized"):
            STORED[name](0, **TIERS[tier])


class TestSaveLoadBitIdentity:
    @pytest.mark.parametrize("name", CASES)
    def test_file_round_trip(self, name, rng, tmp_path):
        sketch = _make(name, seed=3)
        _insert_stream(sketch, *_stream(rng))
        path = str(tmp_path / f"{name}.npz")
        save_sketch(sketch, path)
        loaded = load_sketch(path)
        _assert_state_equal(loaded, sketch)
        probe = rng.integers(0, 5000, size=400)
        np.testing.assert_array_equal(loaded.query(probe), sketch.query(probe))

    @pytest.mark.parametrize("name", CASES)
    def test_array_round_trip(self, name, rng):
        sketch = _make(name, seed=5)
        _insert_stream(sketch, *_stream(rng))
        rebuilt = sketch_from_arrays(sketch_to_arrays(sketch))
        _assert_state_equal(rebuilt, sketch)

    @pytest.mark.parametrize("name", CASES)
    def test_loaded_sketch_ingests_identically(self, name, rng, tmp_path):
        sketch = _make(name, seed=7)
        keys, values = _stream(rng)
        _insert_stream(sketch, keys, values)
        path = str(tmp_path / f"{name}.npz")
        save_sketch(sketch, path)
        loaded = load_sketch(path)
        more_k, more_v = _stream(rng, n=200)
        sketch.insert(more_k, more_v)
        loaded.insert(more_k, more_v)
        probe = rng.integers(0, 5000, size=300)
        np.testing.assert_array_equal(loaded.query(probe), sketch.query(probe))


class TestFreezeImmutability:
    @pytest.mark.parametrize("name", CASES)
    def test_freeze_blocks_writes_preserves_reads(self, name, rng):
        sketch = _make(name, seed=11)
        keys, values = _stream(rng)
        _insert_stream(sketch, keys, values)
        probe = rng.integers(0, 5000, size=300)
        before = sketch.query(probe).copy()
        assert hasattr(sketch, "freeze"), (
            f"kind {name!r} has no freeze(): serving snapshots cannot "
            "guarantee immutability for it"
        )
        sketch.freeze()
        with pytest.raises(ValueError):
            sketch.insert(keys[:50], values[:50])
        # The failed insert must not have half-mutated anything.
        np.testing.assert_array_equal(sketch.query(probe), before)

    @pytest.mark.parametrize("name", CASES)
    def test_frozen_reset_raises(self, name, rng):
        sketch = _make(name, seed=13)
        _insert_stream(sketch, *_stream(rng))
        sketch.freeze()
        with pytest.raises(ValueError):
            sketch.reset()


class TestMergeLaw:
    def _shards(self, name, rng, num_shards):
        keys, values = _stream(rng, n=900, integral=True)
        splits = np.sort(rng.integers(1, 899, size=num_shards - 1))
        bounds = [0, *splits.tolist(), 900]
        shards = []
        for s in range(num_shards):
            shard = _make(name, seed=17)
            _insert_stream(
                shard,
                keys[bounds[s] : bounds[s + 1]],
                values[bounds[s] : bounds[s + 1]],
            )
            shards.append(shard)
        one_shot = _make(name, seed=17)
        _insert_stream(one_shot, keys, values)
        return shards, one_shot

    @pytest.mark.parametrize("name", CASES)
    def test_declared_merge_law_holds(self, name, rng):
        spec = _spec(name)
        if spec.merge_law == "unsupported":
            a, b = _make(name, seed=17), _make(name, seed=17)
            with pytest.raises(ValueError) as excinfo:
                a.merge(b)
            assert spec.merge_reason.split()[0].lower() in str(excinfo.value).lower()
            return
        shards, one_shot = self._shards(name, rng, num_shards=3)

        def merged(order):
            parts = [shards[i].copy() for i in order]
            acc = parts[0]
            for part in parts[1:]:
                acc.merge(part)
            return acc

        left = merged([0, 1, 2])
        right = merged([2, 0, 1])
        if spec.merge_law == "exact":
            # Associativity + commutativity, bit-for-bit, and equality with
            # the one-shot run (integer stream => exactly representable).
            probe = rng.integers(0, 5000, size=500)
            reference = one_shot.query(probe)
            _assert_state_equal(left, right)
            np.testing.assert_array_equal(left.query(probe), reference)
            np.testing.assert_array_equal(right.query(probe), reference)
        else:
            # Approximate law: merge order may shuffle which keys stay
            # exact, but a planted heavy key's mass must survive any order.
            planted, mass = 4242, 400.0
            for shard in shards:
                shard.insert(np.array([planted]), np.array([mass]))
            for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
                acc = merged(order)
                got = acc.query_single(planted)
                assert got == pytest.approx(3 * mass, rel=0.15), (
                    f"merge order {order} lost the planted heavy key: "
                    f"{got} vs {3 * mass}"
                )

    @pytest.mark.parametrize("name", CASES)
    def test_random_split_counts(self, name, rng):
        """Merge law must hold for any shard count, not just 3."""
        spec = _spec(name)
        if spec.merge_law != "exact":
            pytest.skip("random-split sweep applies to exact merge laws")
        for num_shards in (2, 4, 6):
            shards, one_shot = self._shards(name, rng, num_shards=num_shards)
            acc = shards[0]
            for part in shards[1:]:
                acc.merge(part)
            probe = rng.integers(0, 5000, size=300)
            np.testing.assert_array_equal(acc.query(probe), one_shot.query(probe))


class TestQuantizedVariantsConform:
    """The compact tier rides the same registry entries (dtype + quantum in
    the arrays), so the core contracts are re-pinned on quantized tables."""

    def _pair(self, dtype, seed=23):
        from repro.sketch.count_sketch import CountSketch

        return CountSketch(3, 256, seed=seed, dtype=dtype, quantum=0.25)

    @pytest.mark.parametrize("dtype", ["int16", "int32"])
    def test_round_trip_preserves_storage(self, dtype, rng, tmp_path):
        sketch = self._pair(dtype)
        keys, values = _stream(rng, integral=True)
        _insert_stream(sketch, keys, values)
        path = str(tmp_path / f"q{dtype}.npz")
        save_sketch(sketch, path)
        loaded = load_sketch(path)
        assert loaded.storage_dtype == np.dtype(dtype)
        assert loaded.quantum == 0.25
        np.testing.assert_array_equal(loaded.table, sketch.table)
        probe = rng.integers(0, 5000, size=300)
        np.testing.assert_array_equal(loaded.query(probe), sketch.query(probe))

    def test_promoted_table_round_trips(self, rng, tmp_path):
        sketch = self._pair("int16")
        sketch.insert(np.array([1]), np.array([0.25 * (np.iinfo(np.int16).max + 5)]))
        assert sketch.storage_dtype == np.int32  # promoted
        path = str(tmp_path / "promoted.npz")
        save_sketch(sketch, path)
        loaded = load_sketch(path)
        assert loaded.storage_dtype == np.int32
        assert loaded.quantum == 0.25
        np.testing.assert_array_equal(loaded.table, sketch.table)

    @pytest.mark.parametrize("dtype", ["int16", "int32"])
    def test_merge_law_exact_on_quantized(self, dtype, rng):
        keys, values = _stream(rng, n=600, integral=True)
        full = self._pair(dtype)
        _insert_stream(full, keys, values)
        a, b = self._pair(dtype), self._pair(dtype)
        _insert_stream(a, keys[:250], values[:250])
        _insert_stream(b, keys[250:], values[250:])
        ab = a.copy().merge(b)
        ba = b.copy().merge(a)
        np.testing.assert_array_equal(ab.table, ba.table)
        np.testing.assert_array_equal(ab.table, full.table)


class TestCorruptionDetection:
    """Every registered kind's file must fail *loudly* when damaged.

    A truncated copy or a flipped byte must raise
    :class:`~repro.durability.IntegrityError` naming the file and a
    reason — never load into a silently wrong sketch, never leak a
    zipfile/zlib internal error.  Rides the registry like every other
    conformance contract: future kinds inherit the tests for free.
    """

    def _saved(self, name, rng, tmp_path):
        sketch = _make(name, seed=31)
        _insert_stream(sketch, *_stream(rng))
        path = tmp_path / f"{name}.npz"
        save_sketch(sketch, str(path))
        return path

    @pytest.mark.parametrize("name", CASES)
    def test_truncated_file_raises_clean_error(self, name, rng, tmp_path):
        from repro.durability import IntegrityError
        from repro.durability.faults import truncate_file

        path = self._saved(name, rng, tmp_path)
        truncate_file(path, fraction=0.5)
        with pytest.raises(IntegrityError) as excinfo:
            load_sketch(str(path))
        assert str(path) in str(excinfo.value)  # names the file

    @pytest.mark.parametrize("name", CASES)
    def test_flipped_byte_raises_clean_error(self, name, rng, tmp_path):
        from repro.durability import IntegrityError
        from repro.durability.faults import flip_byte

        path = self._saved(name, rng, tmp_path)
        # Mid-file lands inside a member's compressed payload — a flip on
        # a zip header byte can be semantically dead, this one never is.
        flip_byte(path, offset=path.stat().st_size // 2)
        with pytest.raises(IntegrityError) as excinfo:
            load_sketch(str(path))
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("name", CASES)
    def test_corrupt_table_caught_even_with_mmap(self, name, rng, tmp_path):
        """The lazy-verify mmap path must still catch table corruption
        when table verification is requested."""
        from repro.durability import IntegrityError
        from repro.durability.faults import flip_byte

        sketch = _make(name, seed=37)
        _insert_stream(sketch, *_stream(rng))
        path = tmp_path / f"{name}-mmap.npz"
        save_sketch(sketch, str(path), compress=False)
        flip_byte(path, offset=path.stat().st_size // 2)
        with pytest.raises(IntegrityError):
            load_sketch(str(path), mmap=True, verify_tables=True)


class TestCrossBackendBitIdentity:
    """Every registered kind must leave byte-identical state and answers on
    every importable backend — the kernels change throughput, never
    answers.  One-backend hosts trivially pass with a single entry;
    the CI numba leg turns these into real numpy-vs-numba comparisons.
    """

    def _fitted(self, name, backend, pin_kernels, *, seed_stream=777):
        pin_kernels(backend)
        sketch = _make(name, seed=41)
        rng = np.random.default_rng(seed_stream)
        _insert_stream(sketch, *_stream(rng))
        return sketch

    @pytest.mark.parametrize("name", CASES)
    def test_insert_and_query_identical(self, name, pin_kernels):
        probe = np.random.default_rng(778).integers(0, 5000, size=400)
        sketches = [
            self._fitted(name, backend, pin_kernels) for backend in BACKENDS
        ]
        reference = sketches[0]
        expected = reference.query(probe)
        for other in sketches[1:]:
            _assert_state_equal(other, reference)
            np.testing.assert_array_equal(other.query(probe), expected)

    @pytest.mark.parametrize("name", CASES)
    def test_combined_insert_and_query_identical(self, name, pin_kernels):
        if not hasattr(_spec(name).cls, "insert_and_query"):
            pytest.skip(f"kind {name!r} has no combined insert_and_query")
        live_rng = np.random.default_rng(555)
        live_keys, live_values = _stream(live_rng, n=300)
        outputs, sketches = [], []
        for backend in BACKENDS:
            sketch = self._fitted(name, backend, pin_kernels)
            outputs.append(sketch.insert_and_query(live_keys, live_values))
            sketches.append(sketch)
        for estimates, sketch in zip(outputs[1:], sketches[1:]):
            np.testing.assert_array_equal(estimates, outputs[0])
            _assert_state_equal(sketch, sketches[0])

    @pytest.mark.parametrize("name", CASES)
    def test_merged_state_identical(self, name, pin_kernels):
        if _spec(name).merge_law == "unsupported":
            pytest.skip(f"kind {name!r} declares merging unsupported")
        merged = []
        for backend in BACKENDS:
            pin_kernels(backend)
            rng = np.random.default_rng(911)
            keys, values = _stream(rng, n=600, integral=True)
            a = _make(name, seed=43)
            b = _make(name, seed=43)
            _insert_stream(a, keys[:300], values[:300])
            _insert_stream(b, keys[300:], values[300:])
            merged.append(a.merge(b))
        for other in merged[1:]:
            _assert_state_equal(other, merged[0])

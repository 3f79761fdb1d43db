"""Robustness and correctness of the content-addressed skeleton store.

The store must never crash on (or serve) a damaged entry: truncated,
bit-flipped and version-mismatched files are logged, evicted and rebuilt.
Cached evaluation must agree with the plain pipeline for every tree of the
same structural class — including trees that only share the class because the
hash quotients out names and rates.
"""

from __future__ import annotations

import logging
import os
import pickle

import pytest

from repro.core.measures import MTTF, Unreliability
from repro.core.study import Study, StudyOptions
from repro.dft.builder import FaultTreeBuilder
from repro.dft.hashing import structural_hash
from repro.service.store import (
    FORMAT_VERSION,
    MAGIC,
    SkeletonEntry,
    SkeletonStore,
    build_entry,
    cache_key,
)

TOLERANCE = 1e-9


def _tree(lam=0.5, mu=0.7, name="store-tree"):
    builder = FaultTreeBuilder(name)
    builder.basic_event("a", lam)
    builder.basic_event("b", mu)
    builder.and_gate("top", ["a", "b"])
    return builder.build("top")


def _pand_tree(first, second):
    builder = FaultTreeBuilder("pand-order")
    builder.basic_event("x", 1.0)
    builder.basic_event("y", 2.0)
    builder.pand_gate("top", [first, second])
    return builder.build("top")


@pytest.fixture
def store(tmp_path):
    return SkeletonStore(tmp_path / "cache")


class TestRoundTrip:
    def test_miss_builds_and_persists(self, store):
        tree = _tree()
        entry, hit = store.get_or_build(tree, StudyOptions())
        assert not hit
        assert store.path_of(entry.key).exists()
        again, hit = store.get_or_build(tree, StudyOptions())
        assert hit
        assert again.key == entry.key
        assert store.stats()["hits"] == 1

    def test_key_depends_on_structure_and_options(self, store):
        tree = _tree()
        base = cache_key(tree, StudyOptions())
        assert cache_key(_tree(lam=9.9), StudyOptions()) == base  # rates excluded
        assert cache_key(tree, StudyOptions(ordering="sequential")) != base
        # Tolerance is an evaluation-time knob, not a pipeline input.
        assert cache_key(tree, StudyOptions(tolerance=1e-6)) == base

    def test_unpickled_buffer_keeps_skeleton_identity(self, store):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        loaded = store.load(entry.key)
        assert loaded is not None
        assert loaded.buffer is not None
        assert loaded.buffer.skeleton is loaded.skeleton

    def test_cached_values_match_plain_pipeline(self, store):
        query = Unreliability([0.5, 1.0, 2.0]) + MTTF()
        for tree in (_tree(), _tree(lam=1.5, mu=0.2, name="other")):
            cached = Study(tree, skeleton_cache=store).evaluate(query)
            plain = Study(tree).evaluate(query)
            for ours, theirs in zip(cached.measures, plain.measures):
                for a, b in zip(ours.values, theirs.values):
                    assert a == pytest.approx(b, abs=TOLERANCE)

    def test_pand_child_order_served_correctly_from_one_entry(self, store):
        # Both orders share a structural class (children identical up to
        # rates); the canonical assignment must keep the orders apart.
        query = Unreliability([1.0])
        forward = _pand_tree("x", "y")
        backward = _pand_tree("y", "x")
        assert structural_hash(forward) == structural_hash(backward)
        served = {}
        for tree in (forward, backward):
            cached = Study(tree, skeleton_cache=store).evaluate(query)
            plain = Study(tree).evaluate(query)
            served[tree.top] = cached
            assert cached.measures[0].values[0] == pytest.approx(
                plain.measures[0].values[0], abs=TOLERANCE
            )
        assert store.stats()["entries"] == 1  # one shared structural entry


class TestCorruptionRobustness:
    def _entry_path(self, store):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        return entry.key, store.path_of(entry.key)

    def _assert_recovers(self, store, key, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            assert store.load(key) is None
        assert any("evict" in record.message for record in caplog.records)
        assert not store.path_of(key).exists()  # evicted, not left to rot
        assert store.stats()["corrupt_evictions"] >= 1
        # The next request recomputes and re-persists a good entry.
        entry, hit = store.get_or_build(_tree(), StudyOptions())
        assert not hit
        assert store.load(entry.key) is not None

    def test_bit_flip_in_payload(self, store, caplog):
        key, path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        self._assert_recovers(store, key, caplog)

    def test_bit_flip_in_header(self, store, caplog):
        key, path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[1] ^= 0xFF  # inside the magic
        path.write_bytes(bytes(blob))
        self._assert_recovers(store, key, caplog)

    def test_truncated_entry(self, store, caplog):
        key, path = self._entry_path(store)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        self._assert_recovers(store, key, caplog)

    def test_empty_entry(self, store, caplog):
        key, path = self._entry_path(store)
        path.write_bytes(b"")
        self._assert_recovers(store, key, caplog)

    def test_version_mismatch(self, store, caplog):
        key, path = self._entry_path(store)
        blob = path.read_bytes()
        bumped = (
            MAGIC
            + (FORMAT_VERSION + 1).to_bytes(4, "big")
            + blob[len(MAGIC) + 4 :]
        )
        path.write_bytes(bumped)
        self._assert_recovers(store, key, caplog)

    def test_checksum_valid_but_wrong_object(self, store, caplog):
        import hashlib

        key, path = self._entry_path(store)
        payload = pickle.dumps({"not": "an entry"}, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(
            MAGIC
            + FORMAT_VERSION.to_bytes(4, "big")
            + hashlib.sha256(payload).digest()
            + payload
        )
        self._assert_recovers(store, key, caplog)


class TestEvictionAndCap:
    def test_lru_cap_evicts_oldest(self, tmp_path):
        probe_store = SkeletonStore(tmp_path / "probe")
        probe, _ = probe_store.get_or_build(_tree(), StudyOptions())
        entry_bytes = probe_store.path_of(probe.key).stat().st_size

        store = SkeletonStore(tmp_path / "capped", max_bytes=int(entry_bytes * 2.5))
        trees = [
            _tree(),  # 2 events
            _bigger_tree(3),
            _bigger_tree(4),
            _bigger_tree(5),
        ]
        for tree in trees:
            store.get_or_build(tree, StudyOptions())
        stats = store.stats()
        assert stats["evictions"] >= 1
        assert stats["total_bytes"] <= int(entry_bytes * 2.5) or stats["entries"] == 1

    def test_clear_removes_everything(self, store):
        store.get_or_build(_tree(), StudyOptions())
        store.get_or_build(_bigger_tree(3), StudyOptions())
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_no_temp_files_left_behind(self, store):
        store.get_or_build(_tree(), StudyOptions())
        leftovers = [
            name for name in os.listdir(store.root) if name.startswith(".tmp-")
        ]
        assert leftovers == []


def _bigger_tree(events):
    builder = FaultTreeBuilder(f"big{events}")
    names = [builder.basic_event(f"e{i}", 0.5 + 0.1 * i) for i in range(events)]
    builder.or_gate("top", names)
    return builder.build("top")


class TestWarm:
    def test_warm_counts_and_is_idempotent(self, store, tmp_path):
        from repro.dft import galileo

        paths = []
        for index, tree in enumerate((_tree(), _bigger_tree(3))):
            path = tmp_path / f"warm{index}.dft"
            galileo.write_file(tree, str(path))
            paths.append(str(path))
        first = store.warm(paths, StudyOptions())
        assert first == {"built": 2, "hits": 0, "failed": 0}
        second = store.warm(paths, StudyOptions())
        assert second == {"built": 0, "hits": 2, "failed": 0}

    def test_warm_records_failures(self, store, tmp_path):
        bad = tmp_path / "broken.dft"
        bad.write_text("this is not galileo")
        outcome = store.warm([str(bad)], StudyOptions())
        assert outcome["failed"] == 1

    def test_entry_rejected_under_wrong_key(self, store, caplog):
        # An entry renamed on disk (key no longer matches content) must be
        # treated as corrupt, not served for the wrong structural class.
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        other_key = "0" * len(entry.key)
        os.rename(store.path_of(entry.key), store.path_of(other_key))
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            assert store.load(other_key) is None
        assert store.stats()["corrupt_evictions"] >= 1


class TestFormatVersions:
    """Format v2 (compressed, canonical params) must keep reading v1 files."""

    def _as_v1_file(self, store, entry):
        """Rewrite ``entry`` on disk in the version-1 layout: uncompressed
        payload pickled without the ``canonical_params`` field."""
        import copy
        import hashlib

        old = copy.copy(entry)
        del old.canonical_params  # v1 pickles predate the field
        payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
        store.path_of(entry.key).write_bytes(
            MAGIC + (1).to_bytes(4, "big") + hashlib.sha256(payload).digest() + payload
        )

    def test_v2_entry_round_trips_canonical_params(self, store):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        assert entry.canonical_params  # canonical parametrisation declares them
        restored = store.load(entry.key)
        assert restored.canonical_params == entry.canonical_params

    def test_v1_file_still_readable(self, store):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        self._as_v1_file(store, entry)
        restored = store.load(entry.key)
        assert restored is not None
        assert restored.key == entry.key
        assert restored.canonical_params == ()  # backfilled, never missing
        assert store.stats()["corrupt_evictions"] == 0

    def test_v1_and_v2_serve_identical_measures(self, store):
        tree = _tree()
        entry, _ = store.get_or_build(tree, StudyOptions())
        fresh = Study(tree, StudyOptions(), skeleton_cache=store).evaluate(
            Unreliability([1.0])
        )
        self._as_v1_file(store, entry)
        legacy = Study(tree, StudyOptions(), skeleton_cache=store).evaluate(
            Unreliability([1.0])
        )
        assert legacy.options["skeleton_cache"] == "hit"
        assert legacy.measures[0].values == fresh.measures[0].values

    def test_v2_payload_is_compressed(self, store):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        stats = store.stats()
        assert stats["compression"].startswith("zlib-")
        assert 0 < stats["compressed_bytes"] < stats["payload_bytes"]
        assert stats["compression_ratio"] > 1.0
        on_disk = store.path_of(entry.key).stat().st_size
        assert on_disk < stats["payload_bytes"]

    def test_undecompressable_v2_payload_evicted(self, store, caplog):
        import hashlib

        entry, _ = store.get_or_build(_tree(), StudyOptions())
        path = store.path_of(entry.key)
        garbage = b"definitely not a zlib stream"
        path.write_bytes(
            MAGIC
            + FORMAT_VERSION.to_bytes(4, "big")
            + hashlib.sha256(garbage).digest()
            + garbage
        )
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            assert store.load(entry.key) is None
        assert any("undecompressable" in r.message for r in caplog.records)
        assert not path.exists()
        assert store.stats()["corrupt_evictions"] == 1

    def test_future_version_evicted_not_crashed(self, store, caplog):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        path = store.path_of(entry.key)
        blob = path.read_bytes()
        path.write_bytes(MAGIC + (99).to_bytes(4, "big") + blob[len(MAGIC) + 4 :])
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            assert store.load(entry.key) is None
        assert store.stats()["corrupt_evictions"] == 1


class TestReadOnlyStore:
    """A store on a read-only or shared mount keeps serving cache hits.

    The LRU touch after a successful read is a best-effort optimisation;
    when the filesystem rejects it (read-only remount, NFS without write
    access) the entry must still be served, with a single warning per store
    object rather than one per hit (or a crash).
    """

    def test_utime_failure_serves_entry_and_warns_once(
        self, store, caplog, monkeypatch
    ):
        entry, _ = store.get_or_build(_tree(), StudyOptions())

        def deny(path, *args, **kwargs):
            raise PermissionError(13, "Read-only file system", str(path))

        monkeypatch.setattr("repro.service.store.os.utime", deny)
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            first = store.load(entry.key)
            second = store.load(entry.key)
        assert first is not None and first.key == entry.key
        assert second is not None and second.key == entry.key
        assert store.stats()["hits"] == 2
        touch_warnings = [
            record for record in caplog.records if "LRU" in record.message
        ]
        assert len(touch_warnings) == 1  # warn once, not per hit

    def test_chmod_0500_store_still_serves(self, store):
        # Drop write permission on the store directory after populating it.
        # (With CAP_DAC_OVERRIDE — e.g. running as root — the kernel may let
        # the touch through anyway; the invariant under test is that load()
        # serves the entry and never raises, whichever way utime goes.)
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        store.root.chmod(0o500)
        try:
            loaded = store.load(entry.key)
            assert loaded is not None
            assert loaded.key == entry.key
            assert store.stats()["hits"] == 1
        finally:
            store.root.chmod(0o700)


class TestStaleTempReclaim:
    """Orphaned ``.tmp-*`` spill files are reclaimed on the next store().

    The dot prefix hides them from the byte cap and ``clear``, so a writer
    crashing between mkstemp and the atomic rename used to leak the file
    forever.  Temps older than the grace age are unlinked; young ones may
    belong to a live concurrent writer and must survive.
    """

    def test_stale_temp_reclaimed_fresh_temp_kept(self, store, caplog):
        from repro.service.store import ENTRY_SUFFIX, TEMP_GRACE_SECONDS

        store.root.mkdir(parents=True, exist_ok=True)
        stale = store.root / f".tmp-deadbeef{ENTRY_SUFFIX}"
        stale.write_bytes(b"half-written")
        backdated = stale.stat().st_mtime - 2 * TEMP_GRACE_SECONDS
        os.utime(stale, (backdated, backdated))
        fresh = store.root / f".tmp-cafef00d{ENTRY_SUFFIX}"
        fresh.write_bytes(b"live writer")

        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            store.get_or_build(_tree(), StudyOptions())  # triggers store()

        assert not stale.exists()
        assert fresh.exists()
        assert store.temp_reclaimed == 1
        assert store.stats()["temp_reclaimed"] == 1
        assert any("reclaimed stale temp" in r.message for r in caplog.records)

    def test_normal_store_leaves_no_temps_and_reclaims_nothing(self, store):
        store.get_or_build(_tree(), StudyOptions())
        leftovers = list(store.root.glob(".tmp-*"))
        assert leftovers == []
        assert store.temp_reclaimed == 0

    def test_reclaim_is_direct_and_age_gated(self, store, tmp_path):
        from repro.service.store import ENTRY_SUFFIX, TEMP_GRACE_SECONDS

        store.root.mkdir(parents=True, exist_ok=True)
        temp = store.root / f".tmp-0123abcd{ENTRY_SUFFIX}"
        temp.write_bytes(b"x")
        mtime = temp.stat().st_mtime
        # Just inside the grace window: kept.
        assert store._reclaim_stale_temps(now=mtime + TEMP_GRACE_SECONDS - 1) == 0
        assert temp.exists()
        # Just past it: reclaimed.
        assert store._reclaim_stale_temps(now=mtime + TEMP_GRACE_SECONDS + 1) == 1
        assert not temp.exists()


class TestTouch:
    """``touch`` records a hit answered from a decoded copy held in memory:
    the hit counter and the byte cap's mtime-LRU order see it like a load."""

    @staticmethod
    def _backdate(path, seconds):
        stamp = path.stat().st_mtime - seconds
        os.utime(path, (stamp, stamp))
        return stamp

    def test_touch_advances_mtime_and_counts_a_hit(self, store):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        path = store.path_of(entry.key)
        backdated = self._backdate(path, 100.0)
        store.touch(entry.key)
        assert path.stat().st_mtime > backdated
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1  # the build

    def test_touch_of_a_removed_entry_is_silent(self, store, caplog):
        entry, _ = store.get_or_build(_tree(), StudyOptions())
        store.clear()
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            store.touch(entry.key)
        assert not store.path_of(entry.key).exists()  # not recreated
        assert caplog.records == []

    def test_utime_failure_warns_once(self, store, caplog, monkeypatch):
        entry, _ = store.get_or_build(_tree(), StudyOptions())

        def deny(path, *args, **kwargs):
            raise PermissionError(13, "Read-only file system", str(path))

        monkeypatch.setattr("repro.service.store.os.utime", deny)
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            store.touch(entry.key)
            store.touch(entry.key)
            assert store.load(entry.key) is not None
        assert store.stats()["hits"] == 3
        touch_warnings = [
            record for record in caplog.records if "LRU" in record.message
        ]
        assert len(touch_warnings) == 1

    def test_cap_keeps_an_entry_served_only_from_service_memory(self, tmp_path):
        from repro.dft import galileo
        from repro.service.app import AnalysisService

        hot, cold, new = _tree(), _bigger_tree(3), _bigger_tree(4)
        probe = SkeletonStore(tmp_path / "probe")
        sizes = []
        for tree in (hot, cold, new):
            entry, _ = probe.get_or_build(tree, StudyOptions())
            sizes.append(probe.path_of(entry.key).stat().st_size)
        # Room for any two entries, not for all three.
        store = SkeletonStore(
            tmp_path / "capped", max_bytes=sum(sizes) - min(sizes) // 2
        )
        service = AnalysisService(store)
        try:
            keys = {}
            for label, tree in (("hot", hot), ("cold", cold)):
                _, response = service.handle(
                    "POST", "/analyze", {"tree": galileo.write(tree)}
                )
                keys[label] = response["service"]["key"]
            # Written hot first: by write time it is the older entry.
            self._backdate(store.path_of(keys["hot"]), 100.0)
            self._backdate(store.path_of(keys["cold"]), 50.0)
            _, warm = service.handle(
                "POST", "/analyze", {"tree": galileo.write(hot)}
            )
            assert warm["service"]["cache"] == "hit"
            assert service.metrics_payload()["memory_hits"] == 1
            service.handle("POST", "/analyze", {"tree": galileo.write(new)})
        finally:
            service.close()
        assert store.path_of(keys["hot"]).exists()
        assert not store.path_of(keys["cold"]).exists()
        assert store.stats()["evictions"] == 1

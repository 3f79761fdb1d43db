"""Content-addressed on-disk store of aggregated skeletons.

The expensive half of the pipeline (conversion, composition, minimisation)
depends only on a fault tree's *structure* — :mod:`repro.dft.hashing` defines
the equivalence and its canonical hash.  This module caches the expensive
half's output under that hash:

* one cache entry = the :class:`~repro.ctmc.builders.CtmcSkeleton` /
  :class:`~repro.ctmc.builders.CtmdpSkeleton` of the tree's *canonical
  parametrisation* (every rate bound to a canonical per-event parameter, so
  the entry serves **every** tree of the hash class), plus the prebuilt CSR
  pattern (:class:`~repro.ctmc.kernel.CsrBuffer`), the aggregation statistics
  summary and the build timings;
* the on-disk format is ``MAGIC | format version | sha256(payload) | payload``
  with the payload a pickle of the entry — any truncation, bit flip, version
  mismatch or unpicklable payload is detected, logged, **evicted** and
  silently recomputed, never crashing a request and never serving a stale or
  corrupt structure;
* writes are atomic (temp file + ``os.replace``) so concurrent builders and
  readers only ever observe complete entries;
* an optional byte cap turns the directory into an mtime-LRU: loads (and
  :meth:`SkeletonStore.touch`, for hits served from a decoded copy held in
  memory) touch the entry, stores evict the oldest entries beyond the cap.

:class:`~repro.core.study.Study` and :class:`~repro.core.sweep.SweepStudy`
accept a store via ``skeleton_cache=`` and skip conversion + aggregation +
minimisation entirely on a hit; the HTTP serving layer
(:mod:`repro.service.server`) is built on the same entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import time as _time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.results import ModelInfo
from ..core.study import Study, StudyOptions
from ..ctmc.builders import CtmcSkeleton, CtmdpSkeleton
from ..ctmc.kernel import CsrBuffer
from ..dft import galileo
from ..dft.hashing import (
    HASH_VERSION,
    CanonicalProfile,
    canonical_parametrisation,
    structural_hash,
)
from ..dft.tree import DynamicFaultTree
from ..errors import AnalysisError, ReproError

LOGGER = logging.getLogger("repro.service.store")

#: Leading bytes of every cache file ("Repro SKeleton Cache").
MAGIC = b"RSKC"
#: On-disk format version written by :meth:`SkeletonStore.store`.  Version 2
#: compresses the payload with zlib level 1 and adds the cached canonical
#: parameter list to the entry; version 1 (uncompressed) files remain
#: readable — the checksum always covers the *uncompressed* pickle bytes.
FORMAT_VERSION = 2
#: Versions :meth:`SkeletonStore.load` still accepts.
READABLE_VERSIONS = (1, 2)
#: zlib compression level of version-2 payloads (pickled CSR buffers are
#: highly compressible; level 1 is nearly free next to a pipeline run).
COMPRESSION_LEVEL = 1
#: Bytes before the pickled payload: magic, version, payload checksum.
_HEADER_SIZE = len(MAGIC) + 4 + 32
#: File suffix of cache entries.
ENTRY_SUFFIX = ".skel"
#: Temp files (``.tmp-*``) older than this are considered orphans of a
#: crashed writer and reclaimed on the next store; younger ones may belong
#: to a live concurrent writer and are left alone.
TEMP_GRACE_SECONDS = 3600.0


def _options_fingerprint(options: Optional[StudyOptions]) -> str:
    """A short digest of the options that shape the cached structure.

    Tolerance and worker counts do not: the truncation tolerance only affects
    evaluation, and parallel aggregation is pinned identical to serial.
    """
    payload = (options or StudyOptions()).to_dict()
    payload.pop("tolerance", None)
    payload.pop("aggregation_processes", None)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def cache_key(
    tree: DynamicFaultTree,
    options: Optional[StudyOptions] = None,
    tree_hash: Optional[str] = None,
) -> str:
    """The store key of ``tree``: structural hash + options fingerprint.

    ``tree_hash`` accepts a precomputed :func:`structural_hash` (e.g. from a
    :class:`~repro.dft.hashing.CanonicalProfile`) so callers that already
    walked the tree do not walk it again.
    """
    if tree_hash is None:
        tree_hash = structural_hash(tree)
    return f"{tree_hash}-{_options_fingerprint(options)}"


@dataclass
class SkeletonEntry:
    """One cached structure: skeleton, CSR pattern, statistics, provenance.

    The skeleton belongs to the *canonical parametrisation* of the hash
    class, so instantiating it under
    :func:`repro.dft.hashing.canonical_assignment` of any member tree yields
    that tree's Markov model.  ``buffer`` (CTMC entries only) shares the
    skeleton object, an identity pickling preserves.
    """

    key: str
    tree_hash: str
    hash_version: int
    skeleton: Union[CtmcSkeleton, CtmdpSkeleton]
    buffer: Optional[CsrBuffer]
    model: ModelInfo
    statistics: Dict[str, object]
    timings: Dict[str, float] = field(default_factory=dict)
    #: Canonical parameter names declared by the class's canonical
    #: parametrisation, in canonical order (format version 2; empty on
    #: entries restored from version-1 files).
    canonical_params: Tuple[str, ...] = ()

    @property
    def nondeterministic(self) -> bool:
        return isinstance(self.skeleton, CtmdpSkeleton)


def build_entry(
    tree: DynamicFaultTree,
    options: Optional[StudyOptions] = None,
    key: Optional[str] = None,
    tree_hash: Optional[str] = None,
) -> SkeletonEntry:
    """Run the expensive pipeline once for ``tree``'s structural class.

    The pipeline runs on the canonical parametrisation, so the resulting
    skeleton is rate-free: concrete rates of the source tree never leak into
    the cached structure.
    """
    if tree_hash is None:
        tree_hash = structural_hash(tree)
    if key is None:
        key = f"{tree_hash}-{_options_fingerprint(options)}"
    canonical = canonical_parametrisation(tree)
    study = Study(canonical, options)
    skeleton = study.skeleton
    start = _time.perf_counter()
    buffer = None if study.is_nondeterministic else CsrBuffer(skeleton)
    buffer_seconds = _time.perf_counter() - start
    study_timings = study.timings
    skeleton_seconds = study_timings.get("markov", 0.0) + buffer_seconds
    timings = {
        "conversion": study_timings.get("conversion", 0.0),
        "aggregation": study_timings.get("aggregation", 0.0),
        "skeleton": skeleton_seconds,
        "build": (
            study_timings.get("conversion", 0.0)
            + study_timings.get("aggregation", 0.0)
            + skeleton_seconds
        ),
    }
    return SkeletonEntry(
        key=key,
        tree_hash=tree_hash,
        hash_version=HASH_VERSION,
        skeleton=skeleton,
        buffer=buffer,
        model=study._model_info(),
        statistics=dict(study.statistics.to_dict(include_steps=False)),
        timings=timings,
        canonical_params=tuple(canonical.parameters),
    )


class SkeletonStore:
    """A directory of content-addressed skeleton entries with an LRU byte cap.

    Thread/process safety relies on the atomicity of ``os.replace`` and on
    entries being immutable once written: concurrent builders of the same key
    race benignly (last write wins, both writes are identical up to timings)
    and readers only ever see complete files.  Counters (hits, misses,
    corrupt evictions, ...) are per-store-object.
    """

    def __init__(
        self, root: Union[str, Path], max_bytes: Optional[int] = None
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and int(max_bytes) <= 0:
            raise AnalysisError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt_evictions = 0
        self.temp_reclaimed = 0
        self._utime_warned = False

    # ------------------------------------------------------------------ paths
    def path_of(self, key: str) -> Path:
        return self.root / f"{key}{ENTRY_SUFFIX}"

    def _entries_on_disk(self) -> List[Path]:
        return [
            path
            for path in self.root.glob(f"*{ENTRY_SUFFIX}")
            if not path.name.startswith(".")
        ]

    # ------------------------------------------------------------------- load
    def load(self, key: str) -> Optional[SkeletonEntry]:
        """The entry under ``key``, or None (miss / evicted-corrupt entry)."""
        path = self.path_of(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            LOGGER.warning("skeleton cache: cannot read %s (%s)", path, error)
            self.misses += 1
            return None
        entry = self._decode(raw, path, key)
        if entry is None:
            self.misses += 1
            return None
        self.touch(key)
        return entry

    def touch(self, key: str) -> None:
        """Count a hit on ``key`` and bump the entry in the LRU order.

        :meth:`load` ends here; a caller that answers from an entry it
        already decoded calls it directly, so the hit counter and the byte
        cap's mtime order follow what is actually used without reading the
        file again.  An entry no longer on disk is left gone: the caller's
        copy stays valid because entries are content-addressed and immutable.
        """
        path = self.path_of(key)
        try:
            os.utime(path)
        except FileNotFoundError:
            pass
        except OSError as error:
            # A read-only or shared (NFS) store cannot take the LRU touch;
            # the entry itself is perfectly good, so serve it anyway and say
            # so once per store object instead of failing (or staying silent
            # about degraded LRU ordering) on every hit.
            if not self._utime_warned:
                self._utime_warned = True
                LOGGER.warning(
                    "skeleton cache: cannot touch %s for LRU ordering (%s); "
                    "entries are served anyway but eviction order degrades to "
                    "write time",
                    path,
                    error,
                )
        self.hits += 1

    def _decode(
        self, raw: bytes, path: Path, key: str
    ) -> Optional[SkeletonEntry]:
        """Decode one cache file; evict (and log) anything not pristine."""
        if len(raw) < _HEADER_SIZE or raw[: len(MAGIC)] != MAGIC:
            return self._evict_corrupt(path, "truncated or foreign header")
        version = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 4], "big")
        if version not in READABLE_VERSIONS:
            return self._evict_corrupt(
                path, f"format version {version} not in {READABLE_VERSIONS}"
            )
        checksum = raw[len(MAGIC) + 4 : _HEADER_SIZE]
        payload = raw[_HEADER_SIZE:]
        if version >= 2:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as error:
                return self._evict_corrupt(path, f"undecompressable payload ({error})")
        if hashlib.sha256(payload).digest() != checksum:
            return self._evict_corrupt(path, "payload checksum mismatch")
        try:
            entry = pickle.loads(payload)
        except Exception as error:  # noqa: BLE001 - any unpickling failure
            return self._evict_corrupt(path, f"unpicklable payload ({error})")
        if not isinstance(entry, SkeletonEntry):
            return self._evict_corrupt(path, "payload is not a skeleton entry")
        if not hasattr(entry, "canonical_params"):
            entry.canonical_params = ()  # restored from a version-1 file
        if entry.hash_version != HASH_VERSION:
            return self._evict_corrupt(
                path,
                f"structural-hash version {entry.hash_version} != {HASH_VERSION}",
            )
        if entry.key != key:
            return self._evict_corrupt(path, f"entry key {entry.key!r} != {key!r}")
        return entry

    def _evict_corrupt(self, path: Path, reason: str) -> None:
        LOGGER.warning(
            "skeleton cache: evicting %s (%s); the structure will be recomputed",
            path,
            reason,
        )
        try:
            path.unlink()
        except OSError:
            pass
        self.corrupt_evictions += 1
        return None

    # ------------------------------------------------------------------ store
    def store(self, entry: SkeletonEntry) -> Path:
        """Atomically persist ``entry`` and enforce the byte cap.

        The payload is zlib-compressed (level :data:`COMPRESSION_LEVEL`); the
        header checksum stays over the *uncompressed* pickle bytes, so the
        integrity check survives any future compression change.
        """
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        compressed = zlib.compress(payload, COMPRESSION_LEVEL)
        blob = (
            MAGIC
            + FORMAT_VERSION.to_bytes(4, "big")
            + hashlib.sha256(payload).digest()
            + compressed
        )
        path = self.path_of(entry.key)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=ENTRY_SUFFIX
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        self._reclaim_stale_temps()
        self._enforce_cap(keep=path)
        return path

    def _reclaim_stale_temps(self, now: Optional[float] = None) -> int:
        """Unlink orphaned ``.tmp-*`` files left behind by crashed writers.

        A writer that dies between ``mkstemp`` and ``os.replace`` leaks its
        temp file forever: the dot prefix hides it from ``_entries_on_disk``,
        so neither the byte cap nor ``clear`` ever touches it.  Temp files
        younger than :data:`TEMP_GRACE_SECONDS` may belong to a *live*
        concurrent writer and are left alone; older ones are reclaimed.
        """
        if now is None:
            now = _time.time()
        reclaimed = 0
        for path in self.root.glob(f".tmp-*{ENTRY_SUFFIX}"):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age < TEMP_GRACE_SECONDS:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            reclaimed += 1
            LOGGER.warning(
                "skeleton cache: reclaimed stale temp file %s (%.0fs old)",
                path,
                age,
            )
        self.temp_reclaimed += reclaimed
        return reclaimed

    def _enforce_cap(self, keep: Optional[Path] = None) -> None:
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self._entries_on_disk():
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
            total += status.st_size
        entries.sort()
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep and len(entries) > 1:
                continue  # evict the newest entry only as a last resort
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1

    # ------------------------------------------------------------- high level
    def get_or_build(
        self,
        tree: DynamicFaultTree,
        options: Optional[StudyOptions] = None,
        profile: Optional[CanonicalProfile] = None,
    ) -> Tuple[SkeletonEntry, bool]:
        """The entry of ``tree``'s class, building and persisting on a miss.

        Returns ``(entry, hit)``.  A store failure (disk full, read-only
        root) degrades to cache-less operation: the freshly built entry is
        returned anyway.  ``profile`` accepts the tree's precomputed
        :class:`~repro.dft.hashing.CanonicalProfile` so a hit costs no
        further tree walk.
        """
        tree_hash = None if profile is None else profile.hash
        key = cache_key(tree, options, tree_hash=tree_hash)
        entry = self.load(key)
        if entry is not None:
            return entry, True
        entry = build_entry(tree, options, key=key, tree_hash=tree_hash)
        try:
            self.store(entry)
        except OSError as error:
            LOGGER.warning(
                "skeleton cache: cannot persist %s (%s); serving unpersisted",
                key,
                error,
            )
        return entry, False

    def warm(
        self,
        sources: Iterable[Union[str, Path, DynamicFaultTree]],
        options: Optional[StudyOptions] = None,
    ) -> Dict[str, int]:
        """Prebuild entries for trees / Galileo files; returns counters."""
        built = 0
        hits = 0
        failed = 0
        for source in sources:
            try:
                if isinstance(source, DynamicFaultTree):
                    tree = source
                else:
                    tree = galileo.parse_file(str(source))
                _entry, hit = self.get_or_build(tree, options)
            except (ReproError, OSError) as error:
                LOGGER.warning("skeleton cache: cannot warm %s (%s)", source, error)
                failed += 1
                continue
            if hit:
                hits += 1
            else:
                built += 1
        return {"built": built, "hits": hits, "failed": failed}

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for path in self._entries_on_disk():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def _compression_on_disk(self, entries: List[Path]) -> Dict[str, int]:
        """Uncompressed vs stored payload bytes, measured from the files.

        Measured on demand rather than accumulated at write time so a fresh
        ``repro cache stats`` process reports the real on-disk figures.
        Entries that cannot be read or inflated are skipped here — ``load``
        is the path that evicts them.
        """
        payload = compressed = 0
        for path in entries:
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            if len(raw) < _HEADER_SIZE or raw[: len(MAGIC)] != MAGIC:
                continue
            version = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 4], "big")
            body = len(raw) - _HEADER_SIZE
            if version == 1:  # stored uncompressed
                payload += body
                compressed += body
            elif version in READABLE_VERSIONS:
                try:
                    payload += len(zlib.decompress(raw[_HEADER_SIZE:]))
                except zlib.error:
                    continue
                compressed += body
        return {"payload_bytes": payload, "compressed_bytes": compressed}

    def stats(self) -> Dict[str, object]:
        """Disk usage and per-object counters, JSON-safe."""
        entries = self._entries_on_disk()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                continue
        compression = self._compression_on_disk(entries)
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": total,
            "max_bytes": self.max_bytes,
            "hash_version": HASH_VERSION,
            "format_version": FORMAT_VERSION,
            "compression": f"zlib-{COMPRESSION_LEVEL}",
            "payload_bytes": compression["payload_bytes"],
            "compressed_bytes": compression["compressed_bytes"],
            "compression_ratio": (
                round(
                    compression["payload_bytes"]
                    / compression["compressed_bytes"],
                    3,
                )
                if compression["compressed_bytes"]
                else None
            ),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt_evictions": self.corrupt_evictions,
            "temp_reclaimed": self.temp_reclaimed,
        }

"""The transport-free analysis application: request dict in, response dict out.

:class:`AnalysisService` owns one :class:`~repro.service.store.SkeletonStore`
and serves the same result schemas the CLI emits (``repro.study/1``,
``repro.sweep/3``, ``repro.batch/1``) over plain dictionaries, so the HTTP
layer (:mod:`repro.service.server`) is a thin JSON shell and every endpoint is
testable without a socket.

Bit-identity is the design invariant: a served ``/analyze`` response carries
exactly the measures an in-process ``Study(tree, skeleton_cache=store)``
computes, because both paths evaluate a
:class:`repro.core.study.CompiledModel` of the same store entry.  Every
process — the service's own and, with ``processes > 0``, each worker of its
pool — keeps a small LRU of decoded entries and their compiled models, so a
warm hit neither reads nor unpickles the entry file and a hot entry's CSR
pattern, Poisson terms and gradient kernel survive between requests.  The
service still touches the store on such a hit (:meth:`SkeletonStore.touch`),
so the store's hit counter and its on-disk LRU order stay truthful; hits
answered from memory are counted as ``memory_hits`` in ``/metrics``.  A
failure of the pool itself (a dead worker, a pickling or OS error, an entry
the worker's store lost) falls back to the in-process path, counted as
``pool_fallbacks`` in ``/metrics`` and logged; any other worker exception
propagates like an in-process one.  An unexpected exception in a handler
becomes a logged 500 response instead of escaping to the transport.
``/metrics`` also carries the store's counters (its quotient memo's among
them) and ``saturation_overflows``, the weak minimisations of the service
process that fell back from the closure engine to the splitter engine.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time as _time
from collections import OrderedDict, deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from ..core.measures import (
    MTTF,
    Query,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
)
from ..core.results import (
    BatchResult,
    BatchRow,
    MeasureResult,
    RestoredStatistics,
    StudyResult,
    SweepResult,
    SweepRow,
)
from ..core.study import CompiledModel, StudyOptions
from ..core.sweep import RateSweep, SweepStudy, with_rate_parameters
from ..dft import galileo
from ..dft.elements import BasicEvent
from ..dft.hashing import CanonicalProfile, canonical_profile, translate_sample
from ..errors import AnalysisError, ReproError
from ..ioimc.bisimulation import saturation_overflows
from .store import SkeletonEntry, SkeletonStore, cache_key

LOGGER = logging.getLogger("repro.service.app")

#: Service response envelope version (additive ``service`` key on results).
SERVICE_SCHEMA = "repro.service/1"


def query_from_payload(
    payload: Optional[Mapping[str, object]], nondeterministic: bool = False
) -> Query:
    """Build a measure :class:`Query` from the wire query payload.

    Keys (all optional): ``times`` — mission times for the unreliability
    curve (default ``[1.0]``); ``bounds`` — report (min, max) envelopes;
    ``mttf`` / ``unavailability`` — extra scalar measures.  When the target
    model is non-deterministic the unreliability measure is upgraded to
    bounds automatically, mirroring the CLI.
    """
    if payload is not None and not isinstance(payload, Mapping):
        raise AnalysisError("the 'query' field must be an object")
    payload = {} if payload is None else dict(payload)
    known = {"times", "bounds", "mttf", "unavailability"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise AnalysisError(
            "unknown query field(s): " + ", ".join(unknown)
            + f" (expected a subset of {sorted(known)})"
        )
    raw_times = payload.get("times", [1.0])
    if not isinstance(raw_times, (list, tuple)) or not raw_times:
        raise AnalysisError("query 'times' must be a non-empty list of mission times")
    try:
        times = [float(value) for value in raw_times]
    except (TypeError, ValueError):
        raise AnalysisError(f"query 'times' must be numbers, got {raw_times!r}") from None
    bounds = bool(payload.get("bounds", False)) or nondeterministic
    measures = [UnreliabilityBounds(times) if bounds else Unreliability(times)]
    if payload.get("mttf"):
        measures.append(MTTF())
    if payload.get("unavailability"):
        measures.append(Unavailability())
    return Query(measures)


def _percentile(samples: Tuple[float, ...], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


class ServiceMetrics:
    """Thread-safe per-endpoint request metrics with a bounded latency window."""

    def __init__(self, window: int = 1024):
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._latencies: Dict[str, Deque[float]] = {}
        self._window = int(window)
        self._started = _time.time()
        self._pool_fallbacks = 0
        self._memory_hits = 0

    def record(self, endpoint: str, seconds: float, ok: bool = True) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            if not ok:
                self._errors[endpoint] = self._errors.get(endpoint, 0) + 1
            window = self._latencies.setdefault(
                endpoint, deque(maxlen=self._window)
            )
            window.append(seconds)

    def record_pool_fallback(self) -> None:
        with self._lock:
            self._pool_fallbacks += 1

    def record_memory_hit(self) -> None:
        with self._lock:
            self._memory_hits += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            endpoints = {}
            for endpoint in sorted(self._requests):
                samples = tuple(self._latencies.get(endpoint, ()))
                endpoints[endpoint] = {
                    "requests": self._requests[endpoint],
                    "errors": self._errors.get(endpoint, 0),
                    "p50_ms": _percentile(samples, 0.50) * 1000.0,
                    "p95_ms": _percentile(samples, 0.95) * 1000.0,
                }
            return {
                "uptime_seconds": _time.time() - self._started,
                "endpoints": endpoints,
                "pool_fallbacks": self._pool_fallbacks,
                "memory_hits": self._memory_hits,
            }


# ---------------------------------------------------------------------------
# compiled-model cache (one per process: the parent and every pool worker)
# ---------------------------------------------------------------------------

#: Exceptions that mean the worker pool, not the request, failed: a dead
#: worker, an unpicklable payload, an OS-level spawn/pipe error, or the
#: worker's store lost the entry (:func:`_worker_entry`).  Anything else a
#: worker raises is a bug and propagates.
POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError, OSError, KeyError)


class _ModelCache:
    """An LRU of decoded :class:`~repro.service.store.SkeletonEntry` s and
    their :class:`~repro.core.study.CompiledModel` s, keyed by entry key.

    Each slot pairs an entry with its model, so one capacity and one
    eviction order govern both: a hot entry is never read from disk or
    unpickled again, and its CSR pattern, Poisson terms and gradient kernel
    survive between requests.  Not thread-safe: the service holds one lock
    around every use.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self._slots: "OrderedDict[str, Tuple[SkeletonEntry, CompiledModel]]" = (
            OrderedDict()
        )

    def entry(self, key: str) -> Optional[SkeletonEntry]:
        """The cached entry of ``key`` (now the most recent), or ``None``."""
        slot = self._slots.get(key)
        if slot is None:
            return None
        self._slots.move_to_end(key)
        return slot[0]

    def put(self, entry: SkeletonEntry) -> Tuple[SkeletonEntry, CompiledModel]:
        """Cache ``entry`` (or mark its key most recent); returns the slot.

        A slot already holding ``entry.key`` keeps its own (equal) entry
        object, which its model was compiled from.
        """
        slot = self._slots.get(entry.key)
        if slot is None:
            slot = self._slots[entry.key] = (
                entry,
                CompiledModel(entry.skeleton, buffer=entry.buffer),
            )
            while len(self._slots) > self.capacity:
                self._slots.popitem(last=False)
        else:
            self._slots.move_to_end(entry.key)
        return slot

    def evaluate(
        self,
        key: str,
        load_entry: Callable[[], SkeletonEntry],
        assignment: Mapping[str, float],
        query_payload: Optional[Mapping[str, object]],
        tolerance: float,
    ) -> Tuple[MeasureResult, ...]:
        """Per-measure failures are recorded in the results, as the CLI does."""
        entry = self.entry(key)
        _entry, model = self.put(load_entry() if entry is None else entry)
        query = query_from_payload(query_payload, nondeterministic=model.nondeterministic)
        return model.evaluate(
            query, assignment, tolerance=tolerance, on_error="record"
        ).measures


#: A pool worker's store handle and compiled models (set by its initializer).
_WORKER_STORE: Optional[SkeletonStore] = None
_WORKER_MODELS: Optional[_ModelCache] = None


def _init_service_worker(root: str, max_bytes: Optional[int]) -> None:
    global _WORKER_STORE, _WORKER_MODELS
    _WORKER_STORE = SkeletonStore(root, max_bytes=max_bytes)
    _WORKER_MODELS = _ModelCache()


def _worker_entry(key: str) -> SkeletonEntry:
    assert _WORKER_STORE is not None
    entry = _WORKER_STORE.load(key)
    if entry is None:
        # Evicted between the parent's get_or_build and this load (cap
        # pressure): the parent evaluates inline instead.
        raise KeyError(key)
    return entry


def _service_evaluate(
    key: str,
    assignment: Dict[str, float],
    query_payload: Optional[Dict[str, object]],
    tolerance: float,
) -> Tuple[Tuple[MeasureResult, ...], float]:
    """One evaluation in a pool worker, with its worker-side wall time."""
    assert _WORKER_MODELS is not None
    start = _time.perf_counter()
    measures = _WORKER_MODELS.evaluate(
        key, partial(_worker_entry, key), assignment, query_payload, tolerance
    )
    return measures, _time.perf_counter() - start


# ---------------------------------------------------------------------------
# the application object
# ---------------------------------------------------------------------------

class AnalysisService:
    """Serves analyses from a skeleton store; every handler is dict -> dict.

    ``processes > 0`` attaches a pool of worker processes that evaluate
    ``/analyze`` requests, ``/batch`` rows and plain ``/sweep`` rows (each
    worker keeps its own compiled models warm); ``processes = 0`` evaluates
    in-process with one compiled model per cache key.  Either way the
    service's own LRU answers warm structural hits without touching the
    entry file beyond an mtime bump.
    """

    def __init__(
        self,
        store: SkeletonStore,
        options: Optional[StudyOptions] = None,
        processes: int = 0,
    ):
        if int(processes) < 0:
            raise AnalysisError(f"processes must be >= 0, got {processes}")
        self.store = store
        self.options = options or StudyOptions()
        self.processes = int(processes)
        self.metrics = ServiceMetrics()
        # Builds are serialised apart from the LRU, so a cold build never
        # holds up a warm hit; one lock guards every use of the LRU.
        self._build_lock = threading.Lock()
        self._models_lock = threading.Lock()
        self._models = _ModelCache()
        self._pool: Optional[ProcessPoolExecutor] = None
        if self.processes > 0:
            self._pool = ProcessPoolExecutor(
                max_workers=self.processes,
                initializer=_init_service_worker,
                initargs=(str(store.root), store.max_bytes),
            )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -------------------------------------------------------------- dispatch
    def handle(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, object]],
    ) -> Tuple[int, Dict[str, object]]:
        """Route one request; returns ``(http_status, response_dict)``.

        Domain errors (bad trees, bad queries) become 400 responses; unknown
        paths 404; method mismatches 405; any other exception is a bug of the
        service, logged with its traceback and answered with 500 so the
        connection stays usable.  Every request is recorded in
        :attr:`metrics` under its endpoint.
        """
        endpoint = path.rstrip("/") or "/"
        routes = {
            ("POST", "/analyze"): self.analyze,
            ("POST", "/sweep"): self.sweep,
            ("POST", "/batch"): self.batch,
            ("GET", "/healthz"): lambda _payload: self.healthz(),
            ("GET", "/metrics"): lambda _payload: self.metrics_payload(),
        }
        handler = routes.get((method, endpoint))
        if handler is None:
            if any(route_path == endpoint for _, route_path in routes):
                return 405, {"error": f"method {method} not allowed on {endpoint}"}
            return 404, {"error": f"unknown endpoint: {endpoint}"}
        start = _time.perf_counter()
        try:
            response = handler(payload)
        except ReproError as error:
            self.metrics.record(endpoint, _time.perf_counter() - start, ok=False)
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - answer, never drop the connection
            self.metrics.record(endpoint, _time.perf_counter() - start, ok=False)
            LOGGER.exception("%s %s failed", method, endpoint)
            return 500, {"error": f"internal error: {error!r}"}
        self.metrics.record(endpoint, _time.perf_counter() - start, ok=True)
        return 200, response

    # -------------------------------------------------------------- handlers
    def _parse_tree(self, payload: Optional[Mapping[str, object]], field: str = "tree"):
        if payload is None or field not in payload:
            raise AnalysisError(f"the request body needs a {field!r} field "
                                "holding a Galileo fault-tree description")
        text = payload[field]
        if not isinstance(text, str) or not text.strip():
            raise AnalysisError(f"request field {field!r} must be a non-empty "
                                "Galileo description string")
        return galileo.parse(text, name="<request>")

    def _get_entry(
        self, tree, profile: CanonicalProfile
    ) -> Tuple[SkeletonEntry, bool]:
        """``(entry, hit)`` of ``tree``'s structural class.

        A hit in the LRU is answered from memory and only touches the store
        (:meth:`SkeletonStore.touch`); a miss goes through the store, which
        decodes or builds the entry, and fills the LRU.
        """
        key = cache_key(tree, self.options, tree_hash=profile.hash)
        with self._models_lock:
            entry = self._models.entry(key)
            if entry is not None:
                self.store.touch(key)
                self.metrics.record_memory_hit()
                return entry, True
        with self._build_lock:
            entry, hit = self.store.get_or_build(tree, self.options, profile=profile)
        with self._models_lock:
            self._models.put(entry)
        return entry, hit

    def _pool_fallback(self, error: BaseException) -> None:
        """Count and log a pool failure the in-process path absorbs."""
        self.metrics.record_pool_fallback()
        LOGGER.warning("worker pool failed (%r); evaluating in-process", error)

    def _submit(self, entry, assignment, query_payload) -> Optional[Future]:
        """Queue one evaluation on the worker pool (``None``: evaluate here)."""
        if self._pool is None:
            return None
        try:
            return self._pool.submit(
                _service_evaluate,
                entry.key,
                dict(assignment),
                None if query_payload is None else dict(query_payload),
                self.options.tolerance,
            )
        except POOL_FAILURES as error:
            self._pool_fallback(error)
            return None

    def _evaluate(
        self, entry, assignment, query_payload, future: Optional[Future] = None
    ) -> Tuple[Tuple[MeasureResult, ...], float]:
        """One tree's measures and evaluation seconds.

        Reads ``future`` (the tree's :meth:`_submit`) when there is one; a
        pool failure, or no future at all, evaluates in-process, so the
        response never depends on pool health.
        """
        if future is not None:
            try:
                return future.result()
            except POOL_FAILURES as error:
                self._pool_fallback(error)
        start = _time.perf_counter()
        with self._models_lock:
            measures = self._models.evaluate(
                entry.key, lambda: entry, assignment, query_payload, self.options.tolerance
            )
        return measures, _time.perf_counter() - start

    @staticmethod
    def _query_payload(payload) -> Optional[Mapping[str, object]]:
        query_payload = payload.get("query") if payload else None
        if query_payload is not None and not isinstance(query_payload, Mapping):
            raise AnalysisError("the 'query' field must be an object")
        return query_payload

    def _wrap_study_result(
        self, tree, entry, hit, measures, evaluation: float
    ) -> StudyResult:
        options = self.options.to_dict()
        options["skeleton_cache"] = "hit" if hit else "miss"
        return StudyResult(
            tree_name=tree.name,
            tree_summary=tree.summary(),
            measures=measures,
            model=entry.model,
            statistics=RestoredStatistics(dict(entry.statistics)),
            options=options,
            timings={"evaluation": evaluation, "total": evaluation},
        )

    def analyze(self, payload: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """``POST /analyze``: one tree, one query -> ``repro.study/1``.

        The tree is walked once: the request's
        :class:`~repro.dft.hashing.CanonicalProfile` supplies both the cache
        key's structural hash and the canonical rate assignment, so a cache
        hit evaluates without touching the tree again.
        """
        tree = self._parse_tree(payload)
        profile = canonical_profile(tree)
        entry, hit = self._get_entry(tree, profile)
        query_payload = self._query_payload(payload)
        start = _time.perf_counter()
        measures, _seconds = self._evaluate(
            entry,
            profile.assignment,
            query_payload,
            self._submit(entry, profile.assignment, query_payload),
        )
        result = self._wrap_study_result(
            tree, entry, hit, measures, _time.perf_counter() - start
        )
        response = result.to_dict(include_steps=False)
        response["service"] = {
            "schema": SERVICE_SCHEMA,
            "cache": "hit" if hit else "miss",
            "key": entry.key,
        }
        return response

    def sweep(self, payload: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """``POST /sweep``: one tree, axes or samples -> ``repro.sweep/3``.

        ``processes`` (a JSON integer >= 1, default 1) asks for a per-request
        worker pool; the service never starts more workers than it has CPUs.
        ``share_uniformisation`` must be a JSON boolean.
        """
        tree = self._parse_tree(payload)
        assert payload is not None
        processes = payload.get("processes", 1)
        if isinstance(processes, bool) or not isinstance(processes, int) or processes < 1:
            raise AnalysisError(f"'processes' must be an integer >= 1, got {processes!r}")
        share = payload.get("share_uniformisation", False)
        if not isinstance(share, bool):
            raise AnalysisError(f"'share_uniformisation' must be true or false, got {share!r}")
        axes = payload.get("axes")
        samples = payload.get("samples")
        if (axes is None) == (samples is None):
            raise AnalysisError(
                "a sweep request needs exactly one of 'axes' "
                "(parameter -> value list) or 'samples' (list of assignments)"
            )
        if axes is not None and isinstance(axes, Mapping):
            swept = [str(name) for name in axes]
        elif isinstance(samples, (list, tuple)):
            swept = sorted(
                {
                    str(name)
                    for sample in samples
                    if isinstance(sample, Mapping)
                    for name in sample
                }
            )
        else:
            swept = []
        # Mirror the CLI: an axis naming a basic event (not a declared
        # parameter) attaches a parameter of the same name to that event.
        attach = [
            name
            for name in swept
            if name not in tree.parameters
            and name in tree
            and isinstance(tree.element(name), BasicEvent)
        ]
        if attach:
            tree = with_rate_parameters(tree, {name: name for name in attach})
        profile = canonical_profile(tree)
        entry, hit = self._get_entry(tree, profile)
        query = query_from_payload(
            payload.get("query"), nondeterministic=entry.nondeterministic  # type: ignore[arg-type]
        )
        if axes is not None:
            if not isinstance(axes, Mapping) or not axes:
                raise AnalysisError("'axes' must map parameter names to value lists")
            rate_sweep = RateSweep.grid(query, **{str(k): v for k, v in axes.items()})  # type: ignore[arg-type]
        else:
            if not isinstance(samples, (list, tuple)):
                raise AnalysisError("'samples' must be a list of parameter assignments")
            rate_sweep = RateSweep(query, samples)  # type: ignore[arg-type]
        result = None
        if self._pool is not None and not share:
            result = self._sweep_pooled(tree, profile, entry, hit, rate_sweep, payload)
        if result is None:
            study = SweepStudy(tree, self.options, skeleton_cache=self.store)
            # The LRU's entry and compiled model: no second decode, and the
            # rows run on the kernels the warm requests keep (under the lock
            # that guards every use of them).
            with self._models_lock:
                study.study.adopt_entry(*self._models.put(entry), hit=hit)
                result = study.run(
                    rate_sweep,
                    processes=min(processes, os.cpu_count() or 1),
                    share_uniformisation=share,
                )
        response = result.to_dict()
        response["service"] = {
            "schema": SERVICE_SCHEMA,
            "cache": "hit" if hit else "miss",
            "key": entry.key,
        }
        return response

    def _sweep_pooled(
        self, tree, profile: CanonicalProfile, entry, hit, rate_sweep, payload
    ) -> Optional[SweepResult]:
        """Fan the sweep's rows out over the service worker pool.

        All rows are submitted concurrently, so one big ``POST /sweep``
        saturates every pool worker (each holding warm compiled models)
        instead of spinning up a fresh per-request pool.  Rows come back in
        sample order with the same per-row measures as the inline engine.
        Returns ``None`` on any pool failure — the caller falls back to the
        inline sweep engine (``share_uniformisation`` requests take the
        inline path up front: the pinned Poisson table is per-plan state the
        pooled rows do not share).
        """
        rate_sweep.require_declared(tree)
        query_payload = self._query_payload(payload)
        start = _time.perf_counter()
        futures = []
        for sample in rate_sweep.samples:
            assignment = {
                **profile.assignment,
                **translate_sample(sample, profile.parameter_map),
            }
            future = self._submit(entry, assignment, query_payload)
            if future is None:
                return None
            futures.append(future)
        try:
            results = [future.result() for future in futures]
        except POOL_FAILURES as error:
            self._pool_fallback(error)
            return None
        rows = [
            SweepRow(sample=dict(sample), measures=measures, wall_seconds=seconds)
            for sample, (measures, seconds) in zip(rate_sweep.samples, results)
        ]
        samples_seconds = _time.perf_counter() - start
        options = self.options.to_dict()
        options["skeleton_cache"] = "hit" if hit else "miss"
        options["service_pool"] = True
        return SweepResult(
            tree_name=tree.name,
            parameters=rate_sweep.parameters,
            rows=tuple(rows),
            model=entry.model,
            options=options,
            timings={"samples": samples_seconds, "total": samples_seconds},
            processes=self.processes,
        )

    def batch(self, payload: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """``POST /batch``: many trees, one query -> ``repro.batch/1``."""
        if payload is None or not isinstance(payload.get("trees"), (list, tuple)):
            raise AnalysisError(
                "a batch request needs a 'trees' list of Galileo descriptions"
            )
        trees = payload["trees"]
        if not trees:
            raise AnalysisError("a batch request needs at least one tree")
        query_payload = self._query_payload(payload)
        hits = 0
        misses = 0
        start = _time.perf_counter()
        # First pass (serial): parse every tree and resolve its skeleton.
        # Each slot holds either an error row or the material an evaluation
        # needs, so the pooled pass can submit all rows before gathering any.
        prepared: List[object] = []
        for index, text in enumerate(trees):  # type: ignore[union-attr]
            row_start = _time.perf_counter()
            try:
                if not isinstance(text, str) or not text.strip():
                    raise AnalysisError(
                        f"batch tree #{index} must be a non-empty Galileo string"
                    )
                tree = galileo.parse(text, name=f"<batch#{index}>")
                profile = canonical_profile(tree)
                entry, hit = self._get_entry(tree, profile)
                hits += 1 if hit else 0
                misses += 0 if hit else 1
                prepared.append((tree, profile, entry, hit, row_start))
            except ReproError as error:
                prepared.append(
                    BatchRow(
                        name=f"<batch#{index}>",
                        source=None,
                        result=None,
                        error=str(error),
                        wall_seconds=_time.perf_counter() - row_start,
                    )
                )
        # Second pass: evaluate the parsed rows — concurrently over the
        # service pool when it is healthy, inline otherwise.
        futures: Dict[int, Future] = {}
        for index, item in enumerate(prepared):
            if isinstance(item, BatchRow):
                continue
            _tree, profile, entry, _hit, _row_start = item
            future = self._submit(entry, profile.assignment, query_payload)
            if future is None:
                break  # no (healthy) pool: the rest evaluate in-process
            futures[index] = future
        rows = []
        for index, item in enumerate(prepared):
            if isinstance(item, BatchRow):
                rows.append(item)
                continue
            tree, profile, entry, hit, row_start = item
            try:
                measures, evaluation = self._evaluate(
                    entry, profile.assignment, query_payload, futures.get(index)
                )
                result = self._wrap_study_result(tree, entry, hit, measures, evaluation)
                rows.append(
                    BatchRow(
                        name=tree.name,
                        source=None,
                        result=result,
                        error=None,
                        wall_seconds=_time.perf_counter() - row_start,
                    )
                )
            except ReproError as error:
                rows.append(
                    BatchRow(
                        name=tree.name,
                        source=None,
                        result=None,
                        error=str(error),
                        wall_seconds=_time.perf_counter() - row_start,
                    )
                )
        batch_result = BatchResult(
            rows=tuple(rows),
            wall_seconds=_time.perf_counter() - start,
            processes=self.processes if futures else 1,
        )
        response = batch_result.to_dict()
        response["service"] = {
            "schema": SERVICE_SCHEMA,
            "cache_hits": hits,
            "cache_misses": misses,
        }
        return response

    def healthz(self) -> Dict[str, object]:
        stats = self.store.stats()
        return {
            "status": "ok",
            "schema": SERVICE_SCHEMA,
            "store": stats["root"],
            "entries": stats["entries"],
            "processes": self.processes,
        }

    def metrics_payload(self) -> Dict[str, object]:
        payload = self.metrics.snapshot()
        payload["schema"] = SERVICE_SCHEMA
        payload["store"] = self.store.stats()
        payload["saturation_overflows"] = saturation_overflows()
        return payload

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
failure of a pool itself (a dead worker, a pickling or OS error, an entry
the worker's store lost) recomputes the request in-process, counted as
``pool_fallbacks`` in ``/metrics`` and logged; any other worker exception
propagates like an in-process one.  An unexpected exception in a handler
becomes a logged 500 response instead of escaping to the transport.
``/metrics`` also carries the store's counters (its quotient memo's among
them).
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
import time as _time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.aggregation import StatisticsSummary
from ..core.measures import Query
from ..core.requests import QuerySpec, SweepSpec
from ..core.results import BatchResult, BatchRow, StudyResult, SweepResult
from ..core.study import (
    CompiledModel,
    Evaluation,
    StudyOptions,
    chunked_pool_map,
    resolve_workers,
)
from ..core.sweep import evaluation_rows
from ..core.wire import check_fields
from ..dft import galileo
from ..dft.hashing import CanonicalProfile, canonical_profile, translate_sample
from ..errors import AnalysisError, ReproError
from .store import SkeletonEntry, SkeletonStore, cache_key

LOGGER = logging.getLogger("repro.service.app")

#: Service response envelope version (additive ``service`` key on results).
SERVICE_SCHEMA = "repro.service/1"


def query_from_payload(
    payload: Optional[Mapping[str, object]], nondeterministic: bool = False
) -> Query:
    """The :class:`Query` of a wire ``query`` object (``None``: the defaults);
    see :class:`~repro.core.requests.QuerySpec`."""
    spec = QuerySpec() if payload is None else QuerySpec.from_payload(payload)
    return spec.query(nondeterministic)


def _request_query(payload: object, envelope: str) -> QuerySpec:
    """The query of an ``/analyze`` or ``/batch`` body, whose other field is ``envelope``."""
    body = check_fields(payload, "request", (envelope, "query"))
    return QuerySpec.from_payload(body["query"]) if "query" in body else QuerySpec()


def _served(response: Dict[str, object], entry, hit: bool) -> Dict[str, object]:
    """``response`` with the service envelope of one tree's entry."""
    response["service"] = {
        "schema": SERVICE_SCHEMA, "cache": "hit" if hit else "miss", "key": entry.key
    }
    return response


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
        items: Sequence[Tuple[str, Mapping[str, float]]],
        load_entry: Callable[[str], SkeletonEntry],
        query: QuerySpec,
        tolerance: float,
        stacked: bool,
    ) -> List[Evaluation]:
        """The evaluations of ``items``, (store key, assignment) pairs, in order.

        ``load_entry`` supplies the entry of a key this cache lacks.  Stacked
        (a sweep's rows), each run of same-key items is one
        :meth:`CompiledModel.evaluate_many`; otherwise each item is one
        :meth:`CompiledModel.evaluate`, and a sample error is returned in
        its evaluation.  Per-measure failures are recorded, as the CLI does.
        """
        evaluations: List[Evaluation] = []
        for key, run in groupby(items, key=itemgetter(0)):
            entry = self.entry(key)
            model = self.put(load_entry(key) if entry is None else entry)[1]
            model_query = query.query(model.nondeterministic)
            assignments = [assignment for _key, assignment in run]
            if stacked:
                evaluations += model.evaluate_many(
                    model_query, assignments, tolerance=tolerance, on_error="record"
                )
                continue
            for assignment in assignments:
                try:
                    evaluations.append(
                        model.evaluate(
                            model_query, assignment, tolerance=tolerance, on_error="record"
                        )
                    )
                except ReproError as error:
                    evaluations.append(Evaluation((), 0.0, 0.0, error=error))
        return evaluations


#: A pool worker's store handle and compiled models (set by its initializer).
_WORKER_STORE: Optional[SkeletonStore] = None
_WORKER_MODELS: Optional[_ModelCache] = None


def _init_service_worker(root: str, max_bytes: Optional[int]) -> None:
    global _WORKER_STORE, _WORKER_MODELS
    # A worker forked from ``repro serve`` inherits the handler that turns
    # SIGTERM into a KeyboardInterrupt; a worker ends on SIGTERM, as by default.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
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


def _service_chunk(
    query: QuerySpec,
    tolerance: float,
    stacked: bool,
    items: Sequence[Tuple[str, Dict[str, float]]],
) -> List[Evaluation]:
    """Pool worker entry point: one chunk of items on the worker's models."""
    assert _WORKER_MODELS is not None
    return _WORKER_MODELS.evaluate(items, _worker_entry, query, tolerance, stacked)


# ---------------------------------------------------------------------------
# the application object
# ---------------------------------------------------------------------------

class AnalysisService:
    """Serves analyses from a skeleton store; every handler is dict -> dict.

    Every handler evaluates through :meth:`_evaluations`: (store key,
    assignment) items cut into chunks.  ``processes > 0`` attaches a pool of
    worker processes that run the chunks of ``/analyze`` requests,
    ``/batch`` trees and ``/sweep`` rows (each worker keeps its own compiled
    models warm, and runs a sweep chunk as one stacked series);
    ``processes = 0`` evaluates in-process with one compiled model per cache
    key, except that a sweep asking for ``processes > 1`` gets a per-request
    pool of service workers.  Either way the service's own LRU answers warm
    structural hits without touching the entry file beyond an mtime bump.
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
    def _parse_tree(self, payload: Mapping[str, object]):
        text = payload.get("tree")
        if not isinstance(text, str) or not text.strip():
            raise AnalysisError("the request needs a 'tree' field holding a "
                                "non-empty Galileo fault-tree description")
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

    def _evaluations(
        self,
        items: Sequence[Tuple[str, Dict[str, float]]],
        entries: Mapping[str, SkeletonEntry],
        query: QuerySpec,
        stacked: bool = False,
        processes: int = 1,
    ) -> Tuple[List[Evaluation], int, bool]:
        """``(evaluations, processes, on the service pool)`` of ``items``,
        (store key, assignment) pairs whose entries ``entries`` holds.

        The items run in chunks (:func:`~repro.core.study.chunked_pool_map`)
        on the service's pool or, without one, on a per-request pool of
        ``processes`` service workers, capped at the item count; else here.  A failure of the pool itself recomputes them here.
        """
        work = partial(_service_chunk, query, self.options.tolerance, stacked)
        workers = resolve_workers(processes, len(items))
        try:
            if self._pool is not None and items:
                evaluations = chunked_pool_map(work, items, self.processes, executor=self._pool)
                return list(evaluations), self.processes, True
            if workers > 1:
                evaluations = chunked_pool_map(
                    work,
                    items,
                    workers,
                    initializer=_init_service_worker,
                    initargs=(str(self.store.root), self.store.max_bytes),
                )
                return list(evaluations), workers, False
        except POOL_FAILURES as error:
            self.metrics.record_pool_fallback()
            LOGGER.warning("worker pool failed (%r); evaluating in-process", error)
        with self._models_lock:
            evaluations = self._models.evaluate(
                items, entries.__getitem__, query, self.options.tolerance, stacked
            )
        return evaluations, 1, False

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
            statistics=StatisticsSummary(**entry.statistics),
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
        query = _request_query(payload, "tree")
        tree = self._parse_tree(payload)
        profile = canonical_profile(tree)
        entry, hit = self._get_entry(tree, profile)
        start = _time.perf_counter()
        (evaluation,), _processes, _pooled = self._evaluations(
            [(entry.key, profile.assignment)], {entry.key: entry}, query
        )
        if evaluation.error is not None:
            raise evaluation.error
        result = self._wrap_study_result(
            tree, entry, hit, evaluation.measures, _time.perf_counter() - start
        )
        return _served(result.to_dict(include_steps=False), entry, hit)

    def sweep(self, payload: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """``POST /sweep``: one tree plus a :class:`SweepSpec` -> ``repro.sweep/3``.

        The rows run as stacked chunks, one
        :meth:`~repro.core.study.CompiledModel.evaluate_many` each, on the
        service's worker pool; without one, the spec's ``processes`` asks
        for a per-request pool of service workers, never more than the
        service has CPUs (see :meth:`_evaluations`).
        """
        spec = SweepSpec.from_payload(payload, envelope=("tree",))
        tree = spec.prepare(self._parse_tree(payload))
        profile = canonical_profile(tree)
        entry, hit = self._get_entry(tree, profile)
        rate_sweep = spec.rate_sweep(entry.nondeterministic)
        items = [
            (entry.key, {**profile.assignment, **translate_sample(sample, profile.parameter_map)})
            for sample in rate_sweep.samples
        ]
        start = _time.perf_counter()
        evaluations, processes, pooled = self._evaluations(
            items,
            {entry.key: entry},
            spec.query,
            stacked=True,
            processes=min(spec.processes, os.cpu_count() or 1),
        )
        samples_seconds = _time.perf_counter() - start
        rows = evaluation_rows(rate_sweep.samples, evaluations)
        options = self.options.to_dict()
        options["skeleton_cache"] = "hit" if hit else "miss"
        if pooled:
            options["service_pool"] = True
        result = SweepResult(
            tree_name=tree.name,
            parameters=rate_sweep.parameters,
            rows=tuple(rows),
            model=entry.model,
            options=options,
            timings={
                "samples": samples_seconds,
                "instantiate": sum(row.instantiate_seconds or 0.0 for row in rows),
                "solve": sum(row.solve_seconds or 0.0 for row in rows),
                "total": samples_seconds,
            },
            processes=processes,
        )
        return _served(result.to_dict(), entry, hit)

    def batch(self, payload: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """``POST /batch``: many trees, one query -> ``repro.batch/1``."""
        query = _request_query(payload, "trees")
        trees = payload.get("trees")  # type: ignore[union-attr]
        if not isinstance(trees, (list, tuple)) or not trees:
            raise AnalysisError(
                "a batch request needs a non-empty 'trees' list of Galileo descriptions"
            )
        hits = 0
        misses = 0
        start = _time.perf_counter()
        # First pass (serial): parse every tree and resolve its skeleton.
        # Each slot holds either an error row or the parsed tree's entry, so
        # the parsed trees are evaluated together.
        prepared: List[object] = []
        items: List[Tuple[str, Dict[str, float]]] = []
        entries: Dict[str, SkeletonEntry] = {}
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
                prepared.append((tree, entry, hit, row_start))
                items.append((entry.key, profile.assignment))
                entries[entry.key] = entry
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
        # Second pass: evaluate the parsed trees, on the pool if there is one.
        evaluations, processes, _pooled = self._evaluations(items, entries, query)
        evaluated = iter(evaluations)
        rows = []
        for item in prepared:
            if isinstance(item, BatchRow):
                rows.append(item)
                continue
            tree, entry, hit, row_start = item
            evaluation = next(evaluated)
            result, error = None, evaluation.error
            if error is None:
                seconds = evaluation.load_seconds + evaluation.solve_seconds
                result = self._wrap_study_result(tree, entry, hit, evaluation.measures, seconds)
            rows.append(
                BatchRow(
                    name=tree.name,
                    source=None,
                    result=result,
                    error=None if error is None else str(error),
                    wall_seconds=_time.perf_counter() - row_start,
                )
            )
        batch_result = BatchResult(
            rows=tuple(rows),
            wall_seconds=_time.perf_counter() - start,
            processes=processes,
        )
        response = batch_result.to_dict()
        response["service"] = {
            "schema": SERVICE_SCHEMA,
            "cache_hits": hits,
            "cache_misses": misses,
        }
        return response

    def healthz(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "schema": SERVICE_SCHEMA,
            "store": str(self.store.root),
            "entries": len(self.store.entries_on_disk()),
            "processes": self.processes,
        }

    def metrics_payload(self) -> Dict[str, object]:
        payload = self.metrics.snapshot()
        payload["schema"] = SERVICE_SCHEMA
        payload["store"] = self.store.usage()
        return payload

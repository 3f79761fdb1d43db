"""Malformed service payloads get an HTTP 400, never a 500.

Runs :meth:`AnalysisService.handle` in-process (``processes=0``) with the
per-request sweep pool replaced by a serial stand-in that records how many
workers a request asked for, so no test here starts a process.  The first
Hypothesis property replaces one top-level field, or one ``query`` field, of
a valid ``/analyze``, ``/sweep`` or ``/batch`` payload with a value of each
other JSON type; every answer must be a 200 or a 400.  The second puts a
value of another JSON type into each boolean or number slot (the query
flags, a mission time, ``processes``, an axis or sample rate); every answer
must be a 400.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future

import pytest
from hypothesis import given, strategies as st

import repro.core.study as study_module
import repro.service.app as app_module
from repro.core.requests import QuerySpec
from repro.core.study import resolve_workers
from repro.errors import AnalysisError
from repro.service.app import AnalysisService
from repro.service.client import ServiceClient
from repro.service.store import SkeletonStore

PARAM_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" and "a" "b";
"a" lambda=lam;
"b" lambda=0.7;
"""

QUERY = {"times": [0.5, 1.0], "bounds": False, "mttf": False, "unavailability": False}

BASE_PAYLOADS = {
    "/analyze": {"tree": PARAM_TREE, "query": QUERY},
    "/sweep": {
        "tree": PARAM_TREE,
        "axes": {"lam": [0.4, 0.9]},
        "query": QUERY,
        "processes": 1,
    },
    "/sweep?samples": {
        "tree": PARAM_TREE,
        "samples": [{"lam": 0.4}, {"lam": 0.9}],
        "query": QUERY,
    },
    "/batch": {"trees": [PARAM_TREE], "query": QUERY},
}


class RecordingPool:
    """A serial stand-in for ``ProcessPoolExecutor`` that records ``max_workers``."""

    created: list = []

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        RecordingPool.created.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def submit(self, function, *args):
        future = Future()
        future.set_result(function(*args))
        return future


@pytest.fixture(scope="module")
def stubbed_pool():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(study_module, "ProcessPoolExecutor", RecordingPool)
        # The stand-in runs the service worker initializer in this process.
        patch.setattr(app_module, "_WORKER_STORE", None)
        patch.setattr(app_module, "_WORKER_MODELS", None)
        RecordingPool.created = []
        yield RecordingPool.created


@pytest.fixture(scope="module")
def service(tmp_path_factory, stubbed_pool):
    service = AnalysisService(SkeletonStore(tmp_path_factory.mktemp("store")), processes=0)
    yield service
    service.close()


def sweep_payload(**fields):
    payload = {"tree": PARAM_TREE, "query": QUERY}
    payload.update(fields)
    return payload


class TestMalformedSweep:
    @pytest.mark.parametrize(
        "fields",
        [
            {"axes": {"lam": "x"}},
            {"axes": {"lam": [None]}},
            {"axes": {"lam": [True]}},
            {"samples": ["x"]},
            {"axes": {"lam": [1.0]}, "processes": "abc"},
            {"axes": {"lam": [1.0]}, "processes": 0},
            {"axes": {"lam": [1.0]}, "processes": 2.0},
            {"axes": {"lam": [1.0]}, "share_uniformisation": True},
            {"axes": {"lam": [1.0]}, "query": "abc"},
        ],
        ids=[
            "axis-string",
            "axis-null",
            "axis-boolean",
            "sample-string",
            "processes-string",
            "processes-zero",
            "processes-float",
            "share-removed",
            "query-string",
        ],
    )
    def test_answers_400(self, service, fields):
        status, body = service.handle("POST", "/sweep", sweep_payload(**fields))
        assert status == 400, body
        assert "error" in body

    def test_removed_share_flag_is_named(self, service):
        status, body = service.handle(
            "POST",
            "/sweep",
            sweep_payload(axes={"lam": [0.4, 0.9]}, share_uniformisation=True),
        )
        assert status == 400, body
        assert "share_uniformisation" in body["error"]


class TestWorkerCap:
    def test_resolve_workers_never_exceeds_the_items(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 3) == 2
        assert resolve_workers(8, 1) == 1
        assert resolve_workers(8, 0) == 1
        assert resolve_workers(None, 5) == 1

    def test_request_processes_are_capped_at_the_cpu_count(
        self, service, stubbed_pool, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        del stubbed_pool[:]
        axes = {"lam": [0.1 * step for step in range(1, 9)]}
        status, body = service.handle(
            "POST", "/sweep", sweep_payload(axes=axes, processes=10**6)
        )
        assert status == 200, body
        assert stubbed_pool == [3]

    def test_workers_are_capped_at_the_sample_count(
        self, service, stubbed_pool, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        del stubbed_pool[:]
        status, body = service.handle(
            "POST", "/sweep", sweep_payload(axes={"lam": [0.4, 0.9]}, processes=10**6)
        )
        assert status == 200, body
        assert stubbed_pool == [2]


# ---------------------------------------------------------------------------
# the payload property
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
)

JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(min_value=-10, max_value=10**6),
    "number": st.floats(allow_nan=False, allow_infinity=False, width=32),
    "string": st.text(max_size=12),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=5), _SCALARS, max_size=3),
}


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _cases():
    for endpoint, payload in BASE_PAYLOADS.items():
        fields = [(field, None) for field in payload]
        fields += [("query", field) for field in QUERY]
        for field, query_field in fields:
            original = payload[field] if query_field is None else QUERY[query_field]
            for kind in JSON_TYPES:
                if kind != json_type(original):
                    name = field if query_field is None else f"query.{query_field}"
                    yield pytest.param(
                        endpoint, field, query_field, kind, id=f"{endpoint}-{name}-{kind}"
                    )


@pytest.mark.parametrize("endpoint, field, query_field, kind", list(_cases()))
@given(data=st.data())
def test_payload_field_of_another_type_never_gives_500(
    service, endpoint, field, query_field, kind, data
):
    payload = dict(BASE_PAYLOADS[endpoint])
    value = data.draw(JSON_TYPES[kind], label=kind)
    if query_field is None:
        payload[field] = value
    else:
        payload["query"] = {**QUERY, query_field: value}
    path = endpoint.split("?")[0]
    status, body = service.handle("POST", path, payload)
    assert status in (200, 400), (status, body)


# ---------------------------------------------------------------------------
# strict wire types
# ---------------------------------------------------------------------------

def analyze_payload(**fields):
    payload = {"tree": PARAM_TREE, "query": QUERY}
    payload.update(fields)
    return payload


class TestStrictWireTypes:
    """Values of the wrong JSON type are errors, not truthy or coerced values."""

    @pytest.mark.parametrize(
        "path, payload, named",
        [
            ("/analyze", analyze_payload(query={"bounds": "false"}), "bounds"),
            ("/analyze", analyze_payload(query={"mttf": "no"}), "mttf"),
            ("/analyze", analyze_payload(query={"unavailability": "false"}), "unavailability"),
            ("/analyze", analyze_payload(query={"times": [1, True]}), "times"),
            ("/analyze", analyze_payload(query={"times": ["1.5"]}), "times"),
            ("/analyze", {"tree": PARAM_TREE, "querry": {"times": [2]}}, "querry"),
            ("/batch", {"trees": [PARAM_TREE], "querry": {"times": [2]}}, "querry"),
            ("/batch", {"trees": [PARAM_TREE], "query": {"bounds": "false"}}, "bounds"),
            ("/sweep", sweep_payload(axes={"lam": [0.4]}, share_uniformization=True),
             "share_uniformization"),
            ("/sweep", sweep_payload(samples=[{"lam": "0.4"}]), "lam"),
            ("/sweep", sweep_payload(axes={"lam": ["0.4"]}), "lam"),
            ("/sweep", sweep_payload(axes={"lam": [0.4]}, query={"times": [1], "tims": [2]}),
             "tims"),
        ],
        ids=[
            "bounds-string",
            "mttf-string",
            "unavailability-string",
            "times-boolean",
            "times-string",
            "analyze-unknown-field",
            "batch-unknown-field",
            "batch-bounds-string",
            "sweep-unknown-field",
            "sample-rate-string",
            "axis-rate-string",
            "sweep-unknown-query-field",
        ],
    )
    def test_answers_400_naming_the_field(self, service, path, payload, named):
        status, body = service.handle("POST", path, payload)
        assert status == 400, body
        assert named in body["error"]

    def test_non_object_body_answers_400(self, service):
        for path in ("/analyze", "/sweep", "/batch"):
            for payload in (None, [PARAM_TREE], PARAM_TREE):
                status, body = service.handle("POST", path, payload)
                assert status == 400, (path, payload, body)
                assert "JSON object" in body["error"]

    def test_undeclared_axis_answers_400_before_any_build(self, tmp_path):
        service = AnalysisService(SkeletonStore(tmp_path / "store"), processes=0)
        try:
            status, body = service.handle(
                "POST", "/sweep", sweep_payload(axes={"lam": [0.4], "nope": [1.0]})
            )
        finally:
            service.close()
        assert status == 400, body
        assert "nope" in body["error"]
        assert service.store.stats()["entries"] == 0

    def test_infinite_repair_rate_answers_400(self, service):
        tree = 'toplevel "A";\n"A" lambda=1 repair=1e400;\n'
        status, body = service.handle("POST", "/analyze", {"tree": tree})
        assert status == 400, body
        assert "repair rate" in body["error"]

    def test_too_deep_series_answers_400(self, service):
        status, body = service.handle(
            "POST", "/analyze", {"tree": 'toplevel "A";\n"A" lambda=1e20;\n'}
        )
        assert status == 400, body
        assert "Λt" in body["error"]

    def test_series_too_deep_for_memory_answers_400_quickly(self, service):
        # Λt = 1e9 has a computable depth (about 1e9 terms), whose term table
        # alone would take several 8 GB temporaries: refused before any.
        start = time.perf_counter()
        status, body = service.handle(
            "POST", "/analyze", {"tree": 'toplevel "A";\n"A" lambda=1e9;\n'}
        )
        assert status == 400, body
        assert "Λt = 1e+09" in body["error"]
        assert time.perf_counter() - start < 10.0

    def test_too_deep_sample_is_a_row_error(self, service):
        status, body = service.handle(
            "POST", "/sweep", sweep_payload(samples=[{"lam": 0.4}, {"lam": 1e20}])
        )
        assert status == 200, body
        assert "error" not in body["rows"][0]
        assert "Λt" in body["rows"][1]["error"]

    def test_client_rejects_bad_values_before_sending(self):
        # Nothing listens on the discard port; a request that were sent
        # would fail with a transport error, not an AnalysisError.
        client = ServiceClient("http://127.0.0.1:9", retries=0)
        with pytest.raises(AnalysisError, match="times"):
            client.analyze(PARAM_TREE, times=["1.5"])
        with pytest.raises(AnalysisError, match="mttf"):
            client.batch([PARAM_TREE], mttf="yes")
        with pytest.raises(AnalysisError, match="processes"):
            client.sweep(PARAM_TREE, axes={"lam": [0.4]}, processes=0)
        with pytest.raises(AnalysisError, match="exactly one"):
            client.sweep(PARAM_TREE)


class RecordingServicePool:
    """A serial stand-in for the service's worker pool that records submits."""

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        self.submitted = []
        initializer(*initargs)

    def submit(self, function, *args):
        self.submitted.append((function, args))
        future = Future()
        future.set_result(function(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_each_request_is_decoded_once_and_workers_get_the_spec(tmp_path, monkeypatch):
    monkeypatch.setattr(app_module, "ProcessPoolExecutor", RecordingServicePool)
    # The stand-in runs the worker initializer in this process.
    monkeypatch.setattr(app_module, "_WORKER_STORE", None)
    monkeypatch.setattr(app_module, "_WORKER_MODELS", None)
    # Every QuerySpec built while serving: a sweep's query is decoded by the
    # codec as part of its SweepSpec, not through QuerySpec.from_payload.
    decoded = []
    original = QuerySpec.__post_init__

    def counting(spec):
        original(spec)
        decoded.append(spec.to_payload())

    monkeypatch.setattr(QuerySpec, "__post_init__", counting)
    service = AnalysisService(SkeletonStore(tmp_path / "store"), processes=1)
    try:
        status, body = service.handle(
            "POST", "/batch", {"trees": [PARAM_TREE] * 3, "query": QUERY}
        )
        assert status == 200, body
        status, body = service.handle("POST", "/sweep", sweep_payload(axes={"lam": [0.4, 0.9]}))
        assert status == 200, body
        submitted = service._pool.submitted
    finally:
        service.close()
    assert decoded == [QUERY, QUERY]
    assert len(submitted) == 5
    # Each submission is one chunk; the query rides in the worker function.
    queries = [function.args[0] for function, _args in submitted]
    assert all(isinstance(query, QuerySpec) for query in queries)
    assert queries[0] is queries[1] is queries[2]
    assert queries[3] is queries[4]


def test_pooled_sweep_submits_chunks_not_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(app_module, "ProcessPoolExecutor", RecordingServicePool)
    monkeypatch.setattr(app_module, "_WORKER_STORE", None)
    monkeypatch.setattr(app_module, "_WORKER_MODELS", None)
    service = AnalysisService(SkeletonStore(tmp_path / "store"), processes=1)
    try:
        samples = [{"lam": 0.1 + 0.05 * k} for k in range(48)]
        status, body = service.handle("POST", "/sweep", sweep_payload(samples=samples))
        assert status == 200, body
        submitted = service._pool.submitted
    finally:
        service.close()
    assert body["options"]["service_pool"] is True
    assert [row["sample"] for row in body["rows"]] == samples
    # One worker: four chunks of twelve rows, each one stacked evaluation.
    assert [len(args[0]) for _function, args in submitted] == [12] * 4


# ---------------------------------------------------------------------------
# the strictness property
# ---------------------------------------------------------------------------

#: Every boolean or number slot: (endpoint, path to the slot, JSON types it takes).
TYPED_SLOTS = [
    ("/analyze", ("query", "bounds"), {"boolean"}),
    ("/analyze", ("query", "mttf"), {"boolean"}),
    ("/analyze", ("query", "unavailability"), {"boolean"}),
    ("/analyze", ("query", "times", 0), {"integer", "number"}),
    ("/batch", ("query", "bounds"), {"boolean"}),
    ("/batch", ("query", "times", 1), {"integer", "number"}),
    ("/sweep", ("processes",), {"integer"}),
    ("/sweep", ("query", "mttf"), {"boolean"}),
    ("/sweep", ("query", "times", 0), {"integer", "number"}),
    ("/sweep", ("axes", "lam", 1), {"integer", "number"}),
    ("/sweep?samples", ("samples", 0, "lam"), {"integer", "number"}),
]


def _typed_cases():
    for endpoint, slot, accepted in TYPED_SLOTS:
        for kind in JSON_TYPES:
            if kind not in accepted:
                name = ".".join(str(step) for step in slot)
                yield pytest.param(endpoint, slot, kind, id=f"{endpoint}-{name}-{kind}")


def _with_slot(payload, slot, value):
    """A deep copy of ``payload`` with ``value`` at ``slot``."""
    head, rest = slot[0], slot[1:]
    copy = list(payload) if isinstance(payload, list) else dict(payload)
    copy[head] = value if not rest else _with_slot(payload[head], rest, value)
    return copy


@pytest.mark.parametrize("kind", sorted(JSON_TYPES))
@given(data=st.data())
def test_removed_share_field_of_any_type_gives_400(service, kind, data):
    """``share_uniformisation`` is no sweep request field: any value of it is
    refused, by name, whatever its type."""
    value = data.draw(JSON_TYPES[kind], label=kind)
    payload = dict(BASE_PAYLOADS["/sweep"], share_uniformisation=value)
    status, body = service.handle("POST", "/sweep", payload)
    assert status == 400, (status, body)
    assert "share_uniformisation" in body["error"]


@pytest.mark.parametrize("endpoint, slot, kind", list(_typed_cases()))
@given(data=st.data())
def test_payload_field_of_another_type_in_a_typed_slot_gives_400(
    service, endpoint, slot, kind, data
):
    value = data.draw(JSON_TYPES[kind], label=kind)
    payload = _with_slot(BASE_PAYLOADS[endpoint], slot, value)
    status, body = service.handle("POST", endpoint.split("?")[0], payload)
    assert status == 400, (status, body)

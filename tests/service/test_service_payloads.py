"""Malformed service payloads get an HTTP 400, never a 500.

Runs :meth:`AnalysisService.handle` in-process (``processes=0``) with the
per-request sweep pool replaced by a serial stand-in that records how many
workers a request asked for, so no test here starts a process.  The
Hypothesis property replaces one top-level field, or one ``query`` field, of
a valid ``/analyze``, ``/sweep`` or ``/batch`` payload with a value of each
other JSON type; every answer must be a 200 or a 400.
"""

from __future__ import annotations

import os
from concurrent.futures import Future

import pytest
from hypothesis import given, strategies as st

import repro.core.study as study_module
import repro.core.sweep as sweep_module
from repro.core.study import resolve_workers
from repro.service.app import AnalysisService
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
        "share_uniformisation": False,
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
        # The stand-in runs the worker initializer in this process.
        patch.setattr(sweep_module, "_WORKER_STATE", None)
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
            {"axes": {"lam": [1.0]}, "share_uniformisation": "false"},
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
            "share-string",
            "query-string",
        ],
    )
    def test_answers_400(self, service, fields):
        status, body = service.handle("POST", "/sweep", sweep_payload(**fields))
        assert status == 400, body
        assert "error" in body

    def test_boolean_share_flag_is_honoured(self, service):
        status, body = service.handle(
            "POST",
            "/sweep",
            sweep_payload(axes={"lam": [0.4, 0.9]}, share_uniformisation=True),
        )
        assert status == 200, body
        assert "shared_uniformisation_rate" in body["options"]
        status, body = service.handle(
            "POST", "/sweep", sweep_payload(axes={"lam": [0.4, 0.9]})
        )
        assert status == 200, body
        assert "shared_uniformisation_rate" not in body["options"]


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

    def test_workers_are_capped_at_the_sample_count(self, service, stubbed_pool):
        del stubbed_pool[:]
        status, body = service.handle(
            "POST", "/sweep", sweep_payload(axes={"lam": [0.4, 0.9]}, processes=10**6)
        )
        assert status == 200, body
        assert stubbed_pool == [min(2, os.cpu_count() or 1)]


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

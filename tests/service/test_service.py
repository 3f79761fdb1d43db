"""The serving layer: dict-level handlers, the HTTP round trip, the client.

The central assertion everywhere: a served response carries byte-for-byte
the measures/model/statistics an in-process ``Study``/``SweepStudy`` with the
same skeleton cache computes (timings are wall-clock and excluded).
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import signal
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.measures import MTTF, Unreliability
from repro.core.study import Study, StudyOptions
from repro.core.sweep import RateSweep, SweepStudy
from repro.dft import galileo
from repro.service.app import AnalysisService, query_from_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import _ServiceHandler, serve
from repro.service.store import SkeletonStore

AND_TREE = """
toplevel "sys";
"sys" and "a" "b";
"a" lambda=0.5;
"b" lambda=0.7;
"""

# AND_TREE's structural class under other names and rates.
AND_TWIN_TREE = """
toplevel "top";
"top" and "x" "y";
"x" lambda=0.3;
"y" lambda=0.9;
"""

PARAM_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" or "a" "b";
"a" lambda=lam;
"b" lambda=0.7;
"""

def _nondet_tree_text():
    from repro.systems import pand_race_system

    return galileo.write(pand_race_system())

BROKEN_TREE = "this is not galileo"


def _strip(response):
    """A served study response minus its wall-clock noise."""
    slim = dict(response)
    slim.pop("timings", None)
    slim.pop("service", None)
    options = dict(slim.get("options", {}))
    options.pop("skeleton_cache", None)
    slim["options"] = options
    return slim


def _local_study_dict(text, store, query, options=None, name="<request>"):
    tree = galileo.parse(text, name=name)
    result = Study(tree, options or StudyOptions(), skeleton_cache=store).evaluate(
        query, on_error="record"
    )
    return _strip(result.to_dict(include_steps=False))


@pytest.fixture
def service(tmp_path):
    app = AnalysisService(SkeletonStore(tmp_path / "cache"))
    yield app
    app.close()


class TestQueryFromPayload:
    def test_defaults(self):
        query = query_from_payload(None)
        assert [measure.kind for measure in query] == ["unreliability"]

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception, match="unknown query field"):
            query_from_payload({"time": [1.0]})

    def test_bad_times_rejected(self):
        with pytest.raises(Exception, match="times"):
            query_from_payload({"times": []})
        with pytest.raises(Exception, match="times"):
            query_from_payload({"times": ["soon"]})

    def test_nondeterministic_upgrades_to_bounds(self):
        query = query_from_payload({"times": [1.0]}, nondeterministic=True)
        assert [measure.kind for measure in query] == ["unreliability_bounds"]


class TestDictHandlers:
    def test_routing(self, service):
        assert service.handle("GET", "/nope", None)[0] == 404
        assert service.handle("GET", "/analyze", None)[0] == 405
        assert service.handle("POST", "/healthz", None)[0] == 405
        assert service.handle("GET", "/healthz", None)[0] == 200

    def test_analyze_bad_tree_is_400(self, service):
        status, payload = service.handle("POST", "/analyze", {"tree": BROKEN_TREE})
        assert status == 400
        assert "error" in payload

    def test_analyze_hit_miss_and_bit_identity(self, service):
        request = {"tree": AND_TREE, "query": {"times": [1.0, 2.0], "mttf": True}}
        status, first = service.handle("POST", "/analyze", request)
        assert status == 200
        assert first["service"]["cache"] == "miss"
        status, second = service.handle("POST", "/analyze", request)
        assert second["service"]["cache"] == "hit"
        assert _strip(first) == _strip(second)
        local = _local_study_dict(
            AND_TREE, service.store, Unreliability([1.0, 2.0]) + MTTF()
        )
        assert _strip(second) == local

    def test_nondeterministic_tree_served_with_bounds(self, service):
        status, response = service.handle(
            "POST", "/analyze", {"tree": _nondet_tree_text(), "query": {"times": [1.0]}}
        )
        assert status == 200
        kinds = [measure["kind"] for measure in response["measures"]]
        assert kinds == ["unreliability_bounds"]

    def test_sweep_matches_in_process(self, service):
        request = {
            "tree": PARAM_TREE,
            "axes": {"lam": [0.1, 0.5, 1.0]},
            "query": {"times": [1.0]},
        }
        status, served = service.handle("POST", "/sweep", request)
        assert status == 200
        tree = galileo.parse(PARAM_TREE, name="<request>")
        local = SweepStudy(tree, StudyOptions(), skeleton_cache=service.store).run(
            RateSweep.grid(Unreliability([1.0]), lam=[0.1, 0.5, 1.0])
        )
        for mine, theirs in zip(served["rows"], local.to_dict()["rows"]):
            assert mine["sample"] == theirs["sample"]
            assert mine["measures"] == theirs["measures"]

    def test_sweep_axis_naming_a_basic_event(self, service):
        status, served = service.handle(
            "POST",
            "/sweep",
            {"tree": AND_TREE, "axes": {"a": [0.1, 0.5]}},
        )
        assert status == 200
        assert [row["sample"] for row in served["rows"]] == [
            {"a": 0.1},
            {"a": 0.5},
        ]

    def test_sweep_needs_exactly_one_of_axes_and_samples(self, service):
        assert service.handle("POST", "/sweep", {"tree": PARAM_TREE})[0] == 400
        both = {
            "tree": PARAM_TREE,
            "axes": {"lam": [0.1]},
            "samples": [{"lam": 0.1}],
        }
        assert service.handle("POST", "/sweep", both)[0] == 400

    def test_batch_mixes_good_and_bad_rows(self, service):
        status, response = service.handle(
            "POST",
            "/batch",
            {"trees": [AND_TREE, BROKEN_TREE, AND_TREE], "query": {"times": [1.0]}},
        )
        assert status == 200
        assert response["aggregate"]["trees"] == 3
        assert response["aggregate"]["failed"] == 1
        oks = [row["ok"] for row in response["rows"]]
        assert oks == [True, False, True]
        assert response["rows"][0]["result"]["measures"] == (
            response["rows"][2]["result"]["measures"]
        )
        # Rows 1 and 3 share a structural class: one miss builds, one hit.
        assert response["service"]["cache_hits"] == 1
        assert response["service"]["cache_misses"] == 1

    def test_healthz_reads_no_entry_payload(self, service, monkeypatch):
        service.handle("POST", "/analyze", {"tree": AND_TREE})
        service.handle("POST", "/analyze", {"tree": PARAM_TREE})

        def refuse(self, entries):
            raise AssertionError("a health check inflated the store's entries")

        monkeypatch.setattr(SkeletonStore, "_compression_on_disk", refuse)
        status, health = service.handle("GET", "/healthz", None)
        assert status == 200
        assert health["entries"] == 2

    def test_metrics_inflate_no_entry(self, service, monkeypatch):
        service.handle("POST", "/analyze", {"tree": AND_TREE})
        service.handle("POST", "/analyze", {"tree": PARAM_TREE})
        on_disk = sum(path.stat().st_size for path in service.store.entries_on_disk())

        def refuse(self, entries):
            raise AssertionError("/metrics inflated the store's entries")

        monkeypatch.setattr(SkeletonStore, "_compression_on_disk", refuse)
        for _ in range(3):
            status, payload = service.handle("GET", "/metrics", None)
            assert status == 200
            assert payload["store"]["entries"] == 2
            assert payload["store"]["total_bytes"] == on_disk

    def test_metrics_accumulate(self, service):
        service.handle("POST", "/analyze", {"tree": AND_TREE})
        service.handle("POST", "/analyze", {"tree": BROKEN_TREE})
        status, payload = service.handle("GET", "/metrics", None)
        assert status == 200
        analyze = payload["endpoints"]["/analyze"]
        assert analyze["requests"] == 2
        assert analyze["errors"] == 1
        assert payload["store"]["entries"] == 1

    def test_metrics_count_memory_hits(self, service):
        for _ in range(3):
            service.handle("POST", "/analyze", {"tree": AND_TREE})
        service.handle("POST", "/analyze", {"tree": AND_TWIN_TREE})
        payload = service.metrics_payload()
        assert payload["memory_hits"] == 3  # the miss decodes nothing
        # Memory hits still count as store hits (one miss: the build).
        assert payload["store"]["hits"] == 3
        assert payload["store"]["misses"] == 1


class TestWarmHitsFromMemory:
    """A warm structural hit is answered from the service's LRU: the store
    file is neither read nor unpickled, and the response is unchanged."""

    QUERY = {"times": [1.0, 2.0], "mttf": True}

    @staticmethod
    def _forbid_decoding(service, monkeypatch):
        def load(key):
            raise AssertionError(f"warm hit decoded store entry {key}")

        monkeypatch.setattr(service.store, "load", load)

    def test_warm_analyze_and_batch_never_decode(self, service, monkeypatch):
        request = {"tree": AND_TREE, "query": self.QUERY}
        assert service.handle("POST", "/analyze", request)[1]["service"]["cache"] == "miss"
        self._forbid_decoding(service, monkeypatch)
        status, warm = service.handle("POST", "/analyze", request)
        assert status == 200
        assert warm["service"]["cache"] == "hit"
        status, batch = service.handle(
            "POST", "/batch", {"trees": [AND_TREE, AND_TWIN_TREE], "query": self.QUERY}
        )
        assert status == 200
        assert batch["service"]["cache_hits"] == 2
        assert batch["service"]["cache_misses"] == 0
        assert [row["result"]["options"]["skeleton_cache"] for row in batch["rows"]] == [
            "hit",
            "hit",
        ]
        monkeypatch.undo()
        query = query_from_payload(self.QUERY)
        assert _strip(warm) == _local_study_dict(AND_TREE, service.store, query)
        for index, text in enumerate((AND_TREE, AND_TWIN_TREE)):
            assert _strip(batch["rows"][index]["result"]) == _local_study_dict(
                text, service.store, query, name=f"<batch#{index}>"
            )

    def test_warm_inline_sweep_never_decodes(self, service, monkeypatch):
        axes = {"lam": [0.1, 0.5, 1.0, 2.0]}
        assert service.handle("POST", "/analyze", {"tree": PARAM_TREE})[0] == 200
        self._forbid_decoding(service, monkeypatch)
        status, served = service.handle(
            "POST", "/sweep", {"tree": PARAM_TREE, "axes": axes, "query": self.QUERY}
        )
        assert status == 200
        assert served["service"]["cache"] == "hit"
        monkeypatch.undo()
        tree = galileo.parse(PARAM_TREE, name="<request>")
        local = SweepStudy(tree, StudyOptions(), skeleton_cache=service.store).run(
            RateSweep.grid(query_from_payload(self.QUERY), **axes)
        )
        assert len(served["rows"]) == len(axes["lam"])
        for mine, theirs in zip(served["rows"], local.to_dict()["rows"]):
            assert mine["sample"] == theirs["sample"]
            assert mine["measures"] == theirs["measures"]

    def test_concurrent_warm_hits_bit_identical(self, service, monkeypatch):
        request = {"tree": AND_TREE, "query": self.QUERY}
        _, first = service.handle("POST", "/analyze", request)
        self._forbid_decoding(service, monkeypatch)

        def client(_):
            return [service.handle("POST", "/analyze", request) for _ in range(10)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = [item for batch in pool.map(client, range(4)) for item in batch]
        assert len(outcomes) == 40
        assert all(status == 200 for status, _ in outcomes)
        assert all(response["service"]["cache"] == "hit" for _, response in outcomes)
        expected = _strip(first)
        assert all(_strip(response) == expected for _, response in outcomes)
        assert service.metrics_payload()["memory_hits"] == 40

    def test_lru_capacity_bounds_the_cached_entries(self, service):
        service._models.capacity = 1
        service.handle("POST", "/analyze", {"tree": AND_TREE})
        service.handle("POST", "/analyze", {"tree": PARAM_TREE})
        # AND_TREE's entry was dropped from memory: the store decodes it.
        hits_before = service.store.stats()["hits"]
        _, response = service.handle("POST", "/analyze", {"tree": AND_TREE})
        assert response["service"]["cache"] == "hit"
        assert service.metrics_payload()["memory_hits"] == 0
        assert service.store.stats()["hits"] == hits_before + 1


@pytest.fixture
def http_server(tmp_path):
    server = serve(str(tmp_path / "cache"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHttpRoundTrip:
    def test_mixed_concurrent_requests_bit_identical(self, http_server):
        client = ServiceClient(http_server.url)
        store = SkeletonStore(http_server.service.store.root)

        def analyze(_):
            return ("analyze", client.analyze(AND_TREE, times=[1.0, 2.0], mttf=True))

        def sweep(_):
            return ("sweep", client.sweep(PARAM_TREE, axes={"lam": [0.1, 0.5]}))

        def health(_):
            return ("healthz", client.healthz())

        jobs = [analyze, sweep, health] * 3
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(lambda job: job[0](job[1]), ((j, None) for j in jobs)))

        local_analyze = _local_study_dict(
            AND_TREE, store, Unreliability([1.0, 2.0]) + MTTF()
        )
        tree = galileo.parse(PARAM_TREE, name="<request>")
        local_sweep = SweepStudy(tree, StudyOptions(), skeleton_cache=store).run(
            RateSweep.grid(Unreliability([1.0]), lam=[0.1, 0.5])
        ).to_dict()
        for kind, response in outcomes:
            if kind == "analyze":
                assert _strip(response) == local_analyze
            elif kind == "sweep":
                for mine, theirs in zip(response["rows"], local_sweep["rows"]):
                    assert mine["sample"] == theirs["sample"]
                    assert mine["measures"] == theirs["measures"]
            else:
                assert response["status"] == "ok"

    def test_client_accepts_in_memory_trees(self, http_server):
        tree = galileo.parse(AND_TREE, name="mem")
        client = ServiceClient(http_server.url)
        response = client.analyze(tree, times=[1.0])
        assert response["measures"][0]["values"] == pytest.approx(
            [0.19807824840815813]
        )

    def test_analyze_result_round_trip(self, http_server):
        client = ServiceClient(http_server.url)
        result = client.analyze_result(AND_TREE, times=[1.0], mttf=True)
        assert result["mttf"].value == pytest.approx(2.5952380952, rel=1e-9)

    def test_4xx_raises_immediately_with_server_message(self, http_server):
        client = ServiceClient(http_server.url, retries=0)
        with pytest.raises(ServiceError, match="cannot parse"):
            client.analyze(BROKEN_TREE)

    def test_unreachable_server_raises_after_retries(self):
        client = ServiceClient("http://127.0.0.1:9", retries=1, backoff=0.01)
        with pytest.raises(ServiceError, match="attempts"):
            client.healthz()

    def test_invalid_json_body_is_400(self, http_server):
        import urllib.request

        request = urllib.request.Request(
            http_server.url + "/analyze",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "JSON" in json.loads(error.read().decode())["error"]
        else:  # pragma: no cover
            pytest.fail("expected a 400 response")


class TestContentLength:
    def test_negative_content_length_answers_400_at_once(self, http_server):
        host, port = http_server.server_address[:2]
        with socket.create_connection((host, port), timeout=2.0) as connection:
            connection.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
            )
            response = http.client.HTTPResponse(connection)
            response.begin()  # times out after 2 s if the server reads to EOF
            body = json.loads(response.read().decode("utf-8"))
        assert response.status == 400
        assert body["error"] == "invalid Content-Length header"


def _request(connection, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


class TestHandlerCrash:
    """An unexpected exception in a handler is a logged 500 on a connection
    that stays usable, not a reset keep-alive socket."""

    @staticmethod
    def _crash(service, monkeypatch, calls=None):
        def analyze(payload):
            if calls is not None:
                calls.append(payload)
            raise RuntimeError("injected handler crash")

        monkeypatch.setattr(service, "analyze", analyze)

    def test_crash_is_500_and_connection_survives(self, http_server, monkeypatch, caplog):
        self._crash(http_server.service, monkeypatch)
        host, port = http_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            with caplog.at_level(logging.ERROR, logger="repro.service.app"):
                status, body = _request(connection, "POST", "/analyze", {"tree": AND_TREE})
            assert status == 500
            assert "injected handler crash" in body["error"]
            status, body = _request(connection, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            status, metrics = _request(connection, "GET", "/metrics")
        finally:
            connection.close()
        assert metrics["endpoints"]["/analyze"]["errors"] == 1
        assert metrics["endpoints"]["/analyze"]["requests"] == 1
        crashes = [record for record in caplog.records if record.exc_info]
        assert len(crashes) == 1
        assert crashes[0].exc_info[0] is RuntimeError

    def test_client_does_not_resend_a_crashing_request(self, http_server, monkeypatch):
        calls = []
        self._crash(http_server.service, monkeypatch, calls)
        client = ServiceClient(http_server.url, retries=3, backoff=0.01)
        with pytest.raises(ServiceError, match="injected handler crash") as caught:
            client.analyze(AND_TREE)
        assert caught.value.status == 500
        assert len(calls) == 1


class TestNoNagleStall:
    def test_connections_set_tcp_nodelay(self, http_server, monkeypatch):
        flags = []
        setup = _ServiceHandler.setup

        def recording_setup(handler):
            setup(handler)
            flags.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_ServiceHandler, "setup", recording_setup)
        assert ServiceClient(http_server.url).healthz()["status"] == "ok"
        assert flags and all(flag != 0 for flag in flags)

    def test_keep_alive_round_trips_do_not_stall(self, http_server):
        # Nagle's algorithm would hold each response body back until the
        # client's delayed ACK of the headers: a ~40 ms floor per request.
        host, port = http_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                status, _body = _request(connection, "GET", "/healthz")
                latencies.append(time.perf_counter() - start)
                assert status == 200
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020


class TestWorkerPool:
    def test_pool_measures_match_inline(self, tmp_path):
        request = {"tree": AND_TREE, "query": {"times": [1.0, 2.0], "mttf": True}}
        inline = AnalysisService(SkeletonStore(tmp_path / "a"))
        pooled = AnalysisService(SkeletonStore(tmp_path / "b"), processes=1)
        try:
            _, inline_response = inline.handle("POST", "/analyze", request)
            _, cold = pooled.handle("POST", "/analyze", request)
            _, warm = pooled.handle("POST", "/analyze", request)
            assert inline_response["measures"] == cold["measures"] == warm["measures"]
        finally:
            inline.close()
            pooled.close()

    # A service with a pool answers /sweep over the pool only: the rows run
    # as stacked chunks and come back in sample order, shaped as inline rows.
    @pytest.mark.parametrize(
        "text, axes, query",
        [
            (
                PARAM_TREE,
                {"lam": [0.1 + 0.13 * k for k in range(19)]},
                {"times": [0.5, 1.0], "mttf": True},
            ),
            (_nondet_tree_text(), {"T": [0.5, 1.5, 40.0]}, {"times": [0.25, 1.0]}),
        ],
        ids=["ctmc-19", "ctmdp-bounds"],
    )
    def test_pooled_sweep_rows_match_inline(self, tmp_path, text, axes, query):
        request = {"tree": text, "axes": axes, "query": query, "processes": 1}
        inline = AnalysisService(SkeletonStore(tmp_path / "a"))
        pooled = AnalysisService(SkeletonStore(tmp_path / "b"), processes=1)
        try:
            status, inline_response = inline.handle("POST", "/sweep", request)
            assert status == 200, inline_response
            status, served = pooled.handle("POST", "/sweep", request)
            assert status == 200, served
            assert pooled.metrics_payload()["pool_fallbacks"] == 0
        finally:
            inline.close()
            pooled.close()
        assert served["options"]["service_pool"] is True
        assert "service_pool" not in inline_response["options"]
        assert served["aggregate"]["samples"] == len(next(iter(axes.values())))
        assert [row["sample"] for row in served["rows"]] == [
            row["sample"] for row in inline_response["rows"]
        ]
        assert [row["measures"] for row in served["rows"]] == [
            row["measures"] for row in inline_response["rows"]
        ]
        assert [sorted(row) for row in served["rows"]] == [
            sorted(row) for row in inline_response["rows"]
        ]

    def test_poolless_service_honours_sweep_processes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        request = {"tree": PARAM_TREE, "axes": {"lam": [0.1 + 0.2 * k for k in range(9)]}}
        service = AnalysisService(SkeletonStore(tmp_path / "cache"))
        try:
            status, serial = service.handle("POST", "/sweep", request)
            assert status == 200, serial
            status, parallel = service.handle("POST", "/sweep", {**request, "processes": 2})
            assert status == 200, parallel
            assert service.metrics_payload()["pool_fallbacks"] == 0
        finally:
            service.close()
        assert serial["aggregate"]["processes"] == 1
        assert parallel["aggregate"]["processes"] == 2
        assert "service_pool" not in parallel["options"]
        assert [(row["sample"], row["measures"]) for row in parallel["rows"]] == [
            (row["sample"], row["measures"]) for row in serial["rows"]
        ]


class TestPoolFallbacks:
    """Only a failure of the pool itself falls back in-process, and it is
    counted; any other worker exception reaches the caller."""

    REQUEST = {"tree": AND_TREE, "query": {"times": [1.0, 2.0], "mttf": True}}

    def test_killed_worker_falls_back_bit_identically(self, tmp_path):
        store = SkeletonStore(tmp_path / "cache")
        service = AnalysisService(store, processes=1)
        try:
            _, pooled = service.handle("POST", "/analyze", self.REQUEST)
            assert service.metrics_payload()["pool_fallbacks"] == 0
            for process in list(service._pool._processes.values()):
                process.kill()
                process.join()
            status, response = service.handle("POST", "/analyze", self.REQUEST)
            assert status == 200
            assert service.metrics_payload()["pool_fallbacks"] >= 1
        finally:
            service.close()
        assert response["measures"] == pooled["measures"]
        local = _local_study_dict(
            AND_TREE, store, query_from_payload(self.REQUEST["query"])
        )
        assert _strip(response) == local

    def test_evicted_entry_falls_back_bit_identically(self, tmp_path):
        # The worker's store no longer holds the entry the parent just built
        # (evicted between dispatch and load): the worker raises KeyError and
        # the parent evaluates in-process.
        inline = AnalysisService(SkeletonStore(tmp_path / "inline"))
        store = SkeletonStore(tmp_path / "cache")
        service = AnalysisService(store, processes=1)
        _spawn_pool(service, _evicting_worker_init)
        try:
            _, expected = inline.handle("POST", "/analyze", self.REQUEST)
            status, response = service.handle("POST", "/analyze", self.REQUEST)
            assert status == 200
            assert service.metrics_payload()["pool_fallbacks"] >= 1
        finally:
            service.close()
            inline.close()
        assert response["measures"] == expected["measures"]
        assert _strip(response) == _strip(expected)

    def test_worker_bug_propagates(self, tmp_path):
        store = SkeletonStore(tmp_path / "cache")
        service = AnalysisService(store, processes=1)
        _spawn_pool(service, _buggy_worker_init)
        try:
            with pytest.raises(ValueError, match="injected worker bug"):
                service.analyze(self.REQUEST)
            # At the dispatch boundary the bug becomes a 500, not a fallback.
            status, response = service.handle("POST", "/analyze", self.REQUEST)
            assert status == 500
            assert "injected worker bug" in response["error"]
            assert service.metrics_payload()["pool_fallbacks"] == 0
        finally:
            service.close()


def test_killed_per_request_worker_falls_back(tmp_path, monkeypatch):
    from repro.service import app

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    request = {"tree": PARAM_TREE, "axes": {"lam": [0.1, 0.4, 0.9, 1.6]}}
    service = AnalysisService(SkeletonStore(tmp_path / "cache"))
    try:
        status, serial = service.handle("POST", "/sweep", request)
        assert status == 200, serial
        monkeypatch.setattr(app, "_init_service_worker", _dying_worker_init)
        status, response = service.handle("POST", "/sweep", {**request, "processes": 2})
        assert status == 200, response
        assert service.metrics_payload()["pool_fallbacks"] == 1
    finally:
        service.close()
    assert response["aggregate"]["processes"] == 1
    assert [(row["sample"], row["measures"]) for row in response["rows"]] == [
        (row["sample"], row["measures"]) for row in serial["rows"]
    ]


def _dying_worker_init(root, max_bytes):
    """Service pool initializer whose worker is killed before it takes work."""
    os.kill(os.getpid(), signal.SIGKILL)


def _spawn_pool(service, initializer):
    """Replace ``service``'s pool by a one-worker spawn pool run through
    ``initializer`` (the service's own worker setup plus an injected fault)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    service._pool.shutdown()
    service._pool = ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=initializer,
        initargs=(str(service.store.root), service.store.max_bytes),
    )


def _evicting_worker_init(root, max_bytes):
    """Service pool initializer whose worker store has lost every entry."""
    from repro.service import app

    app._init_service_worker(root, max_bytes)
    app._WORKER_STORE.load = lambda key: None


def _buggy_worker_init(root, max_bytes):
    """Service pool initializer that plants a bug in the worker process only."""
    from repro.service import app

    app._init_service_worker(root, max_bytes)
    app._worker_entry = _raise_worker_bug


def _raise_worker_bug(key):
    raise ValueError(f"injected worker bug for {key}")

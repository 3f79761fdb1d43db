"""The request cache: a text that differs from an earlier one only in its
rate literals is answered without parsing it.

Every warm answer is compared with the answer of a service whose request
cache stays empty, so each of its requests is parsed and profiled; the two
share one skeleton store.  Wall-clock fields and hit/miss flags are left out
of the comparison.
"""

from __future__ import annotations

import logging
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.study import StudyOptions
from repro.dft import BasicEvent, DynamicFaultTree, galileo
from repro.dft.hashing import canonical_profile
from repro.service.app import _MODEL_CACHE_CAPACITY, AnalysisService
from repro.service.store import SkeletonStore, cache_key
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    repairable_and_system,
    repairable_voting_system,
)
from tests.dft.test_galileo import CAS_TEXT, CPS_TEXT, mutated_galileo

#: perfbench's ``service_requests`` scales every failure rate by a draw from
#: this range.
JITTER = (0.8, 1.25)
QUERY = {"times": [0.5, 1.0], "mttf": True}

AND_TREE = """
toplevel "sys";
"sys" and "a" "b";
"a" lambda=0.5;
"b" lambda=0.7;
"""

# A parameter shared by two events, with PARAM_TREE's other rates.
PARAM_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" or "a" "b" "c";
"a" lambda=lam;
"b" lambda=lam;
"c" lambda=0.7;
"""
PARAM_TWIN = PARAM_TREE.replace("0.5", "1.5").replace("0.7", "0.2")

# Comments, and a quoted name that looks like a rate slot.
COMMENTED_TREE = """
// top event "first"
toplevel "top"; // the top
"top" and "lambda=1" "b c";
"lambda=1" lambda=0.5; // an element called lambda=1
"b c" lambda=2 dorm=0.3;
"""
COMMENTED_TWIN = COMMENTED_TREE.replace("lambda=0.5", "lambda=0.25").replace(
    "lambda=2 ", "lambda=3 "
)


def _jittered(tree: DynamicFaultTree, rng: random.Random) -> str:
    copy = DynamicFaultTree(tree.name)
    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            element = replace(element, failure_rate=element.failure_rate * rng.uniform(*JITTER))
        copy.add(element)
    copy.set_top(tree.top)
    return galileo.write(copy)


def _jittered_texts(count: int = 3):
    texts = []
    for seed in (1, 2, 3):
        rng = random.Random(f"perfbench:service_mixed:requests:{seed}")
        for tree in (cardiac_assist_system(), cascaded_pand_system()):
            texts += [_jittered(tree, rng) for _ in range(count)]
    return texts


def _repair_texts():
    texts = []
    for tree in (repairable_and_system(), repairable_voting_system()):
        text = galileo.write(tree)
        texts += [text, text.replace("repair=", "repair=1").replace("lambda=1", "lambda=0.3")]
    return texts


#: Nominal texts first, so every later text of a class can hit.
CORPUS = (
    [galileo.write(cardiac_assist_system()), galileo.write(cascaded_pand_system())]
    + _jittered_texts()
    + [PARAM_TREE, PARAM_TWIN]
    + _repair_texts()
    + [COMMENTED_TREE, COMMENTED_TWIN]
)


#: Fields besides the ``*seconds`` ones left out of a comparison: the
#: timings, and the hit/miss flags, which follow which service built an
#: entry first.
NOISE = ("timings", "skeleton_cache", "cache", "cache_hits", "cache_misses")


def _strip(value):
    """``value`` without its wall-clock fields and hit/miss flags."""
    if isinstance(value, dict):
        return {
            key: _strip(item)
            for key, item in value.items()
            if key not in NOISE and not key.endswith("seconds")
        }
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


def _uncached(service: AnalysisService) -> AnalysisService:
    """``service`` with a request cache that records nothing."""
    service._requests.capacity = 0
    return service


@pytest.fixture
def services(tmp_path):
    """A service and one with an empty request cache, on one store."""
    warm = AnalysisService(SkeletonStore(tmp_path / "cache"))
    cold = _uncached(AnalysisService(SkeletonStore(tmp_path / "cache")))
    yield warm, cold
    warm.close()
    cold.close()


def _analyze(service, text):
    return service.handle("POST", "/analyze", {"tree": text, "query": QUERY})


class TestAgainstParseAndHash:
    def test_analyze_and_batch_equal_the_full_path(self, services):
        warm, cold = services
        for text in CORPUS:
            assert _analyze(warm, text)[0] == 200
        # The first text of each of the six classes is parsed.
        hits = warm.metrics_payload()["masked_hits"]
        assert hits == len(CORPUS) - 6
        for text in CORPUS:
            status, response = _analyze(warm, text)
            assert status == 200
            assert response["service"]["cache"] == "hit"
            assert _strip(response) == _strip(_analyze(cold, text)[1])
        assert warm.metrics_payload()["masked_hits"] == hits + len(CORPUS)
        assert cold.metrics_payload()["masked_hits"] == 0
        batch = {"trees": CORPUS, "query": QUERY}
        warm_batch = warm.handle("POST", "/batch", batch)
        assert warm_batch[0] == 200
        assert _strip(warm_batch) == _strip(cold.handle("POST", "/batch", batch))

    def test_key_and_assignment_equal_the_canonical_profile(self, services):
        warm, _cold = services
        for text in CORPUS + CORPUS:
            resolution = warm._resolve(text, "<request>")
            tree = galileo.parse(text, name="<request>")
            profile = canonical_profile(tree)
            assert resolution.entry.key == cache_key(tree, StudyOptions(), profile.hash)
            assert list(resolution.assignment.items()) == list(profile.assignment.items())
            assert resolution.summary == tree.summary()

    # The services persist across examples on purpose: the warm one has
    # recorded the unmutated texts.
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_galileo())
    def test_fuzzed_text_answers_as_the_full_path(self, services, text):
        warm, cold = services
        for nominal in (CAS_TEXT, CPS_TEXT):
            _analyze(warm, nominal)
        status, response = _analyze(warm, text)
        assert status in (200, 400)
        cold_status, cold_response = _analyze(cold, text)
        assert status == cold_status
        if status == 400:
            assert response["error"] == cold_response["error"]
        else:
            assert _strip(response) == _strip(cold_response)


def _structural_changes(text: str):
    """``text`` with one token outside its comments changed, in turn: a
    rate slot's key gets an ``x``, a ``param`` value is left alone, and any
    other token gets a ``9`` appended."""
    lines = text.splitlines()
    for row, line in enumerate(lines):
        code = line.split("//", 1)[0]
        tokens = list(re.finditer(r"[^\s;]+", code))
        for match in tokens:
            token = match.group()
            if re.fullmatch(r"(lambda|repair)=[-+0-9.eE]+", token):
                value = token.replace("=", "x=", 1)
            elif code.startswith("param") and match is tokens[-1]:
                continue
            else:
                value = token + "9"
            changed = line[: match.start()] + value + line[match.end() :]
            yield "\n".join(lines[:row] + [changed] + lines[row + 1 :])


class TestStructuralTokens:
    @pytest.mark.parametrize(
        "text", CORPUS[:2] + [PARAM_TREE, COMMENTED_TREE] + _repair_texts()[:1]
    )
    def test_changing_any_structural_token_changes_the_digest(self, text):
        digest = galileo.mask_rates(text).digest
        changes = list(_structural_changes(text))
        assert changes
        for changed in changes:
            assert galileo.mask_rates(changed).digest != digest, changed

    @pytest.mark.parametrize(
        "changed",
        [
            AND_TREE.replace('"b" lambda=0.7', '"b" lambda=0.7 dorm=0.5'),
            AND_TREE.replace('"b" lambda=0.7', '"b" lambda=0.7 repair=1'),
            AND_TREE.replace('"sys" and', '"sys" or'),
            AND_TREE.replace('"a" "b"', '"b" "a"'),
            "param lam = 0.5;" + AND_TREE.replace("0.5", "lam"),
            '"param" lam = 0.5;' + AND_TREE,
        ],
    )
    def test_structural_change_misses(self, services, changed):
        warm, cold = services
        _analyze(warm, AND_TREE)
        response = _analyze(warm, changed)
        payload = warm.metrics_payload()
        assert payload["masked_hits"] == 0
        assert payload["masked_fallbacks"]["unrecorded"] == 2
        assert _strip(response) == _strip(_analyze(cold, changed))

    def test_layout_change_hits(self, services):
        warm, _cold = services
        _analyze(warm, AND_TREE)
        relaid = AND_TREE.replace('"a" lambda', '"a"    lambda').replace(";\n", "; ")
        assert _analyze(warm, "// moved\n" + relaid)[0] == 200
        assert warm.metrics_payload()["masked_hits"] == 1

    def test_quoted_param_is_not_a_declaration(self, services):
        assert galileo.mask_rates("param lam = 0.5;" + AND_TREE).slots[0] == ("lam", "param")
        assert galileo.mask_rates('"param" lambda=0.5;' + AND_TREE).slots[0] == (
            "param",
            "lambda",
        )
        # The same tokens: an unused declaration, then an element with a bad
        # parameter.
        warm, cold = services
        assert _analyze(warm, "param lam=0.5;" + AND_TREE)[0] == 200
        quoted = '"param" lam=0.5;' + AND_TREE
        status, response = _analyze(warm, quoted)
        assert status == 400
        assert response == _analyze(cold, quoted)[1]


class TestCounters:
    def _fallbacks(self, service):
        return service.metrics_payload()["masked_fallbacks"]

    def test_hit_and_unrecorded(self, services):
        warm, _cold = services
        _analyze(warm, AND_TREE)
        assert self._fallbacks(warm)["unrecorded"] == 1
        _, response = _analyze(warm, AND_TREE.replace("0.7", "0.9"))
        assert response["service"]["cache"] == "hit"
        payload = warm.metrics_payload()
        assert payload["masked_hits"] == 1
        assert payload["memory_hits"] == 1
        assert payload["store"]["hits"] == 1
        assert self._fallbacks(warm) == {"unrecorded": 1, "evicted": 0, "literal": 0}

    def test_evicted(self, services):
        warm, cold = services
        warm._models.capacity = 1
        _analyze(warm, AND_TREE)
        _analyze(warm, PARAM_TREE)
        status, response = _analyze(warm, AND_TREE)
        assert status == 200
        assert self._fallbacks(warm)["evicted"] == 1
        assert warm.metrics_payload()["masked_hits"] == 0
        assert _strip(response) == _strip(_analyze(cold, AND_TREE)[1])
        # The full path put the entry back: the next request hits.
        _analyze(warm, AND_TREE)
        assert warm.metrics_payload()["masked_hits"] == 1

    @pytest.mark.parametrize(
        "literal, error",
        [
            ("0", "failure rate must be positive and finite, got 0.0"),
            ("-0.5", "failure rate must be positive and finite, got -0.5"),
            ("1e999", "failure rate must be positive and finite, got inf"),
            ("1.2.3", "cannot parse basic event parameter 'lambda=1.2.3'"),
        ],
    )
    def test_literal(self, services, literal, error):
        warm, cold = services
        _analyze(warm, AND_TREE)
        bad = AND_TREE.replace("lambda=0.7", f"lambda={literal}")
        status, response = _analyze(warm, bad)
        assert status == 400
        assert error in response["error"]
        assert response == _analyze(cold, bad)[1]
        assert self._fallbacks(warm)["literal"] == 1

    def test_param_literal(self, services):
        warm, _cold = services
        _analyze(warm, PARAM_TREE)
        status, response = _analyze(warm, PARAM_TREE.replace("0.5", "inf"))
        assert status == 400
        assert "parameter 'lam' needs a positive finite rate, got inf" in response["error"]
        assert self._fallbacks(warm)["literal"] == 1

    def test_reference_that_looks_like_a_number_is_unmapped(self, services):
        # ``lambda=e`` refers to the parameter ``e``: it has no number to read.
        warm, cold = services
        text = "param e = 0.5;" + AND_TREE.replace("lambda=0.5", "lambda=e")
        for _ in range(2):
            status, response = _analyze(warm, text)
            assert status == 200
            assert _strip(response) == _strip(_analyze(cold, text)[1])
        payload = warm.metrics_payload()
        assert payload["masked_unmapped"] == 2
        assert payload["masked_fallbacks"]["unrecorded"] == 2
        assert payload["masked_hits"] == 0

    def test_lone_surrogate_in_a_name(self, services):
        # A JSON "\\ud800" escape decodes to one; the digest must still encode it.
        warm, cold = services
        text = AND_TREE.replace('"a"', '"\ud800"')
        for _ in range(2):
            status, response = _analyze(warm, text)
            assert status == 200
            assert _strip(response) == _strip(_analyze(cold, text)[1])
        assert warm.metrics_payload()["masked_hits"] == 1

    def test_no_log_records(self, services, caplog):
        warm, _cold = services
        warm._models.capacity = 1
        caplog.set_level(logging.DEBUG, logger="repro")
        for text in (AND_TREE, AND_TREE, PARAM_TREE, AND_TREE, AND_TREE.replace("0.7", "0")):
            _analyze(warm, text)
        assert sum(self._fallbacks(warm).values()) == 4
        assert caplog.records == []


def test_eight_threads(services):
    # Each client records one text of its own and reads everyone's jittered
    # texts, with thread switches forced often; a lost update of the LRU or
    # of a counter breaks the counts.
    warm, cold = services
    texts = _jittered_texts(count=4)
    own = [AND_TREE.replace('"a"', f'"t{offset}"') for offset in range(8)]
    expected = {text: _strip(_analyze(cold, text)[1]) for text in texts + own}
    warm._requests.capacity = 2 + len(own)  # room for every text recorded
    for nominal in CORPUS[:2]:
        _analyze(warm, nominal)

    def client(offset):
        ordered = [own[offset]] + texts[offset:] + texts[:offset]
        return [(text, _analyze(warm, text)) for text in ordered]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            batches = list(pool.map(client, range(8), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    outcomes = [item for batch in batches for item in batch]
    assert len(outcomes) == 8 * (len(texts) + 1)
    for text, (status, response) in outcomes:
        assert status == 200
        assert _strip(response) == expected[text]
    payload = warm.metrics_payload()
    assert payload["masked_hits"] == 8 * len(texts)
    assert payload["masked_fallbacks"]["unrecorded"] == 2 + 8
    assert len(warm._requests) == 2 + 8


def test_capacity_bounds_the_request_cache(services):
    warm, _cold = services
    names = [f"e{index}" for index in range(_MODEL_CACHE_CAPACITY + 5)]
    for name in names:  # renamed twins: one store entry, distinct texts
        _analyze(warm, AND_TREE.replace('"a"', f'"{name}"'))
        assert len(warm._requests) <= _MODEL_CACHE_CAPACITY
    assert len(warm._requests) == _MODEL_CACHE_CAPACITY
    warm._requests.capacity = 3
    _analyze(warm, AND_TREE)
    assert len(warm._requests) == 3
    # The oldest texts were dropped: the first one is unrecorded again.
    before = warm.metrics_payload()["masked_fallbacks"]["unrecorded"]
    _analyze(warm, AND_TREE.replace('"a"', f'"{names[0]}"'))
    assert warm.metrics_payload()["masked_fallbacks"]["unrecorded"] == before + 1

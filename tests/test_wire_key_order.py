"""The emitted key order of ``repro analyze --json`` and of ``/analyze``.

The golden files in ``tests/golden/`` sort their keys, so they pin every key
and value but not the order a reader of the raw JSON (or of the text output,
which prints ``measure.to_dict()``) sees.  These tests pin that order for
the CAS system, through the real CLI entry point and the service handler.
"""

from __future__ import annotations

import contextlib
import io
import json

from repro.cli import main
from repro.dft import galileo
from repro.service.app import AnalysisService
from repro.service.store import SkeletonStore
from repro.systems import cardiac_assist_system

STUDY_KEYS = ["schema", "tree", "options", "model", "measures", "statistics", "timings"]
UNRELIABILITY_KEYS = ["kind", "times", "values"]
MTTF_KEYS = ["kind", "values"]


def test_analyze_json_key_order(tmp_path):
    path = tmp_path / "cas.dft"
    galileo.write_file(cardiac_assist_system(), str(path))
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        assert main(["analyze", str(path), "--time", "0.5", "1", "--mttf", "--json"]) == 0
    payload = json.loads(output.getvalue())
    assert list(payload) == STUDY_KEYS
    assert list(payload["tree"]) == ["name", "summary"]
    assert [list(measure) for measure in payload["measures"]] == [UNRELIABILITY_KEYS, MTTF_KEYS]


def test_service_analyze_key_order(tmp_path):
    service = AnalysisService(SkeletonStore(tmp_path / "store"), processes=0)
    try:
        status, body = service.handle(
            "POST", "/analyze",
            {"tree": galileo.write(cardiac_assist_system()), "query": {"mttf": True}},
        )
    finally:
        service.close()
    assert status == 200, body
    assert list(body) == STUDY_KEYS + ["service"]
    assert [list(measure) for measure in body["measures"]] == [UNRELIABILITY_KEYS, MTTF_KEYS]
    assert list(body["statistics"]) == [
        "num_steps", "peak_product_states", "peak_product_transitions", "peak_reduced_states",
        "peak_reduced_transitions", "final_states", "final_transitions",
    ]

"""Golden files for every wire schema the CLI and the service emit.

Each case renders one schema from fixed trees — the cardiac assist system
(CAS), the PAND race (non-deterministic, so bounds), the repairable AND and
a small spares-and-repair design problem — through the real entry point:
``repro.cli.main`` for the CLI, :meth:`AnalysisService.handle` for the
service.  Wall-clock fields are masked, scratch paths replaced by ``<dir>``
and floats printed to 12 significant digits, so the files hold across numpy
versions while still pinning every key, every count and every value.

After an intended schema change, regenerate the files with
``PYTHONPATH=src python tests/test_wire_goldens.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.cli import main
from repro.dft import galileo
from repro.service.app import AnalysisService
from repro.service.store import SkeletonStore
from repro.systems import cardiac_assist_system, pand_race_system, repairable_and_system

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Keys whose values are wall-clock measurements (besides ``*_seconds``).
TIMING_KEYS = {"timings"}

CAS = galileo.write(cardiac_assist_system())
RACE = galileo.write(pand_race_system())
REPAIRABLE = galileo.write(repairable_and_system())

DESIGN_TREE = """toplevel "sys";
"P1" lambda=1;
"S1" lambda=1 dorm=0;
"S2" lambda=1 dorm=0;
"E1" lambda=0.5;
"E2" lambda=0.5;
"U1" wsp "P1" "S1" "S2";
"U2" and "E1" "E2";
"sys" or "U1" "U2";
"""

DESIGN_SPEC = {
    "tree": "design.dft",
    "budget": 1.0,
    "mission_time": 1.0,
    "choices": [
        {"kind": "spares", "gate": "U1", "counts": [1, 2], "costs": [0.0, 1.0]},
        {"kind": "repair", "event": "E1", "rates": [None, 2.0], "costs": [0.0, 1.0]},
    ],
}


def canonical(value, root: str):
    """``value`` with timings masked, ``root`` hidden and floats at 12 digits."""
    if isinstance(value, dict):
        return {
            key: "<masked>"
            if key in TIMING_KEYS or key.endswith("_seconds")
            else canonical(item, root)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [canonical(item, root) for item in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, str):
        return value.replace(root, "<dir>")
    return value


def _cli_json(argv) -> object:
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        status = main([str(arg) for arg in argv])
    return {"exit": status, "output": json.loads(output.getvalue())}


def _handle(service: AnalysisService, path: str, payload) -> object:
    status, body = service.handle("POST", path, payload)
    return {"status": status, "body": body}


def _files(directory: Path) -> Dict[str, Path]:
    paths = {}
    for name, text in {
        "cas.dft": CAS,
        "race.dft": RACE,
        "repairable.dft": REPAIRABLE,
        "design.dft": DESIGN_TREE,
    }.items():
        paths[name] = directory / name
        paths[name].write_text(text, encoding="utf-8")
    spec = directory / "design.json"
    spec.write_text(json.dumps(DESIGN_SPEC), encoding="utf-8")
    paths["design.json"] = spec
    return paths


def _jsonl(directory: Path, files) -> object:
    sink = directory / "rows.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(
            ["batch", str(files["cas.dft"]), str(files["race.dft"]), "--mttf",
             "--output-jsonl", str(sink)]
        )
    records = [json.loads(line) for line in sink.read_text().splitlines()]
    return {"exit": status, "records": records}


def render_all(directory: Path) -> Dict[str, str]:
    """Every golden case's rendered text, keyed by file name."""
    files = _files(directory)
    service = AnalysisService(SkeletonStore(directory / "store"), processes=0)
    try:
        cases: Dict[str, Callable[[], object]] = {
            "study_cli_cas.json": lambda: _cli_json(
                ["analyze", files["cas.dft"], "--time", "0.5", "1", "--mttf", "--json"]
            ),
            "study_cli_race.json": lambda: _cli_json(
                ["analyze", files["race.dft"], "--json"]
            ),
            "study_service.json": lambda: [
                _handle(service, "/analyze", {
                    "tree": CAS, "query": {"times": [0.5, 1.0], "mttf": True}}),
                _handle(service, "/analyze", {"tree": CAS}),
                _handle(service, "/analyze", {
                    "tree": RACE, "query": {"times": [1.0, 2.0]}}),
                _handle(service, "/analyze", {
                    "tree": REPAIRABLE, "query": {"bounds": True, "unavailability": True}}),
            ],
            "sweep_cli.json": lambda: _cli_json(
                ["sweep", files["cas.dft"], "--param", "P=0.5:1.5:3", "--time", "1", "2",
                 "--json"],
            ),
            "sweep_service.json": lambda: [
                _handle(service, "/sweep", {
                    "tree": CAS, "axes": {"P": [0.5, 1.0]}, "query": {"times": [1.0]}}),
                _handle(service, "/sweep", {
                    "tree": RACE, "samples": [{"A": 0.5}, {"A": 2.0, "B": 3.0}]}),
                _handle(service, "/sweep", {
                    "tree": CAS, "axes": {"P": [0.5, 1.0]}, "share_uniformisation": True}),
            ],
            "batch_service.json": lambda: _handle(service, "/batch", {
                "trees": [CAS, RACE, "not a tree"], "query": {"times": [1.0], "mttf": True}}),
            "batch_cli.json": lambda: _cli_json(
                ["batch", files["cas.dft"], files["race.dft"], "--json"]
            ),
            "batch_jsonl.json": lambda: _jsonl(directory, files),
            "optimize_cli.json": lambda: _cli_json(
                ["optimize", files["design.json"], "--json"]
            ),
        }
        rendered = {}
        for name, case in cases.items():
            value = canonical(case(), str(directory))
            rendered[name] = json.dumps(value, indent=1, sort_keys=True) + "\n"
        return rendered
    finally:
        service.close()


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return render_all(tmp_path_factory.mktemp("goldens"))


GOLDEN_NAMES = sorted(
    [
        "study_cli_cas.json",
        "study_cli_race.json",
        "study_service.json",
        "sweep_cli.json",
        "sweep_service.json",
        "batch_service.json",
        "batch_cli.json",
        "batch_jsonl.json",
        "optimize_cli.json",
    ]
)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_wire_output_matches_golden(rendered, name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert rendered[name] == expected


def test_every_case_has_a_golden(rendered):
    assert sorted(rendered) == GOLDEN_NAMES


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for file_name, text in render_all(Path(scratch)).items():
            (GOLDEN_DIR / file_name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN_DIR / file_name}", file=sys.stderr)

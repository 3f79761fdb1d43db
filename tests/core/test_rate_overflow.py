"""Finite rates whose sum overflows are a model error, not a crash.

Each basic event below has a finite rate, but the rates leaving the
initial state sum past the largest float.  The minimiser's rate key and
the kernel's uniformisation would meet ``inf``; both refuse it with a
:class:`~repro.errors.ModelError`, and nothing on the way warns (the cells
turn warnings into errors).
"""

import warnings

import pytest

from repro import RateSweep, Study, SweepStudy, Unreliability, with_rate_parameters
from repro.dft import galileo
from repro.errors import ModelError, ReproError
from repro.ioimc.partition import canonical_rate
from repro.service import AnalysisService, SkeletonStore

OVERFLOWING = 'toplevel "T"; "T" and "A" "B"; "A" lambda=1e308; "B" lambda=1e308;'


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_a_study_raises_a_model_error():
    tree = galileo.parse(OVERFLOWING)
    with pytest.raises(ReproError, match="overflows to inf"):
        Study(tree).evaluate(Unreliability([1.0]))


def test_the_rate_key_refuses_infinity():
    with pytest.raises(ModelError, match="overflows to inf"):
        canonical_rate(1e308 + 1e308)


def test_the_service_answers_400(tmp_path):
    service = AnalysisService(SkeletonStore(tmp_path / "store"))
    try:
        status, payload = service.handle(
            "POST", "/analyze", {"tree": OVERFLOWING, "query": {"times": [1.0]}}
        )
    finally:
        service.close()
    assert status == 400
    assert "sum to inf" in payload["error"]


def test_one_overflowing_sample_fails_only_its_row():
    tree = with_rate_parameters(
        galileo.parse('toplevel "T"; "T" and "A" "B"; "A" lambda=1.0; "B" lambda=2.0;')
    )
    samples = [{"A": 1.0, "B": 2.0}, {"A": 1e308, "B": 1e308}, {"A": 3.0, "B": 1.0}]
    rows = SweepStudy(tree).run(RateSweep(Unreliability([1.0]), samples)).rows
    assert [row.error is None for row in rows] == [True, False, True]
    assert "sum to inf" in rows[1].error
    for row, sample in zip(rows[::2], samples[::2]):
        fresh = Study(galileo.parse(
            f'toplevel "T"; "T" and "A" "B"; "A" lambda={sample["A"]}; "B" lambda={sample["B"]};'
        )).evaluate(Unreliability([1.0]))
        assert row["unreliability"].values == pytest.approx(fresh["unreliability"].values)

"""The wire codec: every result record survives JSON unchanged.

The round-trip property draws instances of every result record (empty and
``None`` fields, gradients, rankings, error rows, CTMDP schedulers) and
checks ``from_dict(json.loads(json.dumps(x.to_dict()))) == x``, and the same
for rows through the JSONL batch sink.  The CI full-matrix job runs the
properties under ``HYPOTHESIS_PROFILE=full``.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.core.aggregation import CompositionStatistics, CompositionStep, StatisticsSummary
from repro.core.optimize import RepairChoice, SpareCountChoice
from repro.core.requests import DesignSpec
from repro.core.results import (
    BatchAggregate,
    BatchResult,
    BatchRow,
    MeasureResult,
    ModelInfo,
    ModuleTableInfo,
    OptimizeChoice,
    OptimizeResult,
    SchedulerChoice,
    StudyResult,
    SweepResult,
    SweepRow,
    read_batch_jsonl,
    write_batch_jsonl,
)
from repro.core.wire import encode
from repro.errors import AnalysisError

names = st.text(min_size=1, max_size=8)
numbers = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**9)
curves = st.lists(numbers, max_size=4).map(tuple)


def maybe(strategy):
    """``strategy``, or ``None``."""
    return st.none() | strategy


measures = st.builds(
    MeasureResult,
    kind=names,
    times=maybe(curves),
    values=maybe(curves),
    lower=maybe(curves),
    upper=maybe(curves),
    steady_state=maybe(st.booleans()),
    gradients=maybe(st.dictionaries(names, curves, max_size=3)),
    ranking=maybe(st.lists(names, max_size=3).map(tuple)),
    error=maybe(names),
)
models = st.builds(
    ModelInfo, st.sampled_from(["ctmc", "ctmdp"]), counts, st.booleans(), counts, counts, counts
)
summaries = st.builds(StatisticsSummary, *[counts] * 7)
steps = st.builds(
    CompositionStep, names, names, counts, counts, st.lists(names, max_size=3).map(tuple),
    counts, counts,
)
full_statistics = st.builds(
    CompositionStatistics, st.lists(steps, max_size=3), counts, counts
)
options = st.dictionaries(names, st.one_of(names, counts, numbers, st.booleans()), max_size=3)
timings = st.dictionaries(names, numbers, max_size=3)


def study_results(statistics):
    return st.builds(
        StudyResult, names, names, st.lists(measures, max_size=3).map(tuple), models,
        statistics, options, timings,
    )


batch_rows = st.builds(
    BatchRow, names, maybe(names), maybe(study_results(summaries)),
    maybe(names), numbers,
)
sweep_rows = st.builds(
    SweepRow,
    st.dictionaries(names, numbers, max_size=3),
    st.lists(measures, max_size=2).map(tuple),
    numbers,
    error=maybe(names),
    instantiate_seconds=maybe(numbers),
    solve_seconds=maybe(numbers),
    gradients=maybe(st.dictionaries(names, curves, max_size=3)),
)
schedulers = st.lists(st.builds(SchedulerChoice, counts, counts, numbers), max_size=3).map(tuple)
optimize_results = st.builds(
    OptimizeResult,
    names, numbers, maybe(numbers), st.booleans(),
    st.lists(st.builds(OptimizeChoice, names, counts, names, numbers), max_size=3).map(tuple),
    numbers, numbers, numbers, numbers, st.booleans(), maybe(counts),
    counts, counts, counts, counts, counts,
    module_tables=st.lists(
        st.builds(
            ModuleTableInfo, names, st.lists(names, max_size=3).map(tuple), counts,
            numbers, numbers, numbers,
        ),
        max_size=2,
    ).map(tuple),
    scheduler=schedulers,
    pruning_scheduler=schedulers,
    warnings=st.lists(names, max_size=2).map(tuple),
    cache=st.dictionaries(names, counts, max_size=3),
    timings=timings,
)

RECORDS = st.one_of(
    measures,
    models,
    summaries,
    full_statistics,
    study_results(st.one_of(summaries, full_statistics)),
    batch_rows,
    st.builds(BatchResult, st.lists(batch_rows, max_size=3).map(tuple), numbers, counts),
    st.builds(BatchAggregate, counts, counts, numbers, numbers, counts),
    sweep_rows,
    st.builds(
        SweepResult, names, st.lists(names, max_size=3).map(tuple),
        st.lists(sweep_rows, max_size=3).map(tuple), models, options, timings, counts,
    ),
    optimize_results,
)


def through_json(record):
    return type(record).from_dict(json.loads(json.dumps(record.to_dict())))


@given(RECORDS)
def test_every_result_record_round_trips(record):
    assert through_json(record) == record


@given(st.lists(batch_rows, max_size=4), st.integers(min_value=1, max_value=8))
def test_batch_rows_round_trip_through_the_jsonl_sink(rows, processes):
    sink = io.StringIO()
    write_batch_jsonl(iter(rows), sink, processes=processes)
    sink.seek(0)
    restored = read_batch_jsonl(sink)
    assert restored.rows == tuple(rows)
    assert restored.processes == processes


def test_a_brief_study_result_decodes_to_its_summary():
    statistics = CompositionStatistics(
        [CompositionStep("a", "b", 4, 6, ("x",), 2, 3)], final_states=2, final_transitions=3
    )
    result = StudyResult("t", "s", (), ModelInfo("ctmc", 2, False, 2, 3, 2), statistics)
    restored = StudyResult.from_dict(json.loads(result.to_json(include_steps=False)))
    assert restored.statistics == statistics.summary_record()
    assert restored.statistics.summary() == statistics.summary()
    assert through_json(result) == result


def test_design_spec_round_trips_and_accepts_the_gates_alias():
    spec = DesignSpec(
        "model.dft",
        (SpareCountChoice(("P", "Q"), (1, 2), (0.0, 1.0)), RepairChoice("E", (None, 2.0), (0, 1))),
        budget=1.0,
    )
    payload = json.loads(json.dumps(encode(spec)))
    assert DesignSpec.from_payload(payload) == spec
    payload["choices"][0]["gates"] = payload["choices"][0].pop("gate")
    assert DesignSpec.from_payload(payload) == spec
    payload["choices"][0]["gate"] = "P"
    with pytest.raises(AnalysisError, match="choices\\[0\\].gate' is given as both gate and gates"):
        DesignSpec.from_payload(payload)

"""Property tests: parallel sweep output is bit-identical to serial output.

`SweepStudy.run(..., processes=N)` fans samples out over a chunked process
pool; every worker runs the identical per-sample kernel code, so the rows —
sample dicts, measure values, error strings and their ordering — must be
**bit-identical** to a serial run for every worker count.  Only wall-clock
fields may differ, so the JSON comparison strips exactly those.
"""

import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.sweep as sweep_module
from repro import Query, RateSweep, SweepStudy, Unreliability, UnreliabilityBounds
from repro.core.measures import MTTF
from repro.core.study import chunked_pool_map
from repro.core.sweep import _SweepPlan, iter_sweep_rows
from repro.ctmc.builders import CtmcSkeleton
from repro.dft import FaultTreeBuilder
from repro.errors import AnalysisError
from repro.ioimc.rates import ParametricRate
from tests.sweep_reference import per_sample_rows

PROCESS_COUNTS = [1, 2, 4]


def parametric_tree():
    builder = FaultTreeBuilder("parallel-param")
    builder.parameter("lam", 0.5)
    builder.parameter("mu", 2.0)
    builder.basic_event("A", param="lam")
    builder.basic_event("B", failure_rate=1.5)
    builder.basic_event("S", param="mu", dormancy=0.3)
    builder.spare_gate("G", primary="A", spares=["S"])
    builder.and_gate("top", ["G", "B"])
    return builder.build(top="top")


def strip_timings(payload):
    """Drop wall-clock and worker metadata from a SweepResult payload.

    Everything else — samples, measure values, error rows, ordering — must
    be bit-identical between serial and parallel runs.
    """
    timing_keys = {
        "wall_seconds",
        "instantiate_seconds",
        "solve_seconds",
        "timings",
        "processes",
    }
    if isinstance(payload, dict):
        return {
            key: strip_timings(value)
            for key, value in payload.items()
            if key not in timing_keys
        }
    if isinstance(payload, list):
        return [strip_timings(entry) for entry in payload]
    return payload


def assert_rows_bit_identical(serial_rows, parallel_rows):
    assert len(serial_rows) == len(parallel_rows)
    for mine, theirs in zip(serial_rows, parallel_rows):
        assert mine.sample == theirs.sample
        # Tuple equality on MeasureResult dataclasses compares every float
        # exactly — bit-identical, not approximately equal.
        assert mine.measures == theirs.measures
        assert mine.gradients == theirs.gradients
        assert mine.error == theirs.error


class TestParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def serial_result(self):
        sweep = RateSweep.grid(
            Unreliability([0.5, 1.0]) + UnreliabilityBounds([1.0]) + MTTF(),
            lam=[0.1, 0.4, 0.9, 1.6, 2.5],
            mu=[0.5, 3.0],
        )
        return SweepStudy(parametric_tree()).run(sweep), sweep

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_rows_and_json_are_bit_identical(self, serial_result, processes):
        serial, sweep = serial_result
        parallel = SweepStudy(parametric_tree()).run(sweep, processes=processes)
        assert parallel.processes == processes
        assert_rows_bit_identical(serial.rows, parallel.rows)
        assert strip_timings(serial.to_dict()) == strip_timings(parallel.to_dict())

    # With 2 workers the derived chunk is 1 item up to 15 items, then 2:
    # 19 items run as nine chunks of 2 and a short last chunk of 1.
    @pytest.mark.parametrize("count", [2, 7, 16, 19])
    def test_chunking_never_reorders_rows(self, count):
        sweep = RateSweep(
            Unreliability([0.5, 1.0]) + MTTF(),
            [{"lam": 0.1 + 0.13 * k, "mu": 0.5 + 0.25 * (k % 3)} for k in range(count)],
        )
        serial = SweepStudy(parametric_tree()).run(sweep)
        parallel = SweepStudy(parametric_tree()).run(sweep, processes=2)
        assert parallel.processes == 2
        assert_rows_bit_identical(serial.rows, parallel.rows)

    def test_invalid_worker_counts_are_rejected(self, serial_result):
        _serial, sweep = serial_result
        study = SweepStudy(parametric_tree())
        for processes in (0, -1):
            with pytest.raises(AnalysisError, match="processes must be >= 1"):
                study.run(sweep, processes=processes)


def _chunk_lengths(items):
    """Pool entry point: each item paired with the length of its chunk."""
    return [(item, len(items)) for item in items]


@pytest.mark.parametrize(
    "count, lengths",
    [
        (1, [1]),
        (7, [1] * 7),
        (16, [2] * 8),
        (19, [2] * 9 + [1]),
        (1000, [64] * 15 + [40]),
    ],
)
def test_derived_chunks_cover_every_item_in_order(count, lengths):
    """About four chunks per worker, at most 64 items each, the last one short."""
    rows = list(chunked_pool_map(_chunk_lengths, list(range(count)), 2))
    assert [item for item, _length in rows] == list(range(count))
    chunks, index = [], 0
    while index < count:
        chunks.append(rows[index][1])
        index += rows[index][1]
    assert chunks == lengths


def test_chunks_run_on_a_given_executor_and_leave_it_running():
    with ThreadPoolExecutor(max_workers=2) as executor:
        rows = list(chunked_pool_map(_chunk_lengths, list(range(19)), 2, executor=executor))
        assert [item for item, _length in rows] == list(range(19))
        assert [length for _item, length in rows[:2]] == [2, 2]
        assert executor.submit(len, "open").result() == 4


class TestParallelGradientsEqualSerial:
    """`run(gradients=True, processes=N)` rows match serial bit-for-bit.

    The gradient path ships the CTMDP gradient kernel into the workers along
    with the transient kernel; its per-sample derivative curves go through
    the same chunked scheduling, so `SweepRow.gradients` dictionaries —
    keys, ordering and every float — must be exactly the serial ones.
    """

    @pytest.fixture(scope="class")
    def serial_gradients(self):
        sweep = RateSweep.grid(
            Unreliability([0.5, 1.0]) + MTTF(),
            lam=[0.1, 0.4, 0.9, 1.6, 2.5],
            mu=[0.5, 3.0],
        )
        return SweepStudy(parametric_tree()).run(sweep, gradients=True), sweep

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_gradient_rows_are_bit_identical(self, serial_gradients, processes):
        serial, sweep = serial_gradients
        parallel = SweepStudy(parametric_tree()).run(
            sweep, gradients=True, processes=processes
        )
        assert all(row.gradients is not None for row in serial.rows)
        assert_rows_bit_identical(serial.rows, parallel.rows)
        assert strip_timings(serial.to_dict()) == strip_timings(parallel.to_dict())

    def test_gradient_keys_cover_declared_parameters(self, serial_gradients):
        serial, _sweep = serial_gradients
        for row in serial.rows:
            assert set(row.gradients) == {"lam", "mu"}


class TestErrorRowOrdering:
    """Failing samples keep their position and error text across all paths.

    A linear rate form with a negative constant part turns non-positive for
    small parameter values, so instantiation genuinely fails *inside the
    worker process* for exactly those samples.
    """

    @staticmethod
    def failing_skeleton():
        dipping = ParametricRate(-0.5, {"lam": 1.0}, {"lam": 1.0})
        return CtmcSkeleton(
            num_states=3,
            initial=0,
            labels=(frozenset(), frozenset(), frozenset({"failed"})),
            state_names=(None, None, None),
            edges=((0, 1, dipping), (1, 2, 2.0)),
        )

    #: Samples 1 and 3 (lam <= 0.5) drive the edge rate non-positive.
    SAMPLES = [{"lam": 2.0}, {"lam": 0.2}, {"lam": 1.5}, {"lam": 0.5}, {"lam": 3.0}]

    def failing_plan(self):
        return _SweepPlan(
            skeleton=self.failing_skeleton(),
            declared={"lam": 1.0},
            query=Query(Unreliability([1.0])),
            tolerance=1e-12,
        )

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_error_rows_keep_sample_order(self, processes):
        rows = list(
            iter_sweep_rows(self.failing_plan(), self.SAMPLES, processes=processes)
        )
        assert [row.sample for row in rows] == self.SAMPLES
        assert [row.ok for row in rows] == [True, False, True, False, True]
        for row in rows:
            if not row.ok:
                assert "non-positive" in row.error
                assert row.measures == ()

    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    def test_error_rows_match_per_sample_reference(self, processes):
        """The per-sample instantiation reference fails on the same samples
        and agrees with the kernel rows on the others."""
        plan = self.failing_plan()
        rows = list(iter_sweep_rows(plan, self.SAMPLES, processes=processes))
        reference = per_sample_rows(plan.skeleton, plan.query, self.SAMPLES, plan.declared)
        assert [row.ok for row in rows] == [row.ok for row in reference]
        for row, expected in zip(rows, reference):
            if expected.ok:
                assert row["unreliability"].values == pytest.approx(
                    expected["unreliability"].values, abs=1e-12
                )
            else:
                assert "non-positive" in expected.error

    def test_error_rows_identical_across_worker_counts(self):
        plan = _SweepPlan(
            skeleton=self.failing_skeleton(),
            declared={"lam": 1.0},
            query=Query(Unreliability([1.0])),
            tolerance=1e-12,
        )
        samples = [{"lam": 0.1 * step} for step in range(1, 26)]
        serial = list(iter_sweep_rows(plan, samples, processes=1))
        for processes in (2, 4):
            parallel = list(iter_sweep_rows(plan, samples, processes=processes))
            assert_rows_bit_identical(serial, parallel)
            assert [row.error for row in serial] == [row.error for row in parallel]


#: The sample whose pool chunk kills its own worker process.
POISON = 0.777
_REAL_CHUNK = sweep_module._evaluate_sweep_chunk


def _chunk_killing_its_worker(samples):
    """The pool's chunk entry point, except that a chunk holding the poison
    sample SIGKILLs the worker evaluating it (a crash no Python handler sees)."""
    if any(sample.get("lam") == POISON for sample in samples):
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_CHUNK(samples)


class TestWorkerDeath:
    """A worker killed mid-sweep fails the whole run promptly and cleanly."""

    DEADLINE = 60

    def test_killed_worker_fails_fast_without_rows_or_orphans(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_evaluate_sweep_chunk", _chunk_killing_its_worker)
        values = [0.1, 0.3, 0.5, POISON, 1.1, 1.4, 1.9, 2.5]
        sweep = RateSweep(Unreliability([0.5, 1.0]), [{"lam": lam} for lam in values])
        study = SweepStudy(parametric_tree())
        study.skeleton  # build the model outside the timed call
        before = {child.pid for child in multiprocessing.active_children()}

        def overran(_signum, _frame):
            raise TimeoutError("the sweep hung after its worker died")

        previous = signal.signal(signal.SIGALRM, overran)
        signal.alarm(self.DEADLINE)
        result = None
        start = time.perf_counter()
        try:
            with pytest.raises(BrokenProcessPool):
                result = study.run(sweep, processes=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < self.DEADLINE
        assert result is None
        leftover = [
            child
            for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        assert leftover == [], f"worker processes outlived the sweep: {leftover}"

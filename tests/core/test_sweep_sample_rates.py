"""Every sweep sample is uniformised at its own rate.

Each stacked kernel block keeps its sample's maximal exit rate, so a row
depends only on its own sample: sweeping it alone, beside a sample whose
rates are a hundred times faster, serially or over a pool gives the same
bits, and every row agrees with the per-sample instantiation reference.
Sweeps have no option to load a grid at one shared rate.
"""

import pytest

from repro import RateSweep, SweepStudy, Unreliability, UnreliabilityBounds
from repro.dft import FaultTreeBuilder
from tests.core.test_sweep_parallel import assert_rows_bit_identical
from tests.sweep_reference import per_sample_rows

TOLERANCE = 1e-9
MISSION_TIMES = [0.5, 1.0, 2.0]
FAST = {"lam": 500.0, "mu": 200.0}


def wide_range_tree():
    """Rates spanning two orders of magnitude make the samples' rates differ."""
    builder = FaultTreeBuilder("sample-rates")
    builder.parameter("lam", 0.5)
    builder.parameter("mu", 2.0)
    builder.basic_event("A", param="lam")
    builder.basic_event("B", failure_rate=1.0)
    builder.basic_event("S", param="mu", dormancy=0.3)
    builder.spare_gate("G", primary="A", spares=["S"])
    builder.and_gate("top", ["G", "B"])
    return builder.build(top="top")


def race_tree():
    """An FDEP trigger racing a PAND: a CTMDP, swept for bounds."""
    builder = FaultTreeBuilder("sample-rates-nondet")
    builder.parameter("lam", 1.0)
    builder.basic_event("T", param="lam")
    builder.basic_event("X", failure_rate=1.0)
    builder.basic_event("Y", failure_rate=1.0)
    builder.pand_gate("top", ["X", "Y"])
    builder.fdep("F", trigger="T", dependents=["X", "Y"])
    return builder.build(top="top")


def grid_samples():
    sweep = RateSweep.grid(Unreliability(MISSION_TIMES), lam=[0.05, 0.5, 5.0], mu=[0.2, 2.0])
    return list(sweep.samples)


CASES = {
    "ctmc": (wide_range_tree, Unreliability(MISSION_TIMES), grid_samples),
    "ctmdp": (
        race_tree,
        UnreliabilityBounds([0.25, 1.0]),
        lambda: [{"lam": value} for value in (0.05, 0.5, 1.5, 5.0)],
    ),
}


def assert_rows_close(rows, reference):
    assert len(rows) == len(reference)
    for row, expected in zip(rows, reference):
        assert row.sample == expected.sample
        assert row.error is None and expected.error is None
        for mine, theirs in zip(row.measures, expected.measures):
            for field in ("values", "lower", "upper"):
                ours, expected_values = getattr(mine, field), getattr(theirs, field)
                assert (ours is None) == (expected_values is None)
                for a, b in zip(ours or (), expected_values or ()):
                    assert a == pytest.approx(b, abs=TOLERANCE)


@pytest.mark.parametrize("case", sorted(CASES))
class TestPerSampleRates:
    def test_rows_match_the_per_sample_reference(self, case):
        make_tree, query, make_samples = CASES[case]
        tree = make_tree()
        study = SweepStudy(tree)
        samples = make_samples() + [{"lam": FAST["lam"]}]
        result = study.run(RateSweep(query, samples))
        reference = per_sample_rows(study.skeleton, query, samples, tree.parameters)
        assert_rows_close(result.rows, reference)

    def test_a_fast_sample_leaves_every_other_row_bit_identical(self, case):
        make_tree, query, make_samples = CASES[case]
        samples = make_samples()
        fast = {name: FAST[name] for name in samples[0]}
        study = SweepStudy(make_tree())
        plain = study.run(RateSweep(query, samples))
        widened = study.run(RateSweep(query, samples[:1] + [fast] + samples[1:]))
        assert widened.rows[1].sample == fast
        assert_rows_bit_identical(plain.rows, widened.rows[:1] + widened.rows[2:])

    def test_a_sample_swept_alone_gives_its_grid_row(self, case):
        make_tree, query, make_samples = CASES[case]
        samples = make_samples()
        study = SweepStudy(make_tree())
        whole = study.run(RateSweep(query, samples))
        for sample, row in zip(samples, whole.rows):
            assert_rows_bit_identical([row], study.run(RateSweep(query, [sample])).rows)

    def test_pooled_rows_match_serial_bitwise(self, case):
        make_tree, query, make_samples = CASES[case]
        samples = make_samples() + [{"lam": FAST["lam"]}]
        sweep = RateSweep(query, samples)
        serial = SweepStudy(make_tree()).run(sweep)
        pooled = SweepStudy(make_tree()).run(sweep, processes=2)
        assert pooled.processes == 2
        assert_rows_bit_identical(serial.rows, pooled.rows)


def test_result_options_carry_no_shared_rate():
    sweep = RateSweep(Unreliability(MISSION_TIMES), grid_samples())
    result = SweepStudy(wide_range_tree()).run(sweep)
    assert not any("uniformisation" in key for key in result.options)


@pytest.mark.parametrize("keyword", ["share_uniformisation", "chunk_size"])
def test_run_takes_no_rate_or_chunk_knob(keyword):
    sweep = RateSweep(Unreliability(MISSION_TIMES), grid_samples())
    with pytest.raises(TypeError, match=keyword):
        SweepStudy(wide_range_tree()).run(sweep, **{keyword: 1})

"""The request specs: one definition of the query and sweep fields.

:class:`QuerySpec` and :class:`SweepSpec` are what the CLI builds from its
flags, the service decodes from JSON and the client encodes; these tests pin
their defaults, their strict type checks, the payload round trip, the
basic-event attach step of ``prepare`` and the per-row isolation of a sample
whose uniformisation series cannot be truncated.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.core import (
    MTTF,
    RateSweep,
    Study,
    SweepStudy,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
    with_rate_parameters,
)
from repro.core.requests import QuerySpec, SweepSpec
from repro.core.wire import check_fields
from repro.dft import galileo
from repro.errors import AnalysisError

PARAM_TREE = """param lam = 0.5;
toplevel "sys";
"sys" and "a" "b";
"a" lambda=lam;
"b" lambda=0.7;
"""


class TestQuerySpec:
    def test_defaults_are_the_cli_defaults(self):
        spec = QuerySpec()
        assert spec.times == (1.0,)
        assert not (spec.bounds or spec.mttf or spec.unavailability)
        for command in ("analyze", "sweep", "batch"):
            args = build_parser().parse_args(
                [command, "t.dft"] + (["--param", "a=1"] if command == "sweep" else [])
            )
            assert tuple(args.time) == spec.times
        sweep = build_parser().parse_args(["sweep", "t.dft", "--param", "a=1"])
        assert sweep.processes == SweepSpec.processes

    def test_query_measures_in_order(self):
        spec = QuerySpec((0.5, 2), mttf=True, unavailability=True)
        assert spec.times == (0.5, 2.0)
        assert list(spec.query()) == [Unreliability([0.5, 2.0]), MTTF(), Unavailability()]
        assert list(QuerySpec(bounds=True).query()) == [UnreliabilityBounds([1.0])]

    def test_nondeterministic_upgrades_to_bounds(self):
        assert list(QuerySpec().query(nondeterministic=True)) == [UnreliabilityBounds([1.0])]

    @pytest.mark.parametrize(
        "fields",
        [
            {"bounds": "false"},
            {"mttf": "no"},
            {"unavailability": 0},
            {"times": [1, True]},
            {"times": ["1.5"]},
            {"times": []},
            {"times": 1.0},
            {"times": "1.0"},
            {"times": [-1.0]},
            {"times": [None]},
        ],
    )
    def test_wrong_types_are_rejected(self, fields):
        with pytest.raises(AnalysisError):
            QuerySpec.from_payload(fields)

    def test_unknown_and_non_object_payloads_are_rejected(self):
        with pytest.raises(AnalysisError, match="unknown query field.*time\\b"):
            QuerySpec.from_payload({"time": [1.0]})
        for payload in (None, [], "times"):
            with pytest.raises(AnalysisError, match="JSON object"):
                QuerySpec.from_payload(payload)

    def test_payload_round_trip(self):
        spec = QuerySpec((0.25, 3.0), bounds=True, unavailability=True)
        assert QuerySpec.from_payload(spec.to_payload()) == spec
        assert QuerySpec.from_payload({}) == QuerySpec()


class TestSweepSpec:
    def test_exactly_one_of_axes_or_samples(self):
        with pytest.raises(AnalysisError, match="exactly one"):
            SweepSpec()
        with pytest.raises(AnalysisError, match="exactly one"):
            SweepSpec(axes={"lam": [1.0]}, samples=[{"lam": 1.0}])

    @pytest.mark.parametrize(
        "fields",
        [
            {"axes": {"lam": "x"}},
            {"axes": {"lam": ["0.5"]}},
            {"axes": {"lam": [True]}},
            {"axes": {"lam": []}},
            {"axes": []},
            {"samples": [{"lam": "0.5"}]},
            {"samples": {"lam": 0.5}},
            {"samples": [{}]},
            {"axes": {"lam": [1.0]}, "processes": 2.0},
            {"axes": {"lam": [1.0]}, "processes": True},
            {"axes": {"lam": [1.0]}, "processes": 0},
            {"axes": {"lam": [1.0]}, "share_uniformisation": True},
            {"axes": {"lam": [1.0]}, "query": None},
            {"axes": {"lam": [1.0]}, "query": {"bounds": 1}},
            {"axes": {"lam": [1.0]}, "share_uniformization": True},
            {"axes": {"lam": [1.0]}, "tree": PARAM_TREE},
        ],
    )
    def test_wrong_types_and_unknown_fields_are_rejected(self, fields):
        with pytest.raises(AnalysisError):
            SweepSpec.from_payload(fields)

    def test_unknown_field_is_named_and_the_envelope_is_skipped(self):
        with pytest.raises(AnalysisError, match="share_uniformization"):
            SweepSpec.from_payload({"axes": {"lam": [1.0]}, "share_uniformization": True})
        spec = SweepSpec.from_payload({"axes": {"lam": [1.0]}, "tree": "t"}, envelope=("tree",))
        assert spec.axes == {"lam": (1.0,)}

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(axes={"lam": [0.5, 1], "mu": 2.0}, query=QuerySpec((1.0, 2.0), mttf=True)),
            SweepSpec(samples=[{"lam": 0.5}, {"lam": 1.0, "mu": 3}], processes=3),
        ],
        ids=["axes", "samples"],
    )
    def test_payload_round_trip(self, spec):
        assert SweepSpec.from_payload(spec.to_payload()) == spec

    def test_rate_sweep_matches_a_hand_built_one(self):
        spec = SweepSpec(axes={"lam": [0.5, 1.0], "mu": [2.0]}, query=QuerySpec(bounds=True))
        expected = RateSweep.grid(UnreliabilityBounds([1.0]), lam=[0.5, 1.0], mu=[2.0])
        assert spec.rate_sweep() == expected
        samples = SweepSpec(samples=[{"lam": 0.5}]).rate_sweep(nondeterministic=True)
        assert samples == RateSweep(UnreliabilityBounds([1.0]), [{"lam": 0.5}])

    def test_prepare_attaches_basic_events_and_keeps_declared_parameters(self):
        tree = galileo.parse(PARAM_TREE)
        prepared = SweepSpec(axes={"lam": [1.0], "b": [0.3]}).prepare(tree)
        assert prepared.parameters == {"lam": 0.5, "b": 0.7}
        assert prepared.element("b").failure_rate_param == "b"
        assert prepared.element("a").failure_rate_param == "lam"
        assert SweepSpec(axes={"lam": [1.0]}).prepare(tree) is tree

    def test_prepare_rejects_undeclared_names_before_any_build(self):
        tree = galileo.parse(PARAM_TREE)
        with pytest.raises(AnalysisError, match="does not declare: nope, sys"):
            SweepSpec(samples=[{"nope": 1.0, "sys": 1.0}]).prepare(tree)


def test_check_fields_names_every_unknown_field():
    with pytest.raises(AnalysisError, match="unknown request field\\(s\\): querry, zz"):
        check_fields({"tree": "t", "querry": {}, "zz": 1}, "request", ("tree", "query"))


class TestDeepSeries:
    """A Λt whose Poisson truncation depth cannot be computed is an error."""

    def test_study_evaluate_raises(self):
        tree = galileo.parse('toplevel "A";\n"A" lambda=1e20;\n')
        with pytest.raises(AnalysisError, match="Λt = 1e\\+20"):
            Study(tree).evaluate(Unreliability([1.0]))

    def test_only_the_deep_sample_carries_a_row_error(self):
        tree = with_rate_parameters(
            galileo.parse('toplevel "S";\n"S" and "A" "B";\n"A" lambda=1;\n"B" lambda=1;\n')
        )
        study = SweepStudy(tree)
        samples = [{"A": 1.0}, {"A": 1e20}, {"A": 2.0}]
        result = study.run(RateSweep(Unreliability([1.0]), samples))
        assert [row.ok for row in result.rows] == [True, False, True]
        assert "Λt" in result.rows[1].error
        alone = study.run(RateSweep(Unreliability([1.0]), [samples[0], samples[2]]))
        for mine, theirs in zip([result.rows[0], result.rows[2]], alone.rows):
            assert mine.measures[0].values == theirs.measures[0].values

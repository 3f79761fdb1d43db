"""Cross-validation: compositional pipeline vs. independent baselines.

The compositional I/O-IMC pipeline and the monolithic DIFTree-style generator
are two completely independent implementations of the DFT semantics (they do
not share any semantic code).  Agreement of their numerical results on a wide
range of trees is therefore strong evidence for the correctness of both.
"""

import pytest

from repro import StudyOptions, Unreliability, UnreliabilityBounds, evaluate
from repro.baselines import DiftreeAnalyzer, monolithic_unreliability
from repro.dft import FaultTreeBuilder, galileo
from repro.ioimc import AggregationOptions
from repro.systems import (
    and_spare_system,
    cardiac_assist_system,
    fdep_cascade_family,
    fdep_gate_trigger_system,
    mutually_exclusive_switch,
    nested_spare_system,
    spare_chain_family,
)

MISSION_TIMES = (0.3, 1.0, 2.5)


def tree_catalogue():
    """A catalogue of deterministic trees covering every element type."""
    trees = []

    builder = FaultTreeBuilder("static-mixed")
    builder.basic_events(["A", "B", "C", "D", "E"], failure_rate=0.8)
    builder.or_gate("O1", ["A", "B"])
    builder.voting_gate("V1", ["C", "D", "E"], threshold=2)
    builder.and_gate("Top", ["O1", "V1"])
    trees.append(builder.build("Top"))

    builder = FaultTreeBuilder("pand-over-modules")
    builder.basic_events(["A1", "A2", "B1", "B2"], failure_rate=1.0)
    builder.and_gate("MA", ["A1", "A2"])
    builder.and_gate("MB", ["B1", "B2"])
    builder.pand_gate("Top", ["MA", "MB"])
    trees.append(builder.build("Top"))

    builder = FaultTreeBuilder("warm-spare-pool")
    builder.basic_event("P1", 1.0)
    builder.basic_event("P2", 0.5)
    builder.basic_event("S", 0.8, dormancy=0.3)
    builder.spare_gate("G1", primary="P1", spares=["S"])
    builder.spare_gate("G2", primary="P2", spares=["S"])
    builder.and_gate("Top", ["G1", "G2"])
    trees.append(builder.build("Top"))

    builder = FaultTreeBuilder("fdep-into-spare")
    builder.basic_event("T", 0.4)
    builder.basic_event("P", 1.0)
    builder.basic_event("S", 1.0, dormancy=0.0)
    builder.spare_gate("G", primary="P", spares=["S"])
    builder.fdep("F", trigger="T", dependents=["P"])
    builder.or_gate("Top", ["G"])
    trees.append(builder.build("Top"))

    builder = FaultTreeBuilder("seq-chain")
    builder.basic_events(["A", "B", "C"], failure_rate=1.5)
    builder.seq_gate("Top", ["A", "B", "C"])
    trees.append(builder.build("Top"))

    trees.append(and_spare_system(spare_dormancy=0.5))
    trees.append(nested_spare_system())
    trees.append(fdep_gate_trigger_system())
    trees.append(mutually_exclusive_switch())
    trees.append(spare_chain_family(num_subsystems=2, num_shared_spares=2))
    trees.append(fdep_cascade_family(depth=3))
    trees.append(cardiac_assist_system())
    return trees


@pytest.mark.parametrize("tree", tree_catalogue(), ids=lambda tree: tree.name)
class TestCompositionalVsMonolithic:
    def test_agreement_across_mission_times(self, tree):
        bounds = evaluate(tree, UnreliabilityBounds(MISSION_TIMES))["unreliability_bounds"]
        for time, low, high in zip(bounds.times, bounds.lower, bounds.upper):
            reference = monolithic_unreliability(tree, time)
            assert low == pytest.approx(high, abs=1e-9), tree.name
            assert low == pytest.approx(reference, abs=1e-7), tree.name


@pytest.mark.parametrize(
    "tree",
    [t for t in tree_catalogue() if not t.is_repairable],
    ids=lambda tree: tree.name,
)
class TestAggregationStrengthEquivalence:
    def test_weak_and_strong_aggregation_agree(self, tree):
        """Weak aggregation (the paper's choice) collapses the confluent
        interleaving diamonds created by hiding; strong aggregation may leave
        such spurious choices behind, in which case the resulting CTMDP bounds
        must still pin down exactly the weak value."""
        weak = evaluate(tree, Unreliability([1.0]), StudyOptions())["unreliability"].value
        strong_options = StudyOptions(aggregation=AggregationOptions(method="strong"))
        strong = evaluate(tree, UnreliabilityBounds([1.0]), strong_options)
        low, high = strong["unreliability_bounds"].bounds
        assert low == pytest.approx(weak, abs=1e-7)
        assert high == pytest.approx(weak, abs=1e-7)


class TestDiftreeAgreement:
    @pytest.mark.parametrize("time", MISSION_TIMES)
    def test_cas(self, time):
        cas = cardiac_assist_system()
        compositional = evaluate(cas, Unreliability([time]))["unreliability"].value
        modular = DiftreeAnalyzer(cas).unreliability(time)
        assert compositional == pytest.approx(modular, abs=1e-9)


class TestGalileoRoundTripAnalysis:
    def test_parsed_tree_gives_same_result(self):
        original = cardiac_assist_system()
        parsed = galileo.parse(galileo.write(original))
        query = Unreliability([1.0])
        assert evaluate(parsed, query)["unreliability"].value == pytest.approx(
            evaluate(original, query)["unreliability"].value, abs=1e-12
        )

"""E10 — ablation of the engine's design choices (composition order, equivalence).

The paper's algorithm leaves the composition order open ("pick two I/O-IMC").
This benchmark quantifies how much the order matters — the linked/smallest
heuristics versus a naive sequential fold — and how much weak bisimulation
buys over strong bisimulation during aggregation.  All variants must agree on
the computed unreliability; the interesting outputs are the peak intermediate
sizes.
"""

import pytest

from repro import Study, StudyOptions, UnreliabilityBounds
from repro.ioimc import AggregationOptions
from repro.systems import cardiac_assist_system, cascaded_pand_system

from conftest import record

MISSION_TIME = 1.0
ORDERINGS = ["linked", "smallest", "sequential"]


def run_variant(tree, ordering="linked", method="weak"):
    options = StudyOptions(
        ordering=ordering, aggregation=AggregationOptions(method=method)
    )
    study = Study(tree, options)
    result = study.evaluate(UnreliabilityBounds([MISSION_TIME]))
    return result["unreliability_bounds"].bounds, study.statistics


@pytest.mark.benchmark(group="ordering-ablation")
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_cps_composition_ordering(benchmark, ordering):
    tree = cascaded_pand_system()

    def run():
        return run_variant(tree, ordering=ordering)

    (low, high), statistics = benchmark(run)
    reference, _ = run_variant(tree, ordering="linked")
    record(
        benchmark,
        experiment="E10 (composition-order ablation, CPS)",
        ordering=ordering,
        unreliability=low,
        peak_product_states=statistics.peak_product_states,
        peak_product_transitions=statistics.peak_product_transitions,
    )
    assert low == pytest.approx(high, abs=1e-9)
    assert low == pytest.approx(reference[0], abs=1e-9)


@pytest.mark.benchmark(group="equivalence-ablation")
@pytest.mark.parametrize("method", ["weak", "strong"])
def test_cas_aggregation_equivalence(benchmark, method):
    tree = cardiac_assist_system()

    def run():
        return run_variant(tree, method=method)

    (low, high), statistics = benchmark(run)
    record(
        benchmark,
        experiment="E10 (weak vs strong aggregation, CAS)",
        method=method,
        unreliability_low=low,
        unreliability_high=high,
        peak_aggregated_states=statistics.peak_reduced_states,
        peak_product_states=statistics.peak_product_states,
    )
    assert low == pytest.approx(high, abs=1e-6)
    assert low == pytest.approx(0.6579, abs=5e-5)

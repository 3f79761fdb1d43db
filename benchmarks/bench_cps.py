"""E3 — the cascaded PAND system (Section 5.2, Figures 8-9).

Paper claims reproduced here:

* compositional aggregation keeps the largest intermediate I/O-IMC at ~156
  states / 490 transitions (our automated composition order peaks even lower),
* the DIFTree-style monolithic Markov chain has **4113 states and 24608
  transitions** (reproduced exactly),
* the system unreliability at mission time 1 is **0.00135** with both methods,
* the aggregated I/O-IMC of module A is the small chain of Figure 9.
"""

import pytest

from repro import Study
from repro.baselines import MonolithicMarkovGenerator
from repro.core import compositional_aggregate, convert
from repro.ctmc.transient import probability_reach_label
from repro.dft import DynamicFaultTree
from repro.systems import (
    CPS_PAPER_UNRELIABILITY,
    PAPER_COMPOSITIONAL_PEAK_STATES,
    PAPER_COMPOSITIONAL_PEAK_TRANSITIONS,
    PAPER_DIFTREE_STATES,
    PAPER_DIFTREE_TRANSITIONS,
    cascaded_pand_system,
)

from conftest import record, unreliability

MISSION_TIME = 1.0


@pytest.mark.benchmark(group="cps")
def test_cps_compositional_pipeline(benchmark):
    def run():
        study = Study(cascaded_pand_system())
        return unreliability(study, MISSION_TIME), study.statistics

    value, statistics = benchmark(run)
    record(
        benchmark,
        experiment="E3 (CPS, compositional)",
        unreliability=value,
        paper_unreliability=CPS_PAPER_UNRELIABILITY,
        peak_product_states=statistics.peak_product_states,
        peak_product_transitions=statistics.peak_product_transitions,
        paper_peak_states=PAPER_COMPOSITIONAL_PEAK_STATES,
        paper_peak_transitions=PAPER_COMPOSITIONAL_PEAK_TRANSITIONS,
    )
    assert value == pytest.approx(CPS_PAPER_UNRELIABILITY, abs=5e-5)
    # The shape of the result: the peak stays in the same order of magnitude
    # as the paper's 156/490 and far below the monolithic chain.
    assert statistics.peak_product_states <= PAPER_COMPOSITIONAL_PEAK_STATES * 2
    assert statistics.peak_product_transitions <= PAPER_COMPOSITIONAL_PEAK_TRANSITIONS * 2


@pytest.mark.benchmark(group="cps")
def test_cps_monolithic_diftree_chain(benchmark):
    def run():
        generator = MonolithicMarkovGenerator(cascaded_pand_system())
        built = generator.build()
        value = probability_reach_label(built.ctmc, "failed", MISSION_TIME)
        return built, value

    built, value = benchmark(run)
    record(
        benchmark,
        experiment="E3 (CPS, DIFTree monolithic)",
        states=built.num_states,
        transitions=built.num_transitions,
        paper_states=PAPER_DIFTREE_STATES,
        paper_transitions=PAPER_DIFTREE_TRANSITIONS,
        unreliability=value,
        paper_unreliability=CPS_PAPER_UNRELIABILITY,
    )
    assert built.num_states == PAPER_DIFTREE_STATES
    assert built.num_transitions == PAPER_DIFTREE_TRANSITIONS
    assert value == pytest.approx(CPS_PAPER_UNRELIABILITY, abs=5e-5)


@pytest.mark.benchmark(group="cps")
def test_cps_module_a_aggregation(benchmark):
    """Figure 9: the AND module over four identical events aggregates to a
    six-state chain once its internal firing signals are hidden."""
    cps = cascaded_pand_system()

    def run():
        subtree = DynamicFaultTree("A")
        for name in ("A1", "A2", "A3", "A4", "A"):
            subtree.add(cps.element(name))
        subtree.set_top("A")
        community = convert(subtree)
        models = [m.model for m in community.members if m.kind != "monitor"]
        final, _stats = compositional_aggregate(models, keep_visible=["fail_A"])
        return final

    final = benchmark(run)
    record(
        benchmark,
        experiment="E3 (CPS, module A of Figure 9)",
        module_states=final.num_states,
        module_transitions=final.num_transitions,
        paper_claim="module A aggregates to a small chain (Figure 9)",
    )
    assert final.num_states == 6

"""E2 — the cardiac assist system (Section 5.1, Figure 7).

Paper claims reproduced here:

* system unreliability at mission time 1 is **0.6579** (identical for the
  compositional pipeline and for Galileo/DIFTree);
* the aggregated I/O-IMC of each of the three units is tiny (the paper reports
  6 states each; Galileo's biggest per-unit CTMC, the pump unit, has 8 states).
"""

import pytest

from repro import Study
from repro.baselines import DiftreeAnalyzer
from repro.systems import CAS_PAPER_UNRELIABILITY, cardiac_assist_system

from conftest import record, unreliability

MISSION_TIME = 1.0


@pytest.mark.benchmark(group="cas")
def test_cas_compositional_unreliability(benchmark):
    def run():
        study = Study(cardiac_assist_system())
        return unreliability(study, MISSION_TIME), study.statistics

    value, statistics = benchmark(run)
    record(
        benchmark,
        experiment="E2 (CAS, compositional)",
        unreliability=value,
        paper_unreliability=CAS_PAPER_UNRELIABILITY,
        peak_product_states=statistics.peak_product_states,
        peak_product_transitions=statistics.peak_product_transitions,
        peak_aggregated_states=statistics.peak_reduced_states,
    )
    assert value == pytest.approx(CAS_PAPER_UNRELIABILITY, abs=5e-5)


@pytest.mark.benchmark(group="cas")
def test_cas_diftree_baseline(benchmark):
    def run():
        return DiftreeAnalyzer(cardiac_assist_system()).analyze(MISSION_TIME)

    result = benchmark(run)
    module_sizes = {m.root: m.states for m in result.modules if m.dynamic}
    record(
        benchmark,
        experiment="E2 (CAS, DIFTree baseline)",
        unreliability=result.unreliability,
        paper_unreliability=CAS_PAPER_UNRELIABILITY,
        module_chain_states=module_sizes,
        paper_biggest_module_states=8,
    )
    assert result.unreliability == pytest.approx(CAS_PAPER_UNRELIABILITY, abs=5e-5)
    assert module_sizes["Pump_unit"] == 8  # "the biggest generated CTMC had 8 states"


@pytest.mark.benchmark(group="cas")
def test_cas_unit_models_aggregate_small(benchmark):
    """Each independent unit aggregates to a handful of states (paper: ~6)."""
    from repro.dft import DynamicFaultTree

    cas = cardiac_assist_system()

    def unit_tree(unit):
        members = set(cas.descendants(unit))
        if unit == "CPU_unit":
            members |= {"CPU_fdep", "Trigger", "CS", "SS"}
        subtree = DynamicFaultTree(unit)
        for name in cas.topological_order():
            if name in members:
                subtree.add(cas.element(name))
        subtree.set_top(unit)
        return subtree

    def run():
        return {
            unit: Study(unit_tree(unit)).final_ioimc.num_states
            for unit in ("CPU_unit", "Motor_unit", "Pump_unit")
        }

    sizes = benchmark(run)
    record(
        benchmark,
        experiment="E2 (CAS, per-unit aggregated I/O-IMC)",
        aggregated_unit_states=sizes,
        paper_claim="each aggregated module I/O-IMC had 6 states",
    )
    assert all(size <= 8 for size in sizes.values())

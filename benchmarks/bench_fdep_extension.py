"""E6 — FDEP gates triggering arbitrary gates (Section 6.2, Figure 10c).

The trigger fails the *gate* ``A`` but none of the basic events below it; the
shared component ``C`` keeps working inside the second sub-system.  The
benchmark verifies that semantic point quantitatively (against the monolithic
baseline and against a hand-derived bound) and measures the pipeline.
"""

import pytest

from repro import Study
from repro.baselines import monolithic_unreliability
from repro.dft import FaultTreeBuilder
from repro.systems import fdep_gate_trigger_system

from conftest import record, unreliability

MISSION_TIME = 1.0


def event_level_variant():
    """The same system, but with the FDEP pointed at the basic events.

    The paper's point (Section 6.2) is that triggering the *gate* leaves the
    components below it untouched; this variant triggers the components
    instead, which also drags the second sub-system (sharing ``C``) down and
    must therefore be strictly more unreliable.
    """
    builder = FaultTreeBuilder("fdep-into-events")
    builder.basic_event("T", 0.5)
    builder.basic_event("B", 1.0)
    builder.basic_event("C", 1.0)
    builder.basic_event("E", 1.0)
    builder.and_gate("A", ["B", "C"])
    builder.and_gate("CE", ["C", "E"])
    builder.fdep("F", trigger="T", dependents=["B", "C"])
    builder.and_gate("system", ["A", "CE"])
    return builder.build("system")


@pytest.mark.benchmark(group="fdep-extension")
def test_fdep_gate_dependent(benchmark):
    tree = fdep_gate_trigger_system(trigger_rate=0.5, component_rate=1.0)

    def run():
        return unreliability(Study(tree), MISSION_TIME)

    value = benchmark(run)
    reference = monolithic_unreliability(tree, MISSION_TIME)
    event_level = unreliability(Study(event_level_variant()), MISSION_TIME)
    record(
        benchmark,
        experiment="E6 (Figure 10c, FDEP triggering a gate)",
        unreliability=value,
        monolithic_reference=reference,
        event_level_variant=event_level,
        paper_claim="the trigger fails the gate, not the components below it",
    )
    assert value == pytest.approx(reference, abs=1e-7)
    # Failing the components (instead of the gate) also takes down the second
    # sub-system via the shared component C, so it is strictly worse.
    assert event_level > value + 1e-3

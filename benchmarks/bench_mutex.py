"""E7 — inhibition and mutually exclusive failure modes (Section 7.1, Figure 12).

A switch can fail open or fail closed, but never both.  The benchmark checks
the inhibition-auxiliary semantics against closed forms and measures the
pipeline on the mutually-exclusive-switch system.
"""

import math

import pytest

from repro import Study
from repro.baselines import monolithic_unreliability
from repro.systems import inhibition_pair, mutually_exclusive_switch

from conftest import record, unreliability

MISSION_TIME = 1.0


@pytest.mark.benchmark(group="mutex")
def test_inhibition_pair(benchmark):
    """Figure 12: A inhibits B, the system fails when B fires.

    Closed form: P(B before A, B before t) for independent exponentials."""
    rate_a, rate_b = 1.0, 1.0
    tree = inhibition_pair(inhibitor_rate=rate_a, target_rate=rate_b)

    def run():
        return unreliability(Study(tree), MISSION_TIME)

    value = benchmark(run)
    combined = rate_a + rate_b
    closed_form = rate_b / combined * (1.0 - math.exp(-combined * MISSION_TIME))
    record(
        benchmark,
        experiment="E7 (Figure 12, inhibition auxiliary)",
        unreliability=value,
        closed_form=closed_form,
    )
    assert value == pytest.approx(closed_form, abs=1e-9)


@pytest.mark.benchmark(group="mutex")
def test_mutually_exclusive_switch(benchmark):
    """The fail-open / fail-closed switch: the two modes exclude each other."""
    tree = mutually_exclusive_switch(fail_open_rate=0.3, fail_closed_rate=0.7, pump_rate=1.0)

    def run():
        return unreliability(Study(tree), MISSION_TIME)

    value = benchmark(run)
    reference = monolithic_unreliability(tree, MISSION_TIME)

    # Without mutual exclusion the double-failure mode SO&SC would be counted
    # as well, so the naive (independent) model must be more unreliable.
    from repro.dft import FaultTreeBuilder

    builder = FaultTreeBuilder("independent-modes")
    builder.basic_event("SO", 0.3)
    builder.basic_event("SC", 0.7)
    builder.basic_event("Pump", 1.0)
    builder.and_gate("OpenAndPump", ["SO", "Pump"])
    builder.or_gate("system", ["SC", "OpenAndPump"])
    independent = unreliability(Study(builder.build("system")), MISSION_TIME)

    record(
        benchmark,
        experiment="E7 (mutually exclusive switch modes)",
        unreliability=value,
        monolithic_reference=reference,
        without_mutual_exclusion=independent,
    )
    assert value == pytest.approx(reference, abs=1e-7)
    assert value < independent

"""E8 — repairable elements and unavailability (Section 7.2, Figures 13-15).

The repairable AND over two repairable basic events composes and aggregates to
the small birth-death CTMC of Figure 15b; its steady-state unavailability has
the closed form ``(lambda / (lambda + mu))^2``.  A larger repairable plant
exercises the repairable OR/AND behaviours together.
"""

import pytest

from repro import Study, Unavailability
from repro.ctmc import ctmc_from_ioimc
from repro.systems import repairable_and_system, repairable_plant, repairable_voting_system

from conftest import record

FAILURE_RATE = 1.0
REPAIR_RATE = 2.0


@pytest.mark.benchmark(group="repair")
def test_repairable_and_unavailability(benchmark):
    tree = repairable_and_system(failure_rate=FAILURE_RATE, repair_rate=REPAIR_RATE)

    def run():
        study = Study(tree)
        return study.evaluate(Unavailability())["unavailability"].value, study.final_ioimc

    value, final = benchmark(run)
    closed_form = (FAILURE_RATE / (FAILURE_RATE + REPAIR_RATE)) ** 2
    ctmc = ctmc_from_ioimc(final)
    record(
        benchmark,
        experiment="E8 (Figure 15, repairable AND)",
        steady_state_unavailability=value,
        closed_form=closed_form,
        final_ctmc_states=ctmc.num_states,
        paper_claim="composition yields the small CTMC of Figure 15b",
    )
    assert value == pytest.approx(closed_form, abs=1e-9)
    assert ctmc.num_states <= 5


@pytest.mark.benchmark(group="repair")
def test_repairable_voting_unavailability(benchmark):
    tree = repairable_voting_system(num_components=3, threshold=2,
                                    failure_rate=1.0, repair_rate=5.0)

    def run():
        return Study(tree).evaluate(Unavailability())["unavailability"].value

    value = benchmark(run)
    # Closed form for 2-out-of-3 identical independent repairable components.
    unavailability = 1.0 / 6.0  # lambda / (lambda + mu) with mu = 5
    closed_form = (
        3 * unavailability**2 * (1 - unavailability) + unavailability**3
    )
    record(
        benchmark,
        experiment="E8 (repairable 2-out-of-3)",
        steady_state_unavailability=value,
        closed_form=closed_form,
    )
    assert value == pytest.approx(closed_form, abs=1e-9)


@pytest.mark.benchmark(group="repair")
def test_repairable_plant_transient_unavailability(benchmark):
    tree = repairable_plant()

    def run():
        result = Study(tree).evaluate(Unavailability(2.0) + Unavailability())
        transient, steady = result.measures
        return transient.value, steady.value

    transient, steady = benchmark(run)
    record(
        benchmark,
        experiment="E8 (repairable plant)",
        transient_unavailability_t2=transient,
        steady_state_unavailability=steady,
    )
    assert 0.0 < transient <= steady + 1e-9

"""Concrete CTMC measures run on the transient kernel.

Every curve, point value, distribution and reachability probability of a
:class:`~repro.ctmc.ctmc.CTMC` steps :class:`~repro.ctmc.kernel.TransientKernel`
— the series every ``Study`` and sweep runs.  These tests pin it against the
per-state reference series of ``tests/series_reference.py`` to 1e-12 on the
paper's systems, a larger cascaded-PAND product, a repairable tree, a chain
past the dense/sparse crossover and random chains, and pin that a chain
keeps one kernel until a mutator changes it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ctmc.kernel as kernel_module
from repro.core import Study, signals
from repro.ctmc import CTMC, probability_reach_label
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_family,
    cascaded_pand_system,
    repairable_and_system,
)

from tests import series_reference as oracle
from tests.property.test_property_ctmc import random_ctmc

TIMES = [0.0, 0.1, 0.5, 1.0, 2.5, 4.0, 1.0]
LABEL = signals.FAILED_LABEL
TOLERANCE = 1e-12


def birth_death_chain(num_states: int) -> CTMC:
    """A chain past the kernel's dense limit, so it steps the sparse path."""
    chain = CTMC(num_states, initial=0)
    for state in range(num_states - 1):
        chain.add_rate(state, state + 1, 2.0 + 0.01 * state)
        chain.add_rate(state + 1, state, 0.5)
    chain.set_labels(num_states - 1, [LABEL])
    return chain


CHAINS = {
    "cas": lambda: Study(cardiac_assist_system()).markov_model,
    "cps": lambda: Study(cascaded_pand_system()).markov_model,
    "cascaded-4x5": lambda: Study(cascaded_pand_family(4, 5)).markov_model,
    "repairable": lambda: Study(repairable_and_system()).markov_model,
    "sparse-300": lambda: birth_death_chain(kernel_module.DENSE_STATE_LIMIT + 44),
}


@pytest.fixture(scope="module", params=sorted(CHAINS))
def chain(request) -> CTMC:
    model = CHAINS[request.param]()
    assert isinstance(model, CTMC)
    return model


def spread_distribution(chain: CTMC) -> np.ndarray:
    """A non-point initial distribution over every state."""
    weights = np.arange(1.0, chain.num_states + 1.0)
    return weights / weights.sum()


def assert_matches_oracle(chain: CTMC) -> None:
    curve = chain.probability_of_label_curve(LABEL, TIMES)
    expected = oracle.probability_of_label_curve(chain, LABEL, TIMES)
    assert np.max(np.abs(curve - expected)) <= TOLERANCE
    for time in TIMES:
        point = chain.probability_of_label(LABEL, time)
        assert abs(point - oracle.probability_of_label(chain, LABEL, time)) <= TOLERANCE
    rows = chain.transient_distributions(TIMES)
    assert np.max(np.abs(rows - oracle.transient_distributions(chain, TIMES))) <= TOLERANCE


class TestKernelMatchesOracle:
    def test_curves_points_and_distributions(self, chain):
        assert_matches_oracle(chain)

    def test_reach_probability(self, chain):
        for time in (0.3, 1.0, 3.0):
            assert abs(
                probability_reach_label(chain, LABEL, time)
                - oracle.probability_reach_label(chain, LABEL, time)
            ) <= TOLERANCE

    def test_non_point_initial_distribution(self, chain):
        start = spread_distribution(chain)
        rows = chain.transient_distributions(TIMES, initial_distribution=start)
        expected = oracle.transient_distributions(chain, TIMES, initial_distribution=start)
        assert np.max(np.abs(rows - expected)) <= TOLERANCE
        single = chain.transient_distribution(1.0, initial_distribution=start)
        assert np.max(np.abs(single - expected[3])) <= TOLERANCE

    @settings(max_examples=40, deadline=None)
    @given(chain=random_ctmc(), times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4))
    def test_random_chains(self, chain, times):
        curve = chain.probability_of_label_curve(LABEL, times)
        expected = oracle.probability_of_label_curve(chain, LABEL, times)
        assert np.max(np.abs(curve - expected)) <= TOLERANCE
        start = spread_distribution(chain)
        rows = chain.transient_distributions(times, initial_distribution=start)
        expected = oracle.transient_distributions(chain, times, initial_distribution=start)
        assert np.max(np.abs(rows - expected)) <= TOLERANCE
        assert abs(
            probability_reach_label(chain, LABEL, times[0])
            - oracle.probability_reach_label(chain, LABEL, times[0])
        ) <= TOLERANCE


class TestKernelReuse:
    @pytest.fixture
    def buffer_builds(self, monkeypatch):
        built = []
        original = kernel_module.CsrBuffer.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(kernel_module.CsrBuffer, "__init__", counting)
        return built

    def test_unchanged_chain_builds_one_buffer(self, buffer_builds):
        chain = Study(cardiac_assist_system()).markov_model
        first = chain.probability_of_label_curve(LABEL, TIMES)
        second = chain.probability_of_label_curve(LABEL, TIMES)
        chain.transient_distributions(TIMES)
        chain.probability_of_label(LABEL, 1.0)
        assert len(buffer_builds) == 1
        assert np.array_equal(first, second)

    def test_add_rate_forces_a_rebuild(self, buffer_builds):
        chain = CTMC(3, initial=0)
        chain.add_rate(0, 1, 1.0)
        chain.set_labels(1, [LABEL])
        before = chain.probability_of_label_curve(LABEL, [1.0])
        chain.add_rate(0, 2, 3.0)
        after = chain.probability_of_label_curve(LABEL, [1.0])
        assert len(buffer_builds) == 2
        assert before[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
        assert after[0] == pytest.approx(0.25 * (1.0 - np.exp(-4.0)), abs=1e-12)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda chain: chain.set_labels(0, [LABEL]),
            lambda chain: chain.set_initial(2),
        ],
        ids=["labels", "initial"],
    )
    def test_other_mutators_force_a_rebuild(self, buffer_builds, mutate):
        chain = CTMC(3, initial=0)
        chain.add_rate(0, 1, 1.0)
        chain.add_rate(2, 1, 5.0)
        chain.set_labels(1, [LABEL])
        before = chain.probability_of_label_curve(LABEL, [1.0])
        mutate(chain)
        after = chain.probability_of_label_curve(LABEL, [1.0])
        assert len(buffer_builds) == 2
        expected = oracle.probability_of_label_curve(chain, LABEL, [1.0])
        assert np.max(np.abs(after - expected)) <= TOLERANCE
        assert not np.array_equal(before, after)

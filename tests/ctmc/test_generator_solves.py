"""The transient kernel's MTTF and steady-state solves against the dense oracle.

Every MTTF and steady-state unavailability the library reports is solved by
:class:`~repro.ctmc.kernel.TransientKernel` on a loaded block's evaluated
rates: densely up to ``DENSE_STATE_LIMIT`` unknowns and by a sparse LU
factorisation above it.  These cells compare both sides of that crossover
(``DENSE_STATE_LIMIT`` patched to 0 forces the sparse one) with the
hand-assembled dense solves of ``tests/series_reference.py`` on CAS, the
repairable systems and Hypothesis-drawn chains, and pin that the memory of
an MTTF grows with the transitions, not with the square of the states.
"""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given

import repro.ctmc.kernel as kernel_module
from repro.core.measures import MTTF, Unavailability
from repro.core.study import CompiledModel, Study
from repro.core.sweep import with_rate_parameters
from repro.ctmc import CTMC
from repro.errors import AnalysisError
from repro.systems import (
    cardiac_assist_system,
    repairable_and_system,
    repairable_plant,
    repairable_voting_system,
)

from tests.property.test_property_ctmc import random_ctmc
from tests.series_reference import (
    mean_time_to_label_dense,
    steady_state_distribution_dense,
    steady_state_probability_of_label_dense,
)

FAILED = "failed"

#: ``DENSE_STATE_LIMIT`` as shipped (dense solves) and 0 (every solve sparse).
CROSSOVER = pytest.mark.parametrize(
    "dense_limit", [kernel_module.DENSE_STATE_LIMIT, 0], ids=["dense", "sparse"]
)

SYSTEMS = pytest.mark.parametrize(
    "tree",
    [
        cardiac_assist_system(),
        with_rate_parameters(cardiac_assist_system()),
        repairable_and_system(),
        repairable_voting_system(),
        repairable_plant(),
    ],
    ids=["cas", "cas-per-event", "repairable-and", "repairable-voting", "repairable-plant"],
)


def _outcome(solve):
    """``solve()``'s value, or the message of the AnalysisError it raised."""
    try:
        return solve()
    except AnalysisError as error:
        return str(error)


def _reading(measure):
    """A measure result's one value, or its error message."""
    return measure.values[0] if measure.ok else measure.error


def assert_agree(ours, expected, abs=0.0):
    """Both failed with one message, or the values agree to 1e-12 relative."""
    if isinstance(expected, str) or isinstance(ours, str):
        assert ours == expected
    else:
        assert ours == pytest.approx(expected, rel=1e-12, abs=abs)


@CROSSOVER
@SYSTEMS
def test_compiled_model_matches_the_dense_oracle(tree, dense_limit, monkeypatch):
    monkeypatch.setattr(kernel_module, "DENSE_STATE_LIMIT", dense_limit)
    skeleton = Study(tree).skeleton
    mttf, unavailability = CompiledModel(skeleton).evaluate(
        MTTF() + Unavailability(), on_error="record"
    ).measures
    chain = skeleton.instantiate()
    assert_agree(_reading(mttf), _outcome(lambda: mean_time_to_label_dense(chain, FAILED)))
    assert_agree(
        _reading(unavailability),
        _outcome(lambda: steady_state_probability_of_label_dense(chain, FAILED)),
    )


@CROSSOVER
def test_each_sample_of_a_batch_reads_its_own_block(dense_limit, monkeypatch):
    """A batch whose second sample fails to load: every later sample's MTTF
    and unavailability still come from its own rates."""
    monkeypatch.setattr(kernel_module, "DENSE_STATE_LIMIT", dense_limit)
    tree = with_rate_parameters(repairable_plant())
    skeleton = Study(tree).skeleton
    names = sorted(tree.parameters)
    assignments = [
        {name: (0.1 + 0.05 * index) * (1 + sample) for index, name in enumerate(names)}
        for sample in range(5)
    ]
    assignments[1] = {names[0]: -1.0}
    evaluations = CompiledModel(skeleton).evaluate_many(
        MTTF() + Unavailability(), assignments
    )
    assert evaluations[1].error is not None
    for assignment, evaluation in zip(assignments, evaluations):
        if evaluation.error is not None:
            continue
        chain = skeleton.instantiate(assignment)
        mttf, unavailability = evaluation.measures
        assert_agree(_reading(mttf), mean_time_to_label_dense(chain, FAILED))
        assert_agree(
            _reading(unavailability), steady_state_probability_of_label_dense(chain, FAILED)
        )


@CROSSOVER
@given(chain=random_ctmc(max_states=8))
def test_random_chains_match_the_dense_oracle(chain, dense_limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "DENSE_STATE_LIMIT", dense_limit)
        assert_agree(
            _outcome(lambda: chain.mean_time_to_label(FAILED)),
            _outcome(lambda: mean_time_to_label_dense(chain, FAILED)),
        )
        assert_agree(
            _outcome(chain.steady_state_distribution),
            _outcome(lambda: steady_state_distribution_dense(chain)),
            abs=1e-15,
        )


class TestErrors:
    def test_unknown_label(self):
        chain = CTMC(2)
        chain.add_rate(0, 1, 1.0)
        with pytest.raises(AnalysisError, match="no state carries label 'failed'"):
            chain.mean_time_to_label(FAILED)

    def test_unreachable_label_is_an_infinite_mttf(self):
        chain = CTMC(3)
        chain.add_rate(0, 1, 1.0)
        chain.set_labels(2, [FAILED])
        for _attempt in range(2):  # the cached verdict raises again
            with pytest.raises(AnalysisError, match="mean time to failure is infinite"):
                chain.mean_time_to_label(FAILED)

    def test_states_after_the_label_do_not_matter(self):
        """Only the states reached before a failed state enter the MTTF: an
        absorbing state behind the failed one leaves it finite."""
        chain = CTMC(3)
        chain.add_rate(0, 1, 2.0)
        chain.add_rate(1, 2, 1.0)
        chain.set_labels(1, [FAILED])
        assert chain.mean_time_to_label(FAILED) == pytest.approx(0.5, rel=1e-15)

    def test_several_reachable_bottom_components(self):
        chain = CTMC(3)
        chain.add_rate(0, 1, 1.0)
        chain.add_rate(0, 2, 1.0)
        with pytest.raises(AnalysisError, match="several reachable terminal components"):
            chain.steady_state_distribution()

    def test_errors_are_per_measure(self):
        """An infinite MTTF fails its measure only."""
        skeleton = Study(repairable_and_system()).skeleton
        # Drop every edge into a failed state: the label is never reached.
        unreached = dataclasses.replace(
            skeleton,
            edges=tuple(
                edge for edge in skeleton.edges if FAILED not in skeleton.labels[edge[1]]
            ),
        )
        mttf, unavailability = CompiledModel(unreached).evaluate(
            MTTF() + Unavailability(), on_error="record"
        ).measures
        assert not mttf.ok and "infinite" in mttf.error
        assert unavailability.ok and unavailability.values == (0.0,)


def _birth_death(num_states: int, failure: float, repair: float) -> CTMC:
    chain = CTMC(num_states)
    for state in range(num_states - 1):
        chain.add_rate(state, state + 1, failure)
        if state:
            chain.add_rate(state, state - 1, repair)
    chain.set_labels(num_states - 1, [FAILED])
    return chain


def test_mttf_memory_grows_with_the_transitions():
    """A 4,000-state chain: a dense generator alone would take 128 MB."""
    failure, repair, num_states = 2.0, 1.0, 4000
    chain = _birth_death(num_states, failure, repair)
    tracemalloc.start()
    try:
        mttf = chain.mean_time_to_label(FAILED)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # Closed form: the time to climb from i to i + 1 is h_i = (1 + mu h_{i-1}) / lambda.
    climb, expected = 0.0, 0.0
    for _state in range(num_states - 1):
        climb = (1.0 + repair * climb) / failure
        expected += climb
    assert mttf == pytest.approx(expected, rel=1e-9)

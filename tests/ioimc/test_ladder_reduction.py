"""One aggregation pass reaches the fixpoint on the cold-ladder trees.

The twelve trees are those of the repository benchmark's ``cold_ladder``
workload at seed 1 (``perfbench/inputs.py``): CAS, CPS, the cascaded PAND
4x5, the four-channel race bank and eight random trees (``fdep`` and
shared-spare patterns) with seeded rate jitter.  One cache-less Study per
tree records every ``aggregate()`` call (the products that missed the
run's quotient memo) and every weak minimiser call inside it; the cells
below then check

* that weak minimisation is idempotent on every recorded input (this
  failed before the input own-block rule, e.g. 9 -> 8 -> 7 states on an
  ``fdep`` product and 115 -> 79 -> 27 on a larger one);
* that every ``aggregate()`` output is its own fixpoint and equals the
  round-loop reference of ``tests/reduction_reference.py``;
* that the default refinement finds the signature engine's partition and
  builds the reference quotient, dot for dot, on every input at seeds 1-3;
* that the signature engine, perfbench's oracle, never runs the default
  refinement.
"""

import random
from dataclasses import replace
from typing import List, NamedTuple, Tuple

import pytest

from repro import Study
from repro.core import aggregation as core_aggregation
from repro.dft.elements import BasicEvent
from repro.dft.tree import DynamicFaultTree
from repro.ioimc import IOIMC, aggregate, bisimulation, minimize_weak, reduction
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_family,
    cascaded_pand_system,
    pand_race_bank,
    random_dft,
)
from tests.ioimc.test_weak_refinement import assert_matches_reference
from tests.reduction_reference import aggregate_to_fixpoint, canonical_form

#: ``perfbench/inputs.py``: the rate stream of a seed and its jitter range.
LADDER_RATE_STREAM = "perfbench:cold_ladder:rates:{seed}"
JITTER = (0.8, 1.25)


def _jittered(tree: DynamicFaultTree, rng: random.Random) -> DynamicFaultTree:
    copy = DynamicFaultTree(tree.name)
    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            element = replace(
                element, failure_rate=element.failure_rate * rng.uniform(*JITTER)
            )
        copy.add(element)
    copy.set_top(tree.top)
    return copy


def ladder_trees(seed: int = 1) -> List[DynamicFaultTree]:
    rng = random.Random(LADDER_RATE_STREAM.format(seed=seed))
    patterns = ({"fdep": True}, {"shared_spares": True})
    randoms = [
        _jittered(random_dft(8, seed=index, **patterns[index % 2]), rng)
        for index in range(8)
    ]
    return [
        cardiac_assist_system(),
        cascaded_pand_system(),
        cascaded_pand_family(4, 5),
        pand_race_bank(4),
        *randoms,
    ]


class LadderRecord(NamedTuple):
    #: ``(input, output)`` of every aggregate() call.
    aggregates: List[Tuple[IOIMC, IOIMC]]
    #: Input of every weak minimiser call made by aggregate().
    minimiser_inputs: List[IOIMC]
    #: Composition steps of every Study.
    steps: List[int]


def record_ladder(seed: int = 1) -> LadderRecord:
    """One cache-less Study per tree of the ladder at ``seed``, recorded."""
    record = LadderRecord([], [], [])

    def recording_aggregate(model, options=None):
        reduced, stats = reduction.aggregate(model, options)
        record.aggregates.append((model, reduced))
        return reduced, stats

    def recording_minimiser(model, **kwargs):
        record.minimiser_inputs.append(model)
        return minimize_weak(model, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "aggregate", recording_aggregate)
        patch.setattr(reduction, "minimize_weak", recording_minimiser)
        for tree in ladder_trees(seed):
            record.steps.append(len(Study(tree).statistics.steps))
    return record


@pytest.fixture(scope="module")
def ladder() -> LadderRecord:
    return record_ladder()


def test_ladder_records_one_minimiser_call_per_aggregate(ladder):
    # Only composition steps aggregate (the elements enter as built), and
    # a product that repeats an earlier one of its run reuses its quotient:
    # about 185 of the 206 steps call aggregate().
    steps = sum(ladder.steps)
    assert steps > 200
    assert steps // 2 < len(ladder.aggregates) < steps
    # The trailing compression re-minimises only a handful of the calls
    # that missed the memo.
    extra = len(ladder.minimiser_inputs) - len(ladder.aggregates)
    assert 0 <= extra <= len(ladder.aggregates) // 100


@pytest.mark.parametrize("algorithm", bisimulation.ALGORITHMS)
def test_weak_minimisation_is_idempotent(ladder, algorithm):
    for model in ladder.minimiser_inputs:
        once = minimize_weak(model, algorithm=algorithm)
        twice = minimize_weak(once, algorithm=algorithm)
        assert canonical_form(twice) == canonical_form(once), model.name


def test_every_aggregate_output_is_a_fixpoint(ladder):
    for model, reduced in ladder.aggregates:
        again, _ = aggregate(reduced)
        assert canonical_form(again) == canonical_form(reduced), model.name
        reference, _rounds = aggregate_to_fixpoint(model)
        assert canonical_form(reduced) == canonical_form(reference), model.name


def test_the_refinement_builds_the_reference_quotient(ladder):
    for model in ladder.minimiser_inputs:
        assert_matches_reference(model)


@pytest.mark.parametrize("seed", [2, 3])
def test_the_refinement_on_the_other_seeds(seed):
    # The seeds draw other rates for the same structures, so other rate
    # classes may split the same products.
    for model in record_ladder(seed).minimiser_inputs:
        assert_matches_reference(model)


def test_the_signature_oracle_shares_nothing_with_the_refinement(ladder, monkeypatch):
    expected = [minimize_weak(model).to_dot() for model in ladder.minimiser_inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("the signature engine ran the default refinement")

    # The quotient of a signature partition is built from the plain sets,
    # but neither the pre-pass nor the refinement loop runs.
    for name in ("_weak_prepass", "_plain_partition", "_weak_partition_plain"):
        monkeypatch.setattr(bisimulation, name, refuse)
    actual = [
        minimize_weak(model, algorithm="signature").to_dot()
        for model in ladder.minimiser_inputs
    ]
    assert actual == expected

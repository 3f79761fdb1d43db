"""One aggregation pass reaches the fixpoint on the cold-ladder trees.

The twelve trees are those of the repository benchmark's ``cold_ladder``
workload at seed 1 (``perfbench/inputs.py``): CAS, CPS, the cascaded PAND
4x5, the four-channel race bank and eight random trees (``fdep`` and
shared-spare patterns) with seeded rate jitter.  One cache-less Study per
tree records every ``aggregate()`` call and every weak minimiser call
inside it; the cells below then check

* that weak minimisation is idempotent on every recorded input (this
  failed before the input own-block rule, e.g. 9 -> 8 -> 7 states on an
  ``fdep`` product and 115 -> 79 -> 27 on a larger one);
* that every ``aggregate()`` output is its own fixpoint and equals the
  round-loop reference of ``tests/reduction_reference.py``;
* that the splitter engine, forced in as the closure engine's fallback,
  builds the same quotients as the closure engine.
"""

import logging
import random
from dataclasses import replace
from typing import List, NamedTuple, Tuple

import pytest

from repro import Study
from repro.core import aggregation as core_aggregation
from repro.core import conversion
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
from tests.reduction_reference import aggregate_to_fixpoint, canonical_form

#: ``perfbench/inputs.py``: the seed-1 rate stream and its jitter range.
LADDER_RATE_STREAM = "perfbench:cold_ladder:rates:1"
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


def ladder_trees() -> List[DynamicFaultTree]:
    rng = random.Random(LADDER_RATE_STREAM)
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


@pytest.fixture(scope="module")
def ladder() -> LadderRecord:
    record = LadderRecord([], [])

    def recording_aggregate(model, options=None):
        reduced, stats = reduction.aggregate(model, options)
        record.aggregates.append((model, reduced))
        return reduced, stats

    def recording_minimiser(model, **kwargs):
        record.minimiser_inputs.append(model)
        return minimize_weak(model, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "aggregate", recording_aggregate)
        patch.setattr(conversion, "aggregate", recording_aggregate)
        patch.setattr(reduction, "minimize_weak", recording_minimiser)
        for tree in ladder_trees():
            Study(tree).final_ioimc
    return record


def test_ladder_records_one_minimiser_call_per_aggregate(ladder):
    # The trailing compression re-minimises only a handful of calls.
    assert len(ladder.aggregates) > 400
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


def test_splitter_fallback_matches_closure(ladder, monkeypatch, caplog):
    models = [
        model
        for model in ladder.minimiser_inputs
        if not bisimulation._has_no_internal_transitions(model)
    ]
    expected = [minimize_weak(model, algorithm="closure").to_dot() for model in models]
    # A zero saturation budget overflows on every model with an SCC.
    monkeypatch.setattr(bisimulation, "SATURATION_FLOOR", 0)
    monkeypatch.setattr(bisimulation, "SATURATION_FACTOR", 0)
    with caplog.at_level(logging.INFO, logger="repro.ioimc.bisimulation"):
        actual = [minimize_weak(model, algorithm="closure").to_dot() for model in models]
    fallbacks = [r for r in caplog.records if "falling back" in r.getMessage()]
    assert len(fallbacks) == len(models) > 100
    assert actual == expected

"""Tests for canonical rate keys, the reference engines' refinable
partition, and weak refinement memory on tau-chains."""

import tracemalloc

from repro.ioimc import IOIMC, signature
from repro.ioimc.bisimulation import weak_bisimulation_partition
from repro.ioimc.partition import canonical_rate
from tests.partition_reference import RefinablePartition, refine


class TestRefinablePartition:
    def test_initially_one_block(self):
        part = RefinablePartition(5)
        assert part.num_blocks == 1
        assert part.num_elements == 5
        assert sorted(part.members(0)) == [0, 1, 2, 3, 4]
        assert all(part.block_of(element) == 0 for element in range(5))

    def test_empty_partition(self):
        part = RefinablePartition(0)
        assert part.num_blocks == 0
        assert part.as_sets() == []

    def test_mark_and_split(self):
        part = RefinablePartition(6)
        for element in (1, 3, 5):
            part.mark(element)
        pairs = part.split_marked()
        assert len(pairs) == 1
        marked, rest = pairs[0]
        assert rest == 0  # the original id keeps the unmarked remainder
        assert sorted(part.members(marked)) == [1, 3, 5]
        assert sorted(part.members(rest)) == [0, 2, 4]
        assert part.num_blocks == 2

    def test_mark_is_idempotent(self):
        part = RefinablePartition(4)
        part.mark(2)
        part.mark(2)
        (marked, _rest), = part.split_marked()
        assert sorted(part.members(marked)) == [2]

    def test_fully_marked_block_not_split(self):
        part = RefinablePartition(3)
        for element in range(3):
            part.mark(element)
        assert part.split_marked() == [(0, -1)]
        assert part.num_blocks == 1

    def test_split_marked_touches_multiple_blocks(self):
        part = RefinablePartition(6)
        part.split_by_key(0, lambda element: element % 2)
        part.mark(0)
        part.mark(1)
        pairs = part.split_marked()
        assert len(pairs) == 2
        assert part.num_blocks == 4

    def test_split_by_key_multiway(self):
        part = RefinablePartition(6)
        created = part.split_by_key(0, lambda element: element % 3)
        assert len(created) == 2
        assert part.num_blocks == 3
        groups = {frozenset(part.members(block)) for block in part.blocks()}
        assert groups == {frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})}

    def test_split_by_key_no_change(self):
        part = RefinablePartition(4)
        assert part.split_by_key(0, lambda _element: "same") == []
        assert part.num_blocks == 1

    def test_block_of_tracks_splits(self):
        part = RefinablePartition(4)
        part.mark(0)
        part.mark(1)
        (marked, rest), = part.split_marked()
        assert {part.block_of(0), part.block_of(1)} == {marked}
        assert {part.block_of(2), part.block_of(3)} == {rest}

    def test_as_sets_ordered_by_min_member(self):
        part = RefinablePartition(4)
        part.mark(3)
        part.split_marked()
        assert part.as_sets() == [frozenset({0, 1, 2}), frozenset({3})]


class TestRefineLoop:
    def test_worklist_deduplicates_and_terminates(self):
        processed = []

        def process(item, push):
            processed.append(item)
            if item == "a":
                push("b")
                push("b")  # pending duplicate must be dropped

        refine(["a", "a"], process)
        assert processed == ["a", "b"]


def tau_chain(length: int, label_last: bool = True) -> IOIMC:
    model = IOIMC("chain", signature(internals=["tau"]))
    for index in range(length):
        labels = ["failed"] if label_last and index == length - 1 else []
        model.add_state(labels=labels, initial=index == 0)
    for index in range(length - 1):
        model.add_interactive(index, "tau", index + 1)
    return model


class TestCanonicalRate:
    def test_zero_stays_zero(self):
        assert canonical_rate(0.0) == 0.0

    def test_significant_digits(self):
        assert canonical_rate(1.0 + 1e-13) == 1.0
        assert canonical_rate(1.0 + 1e-7) != 1.0
        assert canonical_rate(1.0 + 1e-3) != 1.0

    def test_scale_invariant(self):
        assert canonical_rate(1e6 + 1e-7) == 1e6
        assert canonical_rate(1e6 + 0.1) != 1e6
        assert canonical_rate(1.23456e-8 * (1 + 1e-13)) == canonical_rate(1.23456e-8)
        assert canonical_rate(1.23456e-8 * (1 + 1e-7)) != canonical_rate(1.23456e-8)


class TestTauChainMemory:
    def test_tau_chain_memory_linear(self):
        """Acceptance regression: weak minimisation of a 2k-state tau-chain
        must not materialise per-state closures (O(n^2) memory).

        The pre-pass forwards every unlabelled state into its successor, so
        the refinement sees two states; the per-state frozensets of the
        signature reference need hundreds of MB equivalents.
        """
        model = tau_chain(2000)
        tracemalloc.start()
        partition = weak_bisimulation_partition(model)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The chain collapses to (unlabelled states, labelled sink).
        assert len(partition) == 2
        # Per-state closures alone would exceed 100 MB on this model
        # (sum of suffix closures ~ 2e6 entries).
        assert peak < 16 * 1024 * 1024

    def test_chain_collapses_like_signature_engine(self):
        model = tau_chain(60)
        default = weak_bisimulation_partition(model)
        reference = weak_bisimulation_partition(model, algorithm="signature")
        assert default == reference

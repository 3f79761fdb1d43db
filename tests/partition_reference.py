"""Reference engines for the bisimulation minimisers of ``repro.ioimc``.

The library refines both relations with one plain signature refinement;
these engines share no code with it and serve as differential oracles
beside the library's seed signature engine (``algorithm="signature"``):

* :func:`strong_partition_splitter` — Paige-Tarjan smaller-half
  refinement of the strong relation on a refinable partition in the style
  of Valmari & Franceschinis (TACAS 2010), with
  ``own_inputs_invisible=True`` the weak relation of a model without
  internal moves.  It is O(m log n) on interactive moves, so it checks
  inputs far beyond the signature engine's reach.  Its per-block rate
  worklist is quadratic on long Markovian chains.
* :func:`reference_weak_quotient` — the weak quotient built from the
  signature engine's per-state closure and reach frozensets.

:func:`without_labels` erases every label of a model: refining it is
refining the original while ignoring labels, which the property tests draw
beside the labelled model.
"""

from __future__ import annotations

from array import array as _array
from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.ioimc import IOIMC
from repro.ioimc.actions import intern_action
from repro.ioimc.bisimulation import _internal_closure, _weak_visible_reach
from repro.ioimc.partition import canonical_rate


class RefinablePartition:
    """A partition of ``0 .. num_elements - 1`` supporting cheap splits.

    Blocks are numbered ``0 .. num_blocks - 1``; new blocks produced by a
    split receive fresh ids (ids are never reused and member sets only ever
    shrink, which the refinement algorithms rely on).
    """

    __slots__ = (
        "_elems",
        "_loc",
        "_block_of",
        "_elems_l",
        "_loc_l",
        "_block_l",
        "_start",
        "_end",
        "_marked",
        "_touched",
    )

    def __init__(self, num_elements: int):
        # Dual storage: ``array('q')`` backing plus zero-copy numpy views of
        # the same memory.  Scalar operations (single marks, small splits)
        # index the ``array`` — native Python ints, no numpy scalar boxing —
        # while bulk operations fancy-index the views; writes through either
        # side are immediately visible to the other.
        self._elems_l = _array("q", range(num_elements))
        self._loc_l = _array("q", range(num_elements))
        self._block_l = _array("q", bytes(8 * num_elements))
        if num_elements:
            self._elems: np.ndarray = np.frombuffer(self._elems_l, dtype=np.int64)
            self._loc: np.ndarray = np.frombuffer(self._loc_l, dtype=np.int64)
            self._block_of: np.ndarray = np.frombuffer(self._block_l, dtype=np.int64)
        else:
            self._elems = np.empty(0, dtype=np.int64)
            self._loc = np.empty(0, dtype=np.int64)
            self._block_of = np.empty(0, dtype=np.int64)
        self._start: List[int] = [0] if num_elements else []
        self._end: List[int] = [num_elements] if num_elements else []
        #: Per block: number of marked elements (they occupy the block prefix).
        self._marked: List[int] = [0] if num_elements else []
        #: Blocks currently holding at least one marked element.
        self._touched: List[int] = []

    # ---------------------------------------------------------------- queries
    @property
    def num_elements(self) -> int:
        return len(self._elems)

    @property
    def num_blocks(self) -> int:
        return len(self._start)

    def blocks(self) -> range:
        return range(len(self._start))

    def block_of(self, element: int) -> int:
        return self._block_l[element]

    def size(self, block: int) -> int:
        return self._end[block] - self._start[block]

    def members(self, block: int) -> List[int]:
        """The elements of ``block`` (a snapshot copy, safe across splits)."""
        return self._elems_l[self._start[block] : self._end[block]].tolist()

    def member_array(self, block: int) -> np.ndarray:
        """The elements of ``block`` as a fresh ``int64`` array snapshot."""
        return self._elems[self._start[block] : self._end[block]].copy()

    def as_sets(self) -> List[FrozenSet[int]]:
        """The partition as frozensets, ordered by smallest member."""
        return sorted(
            (frozenset(self.members(block)) for block in self.blocks()),
            key=min,
        )

    # ----------------------------------------------------------------- splits
    def mark(self, element: int) -> None:
        """Move ``element`` into the marked prefix of its block (idempotent)."""
        block = self._block_l[element]
        position = self._loc_l[element]
        boundary = self._start[block] + self._marked[block]
        if position < boundary:
            return  # already marked
        if self._marked[block] == 0:
            self._touched.append(block)
        elems = self._elems_l
        loc = self._loc_l
        other = elems[boundary]
        elems[boundary] = element
        elems[position] = other
        loc[element] = boundary
        loc[other] = position
        self._marked[block] += 1

    #: Batches/groups below this size take the scalar swap path: the numpy
    #: gather/scatter only amortises its fixed call overhead on larger moves.
    _VECTOR_THRESHOLD = 32

    def mark_all(self, elements, assume_unique: bool = False) -> None:
        """Mark a whole batch of elements (duplicates allowed) vectorised.

        Equivalent to calling :meth:`mark` per element, but the group of
        marks landing in one block is applied with numpy fancy indexing: the
        group members are placed into the slots directly after the block's
        current marked prefix and the displaced unmarked elements take the
        group members' old positions — one gather/scatter per touched block
        instead of one Python swap per element.  Small batches (and small
        per-block groups of a large batch) fall back to the scalar swap,
        which beats numpy's per-call overhead there; pass
        ``assume_unique=True`` to skip the deduplication sort when the batch
        is known duplicate-free.
        """
        if isinstance(elements, list):
            # Scalar marking is idempotent, so a small list needs neither
            # the array conversion nor the dedup sort.
            if len(elements) < self._VECTOR_THRESHOLD:
                mark = self.mark
                for element in elements:
                    mark(element)
                return
            batch = np.asarray(elements, dtype=np.int64)
        else:
            batch = np.asarray(elements, dtype=np.int64)
        if batch.size == 0:
            return
        if not assume_unique:
            batch = np.unique(batch)
        if batch.size < self._VECTOR_THRESHOLD:
            for element in batch.tolist():
                self.mark(element)
            return
        blocks = self._block_of[batch]
        order = np.argsort(blocks, kind="stable")
        batch = batch[order]
        blocks = blocks[order]
        bounds = [0, *(np.flatnonzero(blocks[1:] != blocks[:-1]) + 1).tolist(), batch.size]
        for index in range(len(bounds) - 1):
            begin, finish = bounds[index], bounds[index + 1]
            if finish - begin < self._VECTOR_THRESHOLD:
                for element in batch[begin:finish].tolist():
                    self.mark(element)
            else:
                self._mark_group(int(blocks[begin]), batch[begin:finish])

    def _mark_group(self, block: int, group: np.ndarray) -> None:
        """Mark a unique ``group`` of elements all living in ``block``."""
        start = self._start[block]
        already = self._marked[block]
        boundary = start + already
        positions = self._loc[group]
        # Drop group members that are already marked (inside the prefix).
        unmarked = positions >= boundary
        group = group[unmarked]
        positions = positions[unmarked]
        count = int(group.size)
        if count == 0:
            return
        if already == 0:
            self._touched.append(block)
        # Group members already inside the destination zone stay; the zone
        # slots they do not occupy receive the movers from further out.
        in_zone = positions < boundary + count
        movers = group[~in_zone]
        old_positions = positions[~in_zone]
        occupied = np.zeros(count, dtype=bool)
        occupied[positions[in_zone] - boundary] = True
        vacated = np.flatnonzero(~occupied) + boundary
        displaced = self._elems[vacated]
        self._elems[vacated] = movers
        self._elems[old_positions] = displaced
        self._loc[movers] = vacated
        self._loc[displaced] = old_positions
        self._marked[block] = already + count

    def split_marked(self) -> List[Tuple[int, int]]:
        """Split every touched block into its marked and unmarked part.

        Returns one ``(marked_block, unmarked_block)`` pair per touched
        block.  The marked part receives a fresh block id and the original
        id keeps the unmarked remainder; a fully marked block is left whole
        and reported as ``(block, -1)``.  All marks are cleared.
        """
        result: List[Tuple[int, int]] = []
        for block in self._touched:
            marked = self._marked[block]
            self._marked[block] = 0
            start = self._start[block]
            if marked == self._end[block] - start:
                result.append((block, -1))
                continue
            new_block = len(self._start)
            self._start.append(start)
            self._end.append(start + marked)
            self._marked.append(0)
            if marked < self._VECTOR_THRESHOLD:
                elems = self._elems_l
                block_map = self._block_l
                for position in range(start, start + marked):
                    block_map[elems[position]] = new_block
            else:
                self._block_of[self._elems[start : start + marked]] = new_block
            self._start[block] = start + marked
            result.append((new_block, block))
        self._touched.clear()
        return result

    def split_by_key(self, block: int, key_of: Callable[[int], Hashable]) -> List[int]:
        """Split ``block`` into its groups of equal ``key_of(element)``.

        The first group (in first-seen key order) keeps the block id; the
        remaining groups receive fresh ids, which are returned.  Used for the
        multi-way Markovian rate splits (Valmari-Franceschinis) and for the
        initial label partition.

        Keys are factorised into dense group codes (first-seen order), the
        slice is reordered with one stable ``np.argsort`` over the codes, and
        the group boundaries fall out of an ``np.bincount`` — the only
        per-element Python work left is the ``key_of`` call itself.  Small
        blocks take a scalar grouping path instead: below the vector
        threshold the numpy argsort/bincount machinery costs more than the
        handful of swaps it replaces.
        """
        start, end = self._start[block], self._end[block]
        if end - start <= 1:
            return []  # a singleton cannot split
        if end - start <= self._VECTOR_THRESHOLD:
            return self._split_by_key_scalar(block, start, end, key_of)
        members = self._elems[start:end].tolist()
        codes = [0] * len(members)
        code_of: Dict[Hashable, int] = {}
        for offset, element in enumerate(members):
            codes[offset] = code_of.setdefault(key_of(element), len(code_of))
        if len(code_of) <= 1:
            return []
        code_array = np.asarray(codes, dtype=np.int64)
        order = np.argsort(code_array, kind="stable")
        reordered = self._elems[start:end][order]  # fancy indexing: a copy
        self._elems[start:end] = reordered
        self._loc[reordered] = np.arange(start, end, dtype=np.int64)
        boundaries = start + np.cumsum(np.bincount(code_array))
        new_blocks: List[int] = []
        previous = start
        for index in range(len(code_of)):
            finish = int(boundaries[index])
            if index == 0:
                target = block
            else:
                target = len(self._start)
                self._start.append(previous)
                self._end.append(finish)
                self._marked.append(0)
                new_blocks.append(target)
                self._block_of[self._elems[previous:finish]] = target
            self._start[target] = previous
            self._end[target] = finish
            previous = finish
        return new_blocks

    def _split_by_key_scalar(
        self, block: int, start: int, end: int, key_of: Callable[[int], Hashable]
    ) -> List[int]:
        """Scalar grouping for small blocks — no numpy per-call overhead."""
        groups: Dict[Hashable, List[int]] = {}
        for element in self._elems_l[start:end]:
            key = key_of(element)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [element]
            else:
                bucket.append(element)
        if len(groups) <= 1:
            return []
        elems, loc, block_map = self._elems_l, self._loc_l, self._block_l
        new_blocks: List[int] = []
        position = start
        first = True
        for bucket in groups.values():
            begin = position
            for element in bucket:
                elems[position] = element
                loc[element] = position
                position += 1
            if first:
                first = False
                self._end[block] = position
            else:
                target = len(self._start)
                self._start.append(begin)
                self._end.append(position)
                self._marked.append(0)
                new_blocks.append(target)
                for element in bucket:
                    block_map[element] = target
        return new_blocks


def refine(
    splitters: Iterable[Hashable],
    process: Callable[[Hashable, Callable[[Hashable], None]], None],
) -> None:
    """Run a worklist-of-splitters refinement loop until stable.

    ``process(splitter, push)`` performs the marking and splitting for one
    pending splitter and must ``push`` every splitter its refinement policy
    still owes a processing round — :func:`strong_partition_splitter` runs
    the Paige-Tarjan compound discipline (only smaller sub-blocks are ever
    scanned) on top of this loop.  Pushes
    of items already pending are dropped, so re-enqueueing liberally is
    cheap.  The loop terminates because blocks only ever split: the number
    of distinct splitter versions is finite.
    """
    queue: deque = deque()
    pending: Set[Hashable] = set()

    def push(item: Hashable) -> None:
        if item not in pending:
            pending.add(item)
            queue.append(item)

    for item in splitters:
        push(item)
    while queue:
        item = queue.popleft()
        pending.discard(item)
        process(item, push)



def strong_partition_splitter(
    model: IOIMC, own_inputs_invisible: bool = False
) -> List[FrozenSet[int]]:
    """Paige-Tarjan three-way smaller-half refinement (on states).

    The interactive relation runs the textbook Paige-Tarjan discipline: past
    splitters are grouped into *compound* families (unions of current
    blocks), and processing a compound extracts one sub-block ``B`` of at
    most half the family's size, scans **only** ``B``'s in-edges, and splits
    every predecessor block three ways — into ``B`` only, into the remainder
    ``C - B`` only, or into both.  The third way is funded by per
    ``(compound, action, state)`` edge counts (implicit input self-loops
    count as edges): a state marked for ``B`` still has an edge into the
    remainder iff its count in ``C`` exceeds its count in ``B``, so the
    larger half's in-edges are never walked.  Every state's in-edges are
    scanned only when its block is the extracted half, whose size at least
    halves each time — the O(m log n) bound of Paige and Tarjan.

    Markovian rates keep the simpler per-block worklist (both halves of a
    split re-enter): the rate predicate is function-valued and a rate round
    costs only the splitter's Markovian in-edges, which profiling shows is
    a small fraction of the interactive work on composition intermediates.
    The fixpoint — every current block processed as a rate splitter in its
    final membership, the partition stable under every compound family —
    is exactly the signature engine's equivalence.

    With ``own_inputs_invisible`` (the weak relation of a model without
    internal moves) input moves into a state's own class are ignored, like
    its intra-class rates: input edges then leave the compound families and
    ride along with the rates in the per-block worklist, whose splitter
    never splits itself.  Implicit input self-loops always stay inside the
    own class, so input gaps drop out of that relation entirely.
    """
    num_states = model.num_states
    if num_states == 0:
        return []
    part = RefinablePartition(num_states)
    part.split_by_key(0, model.labels)

    # Reverse adjacencies: everything a splitter needs is reachable from its
    # member states' in-edges.
    interactive_pred: List[List[Tuple[int, int]]] = [[] for _ in range(num_states)]
    markovian_pred: List[List[Tuple[int, float]]] = [[] for _ in range(num_states)]
    #: Input in-edges ``(aid, source)`` of the own-class-blind relation.
    input_pred: List[List[Tuple[int, int]]] = [[] for _ in range(num_states)]
    input_ids = model.signature.input_ids
    input_gaps: List[Tuple[int, ...]] = [()] * num_states
    for state in range(num_states):
        for aid, target in model.interactive_pairs(state):
            if own_inputs_invisible and aid in input_ids:
                if target != state:
                    input_pred[target].append((aid, state))
            else:
                interactive_pred[target].append((aid, state))
        for target, rate in model.markovian_dict(state).items():
            markovian_pred[target].append((state, rate))
        if input_ids and not own_inputs_invisible:
            enabled = model.enabled_ids(state)
            input_gaps[state] = tuple(aid for aid in input_ids if aid not in enabled)

    # Stability w.r.t. the universe family: states must agree on which
    # actions they can take at all.  Every state weakly has every *input*
    # action (explicitly or as an implicit self-loop), so only the enabled
    # non-input actions distinguish at this level.
    def universe_key(state: int) -> FrozenSet[int]:
        return frozenset(aid for aid in model.enabled_ids(state) if aid not in input_ids)

    for block in list(part.blocks()):
        part.split_by_key(block, universe_key)

    # Rate splitters only matter for blocks containing *targets* of Markovian
    # transitions.  Tracking that count per block (updated on every split in
    # O(moved), funded by the same edge scans that funded the split) lets
    # `register_split` skip the rate worklist entirely for rate-free blocks —
    # without it a purely interactive chain re-enqueues its O(n) remainder
    # block as a rate splitter after each of its O(n) splits and
    # `process_rates` snapshots the whole block every time, the measured
    # quadratic term on singleton-quotient chains.
    has_mpred = np.fromiter(
        (
            bool(markovian_pred[state] or input_pred[state])
            for state in range(num_states)
        ),
        dtype=bool,
        count=num_states,
    )
    m_count: Dict[int, int] = {}
    for block in part.blocks():
        m_count[block] = int(np.count_nonzero(has_mpred[part.member_array(block)]))

    # counts[(compound, action)][state] = number of `action`-edges from
    # `state` into the compound family (implicit input self-loops included).
    # Keyed by compound, not block: Q-splits inside a family leave them
    # valid.  The two-level layout keeps the per-edge work of a compound
    # round to plain int-keyed dict hits instead of 3-tuple hashing.
    counts: Dict[Tuple[int, int], Dict[int, int]] = {}
    for target in range(num_states):
        for aid, state in interactive_pred[target]:
            per_state = counts.get((0, aid))
            if per_state is None:
                per_state = counts[(0, aid)] = {}
            per_state[state] = per_state.get(state, 0) + 1
        for aid in input_gaps[target]:
            per_state = counts.get((0, aid))
            if per_state is None:
                per_state = counts[(0, aid)] = {}
            per_state[target] = per_state.get(target, 0) + 1

    compound_of: Dict[int, int] = {block: 0 for block in part.blocks()}
    compound_blocks: List[Set[int]] = [set(part.blocks())]

    def register_split(parent: int, new_block: int, push) -> None:
        """Bookkeeping for one Q-split: compound membership + rate worklist."""
        cid = compound_of[parent]
        compound_of[new_block] = cid
        family = compound_blocks[cid]
        family.add(new_block)
        if len(family) == 2:
            push(("compound", cid))
        parent_targets = m_count[parent]
        if not parent_targets:
            # Neither half contains a Markovian target: no rate vector can
            # reference this split, skip the rate worklist.
            m_count[new_block] = 0
            return
        if part.size(new_block) < 32:
            moved = sum(1 for state in part.members(new_block) if has_mpred[state])
        else:
            moved = int(np.count_nonzero(has_mpred[part.member_array(new_block)]))
        m_count[new_block] = moved
        m_count[parent] = parent_targets - moved
        if parent_targets > moved:
            push(("rates", parent))
        if moved:
            push(("rates", new_block))

    def process_compound(cid: int, push) -> None:
        family = compound_blocks[cid]
        if len(family) < 2:
            return  # family already drained by earlier processings
        iterator = iter(family)
        first, second = next(iterator), next(iterator)
        small = first if part.size(first) <= part.size(second) else second
        family.discard(small)
        new_cid = len(compound_blocks)
        compound_blocks.append({small})
        compound_of[small] = new_cid
        if len(family) >= 2:
            push(("compound", cid))

        # Scan only the extracted half's in-edges, bucketing per action.
        buckets: Dict[int, Dict[int, int]] = {}
        for target in part.members(small):
            for aid, source in interactive_pred[target]:
                per_source = buckets.setdefault(aid, {})
                per_source[source] = per_source.get(source, 0) + 1
            for aid in input_gaps[target]:
                per_source = buckets.setdefault(aid, {})
                per_source[target] = per_source.get(target, 0) + 1
        for aid, into_small in buckets.items():
            # Move the scanned edges' counts from the old family to the new
            # singleton family; what remains keyed on `cid` counts edges into
            # the remainder.
            counts[(new_cid, aid)] = into_small
            remainder = counts[(cid, aid)]
            for source, edge_count in into_small.items():
                remaining = remainder.pop(source) - edge_count
                if remaining:
                    remainder[source] = remaining
            if not remainder:
                # Every counted edge went into `small`: nothing points at
                # the remainder, so the three-way key below is constant.
                del counts[(cid, aid)]

            part.mark_all(list(into_small), assume_unique=True)
            if not remainder:
                for marked, rest in part.split_marked():
                    if rest >= 0:
                        register_split(rest, marked, push)
                continue
            for marked, rest in part.split_marked():
                if rest >= 0:
                    register_split(rest, marked, push)
                # Three-way: the marked part (edges into `small`) still
                # splits by "also has edges into the remainder".
                created = part.split_by_key(
                    marked, lambda source: source in remainder
                )
                for block in created:
                    register_split(marked, block, push)

    def process_rates(splitter: int, push) -> None:
        # Aggregate each predecessor's rate into the splitter and split the
        # touched blocks by the canonical rate value.  Rates from states
        # inside the splitter are skipped — ordinary lumpability does not
        # constrain movement within a class (the signature engine skips the
        # own-block rates for the same reason).
        states = part.members(splitter)  # snapshot: valid across splits
        splitter_set = set(states)
        weights: Dict[int, float] = {}
        for target in states:
            for source, rate in markovian_pred[target]:
                if source in splitter_set:
                    continue
                weights[source] = weights.get(source, 0.0) + rate
        # Input moves into the splitter (own-class-blind relation only): a
        # bitmask of the input actions per outside predecessor.
        inputs: Dict[int, int] = {}
        for target in states:
            for aid, source in input_pred[target]:
                if source not in splitter_set:
                    inputs[source] = inputs.get(source, 0) | (1 << aid)
        if not weights and not inputs:
            return
        part.mark_all(list(weights.keys() | inputs.keys()), assume_unique=True)

        def rate_key(source: int):
            weight = weights.get(source)
            key = None if weight is None else canonical_rate(weight)
            return (key, inputs.get(source, 0)) if inputs else key

        for marked, rest in part.split_marked():
            # The marked part holds exactly the positive-weight states of one
            # former block; subdivide it further by rate value.
            if rest >= 0:
                register_split(rest, marked, push)
            created = part.split_by_key(marked, rate_key)
            for block in created:
                register_split(marked, block, push)

    def process(splitter, push) -> None:
        kind, index = splitter
        if kind == "compound":
            process_compound(index, push)
        else:
            process_rates(index, push)

    seeds: List[Tuple[str, int]] = []
    if len(compound_blocks[0]) >= 2:
        seeds.append(("compound", 0))
    seeds.extend(("rates", block) for block in part.blocks() if m_count[block])
    refine(seeds, process)
    return part.as_sets()


def reference_weak_quotient(model: IOIMC, partition: Sequence[FrozenSet[int]]) -> IOIMC:
    """The weak quotient of ``model`` under ``partition``, from the signature
    engine's per-state closure and reach frozensets.

    Each block is its representative's (smallest member's) weak moves:
    visible moves sorted by (action id, block) without input moves into the
    block itself, then one tau move per other block its closure reaches,
    by block; rates come from the block's smallest stable member.  Blocks
    keep the partition order and are named ``B{i}``.
    """
    closures = _internal_closure(model)
    reach = _weak_visible_reach(model, closures)
    input_ids = model.signature.input_ids
    internals = sorted(model.signature.internals)
    tau_id = intern_action(internals[0]) if internals else None
    block_of = {state: index for index, block in enumerate(partition) for state in block}
    itrans: List[List[Tuple[int, int]]] = []
    mtrans: List[Dict[int, object]] = []
    reps = [min(block) for block in partition]
    for block_id, rep in enumerate(reps):
        visible = {
            (aid, block_of[target])
            for aid, targets in reach[rep].items()
            for target in targets
            if not (aid in input_ids and block_of[target] == block_id)
        }
        taus = {block_of[target] for target in closures[rep]} - {block_id}
        itrans.append(sorted(visible) + [(tau_id, block) for block in sorted(taus)])
        rates: Dict[int, object] = {}
        stable = [state for state in partition[block_id] if model.is_stable(state)]
        if stable:
            for target, rate in model.markovian_dict(min(stable)).items():
                target_block = block_of[target]
                if target_block != block_id:
                    rates[target_block] = (
                        rates[target_block] + rate if target_block in rates else rate
                    )
        mtrans.append(rates)
    return IOIMC._from_lists(
        model.name,
        model.signature,
        itrans,
        mtrans,
        [model.labels(rep) for rep in reps],
        [f"B{block_id}" for block_id in range(len(partition))],
        block_of[model.initial],
    )


def without_labels(model: IOIMC) -> IOIMC:
    """A copy of ``model`` with every state's labels erased.

    The minimisers always keep differently labelled states apart; on this
    copy they refine the model as if its labels did not count.
    """
    return model.relabel_states({state: () for state in model.states()})

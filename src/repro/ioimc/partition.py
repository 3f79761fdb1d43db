"""Refinable partitions, worklist refinement and tau-SCC condensation.

This module is the data-structure core of the splitter-based bisimulation
minimiser (:mod:`repro.ioimc.bisimulation`).  It follows the refinable
partition of

    A. Valmari and G. Franceschinis, *Simple O(m log n) Time Markov Chain
    Lumping*, TACAS 2010 (LNCS 6015),

and the classic relational coarsest-partition ideas of Paige and Tarjan
(SIAM J. Comput. 16(6), 1987): the partition is a permutation of the
elements (``_elems``) in which every block occupies a contiguous slice, so

* membership tests, block sizes and block iteration are O(1)/O(block),
* *marking* an element moves it into the marked prefix of its block with a
  single swap — and :meth:`RefinablePartition.mark_all` performs a whole
  batch of marks with vectorised numpy index arithmetic instead of
  per-element Python swaps,
* splitting the marked elements off every touched block, or splitting one
  block into its groups of equal key (the Valmari-Franceschinis counter
  split for Markovian rates, implemented as a stable ``np.argsort`` over
  group codes with ``np.bincount`` group sizing), costs time proportional
  to the elements moved — never to the whole state space.

The element permutation, locations and block-membership tables are numpy
``int64`` arrays: bulk marks, block reassignment after a split and the
key-group reordering are single fancy-indexing operations, which is what
keeps the per-split constant small on the multi-thousand-state intermediate
products of compositional aggregation.

On top of the structure, :func:`refine` runs a generic worklist-of-splitters
loop: the caller processes one splitter at a time (marking predecessors and
splitting the touched blocks) and enqueues the splitters its policy
requires.  The strong engine in :mod:`repro.ioimc.bisimulation` runs the
textbook Paige-Tarjan discipline on top of it — compound splitter families
from which only the *smaller* sub-block's in-edges are ever scanned, with
per-(compound, action, state) edge counts funding the three-way split — so
the interactive refinement meets the O(m log n) bound; the weak engine
enqueues both halves (its splitters are tau-closure sweeps, for which no
count-based complement trick applies) but memoises the backward closures.

:class:`TauCondensation` complements the partition for *weak* bisimulation:
the shared Tarjan pass of :mod:`repro.graph` condenses the internal(tau)-
transition graph into its strongly connected components, so tau-closures are
represented once per SCC (as reachability over the condensation DAG) instead
of one frozenset per state — the quadratic-memory failure mode of tau-chains
never materialises.
Backward closures that the weak engine requests repeatedly (the same
(tau-SCC x label) splitter units re-enter the worklist many times on
tau-heavy products) are memoised in a bounded LRU
(:attr:`CLOSURE_CACHE_LIMIT` entries), so the cache stays linear in the
number of SCCs even on tau-chains where each individual closure is O(n).
"""

from __future__ import annotations

import math
from array import array as _array
from collections import OrderedDict, deque
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

from ..graph import strongly_connected_components
from .rates import ParametricRate

#: Default number of significant digits used when comparing aggregate
#: Markovian rates during bisimulation refinement.  Surfaced on
#: :class:`repro.ioimc.reduction.AggregationOptions` as ``rate_digits``.
DEFAULT_RATE_DIGITS = 10


def canonical_rate(value, digits: int = DEFAULT_RATE_DIGITS):
    """Canonical, hashable key of an aggregate rate for refinement.

    Plain floats are rounded to ``digits`` significant digits, so
    floating-point noise from rate aggregation cannot split blocks; both the
    splitter and the signature refinement engines share this tolerance.

    :class:`~repro.ioimc.rates.ParametricRate` forms are keyed *structurally*
    (each coefficient rounded the same way): two rates whose nominal values
    coincide but whose parameter dependencies differ stay in different rate
    classes.  This is what keeps the minimised quotient of a parametric model
    valid for every positive parameter assignment — the rate-sweep engine
    relies on it.
    """
    if isinstance(value, ParametricRate):
        return value.canonical_key(lambda v: _round_significant(v, digits))
    return _round_significant(value, digits)


def _round_significant(value: float, digits: int) -> float:
    if value == 0.0:
        return 0.0
    magnitude = int(math.floor(math.log10(abs(value))))
    return round(value, digits - magnitude)


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

    def members_flat(self, blocks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated member snapshot of several blocks, vectorised.

        Returns ``(elements, counts)``: the members of every block in
        ``blocks`` back to back (block order preserved) and the per-block
        member counts.  Blocks are contiguous ``_elems`` slices, so the whole
        gather is one fancy-indexing pass — the batched-frontier refinement
        rounds of the weak closure engine pull every pending splitter's
        membership through this instead of one :meth:`member_array` call per
        block.
        """
        k = len(blocks)
        starts = np.fromiter((self._start[b] for b in blocks), dtype=np.int64, count=k)
        ends = np.fromiter((self._end[b] for b in blocks), dtype=np.int64, count=k)
        counts = ends - starts
        total = int(counts.sum())
        if not total:
            return np.empty(0, dtype=np.int64), counts
        shifted = np.repeat(np.cumsum(counts) - counts - starts, counts)
        positions = np.arange(total, dtype=np.int64) - shifted
        return self._elems[positions], counts

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

    def split_marked_by_codes(
        self, codes: np.ndarray
    ) -> Tuple[List[int], List[int]]:
        """Split every touched block by marked/unmarked, then by code.

        ``codes`` is an array indexed by element, valid for the currently
        marked elements.  Per touched block this is exactly
        :meth:`split_marked` followed by a code-keyed split of the marked
        part, fused: the marked prefix is grouped by code in one argsort (or
        scalar dict) pass — no per-element ``key_of`` callback.  A fully
        marked block's first code group keeps the block id; an unmarked
        remainder keeps the block id and every marked group gets a fresh id.

        Returns ``(pieces, moved)`` aggregated over all touched blocks:
        ``pieces`` are all block ids whose membership may have changed (for
        re-enqueueing), ``moved`` are the ids whose members left their old
        block (for rate-vector re-bucketing).  An unchanged block (fully
        marked, one code group) contributes neither.  All marks are cleared.
        """
        pieces: List[int] = []
        moved: List[int] = []
        elems = self._elems
        elems_l = self._elems_l
        loc_l = self._loc_l
        block_l = self._block_l
        for block in self._touched:
            marked = self._marked[block]
            self._marked[block] = 0
            start = self._start[block]
            full = marked == self._end[block] - start
            if marked <= self._VECTOR_THRESHOLD:
                # Scalar grouping (first-seen order) for small marked sets.
                groups: Dict[int, List[int]] = {}
                for element in elems_l[start : start + marked]:
                    key = codes[element]
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = [element]
                    else:
                        bucket.append(element)
                if full and len(groups) == 1:
                    continue  # unchanged
                position = start
                first = full
                for bucket in groups.values():
                    if first:
                        # First group of a fully marked block keeps the id
                        # (its members keep their block label, but still move
                        # into the leading slots).
                        first = False
                        for element in bucket:
                            elems_l[position] = element
                            loc_l[element] = position
                            position += 1
                        self._end[block] = position
                        pieces.append(block)
                        continue
                    target = len(self._start)
                    begin = position
                    for element in bucket:
                        elems_l[position] = element
                        loc_l[element] = position
                        block_l[element] = target
                        position += 1
                    self._start.append(begin)
                    self._end.append(position)
                    self._marked.append(0)
                    pieces.append(target)
                    moved.append(target)
            else:
                seg = elems[start : start + marked].copy()
                seg_codes = codes[seg]
                order = np.argsort(seg_codes, kind="stable")
                distinct = np.flatnonzero(
                    seg_codes[order][1:] != seg_codes[order][:-1]
                )
                if full and not distinct.size:
                    continue  # unchanged
                seg = seg[order]
                elems[start : start + marked] = seg
                self._loc[seg] = np.arange(start, start + marked, dtype=np.int64)
                bounds = [0, *(distinct + 1).tolist(), marked]
                for index in range(len(bounds) - 1):
                    begin = start + bounds[index]
                    finish = start + bounds[index + 1]
                    if full and index == 0:
                        self._end[block] = finish
                        pieces.append(block)
                        continue
                    target = len(self._start)
                    self._start.append(begin)
                    self._end.append(finish)
                    self._marked.append(0)
                    self._block_of[elems[begin:finish]] = target
                    pieces.append(target)
                    moved.append(target)
            if not full:
                self._start[block] = start + marked
                pieces.append(block)
        self._touched.clear()
        return pieces, moved

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
    still owes a processing round — the weak engine pushes both halves of
    every split, the strong engine runs the Paige-Tarjan compound discipline
    (only smaller sub-blocks are ever scanned) on top of this loop.  Pushes
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


#: Upper bound on memoised backward closures per :class:`TauCondensation`.
#: A bounded cache keeps the memory of the memo linear in the number of
#: SCCs on tau-chains (each cached closure can itself be O(n) there) while
#: still absorbing the repeated (tau-SCC x label) splitter reprocessing of
#: the weak engine's worklist.
CLOSURE_CACHE_LIMIT = 64


class TauCondensation:
    """Condensation of a model's internal-transition graph.

    Computed with the shared iterative Tarjan pass
    (:func:`repro.graph.strongly_connected_components` — the fused products
    this runs on routinely exceed Python's recursion limit).  SCC ids are
    assigned in reverse topological order: every tau successor of an
    SCC has a *smaller* id, so a single id-ordered sweep visits successors
    before their predecessors — the property the weak-bisimulation engine
    uses to share tau-closure information per SCC instead of materialising a
    closure frozenset per state.
    """

    __slots__ = ("scc_of", "members", "tau_succ", "tau_pred", "_closure_cache")

    def __init__(self, model) -> None:
        internal = model.signature.internal_ids
        num_states = model.num_states
        succ: List[List[int]] = [
            [target for aid, target in model.interactive_pairs(state) if aid in internal]
            for state in range(num_states)
        ]

        #: Member states of every SCC.
        self.members: List[List[int]] = strongly_connected_components(succ)
        #: SCC id of every state.
        self.scc_of: List[int] = [-1] * num_states
        for scc, group in enumerate(self.members):
            for member in group:
                self.scc_of[member] = scc

        num_sccs = len(self.members)
        succ_sets: List[Set[int]] = [set() for _ in range(num_sccs)]
        for state in range(num_states):
            source = self.scc_of[state]
            for target in succ[state]:
                target_scc = self.scc_of[target]
                if target_scc != source:
                    succ_sets[source].add(target_scc)
        #: Condensed tau edges (deduplicated, no self edges).
        self.tau_succ: List[List[int]] = [sorted(targets) for targets in succ_sets]
        self.tau_pred: List[List[int]] = [[] for _ in range(num_sccs)]
        for source, targets in enumerate(self.tau_succ):
            for target in targets:
                self.tau_pred[target].append(source)
        self._closure_cache: "OrderedDict[FrozenSet[int], FrozenSet[int]]" = OrderedDict()

    @property
    def num_sccs(self) -> int:
        return len(self.members)

    def backward_closure(self, seeds: Iterable[int]) -> Set[int]:
        """All SCCs that tau-reach one of ``seeds`` (seeds included)."""
        seen: Set[int] = set(seeds)
        frontier: List[int] = list(seen)
        while frontier:
            scc = frontier.pop()
            for predecessor in self.tau_pred[scc]:
                if predecessor not in seen:
                    seen.add(predecessor)
                    frontier.append(predecessor)
        return seen

    def backward_closure_cached(self, seeds: FrozenSet[int]) -> FrozenSet[int]:
        """Memoised :meth:`backward_closure` for repeatedly requested seeds.

        The weak engine's worklist re-processes the same splitter seed sets
        many times on tau-heavy products; their closures are immutable, so
        one frozenset can be shared.  The memo is a bounded LRU of
        :data:`CLOSURE_CACHE_LIMIT` entries — memory stays linear in the
        number of SCCs even on tau-chains, where one closure is O(n).
        """
        cache = self._closure_cache
        cached = cache.get(seeds)
        if cached is not None:
            cache.move_to_end(seeds)
            return cached
        closure = frozenset(self.backward_closure(seeds))
        cache[seeds] = closure
        if len(cache) > CLOSURE_CACHE_LIMIT:
            cache.popitem(last=False)
        return closure

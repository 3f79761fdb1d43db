"""Strong and weak bisimulation minimisation for I/O-IMC.

Aggregation — replacing an I/O-IMC by its bisimulation quotient — is what makes
the compositional approach of the paper scale: after every composition step the
intermediate model is minimised, so the state space of the product never comes
close to the monolithic Markov chain built by DIFTree.

Two equivalences are implemented:

* **Strong bisimulation** — interactive transitions must be matched step by
  step and the aggregate Markovian rate into every equivalence class must
  coincide (ordinary lumpability).  Simple, always applicable.
* **Weak bisimulation** — internal (hidden) actions are abstracted away: weak
  interactive moves (``τ* a τ*``) must be matched, and only *stable* states
  (states without internal transitions) reached via internal moves need to
  agree on their Markovian rate classes.  This is the equivalence used in the
  paper; it merges the interleaving diamonds created by hiding synchronised
  failure/activation signals and therefore reduces much more aggressively.

Three refinement engines compute each partition:

``algorithm="closure"`` (default)
    Saturation-free weak refinement: the backward tau-closure of the tau-SCC
    condensation is computed ONCE into CSR index rows (one descending-id
    sweep over the condensation DAG — tau predecessors carry larger ids, so
    every predecessor row is final when its successors fold it in), the
    saturated weak-visible in-edge relation (``τ* a τ*`` sources per target
    SCC, implicit input self-loops included) is derived from it by the same
    sweep, and the refinement then runs a *strong*-style loop over the
    precomputed predicates — no per-splitter re-closure.  Splitters are
    processed in **batched frontiers**: every round pops all currently-dirty
    blocks and rate classes, gathers their predicate rows as stacked CSR
    slices, folds them into composite codes and splits every touched block
    with vectorised :class:`~repro.ioimc.partition.RefinablePartition`
    calls.  The retained closure entries are capped linear in the number of
    SCCs (:data:`SATURATION_FACTOR`); deep tau-chains whose saturation would
    be quadratic fall back to the splitter engine (identical partitions).
    The strong path has no tau structure to saturate, so
    ``algorithm="closure"`` delegates to the splitter engine there.
``algorithm="splitter"``
    Worklist-of-splitters partition refinement on the refinable partition of
    :mod:`repro.ioimc.partition` (Paige-Tarjan / Valmari-Franceschinis style):
    one refinement step touches only the splitter block's (weak) in-edges
    instead of recomputing every state's signature.  The strong variant runs
    the full Paige-Tarjan smaller-half discipline — compound splitter
    families with per-(compound, action, state) edge counts, so only the
    smaller extracted sub-block's in-edges are ever scanned and the
    interactive refinement is O(m log n).  The weak variant first condenses
    the internal-transition graph into its tau-SCCs
    (:class:`~repro.ioimc.partition.TauCondensation`) and runs entirely on
    the condensation — tau-closures are shared per SCC, never materialised
    per state, re-derived per splitter from a bit-packed ancestor matrix
    (or a memoised BFS above :data:`_DENSE_REACH_LIMIT` SCCs).
``algorithm="signature"``
    The seed implementation: every round recomputes every state's full
    signature and splits blocks by signature equality.  Kept as the reference
    for differential testing; asymptotically slower (O(rounds × states ×
    transitions)) and, on the weak path, quadratic in memory on tau-chains
    (per-state closure frozensets).

All engines compute the *same* coarsest partition — the property tests pin
this on the paper's systems and on random DFT corpora.  The quotient
constructions preserve state labels and the analysed reliability measures;
the weak quotient is built from the tau-SCC condensation directly, so
minimise-then-quotient does the closure work exactly once.

Maximal progress should be applied *before* minimisation (the reduction
pipeline in :mod:`repro.ioimc.reduction` does so); the algorithms here work on
the transitions they are given.
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ModelError
from .actions import intern_action
from .model import IOIMC
from .partition import (
    DEFAULT_RATE_DIGITS,
    RefinablePartition,
    TauCondensation,
    canonical_rate,
    refine,
)

LOGGER = logging.getLogger("repro.ioimc.bisimulation")

Partition = List[FrozenSet[int]]

#: The available refinement engines.
ALGORITHMS = ("closure", "splitter", "signature")

#: The closure engine keeps at most ``max(SATURATION_FLOOR,
#: SATURATION_FACTOR * num_sccs)`` retained closure-matrix entries
#: (backward-closure rows plus saturated weak-edge rows).  The cap keeps the
#: engine's memory linear in the condensation size: saturating a deep
#: tau-chain is inherently quadratic, so models that trip the cap fall back
#: to the splitter engine (same partition, per-splitter closures).
SATURATION_FACTOR = 64
SATURATION_FLOOR = 2_000_000

#: Up to this many tau-SCCs the weak engine precomputes a bit-packed
#: backward-reachability matrix over the condensation (num_sccs^2 bits,
#: 32 MiB at the limit); larger condensations fall back to the memoised
#: per-query BFS of :class:`~repro.ioimc.partition.TauCondensation`.
_DENSE_REACH_LIMIT = 16384

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Bit masks of the MSB-first packed rows: mask of bit ``i`` within a byte.
_BIT_MASK = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)

#: Per-predicate weights of the composite codes (bit per predicate).
_CODE_WEIGHTS = np.left_shift(np.int64(1), np.arange(62, dtype=np.int64))

#: Bit offsets set in each byte value, MSB-first (mirrors ``np.unpackbits``):
#: decoding a sparse packed row walks only its non-zero bytes through this
#: table instead of unpacking all ``num_sccs`` bits.
_BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if byte & (0x80 >> offset))
    for byte in range(256)
)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array.

    Replaces ``np.unique`` on the refinement hot paths: recent numpy routes
    integer ``unique`` through a hash table, which measures ~50x slower than
    an explicit sort + adjacent-dedup on the multi-hundred-k key streams of
    the batched frontier rounds (and loses the sortedness the group-boundary
    decoding needs anyway).
    """
    if values.size <= 1:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _csr_flat(offsets: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Flat positions of the CSR rows ``idx``: ``concat(range(off[i], off[i+1]))``.

    The standard repeat/cumsum trick — one vectorised expression, no Python
    loop over rows.
    """
    counts = offsets[idx + 1] - offsets[idx]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(
        offsets[idx] - cum + counts, counts
    )


def _input_bits(is_input: Sequence[bool]) -> int:
    """Code bits of a predicate chunk's input-action predicates."""
    return sum(1 << position for position, flag in enumerate(is_input) if flag)


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ModelError(
            f"unknown bisimulation algorithm {algorithm!r}; choose one of {ALGORITHMS}"
        )


def _canonical_partition(blocks: Sequence[FrozenSet[int]]) -> Partition:
    """Blocks ordered by smallest member — one canonical form for both engines."""
    return sorted((frozenset(block) for block in blocks), key=min)


def _initial_blocks(model: IOIMC, respect_labels: bool) -> Dict[int, int]:
    """Initial partition map: states grouped by their label sets."""
    if not respect_labels:
        return {state: 0 for state in model.states()}
    block_ids: Dict[FrozenSet[str], int] = {}
    block_of: Dict[int, int] = {}
    for state in model.states():
        labels = model.labels(state)
        if labels not in block_ids:
            block_ids[labels] = len(block_ids)
        block_of[state] = block_ids[labels]
    return block_of


def _blocks_from_map(block_of: Dict[int, int]) -> Partition:
    grouped: Dict[int, set] = {}
    for state, block in block_of.items():
        grouped.setdefault(block, set()).add(state)
    return _canonical_partition([frozenset(states) for states in grouped.values()])


def _refine_by_signature(
    block_of: Dict[int, int], signatures: Dict[int, object]
) -> Tuple[Dict[int, int], bool]:
    """Split blocks by signature; return the new map and whether it changed."""
    next_ids: Dict[Tuple[int, object], int] = {}
    new_map: Dict[int, int] = {}
    for state, old_block in block_of.items():
        key = (old_block, signatures[state])
        if key not in next_ids:
            next_ids[key] = len(next_ids)
        new_map[state] = next_ids[key]
    changed = len(next_ids) != len(set(block_of.values()))
    return new_map, changed


# ---------------------------------------------------------------------------
# strong bisimulation
# ---------------------------------------------------------------------------

def strong_bisimulation_partition(
    model: IOIMC,
    respect_labels: bool = True,
    algorithm: str = "closure",
    rate_digits: int = DEFAULT_RATE_DIGITS,
) -> Partition:
    """Coarsest strong bisimulation partition of ``model``.

    Two states are equivalent iff (respecting labels) they enable the same
    actions into the same equivalence classes (implicit input self-loops
    included) and their aggregate Markovian rates into every *other* class
    coincide (ordinary lumpability).

    The strong relation has no tau structure to saturate, so
    ``algorithm="closure"`` delegates to the splitter engine.
    """
    _check_algorithm(algorithm)
    if algorithm == "signature":
        return _strong_partition_signature(model, respect_labels, rate_digits)
    return _strong_partition_splitter(model, respect_labels, rate_digits)


def _strong_partition_signature(
    model: IOIMC, respect_labels: bool, rate_digits: int
) -> Partition:
    """Signature-refinement reference implementation (seed algorithm)."""
    block_of = _initial_blocks(model, respect_labels)
    input_ids = model.signature.input_ids
    while True:
        signatures: Dict[int, object] = {}
        for state in model.states():
            interactive: Dict[int, set] = {}
            enabled = model.enabled_ids(state)
            for aid, target in model.interactive_pairs(state):
                interactive.setdefault(aid, set()).add(block_of[target])
            for aid in input_ids:
                if aid not in enabled:
                    interactive.setdefault(aid, set()).add(block_of[state])
            # Ordinary lumpability: rates into the state's own class are
            # irrelevant (movement inside the class does not change the class,
            # and the rates towards every other class are required to agree).
            rates: Dict[int, float] = {}
            own_block = block_of[state]
            for target, rate in model.markovian_dict(state).items():
                if block_of[target] == own_block:
                    continue
                rates[block_of[target]] = rates.get(block_of[target], 0.0) + rate
            signatures[state] = (
                frozenset((aid, frozenset(blocks)) for aid, blocks in interactive.items()),
                frozenset(
                    (block, canonical_rate(total, rate_digits))
                    for block, total in rates.items()
                ),
            )
        block_of, changed = _refine_by_signature(block_of, signatures)
        if not changed:
            return _blocks_from_map(block_of)


def _strong_partition_splitter(
    model: IOIMC,
    respect_labels: bool,
    rate_digits: int,
    own_inputs_invisible: bool = False,
) -> Partition:
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
    if respect_labels:
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
            key = None if weight is None else canonical_rate(weight, rate_digits)
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


# ---------------------------------------------------------------------------
# weak bisimulation
# ---------------------------------------------------------------------------

def _internal_closure(model: IOIMC) -> List[FrozenSet[int]]:
    """Per-state tau-closure frozensets — **signature reference engine only**.

    The splitter engine never calls this: it shares closure information per
    tau-SCC via :class:`~repro.ioimc.partition.TauCondensation`, which keeps
    the weak path linear in states + transitions where these frozensets are
    quadratic on tau-chains.
    """
    closures: List[FrozenSet[int]] = []
    internal_succ = [model.internal_successors(state) for state in model.states()]
    for start in model.states():
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for target in internal_succ[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        closures.append(frozenset(seen))
    return closures


def _weak_visible_reach(
    model: IOIMC, closures: Sequence[FrozenSet[int]]
) -> List[Dict[int, FrozenSet[int]]]:
    """Per-state ``τ* a τ*`` reach sets — **signature reference engine only**.

    Implicit input self-loops are taken into account: a state that has no
    explicit transition for an input action can still (weakly) perform it and
    stay (modulo trailing internal moves).
    """
    input_ids = model.signature.input_ids
    internal_ids = model.signature.internal_ids
    reach: List[Dict[int, FrozenSet[int]]] = []
    for state in model.states():
        per_action: Dict[int, set] = {}
        for mid in closures[state]:
            enabled = model.enabled_ids(mid)
            for aid, target in model.interactive_pairs(mid):
                if aid in internal_ids:
                    continue
                per_action.setdefault(aid, set()).update(closures[target])
            for aid in input_ids:
                if aid not in enabled:
                    per_action.setdefault(aid, set()).update(closures[mid])
        reach.append({aid: frozenset(states) for aid, states in per_action.items()})
    return reach


def weak_bisimulation_partition(
    model: IOIMC,
    respect_labels: bool = True,
    algorithm: str = "closure",
    rate_digits: int = DEFAULT_RATE_DIGITS,
) -> Partition:
    """Coarsest weak bisimulation partition of ``model``.

    Two states are equivalent iff (respecting labels)

    * for every visible action, the classes reachable via a weak move
      (``τ* a τ*``, implicit input self-loops included) coincide — except
      that for an *input* action a state's own class is ignored (the
      input own-block rule),
    * the classes reachable via internal moves alone coincide,
    * the sets of canonical Markovian rate vectors of the *stable* states
      reachable via internal moves coincide (maximal progress means only
      those states can let time pass) — where a tau-cycle with no way out
      counts as a stable state without rates (the divergence rule).

    Both rules describe what the weak quotient realises.  The quotient
    leaves an input move back into its own block implicit, so two states
    that differ only there are the same quotient state; the input own-block
    rule mirrors the own-class exclusion of the rate vectors.  The quotient
    drops tau moves inside a block, so a block on a tau-cycle with no exit
    becomes a stable state without rates.  With both rules, minimising a
    weak quotient again changes nothing (:func:`minimize_weak` is
    idempotent).  Every engine applies them; a splitter block's
    input-action predicate never splits the splitter itself.
    """
    _check_algorithm(algorithm)
    if algorithm == "signature":
        return _weak_partition_signature(model, respect_labels, rate_digits)
    if _has_no_internal_transitions(model):
        # Without internal moves every tau-closure is a singleton and every
        # state is stable: weak bisimulation is strong bisimulation under the
        # input own-block rule, and the strong splitter avoids the
        # condensation and rate-class machinery.
        return _strong_partition_splitter(
            model, respect_labels, rate_digits, own_inputs_invisible=True
        )
    return _weak_engine(model, respect_labels, rate_digits, algorithm).state_partition()


def _weak_engine(
    model: IOIMC, respect_labels: bool, rate_digits: int, algorithm: str
) -> "_WeakEngineBase":
    """The weak engine for ``algorithm`` (never ``"signature"``).

    The closure engine refuses models whose saturated weak relation would be
    superlinear in the condensation size (deep tau-chains); those fall back
    to the splitter engine, which computes the identical partition from
    per-splitter closures.
    """
    if algorithm == "closure":
        try:
            return _WeakClosureEngine(model, respect_labels, rate_digits)
        except _SaturationOverflow as overflow:
            LOGGER.info(
                "closure engine: saturating %d tau-SCCs exceeds the cap of %d "
                "entries; falling back to the splitter engine",
                overflow.num_sccs,
                overflow.cap,
            )
    return _WeakSplitterEngine(model, respect_labels, rate_digits)


def _has_no_internal_transitions(model: IOIMC) -> bool:
    internal_mask = model.signature.internal_mask
    if not internal_mask:
        return True
    return not any(model.enabled_mask(state) & internal_mask for state in model.states())


def _weak_partition_signature(
    model: IOIMC, respect_labels: bool, rate_digits: int
) -> Partition:
    """Signature-refinement reference implementation (seed algorithm)."""
    closures = _internal_closure(model)
    visible_reach = _weak_visible_reach(model, closures)
    stable = [model.is_stable(state) for state in model.states()]
    input_ids = model.signature.input_ids
    # Divergence rule: a state that can reach a tau-cycle with no way out
    # (a closure without stable states) weakly reaches "time stops", which
    # the quotient renders as a stable state without rates.
    timelocked = [not any(stable[target] for target in closure) for closure in closures]
    reaches_timelock = [any(timelocked[target] for target in closure) for closure in closures]

    block_of = _initial_blocks(model, respect_labels)
    while True:
        signatures: Dict[int, object] = {}
        for state in model.states():
            own_block = block_of[state]
            # Input own-block rule: an input move back into the state's own
            # class is invisible, exactly as the quotient leaves it implicit.
            visible_sig = frozenset(
                (
                    action,
                    frozenset(
                        block
                        for block in (block_of[target] for target in targets)
                        if block != own_block or action not in input_ids
                    ),
                )
                for action, targets in visible_reach[state].items()
            )
            tau_sig = frozenset(block_of[target] for target in closures[state])
            rate_vectors = set()
            for target in closures[state]:
                if not stable[target]:
                    continue
                rates: Dict[int, float] = {}
                own_block = block_of[target]
                for succ, rate in model.markovian_dict(target).items():
                    if block_of[succ] == own_block:
                        continue  # ordinary lumpability: ignore intra-class rates
                    rates[block_of[succ]] = rates.get(block_of[succ], 0.0) + rate
                rate_vectors.add(
                    frozenset(
                        (block, canonical_rate(total, rate_digits))
                        for block, total in rates.items()
                    )
                )
            if reaches_timelock[state]:
                rate_vectors.add(frozenset())
            signatures[state] = (visible_sig, tau_sig, frozenset(rate_vectors))
        block_of, changed = _refine_by_signature(block_of, signatures)
        if not changed:
            return _blocks_from_map(block_of)


class _WeakEngineBase:
    """Shared structure of the splitter- and closure-based weak engines.

    The refinement works on *units* — the states of one tau-SCC sharing one
    label set.  All states of a unit are trivially weakly bisimilar (they
    tau-reach each other), so units are the finest granularity a split can
    ever need; on tau-heavy fused products they are far fewer than states.

    Splitters come in two kinds:

    * a partition block ``B``: split every block by "can tau-reach ``B``"
      and, per visible action ``a``, by "can weakly do ``a`` into ``B``"
      (implicit input self-loops included).  For an input action ``a``
      the predicate never splits ``B`` itself (the input own-block rule of
      :func:`weak_bisimulation_partition`): when ``B`` splits, both pieces
      re-enter the worklist, and each piece's predicate then separates
      the other piece's members;
    * a Markovian *rate class* (stable states with equal canonical rate
      vectors; units of a bottom tau-SCC without stable states join the
      empty vector's class for good): split every block by "can tau-reach
      a member of the class".

    When a block splits, the rate vectors of the stable states pointing into
    the moved states (and of the moved/remaining stable states themselves,
    whose own-class exclusion changed) are recomputed and re-bucketed; every
    class whose membership changed re-enters the worklist.  The fixpoint is
    stable under all three predicate families, which is exactly the
    signature engine's equivalence.  Subclasses implement :meth:`_run`; how
    the splitter predicates are derived and scheduled is what distinguishes
    the engines (per-splitter closure sweeps vs precomputed saturation with
    batched frontier rounds).
    """

    def __init__(self, model: IOIMC, respect_labels: bool, rate_digits: int):
        self.model = model
        self.rate_digits = rate_digits
        self.condensation = TauCondensation(model)
        cond = self.condensation
        num_states = model.num_states
        num_sccs = cond.num_sccs

        # ---- units: (SCC, label set) groups ------------------------------
        self.unit_of_state: List[int] = [0] * num_states
        self.unit_states: List[List[int]] = []
        self.unit_scc: List[int] = []
        self.unit_labels: List[FrozenSet[str]] = []
        self.scc_units: List[List[int]] = [[] for _ in range(num_sccs)]
        model_labels = model._labels
        for scc in range(num_sccs):
            members = cond.members[scc]
            if not respect_labels:
                ordered = [(model_labels[members[0]], list(members))]
            elif len(members) == 1:
                # Singleton SCC (the common case on bushy products): exactly
                # one unit, no grouping dict needed.
                ordered = [(model_labels[members[0]], list(members))]
            else:
                groups: Dict[FrozenSet[str], List[int]] = {}
                for state in members:
                    groups.setdefault(model_labels[state], []).append(state)
                ordered = sorted(groups.items(), key=lambda item: min(item[1]))
            for labels, states in ordered:
                unit = len(self.unit_states)
                self.unit_states.append(states)
                self.unit_scc.append(scc)
                self.unit_labels.append(labels)
                self.scc_units[scc].append(unit)
                for state in states:
                    self.unit_of_state[state] = unit

        # ---- static per-SCC indexes --------------------------------------
        input_ids = model.signature.input_ids
        #: Stable Markovian predecessors per state (only stable states carry
        #: rate vectors in the weak signature).
        self.stable_pred: List[List[Tuple[int, float]]] = [[] for _ in range(num_states)]
        scc_of = cond.scc_of
        input_id_list = sorted(input_ids)
        internal_mask = model.signature.internal_mask
        enabled_mask = model.enabled_mask
        itrans = model._itrans
        mtrans = model._mtrans
        input_mask = model.signature.input_mask
        vec_gaps = bool(input_id_list) and input_id_list[-1] < 63
        vis_dst: List[int] = []
        vis_aid: List[int] = []
        vis_src: List[int] = []
        imask_vals: List[int] = []
        gap_keys: List[int] = []
        aid_bound = input_id_list[-1] + 1 if input_id_list else 1
        stable_flags = bytearray(num_states)
        for state in range(num_states):
            scc = scc_of[state]
            for aid, target in itrans[state]:
                if (internal_mask >> aid) & 1:
                    continue
                vis_dst.append(scc_of[target])
                vis_aid.append(aid)
                vis_src.append(scc)
            mask = enabled_mask(state)
            if vec_gaps:
                imask_vals.append(mask & input_mask)
            else:
                for aid in input_id_list:
                    if not (mask >> aid) & 1:
                        gap_keys.append(scc * aid_bound + aid)
            if not mask & internal_mask:  # stable state
                stable_flags[state] = 1
                for target, rate in mtrans[state].items():
                    self.stable_pred[target].append((state, rate))
        self.unit_stable: List[bool] = [
            all(stable_flags[state] for state in states)
            for states in self.unit_states
        ]
        #: Per-state stability flags, handed to the quotient builder so it
        #: skips its own transition walk.
        self._stable_flags = stable_flags

        # Input gaps — input actions some member of the SCC has no explicit
        # transition for (those members carry an implicit weak self-loop) —
        # are detected with one vectorised bit-test per input action over
        # the states' input-restricted masks and kept as one (scc, action)
        # CSR sorted by (SCC, action id).
        scc_arr = np.fromiter(scc_of, dtype=np.int64, count=num_states)
        gap_parts: List[np.ndarray] = []
        if vec_gaps:
            imask_arr = np.fromiter(imask_vals, dtype=np.int64, count=num_states)
            for aid in input_id_list:
                missing = np.flatnonzero(~(imask_arr >> aid) & 1)
                if missing.size:
                    gap_parts.append(scc_arr[missing] * aid_bound + aid)
        elif gap_keys:
            gap_parts.append(np.asarray(gap_keys, dtype=np.int64))
        #: Per-SCC tuples of gap action ids (ascending), plus the same data
        #: as flat CSR arrays for the vectorised engines.
        self.input_gaps: List[Tuple[int, ...]] = [()] * num_sccs
        if gap_parts:
            keys = _sorted_unique(np.concatenate(gap_parts))
            self._gap_scc = keys // aid_bound
            self._gap_aid = keys - self._gap_scc * aid_bound
            gap_counts = np.bincount(self._gap_scc, minlength=num_sccs)
            self._gap_off = np.concatenate(([0], np.cumsum(gap_counts)))
            gap_aid_l = self._gap_aid.tolist()
            gap_off_l = self._gap_off.tolist()
            for scc in np.flatnonzero(gap_counts).tolist():
                self.input_gaps[scc] = tuple(
                    gap_aid_l[gap_off_l[scc] : gap_off_l[scc + 1]]
                )
        else:
            self._gap_scc = _EMPTY_I64
            self._gap_aid = _EMPTY_I64
            self._gap_off = np.zeros(num_sccs + 1, dtype=np.int64)

        # Visible in-edges as one flat CSR keyed by target SCC, deduplicated
        # by (target, source, action) with a lexsort — both engines consume
        # stacked row gathers of this, so the per-SCC tuple sets of the
        # original design never materialise.
        if vis_dst:
            dst = np.asarray(vis_dst, dtype=np.int64)
            aid = np.asarray(vis_aid, dtype=np.int64)
            src = np.asarray(vis_src, dtype=np.int64)
            order = np.lexsort((aid, src, dst))
            dst, aid, src = dst[order], aid[order], src[order]
            keep = np.ones(dst.size, dtype=bool)
            keep[1:] = (
                (dst[1:] != dst[:-1]) | (src[1:] != src[:-1]) | (aid[1:] != aid[:-1])
            )
            dst, aid, src = dst[keep], aid[keep], src[keep]
            counts = np.bincount(dst, minlength=num_sccs)
        else:
            aid = src = _EMPTY_I64
            counts = np.zeros(num_sccs, dtype=np.int64)
        #: Flat visible in-edge arrays: the in-edges of SCC ``t`` are the
        #: ``(action, source SCC)`` pairs in rows ``_vis_off[t]:_vis_off[t+1]``.
        self._vis_aid = aid
        self._vis_src = src
        self._vis_off = np.concatenate(([0], np.cumsum(counts)))

        # Units are created in ascending-SCC order, so the units of SCC `s`
        # are exactly the contiguous id range [_unit_off[s], _unit_off[s+1]).
        unit_counts = np.zeros(num_sccs + 1, dtype=np.int64)
        for scc, units in enumerate(self.scc_units):
            unit_counts[scc + 1] = len(units)
        self._unit_off = np.cumsum(unit_counts)
        #: Whether some SCC splits into several units (by label set).
        self._multi_unit = len(self.unit_states) != num_sccs
        self._unit_scc_arr = np.asarray(self.unit_scc, dtype=np.int64)
        #: Scratch: composite predicate code per unit, valid for the units
        #: scattered during the current mark/split round only.
        self._unit_code = np.zeros(len(self.unit_states), dtype=np.int64)
        self._input_ids = input_ids

        # ---- partition over units ----------------------------------------
        self.part = RefinablePartition(len(self.unit_states))
        if respect_labels and self.part.num_elements:
            self.part.split_by_key(0, lambda unit: self.unit_labels[unit])

        # ---- rate classes over stable units ------------------------------
        self.class_of: Dict[int, int] = {}
        self.class_members: List[Set[int]] = []
        self.class_by_key: Dict[FrozenSet[Tuple[int, float]], int] = {}
        #: Stable units whose rate vector may be stale (re-bucketed in batch
        #: when the next rate-class splitter is processed).
        self._dirty: Set[int] = set()
        for unit, stable in enumerate(self.unit_stable):
            if stable:
                self._assign_rate_class(unit)
            elif not cond.tau_succ[self.unit_scc[unit]]:
                # Divergence rule: an unstable unit of a bottom tau-SCC sits
                # on a tau-cycle with no way out, where time stops.  It
                # carries the empty rate vector for good, as the quotient
                # renders its block as a stable state without rates.
                self._assign_rate_class(unit, frozenset())

        self._refined = False

    # ------------------------------------------------------------ rate classes
    def _vector_key(self, unit: int) -> FrozenSet[Tuple[int, float]]:
        """Canonical rate vector of a stable unit under the current partition."""
        state = self.unit_states[unit][0]  # stable units are singletons
        own_block = self.part.block_of(unit)
        rates: Dict[int, float] = {}
        for target, rate in self.model.markovian_dict(state).items():
            block = self.part.block_of(self.unit_of_state[target])
            if block == own_block:
                continue  # ordinary lumpability: ignore intra-class rates
            rates[block] = rates.get(block, 0.0) + rate
        return frozenset(
            (block, canonical_rate(total, self.rate_digits))
            for block, total in rates.items()
        )

    def _assign_rate_class(
        self, unit: int, key: Optional[FrozenSet[Tuple[int, float]]] = None
    ) -> Optional[Tuple[int, ...]]:
        """(Re)bucket a stable unit by rate vector (``key``, when given);
        return the changed classes."""
        if key is None:
            key = self._vector_key(unit)
        new_class = self.class_by_key.get(key)
        if new_class is None:
            new_class = len(self.class_members)
            self.class_members.append(set())
            self.class_by_key[key] = new_class
        old_class = self.class_of.get(unit)
        if old_class == new_class:
            return None
        self.class_of[unit] = new_class
        self.class_members[new_class].add(unit)
        if old_class is None:
            return (new_class,)
        self.class_members[old_class].discard(unit)
        return (old_class, new_class)

    # ---------------------------------------------------------------- refining
    def _track_dirty(self, moved: List[int], push) -> None:
        """Queue rate-vector re-bucketing after the pieces in ``moved`` split off.

        Exactly the rate vectors referencing the moved states change: their
        stable Markovian predecessors (wherever those live — this covers
        stable units left behind in the id-keeping remainder with rates into
        a moved piece), plus the moved stable units themselves (their
        own-class exclusion now ends at the new block boundary).  They are
        re-bucketed lazily, in batch, when the next rate-class splitter is
        dequeued.
        """
        part = self.part
        dirty = self._dirty
        freshly_dirty = []
        for piece in moved:
            for unit in part.members(piece):
                if self.unit_stable[unit] and unit not in dirty:
                    dirty.add(unit)
                    freshly_dirty.append(unit)
                for state in self.unit_states[unit]:
                    for source, _rate in self.stable_pred[state]:
                        source_unit = self.unit_of_state[source]
                        if source_unit not in dirty:
                            dirty.add(source_unit)
                            freshly_dirty.append(source_unit)
        for unit in freshly_dirty:
            push(("rates", self.class_of[unit]))

    #: Composite codes carry one predicate per bit of an int64 scatter
    #: buffer; splitters with more predicates fall back to sequential
    #: chunks (equivalent refinement, one extra mark/split round per chunk).
    _CODE_BITS = 62

    #: A splitter whose packed tau-closure has at most this many non-zero
    #: bytes takes the scalar path: dict/set bookkeeping beats the
    #: vectorised gather pipeline's fixed per-call numpy overhead on the
    #: small closures that dominate refinement of bushy products, while
    #: deep tau-chains (large closures) keep the vectorised path.
    _SPARSE_BYTES = 48

    def _finish_binary(self, push) -> None:
        """Split every touched block into marked/unmarked and re-enqueue."""
        for marked, rest in self.part.split_marked():
            if rest < 0:
                continue  # the whole block satisfied the predicate
            push(("block", marked))
            push(("block", rest))
            self._track_dirty([marked], push)

    def _finish_codes(self, key_of, push) -> None:
        """Split every touched block by its members' codes and re-enqueue.

        Splitting each dirty block by its members' composite codes is
        equivalent to splitting by each predicate in sequence — both reach
        the common refinement and every created piece is re-enqueued — but
        costs a single mark/split cycle per splitter instead of one per
        predicate.
        """
        part = self.part
        for marked, rest in part.split_marked():
            created = part.split_by_key(marked, key_of)
            if rest < 0:
                if not created:
                    continue  # uniform codes across the whole block
                pieces = [marked, *created]
                moved = created
            else:
                pieces = [rest, marked, *created]
                moved = [marked, *created]
            for piece in pieces:
                push(("block", piece))
            self._track_dirty(moved, push)

    def _apply_binary(self, sccs: np.ndarray, push) -> None:
        """Split every block by membership in the single predicate ``sccs``."""
        units = _csr_flat(self._unit_off, sccs)
        if units.size:
            self.part.mark_all(units, assume_unique=True)
            self._finish_binary(push)

    def _scatter_and_split(
        self,
        sccs: np.ndarray,
        codes: np.ndarray,
        push,
        own: Optional[np.ndarray] = None,
        own_bits: int = 0,
    ) -> None:
        """One vectorised mark/split round over the touched SCCs and codes.

        ``own_bits`` are the code bits of input-action predicates of the
        splitter whose units are ``own``: those units ignore them (the
        input own-block rule), so the predicates never split the splitter.
        """
        part = self.part
        unit_off = self._unit_off
        units = _csr_flat(unit_off, sccs)
        if not units.size:
            return
        counts = unit_off[sccs + 1] - unit_off[sccs]
        unit_code = self._unit_code
        unit_code[units] = np.repeat(codes, counts)
        if own_bits:
            unit_code[own] &= ~own_bits
            units = units[unit_code[units] != 0]
            if not units.size:
                return
        part.mark_all(units, assume_unique=True)
        self._finish_codes(unit_code.__getitem__, push)

    def _flush_dirty(self, push) -> None:
        """Re-bucket every stale stable unit; re-enqueue the changed classes."""
        for unit in self._dirty:
            changed = self._assign_rate_class(unit)
            if changed:
                for rate_class in changed:
                    push(("rates", rate_class))
        self._dirty.clear()

    def _run(self) -> None:
        raise NotImplementedError  # pragma: no cover - subclasses implement

    # ----------------------------------------------------------------- results
    def state_partition(self) -> Partition:
        self._run()
        blocks = [
            frozenset(
                state
                for unit in self.part.members(block)
                for state in self.unit_states[unit]
            )
            for block in self.part.blocks()
        ]
        return _canonical_partition(blocks)

    def quotient(self, name: Optional[str] = None) -> IOIMC:
        return _build_weak_quotient(
            self.model,
            self.condensation,
            self.state_partition(),
            name,
            precomputed=(
                self._vis_src,
                self._vis_aid,
                self._vis_off,
                self._gap_scc,
                self._gap_aid,
                self._stable_flags,
            ),
        )


class _WeakSplitterEngine(_WeakEngineBase):
    """Worklist-of-splitters weak engine (the PR 6 design).

    One splitter is processed per worklist iteration; its predicates — the
    backward tau-closure of the splitter's SCCs and, per visible action, the
    weak in-edge sources of that closure — are re-derived on every round
    from a bit-packed backward-reachability matrix over the condensation
    (``num_sccs^2`` bits, built once; above :data:`_DENSE_REACH_LIMIT` SCCs
    a memoised per-query BFS takes over).  Kept both as the fallback for
    models whose saturated weak relation would be superlinear (the closure
    engine's cap) and for differential testing against the closure engine.
    """

    def __init__(self, model: IOIMC, respect_labels: bool, rate_digits: int):
        super().__init__(model, respect_labels, rate_digits)
        cond = self.condensation
        num_sccs = cond.num_sccs
        # Visible in-edges grouped by target SCC: the base class already
        # keeps them as one deduplicated flat (aid, source) CSR, so "all
        # in-edges of a closure" is a single repeat/cumsum gather instead of
        # a Python loop over SCCs.  The scalar sparse path below walks plain
        # Python lists of the same rows — no numpy scalar boxing.
        self._edge_aid = self._vis_aid
        self._edge_src = self._vis_src
        self._edge_off = self._vis_off
        self._edge_aid_l = self._vis_aid.tolist()
        self._edge_src_l = self._vis_src.tolist()
        self._edge_off_l = self._vis_off.tolist()
        # Input gaps arrive from the base class in the same layout (the
        # "source" of a gap edge is the SCC itself — the implicit input
        # self-loop): ``_gap_aid``/``_gap_scc``/``_gap_off``.
        # Exclusive upper bound on the action ids above (the boolean
        # dedup/group scatter of the vectorised path is (bound, num_sccs)).
        top = 0
        if self._edge_aid.size:
            top = int(self._edge_aid.max()) + 1
        if self._gap_aid.size:
            top = max(top, int(self._gap_aid.max()) + 1)
        self._aid_bound = top
        # Dense backward tau-reachability: bit-packed row `s` holds the SCCs
        # that tau-reach `s` (uint8 words, MSB-first to match `unpackbits`).
        # One descending-id sweep (predecessors carry larger ids) ORs each
        # predecessor row in place, so every later closure query is a word-OR
        # reduction plus one `unpackbits` instead of a Python BFS.  Memory is
        # num_sccs^2 *bits*; above the limit the engine falls back to the
        # memoised BFS on the condensation.
        self._ancestors: Optional[np.ndarray] = None
        if 0 < num_sccs <= _DENSE_REACH_LIMIT:
            width = (num_sccs + 7) >> 3
            ancestors = np.zeros((num_sccs, width), dtype=np.uint8)
            for scc in range(num_sccs - 1, -1, -1):
                row = ancestors[scc]
                row[scc >> 3] |= 0x80 >> (scc & 7)
                for predecessor in cond.tau_pred[scc]:
                    row |= ancestors[predecessor]
            self._ancestors = ancestors

    #: A splitter whose packed tau-closure has at most this many non-zero
    #: bytes takes the scalar path: dict/set bookkeeping beats the
    #: vectorised gather pipeline's fixed per-call numpy overhead on the
    #: small closures that dominate refinement of bushy products, while
    #: deep tau-chains (large closures) keep the vectorised path.
    _SPARSE_BYTES = 48

    def _closure_idx(self, seeds) -> np.ndarray:
        """Backward tau-closure of the seed SCCs as an index array."""
        ancestors = self._ancestors
        if ancestors is not None:
            seed_list = seeds if isinstance(seeds, np.ndarray) else list(seeds)
            if len(seed_list) == 1:
                packed = ancestors[int(seed_list[0])]
            else:
                packed = np.bitwise_or.reduce(ancestors[seed_list], axis=0)
            bits = np.unpackbits(packed, count=self.condensation.num_sccs)
            return np.flatnonzero(bits)
        closure = self.condensation.backward_closure_cached(
            seeds if isinstance(seeds, frozenset) else frozenset(int(s) for s in seeds)
        )
        return np.fromiter(closure, dtype=np.int64, count=len(closure))

    def _or_rows(self, ids: List[int]) -> np.ndarray:
        """OR of the packed ancestor rows ``ids`` (chained ``|`` for small
        sets — ``ufunc.reduce`` carries ~10x the fixed overhead there)."""
        ancestors = self._ancestors
        if len(ids) == 1:
            return ancestors[ids[0]]
        if len(ids) <= 8:
            acc = ancestors[ids[0]] | ancestors[ids[1]]
            for scc in ids[2:]:
                acc |= ancestors[scc]
            return acc
        return np.bitwise_or.reduce(ancestors[ids], axis=0)

    @staticmethod
    def _decode(packed: np.ndarray, nzb: np.ndarray) -> List[int]:
        """Set bits of a packed row as a sorted id list (sparse byte walk)."""
        out: List[int] = []
        extend = out.extend
        for base, byte in zip((nzb << 3).tolist(), packed[nzb].tolist()):
            extend(base + offset for offset in _BYTE_BITS[byte])
        return out

    def _apply_binary_seq(self, reach, push) -> None:
        """Binary split by a small iterable of closure SCCs (scalar marks)."""
        mark = self.part.mark
        scc_units = self.scc_units
        for scc in reach:
            for unit in scc_units[scc]:
                mark(unit)
        self._finish_binary(push)

    def _process_sparse(self, reach: List[int], own: List[int], push) -> None:
        """Scalar path for splitters with small tau-closures.

        Builds the visible-action predicates with dict/set bookkeeping and
        marks units one by one — on the ~tens-of-SCCs closures that dominate
        refinement this beats the vectorised pipeline's fixed numpy call
        overhead — then runs the same composite-code mark/split rounds as
        the dense path.  The splitter's ``own`` units ignore its
        input-action predicates.
        """
        edge_aid = self._edge_aid_l
        edge_src = self._edge_src_l
        edge_off = self._edge_off_l
        input_gaps = self.input_gaps
        buckets: Dict[int, Set[int]] = {}
        for scc in reach:
            for position in range(edge_off[scc], edge_off[scc + 1]):
                aid = edge_aid[position]
                source = edge_src[position]
                bucket = buckets.get(aid)
                if bucket is None:
                    buckets[aid] = {source}
                else:
                    bucket.add(source)
            for aid in input_gaps[scc]:
                bucket = buckets.get(aid)
                if bucket is None:
                    buckets[aid] = {scc}
                else:
                    bucket.add(scc)
        if not buckets:
            self._apply_binary_seq(reach, push)
            return
        predicates: List[List[int]] = [reach]
        is_input = [False]
        input_ids = self._input_ids
        for aid, sources in buckets.items():
            packed = self._or_rows(list(sources))
            predicates.append(self._decode(packed, packed.nonzero()[0]))
            is_input.append(aid in input_ids)
        own_set = set(own)
        mark = self.part.mark
        scc_units = self.scc_units
        for begin in range(0, len(predicates), self._CODE_BITS):
            chunk = predicates[begin : begin + self._CODE_BITS]
            codes: Dict[int, int] = {}
            get = codes.get
            bit = 1
            own_bits = 0
            for predicate, input_predicate in zip(chunk, is_input[begin:]):
                for scc in predicate:
                    codes[scc] = get(scc, 0) | bit
                if input_predicate:
                    own_bits |= bit
                bit <<= 1
            unit_code: Dict[int, int] = {}
            for scc, value in codes.items():
                for unit in scc_units[scc]:
                    if unit in own_set:
                        if not value & ~own_bits:
                            continue
                        unit_code[unit] = value & ~own_bits
                    else:
                        unit_code[unit] = value
                    mark(unit)
            self._finish_codes(unit_code.__getitem__, push)

    def _process(self, splitter, push) -> None:
        kind, index = splitter
        ancestors = self._ancestors
        if kind == "rates":
            self._flush_dirty(push)
            members = self.class_members[index]
            if not members:
                return  # class emptied by re-bucketing
            seeds = {self.unit_scc[unit] for unit in members}
            if ancestors is None:
                self._apply_binary(self._closure_idx(frozenset(seeds)), push)
                return
            packed = self._or_rows(list(seeds))
            nzb = packed.nonzero()[0]
            if nzb.size <= self._SPARSE_BYTES:
                self._apply_binary_seq(self._decode(packed, nzb), push)
            else:
                self._apply_binary(
                    np.flatnonzero(
                        np.unpackbits(packed, count=self.condensation.num_sccs)
                    ),
                    push,
                )
            return

        units = self.part.members(index)  # snapshot
        # tau predicate (first entry): can reach the splitter via internal
        # moves alone.  Visible predicates (one per action): a weak `a` move
        # into the splitter is an `a` transition whose target tau-reaches the
        # splitter, taken from any state that tau-reaches the transition's
        # source; implicit input self-loops contribute the gap SCCs inside
        # the reach themselves.
        num_sccs = self.condensation.num_sccs
        if ancestors is None:
            self._process_fallback(units, push)
            return
        if len(units) == 1:
            tau_packed = ancestors[self.unit_scc[units[0]]]
        elif len(units) <= 8:
            tau_packed = self._or_rows([self.unit_scc[unit] for unit in units])
        else:
            tau_packed = np.bitwise_or.reduce(
                ancestors[self._unit_scc_arr[units]], axis=0
            )
        nzb = tau_packed.nonzero()[0]
        if nzb.size <= self._SPARSE_BYTES:
            self._process_sparse(self._decode(tau_packed, nzb), units, push)
            return
        # Vectorised path for large closures (deep tau structure): the CSR
        # gathers pull every in-edge of the closure in one shot, a stable
        # argsort groups them by action, and the packed ancestor rows are
        # OR-reduced per group (2-D ``reduceat`` is pathologically slow
        # here, a per-group ``reduce`` over the contiguous gather is not);
        # membership is then tested only on the SCCs of the union, so no
        # predicate pays an O(num_sccs) scan of its own.
        reach = np.flatnonzero(np.unpackbits(tau_packed, count=num_sccs))
        flat = _csr_flat(self._edge_off, reach)
        aids = self._edge_aid[flat]
        sources = self._edge_src[flat]
        gap_flat = _csr_flat(self._gap_off, reach)
        if gap_flat.size:
            aids = np.concatenate([aids, self._gap_aid[gap_flat]])
            sources = np.concatenate([sources, self._gap_scc[gap_flat]])
        if not aids.size:
            self._apply_binary(reach, push)
            return
        # Dedup + group by action via one boolean scatter — a hash-based
        # `np.unique` on a combined key is far slower on the big splitters
        # that reach this path, and the same source feeds many closure
        # targets, so every duplicate would gather a full ancestor row in
        # the per-group OR below.
        seen = np.zeros((self._aid_bound, num_sccs), dtype=bool)
        seen[aids, sources] = True
        groups = np.flatnonzero(seen.any(axis=1))
        group_packed = np.empty((groups.size, ancestors.shape[1]), dtype=np.uint8)
        for position, aid in enumerate(groups.tolist()):
            srcs = seen[aid].nonzero()[0]
            if srcs.size == 1:
                group_packed[position] = ancestors[srcs[0]]
            else:
                np.bitwise_or.reduce(
                    ancestors[srcs], axis=0, out=group_packed[position]
                )
        all_packed = np.concatenate([tau_packed[None, :], group_packed], axis=0)
        is_input = [False, *(aid in self._input_ids for aid in groups.tolist())]
        own = np.asarray(units, dtype=np.int64)
        for begin in range(0, all_packed.shape[0], self._CODE_BITS):
            chunk = all_packed[begin : begin + self._CODE_BITS]
            union = np.bitwise_or.reduce(chunk, axis=0)
            touched = np.flatnonzero(np.unpackbits(union, count=num_sccs))
            membership = (chunk[:, touched >> 3] & _BIT_MASK[touched & 7]) != 0
            codes = _CODE_WEIGHTS[: chunk.shape[0]] @ membership
            own_bits = _input_bits(is_input[begin : begin + chunk.shape[0]])
            self._scatter_and_split(touched, codes, push, own, own_bits)

    def _process_fallback(self, units: List[int], push) -> None:
        """Block-splitter path when the packed reach matrix is unavailable
        (models above ``_DENSE_REACH_LIMIT``): memoised BFS closures per
        (action, sources) group, folded into composite codes."""
        num_sccs = self.condensation.num_sccs
        seeds = frozenset(self.unit_scc[unit] for unit in units)
        reach = self._closure_idx(seeds)
        flat = _csr_flat(self._edge_off, reach)
        aids = self._edge_aid[flat]
        sources = self._edge_src[flat]
        gap_flat = _csr_flat(self._gap_off, reach)
        if gap_flat.size:
            aids = np.concatenate([aids, self._gap_aid[gap_flat]])
            sources = np.concatenate([sources, self._gap_scc[gap_flat]])
        if not aids.size:
            self._apply_binary(reach, push)
            return
        key = np.unique(aids * num_sccs + sources)
        group_src = key % num_sccs
        group_aid = key // num_sccs
        starts = np.concatenate(
            ([0], np.flatnonzero(group_aid[1:] != group_aid[:-1]) + 1)
        )
        predicates = [reach]
        is_input = [False]
        bounds = [*starts.tolist(), key.size]
        for low, high in zip(bounds[:-1], bounds[1:]):
            predicates.append(self._closure_idx(group_src[low:high]))
            is_input.append(int(group_aid[low]) in self._input_ids)
        own = np.asarray(units, dtype=np.int64)
        for begin in range(0, len(predicates), self._CODE_BITS):
            chunk = predicates[begin : begin + self._CODE_BITS]
            idx = np.concatenate(chunk)
            bits = np.concatenate(
                [
                    np.full(pred.size, 1 << position, dtype=np.int64)
                    for position, pred in enumerate(chunk)
                ]
            )
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            bits = bits[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(idx[1:] != idx[:-1]) + 1)
            )
            self._scatter_and_split(
                idx[starts],
                np.bitwise_or.reduceat(bits, starts),
                push,
                own,
                _input_bits(is_input[begin : begin + len(chunk)]),
            )

    def _run(self) -> None:
        if self._refined:
            return
        splitters = [("block", block) for block in self.part.blocks()]
        splitters.extend(("rates", index) for index in range(len(self.class_members)))
        refine(splitters, self._process)
        self._refined = True


class _SaturationOverflow(Exception):
    """The saturated weak relation exceeded the closure engine's linear cap."""

    def __init__(self, num_sccs: int, cap: int):
        super().__init__(num_sccs, cap)
        self.num_sccs = num_sccs
        self.cap = cap


class _WeakClosureEngine(_WeakEngineBase):
    """Closure-then-strong weak engine with batched-frontier refinement.

    Saturation happens exactly once, at construction: a descending-id sweep
    over the condensation DAG (tau predecessors carry larger SCC ids, so
    every predecessor row is final when a successor folds it in)
    materialises, per SCC,

    * its backward tau-closure — the SCCs that tau-reach it — and
    * its saturated weak-visible in-edges: every ``(action, source SCC)``
      pair whose source weakly performs the action into the SCC
      (``τ* a τ*``: direct in-edges with backward-closed sources, implicit
      input self-loops as the gap SCC's backward closure, everything the
      tau predecessors accumulated), encoded
      ``action_slot * num_sccs + source``.

    Both live in flat CSR arrays, so a splitter's predicates are plain
    stacked row gathers — no per-splitter closure re-derivation, which is
    what the splitter engine spends most of its refinement time on.
    Refinement then runs in **batched frontier rounds**: every round pops
    all pending blocks and rate classes together, gathers their predicate
    rows in bulk, folds them into composite codes (one bit per predicate,
    :data:`_WeakEngineBase._CODE_BITS` per chunk) and applies them with the
    vectorised mark/split machinery — one round costs O(frontier weak
    in-edges) instead of one Python worklist iteration per splitter.

    Construction raises :class:`_SaturationOverflow` once the retained
    entries exceed ``max(SATURATION_FLOOR, SATURATION_FACTOR * num_sccs)``
    — saturating a deep tau-chain is inherently quadratic — and the caller
    falls back to the splitter engine, which computes the identical
    partition from per-splitter closures.
    """

    def __init__(self, model: IOIMC, respect_labels: bool, rate_digits: int):
        super().__init__(model, respect_labels, rate_digits)
        cond = self.condensation
        num_sccs = cond.num_sccs
        tau_pred = cond.tau_pred
        budget = max(SATURATION_FLOOR, SATURATION_FACTOR * num_sccs)
        total = 0

        # Backward tau-closure rows (sorted, self included).  SCCs with no
        # tau predecessors — the vast majority on bushy products — get a
        # zero-copy view into one shared arange instead of a fresh array.
        arange = np.arange(num_sccs, dtype=np.int64)
        bck: List[np.ndarray] = [_EMPTY_I64] * num_sccs
        nontrivial = False
        for scc in range(num_sccs - 1, -1, -1):
            preds = tau_pred[scc]
            if not preds:
                bck[scc] = arange[scc : scc + 1]
                total += 1
                continue
            nontrivial = True
            row = _sorted_unique(
                np.concatenate([arange[scc : scc + 1], *(bck[p] for p in preds)])
            )
            bck[scc] = row
            total += row.size
            if total > budget:
                raise _SaturationOverflow(num_sccs, budget)
        sizes = np.fromiter((row.size for row in bck), dtype=np.int64, count=num_sccs)
        self._bck_off = np.concatenate(([0], np.cumsum(sizes)))
        if not num_sccs:
            self._bck_val = _EMPTY_I64
        elif nontrivial:
            self._bck_val = np.concatenate(bck)
        else:
            self._bck_val = arange

        # Compact action table: only actions occurring as weak-visible moves
        # (or input gaps) get a code slot, keeping the packed keys small.
        gap_scc = self._gap_scc
        gap_aid = self._gap_aid
        sat = _sorted_unique(np.concatenate([self._vis_aid, gap_aid]))
        #: Action id of each saturated-edge slot (sorted for determinism).
        self.sat_actions: List[int] = sat.tolist()
        num_actions = sat.size
        #: Per slot: whether the action is an input (own-block rule).
        self._sat_input = np.fromiter(
            (aid in self._input_ids for aid in self.sat_actions),
            dtype=bool,
            count=num_actions,
        )
        if num_actions and num_actions * num_sccs * num_sccs >= 2**62:
            # The packed (target, action, source) keys of the vectorised
            # direct-edge build would overflow int64; treat like a blown
            # saturation cap and let the splitter engine take over.
            raise _SaturationOverflow(num_sccs, budget)

        # Direct weak-visible arrivals, globally vectorised: every explicit
        # in-edge (and input gap, whose "source" is the SCC itself)
        # contributes ``slot * num_sccs + c`` for each SCC ``c`` backward-
        # closing into its source, keyed by target SCC — one sort over the
        # expanded edge set replaces the per-edge array arithmetic of the
        # original per-SCC build.
        aid_all = np.concatenate([self._vis_aid, gap_aid])
        src_all = np.concatenate([self._vis_src, gap_scc])
        dst_all = np.concatenate(
            [np.repeat(arange, np.diff(self._vis_off)), gap_scc]
        )
        direct: List[np.ndarray] = [_EMPTY_I64] * num_sccs
        if aid_all.size:
            cnt = self._bck_off[src_all + 1] - self._bck_off[src_all]
            expanded = int(cnt.sum())
            if expanded > 8 * budget:
                raise _SaturationOverflow(num_sccs, 8 * budget)
            slot_all = np.searchsorted(sat, aid_all)
            codes = np.repeat(slot_all, cnt) * num_sccs + self._bck_val[
                _csr_flat(self._bck_off, src_all)
            ]
            span = num_actions * num_sccs
            keys = _sorted_unique(np.repeat(dst_all, cnt) * span + codes)
            dsts = keys // span
            sorted_codes = keys - dsts * span
            bounds = np.concatenate(
                ([0], np.flatnonzero(dsts[1:] != dsts[:-1]) + 1, [keys.size])
            )
            lows = bounds[:-1]
            for target, low, high in zip(
                dsts[lows].tolist(), lows.tolist(), bounds[1:].tolist()
            ):
                direct[target] = sorted_codes[low:high]

        # Saturated weak-visible in-edge rows: everything arriving directly
        # plus everything the tau predecessors accumulated (their rows are
        # final first — descending ids).
        win: List[np.ndarray] = [_EMPTY_I64] * num_sccs
        for scc in range(num_sccs - 1, -1, -1):
            preds = tau_pred[scc]
            row = direct[scc]
            if preds:
                parts = [row] if row.size else []
                parts.extend(win[p] for p in preds if win[p].size)
                if not parts:
                    row = _EMPTY_I64
                elif len(parts) == 1:
                    row = parts[0]
                else:
                    row = _sorted_unique(np.concatenate(parts))
            win[scc] = row
            total += row.size
            if total > budget:
                raise _SaturationOverflow(num_sccs, budget)

        #: Retained closure-matrix entries — the benchmark tier pins this
        #: linear on tau-chains with a tracemalloc test.
        self.saturation_entries = total
        sizes = np.fromiter((row.size for row in win), dtype=np.int64, count=num_sccs)
        self._win_off = np.concatenate(([0], np.cumsum(sizes)))
        self._win_val = np.concatenate(win) if num_sccs else _EMPTY_I64

    #: Exclusive bound of the packed ``unit * P + pred`` keys of one round.
    _KEY_LIMIT = 2**62

    def _refine_round(self, blocks: List[int], classes: List[int], push) -> None:
        """One batched frontier round over all pending splitters at once.

        Every predicate of the round — per rate class the backward closure
        of its members' SCCs, per block its backward closure plus one
        saturated in-edge set per visible action — is an SCC set.  The round
        therefore tags each closure/in-edge entry with its predicate id
        (``scc * P + pred``), deduplicates the whole frontier with a single
        sort, spreads the entries over the SCC's units (one unit per SCC
        unless label sets split it), drops each unit's input-action
        predicates of its own splitter block (the input own-block rule) and
        reads each touched unit's *signature* (its sorted predicate list)
        straight off the group boundaries.  Splitting every touched block by
        signature id reaches the same common refinement as splitting by each
        predicate in sequence, for one vectorised mark/split pass per round
        instead of one per splitter.
        """
        num_sccs = self.condensation.num_sccs
        num_actions = len(self.sat_actions)
        unit_scc = self._unit_scc_arr
        bck_off, bck_val = self._bck_off, self._bck_val
        class_seeds: List[np.ndarray] = []
        for index in classes:
            members = self.class_members[index]
            if not members:
                continue  # class emptied by re-bucketing
            class_seeds.append(
                _sorted_unique(
                    unit_scc[np.fromiter(members, dtype=np.int64, count=len(members))]
                )
            )
        k_cls = len(class_seeds)
        k_blk = len(blocks)
        vis_base = k_cls + k_blk
        preds_total = vis_base + k_blk * num_actions
        if not preds_total:
            return
        num_units = len(self.unit_states)  # >= num_sccs
        splitters = len(blocks) + len(classes)
        if splitters > 1 and preds_total >= self._KEY_LIMIT // num_units:
            # Packed (unit, predicate) keys would overflow int64: run the
            # frontier as two smaller rounds (any current block or class is
            # a sound splitter, and every piece they cut off is re-pushed).
            half_blocks, half_classes = len(blocks) // 2, len(classes) // 2
            if not half_blocks + half_classes:  # one block and one class
                half_blocks = 1
            self._refine_round(blocks[:half_blocks], classes[:half_classes], push)
            self._refine_round(blocks[half_blocks:], classes[half_classes:], push)
            return
        streams: List[np.ndarray] = []
        if k_cls:
            seeds = np.concatenate(class_seeds)
            owner = np.repeat(
                np.arange(k_cls, dtype=np.int64),
                np.fromiter((s.size for s in class_seeds), dtype=np.int64, count=k_cls),
            )
            cnt = bck_off[seeds + 1] - bck_off[seeds]
            streams.append(
                bck_val[_csr_flat(bck_off, seeds)] * preds_total
                + np.repeat(owner, cnt)
            )
        if k_blk:
            member_units, member_counts = self.part.members_flat(blocks)
            sccs = unit_scc[member_units]
            owner = np.repeat(np.arange(k_blk, dtype=np.int64), member_counts)
            cnt = bck_off[sccs + 1] - bck_off[sccs]
            streams.append(
                bck_val[_csr_flat(bck_off, sccs)] * preds_total
                + np.repeat(owner + k_cls, cnt)
            )
            win_off, win_val = self._win_off, self._win_val
            wcnt = win_off[sccs + 1] - win_off[sccs]
            wvals = win_val[_csr_flat(win_off, sccs)]
            if wvals.size:
                slots = wvals // num_sccs
                sources = wvals - slots * num_sccs
                streams.append(
                    sources * preds_total
                    + (vis_base + np.repeat(owner, wcnt) * num_actions + slots)
                )
        codes = _sorted_unique(np.concatenate(streams))
        owners = codes // preds_total
        preds = codes - owners * preds_total
        unit_off = self._unit_off
        if self._multi_unit:
            # Some SCC holds several units (label sets), which may sit in
            # different blocks: key the entries by unit from here on.
            cnt = unit_off[owners + 1] - unit_off[owners]
            codes = np.sort(
                _csr_flat(unit_off, owners) * preds_total + np.repeat(preds, cnt)
            )
            owners = codes // preds_total
            preds = codes - owners * preds_total
        # Without multi-unit SCCs unit ids coincide with SCC ids.
        if k_blk and self._sat_input.any():
            # Input own-block rule: a unit ignores the input-action
            # predicates of the splitter block it belongs to.
            visible = preds - vis_base
            candidates = np.flatnonzero(visible >= 0)
            splitter = visible[candidates] // num_actions
            slot = visible[candidates] - splitter * num_actions
            own = self._sat_input[slot] & (
                np.asarray(blocks, dtype=np.int64)[splitter]
                == self.part._block_of[owners[candidates]]
            )
            if own.any():
                keep = np.ones(codes.size, dtype=bool)
                keep[candidates[own]] = False
                owners = owners[keep]
                preds = preds[keep]
                if not owners.size:
                    return
        bounds = np.concatenate(
            ([0], np.flatnonzero(owners[1:] != owners[:-1]) + 1, [owners.size])
        )
        lows = bounds[:-1]
        touched = owners[lows]
        group_sizes = np.diff(bounds)
        # Signature ids must be injective on signature equality (two units of
        # one block with equal signatures must NOT separate): single-predicate
        # groups are factorised vectorised, longer groups — never equal to a
        # singleton — hash their predicate slice into a disjoint id range.
        sig_ids = np.empty(touched.size, dtype=np.int64)
        single = group_sizes == 1
        single_idx = np.flatnonzero(single)
        next_id = 0
        if single_idx.size:
            singles = preds[lows[single_idx]]
            uniq = _sorted_unique(singles)
            sig_ids[single_idx] = np.searchsorted(uniq, singles)
            next_id = uniq.size
        multi_idx = np.flatnonzero(~single)
        if multi_idx.size:
            highs = bounds[1:]
            sig_of: Dict[bytes, int] = {}
            for position in multi_idx.tolist():
                key = preds[lows[position] : highs[position]].tobytes()
                code = sig_of.get(key)
                if code is None:
                    code = next_id + len(sig_of)
                    sig_of[key] = code
                sig_ids[position] = code
        self._unit_code[touched] = sig_ids
        self.part.mark_all(touched, assume_unique=True)
        pieces, moved = self.part.split_marked_by_codes(self._unit_code)
        for piece in pieces:
            push(("block", piece))
        if moved:
            self._track_dirty(moved, push)

    def _run(self) -> None:
        if self._refined:
            return
        pending_blocks: Set[int] = set(self.part.blocks())
        pending_classes: Set[int] = set(range(len(self.class_members)))

        def push(splitter) -> None:
            kind, index = splitter
            if kind == "block":
                pending_blocks.add(index)
            else:
                pending_classes.add(index)

        while pending_blocks or pending_classes or self._dirty:
            self._flush_dirty(push)
            blocks = sorted(pending_blocks)
            classes = sorted(pending_classes)
            pending_blocks.clear()
            pending_classes.clear()
            self._refine_round(blocks, classes, push)
        self._refined = True


# ---------------------------------------------------------------------------
# quotient construction
# ---------------------------------------------------------------------------

def _block_map(partition: Partition) -> Dict[int, int]:
    block_of: Dict[int, int] = {}
    for block_id, block in enumerate(partition):
        for state in block:
            block_of[state] = block_id
    return block_of


def quotient_strong(model: IOIMC, partition: Partition, name: str | None = None) -> IOIMC:
    """Quotient of ``model`` under a strong bisimulation partition."""
    block_of = _block_map(partition)
    input_ids = model.signature.input_ids
    quotient = IOIMC(name if name is not None else model.name, model.signature)
    representatives = [min(block) for block in partition]
    for block_id, block in enumerate(partition):
        rep = representatives[block_id]
        quotient.add_state(labels=model.labels(rep), name=f"B{block_id}")
    for block_id, block in enumerate(partition):
        rep = representatives[block_id]
        pairs: Dict[Tuple[int, int], None] = {}
        for aid, target in model.interactive_pairs(rep):
            target_block = block_of[target]
            if target_block == block_id and aid in input_ids:
                continue  # implicit input self-loop
            pairs[(aid, target_block)] = None
        if pairs:
            quotient._add_interactive_bulk(block_id, list(pairs))
        rates: Dict[int, float] = {}
        for target, rate in model.markovian_dict(rep).items():
            if block_of[target] == block_id:
                continue  # intra-class movement is invisible in the quotient
            rates[block_of[target]] = rates.get(block_of[target], 0.0) + rate
        for target_block, total in rates.items():
            quotient.add_markovian(block_id, total, target_block)
    quotient.set_initial(block_of[model.initial])
    return quotient


def _build_weak_quotient(
    model: IOIMC,
    condensation: TauCondensation,
    partition: Partition,
    name: str | None = None,
    precomputed: Optional[tuple] = None,
) -> IOIMC:
    """Weak quotient from a partition and the shared tau-SCC condensation.

    The forward analogue of the closure engine's saturation sweep: one
    ascending-id pass over the condensation (tau successors carry smaller
    ids, so successor rows are final first) folds, per SCC, the blocks
    reachable via internal moves into sorted numpy rows; visible reach is
    one global edge expansion (every visible edge and input gap contributes
    ``slot * num_blocks + block`` for each block in its target's tau row,
    keyed by source SCC, one sort-dedup total) followed by the same
    ascending accumulation.  Assembly is one global decode of the
    representatives' rows into pair lists — no per-state closure frozensets
    and no per-SCC Python set unions.

    An input move from a block back into itself is left implicit (no
    explicit self-loop), and a tau move inside a block is dropped.  These
    are the input own-block and divergence rules of
    :func:`weak_bisimulation_partition`, so the quotient realises the
    relation the partition was computed for, and minimising the quotient
    again finds nothing to merge.

    ``precomputed``, when given, is the weak engines' already-extracted
    ``(vis_src, vis_aid, vis_off, gap_scc, gap_aid, stable_flags)`` edge
    data (visible in-edge CSR keyed by target SCC, input-gap pairs, a
    per-state stability bytearray) — skipping the transition re-walk.
    """
    num_states = model.num_states
    num_blocks = len(partition)
    num_sccs = condensation.num_sccs
    block_arr = np.empty(num_states, dtype=np.int64)
    for block_id, block in enumerate(partition):
        for state in block:
            block_arr[state] = block_id
    scc_of = condensation.scc_of
    tau_succ = condensation.tau_succ
    internal_mask = model.signature.internal_mask
    input_ids = model.signature.input_ids
    mtrans = model._mtrans

    scc_arr = np.asarray(scc_of, dtype=np.int64)
    if precomputed is not None:
        vis_src, vis_aid, vis_off, gap_scc, gap_aid, stable_flags = precomputed
        src = np.concatenate([vis_src, gap_scc])
        aid = np.concatenate([vis_aid, gap_aid])
        dst = np.concatenate(
            [np.repeat(np.arange(num_sccs, dtype=np.int64), np.diff(vis_off)), gap_scc]
        )
        stable_idx = np.flatnonzero(np.frombuffer(bytes(stable_flags), dtype=np.uint8))
    else:
        # Flat visible forward edges (source SCC, action, target SCC); input
        # gaps ride along as self-edges (the implicit weak self-loop reaches
        # the state's own tau closure).  Gap detection records one
        # input-restricted mask int per state and runs one vectorised
        # bit-test per input action afterwards — not one Python test per
        # (state, input) pair.
        input_id_list = sorted(input_ids)
        input_mask = model.signature.input_mask
        enabled_mask = model.enabled_mask
        itrans = model._itrans
        vec_gaps = bool(input_id_list) and input_id_list[-1] < 63
        e_src: List[int] = []
        e_aid: List[int] = []
        e_dst: List[int] = []
        imask_vals: List[int] = []
        stable = bytearray(num_states)
        for state in range(num_states):
            scc = scc_of[state]
            for aid_, target in itrans[state]:
                if (internal_mask >> aid_) & 1:
                    continue
                e_src.append(scc)
                e_aid.append(aid_)
                e_dst.append(scc_of[target])
            mask = enabled_mask(state)
            if not mask & internal_mask:
                stable[state] = 1
            if vec_gaps:
                imask_vals.append(mask & input_mask)
            else:
                for aid_ in input_id_list:
                    if not (mask >> aid_) & 1:
                        e_src.append(scc)
                        e_aid.append(aid_)
                        e_dst.append(scc)
        gap_src_parts: List[np.ndarray] = []
        gap_aid_parts: List[np.ndarray] = []
        if vec_gaps:
            imask_arr = np.fromiter(imask_vals, dtype=np.int64, count=num_states)
            for aid_ in input_id_list:
                missing = np.flatnonzero(~(imask_arr >> aid_) & 1)
                if missing.size:
                    gap_src_parts.append(scc_arr[missing])
                    gap_aid_parts.append(np.full(missing.size, aid_, dtype=np.int64))
        gap_src = np.concatenate(gap_src_parts) if gap_src_parts else _EMPTY_I64
        gap_aid_arr = np.concatenate(gap_aid_parts) if gap_aid_parts else _EMPTY_I64
        src = np.concatenate([np.asarray(e_src, dtype=np.int64), gap_src])
        aid = np.concatenate([np.asarray(e_aid, dtype=np.int64), gap_aid_arr])
        dst = np.concatenate([np.asarray(e_dst, dtype=np.int64), gap_src])
        stable_idx = np.flatnonzero(np.frombuffer(bytes(stable), dtype=np.uint8))

    # Pass 1 — blocks reachable via internal moves, ascending SCC ids.
    order = np.argsort(scc_arr, kind="stable")
    mem_blocks = block_arr[order]
    mem_off = np.concatenate(
        ([0], np.cumsum(np.bincount(scc_arr, minlength=num_sccs)))
    )
    tau_rows: List[np.ndarray] = [_EMPTY_I64] * num_sccs
    for scc in range(num_sccs):
        row = mem_blocks[mem_off[scc] : mem_off[scc + 1]]
        succs = tau_succ[scc]
        if succs:
            row = np.concatenate([row, *(tau_rows[s] for s in succs)])
        tau_rows[scc] = _sorted_unique(row) if row.size > 1 else row
    tau_sizes = np.fromiter(
        (row.size for row in tau_rows), dtype=np.int64, count=num_sccs
    )
    tau_off = np.concatenate(([0], np.cumsum(tau_sizes)))
    tau_val = np.concatenate(tau_rows) if num_sccs else _EMPTY_I64

    # Pass 2 — direct weak-visible departures per source SCC, globally
    # expanded over the targets' tau rows, then accumulated ascending.
    direct: List[np.ndarray] = [_EMPTY_I64] * num_sccs
    if src.size:
        sat = _sorted_unique(aid)
        span = sat.size * num_blocks
        if num_sccs and span >= 2**62 // num_sccs:
            # Packed (source, slot, block) keys would overflow int64 — far
            # beyond any model that fits in memory.
            raise ModelError(
                f"weak quotient too large: {sat.size} visible actions x "
                f"{num_blocks} blocks x {num_sccs} tau-SCCs overflows the "
                "packed int64 keys"
            )
        slot = np.searchsorted(sat, aid)
        cnt = tau_off[dst + 1] - tau_off[dst]
        codes = np.repeat(slot, cnt) * num_blocks + tau_val[_csr_flat(tau_off, dst)]
        keys = _sorted_unique(np.repeat(src, cnt) * span + codes)
        srcs = keys // span
        key_codes = keys - srcs * span
        bounds = np.concatenate(
            ([0], np.flatnonzero(srcs[1:] != srcs[:-1]) + 1, [keys.size])
        )
        lows = bounds[:-1]
        for source, low, high in zip(
            srcs[lows].tolist(), lows.tolist(), bounds[1:].tolist()
        ):
            direct[source] = key_codes[low:high]
    else:
        sat = _EMPTY_I64
    vis_rows: List[np.ndarray] = [_EMPTY_I64] * num_sccs
    for scc in range(num_sccs):
        row = direct[scc]
        succs = tau_succ[scc]
        if succs:
            parts = [row] if row.size else []
            parts.extend(vis_rows[s] for s in succs if vis_rows[s].size)
            if not parts:
                row = _EMPTY_I64
            elif len(parts) == 1:
                row = parts[0]
            else:
                row = _sorted_unique(np.concatenate(parts))
        vis_rows[scc] = row

    internal_actions = sorted(model.signature.internals)
    tau_id = intern_action(internal_actions[0]) if internal_actions else None

    quotient = IOIMC(name if name is not None else model.name, model.signature)
    model_labels = model._labels
    reps = [min(block) for block in partition]
    for block_id, rep in enumerate(reps):
        quotient.add_state(labels=model_labels[rep], name=f"B{block_id}")

    # Minimal stable representative per block: a descending scatter makes
    # the smallest stable state win the last write.
    stable_rep = np.full(num_blocks, -1, dtype=np.int64)
    if stable_idx.size:
        rev = stable_idx[::-1]
        stable_rep[block_arr[rev]] = rev

    # Global assembly: decode every representative's visible and tau rows at
    # once, drop implicit input self-loops and tau self-block moves with
    # boolean masks, and materialise the pair lists with two C-level zips —
    # the only per-block Python work left is list slicing and the bulk adds.
    rep_scc_arr = scc_arr[np.fromiter(reps, dtype=np.int64, count=num_blocks)]
    block_ids = np.arange(num_blocks, dtype=np.int64)

    vis_sizes = np.fromiter(
        (row.size for row in vis_rows), dtype=np.int64, count=num_sccs
    )
    vis_off = np.concatenate(([0], np.cumsum(vis_sizes)))
    vis_val = np.concatenate(vis_rows) if num_sccs else _EMPTY_I64
    vflat = vis_val[_csr_flat(vis_off, rep_scc_arr)]
    vowner = np.repeat(block_ids, vis_sizes[rep_scc_arr])
    if vflat.size:
        vslots = vflat // num_blocks
        vtargets = vflat - vslots * num_blocks
        input_slot = np.fromiter(
            ((slot_aid in input_ids) for slot_aid in sat.tolist()),
            dtype=bool,
            count=sat.size,
        )
        keep = ~((vtargets == vowner) & input_slot[vslots])
        vowner = vowner[keep]
        vis_pairs = list(zip(sat[vslots[keep]].tolist(), vtargets[keep].tolist()))
    else:
        vis_pairs = []
    voff = np.concatenate(
        ([0], np.cumsum(np.bincount(vowner, minlength=num_blocks)))
    ).tolist()

    tflat = tau_val[_csr_flat(tau_off, rep_scc_arr)]
    towner = np.repeat(block_ids, tau_sizes[rep_scc_arr])
    tkeep = tflat != towner
    ttargets = tflat[tkeep]
    towner = towner[tkeep]
    if ttargets.size and tau_id is None:
        raise AssertionError(
            "internal moves present but the signature declares no internal action"
        )
    tau_pairs = list(zip([tau_id] * ttargets.size, ttargets.tolist()))
    toff = np.concatenate(
        ([0], np.cumsum(np.bincount(towner, minlength=num_blocks)))
    ).tolist()

    for block_id in range(num_blocks):
        pairs = (
            vis_pairs[voff[block_id] : voff[block_id + 1]]
            + tau_pairs[toff[block_id] : toff[block_id + 1]]
        )
        if pairs:
            quotient._add_interactive_bulk(block_id, pairs)

        stable_member = int(stable_rep[block_id])
        if stable_member >= 0:
            rates: Dict[int, float] = {}
            for target, rate in mtrans[stable_member].items():
                target_block = int(block_arr[target])
                if target_block == block_id:
                    continue  # intra-class movement is invisible in the quotient
                rates[target_block] = rates.get(target_block, 0.0) + rate
            for target_block, total in rates.items():
                quotient.add_markovian(block_id, total, target_block)

    quotient.set_initial(int(block_arr[model.initial]))
    return quotient


def quotient_weak(model: IOIMC, partition: Partition, name: str | None = None) -> IOIMC:
    """Quotient of ``model`` under a weak bisimulation partition.

    Per block the construction uses a representative's *weak* transitions:

    * visible actions: one transition per block weakly reachable (input
      self-block loops stay implicit);
    * internal moves: one ``τ`` transition per distinct block reachable via
      internal moves (self-block loops are dropped — weak bisimulation is
      insensitive to them);
    * Markovian transitions: blocks containing a stable state carry that
      state's aggregate rate vector (all stable members of a block agree);
      blocks without stable states are vanishing and get no rates.

    The weak reach sets are derived from the tau-SCC condensation; prefer
    :func:`minimize_weak`, which shares one condensation between the
    partition refinement and this construction.
    """
    return _build_weak_quotient(model, TauCondensation(model), partition, name)


def minimize_strong(
    model: IOIMC,
    respect_labels: bool = True,
    algorithm: str = "closure",
    rate_digits: int = DEFAULT_RATE_DIGITS,
) -> IOIMC:
    """Minimise ``model`` modulo strong bisimulation."""
    partition = strong_bisimulation_partition(
        model, respect_labels=respect_labels, algorithm=algorithm, rate_digits=rate_digits
    )
    return quotient_strong(model, partition)._reachable_part()


def minimize_weak(
    model: IOIMC,
    respect_labels: bool = True,
    algorithm: str = "closure",
    rate_digits: int = DEFAULT_RATE_DIGITS,
) -> IOIMC:
    """Minimise ``model`` modulo weak bisimulation.

    With the closure and splitter engines one tau-SCC condensation is shared
    between the partition refinement and the quotient construction, so the
    internal-closure work happens exactly once per minimisation.
    """
    _check_algorithm(algorithm)
    if algorithm == "signature":
        partition = _weak_partition_signature(model, respect_labels, rate_digits)
        quotient = quotient_weak(model, partition)
    elif _has_no_internal_transitions(model):
        partition = _strong_partition_splitter(
            model, respect_labels, rate_digits, own_inputs_invisible=True
        )
        quotient = quotient_weak(model, partition)
    else:
        quotient = _weak_engine(model, respect_labels, rate_digits, algorithm).quotient()
    # The quotient is fresh and already carries ``model.name``.
    return quotient._reachable_part()

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

Two refinement engines compute each partition:

``algorithm="closure"`` (default)
    The incremental signature refinement of Blom & Orzan (STTT 7(1), 2005),
    in plain Python, at every size.  Per input, :func:`_plain_sets` builds
    each state's sets once: its tau-closure, what it reaches per visible
    action (weakly, ``τ* a τ*``, for the weak relation; implicit input
    self-loops included where a tau step folds them in) and the Markovian
    moves of the states that can let time pass.  :func:`_plain_partition`
    then signs every state once and, after the first round, re-signs only
    the states whose sets read a state that changed block; an input that
    reaches only the state's own block is left out of its signature.  A splitting block keeps its id for its largest
    part, so a state changes block at most log2(n) times.  The strong
    relation runs the same loop with singleton closures, internal actions
    treated as visible, rates on every state and no input own-block rule.
    The name is the one recorded results carry.
``algorithm="signature"``
    The seed implementation: every round recomputes every state's full
    signature and splits blocks by signature equality.  Kept as the reference
    for differential testing; asymptotically slower (O(rounds × states ×
    transitions)) and, on the weak path, quadratic in memory on tau-chains
    (per-state closure frozensets).  It shares no code with the default
    engine, so it stays an independent oracle.

Both engines compute the *same* coarsest partition — the property tests pin
this on the paper's systems and on random DFT corpora.

Before the weak refinement a pre-pass (:func:`_weak_prepass`) shrinks the
input without changing its partition.  Members of one tau-SCC with equal
labels merge: they share their tau-closure.  Then a state whose only move
is one tau into a successor with the same labels joins that successor,
provided every weak input move of the successor reaches its whole
tau-closure (each input is missing there, or moves back into it), as the
state's implicit input self-loops do.  Deep tau chains and dense tau-SCCs
collapse there, before any closure is built.  The refined partition is
lifted back to the input's states.  A tau chain with
an input move at every level neither collapses nor compresses; its closures
stay quadratic in its depth.

The quotient constructions preserve state labels and the analysed
reliability measures; the weak quotient reads the sets the refinement
built, so minimise-then-quotient does the closure work exactly once.
Independently of size, :func:`minimize_weak` returns an input without
internal moves whose partition is discrete as it is.

Maximal progress should be applied *before* minimisation (the reduction
pipeline in :mod:`repro.ioimc.reduction` does so); the algorithms here work on
the transitions they are given.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ModelError
from ..graph import strongly_connected_components
from .actions import ActionSignature, intern_action
from .model import IOIMC
from .partition import canonical_rate

Partition = List[FrozenSet[int]]

#: The available refinement engines: the production refinement and the
#: seed signature refinement it is checked against.
ALGORITHMS = ("closure", "signature")


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ModelError(
            f"unknown bisimulation algorithm {algorithm!r}; choose one of {ALGORITHMS}"
        )


def _canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    """Blocks ordered by smallest member — one canonical form for both engines."""
    return sorted((frozenset(block) for block in blocks), key=min)


def _initial_blocks(model: IOIMC) -> Dict[int, int]:
    """Initial partition map: states grouped by their label sets."""
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
    return _canonical_partition(grouped.values())


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
# the plain refinement, shared by both relations
# ---------------------------------------------------------------------------

class _PlainSets(NamedTuple):
    """Per-state data of :func:`_plain_partition`, built once per input.

    ``input_moves[s]`` holds ``(input id, targets)`` pairs in id order: the
    states ``s`` reaches with the input — weakly (``τ* a τ*``) for the weak
    relation, in one step for the strong one.  An implicit input self-loop
    counts, except at a state whose (weak) moves are its own (no internal
    move leaves it): there the loop reaches only the state itself, which
    no signature lists, so the pair is left out.
    ``out_actions[s]``/``out_reach[s]`` are the same for the other actions
    ``s`` (weakly) enables: its outputs, plus its internal actions under
    the strong relation.

    With internal moves (weak relation only), ``closures[s]`` is the
    tau-closure of ``s`` and ``stable_closure[s]`` its stable members, plus
    the virtual state ``num_states`` (the empty rate vector) when the
    closure reaches a tau-cycle without exit (the divergence rule).
    Otherwise both are ``None`` and every state reads its own rate vector.
    ``rate_moves[t]`` are the Markovian moves of a ``t`` that can let time
    pass, as ``(target, rate, canonical key)``.
    """

    input_ids: List[int]
    input_moves: List[Tuple[Tuple[int, Tuple[int, ...]], ...]]
    out_actions: List[Tuple[int, ...]]
    out_reach: List[Tuple[Tuple[int, ...], ...]]
    closures: Optional[List[Tuple[int, ...]]]
    stable_closure: Optional[List[Tuple[int, ...]]]
    rate_moves: List[Tuple[Tuple[int, object, object], ...]]
    #: Canonical rate keys per rate value, shared with the refinement's sums.
    rate_keys: Dict[object, object]
    #: The weak relation's input own-block rule.
    own_block_rule: bool

    @property
    def in_reach(self) -> List[Tuple[Tuple[int, ...], ...]]:
        """Per state, the targets of every input in id order, the left-out
        implicit self-loops included: :attr:`input_moves` made dense."""
        dense = []
        for state, moves in enumerate(self.input_moves):
            targets, own = dict(moves), (state,)
            dense.append(tuple([targets.get(aid, own) for aid in self.input_ids]))
        return dense


def _tau_successors(model: IOIMC) -> Optional[List[List[int]]]:
    """Internal successors per state, or ``None`` without internal moves."""
    internal_ids = model.signature.internal_ids
    if not internal_ids:
        return None
    tau_succ = [
        [target for aid, target in pairs if aid in internal_ids]
        for pairs in model._itrans
    ]
    return tau_succ if any(tau_succ) else None


def _plain_sets(
    itrans: Sequence[Sequence[Tuple[int, int]]],
    rate_pairs: Sequence[Iterable[Tuple[int, object]]],
    signature: ActionSignature,
    tau_succ: Optional[List[List[int]]],
    weak: bool,
) -> _PlainSets:
    """The sets of :func:`_plain_partition` for the given per-state moves.

    ``tau_succ`` lists the internal successors per state for the weak
    relation, or is ``None`` when there are none (and for the strong
    relation).  ``rate_pairs[s]`` yields the Markovian ``(target, rate)``
    moves of ``s``; a target may repeat, and the refinement sums it.
    """
    num_states = len(itrans)
    input_ids = sorted(signature.input_ids)
    input_set = signature.input_ids
    internal_ids = signature.internal_ids if weak else frozenset()

    closures: Optional[List[Tuple[int, ...]]] = None
    components: List[List[int]] = []
    if tau_succ is not None:
        # Tau-SCCs come successors first, so one pass folds the closures of
        # a component's tau successors into its own; its members share it.
        components = strongly_connected_components(
            tau_succ, [state for state in range(num_states) if tau_succ[state]]
        )
        closures = [(state,) for state in range(num_states)]
        for component in components:
            seen = set(component)
            for member in component:
                for target in tau_succ[member]:
                    if target not in seen:  # else its closure is in already
                        seen.update(closures[target])
            if len(seen) > 1:
                closure = tuple(seen)
                for member in component:
                    closures[member] = closure

    # Moves leaving each state itself.  An implicit input self-loop is not
    # among them: it reaches only the state itself, which no signature
    # lists, and a tau predecessor folds it in below.
    direct: List[Dict[int, Set[int]]] = []
    for state in range(num_states):
        per_action: Dict[int, Set[int]] = {}
        for aid, target in itrans[state]:
            if aid in internal_ids:
                continue
            reach = closures[target] if closures is not None else (target,)
            if aid in per_action:
                per_action[aid].update(reach)
            else:
                per_action[aid] = set(reach)
        direct.append(per_action)

    # Weak moves: a component's own moves and its tau successors' weak
    # moves, folded in the same successors-first order.
    weak_moves = direct
    if closures is not None:
        weak_moves = list(direct)
        for component in components:
            sources = set(component)
            for member in component:
                sources.update(tau_succ[member])
            if len(sources) == 1:
                continue  # a state without internal moves keeps its own
            per_action = {}
            for source in sources:
                moves = weak_moves[source]
                for aid, targets in moves.items():
                    if aid in per_action:
                        per_action[aid] |= targets
                    else:
                        per_action[aid] = set(targets)
                if moves is direct[source]:
                    # Not folded yet: its implicit input self-loops, which
                    # reach its closure, are not in it.
                    for aid in input_ids:
                        if aid not in moves:
                            if aid in per_action:
                                per_action[aid].update(closures[source])
                            else:
                                per_action[aid] = set(closures[source])
            for member in component:
                weak_moves[member] = per_action

    input_moves: List[Tuple[Tuple[int, Tuple[int, ...]], ...]] = []
    out_actions: List[Tuple[int, ...]] = []
    out_reach: List[Tuple[Tuple[int, ...], ...]] = []
    for state, per_action in enumerate(weak_moves):
        if per_action is direct[state]:
            # Its own moves only: an input it lacks is an implicit self-loop
            # onto the state itself, which no signature lists.
            inputs = sorted([aid for aid in per_action if aid in input_set])
        else:
            inputs = input_ids
        input_moves.append(tuple([(aid, tuple(per_action[aid])) for aid in inputs]))
        if len(per_action) > len(inputs):
            outputs = tuple(sorted([aid for aid in per_action if aid not in input_set]))
            out_reach.append(tuple([tuple(per_action[aid]) for aid in outputs]))
        else:
            outputs = ()
            out_reach.append(())
        out_actions.append(outputs)
    del direct, weak_moves  # the per-state dicts are the largest structure here

    stable_closure: Optional[List[Tuple[int, ...]]] = None
    if closures is not None:
        stable = [not succs for succs in tau_succ]
        timelocked = [not any(stable[t] for t in closure) for closure in closures]
        stable_closure = [
            tuple([t for t in closure if stable[t]])
            + ((num_states,) if any(timelocked[t] for t in closure) else ())
            for closure in closures
        ]
    keys: Dict[object, object] = {}
    rate_moves: List[Tuple[Tuple[int, object, object], ...]] = []
    for state, moves in enumerate(rate_pairs):
        if closures is not None and tau_succ[state]:
            rate_moves.append(())  # maximal progress: time cannot pass here
            continue
        entries = []
        for target, rate in moves:
            key = keys.get(rate)
            if key is None:
                key = keys[rate] = canonical_rate(rate)
            entries.append((target, rate, key))
        rate_moves.append(tuple(entries))
    return _PlainSets(
        input_ids,
        input_moves,
        out_actions,
        out_reach,
        closures,
        stable_closure,
        rate_moves,
        keys,
        weak,
    )


def _plain_partition(
    sets: _PlainSets,
    labels: Sequence[FrozenSet[str]],
    work: Optional[List[int]] = None,
) -> Partition:
    """Signature refinement on :class:`_PlainSets`, signing each state
    once in the first round and, after it, only the states whose sets read
    a state that changed block.

    A state's signature is its rate vector (with internal moves: the blocks
    of its closure and the interned rate vectors of its stable closure
    members) and, per action, the blocks it reaches — for an input action
    under the weak relation without its own block.  Inputs are signed
    sparsely, as ``(input id, blocks)`` pairs that leave out every input
    reaching only the state's own block: under the weak relation its blocks
    are empty, and under the strong one it signs as an input the state
    lacks (an implicit self-loop).  That is the relation of
    :func:`_weak_partition_signature` or :func:`_strong_partition_signature`.
    Blocks keep their id when they split: the largest part stays, the other
    parts get fresh ids and their states count as moved, so a signature that
    reads no moved state is still valid.  The initial partition also
    separates states by their (weak) non-input actions, which every
    signature carries.

    ``work``, when given, receives the number of states up for signing in
    each round (those in singleton blocks are skipped).
    """
    num_states = len(sets.input_moves)
    closures = sets.closures
    input_moves = sets.input_moves
    out_reach = sets.out_reach
    stable_closure = sets.stable_closure
    rate_moves = sets.rate_moves
    has_internal = closures is not None
    own_block_rule = sets.own_block_rule

    block_ids: Dict[object, int] = {}
    block_of: List[int] = []
    for state in range(num_states):
        key = (labels[state], sets.out_actions[state])
        block_of.append(block_ids.setdefault(key, len(block_ids)))
    members: List[Set[int]] = [set() for _ in block_ids]
    for state in range(num_states):
        members[block_of[state]].add(state)
    #: The signature every member of a block had when it was last signed.
    block_signature: List[object] = [None] * len(members)

    # Rate vectors are interned per call; id 0 is the empty vector, which the
    # virtual state ``num_states`` carries for the divergence rule.
    vector_ids: Dict[FrozenSet[Tuple[int, object]], int] = {frozenset(): 0}
    vector_of = [0] * (num_states + 1)
    canonical = sets.rate_keys
    block_get = block_of.__getitem__
    vector_get = vector_of.__getitem__

    to_rate: Iterable[int] = [state for state in range(num_states) if rate_moves[state]]
    to_sign: Iterable[int] = range(num_states)
    readers: Optional[List[List[int]]] = None
    rate_sources: List[List[int]] = []
    while True:
        for state in to_rate:
            own = block_of[state]
            totals: Dict[int, Tuple[object, object]] = {}
            for target, rate, key in rate_moves[state]:
                block = block_of[target]
                if block == own:
                    continue  # ordinary lumpability: ignore intra-class rates
                if block in totals:
                    totals[block] = (totals[block][0] + rate, None)
                else:
                    totals[block] = (rate, key)
            entries = []
            for block, (rate, key) in totals.items():
                if key is None:
                    key = canonical.get(rate)
                    if key is None:
                        key = canonical[rate] = canonical_rate(rate)
                entries.append((block, key))
            vector = frozenset(entries)
            vector_id = vector_ids.get(vector)
            if vector_id is None:
                vector_id = vector_ids[vector] = len(vector_ids)
            vector_of[state] = vector_id

        # Signed states whose signature differs from their block's, grouped
        # per block by signature; every other member keeps the block's.
        if work is not None:
            work.append(len(to_sign))
        changed: Dict[int, Dict[object, List[int]]] = {}
        for state in to_sign:
            own = block_of[state]
            if len(members[own]) < 2:
                continue  # a singleton block never splits
            if has_internal:
                signature = [
                    frozenset(map(block_get, closures[state])),
                    frozenset(map(vector_get, stable_closure[state])),
                ]
            else:
                signature = [vector_of[state]]
            for aid, targets in input_moves[state]:
                blocks = frozenset(map(block_get, targets))
                if own in blocks:
                    if len(blocks) == 1:
                        continue  # reads only its own class, as a missing input
                    if own_block_rule:
                        # Input own-block rule: an input move back into the
                        # state's own class is invisible.
                        blocks = blocks - {own}
                signature.append((aid, blocks))
            for targets in out_reach[state]:
                signature.append(frozenset(map(block_get, targets)))
            signature = tuple(signature)
            if signature != block_signature[own]:
                changed.setdefault(own, {}).setdefault(signature, []).append(state)

        moved: List[int] = []
        for block, groups in changed.items():
            current = members[block]
            rest = len(current) - sum(map(len, groups.values()))
            largest = max(groups, key=lambda signature: len(groups[signature]))
            if len(groups[largest]) > rest:
                # The largest changed group keeps the id; the members that
                # kept the old signature (fewer than it) move out together.
                if rest:
                    leaving = set(current)
                    for part in groups.values():
                        leaving.difference_update(part)
                    groups[block_signature[block]] = list(leaving)
                members[block] = set(groups.pop(largest))
                block_signature[block] = largest
            else:
                for part in groups.values():
                    current.difference_update(part)
            for signature, part in groups.items():
                new_block = len(members)
                members.append(set(part))
                block_signature.append(signature)
                for state in part:
                    block_of[state] = new_block
                moved.extend(part)
        if not moved:
            return _canonical_partition(members)

        if readers is None:
            # Who reads whom: a state's signature reads the blocks of its
            # closure and reach targets, and a rate vector reads the blocks
            # of its rate targets.
            readers = [[] for _ in range(num_states)]
            rate_sources = [[] for _ in range(num_states)]
            for state in range(num_states):
                read = set(closures[state]) if has_internal else set()
                for _aid, targets in input_moves[state]:
                    read.update(targets)
                for targets in out_reach[state]:
                    read.update(targets)
                for target in read:
                    readers[target].append(state)
                for target, _rate, _key in rate_moves[state]:
                    rate_sources[target].append(state)
        dirty = set(moved)
        rates_dirty = set()
        for state in moved:
            dirty.update(readers[state])
            if rate_moves[state]:
                rates_dirty.add(state)
            for source in rate_sources[state]:
                rates_dirty.add(source)
                if has_internal:
                    # Whoever has the source in its stable closure reads
                    # its rate vector; those states read its block too.
                    dirty.update(readers[source])
                else:
                    dirty.add(source)
        to_sign = dirty
        to_rate = rates_dirty


# ---------------------------------------------------------------------------
# strong bisimulation
# ---------------------------------------------------------------------------

def strong_bisimulation_partition(model: IOIMC, algorithm: str = "closure") -> Partition:
    """Coarsest strong bisimulation partition of ``model``.

    Two states are equivalent iff they carry the same labels, enable the
    same actions into the same equivalence classes (implicit input
    self-loops included) and their aggregate Markovian rates into every
    *other* class coincide (ordinary lumpability).  Labels always split
    blocks: they carry the ``failed`` flag the measures read.
    """
    _check_algorithm(algorithm)
    if algorithm == "signature":
        return _strong_partition_signature(model)
    return _strong_partition_plain(model)


def _strong_partition_plain(model: IOIMC, work: Optional[List[int]] = None) -> Partition:
    """The plain refinement under the strong relation."""
    sets = _plain_sets(
        model._itrans,
        [moves.items() for moves in model._mtrans],
        model.signature,
        None,
        weak=False,
    )
    return _plain_partition(sets, model._labels, work)


def _strong_partition_signature(model: IOIMC) -> Partition:
    """Signature-refinement reference implementation (seed algorithm)."""
    block_of = _initial_blocks(model)
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
                frozenset((block, canonical_rate(total)) for block, total in rates.items()),
            )
        block_of, changed = _refine_by_signature(block_of, signatures)
        if not changed:
            return _blocks_from_map(block_of)



# ---------------------------------------------------------------------------
# weak bisimulation
# ---------------------------------------------------------------------------

def weak_bisimulation_partition(model: IOIMC, algorithm: str = "closure") -> Partition:
    """Coarsest weak bisimulation partition of ``model``.

    Two states are equivalent iff they carry the same labels and

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
    idempotent).  Both engines apply them.
    """
    _check_algorithm(algorithm)
    if algorithm == "signature":
        return _weak_partition_signature(model)
    return _weak_partition_plain(model).partition


class _WeakRefinement(NamedTuple):
    """A weak partition and the sets it was refined on."""

    partition: Partition
    #: The sets of the pre-pass's reduced model (of the input itself when
    #: ``class_of`` is ``None``).
    sets: _PlainSets
    #: The reduced state of every input state, or ``None`` when the
    #: pre-pass merged nothing.
    class_of: Optional[List[int]]
    #: The input's internal successors per state (``None`` without any).
    tau_succ: Optional[List[List[int]]]


def _weak_partition_plain(
    model: IOIMC, work: Optional[List[int]] = None
) -> _WeakRefinement:
    """The plain refinement under the weak relation, after the pre-pass."""
    tau_succ = _tau_successors(model)
    reduced = None
    if tau_succ is not None:
        reduced = _weak_prepass(model, tau_succ)
    if reduced is None:
        sets = _plain_sets(
            model._itrans,
            [moves.items() for moves in model._mtrans],
            model.signature,
            tau_succ,
            weak=True,
        )
        partition = _plain_partition(sets, model._labels, work)
        return _WeakRefinement(partition, sets, None, tau_succ)
    class_of, itrans, rate_pairs, labels = reduced
    internal_ids = model.signature.internal_ids
    reduced_tau = [
        [target for aid, target in pairs if aid in internal_ids] for pairs in itrans
    ]
    sets = _plain_sets(
        itrans,
        rate_pairs,
        model.signature,
        reduced_tau if any(reduced_tau) else None,
        weak=True,
    )
    reduced_partition = _plain_partition(sets, labels, work)
    node_block = [0] * len(itrans)
    for block_id, block in enumerate(reduced_partition):
        for node in block:
            node_block[node] = block_id
    lifted: List[List[int]] = [[] for _ in reduced_partition]
    for state, node in enumerate(class_of):
        lifted[node_block[node]].append(state)
    # Reduced states are numbered in the order of their smallest member, so
    # the lifted blocks keep the canonical order.
    partition = [frozenset(block) for block in lifted]
    return _WeakRefinement(partition, sets, class_of, tau_succ)


def _weak_prepass(
    model: IOIMC, tau_succ: List[List[int]]
) -> Optional[Tuple[List[int], list, list, list]]:
    """Merge states that are weakly bisimilar for structural reasons.

    Two merges, both inside one block of the coarsest weak partition:

    * members of one tau-SCC with equal labels — they share their
      tau-closure, hence every weak move and rate vector;
    * a state ``s`` whose only interactive move is one tau into ``t``, with
      equal labels, joins ``t`` — when every input is missing at a member
      of ``t``'s group or moves from one back into the group.  Then every
      weak input move of ``t`` reaches ``t``'s whole tau-closure, as the
      implicit input self-loop of ``s`` followed by the tau step does:
      ``s``, and every state that reaches ``s``, keeps its weak moves when
      ``s`` is replaced by ``t``.  Rates of ``s`` do not count: a state
      with a tau move never lets time pass.

    Returns ``(class_of, itrans, rate_pairs, labels)`` of the reduced model,
    whose states are numbered by their smallest member, or ``None`` when
    nothing merges.  A merged tau-SCC keeps its internal moves as a tau
    self-loop (it stays unstable, and divergent without an exit), and an
    input that one of its members lacks as an input self-loop.  Its rates
    are dropped, since it is unstable.
    """
    num_states = model.num_states
    itrans = model._itrans
    labels = model._labels
    input_ids = model.signature.input_ids
    internal_ids = model.signature.internal_ids

    # Tau-SCC members with equal labels share one leader.
    group = list(range(num_states))
    merged = False
    roots = [state for state in range(num_states) if tau_succ[state]]
    for component in strongly_connected_components(tau_succ, roots):
        if len(component) < 2:
            continue
        leaders: Dict[object, int] = {}
        for state in component:
            leader = leaders.setdefault(labels[state], state)
            if leader != state:
                group[state] = leader
                merged = True

    members_of: Dict[int, List[int]] = {}
    if merged:
        for state in range(num_states):
            if group[state] != state:
                members_of.setdefault(group[state], [group[state]]).append(state)
    covered: Dict[int, bool] = {}

    def inputs_cover_closure(leader: int) -> bool:
        """Whether every input is missing at a member of the leader's group
        or moves from one back into the group: then each weak input move
        of the group reaches the group's whole tau-closure."""
        found = set()
        for member in members_of.get(leader, (leader,)):
            enabled = set()
            for aid, target in itrans[member]:
                if aid in input_ids:
                    enabled.add(aid)
                    if group[target] == leader:
                        found.add(aid)
            found |= input_ids - enabled
        return found >= input_ids

    forward: Dict[int, int] = {}
    for state in roots:
        pairs = itrans[state]
        if len(pairs) != 1 or group[state] != state:
            continue
        target = pairs[0][1]  # the state's one tau move
        leader = group[target]
        if leader == state or labels[target] != labels[state]:
            continue
        if leader not in covered:
            covered[leader] = inputs_cover_closure(leader)
        if covered[leader]:
            forward[state] = leader
    if not merged and not forward:
        return None

    # Follow forwarding chains to their end (they are acyclic: a cycle of
    # single tau moves with equal labels is one merged tau-SCC).
    resolved: Dict[int, int] = {}
    for state in forward:
        chain = []
        node = state
        while node in forward and node not in resolved:
            chain.append(node)
            node = forward[node]
        end = resolved.get(node, node)
        for member in chain:
            resolved[member] = end

    class_of = [0] * num_states
    node_of: Dict[int, int] = {}
    for state in range(num_states):
        leader = group[state]
        leader = resolved.get(leader, leader)
        node = node_of.get(leader)
        if node is None:
            node = node_of[leader] = len(node_of)
        class_of[state] = node

    num_nodes = len(node_of)
    moves: List[Dict[Tuple[int, int], None]] = [{} for _ in range(num_nodes)]
    rate_pairs: List[List[Tuple[int, object]]] = [[] for _ in range(num_nodes)]
    reduced_labels: List[FrozenSet[str]] = [frozenset()] * num_nodes
    input_list = sorted(input_ids)
    for state in range(num_states):
        if state in forward:
            continue  # its one tau move lands inside its own class
        node = class_of[state]
        own_moves = moves[node]
        for aid, target in itrans[state]:
            own_moves[(aid, class_of[target])] = None
        if group[state] in members_of:
            enabled = {aid for aid, _target in itrans[state]}
            for aid in input_list:
                if aid not in enabled:
                    own_moves[(aid, node)] = None
        else:
            rate_pairs[node] = [
                (class_of[target], rate) for target, rate in model._mtrans[state].items()
            ]
        if group[state] == state:
            reduced_labels[node] = labels[state]
    return class_of, [list(pairs) for pairs in moves], rate_pairs, reduced_labels


def _internal_closure(model: IOIMC) -> List[FrozenSet[int]]:
    """Per-state tau-closure frozensets — **signature reference engine only**.

    The default engine builds its own sets (:func:`_plain_sets`), after a
    pre-pass that collapses tau chains and tau-SCCs, so the oracle shares
    no code with it.
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



def _weak_partition_signature(model: IOIMC) -> Partition:
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

    block_of = _initial_blocks(model)
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
                    frozenset((block, canonical_rate(total)) for block, total in rates.items())
                )
            if reaches_timelock[state]:
                rate_vectors.add(frozenset())
            signatures[state] = (visible_sig, tau_sig, frozenset(rate_vectors))
        block_of, changed = _refine_by_signature(block_of, signatures)
        if not changed:
            return _blocks_from_map(block_of)



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
    """Quotient of ``model`` under a strong bisimulation partition.

    Every block's representative matches each member's moves into other
    blocks, so the quotient of a model marked as having every state
    reachable is marked too."""
    block_of = _block_map(partition)
    input_ids = model.signature.input_ids
    itrans = model._itrans
    mtrans = model._mtrans
    representatives = [min(block) for block in partition]
    quotient_itrans: List[List[Tuple[int, int]]] = []
    quotient_mtrans: List[Dict[int, float]] = []
    for block_id, rep in enumerate(representatives):
        pairs: Dict[Tuple[int, int], None] = {}
        for aid, target in itrans[rep]:
            target_block = block_of[target]
            if target_block == block_id and aid in input_ids:
                continue  # implicit input self-loop
            pairs[(aid, target_block)] = None
        quotient_itrans.append(list(pairs))
        rates: Dict[int, float] = {}
        for target, rate in mtrans[rep].items():
            if block_of[target] == block_id:
                continue  # intra-class movement is invisible in the quotient
            rates[block_of[target]] = rates.get(block_of[target], 0.0) + rate
        quotient_mtrans.append(rates)
    return IOIMC._from_lists(
        name if name is not None else model.name,
        model.signature,
        quotient_itrans,
        quotient_mtrans,
        [model._labels[rep] for rep in representatives],
        [f"B{block_id}" for block_id in range(len(partition))],
        block_of[model.initial],
        model._all_reachable,
    )


def _plain_weak_quotient(
    model: IOIMC,
    refinement: _WeakRefinement,
    name: str | None = None,
) -> IOIMC:
    """The weak quotient of ``model`` from the sets its partition was
    refined on.

    Each block reads its representative's tau-closure and ``τ* a τ*`` reach
    sets (those of the representative's reduced state after the pre-pass:
    the pre-pass merges only states whose weak moves reach the same blocks).
    Blocks come in partition order named ``B{i}``, with the
    representative's labels, visible moves sorted by (action id, block) and
    then tau moves by block; input own-block moves and tau self-block moves
    are left out, and the rates come from the block's smallest stable
    member.

    Each block weakly matches every member's visible and tau moves into
    other blocks, and every stable member's rates, so the quotient is
    marked as having every state reachable when ``model`` is and no state
    of it has both an internal move and a rate (the rates of such a state,
    which maximal progress would prune, are left out).
    """
    partition, sets, class_of, tau_succ = refinement
    block_of = [0] * model.num_states
    for block_id, block in enumerate(partition):
        for state in block:
            block_of[state] = block_id
    if class_of is None:
        node_block = block_of
    else:
        node_block = [0] * len(sets.input_moves)
        for state, node in enumerate(class_of):
            node_block[node] = block_of[state]
    internal_actions = sorted(model.signature.internals)
    tau_id = intern_action(internal_actions[0]) if internal_actions else None
    mtrans = model._mtrans
    reps = [min(block) for block in partition]
    quotient_itrans: List[List[Tuple[int, int]]] = []
    quotient_mtrans: List[Dict[int, float]] = []
    for block_id, rep in enumerate(reps):
        node = rep if class_of is None else class_of[rep]
        visible = set()
        for aid, targets in sets.input_moves[node]:
            for target in targets:
                target_block = node_block[target]
                if target_block != block_id:
                    visible.add((aid, target_block))
        for aid, targets in zip(sets.out_actions[node], sets.out_reach[node]):
            for target in targets:
                visible.add((aid, node_block[target]))
        tau_blocks = set()
        if sets.closures is not None:
            tau_blocks = {node_block[target] for target in sets.closures[node]}
            tau_blocks.discard(block_id)
        quotient_itrans.append(
            sorted(visible) + [(tau_id, block) for block in sorted(tau_blocks)]
        )
        rates: Dict[int, float] = {}
        block = partition[block_id]
        stable_members = (
            block if tau_succ is None else [state for state in block if not tau_succ[state]]
        )
        if stable_members:
            # Sums as a rate dict that starts every block at 0.0 would give
            # them (an exact no-op on the first rate).
            for target, rate in mtrans[min(stable_members)].items():
                target_block = block_of[target]
                if target_block == block_id:
                    continue  # intra-class movement is invisible in the quotient
                rates[target_block] = (
                    rates[target_block] + rate if target_block in rates else rate
                )
        quotient_mtrans.append(rates)
    return IOIMC._from_lists(
        name if name is not None else model.name,
        model.signature,
        quotient_itrans,
        quotient_mtrans,
        [model._labels[rep] for rep in reps],
        [f"B{block_id}" for block_id in range(len(partition))],
        block_of[model.initial],
        model._all_reachable
        and (
            tau_succ is None
            or not any(rates and succs for rates, succs in zip(mtrans, tau_succ))
        ),
    )


def _is_already_minimal(model: IOIMC, partition: Partition) -> bool:
    """Whether the weak quotient of ``model`` under ``partition`` is
    ``model`` itself up to state names and move order.

    So it is when every block is a single state and the quotient has nothing
    to drop: no internal moves (whose closure the quotient would saturate),
    no explicit input self-loops (the quotient leaves them implicit) and no
    Markovian self-loops (intra-class rates).
    """
    if len(partition) != model.num_states:
        return False
    internal_ids = model.signature.internal_ids
    input_ids = model.signature.input_ids
    for state in model.states():
        if state in model._mtrans[state]:
            return False
        for aid, target in model._itrans[state]:
            if aid in internal_ids or (target == state and aid in input_ids):
                return False
    return True


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

    The weak reach sets are built for every state of ``model``; prefer
    :func:`minimize_weak`, which builds them once, after its pre-pass, for
    both the partition refinement and this construction.
    """
    tau_succ = _tau_successors(model)
    sets = _plain_sets(
        model._itrans,
        [moves.items() for moves in model._mtrans],
        model.signature,
        tau_succ,
        weak=True,
    )
    refinement = _WeakRefinement(partition, sets, None, tau_succ)
    return _plain_weak_quotient(model, refinement, name)


def minimize_strong(model: IOIMC, algorithm: str = "closure") -> IOIMC:
    """Minimise ``model`` modulo strong bisimulation.

    Returns the reachable part of the quotient.  The quotient of a model
    marked as having every state reachable is marked too, so only an
    unmarked input pays for a reachability search."""
    partition = strong_bisimulation_partition(model, algorithm=algorithm)
    return quotient_strong(model, partition)._reachable_part()


def minimize_weak(model: IOIMC, algorithm: str = "closure") -> IOIMC:
    """Minimise ``model`` modulo weak bisimulation.

    The default engine builds one set of per-state tau-closure and
    weak-reach sets, after the pre-pass, and both the refinement and the
    quotient construction read it.  The signature engine is the seed
    reference (signature refinement plus :func:`quotient_weak`) and shares
    no code with the refinement, so it stays an independent oracle.

    An input without internal moves whose partition is discrete (and that
    has no explicit input or Markovian self-loop) is already minimal: its
    reachable part comes back as it is (the input object itself when every
    state is reachable), which equals the quotient up to state names and
    move order.

    Either way the result is restricted to the states reachable from its
    initial one.  The quotient of an input marked as having every state
    reachable (a product of :func:`~repro.ioimc.composition.parallel`, or
    what :func:`~repro.ioimc.reduction.aggregate` hands on) is marked too,
    unless a state with an internal move has rates; only an unmarked model
    pays for the search.
    """
    _check_algorithm(algorithm)
    if algorithm == "signature":
        partition = _weak_partition_signature(model)
        if _is_already_minimal(model, partition):
            return model._reachable_part()
        return quotient_weak(model, partition)._reachable_part()
    refinement = _weak_partition_plain(model)
    if _is_already_minimal(model, refinement.partition):
        return model._reachable_part()
    # The quotient is fresh and already carries ``model.name``.
    return _plain_weak_quotient(model, refinement)._reachable_part()

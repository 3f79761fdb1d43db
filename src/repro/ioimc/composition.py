"""Parallel composition of input/output interactive Markov chains.

Composition follows the input/output automata discipline used by the paper
(Section 3):

* Components synchronise on *shared visible actions*.  If the action is an
  output of one component, that component decides when it happens and every
  component having it as an input reacts immediately (input-enabledness makes
  this always possible).  The action remains an output of the composite so
  that further components can still listen to it.
* An action that is an input of several components and an output of none is
  driven by the environment; all listening components react simultaneously and
  the action stays an input of the composite.
* Two components may never share an output action
  (:class:`~repro.errors.CompositionError`).
* Markovian transitions and non-shared actions interleave.
* Internal actions never synchronise.

The composite is built by reachability exploration from the pair of initial
states, so unreachable parts of the naive product are never materialised.  The
exploration runs entirely on interned action ids (see
:mod:`repro.ioimc.actions`), never comparing action names.  It reads the
components' raw per-state lists, works out each component state's enabled
actions, shared-action targets and urgency once, and writes the composite's
adjacency lists, rate dicts, labels and names as whole lists that the bulk
constructor takes over; no state goes through the checked per-state API.
A composite state's moves keep their first-found order with repeats
dropped, and parallel rates to one target are summed.

Fused reduction
---------------

``parallel(..., fuse=True)`` additionally applies two measure-preserving
reductions *during* exploration instead of on the materialised product:

* **maximal progress** — a composite state is urgent iff either component
  state is urgent, so Markovian transitions of urgent composite states (and
  every state reachable only through them) are never generated;
* **internal self-loop elimination** — a component's internal self-loop
  composes to a composite self-loop and is skipped.

This prunes the τ-interleaving diamonds created by hiding before they are
materialised, which lowers the *peak* product sizes the aggregation engine
records.  The result equals ``restrict_to_reachable(remove_internal_self_loops
(apply_maximal_progress(parallel(...))))`` state-for-state, so running the
usual aggregation pipeline afterwards yields the identical reduced model.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import CompositionError, SignatureError
from .actions import ActionSignature
from .model import IOIMC


def parallel(
    left: IOIMC,
    right: IOIMC,
    name: Optional[str] = None,
    *,
    fuse: bool = False,
) -> IOIMC:
    """Parallel compose two I/O-IMC and return the reachable composite.

    With ``fuse=True`` maximal progress and internal self-loop elimination are
    applied on the fly (see the module docstring).
    """
    try:
        signature = left.signature.merge(right.signature)
    except SignatureError as exc:
        raise CompositionError(
            f"cannot compose {left.name!r} and {right.name!r}: {exc}"
        ) from exc

    lsig = left.signature
    rsig = right.signature
    shared_ids = lsig.visible_ids & rsig.visible_ids
    left_only_ids = lsig.visible_ids - shared_ids
    right_only_ids = rsig.visible_ids - shared_ids
    left_internal = lsig.internal_ids
    right_internal = rsig.internal_ids
    left_out = lsig.output_ids
    right_out = rsig.output_ids

    left_itrans, left_mtrans = left._itrans, left._mtrans
    right_itrans, right_mtrans = right._itrans, right._mtrans
    # Per component state, once: the enabled action ids, and the targets of
    # each enabled shared action (the ``enabled_ids`` and
    # ``interactive_on_id`` views; empty without a shared action).
    left_enabled, left_on = _enabled_views(left_itrans, shared_ids)
    right_enabled, right_on = _enabled_views(right_itrans, shared_ids)
    if fuse:
        # A composite state is urgent iff either component state is (a
        # component's enabled output or internal transition is always enabled
        # in the composite).
        left_urgent = _urgent_states(lsig, left_enabled)
        right_urgent = _urgent_states(rsig, right_enabled)

    left_labels, right_labels = left._labels, right._labels
    left_names, right_names = left._shown_names(), right._shown_names()
    index: Dict[Tuple[int, int], int] = {}
    worklist: List[Tuple[int, int, int]] = []
    itrans: List[List[Tuple[int, int]]] = []
    mtrans: List[Dict[int, float]] = []
    labels: List[FrozenSet[str]] = []
    names: List[Optional[str]] = []

    def intern(s: int, t: int) -> int:
        """The composite state of ``(s, t)``; a new one gets its labels,
        name and empty moves, and joins the worklist."""
        state = index.get((s, t))
        if state is None:
            state = index[s, t] = len(labels)
            labels.append(left_labels[s] | right_labels[t])
            names.append(f"{left_names[s]}|{right_names[t]}")
            itrans.append([])
            mtrans.append({})
            worklist.append((s, t, state))
        return state

    initial = intern(left.initial, right.initial)

    while worklist:
        s, t, source = worklist.pop()
        # Candidate moves in exploration order; repeats are dropped below.
        moves: List[Tuple[int, int]] = []

        # Markovian transitions interleave — unless the composite state is
        # urgent and fused maximal progress prunes them up front.
        if not (fuse and (left_urgent[s] or right_urgent[t])):
            rates = mtrans[source]
            for s_next, rate in left_mtrans[s].items():
                target = intern(s_next, t)
                rates[target] = rates.get(target, 0.0) + rate
            for t_next, rate in right_mtrans[t].items():
                target = intern(s, t_next)
                rates[target] = rates.get(target, 0.0) + rate

        # Internal and non-shared visible actions interleave (internal actions
        # never synchronise; implicit input self-loops stay implicit).
        for aid, s_next in left_itrans[s]:
            if aid in left_internal:
                if fuse and s_next == s:
                    continue  # composite internal self-loop
                moves.append((aid, intern(s_next, t)))
            elif aid in left_only_ids:
                moves.append((aid, intern(s_next, t)))
        for aid, t_next in right_itrans[t]:
            if aid in right_internal:
                if fuse and t_next == t:
                    continue  # composite internal self-loop
                moves.append((aid, intern(s, t_next)))
            elif aid in right_only_ids:
                moves.append((aid, intern(s, t_next)))

        # Shared visible actions synchronise.  Only actions enabled in at
        # least one component can produce a transition.
        left_moves_of = left_on[s]
        right_moves_of = right_on[t]
        if left_moves_of or right_moves_of:
            for aid in (left_enabled[s] | right_enabled[t]) & shared_ids:
                if aid in left_out:
                    driver_moves = left_moves_of.get(aid)
                    if not driver_moves:
                        continue
                    reactions = right_moves_of.get(aid) or (t,)
                    for s_next in driver_moves:
                        for t_next in reactions:
                            moves.append((aid, intern(s_next, t_next)))
                elif aid in right_out:
                    driver_moves = right_moves_of.get(aid)
                    if not driver_moves:
                        continue
                    reactions = left_moves_of.get(aid) or (s,)
                    for t_next in driver_moves:
                        for s_next in reactions:
                            moves.append((aid, intern(s_next, t_next)))
                else:
                    # Input of both components: driven by the environment.
                    for s_next in left_moves_of.get(aid) or (s,):
                        for t_next in right_moves_of.get(aid) or (t,):
                            if s_next != s or t_next != t:
                                moves.append((aid, intern(s_next, t_next)))

        itrans[source] = list(dict.fromkeys(moves)) if len(moves) > 1 else moves

    composite = IOIMC._from_lists(
        name if name is not None else f"{left.name}||{right.name}",
        signature,
        itrans,
        mtrans,
        labels,
        names,
        initial,
        all_reachable=True,  # explored from the initial pair
    )
    composite.validate()
    return composite


#: The targets-by-action view of a state without a shared action.
_NO_SHARED_MOVES: Dict[int, Tuple[int, ...]] = {}


def _enabled_views(
    itrans: List[List[Tuple[int, int]]], shared_ids: FrozenSet[int]
) -> Tuple[List[FrozenSet[int]], List[Dict[int, Tuple[int, ...]]]]:
    """Per state: the enabled action ids, and ``shared action id ->
    targets`` in adjacency order."""
    enabled = [frozenset(map(itemgetter(0), pairs)) for pairs in itrans]
    targets_on: List[Dict[int, Tuple[int, ...]]] = []
    for pairs, ids in zip(itrans, enabled):
        if shared_ids.isdisjoint(ids):
            targets_on.append(_NO_SHARED_MOVES)
            continue
        on: Dict[int, Tuple[int, ...]] = {}
        for aid, target in pairs:
            if aid in shared_ids:
                existing = on.get(aid)
                on[aid] = existing + (target,) if existing else (target,)
        targets_on.append(on)
    return enabled, targets_on


def _urgent_states(signature: ActionSignature, enabled: List[FrozenSet[int]]) -> List[bool]:
    """Per state: whether it enables an urgent (output or internal) action."""
    urgent = signature.urgent_ids
    return [not urgent.isdisjoint(ids) for ids in enabled]

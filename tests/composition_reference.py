"""The per-state parallel composition, kept as the reference for
:func:`repro.ioimc.composition.parallel`.

This is the exploration as it stood before composition wrote its products
in bulk: it builds the composite through the checked per-state API
(``add_state``, ``add_interactive_id``, ``add_markovian``) and reads the
components through ``labels``, ``state_name``, ``enabled_ids``,
``interactive_on_id`` and ``markovian_out``.  The bulk ``parallel`` must
build the same composite state for state: the same numbering, adjacency
lists in the same order, rate dicts with the same keys in the same order,
labels, names and initial state (:func:`assert_same_model`).
"""

from typing import Dict, List, Optional, Tuple

from repro.errors import CompositionError, SignatureError
from repro.ioimc import IOIMC


def reference_parallel(
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

    composite = IOIMC(name if name is not None else f"{left.name}||{right.name}", signature)

    lsig = left.signature
    rsig = right.signature
    shared_ids = lsig.visible_ids & rsig.visible_ids
    left_only_ids = lsig.visible_ids - shared_ids
    right_only_ids = rsig.visible_ids - shared_ids
    left_internal = lsig.internal_ids
    right_internal = rsig.internal_ids
    left_out = lsig.output_ids
    right_out = rsig.output_ids

    index: Dict[Tuple[int, int], int] = {}
    worklist: List[Tuple[int, int]] = []

    def intern(pair: Tuple[int, int]) -> int:
        state = index.get(pair)
        if state is None:
            s, t = pair
            state = composite.add_state(
                labels=left.labels(s) | right.labels(t),
                name=f"{left.state_name(s)}|{right.state_name(t)}",
            )
            index[pair] = state
            worklist.append(pair)
        return state

    initial = (left.initial, right.initial)
    composite.set_initial(intern(initial))

    add_interactive = composite.add_interactive_id
    add_markovian = composite.add_markovian

    while worklist:
        s, t = pair = worklist.pop()
        source = index[pair]

        # Markovian transitions interleave — unless the composite state is
        # urgent and fused maximal progress prunes them up front.  A composite
        # state is urgent iff either component state is (a component's enabled
        # output or internal transition is always enabled in the composite).
        if not (fuse and (left.is_urgent(s) or right.is_urgent(t))):
            for rate, s_next in left.markovian_out(s):
                add_markovian(source, rate, intern((s_next, t)))
            for rate, t_next in right.markovian_out(t):
                add_markovian(source, rate, intern((s, t_next)))

        # Internal and non-shared visible actions interleave (internal actions
        # never synchronise; implicit input self-loops stay implicit).
        for aid, s_next in left.interactive_pairs(s):
            if aid in left_internal:
                if fuse and s_next == s:
                    continue  # composite internal self-loop
                add_interactive(source, aid, intern((s_next, t)))
            elif aid in left_only_ids:
                add_interactive(source, aid, intern((s_next, t)))
        for aid, t_next in right.interactive_pairs(t):
            if aid in right_internal:
                if fuse and t_next == t:
                    continue  # composite internal self-loop
                add_interactive(source, aid, intern((s, t_next)))
            elif aid in right_only_ids:
                add_interactive(source, aid, intern((s, t_next)))

        # Shared visible actions synchronise.  Only actions enabled in at
        # least one component can produce a transition.
        shared_enabled = (left.enabled_ids(s) | right.enabled_ids(t)) & shared_ids
        for aid in shared_enabled:
            if aid in left_out:
                driver_moves = left.interactive_on_id(s, aid)
                if not driver_moves:
                    continue
                reactions = right.interactive_on_id(t, aid) or (t,)
                for s_next in driver_moves:
                    for t_next in reactions:
                        add_interactive(source, aid, intern((s_next, t_next)))
            elif aid in right_out:
                driver_moves = right.interactive_on_id(t, aid)
                if not driver_moves:
                    continue
                reactions = left.interactive_on_id(s, aid) or (s,)
                for t_next in driver_moves:
                    for s_next in reactions:
                        add_interactive(source, aid, intern((s_next, t_next)))
            else:
                # Input of both components: driven by the environment.
                left_moves = left.interactive_on_id(s, aid)
                right_moves = right.interactive_on_id(t, aid)
                for s_next in left_moves or (s,):
                    for t_next in right_moves or (t,):
                        if (s_next, t_next) != (s, t):
                            add_interactive(source, aid, intern((s_next, t_next)))

    composite.validate()
    return composite


def model_lists(model: IOIMC) -> tuple:
    """Everything :func:`assert_same_model` compares, as plain lists: the
    signature, adjacency lists, rate dicts as ``(target, rate)`` lists in
    key order, labels, state names and the initial state."""
    return (
        model.signature,
        [list(pairs) for pairs in model._itrans],
        [list(rates.items()) for rates in model._mtrans],
        list(model._labels),
        list(model._state_names),
        model._initial,
    )


def assert_same_model(actual: IOIMC, expected: IOIMC) -> None:
    """``actual`` is ``expected`` state for state (names of the models aside)."""
    fields = ("signature", "adjacency", "rates", "labels", "state names", "initial")
    for field, mine, theirs in zip(fields, model_lists(actual), model_lists(expected)):
        assert mine == theirs, f"{actual.name}: {field} differ"
    assert actual.num_transitions == expected.num_transitions, actual.name

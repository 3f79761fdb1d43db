"""I/O-IMC pickling: models cross process boundaries (batch and sweep
workers, the service pool) by pickle, which must remap interned action ids
by name (the interner is process-local).
"""

import pickle

from repro.ioimc import IOIMC, signature
from repro.ioimc.actions import intern_action


def _demo_model() -> IOIMC:
    model = IOIMC("demo", signature(inputs=("a",), outputs=("b",), internals=("t",)))
    for _ in range(3):
        model.add_state()
    model.set_initial(0)
    model.add_interactive(0, "a", 1)
    model.add_interactive(1, "b", 2)
    model.add_interactive(0, "t", 2)
    model.add_markovian(2, 0.5, 0)
    return model


class TestIoimcPickling:
    def test_round_trip_preserves_structure(self):
        model = _demo_model()
        clone = pickle.loads(pickle.dumps(model))
        clone.validate()
        assert clone.to_dot() == model.to_dot()
        assert clone.num_transitions == model.num_transitions
        assert clone.initial == model.initial

    def test_setstate_remaps_action_ids_by_name(self):
        # Simulate a receiving process whose interner assigned different ids:
        # shift every id in the pickled state; __setstate__ must recover the
        # structure by re-interning the names.
        model = _demo_model()
        state = model.__getstate__()
        shift = 100000
        state["actions"] = {
            aid + shift: name for aid, name in state["actions"].items()
        }
        state["itrans"] = [
            [(aid + shift, target) for aid, target in pairs]
            for pairs in state["itrans"]
        ]
        clone = IOIMC.__new__(IOIMC)
        clone.__setstate__(state)
        clone.validate()
        assert clone.to_dot() == model.to_dot()

    def test_signature_pickle_drops_cached_id_views(self):
        sig = signature(inputs=("px",), outputs=("py",))
        assert sig.input_ids  # populate the per-process cached view
        clone = pickle.loads(pickle.dumps(sig))
        assert "input_ids" not in clone.__dict__  # stale ids must not travel
        assert clone.inputs == sig.inputs
        assert clone.input_ids == {intern_action("px")}

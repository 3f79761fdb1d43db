"""Tests for action signatures."""

import pytest
from hypothesis import given, strategies as st

from repro.core.study import Study
from repro.errors import SignatureError
from repro.ioimc import ActionSignature, ActionType, format_action, signature
from repro.ioimc.actions import _intern_all
from repro.systems import cardiac_assist_system, cascaded_pand_system


class TestActionSignature:
    def test_disjointness_enforced(self):
        with pytest.raises(SignatureError):
            ActionSignature(inputs=frozenset({"a"}), outputs=frozenset({"a"}))

    def test_internal_overlap_rejected(self):
        with pytest.raises(SignatureError):
            ActionSignature(inputs=frozenset({"a"}), internals=frozenset({"a"}))

    def test_classify(self):
        sig = signature(inputs=["in1"], outputs=["out1"], internals=["tau1"])
        assert sig.classify("in1") is ActionType.INPUT
        assert sig.classify("out1") is ActionType.OUTPUT
        assert sig.classify("tau1") is ActionType.INTERNAL

    def test_classify_unknown_raises(self):
        sig = signature(inputs=["a"])
        with pytest.raises(SignatureError):
            sig.classify("missing")

    def test_contains(self):
        sig = signature(inputs=["a"], outputs=["b"])
        assert "a" in sig
        assert "b" in sig
        assert "c" not in sig

    def test_visible_and_locally_controlled(self):
        sig = signature(inputs=["a"], outputs=["b"], internals=["c"])
        assert sig.visible == frozenset({"a", "b"})
        assert sig.locally_controlled == frozenset({"b", "c"})
        assert sig.all_actions == frozenset({"a", "b", "c"})

    def test_str_uses_paper_decorations(self):
        sig = signature(inputs=["a"], outputs=["b"], internals=["c"])
        rendered = str(sig)
        assert "a?" in rendered
        assert "b!" in rendered
        assert "c;" in rendered


class TestHiding:
    def test_hide_moves_outputs_to_internal(self):
        sig = signature(outputs=["a", "b"])
        hidden = sig.hide(["a"])
        assert hidden.outputs == frozenset({"b"})
        assert hidden.internals == frozenset({"a"})

    def test_hide_rejects_inputs(self):
        sig = signature(inputs=["a"], outputs=["b"])
        with pytest.raises(SignatureError):
            sig.hide(["a"])

    def test_hide_rejects_unknown(self):
        sig = signature(outputs=["b"])
        with pytest.raises(SignatureError):
            sig.hide(["nope"])


class TestRenaming:
    def test_rename_keeps_kinds(self):
        sig = signature(inputs=["a"], outputs=["b"])
        renamed = sig.rename({"a": "x", "b": "y"})
        assert renamed.inputs == frozenset({"x"})
        assert renamed.outputs == frozenset({"y"})

    def test_rename_must_not_merge(self):
        sig = signature(inputs=["a", "b"])
        with pytest.raises(SignatureError):
            sig.rename({"a": "b"})


class TestMerging:
    def test_connected_action_becomes_output(self):
        left = signature(outputs=["a"])
        right = signature(inputs=["a"], outputs=["b"])
        merged = left.merge(right)
        assert merged.outputs == frozenset({"a", "b"})
        assert merged.inputs == frozenset()

    def test_shared_inputs_stay_inputs(self):
        left = signature(inputs=["a"])
        right = signature(inputs=["a"])
        merged = left.merge(right)
        assert merged.inputs == frozenset({"a"})

    def test_shared_outputs_rejected(self):
        left = signature(outputs=["a"])
        right = signature(outputs=["a"])
        with pytest.raises(SignatureError):
            left.merge(right)

    def test_internal_clash_rejected(self):
        left = signature(internals=["x"])
        right = signature(inputs=["x"])
        with pytest.raises(SignatureError):
            left.merge(right)

    def test_format_action(self):
        assert format_action("fail_A", ActionType.OUTPUT) == "fail_A!"
        assert format_action("fail_A", ActionType.INPUT) == "fail_A?"
        assert format_action("fail_A", ActionType.INTERNAL) == "fail_A;"


# The id views of merged and hidden signatures are derived from the
# operands' cached views; each must equal a fresh interning of its names.
VIEWS = (("input_ids", "inputs"), ("output_ids", "outputs"), ("internal_ids", "internals"))

#: (left role, right role) pairs that merge without a signature error.
MERGEABLE_ROLES = [
    (None, "inputs"), ("inputs", None), ("inputs", "inputs"),
    (None, "outputs"), ("outputs", None), ("outputs", "inputs"), ("inputs", "outputs"),
    (None, "internals"), ("internals", None), ("internals", "internals"),
]


def assert_views_are_fresh(sig, seeded=()):
    for view, names in VIEWS:
        if view in seeded:
            assert view in sig.__dict__
        assert getattr(sig, view) == _intern_all(getattr(sig, names))


def with_views(sig):
    for view, _names in VIEWS:
        getattr(sig, view)
    return sig


class TestDerivedIdViews:
    @given(
        roles=st.dictionaries(
            st.sampled_from("abcdefgh"), st.sampled_from(MERGEABLE_ROLES), max_size=8
        ),
        hidden=st.sets(st.sampled_from("abcdefgh")),
        cached=st.booleans(),
    )
    def test_merge_and_hide_views_equal_fresh_interning(self, roles, hidden, cached):
        sides = [{view: set() for _view, view in VIEWS} for _ in range(2)]
        for name, pair in roles.items():
            for side, role in zip(sides, pair):
                if role is not None:
                    side[role].add(name)
        left, right = (signature(**side) for side in sides)
        if cached:
            with_views(left), with_views(right)
        merged = left.merge(right)
        assert_views_are_fresh(merged, [view for view, _ in VIEWS] if cached else ())
        with_views(merged)
        closed = merged.hide(hidden & merged.outputs)
        assert_views_are_fresh(closed, [view for view, _ in VIEWS])

    def test_hide_derives_what_its_operand_cached(self):
        sig = signature(inputs=["p"], outputs=["q", "r"], internals=["s"])
        sig.output_ids
        hidden = sig.hide(["q"])
        assert "output_ids" in hidden.__dict__ and "internal_ids" not in hidden.__dict__
        assert_views_are_fresh(hidden)

    @pytest.mark.parametrize("system", [cardiac_assist_system, cascaded_pand_system])
    def test_products_of_a_study(self, system, monkeypatch):
        derived = []
        for method in ("merge", "hide"):
            original = getattr(ActionSignature, method)

            def recording(self, *args, _original=original):
                result = _original(self, *args)
                derived.append(result)
                return result

            monkeypatch.setattr(ActionSignature, method, recording)
        Study(system()).final_ioimc
        seeded = [sig for sig in derived if any(view in sig.__dict__ for view, _ in VIEWS)]
        assert seeded
        for sig in derived:
            assert_views_are_fresh(sig)

"""Tests for the DFT -> I/O-IMC community conversion (wiring, auxiliaries)."""

import pytest

from repro.core import DftToIoimcConverter, convert, signals
from repro.dft import FaultTreeBuilder
from repro.errors import ConversionError
from repro.ioimc import reduction
from repro.systems import cardiac_assist_system, cascaded_pand_system


def member_names(community):
    return {member.name for member in community.members}


def kinds(community):
    return {member.name: member.kind for member in community.members}


class TestCommunityShape:
    def test_and_tree_community(self, and_tree):
        community = convert(and_tree)
        names = member_names(community)
        assert names == {"BE(A)", "BE(B)", "Gate(Top)", "Monitor(Top)"}
        assert community.top_fire_action == signals.fire("Top")

    @pytest.mark.parametrize(
        "tree_fixture",
        ["and_tree", "pand_tree", "shared_spare_tree", "fdep_tree", "repairable_and_tree"],
    )
    def test_monitor_listens_to_the_top_event(self, tree_fixture, request):
        # The monitor is always part of the community: it is the one member
        # that makes the top event's failure an observable state label.
        tree = request.getfixturevalue(tree_fixture)
        community = convert(tree)
        monitors = [m for m in community.members if m.kind == "monitor"]
        assert [m.name for m in monitors] == [f"Monitor({tree.top})"]
        monitor = monitors[0].model
        assert community.top_fire_action in monitor.signature.inputs
        assert not monitor.signature.outputs
        assert any("failed" in monitor.labels(s) for s in monitor.states())
        assert "failed" not in monitor.labels(monitor.initial)

    def test_every_input_has_a_producer(self, shared_spare_tree):
        # The converter itself validates this; here we re-check explicitly.
        community = convert(shared_spare_tree)
        produced = set()
        for member in community.members:
            produced |= member.model.signature.outputs
        for member in community.members:
            assert member.model.signature.inputs <= produced

    def test_outputs_are_unique(self, shared_spare_tree):
        community = convert(shared_spare_tree)
        seen = set()
        for member in community.members:
            overlap = member.model.signature.outputs & seen
            assert not overlap
            seen |= member.model.signature.outputs

    def test_members_enter_as_built(self, fdep_tree, monkeypatch):
        # Elements are reduced in the first composition step that takes
        # them, under the analysis's own options: conversion minimises nothing.
        calls = []

        def refuse(model, **_kwargs):
            calls.append(model.name)
            return model

        monkeypatch.setattr(reduction, "minimize_weak", refuse)
        monkeypatch.setattr(reduction, "minimize_strong", refuse)
        community = convert(fdep_tree)
        assert community.members and calls == []

    def test_member_lookup(self, and_tree):
        community = convert(and_tree)
        assert community.member("BE(A)").element == "A"
        assert community.member_for_element("Top").kind == "gate"
        with pytest.raises(ConversionError):
            community.member("nope")
        with pytest.raises(ConversionError):
            community.member_for_element("nope")

    def test_summary_mentions_counts(self, and_tree):
        community = convert(and_tree)
        assert "I/O-IMC" in community.summary()


class TestFdepWiring:
    def test_firing_auxiliary_created(self, fdep_tree):
        community = convert(fdep_tree)
        assert "FA(A)" in member_names(community)
        assert kinds(community)["FA(A)"] == "firing_auxiliary"

    def test_dependent_output_renamed(self, fdep_tree):
        community = convert(fdep_tree)
        be_a = community.member("BE(A)").model
        assert signals.fire_isolated("A") in be_a.signature.outputs
        fa = community.member("FA(A)").model
        assert signals.fire("A") in fa.signature.outputs
        assert signals.fire_isolated("A") in fa.signature.inputs
        assert signals.fire("T") in fa.signature.inputs

    def test_fdep_gate_itself_has_no_model(self, fdep_tree):
        community = convert(fdep_tree)
        assert not any(member.element == "F" and member.kind == "gate" for member in community.members)

    def test_multiple_triggers_merge_into_one_auxiliary(self):
        builder = FaultTreeBuilder("multi-trigger")
        builder.basic_events(["T1", "T2", "A", "B"], failure_rate=1.0)
        builder.and_gate("Top", ["A", "B"])
        builder.fdep("F1", trigger="T1", dependents=["A"])
        builder.fdep("F2", trigger="T2", dependents=["A"])
        tree = builder.build("Top")
        community = convert(tree)
        fa = community.member("FA(A)").model
        assert signals.fire("T1") in fa.signature.inputs
        assert signals.fire("T2") in fa.signature.inputs
        assert sum(1 for m in community.members if m.kind == "firing_auxiliary") == 1

    def test_gate_valued_trigger_supported(self):
        cas = cardiac_assist_system()
        community = convert(cas)
        fa_p = community.member("FA(P)").model
        assert signals.fire("Trigger") in fa_p.signature.inputs


class TestActivationWiring:
    def test_hot_tree_has_no_activation_signals(self, and_tree):
        community = convert(and_tree)
        for member in community.members:
            for action in member.model.signature.all_actions:
                assert not action.startswith("act_")
                assert not action.startswith("claim_")

    def test_single_spare_gets_claim_as_activation(self, cold_spare_tree):
        community = convert(cold_spare_tree)
        spare = community.member("BE(S)").model
        claim = signals.claim("S", "Top")
        assert claim in spare.signature.inputs
        gate = community.member("Spare(Top)").model
        assert claim in gate.signature.outputs
        # Only one spare gate: no activation auxiliary needed.
        assert not any(m.kind == "activation_auxiliary" for m in community.members)

    def test_shared_spare_gets_activation_auxiliary(self, shared_spare_tree):
        community = convert(shared_spare_tree)
        assert "AA(PS)" in member_names(community)
        aa = community.member("AA(PS)").model
        assert signals.claim("PS", "GateA") in aa.signature.inputs
        assert signals.claim("PS", "GateB") in aa.signature.inputs
        assert signals.activate("PS") in aa.signature.outputs
        spare = community.member("BE(PS)").model
        assert signals.activate("PS") in spare.signature.inputs

    def test_competing_gates_listen_to_each_other(self, shared_spare_tree):
        community = convert(shared_spare_tree)
        gate_a = community.member("Spare(GateA)").model
        assert signals.claim("PS", "GateB") in gate_a.signature.inputs
        gate_b = community.member("Spare(GateB)").model
        assert signals.claim("PS", "GateA") in gate_b.signature.inputs

    def test_complex_spare_module_children_inherit_activation(self):
        from repro.systems import and_spare_system

        community = convert(and_spare_system())
        # The spare module's AND gate children C and D listen to the claim of
        # the module (single source, so the claim signal is wired directly).
        claim = signals.claim("spare", "system")
        for name in ("BE(C)", "BE(D)"):
            assert claim in community.member(name).model.signature.inputs

    def test_nested_spare_gate_activation(self):
        from repro.systems import nested_spare_system

        community = convert(nested_spare_system())
        inner_gate = community.member("Spare(spare)").model
        claim_module = signals.claim("spare", "system")
        # The inner spare gate itself is activated by the outer claim...
        assert claim_module in inner_gate.signature.inputs
        # ...its primary C inherits the same activation signal...
        assert claim_module in community.member("BE(C)").model.signature.inputs
        # ...but its own spare D is only activated by the inner gate's claim.
        be_d = community.member("BE(D)").model
        assert signals.claim("D", "spare") in be_d.signature.inputs
        assert claim_module not in be_d.signature.inputs

    def test_seq_inputs_activated_by_predecessor(self):
        builder = FaultTreeBuilder("seq")
        builder.basic_events(["A", "B", "C"], failure_rate=1.0)
        builder.seq_gate("Top", ["A", "B", "C"])
        tree = builder.build("Top")
        community = convert(tree)
        be_b = community.member("BE(B)").model
        assert signals.fire("A") in be_b.signature.inputs
        be_c = community.member("BE(C)").model
        assert signals.fire("B") in be_c.signature.inputs


class TestUnsupportedCombinations:
    def test_repairable_dynamic_gate_rejected(self):
        builder = FaultTreeBuilder("bad")
        builder.basic_event("A", 1.0, repair_rate=1.0)
        builder.basic_event("B", 1.0)
        builder.pand_gate("Top", ["A", "B"])
        tree = builder.build("Top")
        with pytest.raises(ConversionError):
            convert(tree)

    def test_repairable_fdep_dependent_rejected(self):
        builder = FaultTreeBuilder("bad")
        builder.basic_event("T", 1.0)
        builder.basic_event("A", 1.0, repair_rate=1.0)
        builder.or_gate("Top", ["A"])
        builder.fdep("F", trigger="T", dependents=["A"])
        tree = builder.build("Top")
        with pytest.raises(ConversionError):
            convert(tree)

    def test_fdep_and_inhibition_on_same_element_rejected(self):
        builder = FaultTreeBuilder("bad")
        builder.basic_events(["T", "I", "A"], failure_rate=1.0)
        builder.or_gate("Top", ["A"])
        builder.fdep("F", trigger="T", dependents=["A"])
        builder.inhibition("IA", inhibitor="I", target="A")
        tree = builder.build("Top")
        with pytest.raises(ConversionError):
            convert(tree)

    def test_seq_with_gate_input_rejected(self):
        builder = FaultTreeBuilder("bad")
        builder.basic_events(["A", "B", "C"], failure_rate=1.0)
        builder.and_gate("G", ["B", "C"])
        builder.seq_gate("Top", ["A", "G"])
        tree = builder.build("Top")
        with pytest.raises(ConversionError):
            convert(tree)


class TestElementaryModelSizes:
    def test_cps_module_models_are_small(self):
        cps = cascaded_pand_system()
        converter = DftToIoimcConverter(cps)
        community = converter.convert()
        for member in community.members:
            assert member.num_states <= 32

    def test_cas_community_size(self):
        community = convert(cardiac_assist_system())
        # 10 BEs + 9 logic gates (the FDEP has no model) + 2 firing auxiliaries
        # (P and B) + 1 activation auxiliary (shared pump spare PS) + monitor.
        assert len(community.members) == 23
        by_kind = {}
        for member in community.members:
            by_kind[member.kind] = by_kind.get(member.kind, 0) + 1
        assert by_kind == {
            "basic_event": 10,
            "gate": 9,
            "firing_auxiliary": 2,
            "activation_auxiliary": 1,
            "monitor": 1,
        }

"""Each distinct hidden product is aggregated once per run.

A cold Study minimises only the products composition and hiding create
(elementary models enter as built), under the Study's own aggregation
options, and a product that repeats an earlier one of the same run up to an
order-preserving action renaming reuses that product's quotient, renamed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import RateSweep, Study, StudyOptions, SweepStudy, Unreliability
from repro.core import aggregation as core_aggregation
from repro.core.aggregation import _QuotientMemo
from repro.core.sweep import substitute_parameters, with_rate_parameters
from repro.ioimc import AggregationOptions, aggregate, bisimulation, reduction
from repro.systems import cardiac_assist_system, cascaded_pand_system, random_dft
from tests.reduction_reference import canonical_form


def _recorded_study(tree, options=None):
    """A cache-less Study of ``tree``, run, and every aggregate() input."""
    inputs = []

    def recording(model, call_options=None):
        inputs.append(model)
        return reduction.aggregate(model, call_options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "aggregate", recording)
        study = Study(tree, options)
        study.final_ioimc
    return study, inputs


def _minimiser_calls(tree, options):
    """``(relation, engine)`` of every minimiser call of a cold Study."""
    calls = []

    def spy(relation, minimiser):
        def recording(model, **kwargs):
            calls.append((relation, kwargs.get("algorithm")))
            return minimiser(model, **kwargs)

        return recording

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "minimize_weak", spy("weak", bisimulation.minimize_weak))
        patch.setattr(
            reduction, "minimize_strong", spy("strong", bisimulation.minimize_strong)
        )
        Study(tree, options).final_ioimc
    return calls


TREES = {
    "fdep": lambda: random_dft(7, seed=3, fdep=True),
    "shared_spares": lambda: random_dft(6, seed=5, shared_spares=True),
}


@pytest.mark.parametrize("tree", sorted(TREES))
class TestStudyOptionsHonoured:
    """No minimiser call runs under options other than the Study's."""

    def test_method_none_makes_no_minimiser_calls(self, tree):
        options = StudyOptions(aggregation=AggregationOptions(method="none"))
        assert _minimiser_calls(TREES[tree](), options) == []

    def test_signature_study_makes_no_closure_calls(self, tree):
        options = StudyOptions(aggregation=AggregationOptions(minimiser="signature"))
        calls = _minimiser_calls(TREES[tree](), options)
        assert calls and {engine for _relation, engine in calls} == {"signature"}

    def test_strong_study_makes_no_weak_calls(self, tree):
        options = StudyOptions(aggregation=AggregationOptions(method="strong"))
        calls = _minimiser_calls(TREES[tree](), options)
        assert calls and {relation for relation, _engine in calls} == {"strong"}


def _order_preserving_renaming(model, draw_numbers):
    """A renaming of every action of ``model`` that keeps the name order
    within each role; the new names are ``<role letter><number>``, whose
    string order differs from the numeric one (``A10`` < ``A2``)."""
    sig = model.signature
    mapping = {}
    for letter, role in (("I", sig.inputs), ("O", sig.outputs), ("A", sig.internals)):
        numbers = draw_numbers(len(role))
        fresh = sorted(f"{letter}{number}" for number in numbers)
        mapping.update(zip(sorted(role), fresh))
    return mapping


def _memo_hit(memo, model):
    """``memo.aggregate(model)``, which must not call aggregate()."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "aggregate", lambda *args: calls.append(args))
        result = memo.aggregate(model)
    assert calls == [], "the renamed product missed the memo"
    return result


def _has_internal_move(model):
    internal = model.signature.internal_ids
    return any(
        aid in internal
        for state in model.states()
        for aid, _target in model.interactive_pairs(state)
    )


class TestRenamedProductsHit:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=30),
        pattern=st.sampled_from(["plain", "fdep", "shared_spares"]),
        method=st.sampled_from(["weak", "strong"]),
        data=st.data(),
    )
    def test_hit_equals_a_fresh_aggregate(self, seed, pattern, method, data):
        extra = {} if pattern == "plain" else {pattern: True}
        _study, products = _recorded_study(random_dft(6, seed=seed, **extra))
        product = data.draw(st.sampled_from(products), label="product")

        def draw_numbers(count):
            return data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=120),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )

        renamed = product.rename_actions(_order_preserving_renaming(product, draw_numbers))
        options = AggregationOptions(method=method)
        memo = _QuotientMemo(options)
        first = memo.aggregate(product)
        hit = _memo_hit(memo, renamed)
        assert hit is not first and hit.name == renamed.name
        assert hit.signature == renamed.signature
        fresh, _stats = aggregate(renamed, options)
        assert canonical_form(hit) == canonical_form(fresh)

    def test_internal_names_in_string_order(self):
        # The tau representative of a weak quotient is the smallest internal
        # name: the memo must rank "A100" before "A2", as aggregate() does.
        _study, products = _recorded_study(cardiac_assist_system())
        product = max(
            (model for model in products if _has_internal_move(aggregate(model)[0])),
            key=lambda model: len(model.signature.internals),
        )
        assert len(product.signature.internals) >= 2
        mapping = _order_preserving_renaming(
            product, lambda count: [100, *range(2, count + 1)]
        )
        renamed = product.rename_actions(mapping)
        memo = _QuotientMemo(AggregationOptions())
        memo.aggregate(product)
        hit = _memo_hit(memo, renamed)
        fresh, _stats = aggregate(renamed)
        assert canonical_form(hit) == canonical_form(fresh)


PARAMETRIC_TREES = {
    # Three parameters: the CAS's repeated pump and motor blocks keep their
    # structure but no longer share their rates.
    "cas": lambda: with_rate_parameters(cardiac_assist_system(), ["P", "MA", "PA"]),
    "cps": lambda: with_rate_parameters(cascaded_pand_system()),
}


class TestParametricRates:
    """Parameter names are not action names: a renaming never maps one
    parameter to another, so rates must match exactly, forms included."""

    @pytest.mark.parametrize("tree", sorted(PARAMETRIC_TREES))
    def test_sweep_rows_match_fresh_studies(self, tree):
        tree = PARAMETRIC_TREES[tree]()
        query = Unreliability([0.5, 1.0])
        samples = [
            {name: nominal * scale for name, nominal in tree.parameters.items()}
            for scale in (0.4, 2.5)
        ]
        rows = SweepStudy(tree).run(RateSweep(query, samples)).rows
        for row, sample in zip(rows, samples):
            fresh = Study(substitute_parameters(tree, sample)).evaluate(query)
            assert row["unreliability"].values == pytest.approx(
                fresh["unreliability"].values, abs=1e-9
            )


class TestRunScope:
    def test_repeated_modules_are_aggregated_once(self):
        study, products = _recorded_study(cascaded_pand_system())
        assert len(products) < len(study.statistics.steps)

    def test_second_study_gets_no_hits_from_the_first(self):
        first, first_products = _recorded_study(cascaded_pand_system())
        second, second_products = _recorded_study(cascaded_pand_system())
        assert len(second_products) == len(first_products)
        assert canonical_form(second.final_ioimc) == canonical_form(first.final_ioimc)

    def test_no_result_aliases_a_cached_object(self, monkeypatch):
        memos, outputs, hits = set(), [], []
        original = _QuotientMemo.aggregate

        def recording(memo, model):
            memos.add(id(memo))
            kept = [quotient for quotient, _names in memo._quotients.values()]
            output = original(memo, model)
            if len(memo._quotients) == len(kept):  # a hit
                hits.append(output)
                assert all(output is not quotient for quotient in kept)
            outputs.append(output)
            return output

        monkeypatch.setattr(_QuotientMemo, "aggregate", recording)
        Study(cascaded_pand_system()).final_ioimc
        assert len(memos) == 1 and hits
        assert len({id(output) for output in outputs}) == len(outputs)

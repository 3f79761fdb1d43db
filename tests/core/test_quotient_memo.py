"""Each distinct hidden product is aggregated once per memo.

A cold Study minimises only the products composition and hiding create
(elementary models enter as built), under the Study's own aggregation
options, and a product that repeats an earlier one of the same memo up to an
order-preserving renaming of its actions and rate parameters reuses that
product's quotient, renamed.  A cache-less Study has a memo of its own; every
build of one skeleton store shares the store's.
"""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    RateSweep,
    Study,
    StudyOptions,
    SweepStudy,
    Unreliability,
    UnreliabilityBounds,
)
from repro.core import aggregation as core_aggregation
from repro.core.aggregation import QuotientMemo
from repro.core.sweep import substitute_parameters, with_rate_parameters
from repro.ioimc import AggregationOptions, aggregate, bisimulation, reduction
from repro.ioimc.rates import ParametricRate
from repro.service import AnalysisService, SkeletonStore
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    pand_race_bank,
    random_dft,
)
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


def _minimiser_calls(tree, options=None):
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


def _order_preserving_names(old_names, prefix, draw_numbers):
    """``old -> <prefix><number>`` for ``old_names``, keeping their string
    order; the new names' string order differs from the numeric one
    (``A10`` < ``A2``)."""
    fresh = sorted(f"{prefix}{number}" for number in draw_numbers(len(old_names)))
    return dict(zip(sorted(old_names), fresh))


def _order_preserving_renaming(model, draw_numbers):
    """A renaming of every action of ``model`` that keeps the name order
    within each role."""
    sig = model.signature
    mapping = {}
    for letter, role in (("I", sig.inputs), ("O", sig.outputs), ("A", sig.internals)):
        mapping.update(_order_preserving_names(role, letter, draw_numbers))
    return mapping


def _parameters_of(model):
    return sorted(
        {
            name
            for state in model.states()
            for rate in model.markovian_dict(state).values()
            if isinstance(rate, ParametricRate)
            for name in rate.coeffs
        }
    )


def _parametric_rates(model):
    return [
        rate
        for state in model.states()
        for rate in model.markovian_dict(state).values()
        if isinstance(rate, ParametricRate)
    ]


def _memo_hit(memo, model, options):
    """``memo.aggregate(model, options)``, which must not call aggregate()."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_aggregation, "aggregate", lambda *args: calls.append(args))
        result = memo.aggregate(model, options)
    assert calls == [], "the renamed product missed the memo"
    return result


def _has_internal_move(model):
    internal = model.signature.internal_ids
    return any(
        aid in internal
        for state in model.states()
        for aid, _target in model.interactive_pairs(state)
    )


def _unique_numbers(data, count):
    return data.draw(
        st.lists(
            st.integers(min_value=1, max_value=120),
            min_size=count,
            max_size=count,
            unique=True,
        )
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
        renamed = product.rename_actions(
            _order_preserving_renaming(product, lambda count: _unique_numbers(data, count))
        )
        options = AggregationOptions(method=method)
        memo = QuotientMemo()
        first = memo.aggregate(product, options)
        hit = _memo_hit(memo, renamed, options)
        assert hit is not first and hit.name == renamed.name
        assert hit.signature == renamed.signature
        fresh, _stats = aggregate(renamed, options)
        assert canonical_form(hit) == canonical_form(fresh)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=30),
        pattern=st.sampled_from(["plain", "fdep", "shared_spares"]),
        method=st.sampled_from(["weak", "strong"]),
        data=st.data(),
    )
    def test_parametric_hit_equals_a_fresh_aggregate(self, seed, pattern, method, data):
        # Every basic event has its own parameter; the renamed product names
        # them sf<number> (sf10 < sf2 as strings) with fresh nominals.
        extra = {} if pattern == "plain" else {pattern: True}
        tree = with_rate_parameters(random_dft(6, seed=seed, **extra))
        _study, products = _recorded_study(tree)
        product = data.draw(
            st.sampled_from([model for model in products if _parameters_of(model)]),
            label="product",
        )
        parameters = _parameters_of(product)
        parameter_map = _order_preserving_names(
            parameters, "sf", lambda count: _unique_numbers(data, count)
        )
        nominals = {
            new: data.draw(st.floats(min_value=0.01, max_value=50.0), label=new)
            for new in parameter_map.values()
        }
        renamed = product.rename_actions(
            _order_preserving_renaming(product, lambda count: _unique_numbers(data, count))
        ).rename_parameters(parameter_map, nominals)
        options = AggregationOptions(method=method)
        memo = QuotientMemo()
        memo.aggregate(product, options)
        hit = _memo_hit(memo, renamed, options)
        fresh, _stats = aggregate(renamed, options)
        assert canonical_form(hit) == canonical_form(fresh)
        for rate in _parametric_rates(hit):
            assert rate.nominals == {name: nominals[name] for name in rate.coeffs}

    def test_internal_names_in_string_order(self):
        # The tau representative of a weak quotient is the smallest internal
        # name: the memo must rank "A100" before "A2", as aggregate() does.
        _study, products = _recorded_study(cardiac_assist_system())
        options = AggregationOptions()
        product = max(
            (model for model in products if _has_internal_move(aggregate(model)[0])),
            key=lambda model: len(model.signature.internals),
        )
        assert len(product.signature.internals) >= 2
        mapping = _order_preserving_renaming(
            product, lambda count: [100, *range(2, count + 1)]
        )
        renamed = product.rename_actions(mapping)
        memo = QuotientMemo()
        memo.aggregate(product, options)
        hit = _memo_hit(memo, renamed, options)
        fresh, _stats = aggregate(renamed, options)
        assert canonical_form(hit) == canonical_form(fresh)

    def test_other_options_miss(self):
        _study, products = _recorded_study(cascaded_pand_system())
        product = max(products, key=lambda model: model.num_states)
        memo = QuotientMemo()
        memo.aggregate(product, AggregationOptions())
        for options in (
            AggregationOptions(method="strong"),
            AggregationOptions(minimiser="signature"),
        ):
            memo.aggregate(product, options)
        stats = memo.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (3, 0, 3)


PARAMETRIC_TREES = {
    # Three parameters: the CAS's repeated pump and motor blocks keep their
    # structure but no longer share their rates.
    "cas": lambda: with_rate_parameters(cardiac_assist_system(), ["P", "MA", "PA"]),
    "cps": lambda: with_rate_parameters(cascaded_pand_system()),
}


def _scaled_samples(tree):
    return [
        {name: nominal * scale for name, nominal in tree.parameters.items()}
        for scale in (0.4, 2.5)
    ]


class TestParametricRates:
    """Parameters are ranked like actions, and a hit takes the nominal
    values of the model that asks."""

    @pytest.mark.parametrize("tree", sorted(PARAMETRIC_TREES))
    def test_sweep_rows_match_fresh_studies(self, tree):
        tree = PARAMETRIC_TREES[tree]()
        query = Unreliability([0.5, 1.0])
        samples = _scaled_samples(tree)
        rows = SweepStudy(tree).run(RateSweep(query, samples)).rows
        for row, sample in zip(rows, samples):
            fresh = Study(substitute_parameters(tree, sample)).evaluate(query)
            assert row["unreliability"].values == pytest.approx(
                fresh["unreliability"].values, abs=1e-9
            )

    def test_race_bank_channels_hit_in_one_run(self):
        # One parameter per event and staggered nominal rates: the four
        # channels are equal up to a renaming of their parameters, so only
        # the first channel's products are aggregated.
        tree = with_rate_parameters(pand_race_bank(4))
        study, products = _recorded_study(tree)
        assert len(products) < len(study.statistics.steps) / 2
        query = UnreliabilityBounds([0.5, 1.0])
        samples = _scaled_samples(tree)
        rows = SweepStudy(tree).run(RateSweep(query, samples)).rows
        for row, sample in zip(rows, samples):
            fresh = Study(substitute_parameters(tree, sample)).evaluate(query)
            for side in ("lower", "upper"):
                assert getattr(row.measures[0], side) == pytest.approx(
                    getattr(fresh.measures[0], side), abs=1e-9
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

    def test_cache_less_studies_make_equal_minimiser_calls(self):
        tree = cardiac_assist_system()
        first = _minimiser_calls(tree)
        assert first and _minimiser_calls(tree) == first

    def test_no_result_aliases_a_cached_object(self, monkeypatch):
        # The memo keeps pickled quotients, so a hit unpickles a fresh copy
        # and no result can be an object another result or the memo holds.
        memos, outputs, hits = set(), [], []
        original = QuotientMemo.aggregate

        def recording(memo, model, options):
            memos.add(id(memo))
            hits_before = memo.hits
            output = original(memo, model, options)
            if memo.hits > hits_before:
                hits.append(output)
            assert all(isinstance(entry[0], bytes) for entry in memo._quotients.values())
            outputs.append(output)
            return output

        monkeypatch.setattr(QuotientMemo, "aggregate", recording)
        Study(cascaded_pand_system()).final_ioimc
        assert len(memos) == 1 and hits
        assert len({id(output) for output in outputs}) == len(outputs)


class TestBoundedMemo:
    def test_capacity_holds_under_a_long_stream(self, monkeypatch):
        monkeypatch.setattr(core_aggregation, "QUOTIENT_MEMO_CAPACITY", 8)
        memo = QuotientMemo()
        options = AggregationOptions()
        products = [
            product
            for seed in range(6)
            for product in _recorded_study(random_dft(7, seed=seed))[1]
        ]
        assert len(products) > 30
        for product in products:
            memo.aggregate(product, options)
            assert memo.stats()["entries"] <= 8
        stats = memo.stats()
        assert stats["entries"] == stats["capacity"] == 8
        assert stats["hits"] + stats["misses"] == len(products)
        # The most recently used product stays; the first one has gone.
        _memo_hit(memo, products[-1], options)
        misses = memo.misses
        memo.aggregate(products[0], options)
        assert memo.misses == misses + 1


AND_TREE = 'toplevel "S";\n"S" and "A" "B";\n"A" lambda=1.0;\n"B" lambda=2.0;\n'


class TestStoreMemo:
    """A skeleton store's builds share its memo; stores share nothing."""

    def test_builds_of_one_store_share_its_memo(self, tmp_path):
        store = SkeletonStore(tmp_path / "store")
        store.get_or_build(random_dft(8, seed=11))
        before = store.quotient_memo.stats()
        store.get_or_build(random_dft(8, seed=12))
        after = store.quotient_memo.stats()
        assert after["hits"] > before["hits"]
        assert store.stats()["quotient_memo"] == after

    def test_two_stores_never_share_a_memo(self, tmp_path):
        tree = cascaded_pand_system()
        first = SkeletonStore(tmp_path / "a")
        second = SkeletonStore(tmp_path / "b")
        assert first.quotient_memo is not second.quotient_memo
        first.get_or_build(tree)
        second.get_or_build(tree)
        assert first.quotient_memo.stats() == second.quotient_memo.stats()

    def test_metrics_report_the_memo(self, tmp_path):
        service = AnalysisService(SkeletonStore(tmp_path / "store"))
        try:
            service.handle("POST", "/analyze", {"tree": AND_TREE})
            memo = service.metrics_payload()["store"]["quotient_memo"]
        finally:
            service.close()
        assert set(memo) == {"entries", "capacity", "hits", "misses"}
        assert memo["misses"] >= 1

    def test_concurrent_builds_return_correct_entries(self, tmp_path, monkeypatch):
        store = SkeletonStore(tmp_path / "store")
        # Six structures, each asked for twice: equal keys race too.
        trees = [random_dft(7, seed=seed % 6) for seed in range(12)]
        query = Unreliability([1.0])
        expected = [Study(tree).evaluate(query).measures[0].values for tree in trees]
        calls, calls_lock = [0], threading.Lock()
        original = QuotientMemo.aggregate

        def counted(memo, model, options):
            with calls_lock:
                calls[0] += 1
            return original(memo, model, options)

        monkeypatch.setattr(QuotientMemo, "aggregate", counted)

        def served(tree):
            return Study(tree, skeleton_cache=store).evaluate(query).measures[0].values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) + 2) as pool:
                futures = [pool.submit(served, tree) for tree in trees]
                actual = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for values, reference in zip(actual, expected):
            assert values == pytest.approx(reference, abs=1e-12)
        stats = store.quotient_memo.stats()
        # A lost update of the memo's counters would break this sum.
        assert stats["hits"] + stats["misses"] == calls[0] > 0
        assert stats["entries"] <= stats["capacity"]

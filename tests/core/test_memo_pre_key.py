"""The quotient memo builds a product's full key only where a hit is possible.

The pre-key of a product (state count, initial state, role sizes and the
aggregation options) is a projection of its :func:`_renaming_key`, so only
a product whose pre-key an earlier product of the memo had can hit.  A
product with a new pre-key is kept unkeyed; the first product that repeats
the pre-key keys both.  The cells below check

* that the pre-key is read off the full key, and that equal full keys come
  with equal pre-keys, on the products of random fault trees;
* that on the benchmark ladder's seed-1 trees every Study counts the hits
  and misses of a memo that keys every product (25 and 169 in all);
* that a kept product is unchanged when its key is built at last, and its
  quotient pickled then is the one its miss returned;
* that threads sharing one small memo get correct quotients and keep its
  counters and tables consistent;
* that beyond ``UNKEYED_MEMO_CAPACITY`` the oldest unkeyed product is
  keyed, not dropped, so a long stream hits as often as keying every
  product does.
"""

import pickle
import random
import sys
from array import array
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import Study
from repro.core import aggregation as core_aggregation
from repro.core.aggregation import QuotientMemo, _pre_key, _renaming_key
from repro.ioimc import AggregationOptions, aggregate
from repro.systems import cascaded_pand_system, random_dft
from tests.core.test_quotient_memo import _order_preserving_renaming, _recorded_study
from tests.ioimc.test_ladder_reduction import ladder_trees
from tests.reduction_reference import canonical_form

PATTERNS = [{}, {"fdep": True}, {"shared_spares": True}]
OPTIONS = [
    AggregationOptions(method=method, minimiser=minimiser)
    for method in ("weak", "strong")
    for minimiser in ("closure", "signature")
]


def _products(seed: int, pattern: dict):
    return _recorded_study(random_dft(6, seed=seed, **pattern))[1]


def _key_fields(key: bytes):
    """Role sizes, state count and initial state, as the key packs them."""
    ints = array("q")
    ints.frombytes(key[24 : 24 + 5 * 8])  # after the three header counts
    inputs, outputs, internals, num_states, initial = ints
    return num_states, initial, inputs, outputs, internals


class TestPreKey:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=30),
        pattern=st.sampled_from(PATTERNS),
        options=st.sampled_from(OPTIONS),
        data=st.data(),
    )
    def test_the_pre_key_is_read_off_the_key(self, seed, pattern, options, data):
        product = data.draw(st.sampled_from(_products(seed, pattern)), label="product")
        key = _renaming_key(product, options).key
        pre_key = _pre_key(product, options)
        assert pre_key[:5] == _key_fields(key)
        assert key.endswith(f"{options.method!r}, {options.minimiser!r})".encode())
        assert pre_key[5:] == (options.method, options.minimiser)

    @settings(deadline=None)
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=3),
        pattern=st.sampled_from(PATTERNS),
        options=st.sampled_from(OPTIONS),
    )
    def test_equal_keys_imply_equal_pre_keys(self, seeds, pattern, options):
        products = [product for seed in seeds for product in _products(seed, pattern)]
        products += [
            product.rename_actions(
                _order_preserving_renaming(product, lambda count: range(10, 10 + count))
            )
            for product in products
        ]
        pre_keys = {}
        for product in products:
            key = _renaming_key(product, options).key
            assert pre_keys.setdefault(key, _pre_key(product, options)) == _pre_key(
                product, options
            )
        # Renamed copies share their original's key: some keys repeat.
        assert len(pre_keys) < len(products)


class _KeyEveryProduct(QuotientMemo):
    """The memo as it was before pre-keys: every product builds its key
    and every miss is pickled under it (no capacity bound is reached by
    one Study)."""

    def __init__(self):
        super().__init__()
        self._table = OrderedDict()

    def aggregate(self, model, options):
        asked = _renaming_key(model, options)
        known = self._table.get(asked.key)
        if known is None:
            self.misses += 1
            quotient, _stats = aggregate(model, options)
            self._table[asked.key] = (pickle.dumps(quotient), asked.names, asked.parameters)
            return quotient
        self.hits += 1
        blob, names, parameters = known
        quotient = pickle.loads(blob)
        mapping = {old: new for old, new in zip(names, asked.names) if old != new}
        if mapping:
            quotient = quotient.rename_actions(mapping)
        if parameters:
            quotient = quotient.rename_parameters(
                dict(zip(parameters, asked.parameters)), asked.nominals
            )
        quotient.name = model.name
        return quotient


def test_ladder_hits_and_misses_equal_keying_every_product():
    counted, reference = [], []
    for tree in ladder_trees(1):
        for memo, counts in ((QuotientMemo(), counted), (_KeyEveryProduct(), reference)):
            study = Study(tree, quotient_memo=memo)
            study.final_ioimc
            counts.append((memo.hits, memo.misses))
    assert counted == reference
    assert (sum(h for h, _m in counted), sum(m for _h, m in counted)) == (25, 169)


def test_a_kept_product_is_unchanged_when_its_key_is_built(monkeypatch):
    snapshots = {}  # id(product) -> (product, its key when it asked)
    returned = {}  # key -> canonical form of the quotient its miss returned
    asking = []
    built = []  # (product, key, asked by another product)

    original = QuotientMemo.aggregate

    def recording(memo, model, options):
        key = _renaming_key(model, options).key
        snapshots[id(model)] = (model, key)
        asking.append(model)
        quotient = original(memo, model, options)
        asking.pop()
        returned.setdefault(key, canonical_form(quotient))
        return quotient

    def keying(model, options):
        made = _renaming_key(model, options)
        built.append((model, made.key, model is not asking[-1]))
        return made

    monkeypatch.setattr(QuotientMemo, "aggregate", recording)
    monkeypatch.setattr(core_aggregation, "_renaming_key", keying)
    memo = QuotientMemo()
    Study(cascaded_pand_system(), quotient_memo=memo).final_ioimc
    kept = [(model, key) for model, key, late in built if late]
    assert kept and memo.hits
    for model, key in kept:
        assert snapshots[id(model)] == (model, key)
    assert memo._quotients
    for key, entry in memo._quotients.items():
        assert canonical_form(pickle.loads(entry.blob)) == returned[key]


def _assert_tables_consistent(memo: QuotientMemo) -> None:
    per_pre_key = {}
    for entry in memo._quotients.values():
        per_pre_key[entry.pre_key] = per_pre_key.get(entry.pre_key, 0) + 1
    assert {pre: n for pre, n in memo._keyed.items() if n} == per_pre_key
    assert not set(memo._pending) & set(memo._keyed)
    assert len(memo._quotients) + len(memo._pending) <= memo.capacity


def test_threads_share_one_memo(monkeypatch):
    monkeypatch.setattr(core_aggregation, "QUOTIENT_MEMO_CAPACITY", 12)
    options = AggregationOptions()
    products = _recorded_study(cascaded_pand_system())[1]
    products += _products(3, {"fdep": True}) + _products(5, {"shared_spares": True})
    products += [
        product.rename_actions(
            _order_preserving_renaming(product, lambda count: range(10, 10 + count))
        )
        for product in products
    ]
    expected = {id(product): canonical_form(aggregate(product, options)[0]) for product in products}
    memo = QuotientMemo()
    orders = []
    for seed in range(4):
        order = list(products)
        random.Random(seed).shuffle(order)
        orders.append(order)

    def run(order):
        wrong = []
        for product in order:
            quotient = memo.aggregate(product, options)
            if canonical_form(quotient) != expected[id(product)]:
                wrong.append(product.name)
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            wrong = [name for names in pool.map(run, orders) for name in names]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    stats = memo.stats()
    assert stats["hits"] + stats["misses"] == sum(map(len, orders))
    assert stats["hits"] > 0 and stats["entries"] <= 12
    _assert_tables_consistent(memo)


def test_unkeyed_products_beyond_the_cap_are_keyed(monkeypatch):
    monkeypatch.setattr(core_aggregation, "UNKEYED_MEMO_CAPACITY", 2)
    options = AggregationOptions()
    products = [product for seed in range(4) for product in _products(seed, {"fdep": True})]
    products += [
        product.rename_actions(
            _order_preserving_renaming(product, lambda count: range(10, 10 + count))
        )
        for product in products
    ]
    memo, reference = QuotientMemo(), _KeyEveryProduct()
    for product in products:
        quotient = memo.aggregate(product, options)
        assert canonical_form(quotient) == canonical_form(reference.aggregate(product, options))
        assert len(memo._pending) <= 2
    assert (memo.hits, memo.misses) == (reference.hits, reference.misses)
    assert memo.hits >= len(products) // 2
    _assert_tables_consistent(memo)

"""The cold pass does not re-derive what it already knows.

One cache-less Study per tree of the benchmark's seed-1 ``cold_ladder``
(``tests/ioimc/test_ladder_reduction.py``), with two kinds of work counted:

* quotient-memo keys: a product builds its full key only when an earlier
  product of its memo had the same pre-key.  Keying every product took 194
  calls over the twelve trees; about 80 remain;
* reachability searches: products, element models and quotients carry the
  mark that every state is reachable, so a search runs only after a
  maximal-progress prune removed a move (keeping them all took 363
  searches; no prune removes a move on these trees).
"""

from repro import Study
from repro.core import aggregation as core_aggregation
from repro.ioimc import reduction
from repro.ioimc.model import IOIMC
from tests.ioimc.test_ladder_reduction import ladder_trees


def test_seed_one_ladder_work_counts(monkeypatch):
    counts = {"keys": 0, "searches": 0, "prunes": 0}
    renaming_key = core_aggregation._renaming_key
    reachable_states = IOIMC.reachable_states
    prune = reduction._prune_urgent_rates

    def counted_key(model, options):
        counts["keys"] += 1
        return renaming_key(model, options)

    def counted_search(model):
        counts["searches"] += 1
        return reachable_states(model)

    def counted_prune(model):
        pruned = prune(model)
        counts["prunes"] += pruned is not model
        return pruned

    monkeypatch.setattr(core_aggregation, "_renaming_key", counted_key)
    monkeypatch.setattr(IOIMC, "reachable_states", counted_search)
    monkeypatch.setattr(reduction, "_prune_urgent_rates", counted_prune)
    for tree in ladder_trees(1):
        Study(tree).final_ioimc
    assert 0 < counts["keys"] <= 90
    assert counts["searches"] <= counts["prunes"]

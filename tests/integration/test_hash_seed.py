"""Aggregation does not depend on string hashing.

Action ids are interned in first-seen order, and the state numbering of
element models, quotient move order and the product loop of ``parallel``
all follow those ids.  Element models are explored with their inputs in
name order and signatures intern their names in name order, so two
processes with different ``PYTHONHASHSEED`` build the same products: the
same quotient-memo hits, the same minimiser calls and the same results.
Before, CPS's ``BE(D1)||Gate(D)`` product missed the memo under hash seed
0 and hit it under hash seed 3.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per ladder tree (seed-1 rates): minimiser calls, memo hits and the
#: result's ``to_dict(include_steps=True)`` without timings.
CHILD = """
import json
from repro import Study, Unreliability, UnreliabilityBounds
from repro.core import aggregation
from repro.ioimc import reduction
from tests.ioimc.test_ladder_reduction import ladder_trees

counts = {"calls": 0, "hits": 0}
minimize_weak = reduction.minimize_weak
memo_aggregate = aggregation.QuotientMemo.aggregate

def counting_minimiser(model, **kwargs):
    counts["calls"] += 1
    return minimize_weak(model, **kwargs)

def counting_memo(self, model, options):
    hits = self.hits
    quotient = memo_aggregate(self, model, options)
    counts["hits"] += self.hits - hits
    return quotient

reduction.minimize_weak = counting_minimiser
aggregation.QuotientMemo.aggregate = counting_memo
rows = []
for index, tree in enumerate(ladder_trees()):
    counts.update(calls=0, hits=0)
    # The race bank and the random trees may be nondeterministic.
    query = UnreliabilityBounds([1.0]) if index >= 3 else Unreliability([1.0])
    result = Study(tree).evaluate(query).to_dict(include_steps=True)
    result.pop("timings", None)
    rows.append([tree.name, counts["calls"], counts["hits"], result])
print(json.dumps(rows, sort_keys=True))
"""


def run_child(hash_seed: int) -> list:
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONHASHSEED": str(hash_seed),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        },
        check=True,
    )
    return json.loads(completed.stdout)


def test_two_hash_seeds_aggregate_alike():
    first, second = run_child(0), run_child(3)
    assert [row[:3] for row in first] == [row[:3] for row in second]
    assert first == second
    assert sum(row[2] for row in first) > 0  # the memo is exercised

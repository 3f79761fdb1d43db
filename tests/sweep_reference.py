"""Per-sample reference rows for the rate-sweep engine.

Every sample instantiates the skeleton into a concrete CTMC or CTMDP and
evaluates the query on it, with no kernel shared between samples: the
per-sample work a sweep's compiled model amortises away.  Differential
tests and benchmarks compare sweep rows, and their speed, against it.
:func:`batches_of` cuts a sweep's kernel batches to a given size, so tests
can pin that rows do not depend on the batch they share.
"""

import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence
from unittest import mock

from repro.core.results import SweepRow
from repro.core.study import evaluate_query_on_model
from repro.ctmc.kernel import CsrBuffer
from repro.errors import ReproError


def per_sample_rows(
    skeleton,
    query,
    samples: Sequence[Mapping[str, float]],
    declared: Optional[Mapping[str, float]] = None,
    tolerance: float = 1e-12,
) -> List[SweepRow]:
    """One row per sample (unswept ``declared`` parameters keep their value)."""
    rows = []
    for sample in samples:
        assignment: Dict[str, float] = {**(declared or {}), **sample}
        start = time.perf_counter()
        try:
            measures = evaluate_query_on_model(
                skeleton.instantiate(assignment), query, tolerance=tolerance, on_error="record"
            )
        except ReproError as error:
            rows.append(SweepRow(dict(sample), (), time.perf_counter() - start, error=str(error)))
            continue
        rows.append(SweepRow(dict(sample), measures, time.perf_counter() - start))
    return rows


@contextmanager
def batches_of(blocks: int):
    """Cap every kernel batch at ``blocks`` samples while the block runs."""
    with mock.patch.object(CsrBuffer, "max_blocks", property(lambda _buffer: blocks)):
        yield

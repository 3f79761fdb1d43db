"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host is shared: for seconds to minutes at a time the same
code runs up to twice as slow, and a whole run can fall inside such a
spell.  The yardstick is timed just before and just after every pass of
the in-process workloads, and their timings are reported at the
yardstick's reference speed: multiplied by ``REFERENCE_S`` / the faster of
those two yardstick times.
A change to the program moves the scaled timings as it moves the raw ones;
a slow spell of the host moves both the ops and the yardstick.

The work resembles the program's: interpreter-bound dict and list handling
next to short numpy/scipy calls on a few hundred states, like a
uniformisation series on a small model.  It uses nothing from ``src/``, so
no change to the program changes it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse

#: Seconds of ``seconds()`` on an unloaded 2-vCPU Intel Xeon container
#: (Python 3.11, numpy 2.4, scipy 1.17).  Scaled timings read about as they
#: would there.
REFERENCE_S = 0.0100

_STATES = 455
_MATRIX = sparse.random(_STATES, _STATES, density=5.0 / _STATES, random_state=1, format="csr")
_VECTOR = np.random.default_rng(0).random(_STATES)


def _work() -> float:
    table: dict = {}
    for index in range(12000):
        key = (index * 7919) % 1013
        table[key] = table.get(key, 0) + index
    rows = [(key, value) for key, value in sorted(table.items()) for _ in range(3)]
    vector = _VECTOR.copy()
    total = np.zeros(_STATES)
    for _ in range(1000):
        vector = _MATRIX @ vector
        vector *= 0.5
        total += vector
    return float(total.max()) + len(rows)


def seconds() -> float:
    """Seconds of one run of the yardstick."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor() -> float:
    """``REFERENCE_S`` over the fastest of three yardstick runs."""
    return REFERENCE_S / min(seconds() for _ in range(3))

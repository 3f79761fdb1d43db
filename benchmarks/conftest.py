"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's quantitative results (see
DESIGN.md, experiment index) and attaches the reproduced numbers — next to the
value the paper reports — to the pytest-benchmark record via ``extra_info`` so
they show up in ``--benchmark-verbose``/JSON output.  Hard assertions keep the
benchmarks honest: if a reproduction drifts away from the paper's value the
benchmark fails rather than silently reporting a timing.
"""

from __future__ import annotations

from repro import Unreliability


def unreliability(study, time: float) -> float:
    """The unreliability of ``study``'s tree at mission ``time``."""
    return study.evaluate(Unreliability([time]))["unreliability"].value


def record(benchmark, **extra_info):
    """Attach reproduction metadata to a pytest-benchmark record."""
    for key, value in extra_info.items():
        benchmark.extra_info[key] = value

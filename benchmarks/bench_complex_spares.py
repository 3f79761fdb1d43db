"""E5 — complex (gate-valued) spares and generalised activation (Section 6.1).

The paper's Figure 10a/10b systems use whole sub-trees as primary and spare of
a spare gate.  The benchmark checks the activation semantics end to end by
comparing the compositional result against the independent monolithic
generator, and records the closed-form cross-check for the symmetric AND-spare
system.
"""

import numpy as np
import pytest
from scipy import linalg

from repro import Study
from repro.baselines import monolithic_unreliability
from repro.systems import and_spare_system, nested_spare_system

from conftest import record, unreliability


def ctmc_transient_probability(generator, initial, goal, time):
    """Reference transient probability via a dense matrix exponential."""
    matrix = linalg.expm(np.asarray(generator, dtype=float) * time)
    return float(sum(matrix[initial, g] for g in goal))

MISSION_TIME = 1.0


@pytest.mark.benchmark(group="complex-spares")
def test_and_spare_system(benchmark):
    """Figure 10a: cold AND module as the spare of an AND module."""
    tree = and_spare_system()

    def run():
        return unreliability(Study(tree), MISSION_TIME)

    value = benchmark(run)
    # Phase-type ground truth: two hot components must fail (rates 2,1), then
    # the freshly activated cold pair must fail (rates 2,1).
    generator = [
        [-2.0, 2.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]
    closed_form = ctmc_transient_probability(generator, 0, [4], MISSION_TIME)
    reference = monolithic_unreliability(tree, MISSION_TIME)
    record(
        benchmark,
        experiment="E5 (Figure 10a, AND modules as primary and spare)",
        unreliability=value,
        closed_form=closed_form,
        monolithic_reference=reference,
    )
    assert value == pytest.approx(closed_form, abs=1e-9)
    assert value == pytest.approx(reference, abs=1e-9)


@pytest.mark.benchmark(group="complex-spares")
def test_nested_spare_system(benchmark):
    """Figure 10b: a spare gate used as the spare of another spare gate.

    The inner spare D must stay dormant until the inner gate is both activated
    and has lost its primary."""
    tree = nested_spare_system()

    def run():
        return unreliability(Study(tree), MISSION_TIME)

    value = benchmark(run)
    reference = monolithic_unreliability(tree, MISSION_TIME)
    record(
        benchmark,
        experiment="E5 (Figure 10b, nested spare gates)",
        unreliability=value,
        monolithic_reference=reference,
        paper_claim="activation is passed to the primary only",
    )
    assert value == pytest.approx(reference, abs=1e-7)

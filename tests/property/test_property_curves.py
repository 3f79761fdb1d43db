"""Property tests: vectorised curve evaluation vs per-point evaluation.

The vectorised transient sweep (a CTMC's kernel curve) must agree with
per-point ``probability_of_label`` of the per-state reference series
(``tests/series_reference.py``) on the paper's systems — the figure 2 pair,
the cardiac assist system (CAS) and the cascaded PAND system (CPS) — and the
CTMDP bound sweeps must produce monotone (min, max) envelopes that agree
with the per-point bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Study, signals
from repro.ctmc import CTMC, CTMDP, ctmc_from_ioimc
from repro.ioimc import minimize_weak, parallel
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    figure2_models,
    pand_race_system,
)

from tests.series_reference import probability_of_label

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def _figure2_ctmc() -> CTMC:
    model_a, model_b = figure2_models(rate=1.0)
    aggregated = minimize_weak(parallel(model_a, model_b).hide(["a"]))
    return ctmc_from_ioimc(aggregated)


@pytest.fixture(scope="module")
def paper_ctmcs():
    """label -> CTMC for figure2, CAS and CPS (built once per module)."""
    return {
        "figure2": _figure2_ctmc(),
        "cas": Study(cardiac_assist_system()).markov_model,
        "cps": Study(cascaded_pand_system()).markov_model,
    }


def _hand_built_ctmdp() -> CTMDP:
    """A vanishing choice between a fast and a slow route to the goal."""
    ctmdp = CTMDP(5, initial=0)
    ctmdp.add_rate(0, 1, 1.0)
    ctmdp.set_choices(1, [2, 3])  # scheduler picks the route
    ctmdp.add_rate(2, 4, 4.0)  # fast route
    ctmdp.add_rate(3, 4, 0.5)  # slow route
    ctmdp.set_labels(4, [signals.FAILED_LABEL])
    return ctmdp


@pytest.fixture(scope="module")
def paper_ctmdps():
    """Non-deterministic models: the paper's PAND race plus a hand-built one."""
    models = {
        "pand_race": Study(pand_race_system()).markov_model,
        "vanishing_choice": _hand_built_ctmdp(),
    }
    assert all(isinstance(model, CTMDP) for model in models.values())
    return models


class TestVectorisedCtmcCurves:
    @pytest.mark.parametrize("system", ["figure2", "cas", "cps"])
    @given(times=times_strategy)
    @settings(max_examples=25, deadline=None)
    def test_curve_equals_per_point(self, paper_ctmcs, system, times):
        ctmc = paper_ctmcs[system]
        curve = ctmc.probability_of_label_curve(signals.FAILED_LABEL, times)
        expected = [probability_of_label(ctmc, signals.FAILED_LABEL, t) for t in times]
        assert curve == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("system", ["figure2", "cas", "cps"])
    def test_dense_curve_matches_per_point(self, paper_ctmcs, system):
        """The acceptance-criterion shape: a dense 100-point curve."""
        ctmc = paper_ctmcs[system]
        times = np.linspace(0.0, 5.0, 100)
        curve = ctmc.probability_of_label_curve(signals.FAILED_LABEL, times)
        expected = [probability_of_label(ctmc, signals.FAILED_LABEL, t) for t in times]
        assert float(np.max(np.abs(curve - np.asarray(expected)))) <= 1e-9
        # Failed states of a DFT are absorbing: the curve is monotone.
        assert np.all(np.diff(curve) >= -1e-12)

    @given(times=times_strategy)
    @settings(max_examples=25, deadline=None)
    def test_distributions_rows_match_single_point(self, paper_ctmcs, times):
        ctmc = paper_ctmcs["figure2"]
        rows = ctmc.transient_distributions(times)
        for row, time in zip(rows, times):
            assert row == pytest.approx(ctmc.transient_distribution(time), abs=1e-12)
            assert float(row.sum()) == pytest.approx(1.0, abs=1e-9)


class TestCtmdpBoundCurves:
    @pytest.mark.parametrize("system", ["pand_race", "vanishing_choice"])
    @given(times=times_strategy)
    @settings(max_examples=15, deadline=None)
    def test_bounds_curve_equals_per_point(self, paper_ctmdps, system, times):
        ctmdp = paper_ctmdps[system]
        lower, upper = ctmdp.reachability_bounds_curve(signals.FAILED_LABEL, times)
        for index, time in enumerate(times):
            low, high = ctmdp.reachability_bounds(signals.FAILED_LABEL, time)
            assert lower[index] == pytest.approx(low, abs=1e-9)
            assert upper[index] == pytest.approx(high, abs=1e-9)

    @pytest.mark.parametrize("system", ["pand_race", "vanishing_choice"])
    def test_bounds_curves_are_monotone_envelopes(self, paper_ctmdps, system):
        ctmdp = paper_ctmdps[system]
        times = np.linspace(0.0, 5.0, 60)
        lower, upper = ctmdp.reachability_bounds_curve(signals.FAILED_LABEL, times)
        # Envelope: min <= max everywhere, both within [0, 1].
        assert np.all(lower <= upper + 1e-12)
        assert np.all((0.0 <= lower) & (upper <= 1.0))
        # Goal states are absorbing, so both reachability curves are monotone
        # non-decreasing in the time bound.
        assert np.all(np.diff(lower) >= -1e-9)
        assert np.all(np.diff(upper) >= -1e-9)
        # The envelope is non-trivial for these systems at positive times.
        assert upper[-1] > lower[-1]

"""Tests for transient analysis (uniformisation vs. matrix exponential).

The functions under test run on the chain's transient kernel; the matrix
exponential and the ``scipy.stats`` Poisson terms come from the oracle
module ``tests/series_reference.py``.
"""

import math

import numpy as np
import pytest

from repro.ctmc import (
    CTMC,
    PoissonTermCache,
    poisson_terms,
    probability_of_label_curve,
    probability_reach_label,
    transient_distribution,
    transient_distributions,
)
from repro.errors import AnalysisError

from tests.series_reference import poisson_terms_reference, transient_distribution_expm


def erlang_chain(stages: int = 3, rate: float = 2.0) -> CTMC:
    chain = CTMC(stages + 1, initial=0)
    for stage in range(stages):
        chain.add_rate(stage, stage + 1, rate)
    chain.set_labels(stages, ["failed"])
    return chain


class TestPoissonTerms:
    def test_terms_sum_to_one(self):
        for rate in (0.1, 1.0, 7.3, 50.0, 400.0):
            terms = poisson_terms(rate, 1e-12)
            assert terms.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_rate(self):
        assert poisson_terms(0.0, 1e-12).tolist() == [1.0]

    def test_negative_rate_rejected(self):
        with pytest.raises(AnalysisError):
            poisson_terms(-1.0, 1e-12)

    def test_out_of_range_tolerance_rejected(self):
        with pytest.raises(AnalysisError):
            poisson_terms(1.0, 0.0)
        with pytest.raises(AnalysisError):
            poisson_terms(1.0, 1.0)

    def test_sub_epsilon_tolerance_is_clamped_not_crashing(self):
        terms = poisson_terms(5.0, 1e-300)
        assert terms.sum() == pytest.approx(1.0, abs=1e-12)


class TestPoissonTermsDifferential:
    """The gammaln log-space path vs the per-term ``scipy.stats`` reference."""

    @pytest.mark.parametrize("rate", [1e-6, 1e-3, 0.1, 1.0, 7.3, 50.0, 400.0, 2500.0])
    @pytest.mark.parametrize("tolerance", [1e-6, 1e-12])
    def test_matches_reference_within_1e_minus_12(self, rate, tolerance):
        fast = poisson_terms(rate, tolerance)
        reference = poisson_terms_reference(rate, tolerance)
        assert fast.shape == reference.shape  # identical truncation point
        assert np.max(np.abs(fast - reference)) <= 1e-12

    def test_reference_rejects_bad_inputs_like_the_fast_path(self):
        with pytest.raises(AnalysisError):
            poisson_terms_reference(-1.0, 1e-12)
        with pytest.raises(AnalysisError):
            poisson_terms_reference(1.0, 0.0)


class TestPoissonTruncation:
    """The vectorised quantile is ``scipy.stats.poisson.ppf``'s, without it."""

    #: Sub-epsilon tolerances exercise the clamp to nextafter(1, 0).
    TOLERANCES = (0.5, 1e-4, 1e-8, 1e-10, 1e-12, 1e-15, 1e-17, 1e-300)

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    def test_depths_equal_the_scipy_stats_quantile(self, tolerance):
        from scipy import stats

        from repro.ctmc.transient import _poisson_truncation

        rng = np.random.default_rng(16)
        rates = np.concatenate([10.0 ** rng.uniform(-3.0, 4.0, 5000), [1e-3, 1.0, 1e4]])
        quantile = min(1.0 - tolerance, math.nextafter(1.0, 0.0))
        expected = np.maximum(stats.poisson.ppf(quantile, rates).astype(np.int64) + 2, 1)
        assert np.array_equal(_poisson_truncation(rates, tolerance), expected)

    def test_many_rates_in_one_pass_equal_each_alone(self):
        from repro.ctmc.transient import poisson_terms_many

        rates = [0.0, 1e-3, 0.4, 7.3, 7.3, 0.0, 50.0, 400.0]
        batch = poisson_terms_many(rates, 1e-12)
        for rate, terms in zip(rates, batch):
            assert np.array_equal(terms, poisson_terms(rate, 1e-12))

    def test_cache_fills_every_miss_at_once(self):
        cache = PoissonTermCache()
        first = cache.get_many([1.5, 3.0, 1.5], 1e-12)
        assert first[0] is first[2]
        assert cache.get(3.0, 1e-12) is first[1]
        assert np.array_equal(first[1], poisson_terms(3.0, 1e-12))


class TestTransient:
    def test_matches_matrix_exponential(self):
        chain = erlang_chain()
        for t in (0.1, 0.7, 2.0, 5.0):
            uniform = transient_distribution(chain, t)
            dense = transient_distribution_expm(chain, t)
            assert np.allclose(uniform, dense, atol=1e-9)

    def test_time_zero(self):
        chain = erlang_chain()
        distribution = transient_distribution(chain, 0.0)
        assert distribution.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_negative_time_rejected(self):
        with pytest.raises(AnalysisError):
            transient_distribution(erlang_chain(), -1.0)

    def test_distribution_sums_to_one(self):
        chain = erlang_chain(stages=5, rate=0.7)
        distribution = transient_distribution(chain, 3.0)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-12)
        assert (distribution >= 0).all()

    def test_custom_initial_distribution(self):
        chain = erlang_chain()
        start = np.array([0.0, 1.0, 0.0, 0.0])
        distribution = transient_distribution(chain, 0.5, initial_distribution=start)
        assert distribution[0] == pytest.approx(0.0)

    def test_bad_initial_distribution_rejected(self):
        chain = erlang_chain()
        with pytest.raises(AnalysisError):
            transient_distribution(chain, 1.0, initial_distribution=np.array([0.5, 0.5]))
        with pytest.raises(AnalysisError):
            transient_distribution(
                chain, 1.0, initial_distribution=np.array([0.5, 0.1, 0.1, 0.1])
            )

    def test_chain_without_transitions(self):
        chain = CTMC(1)
        distribution = transient_distribution(chain, 10.0)
        assert distribution.tolist() == [1.0]

    def test_erlang_closed_form(self):
        # Erlang(2, rate): P(T <= t) = 1 - e^{-rt}(1 + rt)
        chain = erlang_chain(stages=2, rate=3.0)
        t = 0.8
        probability = transient_distribution(chain, t)[2]
        assert probability == pytest.approx(
            1.0 - math.exp(-3.0 * t) * (1.0 + 3.0 * t), abs=1e-10
        )


class TestReachability:
    def test_reach_equals_occupancy_for_absorbing_goal(self):
        chain = erlang_chain()
        t = 1.3
        assert probability_reach_label(chain, "failed", t) == pytest.approx(
            float(transient_distribution(chain, t)[3]), abs=1e-10
        )

    def test_reach_differs_for_recurrent_goal(self):
        chain = CTMC(2, initial=0)
        chain.add_rate(0, 1, 1.0)
        chain.add_rate(1, 0, 10.0)
        chain.set_labels(1, ["failed"])
        t = 2.0
        occupancy = float(transient_distribution(chain, t)[1])
        visited = probability_reach_label(chain, "failed", t)
        assert visited > occupancy

    def test_reach_without_goal_states(self):
        chain = erlang_chain()
        assert probability_reach_label(chain, "nothing", 1.0) == 0.0

    def test_unreliability_curve_monotone_for_absorbing_failures(self):
        chain = erlang_chain()
        times = [0.0, 0.5, 1.0, 2.0, 4.0]
        curve = probability_of_label_curve(chain, "failed", times)
        assert list(curve) == sorted(curve)
        assert curve[0] == pytest.approx(0.0)


class TestVectorisedSweep:
    def test_rows_match_per_point_distributions(self):
        chain = erlang_chain()
        times = [0.0, 0.3, 1.0, 2.5, 1.0]  # unsorted, with a duplicate
        rows = transient_distributions(chain, times)
        assert rows.shape == (5, chain.num_states)
        for row, time in zip(rows, times):
            assert row == pytest.approx(transient_distribution(chain, time), abs=1e-12)

    def test_empty_times(self):
        rows = transient_distributions(erlang_chain(), [])
        assert rows.shape == (0, 4)
        assert probability_of_label_curve(erlang_chain(), "failed", []).shape == (0,)

    def test_negative_time_rejected(self):
        with pytest.raises(AnalysisError):
            transient_distributions(erlang_chain(), [1.0, -0.5])

    def test_curve_without_goal_states_is_zero(self):
        curve = probability_of_label_curve(erlang_chain(), "nothing", [0.5, 1.0])
        assert curve.tolist() == [0.0, 0.0]

    def test_curve_matches_per_point_probability(self):
        chain = erlang_chain(stages=4, rate=1.7)
        times = np.linspace(0.0, 5.0, 37)
        curve = probability_of_label_curve(chain, "failed", times)
        expected = [chain.probability_of_label("failed", float(t)) for t in times]
        assert curve == pytest.approx(expected, abs=1e-12)

    def test_initial_distribution_is_respected(self):
        chain = erlang_chain()
        start = np.array([0.0, 1.0, 0.0, 0.0])
        rows = transient_distributions(chain, [0.7], initial_distribution=start)
        single = transient_distribution(chain, 0.7, initial_distribution=start)
        assert rows[0] == pytest.approx(single, abs=1e-12)

    def test_wildly_skewed_truncation_depths(self):
        """One deep time point must not perturb (or bloat) the shallow ones."""
        chain = erlang_chain(stages=3, rate=2.0)
        times = [0.01, 0.02, 500.0, 0.05]
        rows = transient_distributions(chain, times)
        for row, time in zip(rows, times):
            assert row == pytest.approx(transient_distribution(chain, time), abs=1e-12)

    def test_non_finite_time_rejected_even_without_goal_states(self):
        with pytest.raises(AnalysisError):
            probability_of_label_curve(erlang_chain(), "nothing", [float("nan")])


class TestPoissonTermCache:
    def test_cache_returns_identical_arrays(self):
        cache = PoissonTermCache()
        first = cache.get(3.0, 1e-12)
        second = cache.get(3.0, 1e-12)
        assert first is second
        assert first == pytest.approx(poisson_terms(3.0, 1e-12))

    def test_cache_distinguishes_tolerance(self):
        cache = PoissonTermCache()
        loose = cache.get(5.0, 1e-4)
        tight = cache.get(5.0, 1e-12)
        assert len(loose) < len(tight)

    def test_duplicate_times_share_terms_within_a_sweep(self):
        chain = erlang_chain()
        transient_distributions(chain, [1.0, 1.0, 2.0])
        assert len(chain._kernel().term_cache._cache) == 2

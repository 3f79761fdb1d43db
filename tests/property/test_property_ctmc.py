"""Property-based tests for the CTMC solvers (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ctmc import CTMC, poisson_terms, transient_distribution
from repro.ctmc.steady_state import steady_state_distribution

from tests.series_reference import transient_distribution_expm


@st.composite
def random_ctmc(draw, max_states: int = 6, allow_absorbing: bool = True):
    """A random CTMC with moderately sized rates; state 0 is initial."""
    num_states = draw(st.integers(min_value=2, max_value=max_states))
    chain = CTMC(num_states, initial=0)
    rate_strategy = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
    for source in range(num_states):
        if allow_absorbing and draw(st.booleans()) and source != 0:
            continue  # leave this state absorbing
        targets = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_states - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        for target in targets:
            if target == source:
                continue
            chain.add_rate(source, target, draw(rate_strategy))
    # Label a non-initial state so measures are non-trivial when reachable.
    chain.set_labels(num_states - 1, ["failed"])
    return chain


@st.composite
def random_irreducible_ctmc(draw, max_states: int = 5):
    """A random CTMC whose states form one communicating class (via a ring)."""
    num_states = draw(st.integers(min_value=2, max_value=max_states))
    chain = CTMC(num_states, initial=0)
    rate_strategy = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
    for source in range(num_states):
        chain.add_rate(source, (source + 1) % num_states, draw(rate_strategy))
        extra_target = draw(st.integers(min_value=0, max_value=num_states - 1))
        if extra_target != source:
            chain.add_rate(source, extra_target, draw(rate_strategy))
    return chain


class TestTransientProperties:
    @settings(max_examples=40, deadline=None)
    @given(chain=random_ctmc(), time=st.floats(min_value=0.0, max_value=4.0))
    def test_uniformisation_matches_matrix_exponential(self, chain, time):
        uniform = transient_distribution(chain, time)
        dense = transient_distribution_expm(chain, time)
        assert np.allclose(uniform, dense, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(chain=random_ctmc(), time=st.floats(min_value=0.0, max_value=4.0))
    def test_result_is_a_distribution(self, chain, time):
        distribution = transient_distribution(chain, time)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-9)
        assert (distribution >= -1e-12).all()

    @settings(max_examples=25, deadline=None)
    @given(chain=random_ctmc(allow_absorbing=False), times=st.lists(
        st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=4))
    def test_chapman_kolmogorov_composition(self, chain, times):
        """pi(t1 + t2) equals propagating pi(t1) for another t2."""
        t1, t2 = sorted(times)[:2]
        direct = transient_distribution(chain, t1 + t2)
        staged = transient_distribution(
            chain, t2, initial_distribution=transient_distribution(chain, t1)
        )
        assert np.allclose(direct, staged, atol=1e-8)


class TestSteadyStateProperties:
    @settings(max_examples=30, deadline=None)
    @given(chain=random_irreducible_ctmc())
    def test_stationarity(self, chain):
        pi = steady_state_distribution(chain)
        generator = chain.generator_matrix().toarray()
        assert np.allclose(pi @ generator, 0.0, atol=1e-9)
        assert pi.sum() == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(chain=random_irreducible_ctmc())
    def test_long_run_transient_converges_to_steady_state(self, chain):
        # The horizon must dominate the chain's mixing time, which is governed
        # by the *slowest* transitions (rates down to 0.1), not the fastest:
        # scaling by max_exit_rate alone was flaky for skewed rate ratios.
        pi = steady_state_distribution(chain)
        horizon = 5000.0 / max(chain.max_exit_rate(), 1e-6)
        late = transient_distribution(chain, horizon)
        assert np.allclose(pi, late, atol=1e-4)


class TestPoissonProperties:
    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=300.0))
    def test_terms_form_a_distribution_prefix(self, rate):
        terms = poisson_terms(rate, 1e-10)
        assert (terms >= 0.0).all()
        assert 1.0 - terms.sum() <= 1e-9

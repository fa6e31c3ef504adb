"""Tests for the Eq. 5.4-5.6 hypergeometric / blemish / n* machinery."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.settings import EPSILON_RELAXED, EPSILON_STRICT, TABLE_5_2
from repro.costs.segments import (
    blemish_bound,
    hypergeom_pmf,
    log_blemish_bound,
    log_tail_probability,
    optimal_segment_size,
    segment_count,
)
from repro.errors import ConfigurationError


class TestHypergeometricPmf:
    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=400), st.data())
    def test_matches_scipy(self, universe, data):
        successes = data.draw(st.integers(min_value=0, max_value=universe))
        draws = data.draw(st.integers(min_value=0, max_value=universe))
        k = data.draw(st.integers(min_value=0, max_value=draws))
        ours = hypergeom_pmf(universe, successes, draws, k)
        theirs = stats.hypergeom.pmf(k, universe, successes, draws)
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-12)

    def test_pmf_sums_to_one(self):
        universe, successes, draws = 50, 12, 20
        total = sum(hypergeom_pmf(universe, successes, draws, k) for k in range(draws + 1))
        assert total == pytest.approx(1.0)

    def test_out_of_support_is_zero(self):
        assert hypergeom_pmf(10, 3, 5, 4) == 0.0
        assert hypergeom_pmf(10, 3, 5, -1) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            hypergeom_pmf(0, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            hypergeom_pmf(10, 11, 5, 1)


class TestTail:
    def test_matches_scipy_sf(self):
        ours = math.exp(log_tail_probability(1000, 100, 50, 10))
        theirs = stats.hypergeom.sf(10, 1000, 100, 50)
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_impossible_tail_is_neg_inf(self):
        assert log_tail_probability(100, 5, 10, 5) == float("-inf")
        assert log_tail_probability(100, 5, 10, 10) == float("-inf")

    def test_no_underflow_in_deep_tail(self):
        """The paper sweeps epsilon down to 1e-60; log space must hold up."""
        log_p = log_tail_probability(640_000, 6_400, 1_000, 64)
        assert -500 < log_p < math.log(1e-15)


class TestBlemishBound:
    def test_segments_at_most_memory_never_blemish(self):
        assert blemish_bound(1000, 100, 10, 10) == 0.0
        assert blemish_bound(1000, 100, 10, 5) == 0.0

    def test_monotone_while_meaningful(self):
        """The bound climbs with n throughout the sub-unit (meaningful) range.

        Beyond the point where the union bound exceeds 1 it decays back toward
        L/n >= 1, which never re-enters the feasible region for epsilon < 1 —
        so the n* boundary stays unique.
        """
        values = [
            log_blemish_bound(10_000, 500, 16, n) for n in (50, 75, 100, 150, 200)
        ]
        assert all(v < 0.2 for v in values)  # still in the meaningful range
        assert values == sorted(values)

    def test_never_feasible_again_after_crossing(self):
        epsilon = 1e-6
        n_star = optimal_segment_size(10_000, 500, 16, epsilon)
        for n in (n_star + 1, 2 * n_star, 10 * n_star, 9_999):
            assert blemish_bound(10_000, 500, 16, n) > epsilon

    def test_union_bound_factor(self):
        tail = math.exp(log_tail_probability(10_000, 500, 1000, 16))
        assert blemish_bound(10_000, 500, 16, 1000) == pytest.approx(
            min(1.0, (10_000 / 1000) * tail), rel=1e-9
        )


class TestOptimalSegmentSize:
    def test_bound_holds_at_n_star_but_not_above(self):
        universe, successes, memory, epsilon = 100_000, 1_000, 16, 1e-10
        n_star = optimal_segment_size(universe, successes, memory, epsilon)
        assert memory < n_star < universe
        assert blemish_bound(universe, successes, memory, n_star) <= epsilon
        assert blemish_bound(universe, successes, memory, n_star + 1) > epsilon

    def test_epsilon_zero_gives_memory(self):
        assert optimal_segment_size(100_000, 1_000, 16, 0.0) == 16

    def test_results_fit_in_memory_gives_whole_input(self):
        assert optimal_segment_size(100_000, 10, 16, 1e-30) == 100_000

    def test_larger_epsilon_allows_larger_segments(self):
        args = (640_000, 6_400, 64)
        n_strict = optimal_segment_size(*args, 1e-20)
        n_relaxed = optimal_segment_size(*args, 1e-10)
        assert n_relaxed > n_strict

    def test_larger_memory_allows_larger_segments(self):
        n_small = optimal_segment_size(640_000, 6_400, 64, 1e-20)
        n_large = optimal_segment_size(640_000, 6_400, 256, 1e-20)
        assert n_large > n_small

    def test_setting1_magnitude(self):
        """Hand analysis puts n* near 1.5e3 for setting 1 at eps = 1e-20."""
        n_star = optimal_segment_size(640_000, 6_400, 64, 1e-20)
        assert 800 < n_star < 3_000

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            optimal_segment_size(100, 10, 0, 0.5)
        with pytest.raises(ConfigurationError):
            optimal_segment_size(100, 10, 4, 2.0)

    @pytest.mark.parametrize("setting", TABLE_5_2, ids=lambda s: s.name)
    @pytest.mark.parametrize("epsilon", [EPSILON_STRICT, EPSILON_RELAXED])
    def test_cached_value_is_a_fresh_computation(self, setting, epsilon):
        args = (setting.total, setting.results, setting.memory, epsilon)
        first = optimal_segment_size(*args)
        hits = optimal_segment_size.cache_info().hits
        assert optimal_segment_size(*args) == first
        assert optimal_segment_size.cache_info().hits == hits + 1
        assert optimal_segment_size.__wrapped__(*args) == first

    @pytest.mark.parametrize("args", [
        (100, 10, 0, 0.5), (100, 10, 4, 2.0), (100, 10, 4, -0.1), (10, 20, 4, 0.5),
    ])
    def test_invalid_args_raise_every_time(self, args):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                optimal_segment_size(*args)


class TestSegmentCount:
    def test_ceiling(self):
        assert segment_count(100, 30) == 4
        assert segment_count(90, 30) == 3


class TestEmpiricalBlemishFrequency:
    def test_bound_is_conservative_in_simulation(self):
        """Random segmentations blemish no more often than the bound says."""
        universe, successes, memory = 400, 40, 8
        epsilon = 0.25
        segment = optimal_segment_size(universe, successes, memory, epsilon)
        rng = random.Random(0)
        population = [1] * successes + [0] * (universe - successes)
        trials, blemishes = 400, 0
        for _ in range(trials):
            rng.shuffle(population)
            for start in range(0, universe, segment):
                if sum(population[start:start + segment]) > memory:
                    blemishes += 1
                    break
        # The union bound is loose; empirical frequency must stay below it
        # with generous sampling slack.
        assert blemishes / trials <= epsilon + 0.08

"""Tests for the maximal LFSR and the streaming random order (Section 5.2.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mlfsr import MAXIMAL_TAPS, Mlfsr, RandomOrder, width_for
from repro.errors import ConfigurationError


class TestWidthFor:
    @pytest.mark.parametrize("universe,expected", [(1, 2), (3, 2), (4, 3), (7, 3),
                                                   (8, 4), (1000, 10), (640_000, 20)])
    def test_smallest_sufficient_width(self, universe, expected):
        assert width_for(universe) == expected

    def test_rejects_empty_universe(self):
        with pytest.raises(ConfigurationError):
            width_for(0)


class TestMlfsr:
    @pytest.mark.parametrize("width", list(range(2, 13)))
    def test_full_period_exhaustive(self, width):
        """Every width's taps are maximal: one cycle hits each nonzero state once."""
        lfsr = Mlfsr(width, seed=1)
        values = list(lfsr.cycle())
        assert len(values) == (1 << width) - 1
        assert sorted(values) == list(range(1, 1 << width))
        # The inline cycle walks the states step() does, and keeps state current.
        stepped = Mlfsr(width, seed=1)
        assert values == [stepped.state] + [stepped.step() for _ in values[1:]]
        assert lfsr.state == stepped.state == values[-1]

    def test_zero_state_never_reached(self):
        lfsr = Mlfsr(8, seed=123)
        assert all(v != 0 for v in lfsr.cycle())

    def test_seed_maps_into_nonzero_space(self):
        # Seed 0 and seed = period must still give nonzero initial states.
        assert Mlfsr(4, seed=0).state != 0
        assert Mlfsr(4, seed=15).state != 0

    def test_unsupported_width_rejected(self):
        with pytest.raises(ConfigurationError):
            Mlfsr(1)
        with pytest.raises(ConfigurationError):
            Mlfsr(64)

    def test_all_tap_tables_have_valid_positions(self):
        for width, taps in MAXIMAL_TAPS.items():
            assert all(1 <= t <= width for t in taps)
            assert taps[0] == width  # the feedback always taps the last stage


class TestRandomOrder:
    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=600), st.integers(min_value=0, max_value=9999))
    def test_is_a_permutation(self, universe, seed):
        order = RandomOrder(universe, seed=seed)
        values = order.permutation()
        assert sorted(values) == list(range(universe))

    def test_shared_seed_gives_identical_orders(self):
        """The property the Algorithm 6 parallelization relies on (5.3.5)."""
        assert RandomOrder(100, seed=7).permutation() == RandomOrder(100, seed=7).permutation()

    def test_different_seeds_differ(self):
        assert RandomOrder(100, seed=1).permutation() != RandomOrder(100, seed=2).permutation()

    def test_order_is_not_identity(self):
        values = RandomOrder(64, seed=5).permutation()
        assert values != list(range(64))

    def test_out_of_range_values_discarded(self):
        # Universe 5 uses a width-3 LFSR with period 7: two values discarded.
        values = RandomOrder(5, seed=1).permutation()
        assert sorted(values) == [0, 1, 2, 3, 4]

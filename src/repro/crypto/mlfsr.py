"""Maximal-length linear feedback shift registers (Section 5.2.3).

Algorithm 6 must visit every tuple of D exactly once in a random-looking
order without materializing a permutation of {1, ..., L}.  The paper's device
is a *Maximal Linear Feedback Shift Register* (MLFSR): with l internal state
bits it cycles through every value in {1, ..., 2^l - 1} exactly once before
repeating.  For an index set of size L one picks the smallest l with
2^l - 1 >= L and simply discards generated values larger than L.

We implement a Fibonacci LFSR with published maximal-length tap positions for
every width from 2 to 32 bits (enough for L up to ~4.29e9 tuples).  Tests
verify the full-period property exhaustively for small widths.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigurationError

# Maximal-length tap positions (1-based, MSB-first convention) per register
# width.  These correspond to primitive polynomials over GF(2); e.g. width 8
# uses x^8 + x^6 + x^5 + x^4 + 1.
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1), 3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6),
    8: (8, 6, 5, 4), 9: (9, 5), 10: (10, 7), 11: (11, 9), 12: (12, 6, 4, 1),
    13: (13, 4, 3, 1), 14: (14, 5, 3, 1), 15: (15, 14), 16: (16, 15, 13, 4),
    17: (17, 14), 18: (18, 11), 19: (19, 6, 2, 1), 20: (20, 17), 21: (21, 19),
    22: (22, 21), 23: (23, 18), 24: (24, 23, 22, 17), 25: (25, 22),
    26: (26, 6, 2, 1), 27: (27, 5, 2, 1), 28: (28, 25), 29: (29, 27),
    30: (30, 6, 4, 1), 31: (31, 28), 32: (32, 22, 2, 1),
}


def width_for(universe: int) -> int:
    """Smallest register width l with 2^l - 1 >= universe."""
    if universe < 1:
        raise ConfigurationError("universe size must be at least 1")
    width = 2
    while (1 << width) - 1 < universe:
        width += 1
    if width not in MAXIMAL_TAPS:
        raise ConfigurationError(f"no maximal tap table entry for width {width}")
    return width


class Mlfsr:
    """A maximal-length Fibonacci LFSR over ``width`` bits.

    Successive :meth:`step` calls return every value in {1, ..., 2^width - 1}
    exactly once per period.  The zero state is excluded (it is a fixed point
    of the recurrence).
    """

    def __init__(self, width: int, seed: int = 1) -> None:
        if width not in MAXIMAL_TAPS:
            raise ConfigurationError(f"unsupported LFSR width {width}")
        self.width = width
        self.period = (1 << width) - 1
        self._taps = MAXIMAL_TAPS[width]
        #: The tap bits as one mask: the feedback bit is its parity.
        self._mask = sum(1 << (width - tap) for tap in self._taps)
        state = seed % self.period
        self._state = state + 1  # map into the nonzero state space
        self._initial = self._state

    @property
    def state(self) -> int:
        return self._state

    def step(self) -> int:
        """Advance one step and return the new (nonzero) state."""
        bit = 0
        for tap in self._taps:
            bit ^= (self._state >> (self.width - tap)) & 1
        self._state = ((self._state >> 1) | (bit << (self.width - 1))) & self.period
        return self._state

    def cycle(self) -> Iterator[int]:
        """Yield one full period: every value in {1, ..., 2^width - 1} once.

        The same states :meth:`step` walks, stepped inline (the feedback bit
        is the parity of the tapped bits); :attr:`state` follows along.
        """
        state, mask, top = self._state, self._mask, self.width - 1
        yield state
        for _ in range(self.period - 1):
            state = (state >> 1) | (((state & mask).bit_count() & 1) << top)
            self._state = state
            yield state


class RandomOrder:
    """A streaming pseudo-random permutation of {0, ..., universe - 1}.

    Values the LFSR produces outside the universe are discarded, exactly as
    Section 5.2.3 prescribes ("A generated number that is outside I is simply
    discarded").  The shared-seed property is what enables the Algorithm 6
    parallelization of Section 5.3.5: coprocessors seeding identical MLFSRs
    observe identical orders and partition them by position.
    """

    def __init__(self, universe: int, seed: int = 1) -> None:
        if universe < 1:
            raise ConfigurationError("universe size must be at least 1")
        self.universe = universe
        self.seed = seed
        self.width = width_for(universe)

    def __iter__(self) -> Iterator[int]:
        lfsr = Mlfsr(self.width, self.seed)
        for value in lfsr.cycle():
            if value <= self.universe:
                yield value - 1  # 1-based LFSR values -> 0-based indices

    def permutation(self) -> list[int]:
        """Materialize the full permutation (for tests and small universes)."""
        return list(self)

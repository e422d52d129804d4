"""Each range scan over `PanelSeries.side` against the per-close form it replaced.

The references below are the earlier code, kept here as it was: each decided
a close's side of the range itself (`earlier_beyond`) as it scanned the
candles. On drawn closes around one fixed range, exactly on each boundary and
a tick past it among them, `derive` gives each close the side the reference
gives it, and `find_breakout_candidates`, `_first_shift` and
`range_persistence` over that side give what the references give.
"""
from decimal import Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangegov.hypotheses import _first_shift, find_breakout_candidates
from rangegov.model import BAR_SECONDS, Candle4H, RangeDefinition
from rangegov.structure import derive, range_persistence

from conftest import SCENARIO_NAMES, side_of

T0 = 1609459200
TICK = Decimal("1e-12")
LOWER, UPPER = Decimal("100.000000000000"), Decimal("104.000000000000")
RANGE = RangeDefinition(LOWER, UPPER, T0)
EDGES = (LOWER - TICK, LOWER, LOWER + TICK, UPPER - TICK, UPPER, UPPER + TICK)


def earlier_beyond(close, rng) -> int:
    """+1 above the range, -1 below, 0 inside (boundaries count as inside)."""
    if close > rng.upper:
        return 1
    if close < rng.lower:
        return -1
    return 0


def earlier_first_shift(candles, rng, start, stop):
    for i in range(start, stop):
        side = earlier_beyond(candles[i].close, rng)
        if side != 0 and side == earlier_beyond(candles[i + 1].close, rng):
            return i
    return None


def earlier_find_breakout_candidates(candles, rng) -> list:
    out = []
    closes = [c.close for c in candles]
    for i in range(1, len(closes)):
        side = earlier_beyond(closes[i], rng)
        if side != 0 and earlier_beyond(closes[i - 1], rng) != side:
            out.append((i, "up" if side > 0 else "down"))
    return out


def earlier_range_persistence(candles, rng) -> int:
    count = 0
    for c in reversed(candles):
        if rng.lower <= c.close <= rng.upper:
            count += 1
        else:
            break
    return count


closes = st.lists(st.sampled_from(EDGES) | st.decimals(95, 109, places=12),
                  min_size=1, max_size=30)


@given(closes)
@example(list(EDGES))
@example(list(reversed(EDGES)))
@example([UPPER + TICK, UPPER + TICK, UPPER, LOWER - TICK, LOWER - TICK, LOWER])
@settings(max_examples=200, deadline=None)
def test_each_scan_over_side_gives_the_per_close_result(drawn):
    candles = [Candle4H(T0 + i * BAR_SECONDS, c, c, c, c, Decimal(10))
               for i, c in enumerate(drawn)]
    side = side_of(candles, RANGE)
    assert side == tuple(earlier_beyond(c.close, RANGE) for c in candles)
    assert find_breakout_candidates(side) == earlier_find_breakout_candidates(candles, RANGE)
    assert range_persistence(side) == earlier_range_persistence(candles, RANGE)
    for stop in range(len(candles)):
        for start in range(stop + 1):
            assert _first_shift(side, start, stop) \
                == earlier_first_shift(candles, RANGE, start, stop)


def test_each_scenario_side_is_the_per_close_side(scenario_panels):
    for name in SCENARIO_NAMES:
        series = derive(scenario_panels[name][0])
        assert series.range is not None, name
        assert series.side == tuple(earlier_beyond(c.close, series.range)
                                    for c in series.panel.candles), name

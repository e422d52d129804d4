from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangegov.config import DEFAULTS
from rangegov.liquidity import (
    book_imbalance,
    depth_at_extremes,
    depth_percentiles,
    extremes_slopes,
    fill_slippage,
    impact_pairs,
    latest_valid_books,
    market_impact_coefficient,
    shelf_migration,
    spread,
)
from rangegov.model import BookSnapshot, RangeDefinition, d12, levels_text

from conftest import filled


def book(bids, asks, t=0):
    return BookSnapshot(
        time=t,
        bids=levels_text((d12(p), d12(s)) for p, s in bids),
        asks=levels_text((d12(p), d12(s)) for p, s in asks),
    )


def random_book(rng, mid=100.0, levels=20):
    bids = [(mid * (1 - 0.001 * (k + 1)), float(rng.uniform(1, 50)))
            for k in range(levels)]
    asks = [(mid * (1 + 0.001 * (k + 1)), float(rng.uniform(1, 50)))
            for k in range(levels)]
    return book(bids, asks)


class TestLatestValidBooks:
    def test_tail_skips_invalid_snapshots_and_names_them(self):
        good = [book([(99, 1)], [(101, 1)], t) for t in (0, 3600, 7200)]
        bad = book([(0, 1), (99, 1)], [(101, 1)], 5400)
        books = good[:2] + [bad] + good[2:]
        tail, notes = latest_valid_books(books, 3)
        assert tail == good
        assert notes == ["book snapshot 1970-01-01T01:30:00Z skipped: bids non-positive "
                         "price; bids levels not strictly ordered best-first"]
        assert latest_valid_books(books, 1) == (good[2:], [])
        assert latest_valid_books(books, 5) == (good, notes)

    def test_none_valid(self):
        bad = book([], [(101, 1)], 0)
        assert latest_valid_books([bad], 2) == (
            [], ["no valid book snapshot among 1; the latest, 1970-01-01T00:00:00Z, "
                 "has: bids empty"])
        assert latest_valid_books([], 2) == ([], [])


class TestDepthPercentiles:
    def test_uniform_four_level_quartiles(self):
        b = book([(99, 10), (98, 10), (97, 10), (96, 10)],
                 [(101, 10), (102, 10), (103, 10), (104, 10)])
        bid_prof, ask_prof = depth_percentiles(b)
        assert bid_prof.p25 == d12(99)
        assert bid_prof.p75 == d12(97)
        assert ask_prof.p25 == d12(101)
        assert ask_prof.p75 == d12(103)

    def test_all_depth_at_one_level(self):
        b = book([(99, 40), (98, 0.0001)], [(101, 7)])
        _, ask_prof = depth_percentiles(b)
        assert ask_prof.p25 == ask_prof.p75 == d12(101)

    def test_p25_never_farther_than_p75(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            b = random_book(rng)
            bid_prof, ask_prof = depth_percentiles(b)
            assert bid_prof.p25 >= bid_prof.p75       # bids walk downward
            assert ask_prof.p25 <= ask_prof.p75

    def test_matches_prefix_sum_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            b = random_book(rng, levels=int(rng.integers(2, 15)))
            bid_prof, _ = depth_percentiles(b)
            total = sum(float(s) for _, s in b.bid_levels)
            running = 0.0
            want25 = want75 = None
            for p, s in b.bid_levels:
                running += float(s)
                share = running / total
                if want25 is None and share >= 0.25 - 1e-12:
                    want25 = p
                if want75 is None and share >= 0.75 - 1e-12:
                    want75 = p
            assert bid_prof.p25 == want25
            assert bid_prof.p75 == want75


class TestShelfMigration:
    RANGE = RangeDefinition(lower=d12(95), upper=d12(105), established_at=0)

    def test_quarter_of_asks_above_upper_fires(self):
        b = book([(96, 10)], [(104, 75), (106, 25)])
        out = shelf_migration(b, self.RANGE)
        # shares are notional, so slightly above 25% here
        assert out.ask_above_share > 0.25
        assert out.signal_up
        assert not out.signal_down

    def test_all_depth_inside_is_quiet(self):
        b = book([(96, 10), (95, 5)], [(104, 10), (105, 5)])
        out = shelf_migration(b, self.RANGE)
        assert out.ask_above_share == 0.0
        assert out.bid_below_share == 0.0
        assert not out.signal_up and not out.signal_down

    def test_exactly_twenty_percent_does_not_fire(self):
        # notionals: 100*42.4 = 4240 inside, 106*10 = 1060 above -> share 0.2
        b = book([(96, 10)], [(100, 42.4), (106, 10)])
        out = shelf_migration(b, self.RANGE)
        assert out.ask_above_share == pytest.approx(0.2, abs=0)
        assert not out.signal_up

    def test_just_over_twenty_percent_fires(self):
        b = book([(96, 10)], [(100, 42.4), (106, 10.1)])
        out = shelf_migration(b, self.RANGE)
        assert out.signal_up

    def test_boundary_price_is_not_beyond(self):
        b = book([(95, 10)], [(105, 10)])
        out = shelf_migration(b, self.RANGE)
        assert out.ask_above_share == 0.0
        assert out.bid_below_share == 0.0


class TestDepthAtExtremes:
    RANGE = RangeDefinition(lower=d12(100), upper=d12(110), established_at=0)

    def test_empty_zone(self):
        b = book([(104, 10)], [(106, 10)])
        out = depth_at_extremes(b, self.RANGE)
        assert out == {"lower_usd": 0.0, "upper_usd": 0.0, "total_usd": 0.0}

    def test_zone_edge_is_inclusive(self):
        b = book([(100.5, 10)], [(115, 1)])
        out = depth_at_extremes(b, self.RANGE)
        assert out["lower_usd"] == pytest.approx(1005.0)

    def test_matches_filter_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            b = random_book(rng, mid=105.0)
            out = depth_at_extremes(b, self.RANGE)
            want = 0.0
            for p, s in b.bid_levels + b.ask_levels:
                pf, sf = float(p), float(s)
                if abs(pf - 100.0) / 100.0 <= 0.005 + 1e-12 \
                        or abs(pf - 110.0) / 110.0 <= 0.005 + 1e-12:
                    want += pf * sf
            assert out["total_usd"] == pytest.approx(want, rel=1e-9)

    def test_trend_slope_sign(self):
        rng_def = self.RANGE
        snaps = []
        for k in range(10):
            size = 100 - 8 * k
            snaps.append(book([(100.2, size)], [(109.9, size)], t=k * 3600))
        trend = extremes_slopes([depth_at_extremes(s, rng_def) for s in snaps])
        assert trend["lower_slope"] < 0
        assert trend["upper_slope"] < 0
        assert trend["snapshots"] == 10

    def test_trend_needs_two_snapshots(self):
        out = extremes_slopes([depth_at_extremes(book([(100, 1)], [(110, 1)]), self.RANGE)])
        assert out["total_slope"] is None


def whole_side_depth(snapshot, rng, cfg=DEFAULTS) -> dict:
    """`depth_at_extremes` as it was before it screened levels: decode every
    level of both sides and test each exactly."""
    band = d12(cfg.depth_extreme_band)

    def near(boundary):
        acc = Decimal(0)
        for levels in (snapshot.bid_levels, snapshot.ask_levels):
            for price, size in levels:
                if boundary > 0 and abs(price - boundary) / boundary <= band:
                    acc += price * size
        return acc

    lower = near(rng.lower)
    upper = near(rng.upper)
    return {"lower_usd": float(lower), "upper_usd": float(upper),
            "total_usd": float(lower + upper)}


_TICK = Decimal("1e-12")
# signed canonical numbers: up to 16 integer and 12 fractional digits
_NUMBER = st.builds(lambda neg, units, ticks: d12(Decimal(units) + ticks * _TICK).copy_sign(
                        Decimal(-1 if neg else 1)),
                    st.booleans(),
                    st.one_of(st.integers(0, 200), st.integers(0, 10 ** 16 - 1)),
                    st.one_of(st.sampled_from([0, 5 * 10 ** 11]), st.integers(0, 10 ** 12 - 1)))
# boundaries whose band edges are often exact canonical numbers, and any other
_BOUNDARY = st.one_of(st.sampled_from(["100", "97", "102.89692275", "1", "0.000000000001",
                                       "0", "-5"]).map(d12), _NUMBER)
# the default band, 0, bands `d12` rounds to 0 (5e-13 rounds half to even),
# one tick, negative and wide ones, and any other below the config bound
_BAND = st.one_of(st.sampled_from([0.005, 0.0, 4e-13, 5e-13, 6e-13, 1e-12, -0.005, 1.0, 2.5]),
                  st.floats(-1.0, 1e6, allow_nan=False))


@st.composite
def extremes_cases(draw):
    """(bids, asks, lower, upper, band): sides in any order, their prices
    drawn near each boundary's band edges (exactly on one, one tick either
    side) or anywhere."""
    band = draw(_BAND)
    lower, upper = draw(_BOUNDARY), draw(_BOUNDARY)
    width = d12(band)
    edges = [b + k * b * width for b in (lower, upper) for k in (-1, 0, 1)]
    near = sorted({d12(e + j * _TICK) for e in edges if abs(e) < 10 ** 15 for j in (-1, 0, 1)})
    price = st.one_of(st.sampled_from(near), _NUMBER) if near else _NUMBER
    side = st.lists(st.tuples(price, _NUMBER), max_size=6).map(levels_text)
    return draw(side), draw(side), lower, upper, band


def side_text(*pairs) -> str:
    return " ".join("%s:%s" % pair for pair in pairs)


@given(extremes_cases())
@example(("100.5:2 99.999999999999:1", "99.5:3 100.500000000001:4 99.499999999999:5",
          d12(100), d12(120), 0.005))
@example((side_text(("97.485", 1)), side_text(("96.515", 2)), d12(97), d12(200), 0.005))
@example((side_text(("100", 1)), side_text(("100.000000000001", 1)), d12(100), d12(100), 4e-13))
@example((side_text(("100", 1)), side_text(("1", 1)), d12(0), d12(-5), 0.005))
@example(("", "", d12(100), d12(110), 0.005))
@settings(max_examples=200, deadline=None)
def test_depth_equals_the_whole_side_reference(case):
    """Exactly the reference's sums, with no side decoded whole (200 drawn
    cases, about 2 s of tier-1)."""
    bids, asks, lower, upper, band = case
    rng = RangeDefinition(lower=lower, upper=upper, established_at=0)
    cfg = DEFAULTS.replace(depth_extreme_band=band)
    snap = BookSnapshot(0, bids, asks)
    assert depth_at_extremes(snap, rng, cfg) == whole_side_depth(BookSnapshot(0, bids, asks),
                                                                 rng, cfg)
    assert "_bid_levels" not in filled(snap) and "_ask_levels" not in filled(snap)


class TestFillSlippage:
    def test_single_level_half_spread(self):
        b = book([(99.95, 20000)], [(100.05, 20000)])
        out = fill_slippage(b, "buy", 1_000_000)
        assert out.slippage == pytest.approx(0.0005, rel=1e-12)
        assert not out.partial
        assert out.filled_usd == pytest.approx(1_000_000)

    def test_book_at_mid_has_zero_cost(self):
        b = book([(100, 1e9)], [(100, 1e9)])
        assert fill_slippage(b, "buy", 1_000_000).slippage == 0.0
        assert fill_slippage(b, "sell", 1_000_000).slippage == 0.0

    def test_two_level_walk_matches_hand_vwap(self):
        b = book([(100.0, 5), (99.0, 50)], [(101.0, 5), (102.0, 50)])
        out = fill_slippage(b, "sell", 1000)
        qty2 = Decimal(500) / Decimal(99)
        vwap = Decimal(1000) / (Decimal(5) + qty2)
        mid = (Decimal(100) + Decimal(101)) / 2
        want = float((mid - vwap) / mid)
        assert out.slippage == pytest.approx(want, rel=1e-12)

    def test_partial_fill_reports_cost_and_flag(self):
        b = book([(99, 1)], [(101, 1)])
        out = fill_slippage(b, "buy", 1_000_000)
        assert out.partial
        assert out.filled_usd == pytest.approx(101.0)
        assert out.slippage == pytest.approx(0.01, rel=1e-9)

    def test_cost_at_least_half_spread_and_monotone(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            b = random_book(rng)
            half_spread = float((b.best_ask - b.best_bid) / 2 / b.mid)
            costs = [fill_slippage(b, "buy", usd).slippage
                     for usd in (1e2, 1e3, 1e4, 1e5)]
            assert all(c >= half_spread - 1e-15 for c in costs)
            assert costs == sorted(costs)

    def test_bad_side_rejected(self):
        b = book([(99, 1)], [(101, 1)])
        with pytest.raises(ValueError):
            fill_slippage(b, "hold", 100)


class TestBookImbalance:
    def test_bid_heavy_extreme(self):
        b = book([(99, 150)], [(101, 100)])
        value, extreme = book_imbalance(b)
        assert value == pytest.approx(0.5)
        assert extreme

    def test_balanced(self):
        b = book([(99, 100)], [(101, 100)])
        assert book_imbalance(b) == (pytest.approx(0.0), False)

    def test_moderate_tilt_not_extreme(self):
        b = book([(99, 120)], [(101, 100)])
        value, extreme = book_imbalance(b)
        assert value == pytest.approx(0.2)
        assert not extreme

    def test_flag_is_side_symmetric(self):
        # ratio inside (1.3, 1/0.7): naive |value| rule would disagree on swap
        heavy = book([(99, 100)], [(101, 74)])
        light = book([(99, 74)], [(101, 100)])
        v1, f1 = book_imbalance(heavy)
        v2, f2 = book_imbalance(light)
        assert f1 == f2 is True
        assert v1 > 0 > v2
        rng = np.random.default_rng(41)
        for _ in range(30):
            bid, ask = float(rng.uniform(50, 200)), float(rng.uniform(50, 200))
            a = book([(99, bid)], [(101, ask)])
            bset = book([(99, ask)], [(101, bid)])
            assert book_imbalance(a)[1] == book_imbalance(bset)[1]

    def test_respects_level_window(self):
        deep_bids = [(99 - k, 10) for k in range(25)]
        asks = [(101, 10 * DEFAULTS.imbalance_depth_levels)]
        value, _ = book_imbalance(book(deep_bids, asks))
        # only the top 20 bid levels count
        assert value == pytest.approx(0.0)


class TestImpact:
    def test_linear_generator_recovers_slope(self):
        rng = np.random.default_rng(43)
        closes = [100.0]
        vols = [0.0]
        for _ in range(12):
            v = float(rng.uniform(10, 500))
            closes.append(closes[-1] * (1 + 0.0005 * v))
            vols.append(v)
        pairs = impact_pairs(closes, vols)
        slope, r2 = market_impact_coefficient(pairs)
        assert slope == pytest.approx(0.0005, rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_volume_not_evaluated(self):
        pairs = [(0.001, 50.0)] * 8
        assert market_impact_coefficient(pairs) is None

    def test_short_window_not_evaluated(self):
        assert market_impact_coefficient([(0.001, 1.0), (0.002, 2.0)]) is None

    def test_uses_trailing_window_only(self):
        # early garbage must not leak into the trailing 6-pair fit
        pairs = [(9.9, 1.0), (0.5, 777.0)]
        for v in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            pairs.append((0.0005 * v, v))
        slope, r2 = market_impact_coefficient(pairs)
        assert slope == pytest.approx(0.0005, rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-9)


class TestSpread:
    def test_exactly_ten_bps_is_quiet(self):
        b = book([(99.95, 1)], [(100.05, 1)])
        rel, flagged = spread(b)
        assert rel == pytest.approx(0.001, rel=1e-12)
        assert not flagged

    def test_wider_spread_flags(self):
        b = book([(99.90, 1)], [(100.10, 1)])
        rel, flagged = spread(b)
        assert rel == pytest.approx(0.002, rel=1e-9)
        assert flagged

    def test_tight_book_near_zero(self):
        b = book([(99.9999, 1)], [(100.0, 1)])
        rel, flagged = spread(b)
        assert rel == pytest.approx(1e-6, rel=1e-3)
        assert not flagged

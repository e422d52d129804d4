import math
from decimal import Decimal
from statistics import median

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rangegov import structure
from rangegov.config import DEFAULTS
from rangegov.errors import DataError
from rangegov.model import BAR_SECONDS, Candle4H, RangeDefinition, d12
from rangegov.structure import (
    PROFILE_MAX_BINS, absorption_footprints, derive, derive_range, map_swings,
    range_persistence, realized_volatility, resolve_range, volume_nodes, wick_series,
    wick_to_body,
)

from conftest import profile_columns

T0 = 1609459200


def bar(i, o, h, lo, c, v="10"):
    return Candle4H(T0 + i * BAR_SECONDS, d12(o), d12(h), d12(lo), d12(c), d12(v))


def flat_bar(i, price, v="10"):
    return bar(i, price, price, price, price, v)


def bars_from_closes(closes, wick=0.0):
    out = []
    prev = closes[0]
    for i, c in enumerate(closes):
        o = prev
        h = max(o, c) * (1 + wick)
        lo = min(o, c) * (1 - wick)
        out.append(bar(i, repr(float(o)), repr(float(h)), repr(float(lo)), repr(float(c))))
        prev = c
    return out


# --- swings ------------------------------------------------------------------

def test_swing_needs_clearance_on_both_sides():
    highs = [100, 101, 102, 103, 104, 110, 104, 103, 102, 101, 100]
    candles = [bar(i, h, h, h - 1, h) for i, h in enumerate(highs)]
    swings = map_swings(candles, lookback=5)
    kinds = {(s.index, s.kind) for s in swings}
    assert (5, "high") in kinds
    assert all(k == "high" or i == 5 for i, k in kinds)


def test_swing_tie_breaks_to_earlier_bar():
    highs = [100, 101, 102, 103, 104, 110, 104, 110, 104, 103, 102, 101, 100]
    candles = [bar(i, h, h, h - 1, h) for i, h in enumerate(highs)]
    swings = [s for s in map_swings(candles, lookback=5) if s.kind == "high"]
    assert [s.index for s in swings] == [5]


def test_swing_ends_excluded():
    highs = [100, 101, 150, 101, 100, 99, 98, 97, 96, 95, 94]
    candles = [bar(i, h, h, h - 1, h) for i, h in enumerate(highs)]
    assert all(s.index != 2 for s in map_swings(candles, lookback=5))


def test_swings_match_window_scan_oracle():
    rng = np.random.default_rng(17)
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=200)))
    candles = []
    for i, c in enumerate(closes):
        h = c * (1 + abs(rng.normal(0, 0.004)))
        lo = c * (1 - abs(rng.normal(0, 0.004)))
        candles.append(bar(i, repr(float(c)), repr(float(h)), repr(float(lo)), repr(float(c))))

    L = 5
    highs = [float(c.high) for c in candles]
    lows = [float(c.low) for c in candles]
    expected = set()
    for i in range(L, len(candles) - L):
        if all(highs[i] > highs[j] for j in range(i - L, i)) and \
           all(highs[i] >= highs[j] for j in range(i + 1, i + L + 1)):
            expected.add((i, "high"))
        if all(lows[i] < lows[j] for j in range(i - L, i)) and \
           all(lows[i] <= lows[j] for j in range(i + 1, i + L + 1)):
            expected.add((i, "low"))
    got = {(s.index, s.kind) for s in map_swings(candles, L)}
    assert got == expected


# --- range construction --------------------------------------------------------

def oscillation(n=40, lo=100.0, hi=104.0, period=8):
    """Closes bouncing between boundaries, extremes touching them."""
    closes = []
    for i in range(n):
        phase = (i % period) / period
        closes.append(lo + (hi - lo) * (0.5 - 0.5 * math.cos(2 * math.pi * phase)))
    candles = []
    prev = closes[0]
    for i, c in enumerate(closes):
        h = max(prev, c)
        l = min(prev, c)
        # touch bars kiss the boundary without closing beyond
        if abs(c - hi) < 0.3:
            h = hi
        if abs(c - lo) < 0.3:
            l = lo
        candles.append(bar(i, repr(prev), repr(h), repr(l), repr(c)))
        prev = c
    return candles


def test_derive_range_finds_boundaries_and_touches():
    candles = oscillation()
    swings = map_swings(candles, 5)
    rng = derive_range(candles, swings)
    assert rng is not None
    assert float(rng.lower) == pytest.approx(100.0, abs=0.5)
    assert float(rng.upper) == pytest.approx(104.0, abs=0.5)
    assert rng.touch_count_lower >= 2 and rng.touch_count_upper >= 2
    assert rng.established_at >= T0


def test_derive_range_rejects_trend():
    candles = bars_from_closes([100 * 1.01 ** i for i in range(40)])
    swings = map_swings(candles, 5)
    assert derive_range(candles, swings) is None


def test_derive_range_rejects_zero_width():
    candles = [flat_bar(i, "100") for i in range(40)]
    swings = map_swings(candles, 5)
    assert derive_range(candles, swings) is None


def test_resolve_range_sees_through_unconfirmed_tail():
    # a short tail cannot form confirmed swings, so the trailing window still
    # derives the oscillation's boundaries
    candles = oscillation(40)
    last = float(candles[-1].close)
    for k in range(5):
        c = last * (1.05 + 0.01 * k)
        candles.append(bar(40 + k, repr(last), repr(c * 1.001), repr(last * 0.999), repr(c)))
        last = c
    resolved = resolve_range(candles, map_swings(candles, DEFAULTS.swing_lookback))
    assert resolved is not None
    rng, _ = resolved
    assert float(rng.upper) == pytest.approx(104.0, abs=0.5)
    assert float(rng.lower) == pytest.approx(100.0, abs=0.5)


def test_resolve_range_walks_past_confirmed_distorting_swing():
    # the tail forms a confirmed swing high at 110 that only one bar ever
    # touches, so late anchors fail and the walk-back lands on the range
    candles = oscillation(40)
    # (close, explicit high): bar 45 is a wick peak only one bar ever touches
    tail = [(105, None), (106.5, None), (108, None), (109, None), (109.2, None),
            (108.8, 110.0), (107.5, None), (106.8, None), (106.0, None),
            (106.6, None), (107.0, None), (109.0, None)]
    prev = float(candles[-1].close)
    for k, (c, peak) in enumerate(tail):
        high = peak if peak is not None else max(prev, c)
        candles.append(bar(40 + k, repr(prev), repr(float(high)),
                           repr(float(min(prev, c))), repr(float(c))))
        prev = float(c)
    resolved = resolve_range(candles, map_swings(candles, DEFAULTS.swing_lookback))
    assert resolved is not None
    rng, anchor = resolved
    assert anchor < 50
    assert float(rng.upper) == pytest.approx(104.0, abs=0.5)
    assert float(rng.lower) == pytest.approx(100.0, abs=0.5)


# --- realized volatility -------------------------------------------------------

def test_realized_volatility_alternating_closed_form():
    n, w = 30, 20
    closes = [100.0 * (1.01 if i % 2 else 1.0) for i in range(n)]
    candles = bars_from_closes(closes)
    vol = realized_volatility(candles, window=w)
    assert np.isnan(vol[w - 1]) and not np.isnan(vol[w])
    r = math.log(1.01)
    # alternating +-r with even window: mean 0, sample std r*sqrt(w/(w-1))
    expected = r * math.sqrt(w / (w - 1))
    assert vol[-1] == pytest.approx(expected, rel=1e-12)


def test_realized_volatility_matches_two_pass_oracle():
    rng = np.random.default_rng(23)
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=60)))
    candles = bars_from_closes(list(closes))
    w = 20
    vol = realized_volatility(candles, window=w)
    logs = [math.log(c) for c in closes]
    rets = [b - a for a, b in zip(logs, logs[1:])]
    for t in range(w, len(closes)):
        sample = rets[t - w:t]
        mean = sum(sample) / w
        var = sum((x - mean) ** 2 for x in sample) / (w - 1)
        assert vol[t] == pytest.approx(math.sqrt(var), rel=1e-9)


def test_realized_volatility_scale_invariant():
    closes = [100.0, 101.5, 99.8, 102.2, 101.0] * 6
    a = realized_volatility(bars_from_closes(closes), 20)
    b = realized_volatility(bars_from_closes([c * 1000 for c in closes]), 20)
    assert a[-1] == pytest.approx(b[-1], rel=1e-9)


# --- wicks ---------------------------------------------------------------------

def test_wick_to_body_ratios():
    c = bar(0, "100", "103", "98", "101")
    upper, lower = wick_to_body(c)
    assert upper == pytest.approx(200.0)
    assert lower == pytest.approx(200.0)


def test_wick_to_body_doji_sentinel():
    c = bar(0, "100", "101", "99", "100")
    assert wick_to_body(c) == (None, None)


# --- volume profile -------------------------------------------------------------

def test_volume_nodes_split_proportionally():
    # one candle spanning exactly two 0.5-wide bins (median close 100)
    c = bar(0, "100", "100.75", "99.75", "100", v="8")
    profile = volume_nodes(*profile_columns([c]))
    assert profile.bin_width == pytest.approx(0.5)
    assert sum(profile.volumes) == pytest.approx(8.0, rel=1e-12)
    assert profile.volumes[0] == pytest.approx(4.0, rel=1e-12)
    assert profile.volumes[1] == pytest.approx(4.0, rel=1e-12)


def test_volume_nodes_degenerate_span_single_bin():
    c = flat_bar(0, "100", v="5")
    profile = volume_nodes(*profile_columns([c]))
    assert sum(profile.volumes) == pytest.approx(5.0)
    assert len(profile.volumes) == 1


def test_volume_nodes_conserve_total_on_random_panels():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=n)))
        candles = []
        for i, c in enumerate(closes):
            h = c * (1 + abs(rng.normal(0, 0.01)))
            lo = c * (1 - abs(rng.normal(0, 0.01)))
            v = abs(rng.normal(50, 20)) + 1
            candles.append(bar(i, repr(float(c)), repr(float(h)), repr(float(lo)),
                               repr(float(c)), repr(float(v))))
        profile = volume_nodes(*profile_columns(candles))
        total = sum(float(c.volume) for c in candles)
        assert sum(profile.volumes) == pytest.approx(total, rel=1e-9)


def loop_profile(close, low, high, volume, frac):
    """(edges, volumes, width) as `volume_nodes` computed them by walking each
    bar's bins in Python, over lists of floats: the reference it must equal."""
    if not close:
        raise DataError("no candles for volume profile")
    width = median(close) * frac
    if width <= 0:
        raise DataError("degenerate bin width")
    lo, hi = min(low), max(high)
    width = max(width, (hi - lo) / PROFILE_MAX_BINS)
    n_bins = max(1, math.ceil((hi - lo) / width)) if hi > lo else 1
    edges = [lo + k * width for k in range(n_bins + 1)]
    volumes = [0.0] * n_bins

    def bin_of(price):
        return min(max(int((price - lo) // width), 0), n_bins - 1)

    for b_lo, b_hi, vol in zip(low, high, volume):
        if vol == 0:
            continue
        span = b_hi - b_lo
        if span <= 0:
            volumes[bin_of(b_lo)] += vol
            continue
        for k in range(bin_of(b_lo), bin_of(b_hi) + 1):
            seg = min(b_hi, edges[k + 1]) - max(b_lo, edges[k])
            if seg > 0:
                volumes[k] += vol * (seg / span)
    return edges, volumes, width


@st.composite
def profile_cases(draw):
    """(close, low, high, volume, volume_bin_frac, chunk) for 1-20 bars. Half
    the cases put prices on a grid of eighths of a power of two, where medians,
    bin widths and edges are exact and many lows and highs sit on an edge."""
    if draw(st.booleans()):
        unit = 2.0 ** draw(st.integers(-14, 24))
        price = st.integers(1, 64).map(lambda m: unit * m / 8)
    else:
        base = draw(st.sampled_from([1e-4, 1.0, 100.0, 1e7]))
        price = st.floats(base / 2, base * 2)
    close, low, high, volume = [], [], [], []
    for _ in range(draw(st.integers(1, 20))):
        c = draw(price)
        ends = [c] if draw(st.integers(0, 3)) == 0 else [c, draw(price), draw(price)]
        close.append(c)
        low.append(min(ends))
        high.append(max(ends))
        volume.append(draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1e9))))
    frac = draw(st.one_of(st.sampled_from([0.005, 2.0 ** -7, 1e-9, 5e-324, 1.0]),
                          st.floats(5e-324, 1.0)))
    chunk = draw(st.sampled_from([1, 3, 64, structure.PROFILE_CHUNK_PAIRS]))
    return close, low, high, volume, frac, chunk


@given(profile_cases())
@example(([100.0], [100.0], [100.0], [5.0], 0.005, 1))
@example(([100.0], [99.75], [100.75], [8.0], 0.005, 1))
@example(([100.0, 100.0], [97.0, 98.5], [99.0, 103.0], [0.0, 2.0], 0.005, 1))
@example(([100.0, 101.0, 99.0], [90.0, 90.0, 90.0], [110.0, 110.0, 110.0],
          [1.0, 2.0, 3.0], 1e-9, 3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_volume_nodes_equal_the_loop(monkeypatch, case):
    """Exactly the loop's edges, volumes and width, or its `DataError`, with
    the pairs expanded in chunks of 1, 3, 64 or the default (150 drawn cases,
    about 2.5 s of tier-1)."""
    close, low, high, volume, frac, chunk = case
    monkeypatch.setattr(structure, "PROFILE_CHUNK_PAIRS", chunk)
    cfg = DEFAULTS.replace(volume_bin_frac=frac)
    try:
        want = loop_profile(close, low, high, volume, frac)
    except DataError:
        with pytest.raises(DataError):
            volume_nodes(*map(np.array, (close, low, high, volume)), cfg)
        return
    got = volume_nodes(*map(np.array, (close, low, high, volume)), cfg)
    assert (got.bin_edges, got.volumes, got.bin_width) == want


# --- absorption ------------------------------------------------------------------

def test_absorption_inclusive_threshold():
    at = bar(0, "100", "100", "100", "100", v="5000")          # 500k notional
    below = bar(1, "100", "100", "100", "100", v="4999.9999")
    events = absorption_footprints([at, below])
    assert [e.time for e in events] == [T0]
    assert events[0].size_usd == pytest.approx(500000.0)


def test_absorption_bar_proxy():
    c = bar(0, "100", "100", "100", "100", v="6000")  # 600k notional
    small = bar(1, "100", "100", "100", "100", v="1000")
    events = absorption_footprints([c, small])
    assert len(events) == 1
    assert events[0].size_usd == pytest.approx(600000.0)


# --- persistence ------------------------------------------------------------------

def test_range_persistence_counts_trailing_inside():
    rng = RangeDefinition(d12("100"), d12("104"), T0)
    closes = [102, 103, 105, 102, 101, 103]  # breakout at index 2
    candles = bars_from_closes([float(x) for x in closes])
    assert range_persistence(candles, rng) == 3
    assert range_persistence(bars_from_closes([105.0, 102.0]), rng) == 1
    assert range_persistence(bars_from_closes([102.0, 105.0]), rng) == 0
    # boundary close counts as inside
    assert range_persistence(bars_from_closes([104.0]), rng) == 1


# --- derived series --------------------------------------------------------------

def test_derive_holds_what_each_function_computes(scenario_panels):
    from rangegov.cost import funding_bias_duration, funding_spike
    from rangegov.model import funding_by_bar, oi_by_bar
    panel, _ = scenario_panels["h4-confirm"]
    cfg = DEFAULTS
    series = derive(panel, cfg)
    assert series.panel is panel and series.cfg is cfg
    assert list(series.swings) == map_swings(panel.candles, cfg.swing_lookback)
    assert series.resolved == resolve_range(panel.candles, series.swings, cfg)
    assert series.range == series.resolved[0]
    np.testing.assert_array_equal(
        series.realized_vol, realized_volatility(panel.candles, cfg.realized_vol_window))
    ups, downs = wick_series(panel.candles)
    np.testing.assert_array_equal(series.wick_up, ups)
    np.testing.assert_array_equal(series.wick_down, downs)
    assert list(series.close) == [float(c.close) for c in panel.candles]
    assert list(series.volume) == [float(c.volume) for c in panel.candles]
    assert list(series.funding_by_bar) == funding_by_bar(panel)
    assert list(series.oi_by_bar) == oi_by_bar(panel)
    rates = [f.rate_8h for f in panel.funding]
    assert list(series.funding_spikes) == funding_spike(rates, cfg)
    assert list(series.funding_bias) == funding_bias_duration(rates)


def test_resolve_range_quantizes_each_range_threshold_once(scenario_panels, monkeypatch):
    """One `derive` of packaged h4-confirm tries 12 anchors. Each once
    quantized both range thresholds: 24 `d12` calls, now 2."""
    quantized, anchors = [], []

    def counted_d12(value):
        quantized.append(value)
        return d12(value)

    range_at = structure._range_at
    monkeypatch.setattr(structure, "d12", counted_d12)
    monkeypatch.setattr(structure, "_range_at",
                        lambda *args: anchors.append(args[3]) or range_at(*args))
    series = derive(scenario_panels["h4-confirm"][0]._replace(), DEFAULTS)
    assert series.resolved is not None and len(anchors) == 12
    assert quantized == [DEFAULTS.range_min_width, DEFAULTS.range_touch_tolerance]


def test_derived_series_is_frozen(scenario_panels):
    series = derive(scenario_panels["h1-confirm"][0], DEFAULTS)
    with pytest.raises(AttributeError):
        series.resolved = None
    with pytest.raises(ValueError):
        series.close[0] = 1.0

"""Structural metrics: swing mapping, range construction, volatility,
wick geometry, volume distribution, absorption, persistence, and the
per-panel series every report and evaluator reads (`derive`)."""
from __future__ import annotations

import math
from decimal import Decimal
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import Config, DEFAULTS
from .cost import funding_bias_duration, funding_spike
from .errors import DataError
from .model import (Candle4H, Panel, RangeDefinition, d12, funding_by_bar, median,
                    oi_by_bar)


# Most bins in a volume profile; a power of two, so widened bins divide the span exactly
PROFILE_MAX_BINS = 4096
# Most bar-bin pairs `volume_nodes` expands at a time, so its transient memory
# stays bounded however many bars and bins a profile has
PROFILE_CHUNK_PAIRS = 1 << 18


class SwingPoint(NamedTuple):
    index: int         # bar index; shadows `tuple.index`, which nothing calls here
    kind: str          # "high" or "low"
    price: Decimal
    time: int


class VolumeProfile(NamedTuple):
    bin_edges: list    # n_bins + 1 ascending floats
    volumes: list      # n_bins floats, same units as candle volume
    bin_width: float

    @property
    def peak_price(self) -> float:
        i = int(np.argmax(self.volumes))
        return (self.bin_edges[i] + self.bin_edges[i + 1]) / 2


class AbsorptionEvent(NamedTuple):
    time: int
    price: float
    size_usd: float


def map_swings(candles: Sequence[Candle4H], lookback: int) -> list:
    """Local extremes with `lookback` bars of clearance on each side.

    Strict inequality; equal extremes resolve to the earlier bar. Bars within
    `lookback` of either end can never qualify.
    """
    n = len(candles)
    if lookback < 1:
        raise DataError("lookback must be >= 1")
    if n < 2 * lookback + 1:
        return []
    highs = np.array([float(c.high) for c in candles])
    lows = np.array([float(c.low) for c in candles])
    win_high = sliding_window_view(highs, lookback).max(axis=1)
    win_low = sliding_window_view(lows, lookback).min(axis=1)

    idx = np.arange(lookback, n - lookback)
    is_high = (highs[idx] > win_high[idx - lookback]) & (highs[idx] >= win_high[idx + 1])
    is_low = (lows[idx] < win_low[idx - lookback]) & (lows[idx] <= win_low[idx + 1])

    out = []
    for i in idx[is_high]:
        out.append(SwingPoint(int(i), "high", candles[i].high, candles[i].open_time))
    for i in idx[is_low]:
        out.append(SwingPoint(int(i), "low", candles[i].low, candles[i].open_time))
    out.sort(key=lambda s: (s.index, s.kind))
    return out


def derive_range(candles: Sequence[Candle4H], swings: Sequence[SwingPoint],
                 cfg: Config = DEFAULTS, end: Optional[int] = None):
    """Range over the trailing window ending at bar `end` (default: last).

    Boundaries come from confirmed swing extremes inside the window; each
    boundary needs `range_min_touches` bars whose extreme lands within the
    touch tolerance, and the width must strictly exceed `range_min_width`.
    Returns None when no range validates.
    """
    n = len(candles)
    if end is None:
        end = n - 1
    if end < 0 or end >= n:
        raise DataError("anchor outside the panel")
    return _range_at(candles, swings, cfg, end,
                     d12(cfg.range_min_width), d12(cfg.range_touch_tolerance))


def resolve_range(candles: Sequence[Candle4H], swings: Sequence[SwingPoint],
                  cfg: Config = DEFAULTS):
    """Most recent anchor where a range derives, walking back from the end.

    `swings` are the candles' `map_swings` at `cfg.swing_lookback`.
    Evaluation tails (taps, breakouts) legitimately distort trailing swing
    extremes, so the established structure is the latest one that validates.
    Returns (range, anchor_index) or None.
    """
    min_width, tol = d12(cfg.range_min_width), d12(cfg.range_touch_tolerance)
    for end in range(len(candles) - 1, 2 * cfg.swing_lookback, -1):
        rng = _range_at(candles, swings, cfg, end, min_width, tol)
        if rng is not None:
            return rng, end
    return None


def _range_at(candles, swings, cfg: Config, end: int, min_width: Decimal, tol: Decimal):
    """`derive_range` at bar `end` of the candles, with `cfg.range_min_width`
    and `cfg.range_touch_tolerance` already quantized."""
    start = max(0, end - cfg.range_window + 1)
    confirmed = end - cfg.swing_lookback
    sw_high = [s for s in swings if s.kind == "high" and start <= s.index <= confirmed]
    sw_low = [s for s in swings if s.kind == "low" and start <= s.index <= confirmed]
    if not sw_high or not sw_low:
        return None
    upper = max(s.price for s in sw_high)
    lower = min(s.price for s in sw_low)
    if lower <= 0 or upper <= lower:
        return None
    if upper / lower - 1 <= min_width:
        return None

    ups = downs = 0
    established_at = None
    for i in range(start, end + 1):
        c = candles[i]
        if abs(c.high - upper) / upper <= tol:
            ups += 1
        if abs(c.low - lower) / lower <= tol:
            downs += 1
        if established_at is None and ups >= cfg.range_min_touches \
                and downs >= cfg.range_min_touches:
            established_at = c.open_time
    if established_at is None:
        return None
    return RangeDefinition(lower=lower, upper=upper, established_at=established_at,
                           touch_count_lower=downs, touch_count_upper=ups)


def realized_volatility(candles: Sequence[Candle4H], window: int) -> np.ndarray:
    """Rolling sample std of log close returns; NaN until enough history."""
    if window < 2:
        raise DataError("window must be >= 2")
    closes = np.array([float(c.close) for c in candles])
    n = len(closes)
    out = np.full(n, np.nan)
    if n < window + 1:
        return out
    rets = np.diff(np.log(closes))
    stds = sliding_window_view(rets, window).std(axis=1, ddof=1)
    out[window:] = stds
    return out


def ols_slope(values) -> Optional[float]:
    """OLS slope of the values against their index, skipping None and NaN;
    None with fewer than 2 points left."""
    pts = [(i, v) for i, v in enumerate(values)
           if v is not None and not (isinstance(v, float) and math.isnan(v))]
    if len(pts) < 2:
        return None
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    vx = x - x.mean()
    var = (vx * vx).sum()
    if var == 0:
        return None
    return float((vx * (y - y.mean())).sum() / var)


def wick_to_body(candle: Candle4H):
    """(upper, lower) wick-to-body ratios in percent; None/None on dojis."""
    body = abs(candle.close - candle.open)
    if candle.close <= 0 or body / candle.close < Decimal("1e-9"):
        return None, None
    upper = float((candle.high - max(candle.open, candle.close)) / body) * 100.0
    lower = float((min(candle.open, candle.close) - candle.low) / body) * 100.0
    return upper, lower


def wick_series(candles: Sequence[Candle4H]):
    """Per-bar (upper, lower) arrays with NaN at dojis."""
    ups = np.full(len(candles), np.nan)
    downs = np.full(len(candles), np.nan)
    for i, c in enumerate(candles):
        u, lo = wick_to_body(c)
        if u is not None:
            ups[i], downs[i] = u, lo
    return ups, downs


def volume_nodes(close: np.ndarray, low: np.ndarray, high: np.ndarray,
                 volume: np.ndarray, cfg: Config = DEFAULTS) -> VolumeProfile:
    """Volume by price bin over the bars whose float columns are given (as
    `derive` holds them: `PanelSeries.close`, `.low`, `.high`, `.volume`).

    Bin width is `volume_bin_frac` of the median close; each bar's volume
    spreads uniformly over its low..high span, and a flat bar's goes whole to
    its low's bin. Each bin adds the shares of the bars in bar order from 0.0,
    so the profile is the float result of walking every bar's bins in turn; the
    bar-bin pairs are expanded at most `PROFILE_CHUNK_PAIRS` at a time (or one
    bar's, if more), in bar order.
    """
    if not len(close):
        raise DataError("no candles for volume profile")
    # by sorting: the float `np.median` gives, without loading `numpy.ma`
    width = median(close.tolist()) * cfg.volume_bin_frac
    if width <= 0:
        raise DataError("degenerate bin width")
    lo = float(low.min())
    hi = float(high.max())
    width = max(width, (hi - lo) / PROFILE_MAX_BINS)   # at most PROFILE_MAX_BINS bins
    n_bins = max(1, math.ceil((hi - lo) / width)) if hi > lo else 1
    edges = [lo + k * width for k in range(n_bins + 1)]
    volumes = np.zeros(n_bins)

    def bin_of(price: np.ndarray) -> np.ndarray:
        # `np.floor_divide` is Python's float `//`
        return np.clip(np.floor_divide(price - lo, width), 0, n_bins - 1).astype(np.intp)

    bars = np.flatnonzero(volume != 0)
    b_lo, b_hi, vol = low[bars], high[bars], volume[bars]
    span = b_hi - b_lo
    flat = span <= 0
    span[flat] = 1.0   # unread: a flat bar's share is its volume
    first = bin_of(b_lo)
    count = np.where(flat, 1, bin_of(b_hi) - first + 1)   # the bar's pairs
    ends = np.cumsum(count)
    starts = ends - count
    edge = np.array(edges)
    i = 0
    while i < len(bars):
        # the next bars whose pairs fit in PROFILE_CHUNK_PAIRS, one bar at least
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + PROFILE_CHUNK_PAIRS, "right")))
        at = np.repeat(np.arange(i, j), count[i:j])
        k = first[at] + np.arange(starts[i], ends[j - 1]) - starts[at]
        seg = np.minimum(b_hi[at], edge[k + 1]) - np.maximum(b_lo[at], edge[k])
        share = np.where(flat[at], vol[at], vol[at] * (seg / span[at]))
        keep = flat[at] | (seg > 0)
        np.add.at(volumes, k[keep], share[keep])   # unbuffered: in pair order
        i = j
    return VolumeProfile(bin_edges=edges, volumes=volumes.tolist(), bin_width=width)


def absorption_footprints(candles: Sequence[Candle4H], cfg: Config = DEFAULTS) -> list:
    """Bars whose volume x typical price reaches `absorption_min_usd`
    (inclusive), as proxies for large resting-order executions."""
    limit = d12(cfg.absorption_min_usd)
    out = []
    for c in candles:
        notional = c.volume * c.typical
        if notional >= limit:
            out.append(AbsorptionEvent(c.open_time, float(c.typical), float(notional)))
    return out


def range_persistence(candles: Sequence[Candle4H], rng: RangeDefinition) -> int:
    """Trailing run of closes inside [lower, upper] (inclusive)."""
    count = 0
    for c in reversed(candles):
        if rng.lower <= c.close <= rng.upper:
            count += 1
        else:
            break
    return count


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


class PanelSeries(NamedTuple):
    """Everything the reports derive from one panel under one config.

    Built only by `derive`, once per panel: every later `derive` of the same
    panel under an equal config shares the fields of the first (see
    `derive`). Arrays are read-only and per-bar lists are tuples;
    `verdicts` is where `evaluate_all` keeps each verdict it computes.
    """
    panel: Panel
    cfg: Config
    close: np.ndarray          # float per bar
    high: np.ndarray
    low: np.ndarray
    volume: np.ndarray
    realized_vol: np.ndarray   # realized_volatility at cfg.realized_vol_window
    wick_up: np.ndarray        # wick_series, NaN at dojis
    wick_down: np.ndarray
    swings: tuple              # map_swings at cfg.swing_lookback
    resolved: Optional[tuple]  # resolve_range: (range, anchor bar) or None
    funding_by_bar: tuple      # as-of funding record per bar, None before coverage
    oi_by_bar: tuple           # as-of open-interest record per bar
    funding_spikes: tuple      # funding_spike flag per settlement
    funding_bias: tuple        # funding_bias_duration run length per settlement
    verdicts: dict             # evaluator -> verdict, filled by evaluate_all

    @property
    def range(self) -> Optional[RangeDefinition]:
        return self.resolved[0] if self.resolved else None


class _Derived(NamedTuple):
    """The fields `derive` computed for a panel, kept on it as `_derived`.
    It never holds the panel or a series, so the panel is freed as soon as
    its last reference goes."""
    cfg: Config
    computed_by: tuple   # the functions that computed `fields`
    annotations: dict    # a shallow copy of the panel's annotations when derived
    fields: dict         # PanelSeries fields but panel and cfg


def derive(panel: Panel, cfg: Config = DEFAULTS) -> PanelSeries:
    """The panel's derived series, computed on the first call and shared by
    every later call under an equal `cfg`, while the panel's annotations are
    equal to what they were and the functions below are bound as they were:
    fields computed before one was rebound (a span tracer's wrapper, a test's
    counter) are not handed out after it, so the new binding sees its call.
    A panel's records cannot change, so only its annotations, a dict, are
    compared (with `==`, which takes an identical value as equal)."""
    memo = panel._derived
    computed_by = (map_swings, resolve_range, realized_volatility)
    if memo is None or memo.cfg != cfg or memo.computed_by != computed_by \
            or memo.annotations != panel.annotations:
        memo = _Derived(cfg, computed_by, dict(panel.annotations), _compute(panel, cfg))
        object.__setattr__(panel, "_derived", memo)
    return PanelSeries(panel=panel, cfg=cfg, **memo.fields)


def _compute(panel: Panel, cfg: Config) -> dict:
    candles = panel.candles
    swings = map_swings(candles, cfg.swing_lookback)
    wick_up, wick_down = wick_series(candles)
    rates = [f.rate_8h for f in panel.funding]
    return dict(
        close=_frozen([float(c.close) for c in candles]),
        high=_frozen([float(c.high) for c in candles]),
        low=_frozen([float(c.low) for c in candles]),
        volume=_frozen([float(c.volume) for c in candles]),
        realized_vol=_frozen(realized_volatility(candles, cfg.realized_vol_window)),
        wick_up=_frozen(wick_up),
        wick_down=_frozen(wick_down),
        swings=tuple(swings),
        resolved=resolve_range(candles, swings, cfg),
        funding_by_bar=tuple(funding_by_bar(panel)),
        oi_by_bar=tuple(oi_by_bar(panel)),
        funding_spikes=tuple(funding_spike(rates, cfg)),
        funding_bias=tuple(funding_bias_duration(rates)),
        verdicts={},
    )

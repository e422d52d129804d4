"""Raw venue data to normalized series.

All arithmetic here stays in Decimal: these are the paths where rates at 1e-6
granularity have to survive 90-period accumulation without drift.
"""
from __future__ import annotations

from collections import Counter
from decimal import Decimal
from itertools import groupby
from operator import gt
from typing import NamedTuple, Sequence

from .errors import DataError
from .model import (
    ALLOWED_FUNDING_INTERVALS, ANNUALIZE_PCT, BAR_SECONDS, SETTLE_SECONDS, Candle4H, d12,
)


class RawTick(NamedTuple):
    time: int
    price: Decimal
    volume: Decimal
    exchange_id: str = ""


def align_4h(ticks: Sequence[RawTick]) -> list:
    """Bucket trade ticks into 4H UTC candles.

    Input must be time-ascending; the first out-of-order index is reported.
    Tick prices must already be at 12 fractional digits, as `read_ticks_csv`
    gives them: a bar takes them as they are, and only its volume sum is
    quantized. Only buckets that contain ticks are emitted; gap handling is
    the quality pipeline's job.
    """
    times = [t.time for t in ticks]
    if any(map(gt, times, times[1:])):
        i = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
        raise DataError(f"ticks not time-ascending at index {i}")
    candles = []
    for key, group in groupby(ticks, key=lambda t: t.time // BAR_SECONDS):
        _, prices, volumes, venues = zip(*group)   # a tick is a tuple of its fields
        candles.append(Candle4H(
            open_time=key * BAR_SECONDS,
            open=prices[0],
            high=max(prices),
            low=min(prices),
            close=prices[-1],
            volume=d12(sum(volumes, Decimal(0))),
            exchange_count=max(1, len(set(venues))),
        ))
    return candles


def vwap_merge(series_by_exchange: Sequence[Sequence[Candle4H]],
               weights: Sequence) -> list:
    """Merge per-venue 4H candles into one volume-weighted series.

    One bar for each open time that some venue has, in time order, merged
    over the venues that have a bar there, in the order given: every price
    field is their volume-weighted mean, volume and `exchange_count` their
    sums. `weights` (one per venue, e.g. trailing 30-day volume) weigh a bar
    where every venue present reports zero volume, and equal weights stand in
    where theirs sum to 0. A time no venue has stays a gap for
    `quality.fill_gaps`. A venue with two bars at one time is refused.
    """
    if not series_by_exchange:
        raise DataError("no candle series to merge")
    if len(weights) != len(series_by_exchange):
        raise DataError("one weight per series required")
    static = [d12(w) for w in weights]
    if any(w < 0 for w in static):
        raise DataError("weights must be >= 0")
    by_time = [{c.open_time: c for c in s} for s in series_by_exchange]
    for i, (s, bars) in enumerate(zip(series_by_exchange, by_time)):
        if len(bars) != len(s):
            twice = next(t for t, n in Counter(c.open_time for c in s).items() if n > 1)
            raise DataError(f"series {i} has two bars at open_time {twice}")

    merged = []
    for t in sorted(set().union(*by_time)):
        row = [bars[t] for bars in by_time if t in bars]
        vols = [c.volume for c in row]
        total = sum(vols, Decimal(0))
        w = vols if total > 0 else [wi for bars, wi in zip(by_time, static) if t in bars]
        wsum = total if total > 0 else sum(w, Decimal(0))
        if wsum == 0:
            w, wsum = [Decimal(1)] * len(row), Decimal(len(row))
        # the four weighted sums in one pass over the venues, each in venue order
        o = h = lo = cl = Decimal(0)
        for c, wi in zip(row, w):
            o += c.open * wi
            h += c.high * wi
            lo += c.low * wi
            cl += c.close * wi
        merged.append(Candle4H(
            open_time=t,
            open=d12(o / wsum), high=d12(h / wsum),
            low=d12(lo / wsum), close=d12(cl / wsum),
            volume=d12(total),
            exchange_count=sum(c.exchange_count for c in row),
        ))
    return merged


def normalize_funding(raw_rate: Decimal, interval_hours: int) -> Decimal:
    """Rescale a per-interval funding rate, a `Decimal` as read, onto the 8H basis."""
    if interval_hours not in ALLOWED_FUNDING_INTERVALS:
        raise DataError(f"unsupported funding interval: {interval_hours}h")
    return d12(raw_rate * (SETTLE_SECONDS // 3600) / interval_hours)


def annualize_funding(rate_8h: Decimal) -> Decimal:
    """Simple (non-compounding) annualization of a held 8H rate, in percent per year."""
    return d12(rate_8h * ANNUALIZE_PCT)


def cumulative_funding(rates: Sequence[Decimal], window: int) -> Decimal:
    """Plain sum of the trailing `window` per-period rates, as records hold them."""
    if window <= 0:
        raise DataError("window must be positive")
    if window > len(rates):
        raise DataError(f"window {window} exceeds {len(rates)} available periods")
    return d12(sum(rates[-window:], Decimal(0)))


def basis_spread(perp_price: Decimal, spot_price: Decimal, dislocation_abs: Decimal):
    """(perp - spot) / spot of the held prices, and whether it is strictly
    beyond `dislocation_abs`, a `d12`."""
    if spot_price <= 0:
        raise DataError("spot price must be > 0")
    frac = d12((perp_price - spot_price) / spot_price)
    return frac, abs(frac) > dislocation_abs

"""Raw venue data to normalized series.

All arithmetic here stays in Decimal: these are the paths where rates at 1e-6
granularity have to survive 90-period accumulation without drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import zip_longest
from typing import Sequence

from .errors import DataError, GridMismatchError
from .model import ALLOWED_FUNDING_INTERVALS, BAR_SECONDS, Candle4H, d12

EIGHT_HOURS = 8


@dataclass(frozen=True)
class RawTick:
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
    for i in range(1, len(ticks)):
        if ticks[i].time < ticks[i - 1].time:
            raise DataError(f"ticks not time-ascending at index {i}")
    candles = []
    bucket: list = []

    def flush():
        if not bucket:
            return
        prices = [t.price for t in bucket]
        candles.append(Candle4H(
            open_time=(bucket[0].time // BAR_SECONDS) * BAR_SECONDS,
            open=bucket[0].price,
            high=max(prices),
            low=min(prices),
            close=bucket[-1].price,
            volume=d12(sum((t.volume for t in bucket), Decimal(0))),
            exchange_count=max(1, len({t.exchange_id for t in bucket})),
        ))

    current = None
    for t in ticks:
        key = t.time // BAR_SECONDS
        if key != current:
            flush()
            bucket = []
            current = key
        bucket.append(t)
    flush()
    return candles


def vwap_merge(series_by_exchange: Sequence[Sequence[Candle4H]],
               weights: Sequence) -> list:
    """Merge per-venue 4H candles into one volume-weighted series.

    Every price field becomes the per-bar volume-weighted mean across venues;
    volume is the plain sum. All inputs must share an identical open_time
    grid. `weights` (one per venue, e.g. trailing 30-day volume) weigh the
    bars where every venue reports zero volume, and equal weights stand in
    where they sum to 0.
    """
    if not series_by_exchange:
        raise DataError("no candle series to merge")
    grids = [[c.open_time for c in s] for s in series_by_exchange]
    base = grids[0]
    for gi, grid in enumerate(grids[1:], start=1):
        if grid != base:
            bad = next((t1 if t1 is not None else t2 for t1, t2 in
                        zip_longest(base, grid) if t1 != t2), None)
            raise GridMismatchError(
                f"series {gi} grid mismatch at open_time {bad}")
    if len(weights) != len(series_by_exchange):
        raise DataError("one weight per series required")
    static = [d12(w) for w in weights]
    if any(w < 0 for w in static):
        raise DataError("weights must be >= 0")

    merged = []
    for i in range(len(base)):
        row = [s[i] for s in series_by_exchange]
        vols = [c.volume for c in row]
        total = sum(vols, Decimal(0))
        if total > 0:
            w = vols
            wsum = total
        else:
            w = static
            wsum = sum(static, Decimal(0))
            if wsum == 0:
                w = [Decimal(1)] * len(row)
                wsum = Decimal(len(row))

        def wmean(field):
            acc = Decimal(0)
            for c, wi in zip(row, w):
                acc += getattr(c, field) * wi
            return d12(acc / wsum)

        merged.append(Candle4H(
            open_time=base[i],
            open=wmean("open"), high=wmean("high"),
            low=wmean("low"), close=wmean("close"),
            volume=d12(total),
            exchange_count=sum(c.exchange_count for c in row),
        ))
    return merged


def normalize_funding(raw_rate, interval_hours: int) -> Decimal:
    """Rescale a per-interval funding rate onto the 8H basis."""
    if interval_hours not in ALLOWED_FUNDING_INTERVALS:
        raise DataError(f"unsupported funding interval: {interval_hours}h")
    return d12(d12(raw_rate) * EIGHT_HOURS / interval_hours)


def annualize_funding(rate_8h) -> Decimal:
    """Simple (non-compounding) annualization, in percent per year."""
    return d12(d12(rate_8h) * 3 * 365 * 100)


def cumulative_funding(rates: Sequence, window: int) -> Decimal:
    """Plain sum of the trailing `window` per-period rates."""
    if window <= 0:
        raise DataError("window must be positive")
    if window > len(rates):
        raise DataError(f"window {window} exceeds {len(rates)} available periods")
    return d12(sum((d12(r) for r in rates[-window:]), Decimal(0)))


def basis_spread(perp_price, spot_price, dislocation_abs):
    """(perp - spot) / spot and a strict-threshold dislocation flag."""
    spot = d12(spot_price)
    if spot <= 0:
        raise DataError("spot price must be > 0")
    frac = d12((d12(perp_price) - spot) / spot)
    return frac, abs(frac) > d12(dislocation_abs)

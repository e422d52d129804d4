"""Capital-deployment metrics: OI rotation, liquidation density, bias ratios,
holder concentration."""
from __future__ import annotations

import math
from decimal import Decimal
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import Config, DEFAULTS
from .model import LiquidationEvent, RangeDefinition, d12

ROTATION = "rotation"
COLLAPSE = "collapse"
NEITHER = "neither"

# Least volatility oi_rotation divides by, so a flat window stays finite
VOL_FLOOR = 1e-6


class OiEvent(NamedTuple):
    label: str
    oi_change_frac: float
    mix_shift_pp: Optional[float]    # long-share shift in fractional points
    partial: bool = False            # long/short split missing


def trapezoid(y, x) -> float:
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    d = np.diff(x)
    return float((d * (y[1:] + y[:-1]) / 2.0).sum())


class LiquidationDensity(NamedTuple):
    prices: tuple
    density: tuple                   # normalized: trapezoid integral over grid = 1
    bandwidth: float
    total_usd: float
    flagged_empty: bool = False


def oi_rotation(oi: Sequence[float], volatility: Sequence[float]) -> list:
    """OI first derivative (fractional) normalized by realized volatility.

    None where the previous OI is zero/missing or at index 0.
    """
    if len(oi) != len(volatility):
        raise ValueError("oi and volatility series must align")
    out: list = [None] * len(oi)
    for t in range(1, len(oi)):
        prev = oi[t - 1]
        if prev is None or oi[t] is None or prev == 0:
            continue
        vol = volatility[t]
        if vol is None or math.isnan(vol):
            continue
        out[t] = ((oi[t] - prev) / prev) / max(vol, VOL_FLOOR)
    return out


def classify_oi_event(oi_window: Sequence[Decimal],
                      long_shares: Optional[Sequence[Optional[Decimal]]] = None,
                      cfg: Config = DEFAULTS) -> OiEvent:
    """Rotation vs collapse over a breakout window of `Decimal` OI notionals
    and long shares, taken as they are.

    Collapse: total OI declines more than 5%. Rotation: long/short mix shifts
    by at least 5 percentage points while the decline stays within 5%. With no
    mix data only collapse vs not-collapse is decidable (partial=True).
    """
    if len(oi_window) < 2 or oi_window[0] == 0:
        raise ValueError("need at least two OI observations with nonzero start")
    # Decimal so "exactly 5%" lands on the documented side of each threshold
    change = oi_window[-1] / oi_window[0] - 1
    decline = -change
    shift = None
    if long_shares is not None and len(long_shares) >= 2 \
            and long_shares[0] is not None and long_shares[-1] is not None:
        shift = long_shares[-1] - long_shares[0]
    if decline > d12(cfg.oi_collapse_decline):
        return OiEvent(COLLAPSE, float(change), None if shift is None else float(shift))
    if shift is None:
        return OiEvent(NEITHER, float(change), None, partial=True)
    if abs(shift) >= d12(cfg.oi_rotation_mix_shift):
        return OiEvent(ROTATION, float(change), float(shift))
    return OiEvent(NEITHER, float(change), float(shift))


def oi_rotation_event(records: Sequence, cfg: Config) -> tuple:
    """(`classify_oi_event` over the OI records of a window, None), else
    (None, why) when a record is missing or the window starts at zero OI.
    The event reads only the window's ends: their OI as held and their long
    shares at 12 places."""
    if any(r is None for r in records) or len(records) < 2:
        return None, "OI missing around the break"
    ends = (records[0], records[-1])
    if ends[0].oi_usd == 0:
        return None, "OI zero at the start of the window: change undefined"
    shares = [None if r.long_share is None else d12(r.long_share) for r in ends]
    return classify_oi_event([r.oi_usd for r in ends], shares, cfg), None


def liquidation_density(events: Sequence[LiquidationEvent],
                        cfg: Config = DEFAULTS) -> LiquidationDensity:
    """Gaussian KDE over liquidation prices, USD-weighted, bandwidth 1% of the
    size-weighted mean price, evaluated on 512 evenly spaced prices from 5
    bandwidths below the lowest price to 5 above the highest, and renormalized
    so the trapezoid integral over that grid is 1."""
    if not events:
        return LiquidationDensity((), (), 0.0, 0.0, flagged_empty=True)
    prices = np.array([float(e.price) for e in events])
    weights = np.array([float(e.size_usd) for e in events])
    # fixed summation order: results must not depend on event ordering
    order = np.lexsort((weights, prices))
    prices, weights = prices[order], weights[order]
    total = weights.sum()
    if total <= 0:
        return LiquidationDensity((), (), 0.0, float(total), flagged_empty=True)
    mean_price = float((prices * weights).sum() / total)
    h = cfg.kde_bandwidth_frac * mean_price
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    grid = np.linspace(prices.min() - 5.0 * h, prices.max() + 5.0 * h, 512)
    z = (grid[:, None] - prices[None, :]) / h
    kernel = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    raw = (kernel * weights[None, :]).sum(axis=1) / (total * h)
    area = trapezoid(raw, grid)
    density = raw / area if area > 0 else raw
    return LiquidationDensity(tuple(float(p) for p in grid),
                              tuple(float(v) for v in density),
                              h, float(total))


def boundary_cluster_share(events: Sequence[LiquidationEvent],
                           rng: RangeDefinition,
                           cfg: Config = DEFAULTS) -> tuple:
    """USD-weighted share of liquidations within 2% of either boundary.

    Distance is relative to the event price. Clustered at share >= 30%.
    """
    if not events:
        return 0.0, False
    tol = d12(cfg.boundary_cluster_distance)
    total = Decimal(0)
    near = Decimal(0)
    for e in events:
        total += e.size_usd
        dist = min(abs(e.price - rng.lower), abs(e.price - rng.upper))
        if e.price > 0 and dist / e.price <= tol:
            near += e.size_usd
    if total == 0:
        return 0.0, False
    share = near / total
    return float(share), share >= d12(cfg.boundary_cluster_min_share)


def long_short_ratio(long_oi: float, short_oi: float,
                     cfg: Config = DEFAULTS) -> tuple:
    """(ratio, extreme). Zero short side reports an infinite sentinel."""
    if long_oi < 0 or short_oi < 0:
        raise ValueError("OI legs must be nonnegative")
    if short_oi == 0:
        return math.inf, True
    ratio = long_oi / short_oi
    extreme = ratio > cfg.long_short_extreme_high or ratio < cfg.long_short_extreme_low
    return ratio, extreme


def concentration_gini(holder_shares: Sequence[float],
                       cfg: Config = DEFAULTS) -> tuple:
    """Standard Gini over the share vector; risk flag when > 0.7."""
    if not holder_shares:
        raise ValueError("empty share vector")
    if any(s < 0 for s in holder_shares):
        raise ValueError("shares must be nonnegative")
    x = np.sort(np.asarray(holder_shares, dtype=float))
    n = x.size
    total = x.sum()
    if total == 0:
        return 0.0, False
    i = np.arange(1, n + 1)
    gini = float(((2 * i - n - 1) * x).sum() / (n * total))
    return gini, gini > cfg.gini_risk_threshold


def leverage_summary(histogram: dict) -> dict:
    """Summary stats over a leverage-bucket histogram {bucket: usd}."""
    if not histogram:
        return {"total_usd": 0.0, "weighted_mean": None, "max_bucket": None}
    buckets = {float(k): float(v) for k, v in histogram.items()}
    total = sum(buckets.values())
    if total == 0:
        return {"total_usd": 0.0, "weighted_mean": None, "max_bucket": None}
    mean = sum(k * v for k, v in buckets.items()) / total
    max_bucket = max(buckets, key=lambda k: buckets[k])
    return {"total_usd": total, "weighted_mean": mean, "max_bucket": max_bucket}

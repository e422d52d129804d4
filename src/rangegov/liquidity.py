"""Order-book capacity measures: depth concentration, shelf migration,
slippage simulation, imbalance, impact regression."""
from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import Config, DEFAULTS
from .model import BookSnapshot, RangeDefinition, d12, iso, validate_record
from .structure import ols_slope


class DepthProfile(NamedTuple):
    p25: Decimal              # first price where cumulative share >= 25%
    p75: Decimal


class ShelfMigration(NamedTuple):
    ask_above_share: float    # notional share of asks strictly above prior upper
    bid_below_share: float
    signal_up: bool
    signal_down: bool


class SlippageResult(NamedTuple):
    slippage: float           # signed cost: positive = worse than mid
    filled_usd: float
    partial: bool


def latest_valid_books(books: Sequence[BookSnapshot], n: int = 1) -> tuple:
    """(the last `n` snapshots `validate_record` accepts, oldest first; notes
    naming each snapshot skipped to collect them, newest first)."""
    kept, skipped = [], []
    for snap in reversed(books):
        if len(kept) == n:
            break
        violations = validate_record(snap)
        if not violations:
            kept.append(snap)
            continue
        skipped.append((iso(snap.time),
                        "; ".join("%s %s" % (v.field, v.reason) for v in violations)))
    kept.reverse()
    if books and not kept:
        return kept, ["no valid book snapshot among %d; the latest, %s, has: %s"
                      % ((len(books),) + skipped[0])]
    return kept, ["book snapshot %s skipped: %s" % pair for pair in skipped]


def _side_profile(levels, side: str) -> DepthProfile:
    total = sum(size for _, size in levels)
    if total == 0:
        raise ValueError("empty %s side" % side)
    running = Decimal(0)
    p25 = p75 = None
    for price, size in levels:
        running += size
        share = running / total
        if p25 is None and share >= Decimal("0.25"):
            p25 = price
        if p75 is None and share >= Decimal("0.75"):
            p75 = price
    return DepthProfile(p25, p75)


def depth_percentiles(snapshot: BookSnapshot) -> tuple:
    """Walk each side best-first; quartile prices are the first levels where
    the cumulative share reaches 25% / 75%."""
    return (_side_profile(snapshot.bid_levels, "bid"),
            _side_profile(snapshot.ask_levels, "ask"))


def _notional(levels) -> Decimal:
    return sum((p * s for p, s in levels), Decimal(0))


def shelf_migration(snapshot: BookSnapshot, prior: RangeDefinition,
                    cfg: Config = DEFAULTS) -> ShelfMigration:
    """Notional share of resting depth relocated strictly beyond the prior
    boundaries. The expansion signal is strict: exactly 20% does not fire."""
    ask_total = _notional(snapshot.ask_levels)
    bid_total = _notional(snapshot.bid_levels)
    above = _notional([(p, s) for p, s in snapshot.ask_levels if p > prior.upper])
    below = _notional([(p, s) for p, s in snapshot.bid_levels if p < prior.lower])
    ask_share = above / ask_total if ask_total else Decimal(0)
    bid_share = below / bid_total if bid_total else Decimal(0)
    cut = d12(cfg.h2_shelf_migration_share)
    return ShelfMigration(float(ask_share), float(bid_share),
                          ask_share > cut, bid_share > cut)


def depth_at_extremes(snapshot: BookSnapshot, rng: RangeDefinition,
                      cfg: Config = DEFAULTS) -> dict:
    """USD notional resting within `depth_extreme_band` of each boundary (a
    fraction of the boundary), both sides combined. Zone edges are inclusive.

    Read from the side text: a float screen keeps every level that can lie in
    a band, and only those are decoded and tested exactly, bids then asks, so
    each sum is the one that testing every level gives."""
    band = d12(cfg.depth_extreme_band)
    sides = [text.replace(":", " ").split() for text in (snapshot.bids, snapshot.asks)]
    prices = [list(map(float, numbers[::2])) for numbers in sides]

    def near(boundary: Decimal) -> Decimal:
        acc = Decimal(0)
        if boundary <= 0:
            return acc
        # A price passes only inside boundary * (1 -/+ band * (1 + 2e-27)),
        # as the exact test rounds twice at 28 digits (a negative band passes
        # none). The boundary and band are canonical numbers, 0 or in
        # [1e-12, 1e16) in size, so no float below overflows or underflows,
        # and lo and hi each lie within 5 * 2**-53 * (b + |reach|) of that
        # interval's ends. The pad, 2**-40 * (b + |reach|), covers both, and
        # float() keeps the order of prices, so [lo, hi] holds every pass.
        b = float(boundary)
        reach = b * float(band)
        pad = (b + abs(reach)) * 2 ** -40
        lo, hi = b - reach - pad, b + reach + pad
        for numbers, floats in zip(sides, prices):
            for i in [i for i, f in enumerate(floats) if lo <= f <= hi]:
                price = d12(numbers[2 * i])
                if abs(price - boundary) / boundary <= band:
                    acc += price * d12(numbers[2 * i + 1])
        return acc

    lower = near(rng.lower)
    upper = near(rng.upper)
    return {"lower_usd": float(lower), "upper_usd": float(upper),
            "total_usd": float(lower + upper)}


def extremes_slopes(rows: Sequence[dict]) -> dict:
    """OLS slopes over a run of `depth_at_extremes` rows, oldest first. None
    when fewer than 2 rows."""
    out = {side + "_slope": ols_slope([r[side + "_usd"] for r in rows])
           for side in ("lower", "upper", "total")}
    return dict(out, snapshots=len(rows))


def fill_slippage(snapshot: BookSnapshot, side: str, order_usd: float) -> SlippageResult:
    """Walk the opposite side of the book until order_usd notional fills.

    side "buy" consumes asks, "sell" consumes bids. Slippage is reported as a
    positive cost relative to mid for both directions. A book smaller than the
    order yields the partial-fill cost with partial=True.
    """
    if side not in ("buy", "sell"):
        raise ValueError("side must be buy or sell")
    levels = snapshot.ask_levels if side == "buy" else snapshot.bid_levels
    if not levels:
        raise ValueError("empty book side")
    mid = snapshot.mid
    budget = d12(order_usd)
    remaining = budget
    filled_qty = Decimal(0)
    filled_usd = Decimal(0)
    for price, size in levels:
        if remaining <= 0:
            break
        level_usd = price * size
        take_usd = min(remaining, level_usd)
        qty = take_usd / price
        filled_qty += qty
        filled_usd += take_usd
        remaining -= take_usd
    if filled_qty == 0:
        raise ValueError("no fillable depth")
    vwap = filled_usd / filled_qty
    cost = (vwap - mid) / mid if side == "buy" else (mid - vwap) / mid
    return SlippageResult(float(cost), float(filled_usd), remaining > 0)


def book_imbalance(snapshot: BookSnapshot, cfg: Config = DEFAULTS) -> tuple:
    """(bid depth / ask depth) - 1 over the top levels, in base size.

    The extreme flag is side-symmetric: it fires when either side's depth
    exceeds the other by more than 30%, so swapping sides flips the sign of
    the value but never the flag.
    """
    n = cfg.imbalance_depth_levels
    bid = sum(s for _, s in snapshot.bid_levels[:n])
    ask = sum(s for _, s in snapshot.ask_levels[:n])
    if bid == 0 or ask == 0:
        raise ValueError("one-sided book")
    value = bid / ask - 1
    cut = d12(cfg.imbalance_extreme)
    extreme = (bid / ask - 1 > cut) or (ask / bid - 1 > cut)
    return float(value), extreme


def impact_pairs(closes: Sequence, volumes: Sequence) -> list:
    """Per-bar (|Δclose|/prev close, volume) pairs, starting at the second bar."""
    pairs = []
    for t in range(1, len(closes)):
        prev = float(closes[t - 1])
        if prev == 0:
            continue
        pairs.append((abs(float(closes[t]) - prev) / prev, float(volumes[t])))
    return pairs


def market_impact_coefficient(pairs: Sequence, cfg: Config = DEFAULTS) -> Optional[tuple]:
    """OLS slope of |Δp|/p on volume over the trailing window (6 bars = 24h).

    Returns (slope, r_squared) or None when the window is short or the
    regressor is degenerate (zero volume variance).
    """
    window = cfg.impact_window_bars
    if len(pairs) < window:
        return None
    tail = list(pairs)[-window:]
    x = np.array([v for _, v in tail])
    y = np.array([dpp for dpp, _ in tail])
    vx = x - x.mean()
    var_x = (vx * vx).sum()
    if var_x == 0:
        return None
    vy = y - y.mean()
    slope = float((vx * vy).sum() / var_x)
    sst = (vy * vy).sum()
    if sst == 0:
        return slope, 1.0   # constant response: the fit is trivially exact
    r2 = float(((vx * vy).sum()) ** 2 / (var_x * sst))
    return slope, r2


def spread(snapshot: BookSnapshot, cfg: Config = DEFAULTS) -> tuple:
    """((ask - bid)/mid, uncertainty flag). Flag is strict: exactly 0.1% stays
    quiet."""
    bid, ask = snapshot.best_bid, snapshot.best_ask
    mid = snapshot.mid
    if mid <= 0:
        raise ValueError("nonpositive mid")
    rel = (ask - bid) / mid
    return float(rel), rel > d12(cfg.spread_uncertainty)

"""Regime classification, trigger-matrix synthesis, action and platform
advisories. Everything here is advisory output; nothing places orders."""
from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import Config, DEFAULTS
from .cost import ELEVATED, NEUTRAL as MAG_NEUTRAL, magnitude_classifier
from .errors import InsufficientInputsError
from .hypotheses import CONFIRMED, FALSIFIED, oi_rotation_event
from .liquidity import latest_valid_books, shelf_migration
from .model import (ANNUALIZE_PCT, BARS_PER_DAY, SETTLEMENTS_PER_DAY, Panel,
                    RangeDefinition, d12)
from .positioning import COLLAPSE, ROTATION, boundary_cluster_share
from .structure import PanelSeries, absorption_footprints, derive, ols_slope

ACCUMULATION = "accumulation"
DISTRIBUTION = "distribution"
TRENDING = "trending"
UNCLASSIFIED = "unclassified"

ALIGNED = "aligned"
DIVERGENT = "divergent"
NEUTRAL = "neutral"

CORE_TRIGGERS = ("funding", "shelf_migration", "oi_rotation")


class RegimeLabel(NamedTuple):
    label: str
    evidence: tuple          # (criterion, value, met) triples


class TriggerMatrix(NamedTuple):
    entries: tuple           # (name, state) pairs
    conviction: str          # low | medium | high
    expansion_probability_band: str   # baseline | elevated


def classify_regime(panel: Panel, cfg: Config = DEFAULTS) -> RegimeLabel:
    """Accumulation / distribution / trending over the trailing
    `regime_window` bars of `derive(panel, cfg)`.

    Precedence when several fire: trending > distribution > accumulation.
    """
    series = derive(panel, cfg)
    n = len(panel.candles)
    w = cfg.regime_window
    if n < w:
        return RegimeLabel(UNCLASSIFIED, (("window", float(n), False),))
    bars = panel.candles[n - w:]
    closes = series.close[n - w:]
    highs = series.high[n - w:]
    lows = series.low[n - w:]
    evidence = []

    # shared measurements
    vol_slope = ols_slope(list(series.realized_vol[n - w:]))
    volume_slope = ols_slope(list(series.volume[n - w:]))
    oi_records = series.oi_by_bar[n - w:]
    oi_vals = [float(r.oi_usd) if r is not None else None for r in oi_records]
    oi_slope = ols_slope(oi_vals)
    close_slope = ols_slope(list(closes))
    half = w // 2

    # trending: directional closes plus rotating OI
    moves = np.sign(np.diff(closes))
    nonzero = moves[moves != 0]
    directional = float(max((nonzero > 0).sum(), (nonzero < 0).sum()) / len(moves)) \
        if len(moves) else 0.0
    dir_met = directional >= cfg.trend_directional_frac
    evidence.append(("directional_close_share", directional, dir_met))
    event, _ = oi_rotation_event(series.oi_by_bar[n - w:], cfg)
    rotation_met = event is not None and event.label == ROTATION
    evidence.append(("oi_rotation", None if event is None else event.oi_change_frac,
                     rotation_met))
    if dir_met and rotation_met:
        return RegimeLabel(TRENDING, tuple(evidence))

    # distribution: new highs on falling volume, toppy wicks, OI bleeding out
    new_highs = float(highs[half:].max()) > float(highs[:half].max())
    evidence.append(("new_window_highs", float(highs[half:].max()), new_highs))
    volume_down = volume_slope is not None and volume_slope < 0
    evidence.append(("volume_slope", volume_slope, volume_down))
    ups = series.wick_up[n - w:]
    recent_ups = ups[w - cfg.wick_recent_window:]
    wick_rising = bool(np.any(~np.isnan(recent_ups)) and np.any(~np.isnan(ups))
                       and np.nanmean(recent_ups) > np.nanmean(ups))
    evidence.append(("upper_wick_rise", float(np.nanmean(recent_ups))
                     if np.any(~np.isnan(recent_ups)) else None, wick_rising))
    oi_down_price_up = (oi_slope is not None and oi_slope < 0
                        and close_slope is not None and close_slope > 0)
    evidence.append(("oi_decline_despite_strength", oi_slope, oi_down_price_up))
    if new_highs and volume_down and wick_rising and oi_down_price_up:
        return RegimeLabel(DISTRIBUTION, tuple(evidence))

    # accumulation: volatility bleeding off, contracting bars, absorption low
    vol_down = vol_slope is not None and vol_slope < 0
    evidence.append(("volatility_slope", vol_slope, vol_down))
    width_recent = float((highs[half:] - lows[half:]).mean())
    width_prior = float((highs[:half] - lows[:half]).mean())
    contracting = width_recent < width_prior
    evidence.append(("bar_width_contraction", width_recent, contracting))
    if series.range is not None:
        lo, hi = float(series.range.lower), float(series.range.upper)
    else:
        lo, hi = float(lows.min()), float(highs.max())
    third = lo + (hi - lo) / 3.0
    absorbed = [e for e in absorption_footprints(bars, cfg=cfg) if e.price <= third]
    evidence.append(("absorption_low_third", float(len(absorbed)), bool(absorbed)))
    if vol_down and contracting and absorbed:
        return RegimeLabel(ACCUMULATION, tuple(evidence))

    return RegimeLabel(UNCLASSIFIED, tuple(evidence))


def build_trigger_matrix(states: dict, cfg: Config = DEFAULTS) -> TriggerMatrix:
    """Synthesize metric alignment states into a conviction call.

    `states` maps metric name to aligned/divergent/neutral (None = not
    evaluated). Needs at least 4 evaluated metrics. The three core expansion
    indicators decide: all aligned = high conviction and an elevated
    probability band; any one divergent caps conviction at low.
    """
    evaluated = {k: v for k, v in states.items() if v is not None}
    if len(evaluated) < cfg.trigger_min_metrics:
        raise InsufficientInputsError(
            "trigger matrix needs >= %d evaluated metrics, got %d"
            % (cfg.trigger_min_metrics, len(evaluated)))
    for name, state in evaluated.items():
        if state not in (ALIGNED, DIVERGENT, NEUTRAL):
            raise ValueError("bad state %r for %s" % (state, name))
    core = [evaluated.get(name) for name in CORE_TRIGGERS]
    if any(state == DIVERGENT for state in core):
        conviction = "low"
    elif all(state == ALIGNED for state in core):
        conviction = "high"
    else:
        conviction = "medium"
    band = "elevated" if conviction == "high" else "baseline"
    entries = tuple(sorted(evaluated.items()))
    return TriggerMatrix(entries, conviction, band)


def assemble_trigger_states(series: PanelSeries) -> dict:
    """Read the panel's derived series into trigger-matrix states.

    funding: moderated toward neutral = aligned, elevated = divergent.
    shelf_migration: depth in the latest valid book snapshot relocated beyond
    a boundary = aligned, clustered inside = divergent. oi_rotation: rotation
    = aligned, collapse = divergent.
    volatility_compression and liquidation_cluster round out the matrix.
    """
    panel, rng, cfg = series.panel, series.range, series.cfg
    states: dict = {}
    if panel.funding:
        mag = magnitude_classifier(cfg)(panel.funding[-1].rate_8h)
        states["funding"] = ALIGNED if mag == MAG_NEUTRAL else \
            DIVERGENT if mag == ELEVATED else NEUTRAL
    else:
        states["funding"] = None

    latest, _ = latest_valid_books(panel.books)
    if latest and rng is not None:
        mig = shelf_migration(latest[0], rng, cfg)
        states["shelf_migration"] = ALIGNED if (mig.signal_up or mig.signal_down) \
            else DIVERGENT
    else:
        states["shelf_migration"] = None

    n = len(panel.candles)
    event, _ = oi_rotation_event(series.oi_by_bar[max(0, n - cfg.regime_window):], cfg)
    if event is None:
        states["oi_rotation"] = None
    else:
        states["oi_rotation"] = ALIGNED if event.label == ROTATION else \
            DIVERGENT if event.label == COLLAPSE else NEUTRAL

    slope = ols_slope(list(series.realized_vol[max(0, n - cfg.regime_window):]))
    states["volatility_compression"] = None if slope is None else \
        (ALIGNED if slope < 0 else NEUTRAL)

    if panel.liquidations and rng is not None:
        share, clustered = boundary_cluster_share(panel.liquidations, rng, cfg)
        states["liquidation_cluster"] = ALIGNED if clustered else NEUTRAL
    else:
        states["liquidation_cluster"] = None
    return states


def range_position(close, rng: Optional[RangeDefinition],
                   cfg: Config = DEFAULTS) -> str:
    """Where `close`, a candle close as the record holds it, sits in `rng`."""
    if rng is None:
        return "no-range"
    prox = d12(cfg.position_proximity_frac)
    if abs(close - rng.upper) / rng.upper <= prox or close > rng.upper:
        return "near_upper"
    if abs(close - rng.lower) / rng.lower <= prox or close < rng.lower:
        return "near_lower"
    return "interior"


def recommend_action(regime: RegimeLabel, position: str, funding_state,
                     verdicts: dict, cfg: Config = DEFAULTS) -> dict:
    """Map the joint state onto one of six advisory postures.

    Precedence: confirmed expansion alignment, then cascade/spike fades, then
    boundary fades, then trend following, then standing aside.
    """
    def outcome(h):
        v = verdicts.get(h)
        return v.outcome if v is not None else None

    drag_periods = int(cfg.holding_days * SETTLEMENTS_PER_DAY)
    rate = abs(float(funding_state.annualized_pct)) / ANNUALIZE_PCT \
        if funding_state is not None else 0.0
    drag = rate * drag_periods

    adverse_funding = funding_state is not None and \
        funding_state.magnitude_class == "elevated"

    if outcome("H2") == CONFIRMED:
        action, stop, sizing = ("validate breakout",
                                "inside the prior range",
                                "wait for confirmation, then follow")
    elif outcome("H4") == CONFIRMED and position in ("near_upper", "near_lower"):
        action, stop, sizing = ("fade cascade extreme",
                                "beyond the liquidation cluster",
                                "size for multiple attempts")
    elif outcome("H3") == CONFIRMED:
        action, stop, sizing = ("fade spike toward midpoint",
                                "beyond the spike extreme",
                                "single attempt, quick invalidation")
    elif position in ("near_upper", "near_lower") and adverse_funding \
            and outcome("H1") != FALSIFIED:
        action, stop, sizing = ("fade extreme",
                                "beyond the boundary",
                                "size for multiple attempts")
    elif regime.label == TRENDING or outcome("H1") == FALSIFIED:
        action, stop, sizing = ("follow expansion",
                                "behind the last structural level",
                                "scale in on pullbacks")
    else:
        action, stop, sizing = ("stand aside",
                                "n/a",
                                "wait for alignment at a boundary")
    return {
        "action": action,
        "stop_distance_band": [cfg.stop_band_near, cfg.stop_band_far],
        "stop_placement": stop,
        "sizing_note": sizing,
        "funding_drag_frac": drag,
        "holding_days": cfg.holding_days,
        "regime": regime.label,
        "range_position": position,
        "advisory_only": True,
    }


def percentile_rank(history: Sequence[float], value: float) -> float:
    """Share of history strictly below `value`, in [0, 1]."""
    vals = [v for v in history if v is not None and not math.isnan(v)]
    if len(vals) < 2:
        return 0.0
    below = sum(1 for v in vals if v < value)
    return min(max(below / (len(vals) - 1), 0.0), 1.0)


# the trailing windows, in 4H bars, of `vol_percentile_30d` and `vol_percentile_90d`
VOL_WINDOW_30D = 30 * BARS_PER_DAY
VOL_WINDOW_90D = 90 * BARS_PER_DAY

def advise_platform_parameters(vol_history: Sequence[float],
                               cfg: Config = DEFAULTS) -> dict:
    """Leverage cap scaled 100x down to 20x by the 30-day volatility
    percentile; liquidation mode goes aggressive strictly above the 80th
    percentile of the 90-day distribution."""
    vals = [v for v in vol_history if v is not None and not math.isnan(v)]
    if not vals:
        raise InsufficientInputsError("no volatility history")
    current = vals[-1]
    short = vals[-VOL_WINDOW_30D:]
    long = vals[-VOL_WINDOW_90D:]
    rank30 = percentile_rank(short, current)
    rank90 = percentile_rank(long, current)
    leverage = cfg.leverage_max - (cfg.leverage_max - cfg.leverage_min) * rank30
    mode = "aggressive" if rank90 > cfg.liq_mode_pctl else "gradual"
    return {
        "max_leverage": leverage,
        "liquidation_mode": mode,
        "vol_percentile_30d": rank30,
        "vol_percentile_90d": rank90,
        "current_volatility": current,
        "advisory_only": True,
    }


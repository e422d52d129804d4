"""Report builders: one plain dict per analysis family, ready for JSON.

Decimals become fixed-point strings, timestamps ISO-8601, and nothing here
reads a wall clock, so rerunning a builder on the same panel yields the same
bytes. Each family carries the cadence it is meant to be refreshed on.
"""
from __future__ import annotations

from decimal import Decimal
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULTS, FAMILIES, Config
from .cost import FUNDING_WINDOW_7D, magnitude_classifier
from .errors import InsufficientInputsError
from .hypotheses import evaluate_all
from .ingestion import annualize_funding, basis_spread
from .liquidity import (
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
from .model import Panel, bar_index, d12, fmt_dec, iso
from .positioning import (
    concentration_gini,
    leverage_summary,
    liquidation_density,
    long_short_ratio,
    oi_rotation,
)
from .regime import (
    advise_platform_parameters,
    assemble_trigger_states,
    build_trigger_matrix,
    classify_regime,
    range_position,
    recommend_action,
)
from .structure import (
    PanelSeries,
    absorption_footprints,
    derive,
    ols_slope,
    range_persistence,
    volume_nodes,
)


def _jsonable(value):
    """Recursive cleanup for evidence blobs of mixed provenance."""
    if isinstance(value, Decimal):
        return fmt_dec(value)
    if isinstance(value, (np.bool_, np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _float(value) -> Optional[float]:
    if value is None:
        return None
    out = float(value)
    return None if out != out else out


def _range_block(resolved) -> Optional[dict]:
    if resolved is None:
        return None
    rng, anchor = resolved
    return {
        "lower": fmt_dec(rng.lower),
        "upper": fmt_dec(rng.upper),
        "midpoint": fmt_dec(rng.midpoint),
        "width_frac": _float(rng.width_frac),
        "established_at": iso(rng.established_at),
        "touch_count_lower": rng.touch_count_lower,
        "touch_count_upper": rng.touch_count_upper,
        "anchor_bar": anchor,
    }


# ---------------------------------------------------------------- families

def structural_report(series: PanelSeries) -> dict:
    panel, cfg = series.panel, series.cfg
    candles = panel.candles
    profile = volume_nodes(series.close, series.low, series.high, series.volume,
                           cfg) if candles else None
    footprints = absorption_footprints(candles, cfg=cfg)
    per_bar = [{
        "time": iso(c.open_time),
        "close": fmt_dec(c.close),
        "realized_vol": _float(series.realized_vol[i]),
        "upper_wick_pct": _float(series.wick_up[i]),
        "lower_wick_pct": _float(series.wick_down[i]),
    } for i, c in enumerate(candles)]
    doc = {
        "kind": "structural",
        "cadence": "weekly assessment",
        "instrument": panel.instrument,
        "bars": len(candles),
        "range": _range_block(series.resolved),
        "swings": [{"bar": s.index, "kind": s.kind, "price": fmt_dec(s.price),
                    "time": iso(s.time)} for s in series.swings],
        "per_bar": per_bar,
        "volume_profile": None if profile is None else {
            "bin_edges": [_float(e) for e in profile.bin_edges],
            "volumes": [_float(v) for v in profile.volumes],
            "bin_width": _float(profile.bin_width),
            "peak_price": _float(profile.peak_price),
        },
        # every footprint is a proxy: inferred from bar volume, not order flow
        "absorption": [{"time": iso(a.time), "price": _float(a.price),
                        "size_usd": _float(a.size_usd), "proxy": True}
                       for a in footprints],
    }
    if series.range is not None:
        doc["persistence_bars"] = range_persistence(series.side)
    return doc


def cost_report(series: PanelSeries) -> dict:
    panel, cfg = series.panel, series.cfg
    records = panel.funding
    rates = [r.rate_8h for r in records]
    durations = series.funding_bias
    state = series.funding_state
    magnitude = magnitude_classifier(cfg)
    dislocation = d12(cfg.basis_dislocation_abs)
    rows = []
    for i, rec in enumerate(records):
        basis = None
        if rec.mark_price is not None and rec.index_price is not None \
                and rec.index_price > 0:
            value, dislocated = basis_spread(rec.mark_price, rec.index_price, dislocation)
            basis = {"value": _float(value), "dislocated": dislocated}
        rows.append({
            "time": iso(rec.settle_time),
            "rate_8h": fmt_dec(rec.rate_8h),
            "annualized_pct": _float(annualize_funding(rec.rate_8h)),
            "run_length": durations[i],
            "magnitude": magnitude(rec.rate_8h),
            "spike": series.funding_spikes[i],
            "basis": basis,
        })
    # Rising vs moderating: sign of the |rate| slope over the 7-day window.
    direction = "neutral"
    if state is not None and state.magnitude_class != "neutral":
        slope = ols_slope([abs(float(r)) for r in rates[-FUNDING_WINDOW_7D:]])
        if slope is not None:
            direction = "rising" if slope > 0 else "moderating"
    return {
        "kind": "cost",
        "cadence": "per funding period",
        "instrument": panel.instrument,
        "settlements": len(records),
        "state": None if state is None else {
            "bias_sign": state.bias_sign,
            "bias_duration": state.bias_duration,
            "magnitude_class": state.magnitude_class,
            "annualized_pct": _float(state.annualized_pct),
            "cumulative_7d": _float(state.cumulative_7d),
            "cumulative_30d": _float(state.cumulative_30d),
        },
        "direction": direction,
        "per_settlement": rows,
        "cumulative_convention":
            "simple sum of per-period rates, non-compounding",
    }


def positioning_report(series: PanelSeries) -> dict:
    panel, cfg = series.panel, series.cfg
    records = panel.open_interest
    oi_vals = [float(r.oi_usd) for r in records]
    vols = []
    for r in records:
        # records land at bar closes; t-1 falls inside the owning bar
        i = bar_index(panel, r.time - 1)
        vols.append(float(series.realized_vol[i]) if i is not None else float("nan"))
    rotation = oi_rotation(oi_vals, vols) if records else []
    per_record = [{
        "time": iso(r.time),
        "oi_usd": fmt_dec(r.oi_usd),
        "long_share": _float(r.long_share),
        "rotation_score": _float(rotation[i]),
    } for i, r in enumerate(records)]

    density = liquidation_density(panel.liquidations, cfg=cfg)
    cluster = None if series.cluster is None else \
        {"share": series.cluster[0], "clustered": series.cluster[1]}

    latest = records[-1] if records else None
    ratio = None
    if latest is not None and latest.long_oi_usd is not None \
            and latest.short_oi_usd is not None and latest.short_oi_usd > 0:
        value, extreme = long_short_ratio(float(latest.long_oi_usd),
                                          float(latest.short_oi_usd), cfg)
        ratio = {"value": value, "extreme": extreme}
    gini = None
    if latest is not None and latest.holder_shares:
        value, risky = concentration_gini([float(s) for s in latest.holder_shares],
                                          cfg)
        gini = {"value": value, "concentrated": risky}
    leverage = None
    if latest is not None and latest.leverage_histogram:
        leverage = _jsonable(leverage_summary(latest.leverage_histogram))

    return {
        "kind": "positioning",
        "cadence": "weekly deep-dive",
        "instrument": panel.instrument,
        "range": _range_block(series.resolved),
        "per_record": per_record,
        "liquidation_density": {
            "prices": [_float(p) for p in density.prices],
            "density": [_float(v) for v in density.density],
            "bandwidth": _float(density.bandwidth),
            "total_usd": _float(density.total_usd),
            "flagged_empty": density.flagged_empty,
        },
        "boundary_cluster": cluster,
        "long_short_ratio": ratio,
        "concentration": gini,
        "leverage": leverage,
    }


def liquidity_report(series: PanelSeries) -> dict:
    panel, cfg = series.panel, series.cfg
    books = panel.books
    tail, notes = latest_valid_books(books, cfg.depth_trend_snapshots)
    latest = tail[-1] if tail else None
    doc = {
        "kind": "liquidity",
        "cadence": "daily updates",
        "instrument": panel.instrument,
        "snapshots": len(books),
        "range": _range_block(series.resolved),
        "latest": None,
        "extremes_trend": None,
        "impact": None,
    }
    if latest is not None:
        bid_prof, ask_prof = depth_percentiles(latest)
        rel, uncertain = spread(latest, cfg)
        imb_value, imb_extreme = book_imbalance(latest, cfg)
        buy = fill_slippage(latest, "buy", cfg.slippage_order_usd)
        sell = fill_slippage(latest, "sell", cfg.slippage_order_usd)
        block = {
            "time": iso(latest.time),
            "spread": {"value": rel, "uncertain": uncertain},
            "imbalance": {"value": imb_value, "extreme": imb_extreme},
            "depth_quartiles": {
                "bid_p25": fmt_dec(bid_prof.p25), "bid_p75": fmt_dec(bid_prof.p75),
                "ask_p25": fmt_dec(ask_prof.p25), "ask_p75": fmt_dec(ask_prof.p75),
            },
            "slippage": {
                "order_usd": cfg.slippage_order_usd,
                "buy": {"cost": buy.slippage, "filled_usd": buy.filled_usd,
                        "partial": buy.partial},
                "sell": {"cost": sell.slippage, "filled_usd": sell.filled_usd,
                         "partial": sell.partial},
            },
        }
        rng = series.range
        if rng is not None:
            mig = shelf_migration(latest, rng, cfg)
            block["shelf_migration"] = {
                "ask_above_share": mig.ask_above_share,
                "bid_below_share": mig.bid_below_share,
                "signal_up": mig.signal_up, "signal_down": mig.signal_down,
            }
            rows = [depth_at_extremes(s, rng, cfg) for s in tail]
            block["depth_at_extremes"] = _jsonable(rows[-1])
            doc["extremes_trend"] = _jsonable(extremes_slopes(rows))
            doc["extremes_series"] = [dict(_jsonable(row), time=iso(s.time))
                                      for row, s in zip(rows, tail)]
        doc["latest"] = block
    if notes:
        doc["notes"] = notes
    fit = market_impact_coefficient(impact_pairs(series.close, series.volume), cfg)
    if fit is not None:
        slope, r2 = fit
        doc["impact"] = {"slope": slope, "r_squared": r2}
    return doc


_BUILDERS = {
    "structural": structural_report,
    "cost": cost_report,
    "positioning": positioning_report,
    "liquidity": liquidity_report,
}


def metrics_report(panel: Panel, cfg: Config = DEFAULTS,
                   families: Optional[Sequence[str]] = None) -> dict:
    wanted = tuple(families) if families else FAMILIES
    for f in wanted:
        if f not in _BUILDERS:
            raise ValueError("unknown metric family: %s" % f)
    series = derive(panel, cfg)
    return {
        "kind": "metrics",
        "instrument": panel.instrument,
        "families": {f: _BUILDERS[f](series) for f in wanted},
    }


# ------------------------------------------------------- verdicts and regime

def verdict_to_dict(v) -> dict:
    return {
        "hypothesis": v.hypothesis,
        "window": list(v.window),
        "condition_met": v.condition_met,
        "outcome": v.outcome,
        "signals": [{"name": s.name, "met": _jsonable(s.met),
                     "measured": _float(s.measured), "threshold": s.threshold}
                    for s in v.signals],
        "notes": list(v.notes),
        "evidence": _jsonable(v.evidence),
    }


def hypotheses_report(panel: Panel, cfg: Config = DEFAULTS,
                      only: Optional[Sequence[str]] = None) -> dict:
    series = derive(panel, cfg)
    verdicts = evaluate_all(panel, cfg, only=only)
    return {
        "kind": "hypotheses",
        "instrument": panel.instrument,
        "range": _range_block(series.resolved),
        "verdicts": {name: verdict_to_dict(v)
                     for name, v in sorted(verdicts.items())},
    }


def regime_report(panel: Panel, cfg: Config = DEFAULTS) -> dict:
    series = derive(panel, cfg)
    regime = classify_regime(panel, cfg)
    states = assemble_trigger_states(series)
    matrix = build_trigger_matrix(states, cfg)
    verdicts = evaluate_all(panel, cfg)
    position = range_position(panel.candles[-1].close if panel.candles else None,
                              series.range, cfg)
    action = recommend_action(regime, position, series.funding_state, verdicts, cfg)
    try:
        platform = _jsonable(advise_platform_parameters(list(series.realized_vol),
                                                        cfg))
    except InsufficientInputsError:
        platform = None   # panel shorter than the volatility window
    return {
        "kind": "regime",
        "cadence": "pre-market daily",
        "instrument": panel.instrument,
        "regime": {"label": regime.label,
                   "cadence": "weekly assessment",
                   "evidence": [{"criterion": c, "value": _float(v), "met": m}
                                for c, v, m in regime.evidence]},
        "range": _range_block(series.resolved),
        "trigger_matrix": {
            "entries": [{"name": n, "state": s} for n, s in matrix.entries],
            "conviction": matrix.conviction,
            "expansion_probability_band": matrix.expansion_probability_band,
        },
        "verdicts": {name: verdict_to_dict(v)
                     for name, v in sorted(verdicts.items())},
        "action": action,
        "platform": platform,
        "advisory_only": True,
    }

"""Evaluators for the four range-governance hypotheses.

Each evaluator returns a HypothesisVerdict with the per-signal evidence it
measured. Outcomes are three-valued: a window only confirms when the trigger
condition held and every measured signal agrees, only falsifies when the
explicit falsification criterion was observed, and is otherwise reported as
not-evaluable with notes saying why.
"""
from __future__ import annotations

import math
from decimal import Decimal
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import Config, DEFAULTS
from .liquidity import (depth_at_extremes, extremes_slopes, latest_valid_books,
                        shelf_migration)
from .model import (
    BAR_SECONDS,
    BARS_PER_DAY,
    Panel,
    RangeDefinition,
    bar_index,
    d12,
    parse_iso,
)
from .positioning import ROTATION, boundary_cluster_share, classify_oi_event
from .structure import PanelSeries, derive, ols_slope

CONFIRMED = "confirmed"
FALSIFIED = "falsified"
NOT_EVALUABLE = "not-evaluable"

class Signal(NamedTuple):
    name: str
    met: Optional[bool]          # None = not measured
    measured: Optional[float]
    threshold: str


class HypothesisVerdict(NamedTuple):
    hypothesis: str
    window: tuple                # (start bar, end bar), inclusive
    condition_met: bool
    signals: tuple
    outcome: str
    notes: tuple = ()
    evidence: dict = {}   # read, never written: the default is one dict for all


def _not_evaluable(name: str, window: tuple, notes, signals=(), condition=False,
                   evidence=None) -> HypothesisVerdict:
    return HypothesisVerdict(name, window, condition, tuple(signals),
                             NOT_EVALUABLE, tuple(notes), evidence or {})


def _verdict(name: str, window: tuple, signals: tuple, notes, evidence: dict,
             outcome: str) -> HypothesisVerdict:
    """The verdict on a window whose condition held. A not-evaluable one also
    notes each measured signal that came out unmet."""
    if outcome == NOT_EVALUABLE:
        notes = list(notes) + ["signal %s unmet" % s.name for s in signals if s.met is False]
    return HypothesisVerdict(name, window, True, signals, outcome, tuple(notes), evidence)


def oi_rotation_event(records: Sequence, cfg: Config) -> tuple:
    """(`classify_oi_event` over the OI records of a window, None), else
    (None, why) when a record is missing or the window starts at zero OI."""
    if any(r is None for r in records) or len(records) < 2:
        return None, "OI missing around the break"
    values = [float(r.oi_usd) for r in records]
    if values[0] == 0:
        return None, "OI zero at the start of the window: change undefined"
    shares = [None if r.long_share is None else float(r.long_share) for r in records]
    return classify_oi_event(values, shares, cfg), None


def _beyond(close: Decimal, rng: RangeDefinition) -> int:
    """+1 above the range, -1 below, 0 inside (boundaries count as inside)."""
    if close > rng.upper:
        return 1
    if close < rng.lower:
        return -1
    return 0


def _first_shift(candles: Sequence, rng: RangeDefinition, start: int,
                 stop: int) -> Optional[int]:
    """The first bar i in [start, stop) whose close and the next bar's close
    are both beyond the same boundary (a structural shift), else None."""
    for i in range(start, stop):
        side = _beyond(candles[i].close, rng)
        if side != 0 and side == _beyond(candles[i + 1].close, rng):
            return i
    return None


# ------------------------------------------------------------------------ H1

def evaluate_h1(series: PanelSeries) -> HypothesisVerdict:
    """Persistent one-sided funding with elevated OI inside an intact range
    precedes expansion: compression signals should be present, and sustained
    expansion despite the bias falsifies."""
    name = "H1"
    panel, rng, cfg = series.panel, series.range, series.cfg
    n = len(panel.candles)
    tail = (max(n - 1, 0), max(n - 1, 0))
    if rng is None:
        return _not_evaluable(name, tail, ["no established range"])
    if len(panel.funding) < cfg.funding_bias_min_periods:
        return _not_evaluable(name, tail, ["fewer than %d funding settlements"
                                           % cfg.funding_bias_min_periods])
    baseline_bars = cfg.oi_baseline_days * BARS_PER_DAY
    oi_records = series.oi_by_bar
    if n < baseline_bars or oi_records[n - baseline_bars] is None:
        return _not_evaluable(name, tail, ["OI history shorter than the %d-day baseline"
                                           % cfg.oi_baseline_days])

    duration = series.funding_bias[-1]
    bias_ok = duration >= cfg.funding_bias_min_periods

    oi_vals = np.array([float(r.oi_usd) for r in oi_records[n - baseline_bars:]])
    oi_ma = float(oi_vals.mean())
    oi_now = float(oi_records[-1].oi_usd)
    oi_ok = oi_now > oi_ma

    notes = []
    condition = bias_ok and oi_ok
    if not condition:
        if not bias_ok:
            notes.append("funding bias run %d < %d settlements"
                         % (duration, cfg.funding_bias_min_periods))
        if not oi_ok:
            notes.append("OI not above its %d-day moving average" % cfg.oi_baseline_days)
        return _not_evaluable(name, tail, notes, evidence={
            "bias_duration": duration, "oi_now": oi_now, "oi_baseline_ma": oi_ma})

    run_start_settle = panel.funding[len(panel.funding) - duration].settle_time
    start = bar_index(panel, run_start_settle - BAR_SECONDS)
    if start is None:
        start = 0
    window = (start, n - 1)

    # signal 1: realized volatility drifting down across the condition window
    vol_slope = ols_slope(series.realized_vol[start:])
    s1 = Signal("volatility_slope", None if vol_slope is None else vol_slope < 0,
                vol_slope, "< 0")
    if vol_slope is None:
        notes.append("volatility history too short for a slope")

    # signal 2: recent wick-to-body above its prior baseline
    combined = series.wick_up + series.wick_down
    recent = combined[n - cfg.wick_recent_window:]
    prior = combined[n - cfg.wick_recent_window - cfg.wick_baseline_window:
                     n - cfg.wick_recent_window]
    recent_mean = float(np.nanmean(recent)) if np.any(~np.isnan(recent)) else None
    prior_mean = float(np.nanmean(prior)) if np.any(~np.isnan(prior)) else None
    if recent_mean is None or prior_mean is None:
        s2 = Signal("wick_ratio_rise", None, recent_mean,
                    "> prior %d-bar mean" % cfg.wick_baseline_window)
        notes.append("wick ratios unmeasurable (doji-only stretch)")
    else:
        s2 = Signal("wick_ratio_rise", recent_mean > prior_mean, recent_mean,
                    "> %.6f (prior %d-bar mean)" % (prior_mean, cfg.wick_baseline_window))

    # signal 3: at least one boundary tap that fails to close beyond,
    # with open interest holding through every tap
    tol = d12(cfg.range_touch_tolerance)
    taps = []
    for i in range(start, n):
        c = panel.candles[i]
        near_up = c.high >= rng.upper * (1 - tol) and c.close <= rng.upper
        near_dn = c.low <= rng.lower * (1 + tol) and c.close >= rng.lower
        if near_up or near_dn:
            taps.append(i)
    drops = []
    drops_known = True
    for i in taps:
        prev = oi_records[i - 1] if i > 0 else None
        cur = oi_records[i]
        if prev is None or cur is None or float(prev.oi_usd) == 0:
            drops_known = False
            continue
        drops.append((float(prev.oi_usd) - float(cur.oi_usd)) / float(prev.oi_usd))
    holds = all(dr < cfg.h1_tap_oi_drop_limit for dr in drops)
    if not taps:
        s3 = Signal("boundary_taps_hold", False, 0.0,
                    ">= 1 tap, each OI drop < %.2f" % cfg.h1_tap_oi_drop_limit)
    elif not drops_known:
        s3 = Signal("boundary_taps_hold", None, float(len(taps)),
                    ">= 1 tap, each OI drop < %.2f" % cfg.h1_tap_oi_drop_limit)
        notes.append("OI missing on a tap bar")
    else:
        s3 = Signal("boundary_taps_hold", holds, float(len(taps)),
                    ">= 1 tap, each OI drop < %.2f" % cfg.h1_tap_oi_drop_limit)

    signals = (s1, s2, s3)
    evidence = {"bias_duration": duration, "oi_now": oi_now, "oi_baseline_ma": oi_ma,
                "tap_bars": taps, "tap_oi_drops": drops}

    # falsification: >=2 consecutive closes beyond a boundary on rising volatility
    expansion = _first_shift(panel.candles, rng, start, n - 1) is not None
    if expansion and vol_slope is not None and vol_slope > 0:
        notes.append("sustained expansion despite persistent funding bias")
        outcome = FALSIFIED
    elif sum(1 for s in signals if s.met) >= cfg.h1_signal_quorum:
        outcome = CONFIRMED
    else:
        outcome = NOT_EVALUABLE
    return _verdict(name, window, signals, notes, evidence, outcome)


# ------------------------------------------------------------------------ H2

def find_breakout_candidates(panel: Panel, rng: RangeDefinition) -> list:
    """(bar index, side) for bars whose close first moves beyond a boundary.
    A break needs a prior close, so bar 0 is never one."""
    out = []
    closes = [c.close for c in panel.candles]
    for i in range(1, len(closes)):
        side = _beyond(closes[i], rng)
        if side != 0 and _beyond(closes[i - 1], rng) != side:
            out.append((i, "up" if side > 0 else "down"))
    return out


def evaluate_h2(series: PanelSeries) -> HypothesisVerdict:
    """Funding moderation plus shelf migration, thinning boundary depth and OI
    rotation at the latest of `find_breakout_candidates` predicts the break
    sustains."""
    name = "H2"
    panel, rng, cfg = series.panel, series.range, series.cfg
    n = len(panel.candles)
    tail = (max(n - 1, 0), max(n - 1, 0))
    if rng is None:
        return _not_evaluable(name, tail, ["no established range"])
    candidates = find_breakout_candidates(panel, rng)
    if not candidates:
        return _not_evaluable(name, tail, ["no breakout candidate bar"])
    breakout_bar, side = candidates[-1]
    window = (max(0, breakout_bar - cfg.h2_premoderation_bars),
              min(n - 1, breakout_bar + cfg.h2_sustain_closes))
    notes = []

    known = [f for f in series.funding_by_bar[window[0]:breakout_bar] if f is not None]
    if not known:
        return _not_evaluable(name, window, ["no funding coverage before the break"])
    moderation = d12(cfg.funding_neutral_abs)
    condition = any(abs(f.rate_8h) < moderation for f in known)
    if not condition:
        return _not_evaluable(name, window,
                              ["funding never moderated under %s in the %d pre-break bars"
                               % (moderation, cfg.h2_premoderation_bars)])

    break_close_t = panel.candles[breakout_bar].close_time

    # signals 1 and 2 read the latest valid snapshots at or before the break (books ascend)
    before = panel.books[:sum(t <= break_close_t for t in panel.books.times)]
    tail, skipped = latest_valid_books(before, cfg.depth_trend_snapshots)
    notes.extend(skipped if before else ["no book snapshot at the break"])

    # signal 1: resting depth relocated beyond the broken boundary
    shelf_text = "> %.2f toward the break" % cfg.h2_shelf_migration_share
    if not tail:
        s1 = Signal("shelf_migration", None, None, shelf_text)
    else:
        mig = shelf_migration(tail[-1], rng, cfg)
        share = mig.ask_above_share if side == "up" else mig.bid_below_share
        fired = mig.signal_up if side == "up" else mig.signal_down
        s1 = Signal("shelf_migration", fired, share, shelf_text)

    # signal 2: depth at the broken boundary trending down
    trend = extremes_slopes([depth_at_extremes(b, rng, cfg) for b in tail])
    slope = trend["upper_slope"] if side == "up" else trend["lower_slope"]
    s2 = Signal("boundary_depth_decline", None if slope is None else slope < 0,
                slope, "< 0")
    if slope is None:
        notes.append("fewer than 2 book snapshots before the break")

    # signal 3: OI rotating rather than collapsing into the break
    event, why = oi_rotation_event(series.oi_by_bar[window[0]:breakout_bar + 1], cfg)
    if event is None:
        s3 = Signal("oi_rotation", None, None, "label == rotation")
        notes.append(why)
    elif event.partial:
        s3 = Signal("oi_rotation", None, event.oi_change_frac, "label == rotation")
        notes.append("long/short split missing: rotation undecidable")
    else:
        s3 = Signal("oi_rotation", event.label == ROTATION, event.oi_change_frac,
                    "label == rotation")
        if event.label != ROTATION:
            notes.append("OI event classified as %s" % event.label)

    signals = (s1, s2, s3)
    evidence = {"breakout_bar": breakout_bar, "side": side}
    # when every signal aligned, the verdict rides on whether the break sustains
    post = panel.candles[breakout_bar + 1: breakout_bar + 1 + cfg.h2_sustain_closes]
    want = 1 if side == "up" else -1
    if not all(s.met for s in signals):
        outcome = NOT_EVALUABLE
    elif len(post) < cfg.h2_sustain_closes:
        notes.append("sustainment unverified (%d post-break bars)" % len(post))
        outcome = CONFIRMED
    elif all(_beyond(c.close, rng) == want for c in post):
        outcome = CONFIRMED
    else:
        notes.append("aligned break failed to sustain %d closes beyond"
                     % cfg.h2_sustain_closes)
        outcome = FALSIFIED
    return _verdict(name, window, signals, notes, evidence, outcome)


# ------------------------------------------------------------------------ H3

def _annotation_rows(panel: Panel, key: str) -> list:
    rows = panel.annotations.get(key)
    if not isinstance(rows, list):
        return []
    out = []
    for row in rows:
        try:
            out.append((parse_iso(row["time"]), float(row["value"])))
        except (AttributeError, KeyError, TypeError, ValueError):
            continue
    return out


def evaluate_h3(series: PanelSeries) -> HypothesisVerdict:
    """A funding spike without structural shift reverts to the range midpoint
    within 2-4 bars."""
    name = "H3"
    panel, rng, cfg = series.panel, series.range, series.cfg
    n = len(panel.candles)
    tail = (max(n - 1, 0), max(n - 1, 0))
    if rng is None:
        return _not_evaluable(name, tail, ["no established range"])
    spike_idx = [i for i, f in enumerate(series.funding_spikes) if f]
    if not spike_idx:
        why = "no funding spike detected" \
            if len(panel.funding) > cfg.funding_spike_lookback \
            else "funding history shorter than the spike lookback"
        return _not_evaluable(name, tail, [why])
    sp = spike_idx[-1]
    spike_time = panel.funding[sp].settle_time
    s = bar_index(panel, spike_time - 1)
    if s is None:
        s = 0 if spike_time <= panel.start_time else n - 1
    window = (s, min(s + cfg.h3_reversion_max_bars, n - 1))
    notes = []

    # structural shift kills the condition: >=2 consecutive closes outside
    shift = _first_shift(panel.candles, rng, s, min(s + cfg.h3_reversion_max_bars, n - 1))
    if shift is not None:
        return _not_evaluable(
            name, window,
            ["structural shift after the spike (2 consecutive closes outside)"],
            evidence={"spike_bar": s, "shift_at": shift})

    sigma = series.realized_vol[s]
    if math.isnan(sigma):
        return _not_evaluable(name, window,
                              ["volatility history too short at the spike bar"],
                              evidence={"spike_bar": s})
    mid = float(rng.midpoint)
    corridor = cfg.h3_reversion_sigma * sigma * mid

    reverted_at = None
    for k in range(1, cfg.h3_reversion_max_bars + 1):
        if s + k >= n:
            break
        if abs(float(panel.candles[s + k].close) - mid) <= corridor:
            reverted_at = k
            break
    post_bars = n - 1 - s

    s_rev = Signal("midpoint_reversion",
                   reverted_at is not None,
                   float(reverted_at) if reverted_at is not None else None,
                   "within %d bars of +-%.6f around midpoint"
                   % (cfg.h3_reversion_max_bars, corridor))

    # optional: intrabar volatility burst, only when 1H data is annotated
    burst_rows = [(t, v) for t, v in _annotation_rows(panel, "volatility_1h")
                  if panel.candles[s].open_time <= t <= panel.candles[s].close_time]
    if burst_rows:
        value = burst_rows[-1][1]
        s1 = Signal("intrabar_volatility_burst", bool(value > sigma), value,
                    "> %.6f (4H realized vol)" % sigma)
    else:
        s1 = Signal("intrabar_volatility_burst", None, None, "> 4H realized vol")
        notes.append("no 1H volatility annotation: signal not measured")

    # closes stay inside the range through the reversion window
    post = panel.candles[s + 1: min(s + 1 + cfg.h3_reversion_max_bars, n)]
    if post:
        inside = all(_beyond(c.close, rng) == 0 for c in post)
        s2 = Signal("closes_inside_range", inside, float(sum(
            1 for c in post if _beyond(c.close, rng) == 0)), "all post-spike closes inside")
    else:
        s2 = Signal("closes_inside_range", None, None, "all post-spike closes inside")
        notes.append("no post-spike bars")

    # basis back under the dislocation bound within 2 bars
    basis_limit = d12(cfg.basis_dislocation_abs)
    basis_vals = []
    for f in panel.funding:
        if spike_time < f.settle_time <= spike_time + 2 * BAR_SECONDS \
                and f.mark_price is not None and f.index_price is not None \
                and f.index_price > 0:
            basis_vals.append(float((f.mark_price - f.index_price) / f.index_price))
    if not basis_vals:
        basis_vals = [v for t, v in _annotation_rows(panel, "basis")
                      if spike_time < t <= spike_time + 2 * BAR_SECONDS]
    if basis_vals:
        best = min(abs(v) for v in basis_vals)
        s3 = Signal("basis_reverts", d12(best) < basis_limit, best,
                    "< %s within 2 bars" % basis_limit)
    else:
        s3 = Signal("basis_reverts", None, None, "< %s within 2 bars" % basis_limit)
        notes.append("no basis data after the spike: signal not measured")

    signals = (s_rev, s1, s2, s3)
    evidence = {"spike_bar": s, "spike_settlement": sp, "sigma": sigma,
                "corridor_abs": corridor, "reverted_at": reverted_at}

    if reverted_at is None and post_bars < cfg.h3_reversion_max_bars:
        notes.append("window truncated before reversion could be judged")
        return _not_evaluable(name, window, notes, signals, condition=True,
                              evidence=evidence)
    if reverted_at is None:
        notes.append("price never reverted to the midpoint corridor")
        outcome = FALSIFIED
    elif all(sig.met for sig in signals if sig.met is not None):
        outcome = CONFIRMED
    else:
        outcome = NOT_EVALUABLE
    return _verdict(name, window, signals, notes, evidence, outcome)


# ------------------------------------------------------------------------ H4

def evaluate_h4(series: PanelSeries) -> HypothesisVerdict:
    """Clustered liquidations police the boundaries: taps into the cluster
    zone recoil more often than not."""
    name = "H4"
    panel, rng, cfg = series.panel, series.range, series.cfg
    n = len(panel.candles)
    tail = (max(n - 1, 0), max(n - 1, 0))
    if rng is None:
        return _not_evaluable(name, tail, ["no established range"])
    if not panel.liquidations:
        return _not_evaluable(name, tail, ["no liquidation events"])
    share, clustered = boundary_cluster_share(panel.liquidations, rng, cfg)
    s_cluster = Signal("liquidation_cluster_share", clustered, share,
                       ">= %.2f" % cfg.boundary_cluster_min_share)
    if not clustered:
        return _not_evaluable(name, tail,
                              ["cluster share %.4f below %.2f: condition unmet"
                               % (share, cfg.boundary_cluster_min_share)],
                              signals=(s_cluster,))

    funding = series.funding_by_bar
    oi_records = series.oi_by_bar
    decline = d12(cfg.h4_funding_decline_frac)
    taps = []
    for i, c in enumerate(panel.candles):
        for side, extreme, boundary in (("up", c.high, rng.upper),
                                        ("down", c.low, rng.lower)):
            beyond = extreme - boundary if side == "up" else boundary - extreme
            if beyond <= 0:
                continue
            excursion = float(beyond)
            closes = series.close[i:i + 2].tolist()
            ext = float(extreme)
            if side == "up":
                retrace = max(ext - cl for cl in closes)
            else:
                retrace = max(cl - ext for cl in closes)
            recoil_frac = retrace / excursion
            recoil_met = recoil_frac > cfg.h4_recoil_frac

            f0 = funding[i]
            decline_met: Optional[bool] = None
            if f0 is not None and f0.rate_8h != 0:
                base = abs(f0.rate_8h)
                cut = base * (1 - decline)
                later = [funding[i + k] for k in (1, 2) if i + k < n]
                known = [f for f in later if f is not None]
                if known:
                    decline_met = any(abs(f.rate_8h) <= cut for f in known)

            dip_met: Optional[bool] = None
            if i > 0 and oi_records[i] is not None and oi_records[i - 1] is not None:
                dip_met = oi_records[i].oi_usd < oi_records[i - 1].oi_usd

            taps.append({"bar": i, "side": side, "excursion": excursion,
                         "recoil_frac": recoil_frac, "recoil": recoil_met,
                         "funding_decline": decline_met, "oi_dip": dip_met})

    if not taps:
        return _verdict(name, tail, (s_cluster,), ["no boundary taps observed"], {},
                        NOT_EVALUABLE)

    window = (taps[0]["bar"], min(taps[-1]["bar"] + 2, n - 1))
    hit_rate = sum(1 for t in taps if t["recoil"]) / len(taps)
    s_recoil = Signal("recoil_hit_rate", hit_rate > cfg.h4_hit_rate_min, hit_rate,
                      "> %.2f" % cfg.h4_hit_rate_min)

    def info_share(key: str) -> Optional[float]:
        known = [t for t in taps if t[key] is not None]
        if not known:
            return None
        return sum(1 for t in known if t[key]) / len(known)

    s_funding = Signal("funding_decline_share", None, info_share("funding_decline"),
                       "informational")
    s_oi = Signal("oi_dip_share", None, info_share("oi_dip"), "informational")
    signals = (s_cluster, s_recoil, s_funding, s_oi)
    notes = ["excursion measured from the boundary (extreme minus boundary)",
             "%d taps observed" % len(taps)]
    evidence = {"taps": taps, "cluster_share": share}
    outcome = CONFIRMED if s_recoil.met else FALSIFIED
    if outcome == FALSIFIED:
        notes.append("recoil hit rate %.3f not above %.2f"
                     % (hit_rate, cfg.h4_hit_rate_min))
    return _verdict(name, window, signals, notes, evidence, outcome)


# ------------------------------------------------------------------- driver

def evaluate_all(panel: Panel, cfg: Config = DEFAULTS,
                 only: Optional[Sequence[str]] = None) -> dict:
    """The verdicts of the requested hypotheses (default: all four), in a new
    dict on each call, over `derive(panel, cfg)`.

    Each evaluator runs at most once per derived series: its verdict is kept
    in `series.verdicts` under the evaluator function as bound at the call,
    and every `derive` of the unchanged panel shares that dict, so the
    hypotheses and regime reports of one panel evaluate it once.
    """
    series = derive(panel, cfg)
    kept = series.verdicts
    out = {}
    for name, evaluate in (("H1", evaluate_h1), ("H2", evaluate_h2),
                           ("H3", evaluate_h3), ("H4", evaluate_h4)):
        if only and name not in only:
            continue
        if evaluate not in kept:   # keyed by the function, as `derive` is
            kept[evaluate] = evaluate(series)
        out[name] = kept[evaluate]
    return out


import hashlib

import numpy as np
import pytest

from rangegov import formats, hypotheses, reports
from rangegov.config import DEFAULTS
from rangegov.hypotheses import (
    evaluate_all,
    evaluate_h1,
    evaluate_h2,
    evaluate_h3,
    evaluate_h4,
    find_breakout_candidates,
)
from rangegov.formats import panel_from_dict, panel_to_dict
from rangegov.model import BAR_SECONDS, Candle4H, Panel, d12, iso
from rangegov.structure import derive
from rangegov.synth import generate, scenario_from_dict

from conftest import SCENARIO_NAMES, scale_panel

T0 = 1700006400

CONFIRM = "confirmed"
FALSIFY = "falsified"
NOT_EVALUABLE = "not-evaluable"


def trend_candles(n=40, start=100.0, drift=0.01):
    out = []
    price = start
    for i in range(n):
        nxt = price * (1 + drift)
        out.append(Candle4H(T0 + i * BAR_SECONDS, d12(price),
                            d12(nxt * 1.0005), d12(price * 0.9995),
                            d12(nxt), d12(1000)))
        price = nxt
    return out


# --- scenario-driven verdicts -------------------------------------------------

@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_designated_outcome(scenario_panels, name):
    panel, gt = scenario_panels[name]
    verdicts = evaluate_all(panel, DEFAULTS)
    assert verdicts[gt["hypothesis"]].outcome == gt["expected_outcome"]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_confirmed_implies_all_measured_signals_met(scenario_panels, name):
    panel, _ = scenario_panels[name]
    for v in evaluate_all(panel, DEFAULTS).values():
        if v.outcome == CONFIRM:
            # informational signals report met=None and don't gate anything
            assert all(bool(s.met) for s in v.signals if s.met is not None)


@pytest.mark.parametrize("name", ["h2-falsify", "h4-confirm"])
def test_price_scale_leaves_verdicts_alone(scenario_panels, name):
    panel, _ = scenario_panels[name]
    base = {h: v.outcome for h, v in evaluate_all(panel, DEFAULTS).items()}
    scaled = {h: v.outcome
              for h, v in evaluate_all(scale_panel(panel, 1000.0), DEFAULTS).items()}
    assert base == scaled


def test_only_filter_runs_requested_subset(scenario_panels):
    panel, _ = scenario_panels["h3-confirm"]
    out = evaluate_all(panel, DEFAULTS, only=["H3"])
    assert set(out) == {"H3"}
    assert out["H3"].outcome == CONFIRM


# --- evidence shapes ---------------------------------------------------------

def test_h1_confirm_evidence(scenario_panels):
    panel, _ = scenario_panels["h1-confirm"]
    v = evaluate_all(panel, DEFAULTS)["H1"]
    assert v.outcome == CONFIRM
    assert v.condition_met
    assert v.evidence["bias_duration"] >= DEFAULTS.funding_bias_min_periods
    assert v.evidence["oi_now"] > v.evidence["oi_baseline_ma"]


def test_h2_evidence_carries_breakout_bar_and_side(scenario_panels):
    for name, expected in (("h2-confirm", CONFIRM), ("h2-falsify", FALSIFY)):
        panel, _ = scenario_panels[name]
        v = evaluate_all(panel, DEFAULTS)["H2"]
        assert v.outcome == expected
        assert v.evidence["side"] == "up"
        assert v.window[0] <= v.evidence["breakout_bar"] <= v.window[1]


def test_h2_skips_a_rejected_snapshot_at_the_break(scenario_panels):
    """A zero-price bid in the snapshot at the break gives the signals of the
    panel without that snapshot, and a note names the skipped snapshot."""
    doc = panel_to_dict(scenario_panels["h2-confirm"][0])
    at = [line[:20] for line in doc["books"]].index("2023-11-25T04:00:00Z")
    time, bids, asks = doc["books"][at].split("|")
    rejected = "|".join([time, "0:1 " + bids, asks])
    edited = panel_from_dict(dict(doc, books=doc["books"][:at] + [rejected]
                                  + doc["books"][at + 1:]))
    removed = panel_from_dict(dict(doc, books=doc["books"][:at] + doc["books"][at + 1:]))
    got = evaluate_all(edited, DEFAULTS)["H2"]
    want = evaluate_all(removed, DEFAULTS)["H2"]
    assert iso(edited.candles[got.evidence["breakout_bar"]].close_time) == time
    assert (got.outcome, got.signals) == (want.outcome, want.signals)
    assert got.signals[0].measured == pytest.approx(0.92687, abs=1e-5)
    assert got.signals[1].measured == pytest.approx(-1376.41, abs=1e-2)
    assert got.notes == ("book snapshot %s skipped: bids non-positive price; bids "
                         "levels not strictly ordered best-first" % time,) + want.notes


def test_h2_falsified_by_failed_sustainment(scenario_panels):
    panel, _ = scenario_panels["h2-falsify"]
    v = evaluate_all(panel, DEFAULTS)["H2"]
    assert v.outcome == FALSIFY
    assert v.condition_met    # alignment was present, the break just died


def test_h3_reversion_offset_within_limit(scenario_panels):
    panel, _ = scenario_panels["h3-confirm"]
    v = evaluate_all(panel, DEFAULTS)["H3"]
    assert v.outcome == CONFIRM
    # reverted_at counts bars after the spike
    assert 1 <= v.evidence["reverted_at"] <= DEFAULTS.h3_reversion_max_bars


def test_h3_falsified_needs_four_open_bars(scenario_panels):
    panel, _ = scenario_panels["h3-falsify"]
    v = evaluate_all(panel, DEFAULTS)["H3"]
    assert v.outcome == FALSIFY
    assert v.evidence["reverted_at"] is None


def test_h4_taps_and_hit_rate(scenario_panels):
    panel, _ = scenario_panels["h4-confirm"]
    v = evaluate_all(panel, DEFAULTS)["H4"]
    assert v.outcome == CONFIRM
    taps = v.evidence["taps"]
    assert len(taps) >= 2
    hits = sum(1 for t in taps if t["recoil"])
    assert hits / len(taps) > DEFAULTS.h4_hit_rate_min
    assert v.evidence["cluster_share"] >= DEFAULTS.boundary_cluster_min_share

    panel_f, _ = scenario_panels["h4-falsify"]
    vf = evaluate_all(panel_f, DEFAULTS)["H4"]
    assert vf.outcome == FALSIFY
    taps_f = vf.evidence["taps"]
    assert sum(1 for t in taps_f if t["recoil"]) / len(taps_f) \
        <= DEFAULTS.h4_hit_rate_min


# --- not-evaluable prerequisites ----------------------------------------------

def test_everything_not_evaluable_without_a_range():
    panel = Panel("TREND", trend_candles(), [], [], [], [], {})
    for v in evaluate_all(panel, DEFAULTS).values():
        assert v.outcome == NOT_EVALUABLE
        assert any("range" in n for n in v.notes)


# the hypotheses report of TREND_60, as the evaluators wrote it when each one
# checked for a range itself
TREND_60_SHA = "2a6d07dbc395ebf77066e5d9c0787796da7cafe64731b2aa5a36c6262e29638f"


def test_without_a_range_no_evaluator_runs(monkeypatch):
    panel, _ = generate(scenario_from_dict({
        "name": "trend-60", "seed": 1, "segments": [{"template": "trend", "length": 60}]}))
    assert len(panel.candles) == 60 and derive(panel, DEFAULTS).range is None
    for name in ("evaluate_h1", "evaluate_h2", "evaluate_h3", "evaluate_h4"):
        monkeypatch.setattr(hypotheses, name, lambda series, _name=name: pytest.fail(_name))
    verdicts = evaluate_all(panel, DEFAULTS)
    assert list(verdicts) == ["H1", "H2", "H3", "H4"]
    for name, v in verdicts.items():
        assert v == (name, (59, 59), False, (), NOT_EVALUABLE, ("no established range",), {})
    doc = formats.dump_json(reports.hypotheses_report(panel))
    assert hashlib.sha256(doc.encode()).hexdigest() == TREND_60_SHA


def test_h1_not_evaluable_without_funding(scenario_panels):
    src, _ = scenario_panels["h1-confirm"]
    panel = Panel(src.instrument, src.candles, [], src.open_interest,
                  src.books, src.liquidations, {})
    v = evaluate_h1(_series(panel))
    assert v.outcome == NOT_EVALUABLE


def test_h2_not_evaluable_without_breakout(scenario_panels):
    src, _ = scenario_panels["h1-confirm"]   # ranging panel, closes inside
    series = _series(src)
    assert find_breakout_candidates(series.side) == []
    v = evaluate_h2(series)
    assert v.outcome == NOT_EVALUABLE


def test_h3_not_evaluable_without_spike():
    # flat funding forever: no settlement ever clears the 2-sigma gate
    from rangegov.model import FundingRecord
    src_candles = _oscillating_candles()
    funding = [FundingRecord(T0 + k * 28800, d12(0.0001), 8)
               for k in range(1, len(src_candles) // 2)]
    panel = Panel("FLAT", src_candles, funding, [], [], [], {})
    v = evaluate_h3(_series(panel))
    assert v.outcome == NOT_EVALUABLE


def test_h4_not_evaluable_without_liquidations(scenario_panels):
    src, _ = scenario_panels["h4-confirm"]
    panel = Panel(src.instrument, src.candles, src.funding,
                  src.open_interest, src.books, [], {})
    v = evaluate_h4(_series(panel))
    assert v.outcome == NOT_EVALUABLE


def test_an_unmet_volatility_burst_is_noted(scenario_panels):
    src, _ = scenario_panels["h3-confirm"]
    annotations = dict(src.annotations, volatility_1h=[
        dict(row, value=1e-9) for row in src.annotations["volatility_1h"]])
    v = evaluate_h3(_series(src._replace(annotations=annotations)))
    assert v.outcome == NOT_EVALUABLE
    assert [s.met for s in v.signals] == [True, False, True, True]
    assert v.notes == ("signal intrabar_volatility_burst unmet",)


# --- helpers -------------------------------------------------------------------

def _series(panel):
    series = derive(panel, DEFAULTS)
    assert series.range is not None
    return series


def _oscillating_candles(n=60, lo=100.0, hi=103.0):
    out = []
    prev = lo
    for i in range(n):
        cyc = i % 8
        frac = (0.0, 0.55, 0.9, 0.55, 0.0, -0.55, -0.9, -0.55)[cyc]
        mid = (lo + hi) / 2
        close = mid + frac * (hi - lo) / 2
        h = max(prev, close) * 1.0005
        l = min(prev, close) * 0.9995
        if cyc == 2:
            h = hi
        if cyc == 6:
            l = lo
        out.append(Candle4H(T0 + i * BAR_SECONDS, d12(prev), d12(h), d12(l),
                            d12(close), d12(1000)))
        prev = close
    return out


def _threshold(verdict, signal):
    return [s.threshold for s in verdict.signals if s.name == signal]


def test_signal_threshold_text_follows_the_config(scenario_panels):
    h1, h2 = scenario_panels["h1-confirm"][0], scenario_panels["h2-confirm"][0]
    cfg = DEFAULTS.replace(h2_shelf_migration_share=0.5, wick_baseline_window=10)
    assert _threshold(evaluate_all(h2, DEFAULTS)["H2"], "shelf_migration") \
        == ["> 0.20 toward the break"]
    assert _threshold(evaluate_all(h2, cfg)["H2"], "shelf_migration") \
        == ["> 0.50 toward the break"]
    [default] = _threshold(evaluate_all(h1, DEFAULTS)["H1"], "wick_ratio_rise")
    [override] = _threshold(evaluate_all(h1, cfg)["H1"], "wick_ratio_rise")
    assert default.endswith("(prior 20-bar mean)")
    assert override.endswith("(prior 10-bar mean)")


@pytest.mark.parametrize("baseline, text", [
    (20, "> 147.819970 (prior 20-bar mean)"),
    # longer than the 575 bars before the recent window: the prior window is
    # every one of them, not a slice that wraps round to the last 20
    (600, "> 20.146019 (prior 600-bar mean)"),
])
def test_the_wick_baseline_stops_at_the_first_bar(scenario_panels, baseline, text):
    panel = scenario_panels["h1-confirm"][0]
    cfg = DEFAULTS.replace(wick_baseline_window=baseline)
    assert _threshold(evaluate_all(panel, cfg)["H1"], "wick_ratio_rise") == [text]
    if baseline > len(panel.candles):
        series = derive(panel, cfg)
        combined = (series.wick_up + series.wick_down)[:-cfg.wick_recent_window]
        assert text == "> %.6f (prior 600-bar mean)" % np.nanmean(combined)

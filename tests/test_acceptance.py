"""Acceptance gate.

Seven checks, one test each, so `pytest -v` prints a single pass/fail line
per criterion:

  1. funding arithmetic anchors (1e-9, <1 s)
  2. threshold defaults match their published values (<1 s)
  3. kernel equivalence against brute-force oracles, 100+ random instances
     each (1e-9 relative, 1e-3 for the KDE integral, <60 s)
  4. scenario-suite confusion diagonal plus price-scale invariance (<30 s)
  5. volume conservation, KDE normalization, pipeline idempotence on 50
     random panels (<30 s)
  6. byte-identical reruns and the CLI ingest round trip on a 1-year panel
     (<10 s)
  7. platform advisor endpoint behaviour (<1 s)
"""

import json
import math
import random
import statistics
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rangegov.cli import main
from rangegov.config import DEFAULTS
from rangegov.errors import InsufficientInputsError
from rangegov.formats import (
    dump_json,
    panel_to_dict,
    write_books,
    write_candles_csv,
    write_funding_csv,
    write_liquidations_csv,
    write_oi_csv,
)
from rangegov.hypotheses import evaluate_all
from rangegov.ingestion import (
    RawTick,
    align_4h,
    annualize_funding,
    cumulative_funding,
    vwap_merge,
)
from rangegov.liquidity import (
    depth_percentiles,
    fill_slippage,
    impact_pairs,
    market_impact_coefficient,
)
from rangegov.model import BookSnapshot, Candle4H, LiquidationEvent, d12, levels_text
from rangegov.positioning import concentration_gini, liquidation_density
from rangegov.quality import run_pipeline
from rangegov.regime import advise_platform_parameters
from rangegov.structure import map_swings, volume_nodes
from rangegov.synth import (
    TEMPLATES,
    Scenario,
    Segment,
    backtest,
    generate,
    load_scenario,
)

from conftest import SCENARIO_NAMES, profile_columns, scale_panel, scenario_path

T0 = 1_700_006_400
BAR = 14_400


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("RG_CONFIG", raising=False)


def _close(a, b, rel=1e-9, floor=0.0):
    a, b = float(a), float(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


# ---------------------------------------------------------------- criterion 1

def test_c1_funding_arithmetic_anchors():
    t0 = time.perf_counter()
    assert _close(annualize_funding(Decimal("0.0005")), 54.75)
    assert _close(annualize_funding(Decimal("0.0008")), 87.6)
    assert _close(cumulative_funding([Decimal("0.0008")] * 30, 30), Decimal("0.024"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 1 PASS: funding anchors 54.75%% / 87.6%% / 2.4%% "
          "(%.3fs)" % elapsed)


# ---------------------------------------------------------------- criterion 2

def test_c2_threshold_defaults():
    t0 = time.perf_counter()
    c = DEFAULTS
    assert c.funding_elevated_abs == 0.0005        # 0.05% per period
    assert c.funding_neutral_abs == 0.0001         # 0.01% per period
    assert c.h2_shelf_migration_share == 0.20      # 20% depth relocation
    assert c.oi_rotation_mix_shift == 0.05         # 5% compositional shift
    assert c.oi_collapse_decline == 0.05           # 5% OI decline
    assert c.boundary_cluster_min_share == 0.30    # 30% clustered notional
    assert c.boundary_cluster_distance == 0.02     # within 2% of a boundary
    assert c.h4_recoil_frac == 0.5                 # 50% recoil of excursion
    assert c.h4_hit_rate_min == 0.5                # 50% tap hit rate
    assert c.funding_spike_sigma == 2.0            # 2 sigma ...
    assert c.funding_spike_lookback == 30          # ... over 30 settlements
    assert c.oi_baseline_days == 90                # 90-day baseline
    assert c.swing_lookback == 5                   # 5-candle clearance
    assert c.volume_bin_frac == 0.005              # 0.5% price bins
    assert c.absorption_min_usd == 500_000.0       # $500k resting executions
    assert c.kde_bandwidth_frac == 0.01            # 1% KDE bandwidth
    assert c.basis_dislocation_abs == 0.005        # +/-0.5% basis
    assert c.imbalance_extreme == 0.3              # +/-0.3 book imbalance
    assert c.long_short_extreme_high == 2.0        # ratio > 2.0
    assert c.long_short_extreme_low == 0.5         # ratio < 0.5
    assert c.gini_risk_threshold == 0.7            # 0.7 Gini
    assert c.leverage_min == 20.0                  # 20x ...
    assert c.leverage_max == 100.0                 # ... to 100x
    assert c.liq_mode_pctl == 0.80                 # 80th percentile switch
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 2 PASS: 24 threshold defaults verified (%.3fs)" % elapsed)


# ---------------------------------------------------------------- criterion 3

def _random_candles(rng, n, tie_decimals=None):
    out = []
    px = 100.0 + rng.uniform(-5, 5)
    for i in range(n):
        px = max(1.0, px * (1 + rng.gauss(0, 0.01)))
        other = px * (1 + rng.gauss(0, 0.005))
        body_hi, body_lo = max(px, other), min(px, other)
        hi = body_hi * (1 + abs(rng.gauss(0, 0.003)))
        lo = body_lo * (1 - abs(rng.gauss(0, 0.003)))
        if tie_decimals is not None:
            hi, lo = round(hi, tie_decimals), round(lo, tie_decimals)
            body_hi = min(body_hi, hi)
            body_lo = max(body_lo, lo)
        out.append(Candle4H(T0 + i * BAR, d12(other), d12(hi), d12(lo),
                            d12(px), d12(rng.uniform(0, 400))))
    return out


def _oracle_align(ticks):
    groups, order = {}, []
    for t in ticks:
        key = (t.time // BAR) * BAR
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(t)
    rows = []
    for key in order:
        g = groups[key]
        prices = [t.price for t in g]
        rows.append((key, g[0].price, max(prices), min(prices), g[-1].price,
                     sum((t.volume for t in g), Decimal(0)),
                     max(1, len({t.exchange_id for t in g}))))
    return rows


def _check_align(rng):
    n = rng.randint(1, 40)
    times = sorted(rng.randint(T0, T0 + 5 * BAR - 1) for _ in range(n))
    ticks = [RawTick(t, d12(rng.uniform(50, 150)), d12(rng.uniform(0, 10)),
                     rng.choice("abc")) for t in times]
    got = align_4h(ticks)
    want = _oracle_align(ticks)
    assert len(got) == len(want)
    for c, (key, o, h, l, cl, v, ex) in zip(got, want):
        assert c.open_time == key and c.exchange_count == ex
        for a, b in ((c.open, o), (c.high, h), (c.low, l), (c.close, cl),
                     (c.volume, v)):
            assert _close(a, b, floor=1e-9)


def _check_merge(rng):
    venues = rng.randint(2, 4)
    bars = rng.randint(2, 8)
    weights = [rng.uniform(1, 10) for _ in range(venues)]
    dead = {i for i in range(bars) if rng.random() < 0.15}
    series = []
    for _ in range(venues):
        cs = _random_candles(rng, bars)
        cs = [Candle4H(c.open_time, c.open, c.high, c.low, c.close,
                       Decimal(0) if i in dead else c.volume)
              for i, c in enumerate(cs)]
        series.append(cs)
    merged = vwap_merge(series, weights)
    assert len(merged) == bars
    for i in range(bars):
        row = [s[i] for s in series]
        vols = [c.volume for c in row]
        total = sum(vols, Decimal(0))
        w = vols if total > 0 else [d12(x) for x in weights]
        wsum = sum(w, Decimal(0))
        for field in ("open", "high", "low", "close"):
            want = sum(getattr(c, field) * wi for c, wi in zip(row, w)) / wsum
            assert _close(getattr(merged[i], field), want)
        assert _close(merged[i].volume, total, floor=1e-9)


def _check_swings(rng):
    lb = rng.choice([2, 3, 5])
    n = rng.randint(2 * lb + 1, 60)
    candles = _random_candles(rng, n, tie_decimals=1 if rng.random() < 0.4 else None)
    highs = [float(c.high) for c in candles]
    lows = [float(c.low) for c in candles]
    want = []
    for i in range(lb, n - lb):
        if highs[i] > max(highs[i - lb:i]) and highs[i] >= max(highs[i + 1:i + 1 + lb]):
            want.append((i, "high"))
        if lows[i] < min(lows[i - lb:i]) and lows[i] <= min(lows[i + 1:i + 1 + lb]):
            want.append((i, "low"))
    got = map_swings(candles, lb)
    assert sorted((s.index, s.kind) for s in got) == sorted(want)
    for s in got:
        ref = candles[s.index].high if s.kind == "high" else candles[s.index].low
        assert s.price == ref and s.time == candles[s.index].open_time


def _check_nodes(rng):
    n = rng.randint(5, 30)
    candles = _random_candles(rng, n)
    if rng.random() < 0.3:  # degenerate bar: zero span collapses to one bin
        c = candles[n // 2]
        candles[n // 2] = Candle4H(c.open_time, c.close, c.close, c.close,
                                   c.close, c.volume)
    prof = volume_nodes(*profile_columns(candles))
    med = statistics.median(float(c.close) for c in candles)
    width = med * DEFAULTS.volume_bin_frac
    lo = min(float(c.low) for c in candles)
    hi = max(float(c.high) for c in candles)
    n_bins = max(1, math.ceil((hi - lo) / width)) if hi > lo else 1
    want = [0.0] * n_bins
    for c in candles:
        v = float(c.volume)
        if v == 0:
            continue
        blo, bhi = float(c.low), float(c.high)
        span = bhi - blo
        if span <= 0:
            k = min(max(int((blo - lo) // width), 0), n_bins - 1)
            want[k] += v
            continue
        for k in range(n_bins):
            seg = min(bhi, lo + (k + 1) * width) - max(blo, lo + k * width)
            if seg > 0:
                want[k] += v * (seg / span)
    assert len(prof.volumes) == n_bins and len(prof.bin_edges) == n_bins + 1
    assert _close(prof.bin_width, width)
    for a, b in zip(prof.volumes, want):
        assert _close(a, b, floor=1.0)


def _check_kde(rng):
    n = rng.randint(1, 25)
    events = [LiquidationEvent(T0 + i * 60, d12(rng.uniform(80, 120)),
                               d12(rng.uniform(1e3, 1e6)),
                               rng.choice(["long", "short"]))
              for i in range(n)]
    prices = [float(e.price) for e in events]
    weights = [float(e.size_usd) for e in events]
    total = sum(weights)
    mean = sum(p * w for p, w in zip(prices, weights)) / total
    h = DEFAULTS.kde_bandwidth_frac * mean
    grid = np.linspace(min(prices) - 3 * h, max(prices) + 3 * h, 10)
    got = liquidation_density(events, eval_grid=grid)
    raw = []
    for x in grid:
        acc = sum(w * math.exp(-0.5 * ((x - p) / h) ** 2)
                  for p, w in zip(prices, weights))
        raw.append(acc / (total * h * math.sqrt(2 * math.pi)))
    area = sum((raw[j] + raw[j + 1]) * (grid[j + 1] - grid[j])
               for j in range(9)) / 2
    want = [r / area for r in raw]
    assert _close(got.bandwidth, h)
    for a, b in zip(got.density, want):
        assert _close(a, b, floor=1e-6)


def _check_gini(rng):
    n = rng.randint(2, 20)
    shares = [0.0 if rng.random() < 0.1 else rng.uniform(0, 1) for _ in range(n)]
    got, _ = concentration_gini(shares)
    total = sum(shares)
    if total == 0:
        assert got == 0.0
        return
    want = sum(abs(a - b) for a in shares for b in shares) / (2 * n * total)
    assert _close(got, want, floor=1e-9)


def _random_book(rng):
    def side(start, sign):
        px, out = start, []
        for _ in range(rng.randint(1, 12)):
            px = px * (1 + sign * rng.uniform(0.0005, 0.01))
            out.append((d12(px), d12(rng.uniform(0.1, 10))))
        return tuple(out)
    mid = rng.uniform(50, 150)
    return BookSnapshot(T0, levels_text(side(mid * 0.999, -1)),
                        levels_text(side(mid * 1.001, +1)))


def _check_depth(rng):
    snap = _random_book(rng)
    bid_prof, ask_prof = depth_percentiles(snap)
    for levels, prof in ((snap.bid_levels, bid_prof), (snap.ask_levels, ask_prof)):
        total = sum(Fraction(s) for _, s in levels)
        run = Fraction(0)
        p25 = p75 = None
        for p, s in levels:
            run += Fraction(s)
            if p25 is None and run / total >= Fraction(1, 4):
                p25 = p
            if p75 is None and run / total >= Fraction(3, 4):
                p75 = p
        assert prof.p25 == p25 and prof.p75 == p75


def _check_slippage(rng):
    snap = _random_book(rng)
    side = rng.choice(["buy", "sell"])
    levels = snap.ask_levels if side == "buy" else snap.bid_levels
    notional = sum(p * s for p, s in levels)
    order = float(notional) * rng.uniform(0.3, 1.4)
    got = fill_slippage(snap, side, order)
    mid = (snap.bid_levels[0][0] + snap.ask_levels[0][0]) / 2
    remaining = d12(order)
    qty = usd = Decimal(0)
    for p, s in levels:
        if remaining <= 0:
            break
        take = min(remaining, p * s)
        qty += take / p
        usd += take
        remaining -= take
    vwap = usd / qty
    cost = (vwap - mid) / mid if side == "buy" else (mid - vwap) / mid
    assert _close(got.slippage, cost, floor=1e-9)
    assert _close(got.filled_usd, usd, floor=1e-9)
    assert got.partial is (remaining > 0)


def _check_impact(rng):
    m = rng.randint(7, 20)
    closes = [100.0]
    for _ in range(m):
        closes.append(max(1.0, closes[-1] * (1 + rng.gauss(0, 0.004))))
    volumes = [rng.uniform(0.5, 5.0) for _ in closes]
    pairs = impact_pairs(closes, volumes)
    assert len(pairs) == len(closes) - 1
    for t in range(1, len(closes)):
        dpp, v = pairs[t - 1]
        assert _close(dpp, abs(closes[t] - closes[t - 1]) / closes[t - 1],
                      floor=1e-9)
        assert v == volumes[t]
    got = market_impact_coefficient(pairs)
    assert got is not None
    tail = pairs[-DEFAULTS.impact_window_bars:]
    x = np.array([v for _, v in tail])
    y = np.array([d for d, _ in tail])
    slope = float(np.polyfit(x, y, 1)[0])
    r2 = float(np.corrcoef(x, y)[0, 1] ** 2)
    assert _close(got[0], slope, floor=1e-12)
    assert _close(got[1], r2, floor=1e-9)


def test_c3_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    checks = (_check_align, _check_merge, _check_swings, _check_nodes,
              _check_kde, _check_gini, _check_depth, _check_slippage,
              _check_impact)
    for ci, check in enumerate(checks):
        for k in range(100):
            check(random.Random(10_000 * ci + k))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 3 PASS: 9 kernels x 100 oracle instances (%.1fs)" % elapsed)


# ---------------------------------------------------------------- criterion 4

def test_c4_scenario_diagonal_and_scale_invariance():
    t0 = time.perf_counter()
    panels = [generate(load_scenario(scenario_path(name)))[0]
              for name in SCENARIO_NAMES]
    out = backtest(panels, DEFAULTS)
    assert out["ground_truth"]["graded"] == len(SCENARIO_NAMES)
    assert out["ground_truth"]["mismatches"] == []
    assert out["ground_truth"]["diagonal_frac"] == 1.0
    for panel in panels:
        base = {h: v.outcome for h, v in evaluate_all(panel, DEFAULTS).items()}
        scaled = {h: v.outcome
                  for h, v in evaluate_all(scale_panel(panel, 1000.0),
                                           DEFAULTS).items()}
        assert scaled == base, panel.instrument
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print("criterion 4 PASS: 8/8 diagonal, x1000 scale leaves all verdicts "
          "(%.1fs)" % elapsed)


# ---------------------------------------------------------------- criterion 5

def test_c5_conservation_normalization_idempotence():
    t0 = time.perf_counter()
    rnd = random.Random(20260819)
    with_liqs = 0
    for i in range(1, 51):
        nseg = rnd.randint(1, 3)
        segs = tuple(Segment(rnd.choice(TEMPLATES), rnd.randint(30, 60))
                     for _ in range(nseg))
        sc = Scenario(name="r%d" % i, seed=rnd.randint(0, 10**6),
                      segments=segs, base_price=rnd.uniform(50, 5000))
        panel, _ = generate(sc)

        prof = volume_nodes(*profile_columns(panel.candles))
        total = sum(float(c.volume) for c in panel.candles)
        assert abs(sum(prof.volumes) - total) <= 1e-9 * max(total, 1.0)

        if panel.liquidations:
            with_liqs += 1
            dens = liquidation_density(panel.liquidations)
            area = float(np.trapezoid(dens.density, dens.prices))
            assert abs(area - 1.0) <= 1e-3

        c1, r1 = run_pipeline(panel, DEFAULTS)
        c2, r2 = run_pipeline(c1, DEFAULTS)
        assert not r2.flags, sc.name
        assert dump_json(panel_to_dict(c2)) == dump_json(panel_to_dict(c1))
    assert with_liqs >= 10   # the KDE leg must actually get exercised
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print("criterion 5 PASS: 50 random panels conserve volume, KDE areas "
          "within 1e-3, pipeline idempotent (%.1fs)" % elapsed)


# ---------------------------------------------------------------- criterion 6

def test_c6_determinism_and_cli_round_trip(tmp_path, capsys):
    outs = []
    for rundir in ("a", "b"):
        d = tmp_path / rundir
        d.mkdir()
        for name in ("h4-confirm", "h2-confirm"):
            assert main(["synth", "--scenario", scenario_path(name),
                         "--out", str(d / (name + ".json"))]) == 0
        assert main(["backtest", "--panels", str(d / "h*.json"),
                     "--out", str(d / "bt.json")]) == 0
        assert main(["metrics", "--panel", str(d / "h4-confirm.json"),
                     "--out", str(d / "m.json")]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert outs[0] == outs[1]

    # one synthetic year through the whole file-level chain
    year = tmp_path / "year"
    year.mkdir()
    sc = Scenario(name="year", seed=11,
                  segments=(Segment("range", 2160), Segment("cascade", 30)))
    panel, _ = generate(sc)
    assert len(panel.candles) == 2190
    write_candles_csv(str(year / "candles.csv"), panel.candles)
    write_funding_csv(str(year / "funding.csv"),
                      [(r.settle_time, r.rate_8h, r.mark_price, r.index_price)
                       for r in panel.funding])
    write_oi_csv(str(year / "oi.csv"), panel.open_interest)
    write_liquidations_csv(str(year / "liq.csv"), panel.liquidations)
    write_books(str(year / "books.txt"), panel.books)
    manifest = year / "manifest.json"
    manifest.write_text(json.dumps({
        "instrument": "YEAR-PERP",
        "exchanges": [{"name": "alpha", "candles": "candles.csv",
                       "volume_30d": 1.0e6}],
        "funding": [{"path": "funding.csv", "interval_hours": 8,
                     "authoritative": True}],
        "open_interest": "oi.csv",
        "liquidations": "liq.csv",
        "books": "books.txt",
    }))

    t0 = time.perf_counter()
    merged = year / "panel.json"
    assert main(["ingest", "--manifest", str(manifest),
                 "--out", str(merged)]) == 0
    assert main(["validate", "--panel", str(merged),
                 "--out", str(year / "q.json")]) == 0
    assert main(["metrics", "--panel", str(merged),
                 "--out", str(year / "metrics.json")]) == 0
    rc = main(["hypotheses", "--panel", str(merged),
               "--out", str(year / "h.json")])
    assert rc == 0 or 41 <= rc <= 44
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    capsys.readouterr()
    print("criterion 6 PASS: byte-identical reruns; 2190-bar ingest round "
          "trip in %.2fs" % elapsed)


# ---------------------------------------------------------------- criterion 7

def test_c7_platform_advisor_endpoints():
    t0 = time.perf_counter()
    floor = [float(v) for v in range(1, 101)] + [0.5]
    out = advise_platform_parameters(floor)
    assert out["max_leverage"] == 100.0
    assert out["liquidation_mode"] == "gradual"

    ceiling = [float(v) for v in range(1, 101)] + [200.0]
    out = advise_platform_parameters(ceiling)
    assert out["max_leverage"] == 20.0
    assert out["liquidation_mode"] == "aggressive"

    base = [float(v) for v in range(100)]
    at_80 = advise_platform_parameters(base + [79.5])
    assert at_80["vol_percentile_90d"] == 0.80
    assert at_80["liquidation_mode"] == "gradual"      # exactly 80th stays put
    past_80 = advise_platform_parameters(base + [80.5])
    assert past_80["vol_percentile_90d"] == 0.81
    assert past_80["liquidation_mode"] == "aggressive"

    # short and long windows are genuinely different populations
    split = [1000.0] * 360 + [float(v) for v in range(180)]
    out = advise_platform_parameters(split)
    assert out["max_leverage"] == 20.0                 # top of the 30-day window
    assert out["liquidation_mode"] == "gradual"        # cheap within 90 days

    with pytest.raises(InsufficientInputsError):
        advise_platform_parameters([])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 7 PASS: advisor endpoints and strict 80th-percentile "
          "switch (%.3fs)" % elapsed)

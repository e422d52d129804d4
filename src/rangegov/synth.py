"""Deterministic synthetic panel generator and batch backtester.

Scenarios are declarative scripts: an ordered list of segments, each naming a
template (range, compression, breakout, spike-revert, cascade, trend, noise)
with parameter overrides. Construction margins beat every decision threshold
by at least 20% so the scripted verdict is unambiguous, which is what makes
these panels usable as oracles. Only the noise template draws random numbers:
they flow from the scenario seed through one generator, which `generate`
builds (and imports numpy for) only when a noise segment is scripted.
Identical scripts serialize byte-identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

from .config import Config, DEFAULTS
from .errors import DataError, SchemaError
from .formats import _read_json
from .model import (
    BAR_SECONDS,
    BookSnapshot,
    Candle4H,
    FundingRecord,
    LiquidationEvent,
    OpenInterestRecord,
    Panel,
    SETTLE_SECONDS,
    d12,
    fmt_dec,
    iso,
    validate_panel,
)

START_TIME = 1_700_006_400          # on both the 4H and 8H grids
HALF_WIDTH = 0.03                   # scripted range half-width
BASE_VOLUME = 3000.0                # base units per bar
BASE_OI = 4.0e8

TEMPLATES = ("range", "compression", "breakout", "spike-revert",
             "cascade", "trend", "noise")


@dataclass(frozen=True)
class Segment:
    template: str
    length: int
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    segments: tuple
    base_price: float = 100.0
    instrument: str = "SYNTH-PERP"
    ground_truth: dict = field(default_factory=dict)


def _integer(value, least: int, what: str) -> int:
    # a bool is an int, and int() would truncate a float, so neither passes
    if type(value) is not int or value < least:
        raise SchemaError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def scenario_from_dict(doc: dict) -> Scenario:
    where = "scenario document"   # what an error names: the scenario and its segment
    try:
        name = str(doc["name"])
        segments = []
        for k, seg in enumerate(doc["segments"]):
            where = f"scenario {name!r} segment {k}"
            template = seg["template"]
            if template not in TEMPLATES:
                raise SchemaError(f"{where}: unknown template {template!r}")
            length = _integer(seg["length"], 1, f"{where}: segment length")
            segments.append(Segment(template, length, dict(seg.get("overrides", {}))))
        where = f"scenario {name!r}"
        base_price = float(doc.get("base_price", 100.0))
        if not 0 < base_price < float("inf"):
            raise SchemaError(f"{where}: base_price must be finite and > 0, got {base_price!r}")
        return Scenario(
            name=name,
            seed=doc["seed"],   # `generate` checks it, with a `--seed` override
            segments=tuple(segments),
            base_price=base_price,
            instrument=str(doc.get("instrument", "SYNTH-PERP")),
            ground_truth=dict(doc.get("ground_truth", {})),
        )
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: unreadable: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(_read_json(path))


def builtin_scenario_names() -> list:
    root = resources.files("rangegov").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin_scenario(name: str) -> Scenario:
    root = resources.files("rangegov").joinpath("scenarios")
    path = root.joinpath(name + ".json")
    if not path.is_file():
        raise SchemaError(f"no builtin scenario named {name!r}; "
                          f"have {builtin_scenario_names()}")
    return scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))


# --- builder -----------------------------------------------------------------

class _Builder:
    """Accumulates panel series one bar at a time.

    Settlements land on closes that sit on the 8H grid (odd bar indexes),
    OI and one book snapshot land on every close. A book is a function of
    (close, range high, shelf multiplier) alone, so `sides` keeps the text
    of each distinct state and `_sides` formats it once.
    """

    def __init__(self, scenario: Scenario):
        self.close = scenario.base_price
        self.lo = scenario.base_price * (1 - HALF_WIDTH)
        self.hi = scenario.base_price * (1 + HALF_WIDTH)
        self.oi = BASE_OI
        self.share = 0.50
        self.candles: list = []
        self.funding: list = []
        self.oi_records: list = []
        self.books: list = []
        self.liqs: list = []
        self.annotations: dict = {}
        self.sides: dict = {}
        self.end = 0   # where the current segment ends: no bar is written there

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2.0

    def bar(self, close, high=None, low=None, volume=BASE_VOLUME,
            rate=0.0, mark_basis=None, oi=None, share=None,
            zone_mult=1.0, liq_events=(), vol_1h=None):
        i = len(self.candles)
        if i == self.end:
            raise ValueError("the segment writes more bars than its length")
        open_ = self.close if self.candles else close
        open_time = START_TIME + i * BAR_SECONDS
        close_time = open_time + BAR_SECONDS
        body_hi = max(open_, close)
        body_lo = min(open_, close)
        if high is None:
            high = body_hi * 1.0005
        if low is None:
            low = body_lo * 0.9995
        high = max(high, body_hi)
        low = min(low, body_lo)
        self.candles.append(Candle4H(
            open_time=open_time, open=d12(open_), high=d12(high),
            low=d12(low), close=d12(close), volume=d12(volume)))

        if close_time % SETTLE_SECONDS == 0:
            mark = index = None
            if mark_basis is not None:
                index = d12(close)
                mark = d12(close * (1.0 + mark_basis))
            self.funding.append(FundingRecord(
                settle_time=close_time, rate_8h=d12(rate),
                source_interval_hours=8, mark_price=mark, index_price=index))

        oi_now = self.oi if oi is None else oi
        share_now = self.share if share is None else share
        total = d12(oi_now)
        long_leg = d12(oi_now * share_now)
        self.oi_records.append(OpenInterestRecord(
            time=close_time, oi_usd=total, long_oi_usd=long_leg,
            short_oi_usd=total - long_leg))

        state = (close, self.hi, zone_mult)
        sides = self.sides.get(state)
        if sides is None:
            sides = self.sides[state] = _sides(*state)
        self.books.append(BookSnapshot(close_time, *sides))

        for offset_s, price, usd, side in liq_events:
            self.liqs.append(LiquidationEvent(
                time=open_time + offset_s, price=d12(price),
                size_usd=d12(usd), side=side))

        if vol_1h is not None:
            self.annotations.setdefault("volatility_1h", []).append(
                {"time": iso(open_time + 3600), "value": vol_1h})

        self.close = close
        self.oi = oi_now
        self.share = share_now


# the size of book level k, and its text, before a near-boundary shelf thins it
_LEVEL_SIZES = tuple(30.0 * 0.92 ** k for k in range(20))
_LEVEL_SIZE_TEXT = tuple(fmt_dec(d12(size)) for size in _LEVEL_SIZES)


def _sides(mid: float, range_hi: float, zone_mult: float) -> tuple:
    """The (bids, asks) panel text of the book around `mid`."""
    best_bid = mid * 0.9998
    best_ask = mid * 1.0002
    sides = ([], [])
    for k, (size, size_text) in enumerate(zip(_LEVEL_SIZES, _LEVEL_SIZE_TEXT)):
        for levels, price in zip(sides, (best_bid * (1 - 0.0005 * k),
                                         best_ask * (1 + 0.0005 * k))):
            text = size_text
            # the near-boundary shelf thins out when zone_mult < 1
            if abs(price - range_hi) / range_hi <= 0.005:
                text = fmt_dec(d12(size * zone_mult))
            levels.append("%s:%s" % (fmt_dec(d12(price)), text))
    return " ".join(sides[0]), " ".join(sides[1])


class _Overrides(dict):
    """A segment's overrides. `read` records each name a template reads."""

    def __init__(self, given: dict):
        super().__init__(given)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def flag(self, key: str, default: bool) -> bool:
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise ValueError("%s must be true or false, not %r" % (key, value))
        return value

    def ramp(self, key: str, fallback: float, j: int, length: int) -> float:
        start = self.get(key + "_start")
        end = self.get(key + "_end")
        if (start is None) != (end is None):
            raise ValueError("%s_start and %s_end must be given together" % (key, key))
        if start is None:
            return fallback
        if length <= 1:
            return float(end)
        return float(start) + (float(end) - float(start)) * j / (length - 1)


_CYCLE = (0.0, 0.55, 0.9, 0.55, 0.0, -0.55, -0.9, -0.55)   # 8-bar rotation


def _alt_rate(bar_index_global: int) -> float:
    # sign alternates per settlement so bias duration never accumulates;
    # even settlements are negative so a run never leaks back into a preamble
    settle_no = (bar_index_global + 1) // 2
    return -0.00005 if settle_no % 2 == 0 else 0.00005


def _tpl_range(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    mid, hw = b.mid, HALF_WIDTH
    amp = float(ov.get("amplitude", 1.0))
    fixed_rate = ov.get("funding_rate")
    absorption = ov.flag("absorption", False)
    for j in range(length):
        g = len(b.candles)
        cyc = j % 8
        close = mid * (1 + _CYCLE[cyc] * hw * amp)
        high = b.hi if cyc == 2 else None
        low = b.lo if cyc == 6 else None
        volume = BASE_VOLUME
        if absorption and cyc == 6:
            volume = 7000.0
        rate = fixed_rate if fixed_rate is not None else _alt_rate(g)
        b.bar(close, high=high, low=low, volume=volume, rate=rate,
              oi=ov.ramp("oi", b.oi, j, length))


def _tpl_compression(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    """Scripted accumulation: decaying oscillation inside the standing range,
    persistent funding bias, boundary taps with long rejection wicks late."""
    mid, hw = b.mid, HALF_WIDTH
    rate = float(ov.get("funding_rate", 0.0006))
    late_wicks = ov.flag("late_wicks", True)
    boundary_wicks = not ov.flag("no_boundary_wicks", False)
    for j in range(length):
        cyc = j % 8
        amp = 0.8 - 0.55 * j / max(length - 1, 1)
        close = mid * (1 + _CYCLE[cyc] * hw * amp)
        prev = b.close if b.candles else close
        body_hi, body_lo = max(prev, close), min(prev, close)
        body = max(abs(close - prev), close * 1e-4)
        wick = 3.0 * body if (late_wicks and j >= length - 5) else 0.2 * body
        high, low = body_hi + wick, body_lo - wick
        volume = BASE_VOLUME
        if cyc == 2 and boundary_wicks:
            high = b.hi            # tap: wick to the boundary, close inside
        if cyc == 6:
            if boundary_wicks:
                low = b.lo
            if ov.flag("absorption", False):
                volume = 7000.0
        b.bar(close, high=high, low=low, volume=volume, rate=rate,
              oi=ov.ramp("oi", b.oi, j, length))


def _tpl_breakout(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    mode = ov.get("mode", "h2")
    if mode not in ("h1", "h2"):
        raise ValueError('mode must be "h1" or "h2", not %r' % (mode,))
    if mode == "h1":
        # violent expansion: consecutive closes beyond with volatility rising
        rate = float(ov.get("funding_rate", 0.0006))
        for j in range(length):
            beyond = min(0.008 * 1.45 ** j, 0.35)
            close = b.hi * (1 + beyond)
            b.bar(close, volume=3500.0, rate=rate,
                  oi=ov.ramp("oi", b.oi, j, length))
        return

    sustain = ov.flag("sustain", True)
    post = int(ov.get("post_bars", 8))
    hover = length - 1 - post
    if hover < 4:
        raise SchemaError("breakout segment too short for hover + post bars")
    hover_close = b.hi * 0.9985
    oi0 = b.oi
    # the rotation is measured over [break-3, break], so the mix shift has to
    # start from rest inside that window
    late = {1: (0.53, 0.995), 0: (0.555, 0.99)}
    for j in range(hover):
        # depth shelf at the boundary thins while price presses against it
        zone = 1.0 - 0.65 * j / max(hover - 1, 1)
        left = hover - 1 - j
        share, oi_mult = late.get(left, (0.50, 1.0))
        b.bar(hover_close, volume=BASE_VOLUME, rate=0.00005,
              zone_mult=zone, oi=oi0 * oi_mult, share=share)
    # a failed break carries a rejection wick well above its close so the
    # spike top cannot pair with the retreat bar into a fake boundary
    break_high = None if sustain else b.hi * 1.02 * 1.012
    b.bar(b.hi * 1.02, high=break_high, volume=4000.0, rate=0.00005,
          zone_mult=0.35, oi=oi0 * 0.98, share=0.57)
    if sustain:
        path = [1.025, 1.03, 1.035] + [1.036] * (post - 3)
    else:
        # retreat in distinct steps so the tail's extremes never cluster;
        # third close must sit clearly back inside the pre-break span
        path = [1.012 - 0.0085 * j for j in range(post)]
    for j in range(post):
        b.bar(b.hi * path[j], volume=3200.0, rate=0.00005)


def _tpl_spike_revert(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    revert = ov.flag("revert", True)
    quiet = int(ov.get("quiet_bars", 25))
    if length < quiet + 6:
        raise SchemaError("spike-revert segment too short")
    mid = b.mid
    close = mid * 1.018
    for j in range(quiet):
        close *= 0.996 if j % 2 == 0 else 1.002
        b.bar(close, volume=BASE_VOLUME, rate=0.0001)
    spike_rate = float(ov.get("spike_rate", 0.0008))
    b.bar(mid * 1.02, high=mid * 1.022, volume=4200.0, rate=spike_rate,
          mark_basis=0.008, vol_1h=0.05)
    head, rest = ((1.008, 1.0, 0.999, 1.001), 1.0005) if revert else ((), 1.025)
    for j in range(length - quiet - 1):
        b.bar(mid * (head[j] if j < len(head) else rest), volume=BASE_VOLUME,
              rate=0.0001, mark_basis=0.001)


def _tpl_cascade(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    recoil = ov.flag("recoil", True)
    taps = {4: 0, 10: 1, 16: 2}
    if length < 19:
        raise SchemaError("cascade segment needs at least 19 bars")
    hi = b.hi
    mid = b.mid
    filler = hi * 0.99
    if recoil:
        tap_high = [hi * 1.006, hi * 1.012, hi * 1.020]
        tap_close = [hi * 0.998] * 3
        after_close = [filler] * 3
    else:
        excursions = [0.0075, 0.015, 0.025]
        tap_high = [hi * (1 + e) for e in excursions]
        tap_close = [hi * (1 + e - 0.0015) for e in excursions]
        after_close = [hi * (1 + e - 0.0025) for e in excursions]
    last_after = filler
    rate_next = None
    for j in range(length):
        rate = 0.0008
        if recoil and rate_next is not None:
            rate = rate_next
            rate_next = None
        if j in taps:
            k = taps[j]
            events = ((3600, hi * 1.002, 4.0e5, "short"),
                      (7200, hi * 1.004, 4.0e5, "short"))
            oi = b.oi * 0.97 if recoil else b.oi * 1.005
            b.bar(tap_close[k], high=tap_high[k], volume=5200.0, rate=rate,
                  oi=oi, liq_events=events)
            if recoil:
                rate_next = 0.0004
            last_after = after_close[k]
        else:
            events = ()
            if j in (2, 8):        # background flow away from the boundary
                events = ((3600, mid, 8.0e5, "long"),)
            oi = b.oi * (1.031 if recoil and (j - 1) in taps else
                         1.0 if recoil else 1.005)
            close = filler if recoil else last_after
            b.bar(close, volume=BASE_VOLUME, rate=rate, oi=oi,
                  liq_events=events)


def _tpl_trend(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    drift = float(ov.get("drift", 0.005))
    toppy = float(ov.get("toppy_wick", 0.0))
    close = b.close
    for j in range(length):
        close = close * (1 + drift)
        high = None
        if toppy and j >= length - 5:
            high = max(b.close, close) * (1 + toppy)
        b.bar(close, high=high,
              volume=ov.ramp("volume", BASE_VOLUME, j, length),
              rate=float(ov.get("funding_rate", 0.0002)),
              oi=ov.ramp("oi", b.oi, j, length),
              share=ov.ramp("share", b.share, j, length))


def _tpl_noise(b: _Builder, length: int, ov: _Overrides, rng) -> None:
    import numpy as np   # loaded already: `generate` built `rng` with it
    sigma = float(ov.get("sigma", 0.004))
    close = b.close
    share = b.share
    oi = b.oi
    for j in range(length):
        close *= float(np.exp(rng.normal(0.0, sigma)))
        wick_up = abs(float(rng.normal(0.0, 0.001)))
        wick_dn = abs(float(rng.normal(0.0, 0.001)))
        prev = b.close if b.candles else close
        high = max(prev, close) * (1 + wick_up)
        low = min(prev, close) * (1 - wick_dn)
        volume = BASE_VOLUME * float(rng.uniform(0.7, 1.4))
        rate = float(np.clip(rng.normal(0.0, 3e-5), -9e-5, 9e-5))
        oi *= 1 + float(rng.uniform(-0.004, 0.004))
        share = float(np.clip(share + rng.uniform(-0.01, 0.01), 0.35, 0.65))
        b.bar(close, high=high, low=low, volume=volume, rate=rate,
              oi=oi, share=share)


_DISPATCH = {
    "range": _tpl_range,
    "compression": _tpl_compression,
    "breakout": _tpl_breakout,
    "spike-revert": _tpl_spike_revert,
    "cascade": _tpl_cascade,
    "trend": _tpl_trend,
    "noise": _tpl_noise,
}


def generate(scenario: Scenario, cfg: Config = DEFAULTS):
    """Realize a scenario. Returns (panel, ground_truth)."""
    _integer(scenario.seed, 0, f"scenario {scenario.name!r}: seed")
    if not scenario.segments:
        raise SchemaError("scenario has no segments")
    rng = None   # one generator for every noise segment, in script order
    if any(seg.template == "noise" for seg in scenario.segments):
        import numpy as np   # only the noise template draws
        rng = np.random.default_rng(scenario.seed)
    b = _Builder(scenario)
    for k, seg in enumerate(scenario.segments):
        where = f"scenario {scenario.name!r} segment {k} ({seg.template})"
        ov = _Overrides(seg.overrides)
        b.end = len(b.candles) + seg.length
        try:
            _DISPATCH[seg.template](b, seg.length, ov, rng)
        except DataError:
            raise
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: unreadable override: {exc}") from exc
        unread = sorted(set(ov) - ov.read)
        if unread:
            raise SchemaError(f"{where}: override not read for this segment: {', '.join(unread)}")
    gt = dict(scenario.ground_truth)
    gt.setdefault("scenario", scenario.name)
    if any(seg.template == "cascade" for seg in scenario.segments):
        gt.setdefault("cluster_price", b.hi * 1.003)
    annotations = dict(b.annotations)
    annotations["ground_truth"] = gt
    panel = Panel(instrument=scenario.instrument, candles=b.candles,
                  funding=b.funding, open_interest=b.oi_records,
                  books=b.books, liquidations=b.liqs,
                  annotations=annotations)
    violations = validate_panel(panel, cfg.funding_hard_bound)
    if violations:
        v = violations[0]
        raise SchemaError(f"scenario {scenario.name!r} generates an invalid panel: "
                          f"{v.field} {v.reason}")
    return panel, gt


def backtest(panels: Sequence[Panel], cfg: Config = DEFAULTS) -> dict:
    """Evaluate every hypothesis plus the regime label on each panel and
    tally the verdicts against any embedded ground truth."""
    from .hypotheses import evaluate_all
    from .regime import classify_regime

    names = ("H1", "H2", "H3", "H4")
    counts = {h: {"confirmed": 0, "falsified": 0, "not-evaluable": 0} for h in names}
    rows = []
    matches = 0
    graded = 0
    mismatches = []
    hit_rates = []
    for panel in panels:
        verdicts = evaluate_all(panel, cfg)
        regime = classify_regime(panel, cfg)
        row = {"instrument": panel.instrument, "regime": regime.label,
               "verdicts": {h: v.outcome for h, v in verdicts.items()}}
        for h, v in verdicts.items():
            counts[h][v.outcome] += 1
        h4 = verdicts.get("H4")
        if h4 is not None and h4.evidence.get("taps"):
            taps = h4.evidence["taps"]
            hit_rates.append({
                "instrument": panel.instrument,
                "taps": len(taps),
                "hit_rate": sum(1 for t in taps if t["recoil"]) / len(taps),
            })
        gt = panel.annotations.get("ground_truth")
        if gt is None:
            gt = {}
        # a tuple, not the dict: `in` must not hash a list or a dict
        if not isinstance(gt, dict) or gt.get("hypothesis", "H1") not in names:
            raise SchemaError("%s: ground_truth must be an object whose hypothesis is "
                              "one of %s" % (panel.instrument, ", ".join(names)))
        if "hypothesis" in gt and "expected_outcome" in gt:
            graded += 1
            actual = verdicts[gt["hypothesis"]].outcome
            row["expected"] = gt["expected_outcome"]
            row["scenario"] = gt.get("scenario", panel.instrument)
            if actual == gt["expected_outcome"]:
                matches += 1
            else:
                mismatches.append({"scenario": row["scenario"],
                                   "hypothesis": gt["hypothesis"],
                                   "expected": gt["expected_outcome"],
                                   "actual": actual})
        if "regime" in gt:
            row["expected_regime"] = gt["regime"]
        rows.append(row)
    return {
        "panels": len(rows),
        "rows": rows,
        "verdict_counts": counts,
        "h4_tap_hit_rates": hit_rates,
        "ground_truth": {
            "graded": graded,
            "matched": matches,
            "diagonal_frac": matches / graded if graded else None,
            "mismatches": mismatches,
        },
    }

"""Data quality rules and the panel-level cleaning pipeline.

`run_pipeline` runs seven checks, which a report's `checks_run` counts. Each
stage returns what it kept and its flags, and the pipeline builds one
`QualityReport` from them, the flags in stage order: gap fill, funding bounds,
funding timestamps, book integrity, book timestamps, wash trading, OI sanity,
panel rules (timestamp alignment is one check, run on funding and on books).

Severity classes: "reject" (record or panel unusable), "flag" (kept, suspect),
"interpolated" (synthesized by gap fill). The pipeline builds a cleaned panel
with what it can fix (resampled timestamps, excluded books, filled gaps), so a
second run over that panel raises nothing new. Wash-trade flags are advisory
and re-emitted; they are never treated as new findings by consumers comparing
runs.
"""
from __future__ import annotations

from datetime import datetime, timezone
from decimal import Decimal
from typing import NamedTuple, Optional, Sequence

from .config import Config, DEFAULTS
from .errors import SchemaError
from .model import (
    BAR_SECONDS, BookSnapshot, Candle4H, FundingRecord, Panel, d12, fmt_dec, iso, median,
    record_checker, validate_panel,
)

REJECT = "reject"
FLAG = "flag"
INTERPOLATED = "interpolated"


class QualityFlag(NamedTuple):
    check: str
    location: str
    severity: str
    detail: str


class QualityReport(NamedTuple):
    checks_run: int
    flags: list
    notes: list

    @property
    def passed(self) -> bool:
        return not any(f.severity == REJECT for f in self.flags)


def snap_to_grid(ts: int, grid_seconds: int) -> int:
    rem = ts % grid_seconds
    return ts - rem if rem <= grid_seconds - rem else ts + (grid_seconds - rem)


def _snap_records(records: Sequence, key: str, grid_of, label: str, cfg: Config):
    """Records with their `key` timestamp snapped to the `grid_of(record)`
    grid when further off it than the tolerance (inclusive). Returns
    (records, flags), one flag per snapped record."""
    out, flags = [], []
    for r in records:
        ts = getattr(r, key)
        grid = grid_of(r)
        snapped = snap_to_grid(ts, grid)
        dev = abs(snapped - ts)
        if dev > cfg.timestamp_tolerance_s:
            flags.append(QualityFlag(
                "timestamp_alignment", f"{label}@{iso(ts)}", FLAG,
                f"{dev}s off the {grid}s grid; resampled to {iso(snapped)}"))
            r = r._replace(**{key: snapped})
        out.append(r)
    return out, flags


# the check, location label, severity and time field of each screened record type
_SCREENS = {
    FundingRecord: ("funding_bounds", "funding", REJECT, "settle_time"),
    BookSnapshot: ("book_integrity", "book", FLAG, "time"),
}


def screen_records(records: Sequence, cfg: Config = DEFAULTS, also=None):
    """Drop each funding or book record that `record_checker(cfg.funding_hard_bound)`
    rejects, or for which `also(record)` names a reason. Returns (kept, flags),
    one flag per dropped record: `excluded: <its first reason>`."""
    kept, flags = [], []
    validate = record_checker(cfg.funding_hard_bound)
    for r in records:
        problems = validate(r)
        reason = problems[0].reason if problems else (also(r) if also else None)
        if not reason:
            kept.append(r)
            continue
        check, label, severity, key = _SCREENS[type(r)]
        flags.append(QualityFlag(check, f"{label}@{iso(getattr(r, key))}", severity,
                                 f"excluded: {reason}"))
    return kept, flags


def check_oi_sanity(oi_records: Sequence, liquidations: Sequence,
                    daily_net_flow_usd: Optional[dict] = None,
                    cfg: Config = DEFAULTS) -> QualityReport:
    """Day-over-day OI change vs net trade flow minus liquidations.

    `daily_net_flow_usd` maps 'YYYY-MM-DD' to signed USD flow. Without it the
    check reports itself as not evaluated.
    """
    if not daily_net_flow_usd:
        return QualityReport(1, [], ["oi_sanity: not evaluated (no trade-flow series)"])

    def day(ts: int) -> str:
        return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")

    last_by_day: dict = {}
    for r in oi_records:
        last_by_day[day(r.time)] = r
    liq_by_day: dict = {}
    for e in liquidations:
        key = day(e.time)
        liq_by_day[key] = liq_by_day.get(key, Decimal(0)) + e.size_usd

    days = sorted(last_by_day)
    limit = d12(cfg.oi_flow_discrepancy)
    flags = []
    for prev, cur in zip(days, days[1:]):
        if cur not in daily_net_flow_usd:
            continue
        oi_prev = last_by_day[prev].oi_usd
        delta = last_by_day[cur].oi_usd - oi_prev
        expected = d12(daily_net_flow_usd[cur]) - liq_by_day.get(cur, Decimal(0))
        scale = max(abs(oi_prev), Decimal(1))
        if abs(delta - expected) / scale > limit:
            flags.append(QualityFlag(
                "oi_sanity", f"oi@{cur}", FLAG,
                f"dOI {fmt_dec(delta)} vs flow-implied {fmt_dec(expected)}"))
    return QualityReport(1, flags, [])


def check_book_integrity(snapshots: Sequence, cfg: Config = DEFAULTS):
    """Drop invalid or wide-spread snapshots. Returns (kept, flags).

    A valid snapshot's spread is its best ask less its best bid over their
    mean. Two positive prices give a float spread within 2**-49 of the exact
    one, so a snapshot whose float spread (`BookSnapshot.checked`) is below
    the limit by more than 1e-9 of it, relative, plus 2**-48 is kept on the
    floats; any other is judged, and its flag worded, on the decimals."""
    limit = d12(cfg.book_spread_exclusion)
    below = float(limit) - 1e-9 * abs(float(limit)) - 2 ** -48

    def wide(snap) -> Optional[str]:
        _, bid, ask = snap.checked
        if (ask - bid) / ((ask + bid) / 2) < below:
            return None
        spread = (snap.best_ask - snap.best_bid) / snap.mid
        if spread > limit:
            return f"spread {fmt_dec(d12(spread))} beyond {fmt_dec(limit)}"

    return screen_records(snapshots, cfg, wide)


def check_wash_trading(candles: Sequence, cfg: Config = DEFAULTS) -> list:
    """Volume spikes with near-zero bodies, vs the trailing median."""
    out = []
    window = cfg.wash_volume_window
    mult = d12(cfg.wash_volume_mult)
    body_limit = d12(cfg.wash_body_frac)
    for i in range(window, len(candles)):
        c = candles[i]
        med = median(x.volume for x in candles[i - window:i])
        if med == 0 or c.open == 0:
            continue
        if c.volume > mult * med and abs(c.close - c.open) / c.open < body_limit:
            out.append(QualityFlag(
                "wash_trading", f"candle@{iso(c.open_time)}", FLAG,
                f"volume {fmt_dec(c.volume)} is >{fmt_dec(mult)}x trailing median "
                f"with a {fmt_dec(d12(abs(c.close - c.open) / c.open))} body"))
    return out


def fill_gaps(candles: Sequence, cfg: Config = DEFAULTS):
    """Linear interpolation of gaps up to `max_interpolation_gap` bars; any
    other break in the 4H grid stays for `validate_panel` to reject.

    Returns (candles, flags). Interpolated bars carry zero volume and, across
    all four prices, the point on the line from the previous bar's close to
    the next bar's open at their time: for a single missing bar, the midpoint.
    """
    out = list(candles[:1])
    flags = []
    for nxt in candles[1:]:
        prev = out[-1]
        steps, rem = divmod(nxt.open_time - prev.open_time, BAR_SECONDS)
        if rem == 0 and 1 < steps <= cfg.max_interpolation_gap + 1:
            gap = "single" if steps == 2 else str(steps - 1)
            for k in range(1, steps):
                price = d12((prev.close * (steps - k) + nxt.open * k) / steps)
                t = prev.open_time + k * BAR_SECONDS
                out.append(Candle4H(t, price, price, price, price, d12(0),
                                    exchange_count=prev.exchange_count,
                                    interpolated=True))
                flags.append(QualityFlag(
                    "gap_fill", f"candle@{iso(t)}", INTERPOLATED,
                    f"{gap}-bar gap filled at {fmt_dec(price)}"))
        out.append(nxt)
    return out, flags


def run_pipeline(panel: Panel, cfg: Config = DEFAULTS, judge_input: bool = False):
    """Panel-level cleaning. Returns (cleaned_panel, report), the cleaned
    panel a new one built from the panel given. The last check, `panel_rules`,
    judges the cleaned panel, or with `judge_input` the panel as given, which
    is what `validate` reports on."""
    candles, gap_flags = fill_gaps(panel.candles, cfg)
    funding, funding_flags = screen_records(panel.funding, cfg)
    funding, funding_time_flags = _snap_records(
        funding, "settle_time", lambda r: r.source_interval_hours * 3600, "funding", cfg)
    funding.sort(key=lambda r: r.settle_time)
    books, book_flags = check_book_integrity(panel.books, cfg)
    books, book_time_flags = _snap_records(books, "time", lambda s: 3600, "book", cfg)
    first_at: dict = {}
    for snap in books:
        first_at.setdefault(snap.time, snap)
    wash_flags = check_wash_trading(candles, cfg)
    try:
        flows = {day: usd for day, usd in panel.annotations.get("daily_net_flow_usd") or ()}
    except (TypeError, ValueError) as exc:
        raise SchemaError("annotations.daily_net_flow_usd must be a list of [day, usd] "
                          "rows: %s" % exc) from exc
    oi = check_oi_sanity(panel.open_interest, panel.liquidations, flows, cfg)

    cleaned = Panel(
        instrument=panel.instrument,
        candles=candles,
        funding=funding,
        open_interest=panel.open_interest,
        books=sorted(first_at.values(), key=lambda s: s.time),
        liquidations=panel.liquidations,
        annotations=dict(panel.annotations),
    )
    rule_flags = [QualityFlag("panel_rules", v.field, REJECT, v.reason)
                  for v in validate_panel(panel if judge_input else cleaned,
                                          cfg.funding_hard_bound)]
    return cleaned, QualityReport(
        7, gap_flags + funding_flags + funding_time_flags + book_flags + book_time_flags
        + wash_flags + oi.flags + rule_flags, oi.notes)

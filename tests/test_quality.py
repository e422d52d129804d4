from decimal import Decimal

import pytest

from rangegov.config import DEFAULTS
from rangegov.model import (
    BAR_SECONDS, BookSnapshot, Candle4H, FundingRecord, OpenInterestRecord,
    Panel, d12, iso, levels_text, record_checker, validate_panel,
)
from rangegov.quality import (
    FLAG, INTERPOLATED, REJECT, check_book_integrity, check_oi_sanity,
    check_wash_trading, fill_gaps, run_pipeline, screen_records, snap_to_grid,
)

T0 = 1609459200


def candle(open_time, close="100", volume="10", o=None, h=None, lo=None):
    c = d12(close)
    o = d12(o) if o is not None else c
    return Candle4H(open_time, o, d12(h) if h is not None else max(o, c),
                    d12(lo) if lo is not None else min(o, c), c, d12(volume))


def test_timestamp_tolerance_band():
    # 29 s and 30 s off the hour stay put; only 31 s is snapped and flagged
    panel = clean_panel()._replace(books=[book(T0 + 3600 + 29), book(T0 + 2 * 3600 + 30),
                                          book(T0 + 3 * 3600 + 31)])
    cleaned, report = run_pipeline(panel)
    flags = [f for f in report.flags if f.check == "timestamp_alignment"]
    assert len(flags) == 1 and flags[0].severity == FLAG
    assert flags[0].location == "book@" + iso(T0 + 3 * 3600 + 31)
    assert [b.time for b in cleaned.books] == [T0 + 3600 + 29, T0 + 2 * 3600 + 30,
                                               T0 + 3 * 3600]


def test_snap_to_grid_rounds_to_nearest():
    assert snap_to_grid(T0 + 31, 3600) == T0
    assert snap_to_grid(T0 + 3599, 3600) == T0 + 3600
    assert snap_to_grid(T0 + 1800, 3600) == T0  # exact half breaks to the earlier point


def test_funding_hard_bound_rejects_inclusive():
    records = [FundingRecord(T0, d12("0.0375")), FundingRecord(T0, d12("0.03"))]
    kept, flags = screen_records(records)
    assert kept == records[1:]
    assert len(flags) == 1 and flags[0].severity == REJECT


@pytest.mark.parametrize("rate, valid", [
    ("0.01", False), ("-0.01", False), ("0.0099", True), ("-0.0099", True)])
def test_one_funding_bound_reaches_every_gate(rate, valid):
    """`record_checker`, the panel gate and the quality screen judge a rate by
    the same configured bound: at 0.01, a rate of that size is rejected and
    one of 0.0099 passes; both pass the default bound."""
    record = FundingRecord(T0, d12(rate))
    panel = Panel("X", [candle(T0 + i * BAR_SECONDS) for i in range(3)], [record])
    assert record_checker()(record) == [] and validate_panel(panel) == []
    assert (record_checker(0.01)(record) == []) is valid
    assert (validate_panel(panel, 0.01) == []) is valid
    kept, flags = screen_records([record], DEFAULTS.replace(funding_hard_bound=0.01))
    assert (kept, len(flags)) == (([record], 0) if valid else ([], 1))


def book(time, bid="99.9", ask="100.1", size="5"):
    return BookSnapshot(time, levels_text(((d12(bid), d12(size)),)),
                        levels_text(((d12(ask), d12(size)),)))


def test_book_integrity_excludes_wide_and_crossed():
    fine = book(T0)
    wide = book(T0 + 3600, bid="99.4", ask="100.6")   # 1.2% spread
    crossed = book(T0 + 7200, bid="100.2", ask="100.1")
    kept, flags = check_book_integrity([fine, wide, crossed])
    assert kept == [fine]
    assert len(flags) == 2
    assert all(f.severity == FLAG and "excluded" in f.detail for f in flags)


def test_wash_trading_flags_spike_with_tiny_body():
    candles = [candle(T0 + i * BAR_SECONDS) for i in range(20)]
    spike = Candle4H(T0 + 20 * BAR_SECONDS, d12("100"), d12("100.02"),
                     d12("99.99"), d12("100.02"), d12("80"))
    flags = check_wash_trading(candles + [spike])
    assert len(flags) == 1 and "wash" in flags[0].check
    # same spike with a real body is not wash-like
    mover = Candle4H(T0 + 20 * BAR_SECONDS, d12("100"), d12("103"),
                     d12("100"), d12("103"), d12("80"))
    assert check_wash_trading(candles + [mover]) == []


def test_fill_gaps_single_bar_midpoint():
    a = candle(T0, close="100")
    c = Candle4H(T0 + 2 * BAR_SECONDS, d12("102"), d12("102"), d12("102"),
                 d12("102"), d12("5"))
    filled, flags = fill_gaps([a, c])
    assert len(filled) == 3
    mid = filled[1]
    assert mid.close == Decimal("101") and mid.open == mid.high == mid.low == mid.close
    assert mid.volume == 0 and mid.interpolated
    assert len(flags) == 1 and flags[0].severity == INTERPOLATED


def test_fill_gaps_interpolates_a_longer_gap_linearly():
    a = candle(T0, close="100")
    c = Candle4H(T0 + 3 * BAR_SECONDS, d12("130"), d12("130"), d12("130"),
                 d12("130"), d12("5"))
    filled, flags = fill_gaps([a, c], DEFAULTS.replace(max_interpolation_gap=2))
    assert [b.close for b in filled[1:3]] == [Decimal("110"), Decimal("120")]
    assert all(b.open == b.high == b.low == b.close and b.interpolated for b in filled[1:3])
    assert [f.detail for f in flags] == ["2-bar gap filled at 110", "2-bar gap filled at 120"]


def test_fill_gaps_leaves_long_gaps_open():
    a = candle(T0)
    b = candle(T0 + 3 * BAR_SECONDS)
    filled, flags = fill_gaps([a, b])
    assert len(filled) == 2
    assert not any(f.severity == INTERPOLATED for f in flags)
    _, report = run_pipeline(Panel("TEST-PERP", [a, b]))
    assert [(f.check, f.severity) for f in report.flags] == [("panel_rules", REJECT)]


def test_oi_sanity_needs_flow_series():
    oi = [OpenInterestRecord(T0, d12(1000))]
    report = check_oi_sanity(oi, [], None)
    assert report.flags == [] and any("not evaluated" in n for n in report.notes)


def test_oi_sanity_flags_discrepancy():
    day = 86400
    oi = [OpenInterestRecord(T0, d12(1000)),
          OpenInterestRecord(T0 + day, d12(1200))]
    # flow says OI should have dropped; 200 vs -100 on a base of 1000 = 30%
    report = check_oi_sanity(oi, [], {"2021-01-02": "-100"})
    assert len(report.flags) == 1
    # consistent flow passes
    report = check_oi_sanity(oi, [], {"2021-01-02": "210"})
    assert report.flags == []


def clean_panel(n=24):
    candles = [candle(T0 + i * BAR_SECONDS, close=str(100 + (i % 3))) for i in range(n)]
    funding = [FundingRecord(T0 + (k + 1) * 28800, d12("0.0001"))
               for k in range(n // 2 - 1)]
    books = [book(T0 + h * 3600) for h in range(1, n * 4, 4)]
    return Panel("TEST-PERP", candles, funding, [], books, [], {})


def test_pipeline_clean_panel_passes_untouched():
    panel = clean_panel()
    cleaned, report = run_pipeline(panel)
    assert report.flags == []
    assert report.passed
    assert cleaned.candles == panel.candles
    assert cleaned.books == panel.books
    assert cleaned.funding == panel.funding


def test_pipeline_fixes_then_stays_quiet():
    panel = clean_panel()
    # inject: one wide book, one off-grid book, one single-bar candle gap
    books, candles = list(panel.books), list(panel.candles)
    books.insert(3, book(books[3].time - 3600 + 45))
    books.insert(0, book(T0 + 1800 + 3600, bid="99", ask="101.5"))
    books.sort(key=lambda b: b.time)
    del candles[5]
    panel = panel._replace(candles=candles, books=books)
    cleaned, report = run_pipeline(panel)
    checks = {f.check for f in report.flags}
    assert "gap_fill" in checks and "book_integrity" in checks
    assert "timestamp_alignment" in checks
    assert report.passed  # nothing reject-severity

    second, report2 = run_pipeline(cleaned)
    assert report2.flags == []
    assert second.candles == cleaned.candles and second.books == cleaned.books


def test_pipeline_reject_on_funding_bound_drops_record():
    panel = clean_panel()
    bad = FundingRecord(panel.funding[-1].settle_time + 28800, d12("0.05"))
    panel = panel._replace(funding=panel.funding + (bad,))
    cleaned, report = run_pipeline(panel)
    assert not report.passed
    assert all(r.rate_8h != Decimal("0.05") for r in cleaned.funding)
    # the cleaned panel no longer trips the bound
    _, report2 = run_pipeline(cleaned)
    assert report2.flags == []


def test_pipeline_keeps_in_bound_record_sharing_a_settle_time():
    panel = clean_panel()
    t = panel.funding[-1].settle_time + 28800
    kept = FundingRecord(t, d12("0.0001"))
    panel = panel._replace(funding=panel.funding + (FundingRecord(t, d12("0.05")), kept))
    cleaned, report = run_pipeline(panel)
    assert [f.location for f in report.flags] == ["funding@" + iso(t)]
    assert cleaned.funding == panel.funding[:-2] + (kept,)

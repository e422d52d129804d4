import copy
import pickle
import statistics
from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangegov.errors import DataError
from rangegov.model import (
    BAR_SECONDS, BookSnapshot, Books, Candle4H, FundingRecord, LiquidationEvent,
    OpenInterestRecord, Panel, bar_index, d12, fmt_dec,
    funding_by_bar, iso, levels_text, median, oi_by_bar, validate_panel, validate_record,
)
from rangegov.structure import derive

from conftest import filled

T0 = 1609459200  # 2021-01-01T00:00:00Z, a 4H grid point


def good_candle(open_time=T0, o="100", h="101", lo="99", c="100.5", v="10"):
    return Candle4H(open_time, d12(o), d12(h), d12(lo), d12(c), d12(v))


def test_d12_quantizes_and_accepts_floats():
    assert d12(0.0005) == Decimal("0.0005")
    assert d12("1.5") == Decimal("1.5")
    assert str(d12(Decimal("2"))) == "2.000000000000"
    for bad in ("not-a-number", "NaN", "-NaN", "sNaN", float("nan"),
                Decimal("NaN"), "Infinity"):
        with pytest.raises(DataError):
            d12(bad)


def test_fmt_dec_is_plain_and_minimal():
    assert fmt_dec(d12("54.750000000000")) == "54.75"
    assert fmt_dec(d12("100")) == "100"
    assert fmt_dec(d12("0.000000150000")) == "0.00000015"


def test_valid_candle_passes():
    assert validate_record(good_candle()) == []


def test_candle_grid_and_bounds_violations():
    off_grid = Candle4H(T0 + 60, d12(100), d12(101), d12(99), d12(100), d12(1))
    fields = {v.field for v in validate_record(off_grid)}
    assert "open_time" in fields

    bad_high = Candle4H(T0, d12(100), d12("100.1"), d12(99), d12(101), d12(1))
    assert any(v.field == "high" for v in validate_record(bad_high))

    bad_low = Candle4H(T0, d12(100), d12(102), d12("100.5"), d12(101), d12(1))
    assert any(v.field == "low" for v in validate_record(bad_low))

    neg_vol = Candle4H(T0, d12(100), d12(101), d12(99), d12(100), d12(-1))
    assert any(v.field == "volume" for v in validate_record(neg_vol))


def test_funding_hard_bound_is_inclusive_reject():
    at_bound = FundingRecord(T0, d12("0.0375"))
    assert any(v.field == "rate_8h" for v in validate_record(at_bound))
    under = FundingRecord(T0, d12("0.0374999"))
    assert validate_record(under) == []
    bad_interval = FundingRecord(T0, d12("0.0001"), source_interval_hours=6)
    assert any(v.field == "source_interval_hours" for v in validate_record(bad_interval))


def test_oi_split_reconciliation():
    ok = OpenInterestRecord(T0, d12(1000), d12(600), d12(400))
    assert validate_record(ok) == []
    bad = OpenInterestRecord(T0, d12(1000), d12(600), d12(300))
    assert any(v.field == "oi_usd" for v in validate_record(bad))
    lopsided = OpenInterestRecord(T0, d12(1000), d12(600), None)
    assert any(v.field == "long_oi_usd" for v in validate_record(lopsided))


def test_oi_holder_shares_must_sum_to_one():
    ok = OpenInterestRecord(T0, d12(1000), holder_shares=("0.5", "0.3", "0.2"))
    assert validate_record(ok) == []
    bad = OpenInterestRecord(T0, d12(1000), holder_shares=("0.5", "0.6"))
    assert any(v.field == "holder_shares" for v in validate_record(bad))


def book(time=T0, bids=(("99", "5"), ("98", "5")), asks=(("101", "5"), ("102", "5"))):
    return BookSnapshot(
        time,
        levels_text((d12(p), d12(s)) for p, s in bids),
        levels_text((d12(p), d12(s)) for p, s in asks),
    )


def test_book_validation():
    assert validate_record(book()) == []
    crossed = book(bids=(("101.5", "5"),), asks=(("101", "5"),))
    assert any("crossed" in v.reason for v in validate_record(crossed))
    unordered = book(asks=(("102", "5"), ("101", "5")))
    assert any(v.field == "asks" for v in validate_record(unordered))
    empty = BookSnapshot(T0, "", levels_text(((d12(101), d12(5)),)))
    assert any(v.field == "bids" for v in validate_record(empty))


def test_liquidation_and_range_validation():
    assert validate_record(LiquidationEvent(T0, d12(100), d12(5000), "long")) == []
    bad_side = LiquidationEvent(T0, d12(100), d12(5000), "buy")
    assert any(v.field == "side" for v in validate_record(bad_side))


def test_validate_record_rejects_unknown_types():
    with pytest.raises(DataError):
        validate_record(object())


def make_panel(n=6):
    candles = [good_candle(T0 + i * BAR_SECONDS) for i in range(n)]
    return Panel(instrument="TEST-PERP", candles=candles)


def test_panel_contiguity_checked():
    panel = make_panel()
    assert validate_panel(panel) == []
    gapped = panel._replace(candles=panel.candles[:2] + panel.candles[3:])
    assert any("contiguous" in v.reason for v in validate_panel(gapped))


def test_panel_series_span_and_order():
    panel = make_panel()
    late = panel._replace(funding=[FundingRecord(panel.end_time + 1, d12("0.0001"))])
    assert any(v.field == "funding" for v in validate_panel(late))
    unordered = panel._replace(books=[book(T0 + 7200), book(T0 + 3600)])
    assert any(v.field == "books" for v in validate_panel(unordered))


PANEL_FIELDS = ("instrument", "candles", "funding", "open_interest", "books",
                "liquidations", "annotations")


def test_panel_takes_its_fields_by_position_or_keyword_with_empty_defaults():
    assert Panel._fields == PANEL_FIELDS
    bare = Panel("TEST-PERP")
    assert (bare.candles, bare.funding, bare.open_interest, bare.liquidations) == ((),) * 4
    assert type(bare.books) is Books and len(bare.books) == 0
    assert bare.annotations == {} and bare.annotations is not Panel("TEST-PERP").annotations
    candles = [good_candle(T0 + i * BAR_SECONDS) for i in range(3)]
    funding = [FundingRecord(T0, d12("0.0001"))]
    oi = [OpenInterestRecord(T0, d12(500))]
    liquidations = [LiquidationEvent(T0, d12(100), d12(5000), "long")]
    by_position = Panel("TEST-PERP", candles, funding, oi, [book()], liquidations, {"a": 1})
    by_keyword = Panel(annotations={"a": 1}, liquidations=liquidations, books=[book()],
                       open_interest=oi, funding=funding, candles=candles,
                       instrument="TEST-PERP")
    assert by_position == by_keyword
    assert by_position.candles == tuple(candles) and by_position.books[0] == book()
    assert by_position != by_position._replace(annotations={"a": 2})
    assert by_position != tuple(getattr(by_position, name) for name in PANEL_FIELDS)


def test_panel_and_snapshot_repr_keep_the_field_form():
    assert repr(book(bids=(("99", "5"),), asks=(("101", "5"),))) == \
        "BookSnapshot(time=%d, bids='99:5', asks='101:5')" % T0
    assert repr(Panel("TEST-PERP")).startswith(
        "Panel(instrument='TEST-PERP', candles=(), funding=(), open_interest=(), books=<")
    assert repr(Panel("TEST-PERP")).endswith(">, liquidations=(), annotations={})")


def test_replace_coerces_through_the_constructor():
    panel = make_panel(3)
    changed = panel._replace(candles=list(panel.candles[:2]), funding=[], books=[book()],
                             liquidations=[])
    assert type(changed.candles) is tuple and len(changed.candles) == 2
    assert changed.funding == () and changed.liquidations == ()
    assert type(changed.books) is Books and list(changed.books) == [book()]
    assert changed.instrument == panel.instrument and changed.annotations is panel.annotations
    snap = book()
    later = snap._replace(time=T0 + 60)
    assert (later.time, later.bids, later.asks) == (T0 + 60, snap.bids, snap.asks)
    with pytest.raises(TypeError):
        panel._replace(candle=())


@pytest.mark.parametrize("value, name", [
    (make_panel(3), "candles"), (make_panel(3), "annotations"), (make_panel(3), "_derived"),
    (book(), "time"), (book(), "bids"), (book(), "_checked"),
])
def test_no_field_can_be_assigned_or_deleted(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_a_decoded_snapshot_equals_and_hashes_like_an_undecoded_one():
    decoded, fresh = book(), book()
    decoded.bid_levels, decoded.ask_levels, decoded.mid, decoded.checked
    assert filled(decoded) == {"_bid_levels", "_ask_levels", "_best_bid", "_best_ask",
                               "_checked"}
    assert filled(fresh) == set()
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert hash(book()) == hash((T0, book().bids, book().asks))
    assert book() != book(time=T0 + 1) and book() != book(bids=(("99", "6"),))
    with pytest.raises(TypeError):
        hash(make_panel(3))


CLONES = {"pickle": lambda v: pickle.loads(pickle.dumps(v, pickle.HIGHEST_PROTOCOL)),
          "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_a_clone_is_equal_and_carries_no_memo(clone):
    snap = book()
    snap.checked, snap.bid_levels
    thawed = clone(snap)
    assert thawed == snap and filled(thawed) == set()
    assert thawed.checked == snap.checked and thawed.bid_levels == snap.bid_levels
    panel = make_panel(6)._replace(books=[book(T0 + 3600)], annotations={"a": [1]})
    derive(panel)
    assert filled(panel) == {"_derived"}
    thawed = clone(panel)
    assert thawed == panel and filled(thawed) == set() and thawed._derived is None
    assert type(thawed.books) is Books and type(thawed.candles) is tuple
    assert (thawed.annotations is panel.annotations) == (clone is copy.copy)


def test_bar_index_boundaries():
    panel = make_panel(3)
    assert bar_index(panel, T0) == 0
    assert bar_index(panel, T0 + BAR_SECONDS - 1) == 0
    assert bar_index(panel, T0 + BAR_SECONDS) == 1
    assert bar_index(panel, T0 - 1) is None
    assert bar_index(panel, panel.end_time) is None


def test_asof_alignment_uses_latest_at_or_before_bar_close():
    panel = make_panel(3)._replace(funding=[
        FundingRecord(T0 + BAR_SECONDS, d12("0.0001")),        # close of bar 0
        FundingRecord(T0 + 3 * BAR_SECONDS, d12("0.0002")),    # close of bar 2
    ])
    rates = [r.rate_8h if r else None for r in funding_by_bar(panel)]
    assert rates == [Decimal("0.0001"), Decimal("0.0001"), Decimal("0.0002")]

    panel = panel._replace(open_interest=[OpenInterestRecord(T0 + 2 * BAR_SECONDS, d12(500))])
    ois = oi_by_bar(panel)
    assert ois[0] is None and ois[1].oi_usd == 500 and ois[2].oi_usd == 500


def _datetime_iso(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@pytest.mark.parametrize("ts", [
    0, -1, -BAR_SECONDS, -86400 * 365 - 7, 1, T0, 253402286400,   # 9999-12-31T20:00:00Z
])
def test_iso_matches_datetime_form(ts):
    assert iso(ts) == _datetime_iso(ts)


def test_iso_over_a_year_of_the_4h_grid():
    stamps = range(T0, T0 + 366 * 86400, BAR_SECONDS)
    assert [iso(t) for t in stamps] == [_datetime_iso(t) for t in stamps]
    assert iso(253402286400) == "9999-12-31T20:00:00Z"


def test_asof_walk_on_unsorted_records_is_the_plain_pointer_walk():
    times = [T0 + 3 * BAR_SECONDS, T0 + BAR_SECONDS, T0 + 5 * BAR_SECONDS,
             T0 + 2 * BAR_SECONDS, T0 + 6 * BAR_SECONDS]
    panel = make_panel(6)._replace(open_interest=[OpenInterestRecord(t, d12(i + 1))
                                                  for i, t in enumerate(times)])
    expected, j = [], -1
    for c in panel.candles:
        while j + 1 < len(times) and times[j + 1] <= c.close_time:
            j += 1
        expected.append(panel.open_interest[j] if j >= 0 else None)
    assert oi_by_bar(panel) == expected
    assert [r and r.oi_usd for r in expected] == [None, None, 2, 2, 4, 5]


# `model.median` replaces `statistics.median`, whose import every command paid
# for at start-up: the same value, and type, on every input either reads
_D12 = st.decimals(min_value=-10 ** 15, max_value=10 ** 15, places=12,
                   allow_nan=False, allow_infinity=False)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("numbers", [_D12, _FLOATS], ids=["d12", "float"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_median_is_the_statistics_median(numbers, parity, data):
    values = data.draw(st.lists(numbers, min_size=1, max_size=40))
    if (len(values) % 2 == 1) != (parity == "odd"):
        values = values + [data.draw(numbers)]
    got, want = median(values), statistics.median(values)
    assert got == want and type(got) is type(want)
    assert median(iter(values)) == want

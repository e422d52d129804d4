"""Each fast path of the read-and-check layers against the code it replaced.

The references below are the earlier code, kept here as it was but for the
wording of a CSV error, which names the 1-based line of the file as the
readers now do:
  - a CSV file read into one dict per row, then decoded (`earlier_read_csv`);
  - `align_4h` checking the order tick by tick and building each bucket's
    lists (`earlier_align_4h`);
  - the book screen parsing every number of a side as a float and deciding
    the crossed-book and spread checks on `Decimal` (`earlier_screen_books`);
  - `validate_panel` building a generator of violations per record
    (`earlier_validate_panel`).
On drawn inputs, valid and broken, each pair gives the same records, candles,
kept books, flags and violations (`repr` equal), or the same exception and
message.
"""
import csv
import operator
import os
import tempfile
from decimal import Decimal
from itertools import groupby

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_decode import CSV_SERIES, KINDS, outcome

from rangegov import formats, model
from rangegov.config import DEFAULTS
from rangegov.errors import DataError
from rangegov.ingestion import RawTick, align_4h
from rangegov.model import (
    BAR_SECONDS, BookSnapshot, Candle4H, FundingRecord, LiquidationEvent,
    OpenInterestRecord, Panel, Violation, d12, iso, levels_text, validate_record,
)
from rangegov.quality import FLAG, QualityFlag, check_book_integrity

T0 = 1609459200
TICK = Decimal("1e-12")

# ------------------------------------------------------------------ CSV files

def _split_cells(rec: dict) -> None:
    if "holder_shares" in rec:
        rec["holder_shares"] = rec["holder_shares"].split(";")
    pairs = [pair.split(":") for pair in rec.get("leverage_histogram", "").split(";")]
    if "leverage_histogram" in rec and all(len(pair) == 2 for pair in pairs):
        rec["leverage_histogram"] = dict(pairs)


def earlier_read_csv(path, fields, make, prep=None):
    with formats._open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        numbered = [(rows.line_num, {k: v.strip() for k, v in zip(header, row) if v})
                    for row in rows if row]
    records = [rec for _, rec in numbered]
    for rec in records if prep else ():
        prep(rec)
    return formats._decode(records, fields, make,
                           lambda i: "%s line %d" % (path, numbered[i][0]), {})


TICK_FIELDS = (formats._Field("time", formats._time), formats._Field("price", formats._dec),
               formats._Field("volume", formats._dec),
               formats._Field("exchange_id", formats._text))


def _earlier_ticks(path):
    return earlier_read_csv(path, TICK_FIELDS, RawTick,
                           lambda rec: rec.setdefault("exchange_id", "venue"))


# series -> (reader, reference)
READERS = {
    "candles": (formats.read_candles_csv,
                lambda path: earlier_read_csv(path, formats._CANDLE, Candle4H)),
    "funding": (formats.read_funding_csv,
                lambda path: earlier_read_csv(path, formats._FUNDING_ROW, lambda *row: row)),
    "open_interest": (formats.read_oi_csv,
                      lambda path: earlier_read_csv(path, formats._OI, formats._oi, _split_cells)),
    "liquidations": (formats.read_liquidations_csv,
                     lambda path: earlier_read_csv(path, formats._LIQUIDATION,
                                                  formats._liquidation)),
    "ticks": (lambda path: formats.read_ticks_csv(path, "venue"), _earlier_ticks),
}


@st.composite
def csv_files(draw):
    """(series, rows of cells): a header of the series' fields, in any order,
    one of them perhaps missing or repeated, then rows full or ragged, with
    empty, blank (spaces only) or padded cells, blank lines and at most one
    malformed cell."""
    name = draw(st.sampled_from(sorted(CSV_SERIES)))
    fields = list(CSV_SERIES[name])
    header = draw(st.permutations([key for key, _, _ in fields]))
    how = draw(st.sampled_from(["as is", "as is", "missing", "repeated"]))
    if how == "missing":
        header = header[1:]
    elif how == "repeated":
        header = header + [draw(st.sampled_from(header))]
    kinds = {key: kind for key, kind, _ in fields}
    rows = [header]
    bad = draw(st.booleans())
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            rows.append([])   # a blank line
            continue
        row = []
        for key in header:
            cell = draw(st.sampled_from(["value", "value", "value", "empty", "blank", "padded"]))
            value = draw(KINDS[kinds[key]][1])
            row.append({"value": value, "empty": "", "blank": "  ",
                        "padded": " %s " % value}[cell])
        j = draw(st.integers(0, len(row) - 1))
        if bad and KINDS[kinds[header[j]]][3]:
            row[j] = draw(st.sampled_from(KINDS[kinds[header[j]]][3]))
            bad = False
        cut = draw(st.sampled_from([None, None, None, -1, 1, 2]))
        rows.append(row if cut is None else row[:cut] if cut < 0 else row + ["7"] * cut)
    return name, rows


@given(csv_files())
@example(("candles", [["time", "open", "high", "low", "close", "volume"],
                      ["2024-01-01T00:00:00Z", "1", "2", "0.5", "1", "9"], [],
                      ["2024-01-01T04:00:00Z", "1", "x", "0.5", "1", "9"]]))
@example(("ticks", [["time", "price", "volume", "exchange_id"],
                    ["2024-01-01T00:00:00Z", "1", "2", "  "],
                    ["2024-01-01T04:00:00Z", "1", "2", ""]]))
@example(("open_interest", [["time", "oi_usd", "holder_shares", "leverage_histogram"],
                            ["2024-01-01T00:00:00Z", "1", "  ", "  "],
                            ["2024-01-01T04:00:00Z", "1", "", "1"]]))
@example(("liquidations", [["time", "price", "size_usd", "side", "side"],
                           ["2024-01-01T00:00:00Z", "1", "2", "long", ""],
                           ["2024-01-01T04:00:00Z", "1", "2", "", "short"]]))
@settings(max_examples=300, deadline=None)
def test_a_csv_file_reads_as_one_dict_per_row(drawn):
    name, rows = drawn
    read, reference = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name + ".csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert outcome(read, path) == outcome(reference, path)


# ------------------------------------------------------------------ tick files

def earlier_align_4h(ticks) -> list:
    for i in range(1, len(ticks)):
        if ticks[i].time < ticks[i - 1].time:
            raise DataError(f"ticks not time-ascending at index {i}")
    candles = []
    for key, group in groupby(ticks, key=lambda t: t.time // BAR_SECONDS):
        bucket = list(group)
        prices = [t.price for t in bucket]
        candles.append(Candle4H(
            open_time=key * BAR_SECONDS, open=bucket[0].price, high=max(prices),
            low=min(prices), close=bucket[-1].price,
            volume=d12(sum((t.volume for t in bucket), Decimal(0))),
            exchange_count=max(1, len({t.exchange_id for t in bucket}))))
    return candles


@st.composite
def tick_files(draw):
    """Tick rows over a few bars, in time order or not, each with or without
    its own venue."""
    rows = [["time", "price", "volume", "exchange_id"]]
    for _ in range(draw(st.integers(0, 12))):
        rows.append([iso(T0 + draw(st.integers(0, 4 * BAR_SECONDS))),
                     draw(KINDS["dec"][1]), draw(KINDS["dec"][1]),
                     draw(st.sampled_from(["", "a", "b", " c "]))])
    return rows, draw(st.booleans())


@given(tick_files())
@settings(max_examples=200, deadline=None)
def test_a_tick_file_gives_the_same_candles(drawn):
    rows, in_order = drawn
    sort = formats._by_time if in_order else list
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ticks.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        got = outcome(lambda: align_4h(sort(formats.read_ticks_csv(path, "venue"))))
        assert got == outcome(lambda: earlier_align_4h(sort(_earlier_ticks(path))))


# ------------------------------------------------------------------ book screen

def earlier_side_faults(text: str, better) -> list:
    numbers = text.replace(":", " ").split()
    values = list(map(float, numbers))
    prices, texts = values[::2], numbers[::2]
    out = []
    if prices and min(prices) <= 0:
        out.append("non-positive price")
    if prices and min(values[1::2]) <= 0:
        out.append("non-positive size")
    if not (all(map(better, prices, prices[1:])) or all(
            better(a, b) or (a == b and better(Decimal(x), Decimal(y)))
            for a, b, x, y in zip(prices, prices[1:], texts, texts[1:]))):
        out.append("levels not strictly ordered best-first")
    return out


def earlier_validate_book(b: BookSnapshot) -> list:
    out = []
    if not isinstance(b.time, int):
        out.append(Violation("time", "not an integer timestamp"))
    sides = (("bids", b.bids, operator.gt), ("asks", b.asks, operator.lt))
    out.extend(Violation(side, "empty") for side, text, _ in sides if not text)
    for side, text, better in sides:
        out.extend(Violation(side, reason) for reason in earlier_side_faults(text, better))
    if b.bids and b.asks and b.best_bid >= b.best_ask:
        out.append(Violation("bids", "crossed book: best bid >= best ask"))
    return out


def earlier_screen_books(snapshots, cfg) -> tuple:
    limit = d12(cfg.book_spread_exclusion)
    kept, flags = [], []
    for snap in snapshots:
        problems = earlier_validate_book(snap)
        reason = problems[0].reason if problems else None
        if not problems:
            spread = (snap.best_ask - snap.best_bid) / snap.mid
            if spread > limit:
                reason = f"spread {model.fmt_dec(d12(spread))} beyond {model.fmt_dec(limit)}"
        if not reason:
            kept.append(snap)
            continue
        flags.append(QualityFlag("book_integrity", f"book@{iso(snap.time)}", FLAG,
                                 f"excluded: {reason}"))
    return kept, flags


SIZES = st.sampled_from(["1", "2.5", "0.000000000001", "0", "-0", "-1"])


@st.composite
def books_near_their_limit(draw):
    """(books, limit): books around one mid whose spreads lie at the limit,
    a few 1e-12 ticks either side of it, or anywhere; deeper levels a tick
    apart (a float tie past 17 significant digits), equal, or far; a best bid
    and ask that may tie as floats or cross."""
    mid = Decimal(draw(st.integers(1, 10 ** 9))) / 10 ** draw(st.integers(0, 6))
    spread = Decimal(draw(st.integers(0, 3000))) / 10 ** 4
    limit = spread + draw(st.sampled_from([0, 0, 1, -1, 2, -2, 10, -10, 1000, -1000])) * TICK
    books = []
    for i in range(draw(st.integers(1, 4))):
        half = mid * (spread if draw(st.booleans()) else draw(st.sampled_from(
            [Decimal(0), Decimal("0.0001"), Decimal("0.5")]))) / 2
        best = [mid - half + draw(st.integers(-2, 2)) * TICK,
                mid + half + draw(st.integers(-2, 2)) * TICK]
        sides = []
        for price, away in zip(best, (-1, 1)):
            levels = [price]
            for _ in range(draw(st.integers(0, 3))):
                step = draw(st.sampled_from([1, 1, 2, 0, -1, 10 ** 9]))
                levels.append(levels[-1] + away * step * TICK)
            sides.append(levels_text((d12(p), d12(draw(SIZES))) for p in levels))
        books.append(BookSnapshot(T0 + 3600 * i, *sides))
    return books, float(limit)


@given(books_near_their_limit())
@example(([BookSnapshot(T0, "99.5:1", "100.5:1")], 0.01))                 # exactly at it
@example(([BookSnapshot(T0, "99.5:1", "100.500000000001:1")], 0.01))      # a tick past it
# the decimal spread just past the limit and the float one just below, then the other way
@example(([BookSnapshot(T0, "706425.460402499999:1", "787864.249597500002:1")], 0.109))
@example(([BookSnapshot(T0, "67090533.367850000002:1", "71885196.032149999999:1")], 0.069))
@example(([BookSnapshot(T0, "999999999.000000000002:1", "999999999.000000000001:1"),
           BookSnapshot(T0, "999999999.000000000001:1", "999999999.000000000001:1"),
           BookSnapshot(T0, "999999999.000000000001:1", "999999999.000000000002:1")], 0.0))
@settings(max_examples=300, deadline=None)
def test_the_book_screen_keeps_and_flags_as_on_decimals(drawn):
    books, limit = drawn
    cfg = DEFAULTS.replace(book_spread_exclusion=limit)
    fresh = [BookSnapshot(b.time, b.bids, b.asks) for b in books]
    assert [validate_record(b) for b in fresh] == [earlier_validate_book(b) for b in books]
    assert check_book_integrity(fresh, cfg) == earlier_screen_books(books, cfg)


# ------------------------------------------------------------------ panel gate

def earlier_validate_panel(panel, funding_hard_bound=DEFAULTS.funding_hard_bound) -> list:
    if not panel.candles:
        return [Violation("candles", "empty panel")]
    out = []
    times = [c.open_time for c in panel.candles]
    for i, (a, b) in enumerate(zip(times, times[1:]), 1):
        if b - a != BAR_SECONDS:
            out.append(Violation(f"candles[{i}].open_time",
                                 f"not contiguous on the 4H grid: {iso(b)} follows {iso(a)}"))
            break
    bound = d12(funding_hard_bound)
    span = (panel.start_time, panel.end_time)
    for name, records, check, key in (
            ("candles", panel.candles, model._validate_candle, None),
            ("funding", panel.funding, lambda r: model._validate_funding(r, bound),
             lambda r: r.settle_time),
            ("open_interest", panel.open_interest, model._validate_oi, lambda r: r.time),
            ("books", panel.books.times, lambda t: (), lambda t: t),
            ("liquidations", panel.liquidations, model._validate_liquidation, lambda r: r.time)):
        for i, r in enumerate(records):
            out.extend(Violation(f"{name}[{i}].{v.field}", v.reason) for v in check(r))
        ts = [key(r) for r in records] if key else []
        if any(b < a for a, b in zip(ts, ts[1:])):
            out.append(Violation(name, "timestamps not ascending"))
        if ts and (ts[0] < span[0] or ts[-1] > span[1]):
            out.append(Violation(name, "outside the candle span"))
    return out


def _valid_panel() -> Panel:
    candles = [Candle4H(T0 + i * BAR_SECONDS, d12(100), d12(101), d12(99), d12(100.5),
                        d12(10)) for i in range(6)]
    funding = [FundingRecord(T0 + k * 28800, d12("0.0001"), mark_price=d12(100),
                             index_price=d12(100)) for k in range(3)]
    oi = [OpenInterestRecord(T0 + i * BAR_SECONDS, d12(500), d12(300), d12(200),
                             {"10": "100", "25": "400"}, (d12("0.4"), d12("0.6")))
          for i in range(6)]
    books = [BookSnapshot(T0 + i * BAR_SECONDS, "99:1", "101:1") for i in range(6)]
    liqs = [LiquidationEvent(T0 + 3600, d12(99), d12(1000), "long")]
    return Panel("X", candles, funding, oi, books, liqs)


# series -> field -> values that break it, or break a rule across records
BREAKS = {
    "candles": {"open_time": [T0 + 1, T0 - BAR_SECONDS, "x"],
                "open": [d12(0), d12(-1), d12(102)], "high": [d12(99.5), d12(-1)],
                "low": [d12(100.6), d12(0)], "close": [d12(98), d12(0)],
                "volume": [d12(-1), d12(0)], "exchange_count": [0, 1.5, -2]},
    "funding": {"settle_time": [1.5, T0 - 1, T0 + 28800, T0 + 10 ** 6], "rate_8h": [
                d12("0.0375"), d12("-0.0375"), d12("0.03749"), d12("-1")],
                "source_interval_hours": [5, 0], "mark_price": [d12(0), d12(-1), None],
                "index_price": [d12(0), None]},
    "open_interest": {"time": [1.5, T0 - 1, T0 + BAR_SECONDS, T0 + 10 ** 6],
                      "oi_usd": [d12(-1), d12(501)],
                      "long_oi_usd": [None, d12(-300), d12(301)],
                      "short_oi_usd": [None, d12(-1)],
                      "holder_shares": [(), (d12("-0.4"), d12("1.4")), (d12("0.5"),), None],
                      "leverage_histogram": [{"10": "-1"}, {}, None]},
}


@st.composite
def broken_panels(draw):
    panel = _valid_panel()
    name = draw(st.sampled_from(sorted(BREAKS)))
    records = list(getattr(panel, name))
    i = draw(st.integers(0, len(records) - 1))
    key = draw(st.sampled_from(sorted(BREAKS[name])))
    records[i] = records[i]._replace(**{key: draw(st.sampled_from(BREAKS[name][key]))})
    return panel._replace(**{name: records}), draw(st.sampled_from([0.0375, 0.5]))


@given(broken_panels())
@settings(max_examples=200, deadline=None)
def test_the_panel_gate_gives_the_same_violations(drawn):
    panel, bound = drawn
    assert outcome(model.validate_panel, panel, bound) == outcome(earlier_validate_panel,
                                                                  panel, bound)

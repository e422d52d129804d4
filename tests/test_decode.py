"""The column decoder against record-by-record reading.

`formats` decodes every panel series and CSV file a column at a time. The
reference here reads the same rows one record at a time with the per-field
readers (`_time`, `_dec`, `_int`, `_flag`, `_opt`, ...), as the decoder did
before it worked by column. On drawn rows of every record kind, in the JSON
shape of a panel and in the CSV shape of its input files, with optional
fields present, null or empty and at most one malformed cell, both give the
same records (`repr` equal, so every Decimal has the same digits and
exponent), or both raise the same exception with the same message.
"""
import csv
import os
import random
import tempfile
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from rangegov import formats
from rangegov.errors import SchemaError
from rangegov.formats import (
    _dec, _flag, _histogram, _int, _opt, _shares, _time, book_from_line,
)
from rangegov.ingestion import RawTick
from rangegov.model import Candle4H, FundingRecord, LiquidationEvent, OpenInterestRecord, d12

# ------------------------------------------------------------------ reference

def _records(rows, build, kind=dict) -> list:
    out = []
    for where, rec in rows:
        if not isinstance(rec, kind):
            raise SchemaError("%s is not %s"
                              % (where, "an object" if kind is dict else "a string"))
        try:
            out.append(build(rec, where))
        except KeyError as exc:
            raise SchemaError("%s missing field %r" % (where, exc.args[0])) from None
    return out


def _candle(rec, where):
    return Candle4H(
        open_time=_time(rec["time"], where), open=_dec(rec["open"], where),
        high=_dec(rec["high"], where), low=_dec(rec["low"], where),
        close=_dec(rec["close"], where), volume=_dec(rec["volume"], where),
        exchange_count=_opt(rec, "exchange_count", _int, where, 1),
        interpolated=_opt(rec, "interpolated", _flag, where, False))


def _oi(rec, where):
    return OpenInterestRecord(
        time=_time(rec["time"], where), oi_usd=_dec(rec["oi_usd"], where),
        long_oi_usd=_opt(rec, "long_oi_usd", _dec, where),
        short_oi_usd=_opt(rec, "short_oi_usd", _dec, where),
        holder_shares=_opt(rec, "holder_shares", _shares, where),
        leverage_histogram=_opt(rec, "leverage_histogram", _histogram, where))


def _liquidation(rec, where):
    side = rec["side"]
    if side not in ("long", "short"):
        raise SchemaError("%s: side must be long or short" % where)
    return LiquidationEvent(
        time=_time(rec["time"], where), price=_dec(rec["price"], where),
        size_usd=_dec(rec["size_usd"], where), side=side)


def _funding(rec, where):
    return FundingRecord(
        settle_time=_time(rec["time"], where), rate_8h=_dec(rec["rate_8h"], where),
        source_interval_hours=_opt(rec, "source_interval_hours", _int, where, 8),
        exchange_count=_opt(rec, "exchange_count", _int, where, 1),
        mark_price=_opt(rec, "mark_price", _dec, where),
        index_price=_opt(rec, "index_price", _dec, where))


def _oi_csv(rec, where):
    if "holder_shares" in rec:
        rec["holder_shares"] = rec["holder_shares"].split(";")
    hist = rec.get("leverage_histogram")
    if hist:
        pairs = [pair.split(":") for pair in hist.split(";")]
        if any(len(pair) != 2 for pair in pairs):
            raise SchemaError("%s: bad leverage histogram %r" % (where, hist))
        rec["leverage_histogram"] = dict(pairs)
    return _oi(rec, where)


def reference_panel(doc, where="panel"):
    def series(key, build, kind=dict):
        return _records((("%s: %s[%d]" % (where, key, i), rec)
                         for i, rec in enumerate(doc[key])), build, kind)

    return [series("candles", _candle), series("funding", _funding),
            series("open_interest", _oi), series("books", book_from_line, str),
            series("liquidations", _liquidation)]


def reference_csv(path, build):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        return _records((("%s line %d" % (path, rows.line_num),
                          {k: v.strip() for k, v in zip(header, row) if v})
                         for row in filter(None, rows)), build)


def reference_books(path):
    with open(path, encoding="utf-8") as fh:
        return _records((("%s line %d" % (path, i), line)
                         for i, line in enumerate(fh, 1) if line.strip()), book_from_line, str)


CSV_READERS = {
    "candles": (formats.read_candles_csv, _candle),
    "funding": (formats.read_funding_csv, lambda rec, where: (
        _time(rec["time"], where), _dec(rec["rate"], where),
        _opt(rec, "mark_price", _dec, where), _opt(rec, "index_price", _dec, where))),
    "open_interest": (formats.read_oi_csv, _oi_csv),
    "liquidations": (formats.read_liquidations_csv, _liquidation),
    "ticks": (lambda path: formats.read_ticks_csv(path, "venue"),
              lambda rec, where: RawTick(
                  time=_time(rec["time"], where), price=_dec(rec["price"], where),
                  volume=_dec(rec["volume"], where),
                  exchange_id=rec.get("exchange_id", "venue"))),
}


def outcome(read, *args):
    """What `read(*args)` gives: ("ok", repr) or ("error", type, message)."""
    try:
        got = read(*args)
    except Exception as exc:   # the type and message are what is compared
        return ("error", type(exc), str(exc))
    return ("ok", repr(got))


# ------------------------------------------------------------------- drawing

STAMPS = ["2024-01-01T00:00:00Z", "2024-01-01T04:00:00Z", "2024-01-01T04:00:00+00:00",
          "2024-01-01T08:00:00", " 2024-01-01T12:00:00Z"]
DEC_TEXT = st.one_of(
    st.sampled_from(["100", "99.5", "-0", "0", "0.000000000001", "0.0000000000004",
                     "1e3", "1E-3", " 7 ", "1_000", "+2.50", "123456789012345.6789"]),
    st.decimals(min_value=-10 ** 6, max_value=10 ** 6, allow_nan=False,
                allow_infinity=False, places=14).map(str))
DEC_JSON = st.one_of(DEC_TEXT, st.integers(-10 ** 9, 10 ** 9),
                     st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))
INT_TEXT = st.integers(0, 40).map(str)
FLAG_TEXT = st.sampled_from(["true", "false", "True", "FALSE"])
SIDES = ["99:5 98.5:4", "101:5 102:1.5", "+99:5 98.0:5", "1e2:5", "99.0000000000001:5",
         "", "0:1", "-1:-2"]

# type -> (valid JSON values, valid CSV cells, malformed JSON values, malformed CSV cells)
KINDS = {
    "time": (st.sampled_from(STAMPS), st.sampled_from(STAMPS),
             ["x", "2024-13-01T00:00:00Z", 5, None, True, [1], ""], ["x", "2024-13-01"]),
    "dec": (DEC_JSON, DEC_TEXT,
            ["x", "NaN", "-sNaN", "Infinity", "1e40", True, False, [1], [0, [1], 0],
             {"a": 1}, "", None, float("nan")], ["x", "NaN", "1e40", "-Infinity", "True"]),
    "int": (st.one_of(st.integers(0, 40), INT_TEXT), INT_TEXT,
            ["x", "-1", "1.5", 1.5, True, [1], "٣"], ["x", "-1", "1.5", "٣"]),
    "flag": (st.one_of(st.booleans(), FLAG_TEXT), FLAG_TEXT,
             ["yes", 1, 0, [True]], ["yes", "1"]),
    "shares": (st.lists(DEC_TEXT, max_size=3), st.lists(DEC_TEXT, min_size=1, max_size=3)
               .map(";".join), [5, "x", ["x"], [True]], ["x;1", "1;;2"]),
    "histogram": (st.dictionaries(DEC_TEXT, DEC_TEXT, max_size=2),
                  st.dictionaries(DEC_TEXT, DEC_TEXT, min_size=1, max_size=2).map(
                      lambda d: ";".join("%s:%s" % kv for kv in d.items())),
                  [[1], {"x": "1"}, {"1": True}], ["1", "a:1", "1:2:3"]),
    "side": (st.sampled_from(["long", "short"]), st.sampled_from(["long", "short"]),
             ["sideways", 1, None], ["sideways"]),
    "text": (st.just("alpha"), st.sampled_from(["alpha", " beta "]), [], []),
}
# series -> ((field, type, optional), ...)
SERIES = {
    "candles": (("time", "time", False), *((k, "dec", False) for k in (
        "open", "high", "low", "close", "volume")),
        ("exchange_count", "int", True), ("interpolated", "flag", True)),
    "funding": (("time", "time", False), ("rate_8h", "dec", False),
                ("source_interval_hours", "int", True), ("exchange_count", "int", True),
                ("mark_price", "dec", True), ("index_price", "dec", True)),
    "open_interest": (("time", "time", False), ("oi_usd", "dec", False),
                      ("long_oi_usd", "dec", True), ("short_oi_usd", "dec", True),
                      ("holder_shares", "shares", True),
                      ("leverage_histogram", "histogram", True)),
    "liquidations": (("time", "time", False), ("price", "dec", False),
                     ("size_usd", "dec", False), ("side", "side", False)),
}
CSV_SERIES = dict(SERIES, funding=(("time", "time", False), ("rate", "dec", False),
                                   ("mark_price", "dec", True), ("index_price", "dec", True)),
                  ticks=(("time", "time", False), ("price", "dec", False),
                         ("volume", "dec", False), ("exchange_id", "text", True)))


@st.composite
def rows(draw, fields, shape):
    """Records of `fields`: each optional field present, null, empty or
    absent (in a CSV, the last three are an empty cell)."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        rec = {}
        for key, kind, optional in fields:
            how = draw(st.sampled_from(["value", "null", "empty", "absent"] if optional
                                       else ["value"]))
            if how == "value":
                rec[key] = draw(KINDS[kind][0 if shape == "json" else 1])
            elif shape == "csv":
                rec[key] = ""
            elif how != "absent":
                rec[key] = None if how == "null" else ""
        out.append(rec)
    return out


@st.composite
def book_lines(draw):
    return [draw(st.sampled_from(STAMPS)).strip() + "|" + draw(st.sampled_from(SIDES)) + "|"
            + draw(st.sampled_from(SIDES)) for _ in range(draw(st.integers(0, 4)))]


BAD_LINES = [5, None, "2024-01-01T00:00:00Z|99:5", "2024-01-01T00:00:00Z|99:5|101:5|x",
             "x|99:5|101:5", "2024-01-01T00:00:00Z|99|101:5", "2024-01-01T00:00:00Z|x:1|101:5"]


def spoil(draw, table, fields, shape):
    """Make at most one cell of `table` (rows of records) malformed."""
    cells = [(i, key, kind) for i, rec in enumerate(table) for key, kind, _ in fields]
    if not cells or not draw(st.booleans()):
        return
    i, key, kind = draw(st.sampled_from(cells))
    bad = KINDS[kind][2 if shape == "json" else 3]
    how = draw(st.sampled_from(["value", "missing"] + (["record"] if shape == "json" else [])))
    if how == "record":
        table[i] = draw(st.sampled_from([["x"], None, "text", 5]))
    elif how == "missing":
        if shape == "json":
            table[i].pop(key, None)
        else:
            table[i][key] = ""
    elif bad:
        table[i][key] = draw(st.sampled_from(bad))


@st.composite
def panel_docs(draw):
    doc = {"kind": "panel", "schema_version": "1", "instrument": "X"}
    for name, fields in SERIES.items():
        doc[name] = draw(rows(fields, "json"))
    doc["books"] = draw(book_lines())
    target = draw(st.sampled_from(list(SERIES) + ["books"]))
    if target == "books":
        if doc["books"] and draw(st.booleans()):
            doc["books"][draw(st.integers(0, len(doc["books"]) - 1))] = \
                draw(st.sampled_from(BAD_LINES))
    else:
        spoil(draw, doc[target], SERIES[target], "json")
    return doc


@st.composite
def csv_tables(draw):
    name = draw(st.sampled_from(list(CSV_SERIES)))
    fields = CSV_SERIES[name]
    table = draw(rows(fields, "csv"))
    spoil(draw, table, fields, "csv")
    return name, [key for key, _, _ in fields], table


# --------------------------------------------------------------------- tests

@given(panel_docs())
@settings(max_examples=300, deadline=None)
def test_panel_series_decode_as_record_by_record(doc):
    def decoded(d):
        p = formats.panel_from_dict(d)
        return [list(p.candles), list(p.funding), list(p.open_interest), list(p.books),
                list(p.liquidations)]

    assert outcome(decoded, doc) == outcome(reference_panel, doc)


@given(csv_tables())
@settings(max_examples=300, deadline=None)
def test_csv_series_decode_as_record_by_record(table):
    name, header, records = table
    read, build = CSV_READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name + ".csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([rec.get(k, "") for k in header] for rec in records)
        assert outcome(read, path) == outcome(reference_csv, path, build)


@given(book_lines(), st.sampled_from([None] + BAD_LINES[2:]), st.integers(0, 4),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_book_file_decodes_as_line_by_line(lines, bad, at, blank):
    if bad is not None:
        lines.insert(min(at, len(lines)), bad)
    if blank:
        lines.insert(min(at, len(lines)), "  ")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "books.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        assert outcome(formats.read_books, path) == outcome(reference_books, path)


# ------------------------------------------------------------- JSON numbers

def _halfway_floats(n: int, seed: int) -> list:
    """Floats whose shortest text has 13 decimals ending in 5: half way between
    two 12-decimal values, where the text and the binary expansion round apart."""
    rng = random.Random(seed)
    return [float("%d.%012d5" % (rng.randrange(100), rng.randrange(10 ** 12)))
            for _ in range(n)]


def test_a_json_number_decodes_as_d12_reads_it():
    """A decimal held as a JSON number had been read through its binary
    expansion: 9.8841079958715 gave 9.884107995871 where `d12`, and the same
    text in a CSV cell, give 9.884107995872."""
    assert _dec(9.8841079958715, "x") == Decimal("9.884107995872")
    for f in _halfway_floats(2000, 11):
        got, want = _dec(f, "x"), d12(f)
        assert (got, got.as_tuple().exponent) == (want, want.as_tuple().exponent), f


def test_a_panel_of_json_numbers_loads_as_the_same_panel_of_their_text():
    floats = iter(_halfway_floats(400, 12))
    as_text, as_numbers = ({"kind": "panel", "schema_version": "1", "instrument": "X",
                            "funding": [], "open_interest": [], "books": []}
                           for _ in range(2))
    for series, keys in (("candles", ("open", "high", "low", "close", "volume")),
                         ("liquidations", ("price", "size_usd"))):
        as_text[series], as_numbers[series] = [], []
        for i in range(20):
            rec = {"time": "2024-01-01T%02d:00:00Z" % i, "side": "long"}
            values = {key: next(floats) for key in keys}
            as_numbers[series].append({**rec, **values})
            as_text[series].append({**rec, **{k: repr(v) for k, v in values.items()}})
    numbers = formats.panel_from_dict(as_numbers)
    text = formats.panel_from_dict(as_text)
    # repr-equal: every Decimal has the same digits and exponent
    assert repr(numbers.candles) == repr(text.candles)
    assert repr(numbers.liquidations) == repr(text.liquidations)
    # the draw holds values whose binary expansion rounds the other way
    assert any(d12(Decimal(f)) != d12(f) for rec in as_numbers["candles"] for f in rec.values()
               if isinstance(f, float))

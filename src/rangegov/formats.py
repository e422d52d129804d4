"""File formats: headered CSV series, line-delimited book snapshots, panel
and report documents, ingest manifests.

Prices, rates and sizes are serialized as plain decimal strings so panels
survive a round trip without binary-float drift.
"""
from __future__ import annotations

import csv
import errno
import json
import os
import stat
from contextlib import contextmanager, suppress
from decimal import Decimal
from functools import partial
from itertools import count, islice, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

from .config import Config, DEFAULTS
from .errors import MissingSeriesError, SchemaError
from .ingestion import RawTick, align_4h, normalize_funding, vwap_merge
from .model import (
    CANONICAL_LEVELS,
    BookSnapshot,
    Books,
    Candle4H,
    FundingRecord,
    LiquidationEvent,
    OpenInterestRecord,
    Panel,
    _Q12,
    d12,
    fmt_dec,
    iso,
    levels_text,
    parse_iso,
)
from .quality import run_pipeline

SCHEMA_VERSION = "1"
_NUMBERS = frozenset((str, int, float))   # what a decimal field holds; not a bool


def _dec(raw, where: str) -> Decimal:
    try:   # d12 reads a float through its repr, and refuses None
        return d12(raw if type(raw) in _NUMBERS else None)
    except ValueError:
        raise SchemaError("%s: bad decimal %r" % (where, raw))


def _time(raw: str, where: str) -> int:
    try:
        return parse_iso(raw)
    except (ValueError, AttributeError):   # AttributeError: not a string
        raise SchemaError("%s: bad timestamp %r" % (where, raw))


def _int(raw, where: str) -> int:
    if type(raw) is int or isinstance(raw, str) and raw.isascii() and raw.isdigit():
        return int(raw)
    raise SchemaError("%s: bad integer %r" % (where, raw))


def _flag(raw, where: str) -> bool:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise SchemaError("%s: bad flag %r" % (where, raw))


def _shares(raw, where: str) -> Optional[tuple]:
    if not isinstance(raw, list):
        raise SchemaError("%s: bad share list %r" % (where, raw))
    return tuple(_dec(s, where) for s in raw) or None


def _histogram(raw, where: str) -> Optional[dict]:
    if not isinstance(raw, dict):
        raise SchemaError("%s: bad leverage histogram %r" % (where, raw))
    for text in (*raw, *raw.values()):   # bucket leverage -> USD, both decimals
        _dec(text, where)
    return dict(raw) or None


def _side(raw, where: str) -> str:
    if raw not in ("long", "short"):
        raise SchemaError("%s: side must be long or short" % where)
    return raw


def _text(raw, where: str):
    return raw


def _opt(rec: dict, key: str, read, where: str, default=None):
    """`read(rec[key], where)`, or `default` if the field is absent, null or ""."""
    raw = rec.get(key)
    return default if raw is None or raw == "" else read(raw, where)


# ------------------------------------------------------------------ records
# A record kind is its fields in reading order, the one statement of its text
# form: `_decode` reads it, the readers above word its errors, and `_encode`
# writes each field through the inverse of its reader.
_REQUIRED = object()   # the default of a field that every record must hold


class _Field(NamedTuple):
    key: str              # its name in a panel record and a CSV header
    read: object          # reader(raw, where) -> value
    default: object = _REQUIRED
    attr: str = ""        # the record attribute it fills, if not `key`


_CANDLE = (_Field("time", _time, attr="open_time"), *(_Field(k, _dec) for k in (
    "open", "high", "low", "close", "volume")),
    _Field("exchange_count", _int, 1), _Field("interpolated", _flag, False))
_FUNDING = (_Field("time", _time, attr="settle_time"), _Field("rate_8h", _dec),
            _Field("source_interval_hours", _int, 8), _Field("exchange_count", _int, 1),
            _Field("mark_price", _dec, None), _Field("index_price", _dec, None))
_OI = (_Field("time", _time), _Field("oi_usd", _dec),
       _Field("long_oi_usd", _dec, None), _Field("short_oi_usd", _dec, None),
       _Field("holder_shares", _shares, None), _Field("leverage_histogram", _histogram, None))
_LIQUIDATION = (_Field("side", _side), _Field("time", _time),
                _Field("price", _dec), _Field("size_usd", _dec))


def _oi(time, oi_usd, long_oi_usd, short_oi_usd, shares, histogram) -> OpenInterestRecord:
    return OpenInterestRecord(time, oi_usd, long_oi_usd, short_oi_usd, histogram, shares)


def _liquidation(side, time, price, size_usd) -> LiquidationEvent:
    return LiquidationEvent(time, price, size_usd, side)


# a panel's record series in decoding order, (key, fields, make); books are lines
_SERIES = (("candles", _CANDLE, Candle4H), ("funding", _FUNDING, FundingRecord),
           ("open_interest", _OI, _oi), ("books", None, None),
           ("liquidations", _LIQUIDATION, _liquidation))


def _walk(rows: list, where_of, build, kind=dict) -> None:
    """`build(record, where_of(i))` over `rows`; the first bad record raises."""
    for i, rec in enumerate(rows):
        if not isinstance(rec, kind):
            raise SchemaError("%s is not %s"
                              % (where_of(i), "an object" if kind is dict else "a string"))
        try:
            build(rec, where_of(i))
        except KeyError as exc:
            raise SchemaError("%s missing field %r" % (where_of(i), exc.args[0])) from None


_BAD = (KeyError, IndexError, TypeError, ValueError, ArithmeticError, AttributeError)
_AS_READ = {_int: {int}, _flag: {bool}, _text: {str}}   # columns a reader returns as they are


def _column(values: list, read, default, stamps: dict) -> list:
    """`read` over a column of raw values, as `_opt` (unless _REQUIRED) reads
    them: each timestamp text parsed once into `stamps`, decimals in one pass.
    Raises one of _BAD, unworded, on the first value `read` rejects."""
    if default is not _REQUIRED and (None in values or "" in values):
        return [default if raw is None or raw == "" else read(raw, None) for raw in values]
    types = set(map(type, values))
    if read is _dec:
        if not types <= _NUMBERS:
            raise TypeError
        if float in types:   # a JSON number, read through its repr as `d12` reads it
            values = [repr(raw) if type(raw) is float else raw for raw in values]
        out = list(map(Decimal.quantize, map(Decimal, values), repeat(_Q12)))
        if any(map(Decimal.is_nan, out)):
            raise ValueError
        return out
    if read is _time:
        stamps.update({text: parse_iso(text) for text in set(values).difference(stamps)})
        return list(map(stamps.__getitem__, values))
    return values if types == _AS_READ.get(read) else [read(raw, None) for raw in values]


def _decode_columns(columns: list, fields, make, stamps: dict) -> list:
    """`make(*fields)` of each record, `columns` holding the raw values of each
    of `fields` in turn. Raises one of _BAD, unworded, on the first value a
    reader rejects."""
    return list(map(make, *(_column(values, read, default, stamps)
                            for values, (_, read, default, _) in zip(columns, fields))))


def _word(rows: list, fields, where_of) -> None:
    """`_walk` of `rows`: the error naming the first bad record, `where_of(its index)`."""
    _walk(rows, where_of, lambda rec, where: [
        read(rec[key], where) if default is _REQUIRED else _opt(rec, key, read, where, default)
        for key, read, default, _ in fields])


def _decode(rows: list, fields, make, where_of, stamps: dict) -> list:
    """`make(*fields)` of each record of `rows`, a column at a time; if one
    fails, `_word` words the error."""
    try:
        return _decode_columns([[rec[key] for rec in rows] if default is _REQUIRED
                                else [rec.get(key) for rec in rows]
                                for key, _, default, _ in fields], fields, make, stamps)
    except _BAD:
        _word(rows, fields, where_of)
        raise


# the inverse of each reader whose value is not written as it is read
_WRITE = {_time: iso, _dec: fmt_dec,
          _shares: lambda shares: [fmt_dec(s) for s in shares] or None,
          _histogram: lambda hist: {k: str(v) for k, v in sorted(hist.items())} or None}


# the same for a CSV cell: a flag as true or false, a list as `a;b`, an object as `k:v;...`
_CSV_WRITE = {**_WRITE, _flag: lambda flag: "true" if flag else "false",
              _shares: lambda shares: ";".join(map(fmt_dec, shares)),
              _histogram: lambda hist: ";".join("%s:%s" % kv for kv in sorted(hist.items()))}


def _encode(records, fields) -> list:
    """Each record as the object `_decode` reads back with `fields`, built one
    at a time; null if absent. `save_panel` calls it on one chunk of a series
    at a time, so a save holds one chunk's objects, not the whole series."""
    plan = [(key, attrgetter(attr or key), _WRITE.get(read)) for key, read, _, attr in fields]
    # plain loops: a comprehension nested in one builds a function per record
    out = []
    for rec in records:
        obj = {}
        for key, get, write in plan:
            value = get(rec)
            obj[key] = value if value is None or write is None else write(value)
        out.append(obj)
    return out


@contextmanager
def _open(path: str, newline=None):
    """The text file at `path`. MissingSeriesError unless it is a regular
    file; SchemaError naming it if it does not decode."""
    if not os.path.isfile(path):
        raise MissingSeriesError("missing file: %s" % path)
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except (csv.Error, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError("%s: %s" % (path, exc))


@contextmanager
def replacing(path: str, newline=None):
    """A text file to write `path` through, the one way this package writes a
    file. It is written under a temporary name in the same directory and
    renamed over `path` when the block completes; on any exception it is
    removed, so `path` keeps its old bytes. The file gets the mode, and an
    existing `path` the refusal, that `open(path, "w")` gives. A `path` that
    is not a regular file (a FIFO) or is under /dev or /proc is written in place."""
    if not path:   # refused as open() refuses it, not resolved to the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    try:
        old = os.stat(path)   # the kernel follows /proc fd links; realpath cannot
    except FileNotFoundError:
        old = None   # a new file: 0o666 less the umask, as open() makes it
    if (old is not None and not stat.S_ISREG(old.st_mode)
            or os.path.abspath(path).startswith(("/dev/", "/proc/"))):   # /dev/stdout
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    if old is not None:   # refused as open() refuses it, though the directory is writable
        os.close(os.open(path, os.O_WRONLY))
    real = os.path.realpath(path)   # a symlink's target is replaced, not the link
    head, tail = os.path.split(real)
    for n in count():   # O_EXCL: never a file another writer holds
        tmp = os.path.join(head, ".%s.%d-%d.tmp" % (tail, os.getpid(), n))
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:   # name the path asked for, as open(path, "w") does
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            yield fh
        try:
            os.replace(tmp, real)
        except OSError as exc:   # name the path asked for, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        with suppress(OSError):   # the error that stopped the write is the one to see
            os.unlink(tmp)
        raise


def _read_json(path: str):
    with _open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- CSV series

def _stripped(cells) -> list:
    """A CSV column's cells, stripped; None where a cell is empty, as a record
    leaves out its field."""
    return list(map(str.strip, cells)) if "" not in cells else [
        cell.strip() if cell else None for cell in cells]


def _read_csv(path: str, fields, make, prep=None, stamps=None) -> list:
    """The records of the CSV file at `path`, each its row's nonempty cells,
    stripped, after `prep` of the columns, decoded as `_decode` decodes them
    (sharing the timestamp memo `stamps`, if given), but from the columns of the
    rows: a record is built only if a column fails, when `_word` reads them
    again record by record and names the first bad one by its line in the file.
    A short row has empty cells to the header's width; a name the header repeats
    takes the last nonempty cell of its columns."""
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows, lines = [], []   # each nonempty row, and the line of the file it ends on
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    width = len(header)
    if set(map(len, rows)) - {width}:
        rows = [(row + [""] * width)[:width] for row in rows]
    raw = {}
    for i, key in enumerate(header):
        cells = list(map(itemgetter(i), rows))
        raw[key] = cells if key not in raw else [new or old for old, new in zip(raw[key], cells)]
    absent = [None] * len(rows)
    columns = {key: _stripped(raw[key]) if key in raw else absent for key, *_ in fields}
    if prep:
        prep(columns)
    values = list(columns.values())
    stamps = {} if stamps is None else stamps
    try:
        if any(None in column for column, f in zip(values, fields) if f.default is _REQUIRED):
            raise KeyError   # a record without a required field
        return _decode_columns(values, fields, make, stamps)
    except _BAD:
        _word([{k: v for k, v in zip(columns, rec) if v is not None} for rec in zip(*values)],
              fields, lambda i: "%s line %d" % (path, lines[i]))
        raise


def _write_csv(path: str, records, fields) -> None:
    """A row per record, columns in `fields` order, each column written through
    `_CSV_WRITE` of its reader in one pass; csv writes None as an empty cell."""
    columns = [[value if value is None or write is None else write(value)
                for value in map(attrgetter(attr or key), records)]
               for key, read, _, attr in fields for write in (_CSV_WRITE.get(read),)]
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f.key for f in fields])
        w.writerows(zip(*columns))


def read_candles_csv(path: str, stamps=None) -> list:
    return _read_csv(path, _CANDLE, Candle4H, stamps=stamps)


def write_candles_csv(path: str, candles) -> None:
    _write_csv(path, candles, _CANDLE)


_FUNDING_ROW = (_Field("time", _time), _Field("rate", _dec), *_FUNDING[-2:])
_FundingRow = NamedTuple("_FundingRow", [(f.key, object) for f in _FUNDING_ROW])


def read_funding_csv(path: str, stamps=None) -> list:
    """Raw settlement rows: (time, per-interval rate, mark, index)."""
    return _read_csv(path, _FUNDING_ROW, lambda *row: row, stamps=stamps)


def write_funding_csv(path: str, rows) -> None:
    """rows: (time, per-interval rate, mark, index) tuples."""
    _write_csv(path, list(map(_FundingRow._make, rows)), _FUNDING_ROW)


def _pairs(cell: str):
    """A histogram cell `k:v;...` as a panel holds it; one that is not such
    pairs stays text, which `_histogram` rejects."""
    pairs = [pair.split(":") for pair in cell.split(";")]
    return dict(pairs) if all(len(pair) == 2 for pair in pairs) else cell


def _split_cells(columns: dict) -> None:
    """The shares `a;b` and histograms of the rows as a panel holds them."""
    columns["holder_shares"] = [cell if cell is None else cell.split(";")
                                for cell in columns["holder_shares"]]
    columns["leverage_histogram"] = [cell if cell is None else _pairs(cell)
                                     for cell in columns["leverage_histogram"]]


def read_oi_csv(path: str, stamps=None) -> list:
    return _read_csv(path, _OI, _oi, _split_cells, stamps)


def write_oi_csv(path: str, records) -> None:
    _write_csv(path, records, _OI)


def read_liquidations_csv(path: str, stamps=None) -> list:
    return _read_csv(path, _LIQUIDATION, _liquidation, stamps=stamps)


def write_liquidations_csv(path: str, events) -> None:
    # the side is read first, to word a bad record's error, but is the last column
    _write_csv(path, events, _LIQUIDATION[1:] + _LIQUIDATION[:1])


def read_ticks_csv(path: str, exchange_id: str = "", stamps=None) -> list:
    def venue(columns: dict) -> None:   # `exchange_id` where a row has none
        columns["exchange_id"] = [exchange_id if cell is None else cell
                                  for cell in columns["exchange_id"]]

    return _read_csv(path, (_Field("time", _time), _Field("price", _dec), _Field("volume", _dec),
                            _Field("exchange_id", _text)), RawTick, venue, stamps)


# ------------------------------------------------------------ book snapshots

def book_to_line(snap: BookSnapshot) -> str:
    return "|".join([iso(snap.time), snap.bids, snap.asks])


def _book_side(chunk: str, where: str) -> str:
    """A canonical side (`CANONICAL_LEVELS`) verbatim; any other as the
    `levels_text` of its levels, or SchemaError if one is malformed."""
    if CANONICAL_LEVELS.fullmatch(chunk):
        return chunk
    out = []
    for pair in chunk.split():
        bits = pair.split(":")
        if len(bits) != 2:
            raise SchemaError("%s: bad level %r" % (where, pair))
        out.append((_dec(bits[0], where), _dec(bits[1], where)))
    return levels_text(out)


def book_from_line(line: str, where: str = "book", time=None) -> BookSnapshot:
    """A snapshot whose sides are each `_book_side` of the line's (at `time`, if parsed)."""
    parts = line.rstrip("\n").split("|")
    if len(parts) != 3:
        raise SchemaError("%s: want time|bids|asks, got %d fields" % (where, len(parts)))
    return BookSnapshot(_time(parts[0], where) if time is None else time,
                        _book_side(parts[1], where), _book_side(parts[2], where))


def _decode_books(lines: list, where_of, stamps: dict) -> Books:
    """The lines as `Books`: the times parsed now as one column (as `_decode`,
    `_walk` naming the first bad line), each line by `book_from_line` when read."""
    try:
        times = _column([line.partition("|")[0] for line in lines], _time, _REQUIRED, stamps)
    except _BAD:
        _walk(lines, where_of, book_from_line, str)
        raise
    return Books(lines, times, book_from_line, where_of)


def read_books(path: str, stamps=None) -> list:
    with _open(path) as fh:
        numbered = [(i, line) for i, line in enumerate(fh, 1) if line.strip()]
    return list(_decode_books([line for _, line in numbered],
                              lambda k: "%s line %d" % (path, numbered[k][0]),
                              {} if stamps is None else stamps))


def write_books(path: str, snaps) -> None:
    with replacing(path) as fh:
        for s in snaps:
            fh.write(book_to_line(s) + "\n")


# ------------------------------------------------------------------- panels

def _panel_doc(panel: Panel, series) -> dict:
    """The panel document, each record series as `series(records, fields)`
    (`fields` None for the book lines): the one statement of its members."""
    return {"schema_version": SCHEMA_VERSION, "kind": "panel", "instrument": panel.instrument,
            **{key: series(getattr(panel, key), fields) for key, fields, _ in _SERIES},
            "annotations": panel.annotations}


def _series_doc(records, fields) -> list:
    """A record series as its panel document holds it: objects, or book lines."""
    return _encode(records, fields) if fields else list(map(book_to_line, records))


def panel_to_dict(panel: Panel) -> dict:
    return _panel_doc(panel, _series_doc)


def panel_from_dict(doc: dict, where: str = "panel") -> Panel:
    if not isinstance(doc, dict) or doc.get("kind") != "panel":
        raise SchemaError("%s: not a panel document" % where)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("%s: unsupported schema_version %r"
                          % (where, doc.get("schema_version")))
    annotations = doc.get("annotations") or {}
    if not isinstance(annotations, dict):
        raise SchemaError("%s: annotations must be an object" % where)
    instrument = doc.get("instrument", "")
    if not isinstance(instrument, str):
        raise SchemaError("%s: instrument must be a string" % where)
    stamps = {}   # timestamp text -> epoch seconds, across the series

    def series(key: str, fields, make) -> list:
        rows = doc.get(key, [])
        if not isinstance(rows, list):
            raise SchemaError("%s: %s must be a list" % (where, key))
        at = (lambda i: "%s: %s[%d]" % (where, key, i), stamps)
        return _decode(rows, fields, make, *at) if fields else _decode_books(rows, *at)

    return Panel(instrument=instrument, annotations=annotations,
                 **{key: series(key, fields, make) for key, fields, make in _SERIES})


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
# depth -> (C encoder, first-member indent, separator, closing indent), built once
# per depth; an encoder made with no markers dict holds no state between calls
_LEVELS = {}
_HOLD_PARTS = 512   # text parts a streamed write gathers before passing them on
_CHUNK_RECORDS = 256   # records of a series `save_panel` encodes and holds at a time


def _is_scalar(value) -> bool:
    return isinstance(value, (str, int, float)) or value is None


def _level(depth: int) -> tuple:
    got = _LEVELS.get(depth)
    if got is None:
        indent = "\n" + "  " * (depth + 1)
        got = _LEVELS[depth] = (
            c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                           None, ": ", "," + indent, True, False, True),
            indent, "," + indent, "\n" + "  " * depth)
    return got


def _emit(value, depth: int, parts: list, path: set, write) -> None:
    """Append the text of `value` at `depth` to `parts`. With `write`, first
    pass it the parts held, at this member boundary, if they are more than
    `_HOLD_PARTS`. `path` holds the ids of the containers being walked."""
    if write is not None and len(parts) > _HOLD_PARTS:
        write("".join(parts))
        parts.clear()
    enc, indent, sep, outer = _level(depth)
    if isinstance(value, dict):
        members = value.values()
    elif isinstance(value, (list, tuple)):
        members = value
    else:
        parts.append("".join(enc(value, 0)))
        return
    if not value:
        parts.append("[]" if members is value else "{}")
        return
    # the exact-type test is the fast one; subclasses (np.float64) take the second
    if _SCALAR_TYPES.issuperset(map(type, members)) or all(map(_is_scalar, members)):
        text = "".join(enc(value, 0))
        parts.extend((text[0], indent, text[1:-1], outer, text[-1]))
        return
    if id(value) in path:
        raise ValueError("Circular reference detected")
    path.add(id(value))
    if members is value:
        parts.append("[")
        for i, member in enumerate(value):
            parts.append(sep if i else indent)
            _emit(member, depth + 1, parts, path, write)
        parts.extend((outer, "]"))
    else:
        parts.append("{")
        for i, (key, member) in enumerate(sorted(value.items())):
            if not _is_scalar(key):
                raise TypeError("keys must be str, int, float, bool or None, "
                                "not %s" % key.__class__.__name__)
            if not isinstance(key, str):
                key = "".join(enc(key, 0))
            parts.append(sep if i else indent)
            parts.append(encode_basestring_ascii(key) + ": ")
            _emit(member, depth + 1, parts, path, write)
        parts.extend((outer, "}"))
    path.remove(id(value))


def dump_json(doc, write=None):
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, byte for byte; or,
    given `write`, the same text passed to `write` in pieces as it is encoded,
    so that no more than about `_HOLD_PARTS` parts are held at a time.

    With `indent`, `json.dumps` runs the pure-Python encoder. Here Python
    walks only the containers that hold containers: every scalar, and every
    dict, list or tuple whose members are all scalars, is written by the C
    encoder built for its depth. Errors are those of `json.dumps`: the same
    TypeError for an unserializable value or key, and ValueError for a
    circular reference. Without `write`, all parts go to one list, joined once.
    """
    parts = []
    _emit(doc, 0, parts, set(), write)
    parts.append("\n")
    if write is None:
        return "".join(parts)
    write("".join(parts))
    return None


def _write_series(records, fields, write) -> None:
    """`_series_doc(records, fields)` as a member of the panel document,
    encoded and passed to `write` `_CHUNK_RECORDS` records at a time."""
    _, indent, sep, outer = _level(1)
    head, tail = "[" + indent, "[]"
    records = iter(records)
    for chunk in iter(lambda: list(islice(records, _CHUNK_RECORDS)), []):
        parts = []
        _emit(_series_doc(chunk, fields), 1, parts, set(), None)
        # parts are "[", indent, the members, outer, "]"; the series joins the chunks by sep
        write(head + "".join(parts[2:-2]))
        head, tail = sep, outer + "]"
    write(tail)


def save_panel(path: str, panel: Panel) -> None:
    """Write the bytes of `dump_json(panel_to_dict(panel))` as they are
    encoded, so the write holds one chunk of records beyond the panel."""
    doc = _panel_doc(panel, lambda records, fields: partial(_write_series, records, fields))
    _, indent, sep, outer = _level(0)
    with replacing(path) as fh:
        for i, (key, value) in enumerate(sorted(doc.items())):
            fh.write((sep if i else "{" + indent) + encode_basestring_ascii(key) + ": ")
            if isinstance(value, partial):   # a record series
                value(fh.write)
            else:
                parts = []
                _emit(value, 1, parts, set(), fh.write)
                fh.write("".join(parts))
        fh.write(outer + "}\n")


def load_panel(path: str) -> Panel:
    return panel_from_dict(_read_json(path), path)


# ------------------------------------------------------------------ reports

def write_report(out, doc: dict) -> None:
    """`doc`, stamped with `schema_version` unless it holds one, written as
    `dump_json` encodes it to `out`: a file path, or an open text stream."""
    doc = dict(doc)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    if hasattr(out, "write"):
        dump_json(doc, out.write)
        return
    with replacing(out) as fh:
        dump_json(doc, fh.write)


def load_report(path: str) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("%s: report must be an object" % path)
    return doc


# ----------------------------------------------------------------- manifest

def load_manifest(path: str) -> dict:
    """The manifest at `path`. SchemaError names the first field that
    `ingest_manifest` reads and that is missing or of the wrong type."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("%s: manifest must be an object" % path)

    def need(ok, field: str, want: str) -> None:
        if not ok:
            raise SchemaError("%s: manifest %s must be %s" % (path, field, want))

    if not doc.get("instrument"):
        raise SchemaError("%s: manifest needs an instrument" % path)
    need(isinstance(doc["instrument"], str), "instrument", "a string")
    exchanges = doc.get("exchanges")
    if not isinstance(exchanges, list) or not exchanges:
        raise SchemaError("%s: manifest needs a nonempty exchange list" % path)
    for i, ex in enumerate(exchanges):
        need(isinstance(ex, dict), "exchanges[%d]" % i, "an object")
        if not ex.get("name"):
            raise SchemaError("%s: exchange %d needs a name" % (path, i))
        if "candles" not in ex and "ticks" not in ex:
            raise SchemaError("%s: exchange %r needs candles or ticks"
                              % (path, ex["name"]))
        source = "candles" if "candles" in ex else "ticks"
        need(ex[source] and isinstance(ex[source], str),
             "exchanges[%d].%s" % (i, source), "a file path")
        volume = ex.get("volume_30d")   # `vwap_merge` holds it as a `d12`
        need(type(volume) in (int, float) and 0 <= volume < 1e16,
             "exchanges[%d].volume_30d" % i, "a number >= 0 and < 1e16")
    sources = doc.get("funding") or []
    need(isinstance(sources, list), "funding", "a list")
    for i, src in enumerate(sources):
        need(isinstance(src, dict), "funding[%d]" % i, "an object")
        need(src.get("path") and isinstance(src["path"], str),
             "funding[%d].path" % i, "a file path")
        need(type(src.get("interval_hours", 8)) is int,
             "funding[%d].interval_hours" % i, "an integer")
    for key in ("open_interest", "books", "liquidations"):
        need(isinstance(doc.get(key) or "", str), key, "a file path")
    for key in ("config", "annotations"):
        need(isinstance(doc.get(key) or {}, dict), key, "an object")
    return doc


def _rel(base_dir: str, p: str) -> str:
    return p if os.path.isabs(p) else os.path.join(base_dir, p)


def _by_time(records: list, key=attrgetter("time")) -> list:
    """A source series in time order. The sort is stable, so records with
    equal times keep their file order."""
    return sorted(records, key=key)


def _volume(ex: dict) -> Decimal:
    return Decimal(str(ex["volume_30d"]))


def ingest_manifest(path: str, cfg: Optional[Config] = None) -> tuple:
    """Parse, merge and clean everything a manifest points at.

    Returns (panel, quality report, effective config). Each source series
    is read in time order (`_by_time`). The top venues by 30-day volume are
    merged by `vwap_merge`, each bar over the venues that have it; a venue
    file with two bars at one time is refused. Funding comes from the
    authoritative source (or the first listed).
    """
    doc = load_manifest(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    if cfg is None:
        cfg = DEFAULTS
    overrides = doc.get("config") or {}
    if overrides:
        cfg = cfg.replace(**overrides)

    # a stable sort: venues of equal volume keep their manifest order
    picked = sorted(doc["exchanges"], key=_volume, reverse=True)[:cfg.merge_top_exchanges]
    stamps = {}   # timestamp text -> epoch seconds, across every file read
    series = []
    for ex in picked:
        source = _rel(base_dir, ex.get("candles") or ex["ticks"])
        if "candles" in ex:
            bars = _by_time(read_candles_csv(source, stamps), attrgetter("open_time"))
        else:
            bars = align_4h(_by_time(read_ticks_csv(source, ex["name"], stamps)))
        twice = next((b.open_time for a, b in zip(bars, bars[1:])
                      if a.open_time == b.open_time), None)
        if twice is not None:
            raise SchemaError("%s: two bars at %s" % (source, iso(twice)))
        series.append(bars)
    merged = vwap_merge(series, list(map(_volume, picked)))

    funding = []
    sources = doc.get("funding") or []
    if sources:
        chosen = next((s for s in sources if s.get("authoritative")), sources[0])
        interval = chosen.get("interval_hours", 8)
        rows = _by_time(read_funding_csv(_rel(base_dir, chosen["path"]), stamps), itemgetter(0))
        funding = [FundingRecord(
            settle_time=t,
            rate_8h=normalize_funding(rate, interval),
            source_interval_hours=interval,
            mark_price=mark, index_price=index,
        ) for t, rate, mark, index in rows]

    def side(key: str, read) -> list:
        return _by_time(read(_rel(base_dir, doc[key]), stamps)) if doc.get(key) else []

    oi = side("open_interest", read_oi_csv)
    books = side("books", read_books)
    liqs = side("liquidations", read_liquidations_csv)

    panel = Panel(
        instrument=doc["instrument"],
        candles=merged, funding=funding, open_interest=oi,
        books=books, liquidations=liqs,
        annotations=doc.get("annotations") or {},
    )
    cleaned, report = run_pipeline(panel, cfg)
    return cleaned, report, cfg

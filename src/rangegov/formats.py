"""File formats: headered CSV series, line-delimited book snapshots, panel
and report documents, ingest manifests.

Prices, rates and sizes are serialized as plain decimal strings so panels
survive a round trip without binary-float drift.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

from .config import Config, DEFAULTS
from .errors import MissingSeriesError, SchemaError
from .ingestion import RawTick, align_4h, normalize_funding, vwap_merge
from .model import (
    CANONICAL_LEVELS,
    BookSnapshot,
    Candle4H,
    FundingRecord,
    LiquidationEvent,
    OpenInterestRecord,
    Panel,
    d12,
    fmt_dec,
    iso,
    levels_text,
    parse_iso,
)
from .quality import run_pipeline

SCHEMA_VERSION = "1"


def _dec(raw: str, where: str) -> Decimal:
    try:
        return d12(Decimal(raw))
    except (InvalidOperation, ValueError, TypeError):
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


def _opt(rec: dict, key: str, read, where: str, default=None):
    """`read(rec[key], where)`, or `default` if the field is absent, null or ""."""
    raw = rec.get(key)
    return default if raw is None or raw == "" else read(raw, where)


# ------------------------------------------------------------------ records
# One builder per record, called by its CSV reader and by panel_from_dict.

def _candle(rec: dict, where: str) -> Candle4H:
    return Candle4H(
        open_time=_time(rec["time"], where), open=_dec(rec["open"], where),
        high=_dec(rec["high"], where), low=_dec(rec["low"], where),
        close=_dec(rec["close"], where), volume=_dec(rec["volume"], where),
        exchange_count=_opt(rec, "exchange_count", _int, where, 1),
        interpolated=_opt(rec, "interpolated", _flag, where, False))


def _oi(rec: dict, where: str) -> OpenInterestRecord:
    return OpenInterestRecord(
        time=_time(rec["time"], where), oi_usd=_dec(rec["oi_usd"], where),
        long_oi_usd=_opt(rec, "long_oi_usd", _dec, where),
        short_oi_usd=_opt(rec, "short_oi_usd", _dec, where),
        holder_shares=_opt(rec, "holder_shares", _shares, where),
        leverage_histogram=_opt(rec, "leverage_histogram", _histogram, where))


def _liquidation(rec: dict, where: str) -> LiquidationEvent:
    side = rec["side"]
    if side not in ("long", "short"):
        raise SchemaError("%s: side must be long or short" % where)
    return LiquidationEvent(
        time=_time(rec["time"], where), price=_dec(rec["price"], where),
        size_usd=_dec(rec["size_usd"], where), side=side)


def _records(rows, build, kind=dict) -> list:
    """`build(record, where)` over `(where, record)` pairs; a record that is
    not of `kind` or lacks a field raises SchemaError naming it."""
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


def _read_json(path: str):
    with _open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- CSV series

def _read_csv(path: str, build) -> list:
    """`build(record, where)` over the rows of the CSV file at `path`, each
    record holding its row's nonempty cells, stripped."""
    with _open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        return _records((("%s row %d" % (path, i),
                          {k: v.strip() for k, v in zip(header, row) if v})
                         for i, row in enumerate(filter(None, rows))), build)


def read_candles_csv(path: str) -> list:
    return _read_csv(path, _candle)


def write_candles_csv(path: str, candles) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "open", "high", "low", "close", "volume",
                    "exchange_count", "interpolated"])
        for c in candles:
            w.writerow([iso(c.open_time), fmt_dec(c.open), fmt_dec(c.high),
                        fmt_dec(c.low), fmt_dec(c.close), fmt_dec(c.volume),
                        c.exchange_count, str(c.interpolated).lower()])


def read_funding_csv(path: str) -> list:
    """Raw settlement rows: (time, per-interval rate, mark, index)."""
    return _read_csv(path, lambda rec, where: (
        _time(rec["time"], where), _dec(rec["rate"], where),
        _opt(rec, "mark_price", _dec, where), _opt(rec, "index_price", _dec, where)))


def write_funding_csv(path: str, rows, interval_hours: int = 8) -> None:
    """rows: (time, per-interval rate, mark, index) tuples."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "rate", "mark_price", "index_price"])
        for t, rate, mark, index in rows:
            w.writerow([iso(t), fmt_dec(rate),
                        fmt_dec(mark) if mark is not None else "",
                        fmt_dec(index) if index is not None else ""])


def read_oi_csv(path: str) -> list:
    def build(rec: dict, where: str) -> OpenInterestRecord:
        # a CSV row holds its shares as `a;b` and its histogram as `k:v;...`
        if "holder_shares" in rec:
            rec["holder_shares"] = rec["holder_shares"].split(";")
        hist = rec.get("leverage_histogram")
        if hist:
            pairs = [pair.split(":") for pair in hist.split(";")]
            if any(len(pair) != 2 for pair in pairs):
                raise SchemaError("%s: bad leverage histogram %r" % (where, hist))
            rec["leverage_histogram"] = dict(pairs)
        return _oi(rec, where)

    return _read_csv(path, build)


def write_oi_csv(path: str, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "oi_usd", "long_oi_usd", "short_oi_usd",
                    "holder_shares", "leverage_histogram"])
        for r in records:
            shares = ";".join(fmt_dec(s) for s in r.holder_shares) \
                if r.holder_shares else ""
            hist = ";".join("%s:%s" % (k, v) for k, v in
                            sorted(r.leverage_histogram.items())) \
                if r.leverage_histogram else ""
            w.writerow([iso(r.time), fmt_dec(r.oi_usd),
                        fmt_dec(r.long_oi_usd) if r.long_oi_usd is not None else "",
                        fmt_dec(r.short_oi_usd) if r.short_oi_usd is not None else "",
                        shares, hist])


def read_liquidations_csv(path: str) -> list:
    return _read_csv(path, _liquidation)


def write_liquidations_csv(path: str, events) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "price", "size_usd", "side"])
        for e in events:
            w.writerow([iso(e.time), fmt_dec(e.price), fmt_dec(e.size_usd), e.side])


def read_ticks_csv(path: str, exchange_id: str = "") -> list:
    return _read_csv(path, lambda rec, where: RawTick(
        time=_time(rec["time"], where), price=_dec(rec["price"], where),
        volume=_dec(rec["volume"], where), exchange_id=rec.get("exchange_id", exchange_id)))


# ------------------------------------------------------------ book snapshots

def book_to_line(snap: BookSnapshot) -> str:
    return "|".join([iso(snap.time), snap.bids, snap.asks])


def book_from_line(line: str, where: str = "book") -> BookSnapshot:
    """A canonical side (`CANONICAL_LEVELS`) is held verbatim; any other side
    is decoded here, where a malformed one raises SchemaError, and held as the
    `levels_text` of its levels."""
    parts = line.rstrip("\n").split("|")
    if len(parts) != 3:
        raise SchemaError("%s: want time|bids|asks, got %d fields" % (where, len(parts)))

    def side(chunk: str) -> str:
        if CANONICAL_LEVELS.fullmatch(chunk):
            return chunk
        out = []
        for pair in chunk.split():
            bits = pair.split(":")
            if len(bits) != 2:
                raise SchemaError("%s: bad level %r" % (where, pair))
            out.append((_dec(bits[0], where), _dec(bits[1], where)))
        return levels_text(out)

    return BookSnapshot(_time(parts[0], where), side(parts[1]), side(parts[2]))


def read_books(path: str) -> list:
    with _open(path) as fh:
        return _records((("%s line %d" % (path, i), line)
                         for i, line in enumerate(fh) if line.strip()), book_from_line, str)


def write_books(path: str, snaps) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in snaps:
            fh.write(book_to_line(s) + "\n")


# ------------------------------------------------------------------- panels

def panel_to_dict(panel: Panel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "panel",
        "instrument": panel.instrument,
        "candles": [{
            "time": iso(c.open_time), "open": fmt_dec(c.open),
            "high": fmt_dec(c.high), "low": fmt_dec(c.low),
            "close": fmt_dec(c.close), "volume": fmt_dec(c.volume),
            "exchange_count": c.exchange_count, "interpolated": c.interpolated,
        } for c in panel.candles],
        "funding": [{
            "time": iso(f.settle_time), "rate_8h": fmt_dec(f.rate_8h),
            "source_interval_hours": f.source_interval_hours,
            "exchange_count": f.exchange_count,
            "mark_price": fmt_dec(f.mark_price) if f.mark_price is not None else None,
            "index_price": fmt_dec(f.index_price) if f.index_price is not None else None,
        } for f in panel.funding],
        "open_interest": [{
            "time": iso(r.time), "oi_usd": fmt_dec(r.oi_usd),
            "long_oi_usd": fmt_dec(r.long_oi_usd) if r.long_oi_usd is not None else None,
            "short_oi_usd": fmt_dec(r.short_oi_usd) if r.short_oi_usd is not None else None,
            "holder_shares": [fmt_dec(s) for s in r.holder_shares]
            if r.holder_shares else None,
            "leverage_histogram": {k: str(v) for k, v in sorted(r.leverage_histogram.items())}
            if r.leverage_histogram else None,
        } for r in panel.open_interest],
        "books": [book_to_line(b) for b in panel.books],
        "liquidations": [{
            "time": iso(e.time), "price": fmt_dec(e.price),
            "size_usd": fmt_dec(e.size_usd), "side": e.side,
        } for e in panel.liquidations],
        "annotations": panel.annotations,
    }


def _funding(rec: dict, where: str) -> FundingRecord:
    """A panel funding record, its rate already on the 8H basis."""
    return FundingRecord(
        settle_time=_time(rec["time"], where), rate_8h=_dec(rec["rate_8h"], where),
        source_interval_hours=_opt(rec, "source_interval_hours", _int, where, 8),
        exchange_count=_opt(rec, "exchange_count", _int, where, 1),
        mark_price=_opt(rec, "mark_price", _dec, where),
        index_price=_opt(rec, "index_price", _dec, where))


def panel_from_dict(doc: dict, where: str = "panel") -> Panel:
    if not isinstance(doc, dict) or doc.get("kind") != "panel":
        raise SchemaError("%s: not a panel document" % where)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("%s: unsupported schema_version %r"
                          % (where, doc.get("schema_version")))
    annotations = doc.get("annotations") or {}
    if not isinstance(annotations, dict):
        raise SchemaError("%s: annotations must be an object" % where)

    def series(key: str, build, kind=dict) -> list:
        rows = doc.get(key, [])
        if not isinstance(rows, list):
            raise SchemaError("%s: %s must be a list" % (where, key))
        return _records((("%s: %s[%d]" % (where, key, i), rec)
                         for i, rec in enumerate(rows)), build, kind)

    return Panel(
        instrument=doc.get("instrument", ""),
        candles=series("candles", _candle),
        funding=series("funding", _funding),
        open_interest=series("open_interest", _oi),
        books=series("books", book_from_line, str),
        liquidations=series("liquidations", _liquidation),
        annotations=annotations,
    )


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _is_scalar(value) -> bool:
    return isinstance(value, (str, int, float)) or value is None


def dump_json(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, byte for byte.

    With `indent`, `json.dumps` runs the pure-Python encoder. Here Python
    walks only the containers that hold containers: every scalar, and every
    dict, list or tuple whose members are all scalars, is written by the C
    encoder built for its depth. Errors are those of `json.dumps`: the same
    TypeError for an unserializable value or key, and ValueError for a
    circular reference. All parts go to one list, joined once.
    """
    parts = []
    levels = {}   # depth -> (C encoder, first-member indent, separator, closing indent)
    path = set()  # ids of the containers being walked

    def level(depth: int) -> tuple:
        got = levels.get(depth)
        if got is None:
            indent = "\n" + "  " * (depth + 1)
            got = levels[depth] = (
                c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                               None, ": ", "," + indent, True, False, True),
                indent, "," + indent, "\n" + "  " * depth)
        return got

    def emit(value, depth: int) -> None:
        enc, indent, sep, outer = level(depth)
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
                emit(member, depth + 1)
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
                emit(member, depth + 1)
            parts.extend((outer, "}"))
        path.remove(id(value))

    emit(doc, 0)
    parts.append("\n")
    return "".join(parts)


def save_panel(path: str, panel: Panel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(panel_to_dict(panel)))


def load_panel(path: str) -> Panel:
    return panel_from_dict(_read_json(path), path)


# ------------------------------------------------------------------ reports

def write_report(path: str, doc: dict) -> None:
    doc = dict(doc)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(doc))


def load_report(path: str) -> dict:
    return _read_json(path)


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
        need(type(ex.get("volume_30d")) in (int, float),
             "exchanges[%d].volume_30d" % i, "a number")
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


def ingest_manifest(path: str, cfg: Optional[Config] = None) -> tuple:
    """Parse, merge and clean everything a manifest points at.

    Returns (panel, quality report, effective config). Venue candle series are
    VWAP-merged across the top venues by 30-day volume; funding comes from the
    authoritative source (or the first listed).
    """
    doc = load_manifest(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    if cfg is None:
        cfg = DEFAULTS
    overrides = doc.get("config") or {}
    if overrides:
        cfg = cfg.replace(**overrides)

    ranked = sorted(doc["exchanges"], key=lambda ex: -float(ex["volume_30d"]))
    picked = ranked[:cfg.merge_top_exchanges]
    series = []
    weights = []
    for ex in picked:
        if "candles" in ex:
            series.append(read_candles_csv(_rel(base_dir, ex["candles"])))
        else:
            ticks = read_ticks_csv(_rel(base_dir, ex["ticks"]), exchange_id=ex["name"])
            series.append(align_4h(ticks))
        weights.append(Decimal(str(ex["volume_30d"])))
    merged = vwap_merge(series, weights)

    funding = []
    sources = doc.get("funding") or []
    if sources:
        chosen = next((s for s in sources if s.get("authoritative")), sources[0])
        interval = chosen.get("interval_hours", 8)
        rows = read_funding_csv(_rel(base_dir, chosen["path"]))
        funding = [FundingRecord(
            settle_time=t,
            rate_8h=normalize_funding(rate, interval),
            source_interval_hours=interval,
            mark_price=mark, index_price=index,
        ) for t, rate, mark, index in rows]

    oi = read_oi_csv(_rel(base_dir, doc["open_interest"])) \
        if doc.get("open_interest") else []
    books = read_books(_rel(base_dir, doc["books"])) if doc.get("books") else []
    liqs = read_liquidations_csv(_rel(base_dir, doc["liquidations"])) \
        if doc.get("liquidations") else []

    panel = Panel(
        instrument=doc["instrument"],
        candles=merged, funding=funding, open_interest=oi,
        books=books, liquidations=liqs,
        annotations=doc.get("annotations") or {},
    )
    cleaned, report = run_pipeline(panel, cfg)
    return cleaned, report, cfg

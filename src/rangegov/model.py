"""Core record types for normalized 4H panels.

Conventions, fixed across the package:
  - timestamps are integer epoch seconds, UTC
  - prices, rates and sizes are Decimal at 12 fractional digits: `d12` runs where a
    number enters (decode, `synth`, ingest arithmetic), where a result is stored, and
    once per `Config` threshold per call; a rule takes a record's Decimals as they are
  - candles sit on the 4H UTC grid (open_time % 14400 == 0)
  - open interest is USD-denominated
  - a record is a `NamedTuple`, changed into a new one by `record._replace(...)`;
    no class is a dataclass: a panel, which coerces its series and keeps a memo,
    and a book snapshot, which keeps what it decoded, are `__slots__` classes
    whose fields cannot be assigned, changed the same way (`panel._replace(...)`)
"""
from __future__ import annotations

import operator
import re
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import partial
from time import gmtime, strftime
from typing import NamedTuple, Optional, Sequence

from .config import DEFAULTS
from .errors import DataError, SchemaError

BAR_SECONDS = 14400
BARS_PER_DAY = 86400 // BAR_SECONDS
SETTLE_SECONDS = 28800   # one 8H funding period
SETTLEMENTS_PER_DAY = 86400 // SETTLE_SECONDS
ANNUALIZE_PCT = SETTLEMENTS_PER_DAY * 365 * 100   # an 8H rate to simple percent per year
ALLOWED_FUNDING_INTERVALS = (4, 8, 12)

_Q12 = Decimal("0.000000000001")


def d12(value) -> Decimal:
    """Coerce to Decimal at 12 fractional digits.

    Floats go through repr() so 0.0005 means the literal 0.0005, not its
    binary expansion. NaN and infinities are rejected.
    """
    try:
        if isinstance(value, Decimal):
            out = value.quantize(_Q12)
        elif isinstance(value, float):
            out = Decimal(repr(value)).quantize(_Q12)
        else:
            out = Decimal(value).quantize(_Q12)
    except (InvalidOperation, TypeError) as exc:
        raise DataError(f"not a fixed-point number: {value!r}") from exc
    if out.is_nan():
        raise DataError(f"not a fixed-point number: {value!r}")
    return out


def fmt_dec(value: Decimal) -> str:
    """Canonical plain-notation string, trailing zeros stripped."""
    text = str(value.normalize())
    if "E" in text or "e" in text:
        text = format(value.normalize(), "f")
    return text


def median(values):
    """The middle of `values` (at least one) once sorted, or the mean
    `(a + b) / 2` of the two middle ones for an even count, as
    `statistics.median` gives it."""
    data = sorted(values)
    n = len(data)
    i = n // 2
    return data[i] if n % 2 else (data[i - 1] + data[i]) / 2


def iso(ts: int) -> str:
    return strftime("%Y-%m-%dT%H:%M:%SZ", gmtime(ts))


def parse_iso(text: str) -> int:
    """ISO-8601 UTC to epoch seconds. Accepts Z or +00:00 suffixes."""
    raw = text.strip()
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise SchemaError(f"bad timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


class Violation(NamedTuple):
    field: str
    reason: str


class Candle4H(NamedTuple):
    open_time: int
    open: Decimal
    high: Decimal
    low: Decimal
    close: Decimal
    volume: Decimal            # base units
    exchange_count: int = 1
    interpolated: bool = False

    @property
    def close_time(self) -> int:
        return self.open_time + BAR_SECONDS

    @property
    def typical(self) -> Decimal:
        return (self.high + self.low + self.close) / 3


class FundingRecord(NamedTuple):
    settle_time: int
    rate_8h: Decimal           # normalized to the 8H basis
    source_interval_hours: int = 8
    exchange_count: int = 1
    mark_price: Optional[Decimal] = None
    index_price: Optional[Decimal] = None


class OpenInterestRecord(NamedTuple):
    time: int
    oi_usd: Decimal
    long_oi_usd: Optional[Decimal] = None
    short_oi_usd: Optional[Decimal] = None
    leverage_histogram: Optional[dict] = None   # bucket label -> usd
    holder_shares: Optional[tuple] = None       # fractions, sum to 1

    @property
    def long_share(self) -> Optional[Decimal]:
        if self.long_oi_usd is None or self.short_oi_usd is None:
            return None
        total = self.long_oi_usd + self.short_oi_usd
        if total == 0:
            return None
        return self.long_oi_usd / total


# A book side as `levels_text` writes it: "price:size" pairs separated by
# single spaces, each number plain, with an optional `-` sign (`-0` included),
# without leading or trailing zeros, with at most 16 integer and 12 fractional
# digits. Such a number fits the 28-digit context at 12 places, so `d12`
# cannot fail on it, and `fmt_dec(d12(x)) == x`. ASCII digits only: `Decimal`
# also reads other scripts' digits, which `fmt_dec` would not write back.
_CANONICAL_NUMBER = r"-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]{0,11}[1-9])?"
CANONICAL_LEVELS = re.compile(r"(?:{n}:{n}(?: {n}:{n})*)?".format(n=_CANONICAL_NUMBER))


def levels_text(levels) -> str:
    """A book side ((price, size), ...) of `d12` values as a panel line
    stores it; `BookSnapshot` decodes it back to the same values."""
    return " ".join("%s:%s" % (fmt_dec(p), fmt_dec(s)) for p, s in levels)


def _levels(text: str) -> tuple:
    numbers = [d12(x) for x in text.replace(":", " ").split()]
    return tuple(zip(numbers[::2], numbers[1::2]))


def _best_price(text: str) -> Decimal:
    """The price of a side's first level, the one number of it decoded."""
    return d12(text.replace(":", " ").split(None, 1)[0])


class _Value:
    """A value whose `_fields` are slots set once, by `__init__`: `==` and
    `repr` read the fields, no one can assign them, and `_replace` and a
    pickle or a copy build a new one through `__init__`, as a record's
    `_replace` does. What else an instance keeps is left out of all of them."""
    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values())))

    def __reduce__(self):
        return self.__class__, self._values()

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)


class BookSnapshot(_Value):
    """Each side must be canonical text (`CANONICAL_LEVELS`), as `levels_text`
    writes it and `book_from_line` loads it. It is decoded on first read, so
    copies, `==` and `hash` compare text and decode nothing; the verdict of
    `validate_record` and the best prices are read from the text and kept."""
    _fields = ("time", "bids", "asks")
    __slots__ = _fields + ("_bid_levels", "_ask_levels", "_best_bid", "_best_ask", "_checked")

    def __init__(self, time: int, bids: str, asks: str):
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "bids", bids)    # best first, descending prices
        object.__setattr__(self, "asks", asks)    # best first, ascending prices

    def __hash__(self) -> int:
        return hash(self._values())

    def _keep(self, slot: str, value):
        """`value`, kept in `slot` for every later read."""
        object.__setattr__(self, slot, value)
        return value

    @property
    def bid_levels(self) -> tuple:
        try:
            return self._bid_levels
        except AttributeError:
            return self._keep("_bid_levels", _levels(self.bids))

    @property
    def ask_levels(self) -> tuple:
        try:
            return self._ask_levels
        except AttributeError:
            return self._keep("_ask_levels", _levels(self.asks))

    @property
    def best_bid(self) -> Decimal:
        try:
            return self._best_bid
        except AttributeError:
            return self._keep("_best_bid", _best_price(self.bids))

    @property
    def best_ask(self) -> Decimal:
        try:
            return self._best_ask
        except AttributeError:
            return self._keep("_best_ask", _best_price(self.asks))

    @property
    def mid(self) -> Decimal:
        return (self.best_bid + self.best_ask) / 2

    @property
    def checked(self) -> tuple:
        """(violations, best bid, best ask): what `validate_record` finds wrong
        with this snapshot, and the first price of each side as a float (None
        for an empty side), from one parse of each side on first read, and kept:
        the analytics judge the same latest snapshots many times, and the
        book check screens the spread of those floats."""
        try:
            return self._checked
        except AttributeError:
            return self._keep("_checked", _check_book(self))


class Books(Sequence):
    """A panel's book snapshots and their `times`, read without building one.
    `load_panel` holds each as its line until first read, when `build(line,
    where_of(index), time)` makes it and it is kept: a command builds only what it reads.
    A slice shares what its whole built; a pickle builds all (no path in its bytes)."""

    def __init__(self, snaps=(), times=None, build=None, where_of=None):
        self._held = list(snaps)
        self._at = range(len(self._held))   # the indexes of `_held` in this one
        self.times = tuple(s.time for s in self._held) if times is None else tuple(times)
        self._build, self._where_of = build, where_of

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = Books.__new__(Books)
            part.__dict__.update(self.__dict__, _at=self._at[i], times=self.times[i])
            return part
        j = self._at[i]
        held = self._held[j]
        if not isinstance(held, BookSnapshot):
            held = self._held[j] = self._build(held, self._where_of(j), self.times[i])
        return held

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Books) else NotImplemented

    def __reduce__(self):
        return Books, (list(self),)


class LiquidationEvent(NamedTuple):
    time: int
    price: Decimal
    size_usd: Decimal
    side: str                  # "long" or "short" (the side being liquidated)


class RangeDefinition(NamedTuple):
    lower: Decimal
    upper: Decimal
    established_at: int        # open_time of the bar that completed validation
    touch_count_lower: int = 0
    touch_count_upper: int = 0

    @property
    def midpoint(self) -> Decimal:
        return (self.lower + self.upper) / 2

    @property
    def width_frac(self) -> Decimal:
        return self.upper / self.lower - 1


class Panel(_Value):
    """One instrument's aligned series. Candles are the clock.

    A panel is a value: each series is a tuple (books a `Books`), however it was
    given, and no field can be assigned. A changed one is new (`panel._replace`)."""
    _fields = ("instrument", "candles", "funding", "open_interest", "books",
               "liquidations", "annotations")
    # `_derived` is what `structure.derive` computed for this panel; not a
    # field, so `==`, `repr`, `_replace`, a pickle and a copy leave it out
    __slots__ = _fields + ("_derived", "__weakref__")

    def __init__(self, instrument: str, candles=(), funding=(), open_interest=(),
                 books=(), liquidations=(), annotations: Optional[dict] = None):
        for name, value in zip(self._fields, (
                instrument, tuple(candles), tuple(funding), tuple(open_interest),
                books if isinstance(books, Books) else Books(books), tuple(liquidations),
                {} if annotations is None else annotations)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_derived", None)

    @property
    def start_time(self) -> int:
        return self.candles[0].open_time

    @property
    def end_time(self) -> int:
        return self.candles[-1].close_time


# --- per-record validation -------------------------------------------------

def _positive(value: Optional[Decimal]) -> bool:
    return value is not None and value > 0


def _validate_candle(c: Candle4H) -> list:
    out = []
    if not isinstance(c.open_time, int) or c.open_time % BAR_SECONDS != 0:
        out.append(Violation("open_time", "not on the 4H UTC grid"))
    for name in ("open", "high", "low", "close"):
        if not _positive(getattr(c, name)):
            out.append(Violation(name, "must be > 0"))
    if c.low > min(c.open, c.close):
        out.append(Violation("low", "exceeds min(open, close)"))
    if c.high < max(c.open, c.close):
        out.append(Violation("high", "below max(open, close)"))
    if c.low > c.high:
        out.append(Violation("low", "exceeds high"))
    if c.volume < 0:
        out.append(Violation("volume", "negative"))
    if not isinstance(c.exchange_count, int) or c.exchange_count < 1:
        out.append(Violation("exchange_count", "must be a positive integer"))
    return out


def _validate_funding(r: FundingRecord, hard_bound: Decimal) -> list:
    out = []
    if not isinstance(r.settle_time, int):
        out.append(Violation("settle_time", "not an integer timestamp"))
    if abs(r.rate_8h) >= hard_bound:
        out.append(Violation("rate_8h", f"|{fmt_dec(r.rate_8h)}| at or past hard bound "
                                        f"{fmt_dec(hard_bound)}"))
    if r.source_interval_hours not in ALLOWED_FUNDING_INTERVALS:
        out.append(Violation("source_interval_hours", "must be 4, 8 or 12"))
    for name in ("mark_price", "index_price"):
        value = getattr(r, name)
        if value is not None and value <= 0:
            out.append(Violation(name, "must be > 0 when present"))
    return out


_ONE = Decimal(1)
_RECONCILE = Decimal("1e-9")   # how far legs or shares may miss their total


def _validate_oi(r: OpenInterestRecord) -> list:
    out = []
    if not isinstance(r.time, int):
        out.append(Violation("time", "not an integer timestamp"))
    if r.oi_usd < 0:
        out.append(Violation("oi_usd", "negative"))
    if (r.long_oi_usd is None) != (r.short_oi_usd is None):
        out.append(Violation("long_oi_usd", "long/short split must be both present or both absent"))
    elif r.long_oi_usd is not None:
        if r.long_oi_usd < 0 or r.short_oi_usd < 0:
            out.append(Violation("long_oi_usd", "split legs must be >= 0"))
        else:
            total = r.long_oi_usd + r.short_oi_usd
            scale = max(abs(r.oi_usd), _ONE)
            if abs(total - r.oi_usd) / scale > _RECONCILE:
                out.append(Violation("oi_usd", "long + short does not reconcile with total"))
    if r.holder_shares is not None:
        shares = [d12(s) for s in r.holder_shares]
        if any(s < 0 for s in shares):
            out.append(Violation("holder_shares", "negative share"))
        elif shares and abs(sum(shares) - 1) > _RECONCILE:
            out.append(Violation("holder_shares", "shares do not sum to 1"))
        elif not shares:
            out.append(Violation("holder_shares", "empty share list"))
    if r.leverage_histogram is not None:
        if any(d12(v) < 0 for v in r.leverage_histogram.values()):
            out.append(Violation("leverage_histogram", "negative bucket"))
    return out


def _side_faults(side: str, text: str, better) -> tuple:
    """The violations of a side and its first price as a float (None if it is
    empty), from one split of `text`, which must be in `CANONICAL_LEVELS`.
    There a size is not positive exactly when its text is `0` or starts with
    `-`. Prices are judged on their floats: a nonzero price is at least 1e-12
    in size, so its float is above 0 exactly when its decimal is; and float
    conversion is monotone, so only a float tie needs the decimals to order a pair."""
    numbers = text.replace(":", " ").split()
    texts, sizes = numbers[::2], numbers[1::2]
    prices = list(map(float, texts))
    out = []
    if prices and min(prices) <= 0:
        out.append(Violation(side, "non-positive price"))
    if "0" in sizes or "-" in " ".join(sizes):
        out.append(Violation(side, "non-positive size"))
    if not (all(map(better, prices, prices[1:])) or all(
            better(a, b) or (a == b and better(Decimal(x), Decimal(y)))
            for a, b, x, y in zip(prices, prices[1:], texts, texts[1:]))):
        out.append(Violation(side, "levels not strictly ordered best-first"))
    return out, prices[0] if prices else None


def _check_book(b: BookSnapshot) -> tuple:
    """`BookSnapshot.checked`. The book is crossed where the float of the best
    bid is above the best ask's, and, on a float tie, where the decimals say so."""
    out = []
    if not isinstance(b.time, int):
        out.append(Violation("time", "not an integer timestamp"))
    if not b.bids:
        out.append(Violation("bids", "empty"))
    if not b.asks:
        out.append(Violation("asks", "empty"))
    bid_faults, bid = _side_faults("bids", b.bids, operator.gt)
    ask_faults, ask = _side_faults("asks", b.asks, operator.lt)
    out += bid_faults + ask_faults
    if bid is not None and ask is not None and (
            bid > ask or bid == ask and b.best_bid >= b.best_ask):
        out.append(Violation("bids", "crossed book: best bid >= best ask"))
    return tuple(out), bid, ask


def _validate_liquidation(e: LiquidationEvent) -> list:
    out = []
    if not isinstance(e.time, int):
        out.append(Violation("time", "not an integer timestamp"))
    if e.price <= 0:
        out.append(Violation("price", "must be > 0"))
    if e.size_usd <= 0:
        out.append(Violation("size_usd", "must be > 0"))
    if e.side not in ("long", "short"):
        out.append(Violation("side", "must be 'long' or 'short'"))
    return out


def record_checker(funding_hard_bound: float = DEFAULTS.funding_hard_bound):
    """The per-field check of every record type, with the funding bound
    quantized once: `check(record)` returns a list of Violations, empty when
    the record is valid, and raises `DataError` for a type it does not know."""
    checks = {
        Candle4H: _validate_candle,
        FundingRecord: partial(_validate_funding, hard_bound=d12(funding_hard_bound)),
        OpenInterestRecord: _validate_oi,
        BookSnapshot: lambda b: list(b.checked[0]),
        LiquidationEvent: _validate_liquidation,
    }

    def check(record) -> list:
        rule = checks.get(type(record))
        if rule is None:
            raise DataError(f"unknown record type: {type(record).__name__}")
        return rule(record)

    return check


# per-field validation under the default funding bound
validate_record = record_checker()


def validate_panel(panel: Panel,
                   funding_hard_bound: float = DEFAULTS.funding_hard_bound) -> list:
    """What a panel must satisfy before it is analysed: every candle, funding,
    open-interest and liquidation record valid, candles contiguous on the 4H
    grid, and every other series ascending inside the candle span. A book
    snapshot is not checked, or built, here: its readers skip an invalid one."""
    if not panel.candles:
        return [Violation("candles", "empty panel")]
    out = []
    times = [c.open_time for c in panel.candles]
    for i, (a, b) in enumerate(zip(times, times[1:]), 1):
        if b - a != BAR_SECONDS:
            out.append(Violation(f"candles[{i}].open_time",
                                 f"not contiguous on the 4H grid: {iso(b)} follows {iso(a)}"))
            break
    check = record_checker(funding_hard_bound)
    span = (panel.start_time, panel.end_time)
    for name, records, ts in (
            ("candles", panel.candles, ()),
            ("funding", panel.funding, [r.settle_time for r in panel.funding]),
            ("open_interest", panel.open_interest, [r.time for r in panel.open_interest]),
            ("books", (), panel.books.times),   # no snapshot built
            ("liquidations", panel.liquidations, [r.time for r in panel.liquidations])):
        for i, r in enumerate(records):
            problems = check(r)
            if problems:   # a valid record builds nothing here
                out.extend(Violation(f"{name}[{i}].{v.field}", v.reason) for v in problems)
        if any(map(operator.gt, ts, ts[1:])):
            out.append(Violation(name, "timestamps not ascending"))
        if ts and (ts[0] < span[0] or ts[-1] > span[1]):
            out.append(Violation(name, "outside the candle span"))
    return out


# --- alignment helpers -----------------------------------------------------

def bar_index(panel: Panel, time: int) -> Optional[int]:
    """Index of the bar whose [open, close) interval holds `time`."""
    if not panel.candles or time < panel.start_time or time >= panel.end_time:
        return None
    return (time - panel.start_time) // BAR_SECONDS


def _asof_by_bar(panel: Panel, records: Sequence, key) -> list:
    """Latest record at or before each bar close; None before coverage."""
    out = []
    keys = [key(r) for r in records]
    j = -1
    n = len(keys)
    for c in panel.candles:
        close_t = c.close_time
        while j + 1 < n and keys[j + 1] <= close_t:
            j += 1
        out.append(records[j] if j >= 0 else None)
    return out


def funding_by_bar(panel: Panel) -> list:
    return _asof_by_bar(panel, panel.funding, lambda r: r.settle_time)


def oi_by_bar(panel: Panel) -> list:
    return _asof_by_bar(panel, panel.open_interest, lambda r: r.time)


"""The write side: each record kind's table states its text form once.

Byte gate: what `save_panel` and the four record CSV writers write for a
panel that sets each optional field at least once and leaves it absent at
least once.

The optional fields are holder shares, the leverage histogram, the long/short
legs, mark and index prices, `interpolated: true` and `exchange_count > 1`.
An empty share tuple and an empty histogram are written as absent.

When a change alters these files on purpose, re-record the digests and paste
them over DIGESTS:

    PYTHONPATH=src python tests/test_write_side.py

and say in the change's notes which files moved and why.

Table check: each record kind's table names every field of its record
class, so a field added to a record but not to its table fails here instead
of being dropped from every file it is written to.
"""
import hashlib
import json
import os
import tempfile
from decimal import Decimal

import pytest

from rangegov import formats
from rangegov.model import (
    BookSnapshot,
    Candle4H,
    FundingRecord,
    LiquidationEvent,
    OpenInterestRecord,
    Panel,
    d12,
    levels_text,
)

T0 = 1700006400   # 2023-11-15T00:00:00Z, on the 4H and 8H grids
H4 = 14400

DIGESTS = {
    "candles.csv":
        "767cd9cfe2da4ad021623ce259786cbc25caf41da34e0980bc7ed727b3cd9fe8",
    "funding.csv":
        "c7897b19ef25f6fba46eebba15d7e0d6daeab92156dbe7d2ac62b562bf260726",
    "liquidations.csv":
        "be3c0803b055305ab6b700936151892948b60f4b8f6b3710f390b6cc6279bfc0",
    "oi.csv":
        "b56d2d944a453113730cef7429ebc60a08e5e6f3e389d4fc557cb0dc4fc67b32",
    "panel.json":
        "76d1f0ca77e69466d721a5ee3b2a2d838e7309cea558fdc25e45b0c24c3148d2",
}


def every_optional_panel() -> Panel:
    """Each optional field set in some record and absent in another."""
    candles = [
        Candle4H(T0, d12("100.5"), d12("101.25"), d12("99.000000000001"), d12("100"),
                 d12("1234.5")),
        Candle4H(T0 + H4, d12("100"), d12("100"), d12("100"), d12("100"), d12("0"),
                 exchange_count=3, interpolated=True),
        Candle4H(T0 + 2 * H4, d12("1E+6"), d12("1000000.1"), d12("999999.9"),
                 d12("1000000.000000000009"), d12("0.000000000001"), exchange_count=2),
    ]
    funding = [
        FundingRecord(T0 + 2 * H4, d12("0.0001"), 8, 1, d12("100.25"), d12("100.2")),
        FundingRecord(T0 + 4 * H4, d12("-0.00075"), 4, 3),
    ]
    oi = [
        OpenInterestRecord(T0, d12("5E+8"), d12("300000000.5"), d12("199999999.5"),
                           {"10": "1000000", "25": "2500000.50", "5": "40"},
                           (d12("0.4"), d12("0.35"), d12("0.25"))),
        OpenInterestRecord(T0 + H4, d12("123.456")),
        OpenInterestRecord(T0 + 2 * H4, d12("7"), d12("3"), d12("4"),
                           {"100": Decimal("1.50")}),
        OpenInterestRecord(T0 + 3 * H4, d12("7"), holder_shares=(d12("1"),)),
        OpenInterestRecord(T0 + 4 * H4, d12("8"), leverage_histogram={}, holder_shares=()),
    ]
    books = [BookSnapshot(T0 + i * H4,
                          levels_text(((d12(99.5 + i), d12(5)), (d12(99), d12("0.25")))),
                          levels_text(((d12(101.5 + i), d12(7)),)))
             for i in range(2)]
    liquidations = [
        LiquidationEvent(T0 + 3600, d12("101.5"), d12("400000"), "short"),
        LiquidationEvent(T0 + H4 + 7200, d12("99.000000000001"), d12("8E+5"), "long"),
    ]
    return Panel("WRITE-PERP", candles, funding, oi, books, liquidations,
                 {"note": "every optional field"})


WRITERS = {
    "panel.json": lambda path, p: formats.save_panel(path, p),
    "candles.csv": lambda path, p: formats.write_candles_csv(path, p.candles),
    "funding.csv": lambda path, p: formats.write_funding_csv(
        path, [(r.settle_time, r.rate_8h, r.mark_price, r.index_price) for r in p.funding]),
    "oi.csv": lambda path, p: formats.write_oi_csv(path, p.open_interest),
    "liquidations.csv": lambda path, p: formats.write_liquidations_csv(path, p.liquidations),
}


def current_digests() -> dict:
    panel = every_optional_panel()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in WRITERS.items():
            path = os.path.join(tmp, name)
            write(path, panel)
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_written_bytes_unchanged(name):
    assert current_digests()[name] == DIGESTS[name]


RECORDS = {"candles": Candle4H, "funding": FundingRecord,
           "open_interest": OpenInterestRecord, "liquidations": LiquidationEvent}


def test_every_record_series_has_a_table():
    series = [key for key, _, _ in formats._SERIES]
    assert series == list(Panel._fields[1:-1])
    assert sorted(key for key, fields, _ in formats._SERIES if fields) == sorted(RECORDS)


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_table_names_every_field_of_its_record(key):
    fields, make = next((fields, make) for k, fields, make in formats._SERIES if k == key)
    attrs = [f.attr or f.key for f in fields]
    assert sorted(attrs) == sorted(RECORDS[key]._fields)
    # and `make` puts the value read for each field in the attribute it names
    values = [object() for _ in fields]
    record = make(*values)
    assert type(record) is RECORDS[key]
    assert [getattr(record, attr) for attr in attrs] == values


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=4, sort_keys=True))

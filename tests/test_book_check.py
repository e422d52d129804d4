"""The book check: `validate_record` on a `BookSnapshot`.

Three gates:
  - the bytes of the `validate` report on a packaged panel holding one
    snapshot of each book fault (and one holding all of them) are pinned;
  - on signed canonical sides, `validate_record` gives the same violation
    list as a reference that decodes every level to `Decimal` first;
  - `check_book_integrity` leaves no decoded side cached on a kept snapshot.

To re-record the digests after a change that alters a book flag on purpose:

    PYTHONPATH=src python tests/test_book_check.py
"""
import hashlib
import json
import os
import sys
import tempfile
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangegov import formats, synth
from rangegov.cli import main
from rangegov.model import (
    CANONICAL_LEVELS, BookSnapshot, Violation, d12, iso, levels_text, validate_record,
)
from rangegov.quality import check_book_integrity

from conftest import filled

T0 = 1609459200


def _swap_first_two(side: str) -> str:
    pairs = side.split()
    return " ".join([pairs[1], pairs[0]] + pairs[2:])


def _negative_first_size(side: str) -> str:
    pairs = side.split()
    return " ".join([pairs[0].split(":")[0] + ":-1.5"] + pairs[1:])


# fault -> (index of the edited snapshot, new bids, new asks) from its old sides
FAULTS = {
    "crossed": (3, lambda b, a: ("200:1", "100:1")),
    "zero-price": (4, lambda b, a: (b + " 0:1", a)),
    "negative-size": (5, lambda b, a: (b, _negative_first_size(a))),
    "unordered": (6, lambda b, a: (_swap_first_two(b), a)),
    "tie-at-12th-decimal": (7, lambda b, a: ("999999.000000000001:1 999999.000000000002:1",
                                             "1000001:1")),
    "empty-side": (8, lambda b, a: (b, "")),
    "wide-spread": (9, lambda b, a: ("90:1", "110:1")),
}

DIGESTS = {
    "all":
        "375e461b17a21a9e5b3b33862ba8337d782d6fab8c132381a10fedab28a63f36",
    "crossed":
        "b5790845c1b9172b931f40afdaa57cea39014e6b1931bc0edaaebab648ea2507",
    "empty-side":
        "d7aa4433c69ac897027470308ca6eab0d811a1bfb96db14ddbb75473c1b826f5",
    "negative-size":
        "d8b2fa1ab1b8adfd1cf567941c4c48da73a37ee1e8e8730560741eb7debfe67e",
    "tie-at-12th-decimal":
        "00a943fd463de4799a23003936bdf74624d231d964ee78998a187529e7ac4e9b",
    "unordered":
        "d2a39fbe71e9b3c641b2d5e504d789361a61b7789d66ac110f14d5e7595a7bfe",
    "wide-spread":
        "da5a00d47be2f89b7be1460cc78b7682ddc0a875fdb75f59af6f5bb59ed304aa",
    "zero-price":
        "cf9a8087106dbf98db7e72172c838380a23f85ea83e572b326d45dc57a3e4fe0",
}


def validate_report(faults) -> bytes:
    """The bytes `validate` writes for h4-confirm with `faults` edited in."""
    panel, _ = synth.generate(synth.load_builtin_scenario("h4-confirm"))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "panel.json"), os.path.join(tmp, "q.json")
        formats.save_panel(path, panel)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for name in faults:
            i, edit = FAULTS[name]
            t, bids, asks = doc["books"][i].split("|")
            doc["books"][i] = "|".join((t,) + edit(bids, asks))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        main(["validate", "--panel", path, "--out", out])
        with open(out, "rb") as fh:
            return fh.read()


def current_digests() -> dict:
    out = {name: hashlib.sha256(validate_report([name])).hexdigest() for name in FAULTS}
    out["all"] = hashlib.sha256(validate_report(sorted(FAULTS))).hexdigest()
    return out


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_book_flag_bytes_unchanged(key):
    faults = sorted(FAULTS) if key == "all" else [key]
    report = validate_report(faults)
    flags = [f for f in json.loads(report)["flags"] if f["check"] == "book_integrity"]
    assert len(flags) == len(faults)
    assert hashlib.sha256(report).hexdigest() == DIGESTS[key]


def decode_first(b: BookSnapshot) -> list:
    """The book rules as they read on fully decoded levels."""
    out = []
    if not isinstance(b.time, int):
        out.append(Violation("time", "not an integer timestamp"))
    bids, asks = b.bid_levels, b.ask_levels
    if not bids:
        out.append(Violation("bids", "empty"))
    if not asks:
        out.append(Violation("asks", "empty"))
    for side, levels, descending in (("bids", bids, True), ("asks", asks, False)):
        prices = [lvl[0] for lvl in levels]
        if any(p <= 0 for p in prices):
            out.append(Violation(side, "non-positive price"))
        if any(lvl[1] <= 0 for lvl in levels):
            out.append(Violation(side, "non-positive size"))
        ordered = all(a > b_ for a, b_ in zip(prices, prices[1:])) if descending \
            else all(a < b_ for a, b_ in zip(prices, prices[1:]))
        if not ordered:
            out.append(Violation(side, "levels not strictly ordered best-first"))
    if bids and asks and bids[0][0] >= asks[0][0]:
        out.append(Violation("bids", "crossed book: best bid >= best ask"))
    return out


_TICK = Decimal("1e-12")
# signed numbers with up to 16 integer and 12 fractional digits, -0 among them
_NUMBER = st.builds(lambda neg, units, ticks: d12(Decimal(units) + ticks * _TICK).copy_sign(
                        Decimal(-1 if neg else 1)),
                    st.booleans(),
                    st.one_of(st.integers(0, 3), st.integers(0, 10 ** 16 - 1)),
                    st.one_of(st.sampled_from([0, 1, 10 ** 12 - 1]), st.integers(0, 10 ** 12 - 1)))
# each next price: the same (an exact tie), one or two ticks away (a float tie
# for large prices), or anywhere
_STEP = st.one_of(st.sampled_from([0, 1, -1, 2, -2]).map(lambda k: k * _TICK), _NUMBER)
_SIZE = st.one_of(st.sampled_from(["0", "-0", "1", "-1.5"]).map(Decimal), _NUMBER)


@st.composite
def sides(draw):
    prices = [draw(_NUMBER)]
    for step in draw(st.lists(_STEP, max_size=5)):
        if abs(step) > 2 * _TICK:
            prices.append(step)
        else:
            nxt = prices[-1] + step
            prices.append(d12(nxt if abs(nxt) < 10 ** 16 else prices[-1] - step))
    return levels_text((p, draw(_SIZE)) for p in prices)


def side_text(*pairs) -> str:
    return " ".join("%s:%s" % pair for pair in pairs)


@given(sides(), sides())
@example(side_text(("9999999999999999.000000000002", 1), ("9999999999999999.000000000001", 1)),
         side_text(("9999999999999999.999999999999", 1)))
@example(side_text(("1000000.000000000001", 1), ("1000000.000000000001", 1)),
         side_text(("1000000.000000000002", 1), ("1000000.000000000001", 1)))
@example(side_text(("-0", 1), ("-1", 0)), side_text(("0", "-0"), ("1", "2")))
@example("", side_text(("5", 1)))
@example("", "")
@settings(max_examples=400, deadline=None)
def test_text_check_matches_decode_first(bids, asks):
    snap = BookSnapshot(T0, bids, asks)
    got = validate_record(snap)
    assert validate_record(snap) == got and validate_record(snap) is not got   # kept, copied out
    assert "_bid_levels" not in filled(snap) and "_ask_levels" not in filled(snap)
    assert formats.book_from_line(formats.book_to_line(snap)) == snap   # held verbatim
    assert got == decode_first(BookSnapshot(T0, bids, asks))
    assert validate_record(formats.book_from_line(formats.book_to_line(snap))) == got
    decoded = BookSnapshot(T0, bids, asks)
    decoded.bid_levels, decoded.ask_levels
    assert validate_record(decoded) == got


@pytest.mark.parametrize("bids, asks", [
    ("+99:5 98.0:5", "101:5"),
    ("99:5  98:5", "101:05 100:5"),
    ("99.0000000000001:5 99:5", "101:5"),
    ("1e2:5", "101:5 1E3:5"),
    (" 99:5", "99:5\n"),
    ("99:5", "   "),
])
def test_other_text_takes_the_decode_path(bids, asks):
    """Side text that is not canonical comes in only from a file, and
    `book_from_line` holds it as the `levels_text` of its decoded levels."""
    loaded = formats.book_from_line("|".join((iso(T0), bids, asks)))
    assert CANONICAL_LEVELS.fullmatch(loaded.bids) and CANONICAL_LEVELS.fullmatch(loaded.asks)
    assert validate_record(loaded) == decode_first(BookSnapshot(T0, bids, asks))


def test_screening_books_decodes_no_side():
    panel, _ = synth.generate(synth.load_builtin_scenario("h1-confirm"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.json")
        formats.save_panel(path, panel)
        books = formats.load_panel(path).books
    kept, flags = check_book_integrity(books)
    assert len(kept) >= 100 and not flags
    assert not [s for s in kept if {"_bid_levels", "_ask_levels"} & filled(s)]


def test_each_loaded_side_is_matched_once(monkeypatch):
    """`book_from_line` matches each side against CANONICAL_LEVELS when its
    snapshot is first read, not at load, so a side never read is never
    matched; the book check that `validate` and `ingest` run takes its
    verdict as read."""
    from rangegov import model

    pattern = model.CANONICAL_LEVELS

    class Counting:
        calls = 0

        def fullmatch(self, text):
            Counting.calls += 1
            return pattern.fullmatch(text)

    panel, _ = synth.generate(synth.load_builtin_scenario("h2-confirm"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.json")
        formats.save_panel(path, panel)
        monkeypatch.setattr(formats, "CANONICAL_LEVELS", Counting())
        books = formats.load_panel(path).books
        assert Counting.calls == 0   # nothing matched at load
        assert books[-1] == books[-1] == panel.books[-1] and books[3] == panel.books[3]
        assert Counting.calls == 4   # each side of a read snapshot once, on first read
        monkeypatch.setattr(model, "CANONICAL_LEVELS", Counting())
        kept, flags = check_book_integrity(books)
    assert len(kept) == len(books) > 10 and not flags
    assert Counting.calls == 2 * len(books)   # one match per side, at first read


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=4, sort_keys=True)
    print()

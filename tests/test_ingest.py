"""Ingest by two rules, end to end through `rangegov ingest`.

Every source series is read in time order, whatever the order of its rows
(rows of equal time keep their file order), and each bar is merged over the
venues that have it. The inputs are the packaged `h4-confirm` panel written
out as three venues (two candle files and one tick file) plus funding, open
interest, liquidation and book files.
"""
import csv
import itertools
from collections import Counter
import json
import random
import re

import pytest

from rangegov import formats
from rangegov.cli import main
from rangegov.formats import (
    ingest_manifest,
    write_books,
    write_candles_csv,
    write_funding_csv,
    write_liquidations_csv,
    write_oi_csv,
)
from rangegov.model import Candle4H, d12, fmt_dec, iso
from rangegov.synth import generate, load_builtin_scenario

# (name, 30-day volume, source file, price factor, volume share)
VENUES = (("alpha", 5.0e6, "alpha.csv", "1", "0.5"),
          ("beta", 3.0e6, "beta.csv", "1.000213579246", "0.3"),
          ("gamma", 2.0e6, "gamma_ticks.csv", "0.999687654321", "0.2"))


def _venue(candles, factor, share) -> list:
    f, s = d12(factor), d12(share)
    return [Candle4H(c.open_time, *(d12(p * f) for p in (c.open, c.high, c.low, c.close)),
                     d12(c.volume * s)) for c in candles]


def _write_ticks(path, candles) -> None:
    """Four trades a bar, at distinct times, that rebuild each bar's prices."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "price", "volume"])
        for c in candles:
            volume = fmt_dec(d12(c.volume / 4))
            w.writerows((iso(c.open_time + offset), fmt_dec(price), volume)
                        for offset, price in ((0, c.open), (3600, c.high), (7200, c.low),
                                              (14399, c.close)))


@pytest.fixture(scope="module")
def source():
    panel, _ = generate(load_builtin_scenario("h4-confirm"))
    return panel


@pytest.fixture
def inputs(source, tmp_path):
    for name, _, path, factor, share in VENUES:
        bars = _venue(source.candles, factor, share)
        if path.endswith("_ticks.csv"):
            _write_ticks(str(tmp_path / path), bars)
        else:
            write_candles_csv(str(tmp_path / path), bars)
    write_funding_csv(str(tmp_path / "funding.csv"),
                      [(r.settle_time, r.rate_8h, r.mark_price, r.index_price)
                       for r in source.funding])
    write_oi_csv(str(tmp_path / "oi.csv"), source.open_interest)
    write_liquidations_csv(str(tmp_path / "liq.csv"), source.liquidations)
    write_books(str(tmp_path / "books.txt"), source.books)
    _manifest(tmp_path)
    return tmp_path


def _manifest(root, venues=VENUES) -> str:
    doc = {
        "instrument": "TEST-PERP",
        "exchanges": [{"name": name, "ticks" if path.endswith("_ticks.csv") else "candles": path,
                       "volume_30d": volume} for name, volume, path, _, _ in venues],
        "funding": [{"path": "funding.csv", "interval_hours": 8, "authoritative": True}],
        "open_interest": "oi.csv",
        "liquidations": "liq.csv",
        "books": "books.txt",
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _ingest(root) -> bytes:
    out = root / "panel.json"
    assert main(["ingest", "--manifest", str(root / "manifest.json"), "--out", str(out)]) == 0
    return out.read_bytes()


def _edit_rows(path, edit) -> None:
    """Rewrite the file at `path` with `edit(rows)` of its rows after the header
    (a CSV file) or of all its lines (a book file)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = 0 if path.suffix == ".txt" else 1
    path.write_text("".join(lines[:head] + edit(lines[head:])), encoding="utf-8")


def _shuffled(rows: list) -> list:
    """`rows` in another order: the runs of rows of equal time are shuffled,
    each run kept as it is, so only the order of distinct times changes."""
    runs = {}
    for row in rows:
        runs.setdefault(re.split("[,|]", row, maxsplit=1)[0], []).append(row)
    order = list(runs)
    random.Random(7).shuffle(order)
    assert order != list(runs)
    return [row for time in order for row in runs[time]]


@pytest.mark.parametrize("name", [path for _, _, path, _, _ in VENUES]
                         + ["funding.csv", "oi.csv", "liq.csv", "books.txt"])
def test_a_shuffled_source_file_gives_the_same_panel(inputs, name, capsys):
    sorted_panel = _ingest(inputs)
    _edit_rows(inputs / name, _shuffled)
    assert _ingest(inputs) == sorted_panel
    capsys.readouterr()


def test_a_shuffled_only_candle_venue_gives_the_same_panel(inputs, capsys):
    _manifest(inputs, VENUES[:1])
    sorted_panel = _ingest(inputs)
    _edit_rows(inputs / "alpha.csv", _shuffled)
    assert _ingest(inputs) == sorted_panel
    capsys.readouterr()


def test_rows_of_equal_time_keep_their_file_order(inputs):
    first, second = (row.split(",") for row in (inputs / "liq.csv").read_text().splitlines()[1:3])
    second[0] = first[0]   # the second liquidation at the first one's time
    rows = [",".join(first) + "\n", ",".join(second) + "\n"]
    for order in (rows, rows[::-1]):
        _edit_rows(inputs / "liq.csv", lambda _: order)
        panel, _, _ = ingest_manifest(str(inputs / "manifest.json"))
        assert [fmt_dec(e.size_usd) for e in panel.liquidations] == \
            [row.split(",")[2] for row in order]


def test_a_venue_missing_one_bar_is_merged_over_the_others(inputs, capsys):
    full = json.loads(_ingest(inputs))["candles"]
    _manifest(inputs, VENUES[::2])
    without_beta = json.loads(_ingest(inputs))["candles"]
    _manifest(inputs)
    k = 20
    _edit_rows(inputs / "beta.csv", lambda rows: rows[:k] + rows[k + 1:])
    merged = json.loads(_ingest(inputs))["candles"]
    assert [c["exchange_count"] for c in merged] == [3] * k + [2] + [3] * (len(full) - k - 1)
    assert merged[k] == without_beta[k] and merged[k]["interpolated"] is False
    assert merged[:k] + merged[k + 1:] == full[:k] + full[k + 1:]
    capsys.readouterr()


def test_two_bars_at_one_time_in_a_venue_file_exit_3(inputs, source, capsys):
    _edit_rows(inputs / "beta.csv", lambda rows: rows[:5] + rows[4:])
    out = inputs / "panel.json"
    assert main(["ingest", "--manifest", str(inputs / "manifest.json"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "beta.csv: two bars at %s" % iso(source.candles[4].open_time) in err, err
    assert not out.exists()


def test_venue_order_in_the_manifest_does_not_move_the_panel(inputs, capsys):
    panels = set()
    for venues in itertools.permutations(VENUES):
        _manifest(inputs, venues)
        panels.add(_ingest(inputs))
    assert len(panels) == 1
    capsys.readouterr()


def test_one_ingest_parses_each_distinct_stamp_text_once(inputs, monkeypatch):
    """The venue, funding, OI, liquidation and book files share one timestamp
    memo, so a bar open that several files hold is parsed once."""
    texts = []
    parse = formats.parse_iso
    monkeypatch.setattr(formats, "parse_iso", lambda text: texts.append(text) or parse(text))
    ingest_manifest(str(inputs / "manifest.json"))
    counts = Counter(texts)
    assert counts and set(counts.values()) == {1}
    shared = [row.split(",", 1)[0] for name in ("alpha.csv", "beta.csv")
              for row in (inputs / name).read_text().splitlines()[1:]]
    assert set(shared) <= set(counts)

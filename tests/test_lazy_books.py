"""A loaded panel's book lines stay text until a snapshot is read.

`formats.load_panel` parses only each book line's time; a snapshot is built
by `book_from_line` on first read and then kept. So an analytic command
builds only the snapshots it reads, and decodes a side whole only where a
kernel sums every level; a malformed side stops only a command that reads it
(`validate` reads every one), and a loaded panel is still the value its eager
twin is.
"""
import copy
import json
import pickle
from collections import Counter

import pytest

from rangegov import formats, reports
from rangegov.cli import main
from rangegov.config import DEFAULTS
from rangegov.liquidity import latest_valid_books
from rangegov.model import Books, BookSnapshot
from rangegov.synth import Scenario, Segment, generate, load_builtin_scenario

from conftest import filled

ANALYTIC = ("metrics", "hypotheses", "regime")


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """name -> (path of the saved panel, the panel as generated): a 2190-bar
    year and the packaged h2-confirm, whose H2 reads the books before its break."""
    root = tmp_path_factory.mktemp("lazy-books")
    out = {}
    for name, panel in (
            ("year", generate(Scenario(name="year", seed=11, segments=(
                Segment("range", 2160), Segment("cascade", 30))))[0]),
            ("h2-confirm", generate(load_builtin_scenario("h2-confirm"))[0])):
        path = root / (name + ".json")
        formats.save_panel(str(path), panel)
        out[name] = (path, panel)
    return out


@pytest.fixture
def sides(monkeypatch):
    """A Counter of the `where` of each book side decoded: `book_from_line`
    decodes the two sides of each snapshot it builds."""
    out = Counter()
    side = formats._book_side

    def counting(chunk, where):
        out[where] += 1
        return side(chunk, where)

    monkeypatch.setattr(formats, "_book_side", counting)
    return out


def _run(command, panel_path, out_dir) -> tuple:
    """(exit code, report bytes or None) of `command` on the panel file."""
    out = out_dir / (command + ".json")
    if out.exists():
        out.unlink()
    code = main([command, "--panel", str(panel_path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def _edited(source, tmp_path, index, bids) -> tuple:
    """The panel file at `source` with the bid side of books[index] set to
    `bids`, written under `tmp_path`; (its path, its document)."""
    doc = json.loads(source.read_text())
    time, _, asks = doc["books"][index].split("|")
    doc["books"][index] = "|".join((time, bids, asks))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.mark.parametrize("name", ["year", "h2-confirm"])
@pytest.mark.parametrize("command", ANALYTIC)
def test_an_analytic_command_builds_only_the_snapshots_it_reads(
        panels, tmp_path, monkeypatch, capsys, sides, name, command):
    read = set()
    getitem = Books.__getitem__

    def counting_read(self, i):
        got = getitem(self, i)
        if isinstance(got, BookSnapshot):
            read.add(id(got))
        return got

    monkeypatch.setattr(Books, "__getitem__", counting_read)
    path, panel = panels[name]
    assert _run(command, path, tmp_path)[1] is not None
    capsys.readouterr()
    assert set(sides.values()) <= {2} and len(sides) == len(read)   # each read one built once
    assert len(read) <= DEFAULTS.depth_trend_snapshots + 3 < len(panel.books)
    if command == "metrics":
        assert len(read) > DEFAULTS.depth_trend_snapshots


def _whole_side_reader(command, panel):
    """The time of the one snapshot whose sides `command` decodes whole: the
    latest valid one for `metrics`, whose kernels sum every level, and H2's
    shelf snapshot, the latest valid one at or before the break, for
    `hypotheses`; None when the command reads no snapshot."""
    if command == "metrics":
        return latest_valid_books(panel.books)[0][-1].time
    h2 = reports.hypotheses_report(panel)["verdicts"]["H2"]
    if "breakout_bar" not in h2["evidence"]:
        return None
    break_close = panel.candles[h2["evidence"]["breakout_bar"]].close_time
    return latest_valid_books([b for b in panel.books if b.time <= break_close])[0][-1].time


@pytest.mark.parametrize("name", ["year", "h2-confirm"])
@pytest.mark.parametrize("command", ["metrics", "hypotheses"])
def test_only_the_snapshot_a_kernel_sums_whole_is_decoded_whole(
        panels, tmp_path, monkeypatch, capsys, name, command):
    """Depth at the extremes decodes only the levels within the band of a
    boundary, so of the `depth_trend_snapshots` tail only the snapshot whose
    sides a kernel sums whole (percentiles, shelf, slippage, imbalance) holds
    its decoded levels."""
    read = []
    getitem = Books.__getitem__

    def recording_read(self, i):
        got = getitem(self, i)
        if isinstance(got, BookSnapshot):
            read.append(got)
        return got

    monkeypatch.setattr(Books, "__getitem__", recording_read)
    path, panel = panels[name]
    assert _run(command, path, tmp_path)[1] is not None
    capsys.readouterr()
    whole = _whole_side_reader(command, panel)
    decoded = {s.time for s in read if {"_bid_levels", "_ask_levels"} & filled(s)}
    assert decoded == ({whole} if whole is not None else set())
    if whole is not None:   # the tail was read
        assert len({s.time for s in read}) > DEFAULTS.depth_trend_snapshots


def test_an_old_malformed_side_stops_only_validate(panels, tmp_path, capsys):
    source = panels["year"][0]
    path, _ = _edited(source, tmp_path, 5, "99")
    clean = tmp_path / "clean"
    clean.mkdir()
    for command in ANALYTIC:
        expected = _run(command, source, clean)
        assert expected[1] is not None
        assert _run(command, path, tmp_path) == expected, command
    capsys.readouterr()
    assert _run("validate", path, tmp_path) == (3, None)
    err = capsys.readouterr().err
    assert "%s: books[5]: bad level '99'" % path in err and "Traceback" not in err


def test_a_malformed_latest_side_stops_every_command(panels, tmp_path, capsys):
    source, panel = panels["h2-confirm"]
    bar = reports.hypotheses_report(panel)["verdicts"]["H2"]["evidence"]["breakout_bar"]
    # cut the books at the H2 break, so H2 reads the latest snapshot too
    doc = json.loads(source.read_text())
    doc["books"] = doc["books"][:panel.books.times.index(panel.candles[bar].close_time) + 1]
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(doc))
    for command in ANALYTIC:
        assert _run(command, cut, tmp_path)[1] is not None, command
    last = len(doc["books"]) - 1
    path, _ = _edited(cut, tmp_path, last, "99:1 x:2")
    capsys.readouterr()
    for command in ("validate",) + ANALYTIC:
        assert _run(command, path, tmp_path) == (3, None), command
        err = capsys.readouterr().err
        assert "%s: books[%d]: bad decimal 'x'" % (path, last) in err and "Traceback" not in err


def test_a_loaded_panel_is_the_value_of_its_eager_twin(panels, sides):
    path, twin = panels["h2-confirm"]
    n = len(twin.books)
    elsewhere = pickle.dumps(formats.panel_from_dict(json.loads(path.read_text()), "x.json"))
    sides.clear()
    loaded = formats.load_panel(str(path))
    assert not sides and loaded.books.times == twin.books.times
    assert loaded.books[-1] == twin.books[-1] and sum(sides.values()) == 2
    shallow = copy.copy(loaded)
    assert shallow.books is loaded.books and sum(sides.values()) == 2
    # a pickle builds every snapshot once, and holds only snapshots: its
    # bytes are the same wherever the panel file was
    pickled = pickle.dumps(loaded)
    assert sides == {"%s: books[%d]" % (path, i): 2 for i in range(n)}
    assert pickled == elsewhere
    for other in (pickle.loads(pickled), shallow, copy.deepcopy(loaded)):
        assert type(other.books) is Books and other == twin == loaded
    assert sum(sides.values()) == 2 * n

    sides.clear()
    fresh = formats.load_panel(str(path))
    part = fresh.books[10:20]
    assert list(part) == list(twin.books[10:20]) and part.times == twin.books.times[10:20]
    assert fresh.books[15] is part[5] and len(sides) == 10   # a slice shares builds
    assert fresh.books[:10] + part == tuple(twin.books[:20]) and len(sides) == 20
    assert set(sides.values()) == {2}

import gc
import json
import os
import pickle
import tempfile
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangegov import formats
from rangegov.config import DEFAULTS
from rangegov.errors import MissingSeriesError, SchemaError
from rangegov.formats import (
    _dec,
    book_from_line,
    book_to_line,
    dump_json,
    ingest_manifest,
    load_manifest,
    load_panel,
    panel_from_dict,
    panel_to_dict,
    read_books,
    read_candles_csv,
    read_funding_csv,
    read_liquidations_csv,
    read_oi_csv,
    save_panel,
    write_books,
    write_candles_csv,
    write_funding_csv,
    write_liquidations_csv,
    write_oi_csv,
    write_report,
)
from rangegov.model import (
    BAR_SECONDS,
    CANONICAL_LEVELS,
    BookSnapshot,
    Books,
    Candle4H,
    FundingRecord,
    LiquidationEvent,
    OpenInterestRecord,
    Panel,
    d12,
    fmt_dec,
    iso,
    levels_text,
)
from rangegov.quality import _snap_records

from conftest import filled

T0 = 1700006400   # 2023-11-15T00:00:00Z, on the 4H grid


def make_candles(n, start=T0, price=100.0):
    out = []
    for i in range(n):
        p = d12(price + 0.25 * (i % 4))
        out.append(Candle4H(
            open_time=start + i * BAR_SECONDS,
            open=p, high=d12(p + 1), low=d12(p - 1), close=p,
            volume=d12(1000 + i),
        ))
    return out


def make_panel(n=12):
    candles = make_candles(n)
    funding = [FundingRecord(settle_time=T0 + k * 28800, rate_8h=d12(0.0003))
               for k in range(1, n // 2)]
    oi = [OpenInterestRecord(time=T0 + i * BAR_SECONDS, oi_usd=d12(5e8),
                             long_oi_usd=d12(3e8), short_oi_usd=d12(2e8),
                             holder_shares=(d12(0.4), d12(0.6)),
                             leverage_histogram={"10": "1000000", "25": "2500000"})
          for i in range(n)]
    books = [BookSnapshot(time=T0 + i * BAR_SECONDS,
                          bids=levels_text(((d12(99.5), d12(5)), (d12(99.0), d12(9)))),
                          asks=levels_text(((d12(100.5), d12(4)), (d12(101.0), d12(11)))))
             for i in range(n)]
    liqs = [LiquidationEvent(time=T0 + 3 * BAR_SECONDS, price=d12(99.2),
                             size_usd=d12(750000), side="long")]
    return Panel(instrument="TEST-PERP", candles=candles, funding=funding,
                 open_interest=oi, books=books, liquidations=liqs,
                 annotations={"note": "fixture"})


class TestCsvRoundTrips:
    def test_candles(self, tmp_path):
        path = str(tmp_path / "c.csv")
        candles = make_candles(10)
        write_candles_csv(path, candles)
        assert read_candles_csv(path) == candles

    def test_funding(self, tmp_path):
        path = str(tmp_path / "f.csv")
        rows = [(T0, d12(0.0001), d12(100.5), d12(100.4)),
                (T0 + 28800, d12(-0.0002), None, None)]
        write_funding_csv(path, rows)
        assert read_funding_csv(path) == rows

    def test_oi(self, tmp_path):
        path = str(tmp_path / "oi.csv")
        records = make_panel(4).open_interest
        write_oi_csv(path, records)
        assert read_oi_csv(path) == list(records)

    def test_liquidations(self, tmp_path):
        path = str(tmp_path / "l.csv")
        events = make_panel(4).liquidations
        write_liquidations_csv(path, events)
        assert read_liquidations_csv(path) == list(events)

    def test_missing_file_is_distinct_error(self, tmp_path):
        with pytest.raises(MissingSeriesError):
            read_candles_csv(str(tmp_path / "nope.csv"))

    def test_missing_column_names_it(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("time,open,high,low,close\n")
            fh.write("2023-11-15T00:00:00Z,1,2,0.5,1\n")
        with pytest.raises(SchemaError, match="volume"):
            read_candles_csv(path)

    def test_bad_side_rejected(self, tmp_path):
        path = str(tmp_path / "l.csv")
        with open(path, "w") as fh:
            fh.write("time,price,size_usd,side\n")
            fh.write("2023-11-15T00:00:00Z,100,1000,margin\n")
        with pytest.raises(SchemaError, match="side"):
            read_liquidations_csv(path)


    @pytest.mark.parametrize("text, message", [
        # header, a row, a blank line, then the bad row on line 4
        ("time,open,high,low,close,volume\n2023-11-15T00:00:00Z,1,2,0.5,1,9\n\n"
         "2023-11-15T04:00:00Z,1,x,0.5,1,9\n", "line 4: bad decimal 'x'"),
        # a short row is missing the fields past its last cell
        ("time,open,high,low,close,volume\n\n\n2023-11-15T04:00:00Z,1,2\n",
         "line 4 missing field 'low'"),
        # a quoted cell over two lines: the row is named by the line it ends on
        ('time,open,high,low,close,volume\n"2023-11-15T00:00:00Z",1,2,0.5,1,"9\n"\n'
         "2023-11-15T04:00:00Z,1,2,0.5,1,-\n", "line 4: bad decimal '-'"),
    ])
    def test_an_error_names_the_1_based_line_of_the_file(self, tmp_path, text, message):
        path = tmp_path / "alpha.csv"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            read_candles_csv(str(path))
        assert str(err.value) == "%s %s" % (path, message)


class TestBookLines:
    def test_an_error_names_the_1_based_line_of_the_file(self, tmp_path):
        path = tmp_path / "books.txt"
        path.write_text("2023-11-15T00:00:00Z|99:1|101:1\n\nx|99:1|101:1\n")
        with pytest.raises(SchemaError) as err:
            read_books(str(path))
        assert str(err.value) == "%s line 3: bad timestamp 'x'" % path

    def test_round_trip(self):
        snap = make_panel(1).books[0]
        assert book_from_line(book_to_line(snap)) == snap

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "books.txt")
        books = make_panel(5).books
        write_books(path, books)
        assert read_books(path) == list(books)

    def test_line_shape_enforced(self):
        with pytest.raises(SchemaError):
            book_from_line("2023-11-15T00:00:00Z|99:1")
        with pytest.raises(SchemaError):
            book_from_line("2023-11-15T00:00:00Z|99:1:2|101:1")


class TestLazyBookLevels:
    """Every side is held as text and decoded on first read. A canonical side
    is held verbatim; any other side is decoded, or rejected, at load exactly
    as before, then held as the `levels_text` of its levels."""

    # every number CANONICAL_LEVELS accepts: 0 or up to 16 digits without a
    # leading zero, then optionally 1-12 fractional digits ending in non-zero
    NUMBER = st.builds(
        lambda whole, frac: str(whole) + ("" if frac is None else "." + frac),
        st.integers(0, 10 ** 16 - 1),
        st.none() | st.builds(str.__add__, st.text("0123456789", max_size=11),
                              st.sampled_from("123456789")))

    @given(st.lists(st.tuples(NUMBER, NUMBER), max_size=4))
    @settings(max_examples=200)
    def test_canonical_side_decodes_as_the_eager_path(self, pairs):
        side = " ".join("%s:%s" % pair for pair in pairs)
        assert CANONICAL_LEVELS.fullmatch(side)
        line = "2023-11-15T00:00:00Z|%s|%s" % (side, side)
        snap = book_from_line(line)
        assert snap.bids == side
        numbers = [x for pair in pairs for x in pair]
        eager = tuple((_dec(p, "w"), _dec(s, "w"))
                      for p, s in (pair.split(":") for pair in side.split()))
        assert snap.bid_levels == eager
        assert levels_text(eager) == side
        assert [str(x) for lvl in snap.ask_levels for x in lvl] == \
            [str(x) for lvl in eager for x in lvl]
        assert all(fmt_dec(d12(x)) == x for x in numbers)
        assert book_to_line(snap) == line

    # side text -> (message, or the decoded levels as plain strings)
    NOT_CANONICAL = [
        ("100.50:1", ("100.500000000000", "1.000000000000")),
        ("1e3:1", ("1000.000000000000", "1.000000000000")),
        ("-1:1", ("-1.000000000000", "1.000000000000")),
        ("+1:1", ("1.000000000000", "1.000000000000")),
        (".5:1", ("0.500000000000", "1.000000000000")),
        ("00:1", ("0E-12", "1.000000000000")),
        (" 99.5:1", ("99.500000000000", "1.000000000000")),
        ("0.0000000000001:1", ("0E-12", "1.000000000000")),
        ("1\u0663:1", ("13.000000000000", "1.000000000000")),
        ("NaN:1", "bad decimal 'NaN'"),
        ("sNaN:1", "bad decimal 'sNaN'"),
        ("Infinity:1", "bad decimal 'Infinity'"),
        ("1e999:1", "bad decimal '1e999'"),
        ("1234567890123456789:1", "bad decimal '1234567890123456789'"),
        ("x:1", "bad decimal 'x'"),
        ("99.5:", "bad decimal ''"),
        ("1:2:3", "bad level '1:2:3'"),
    ]

    @pytest.mark.parametrize("side, expected", NOT_CANONICAL)
    def test_other_sides_take_the_eager_path(self, side, expected):
        line = "2023-11-15T00:00:00Z|%s|101:1" % side
        if isinstance(expected, str):
            with pytest.raises(SchemaError) as exc:
                book_from_line(line, "w")
            assert str(exc.value) == "w: " + expected
            return
        snap = book_from_line(line, "w")
        assert snap.bids == levels_text(snap.bid_levels)
        assert snap.asks == "101:1"
        assert tuple(str(x) for x in snap.bid_levels[0]) == expected

    def test_bad_timestamp_is_still_rejected_first(self):
        with pytest.raises(SchemaError, match="w: bad timestamp 'x'"):
            book_from_line("x|NaN:1|101:1", "w")

    def test_lazy_snapshot_behaves_as_its_eager_twin(self):
        line = "2023-11-15T00:00:31Z|99.5:5 99:9|100.5:4 101:11"   # 31 s off the hour
        eager = BookSnapshot(T0 + 31,
                             levels_text(((d12("99.5"), d12(5)), (d12(99), d12(9)))),
                             levels_text(((d12("100.5"), d12(4)), (d12(101), d12(11)))))
        lazy = book_from_line(line)
        assert lazy == eager and hash(lazy) == hash(eager)
        assert "_bid_levels" not in filled(lazy)   # == and hash decode nothing
        assert lazy.bid_levels is lazy.bid_levels
        assert lazy.bid_levels == eager.bid_levels
        assert book_to_line(lazy) == line == book_to_line(eager)
        with pytest.raises(AttributeError):
            lazy.bids = ""

        thawed = pickle.loads(pickle.dumps(book_from_line(line)))
        assert thawed.asks == "100.5:4 101:11"
        assert thawed == eager and thawed.ask_levels == eager.ask_levels

        (snapped,), flags = _snap_records([book_from_line(line)], "time", lambda s: 3600,
                                          "book", DEFAULTS)
        assert snapped.time == T0
        assert "_bid_levels" not in filled(snapped)   # the copy carries text only
        assert (snapped.bids, snapped.asks) == (eager.bids, eager.asks)
        assert (snapped.bid_levels, snapped.ask_levels) == \
            (eager.bid_levels, eager.ask_levels)
        assert [f.check for f in flags] == ["timestamp_alignment"]


SERIES = ("candles", "funding", "open_interest", "books", "liquidations")


class TestPanelDocument:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = str(tmp_path / "panel.json")
        panel = make_panel()
        save_panel(path, panel)
        loaded = load_panel(path)
        assert loaded.instrument == panel.instrument
        assert loaded.candles == panel.candles
        assert loaded.funding == panel.funding
        assert loaded.open_interest == panel.open_interest
        assert loaded.books == panel.books
        assert loaded.liquidations == panel.liquidations
        assert loaded.annotations == panel.annotations

    def test_save_is_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        save_panel(a, make_panel())
        save_panel(b, make_panel())
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as fh:
            json.dump({"kind": "report", "schema_version": "1"}, fh)
        with pytest.raises(SchemaError):
            load_panel(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as fh:
            json.dump({"kind": "panel", "schema_version": "99"}, fh)
        with pytest.raises(SchemaError):
            load_panel(path)

    def test_text_flags_load_as_their_value(self):
        doc = panel_to_dict(make_panel(2))
        doc["candles"][0]["interpolated"] = "false"
        doc["candles"][1]["interpolated"] = "TRUE"
        assert [c.interpolated for c in panel_from_dict(doc).candles] == [False, True]

    def test_every_way_of_building_a_panel_gives_a_frozen_value(self, tmp_path):
        from rangegov.quality import run_pipeline
        from rangegov.synth import generate, load_builtin_scenario

        path = str(tmp_path / "panel.json")
        panel = make_panel()
        save_panel(path, panel)
        built = {
            "constructor": panel,
            "replace": panel._replace(candles=list(panel.candles)),
            "load_panel": load_panel(path),
            "run_pipeline": run_pipeline(panel)[0],
            "generate": generate(load_builtin_scenario("h1-confirm"))[0],
        }
        for how, p in built.items():
            for name in SERIES:
                assert type(getattr(p, name)) is (Books if name == "books" else tuple), \
                    (how, name)
                with pytest.raises(AttributeError):
                    setattr(p, name, ())
        cleaned = built["run_pipeline"]
        assert cleaned.open_interest is panel.open_interest
        assert cleaned.liquidations is panel.liquidations

    def test_report_writer_injects_schema_version(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, {"a": 1})
        doc = json.load(open(path))
        assert doc["schema_version"] == "1"


_DECIMALS = st.decimals(-10 ** 9, 10 ** 9, places=12).map(d12)
_TIMES = st.integers(0, 4 * 10 ** 9)
_DIGITS = st.text("0123456789", min_size=1, max_size=6)
_CANDLES = st.builds(Candle4H, _TIMES, _DECIMALS, _DECIMALS, _DECIMALS, _DECIMALS, _DECIMALS,
                     exchange_count=st.integers(0, 50), interpolated=st.booleans())
_OI = st.builds(OpenInterestRecord, _TIMES, _DECIMALS,
                long_oi_usd=st.none() | _DECIMALS, short_oi_usd=st.none() | _DECIMALS,
                holder_shares=st.none() | st.lists(_DECIMALS, min_size=1, max_size=4).map(tuple),
                leverage_histogram=st.none() | st.dictionaries(_DIGITS, _DIGITS, min_size=1,
                                                               max_size=4))
_LIQUIDATIONS = st.builds(LiquidationEvent, _TIMES, _DECIMALS, _DECIMALS,
                          st.sampled_from(["long", "short"]))


@given(st.lists(_CANDLES, max_size=4), st.lists(_OI, max_size=4),
       st.lists(_LIQUIDATIONS, max_size=4))
@settings(max_examples=150, deadline=None)
def test_csv_and_panel_decode_alike(candles, oi, liquidations):
    """Both encodings of the same records decode to those records."""
    panel = Panel(instrument="X", candles=candles, open_interest=oi,
                  liquidations=liquidations)
    loaded = panel_from_dict(json.loads(dump_json(panel_to_dict(panel))))
    with tempfile.TemporaryDirectory() as root:
        for write, read, records, got in (
                (write_candles_csv, read_candles_csv, candles, loaded.candles),
                (write_oi_csv, read_oi_csv, oi, loaded.open_interest),
                (write_liquidations_csv, read_liquidations_csv, liquidations,
                 loaded.liquidations)):
            path = os.path.join(root, "series.csv")
            write(path, records)
            assert read(path) == records and got == tuple(records)


class TestManifest:
    def write_inputs(self, tmp_path, venues=3):
        candles = make_candles(12)
        exchanges = []
        for v in range(venues):
            path = str(tmp_path / ("venue%d.csv" % v))
            write_candles_csv(path, candles)
            exchanges.append({"name": "venue%d" % v,
                              "volume_30d": 1e9 * (venues - v),
                              "candles": os.path.basename(path)})
        fpath = str(tmp_path / "funding.csv")
        write_funding_csv(fpath, [(T0 + k * 28800, d12(0.0002), None, None)
                                  for k in range(1, 6)])
        manifest = {
            "instrument": "TEST-PERP",
            "exchanges": exchanges,
            "funding": [{"name": "venue0", "interval_hours": 8,
                         "path": "funding.csv", "authoritative": True}],
        }
        mpath = str(tmp_path / "manifest.json")
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        return mpath

    def test_ingest_merges_and_cleans(self, tmp_path):
        mpath = self.write_inputs(tmp_path)
        panel, report, cfg = ingest_manifest(mpath)
        assert panel.instrument == "TEST-PERP"
        assert len(panel.candles) == 12
        # identical venues: merged price equals per-venue price, volume sums
        assert panel.candles[0].close == d12(100.0)
        assert panel.candles[0].volume == d12(3000)
        assert panel.candles[0].exchange_count == 3
        assert len(panel.funding) == 5
        assert panel.funding[0].rate_8h == d12(0.0002)
        assert report.passed

    def test_config_overrides_apply(self, tmp_path):
        mpath = self.write_inputs(tmp_path)
        doc = json.load(open(mpath))
        doc["config"] = {"range_window": 24}
        with open(mpath, "w") as fh:
            json.dump(doc, fh)
        _, _, cfg = ingest_manifest(mpath)
        assert cfg.range_window == 24

    def test_unknown_override_rejected(self, tmp_path):
        mpath = self.write_inputs(tmp_path)
        doc = json.load(open(mpath))
        doc["config"] = {"no_such_key": 1}
        with open(mpath, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(SchemaError):
            ingest_manifest(mpath)

    def test_top_venues_by_volume_are_used(self, tmp_path):
        mpath = self.write_inputs(tmp_path, venues=5)
        panel, _, _ = ingest_manifest(mpath)
        # only the 3 highest-volume venues merge
        assert panel.candles[0].exchange_count == 3

    def test_manifest_schema_errors(self, tmp_path):
        mpath = str(tmp_path / "m.json")
        with open(mpath, "w") as fh:
            json.dump({"instrument": "X", "exchanges": []}, fh)
        with pytest.raises(SchemaError):
            load_manifest(mpath)
        with open(mpath, "w") as fh:
            json.dump({"exchanges": [{"name": "a", "volume_30d": 1,
                                      "candles": "c.csv"}]}, fh)
        with pytest.raises(SchemaError):
            load_manifest(mpath)


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _streamed(doc) -> str:
    """`dump_json`'s write form, passing its parts on at every member boundary."""
    parts = []
    with mock.patch.object(formats, "_HOLD_PARTS", 0):
        assert dump_json(doc, parts.append) is None
    return "".join(parts)


_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                                  -0.0, 1e300, 5e-324]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                     _FLOATS.map(np.float64), _TEXT)
# keys of one dict must sort against each other, as json's sort_keys needs
_KEY_SETS = (_TEXT, st.one_of(st.integers(), _FLOATS, st.booleans(), _FLOATS.map(np.float64)),
             st.none())


def _containers(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     *[st.dictionaries(keys, children, max_size=5) for keys in _KEY_SETS])


_DOCS = st.recursive(_SCALARS, _containers, max_leaves=40)


def _nest(doc, shells):
    """`doc` inside one container per entry of `shells`, innermost first."""
    for kind, key in shells:
        doc = [doc, key] if kind == "list" else (key, doc) if kind == "tuple" \
            else {"k" + key: doc, "": key}
    return doc


_DEEP_DOCS = st.builds(_nest, _DOCS, st.lists(
    st.tuples(st.sampled_from(["list", "tuple", "dict"]), _TEXT), min_size=6, max_size=9))


def _outcome(encode, doc):
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestDumpJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = dump_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_leaves_no_reference_cycle(self):
        """The parts of the text are freed on return, not held by a cycle
        until a later collection."""
        gc.collect()
        gc.disable()
        try:
            dump_json({"a": [{"b": [1, 2]}, [3, [4]]]})
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(st.one_of(_DOCS, _DEEP_DOCS))
    @settings(max_examples=400, deadline=None)
    def test_bytes_equal_json_dumps(self, doc):
        assert dump_json(doc) == _reference(doc) == _streamed(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[[[[[]]]]]]],
        {"\x00\x1f\u2028é\ud800": ["\t", "\u00ff", "\U0001f600"]},
        {1.5: 1, 2: 2, True: 3}, {None: [None]}, {"v": [np.float64("nan"), -0.0]},
    ])
    def test_edge_documents(self, doc):
        assert dump_json(doc) == _reference(doc) == _streamed(doc)

    @pytest.mark.parametrize("doc", [
        {"a": Decimal("1.5")},
        {"a": [1, Decimal("1.5")]},
        {"a": {"b": [np.bool_(True)]}},
        [np.int64(3)],
        {"a": {1, 2}},
        {"a": 1, 2: "b"},
        {"a": {"b": 1, 2: "c"}},
        {(1, 2): 3},
        {"a": [{(1, 2): 3}]},
        {"a": [{(1, 2): [3]}]},
        {"z": [Decimal(1)], "a": {(1,): 0}},
    ])
    def test_unserializable_raises_as_json_does(self, doc):
        expected = _outcome(_reference, doc)
        assert isinstance(expected, tuple)
        assert _outcome(dump_json, doc) == _outcome(_streamed, doc) == expected

    def test_circular_reference_raises_as_json_does(self):
        loop = {"a": [1]}
        loop["a"].append(loop)
        inner = [[1]]
        inner[0].append(inner)
        for doc in (loop, {"x": inner}, [inner, 2]):
            assert _outcome(dump_json, doc) == _outcome(_streamed, doc) \
                == _outcome(_reference, doc) \
                == (ValueError, "Circular reference detected")

    def test_shared_container_is_not_a_cycle(self):
        shared = {"p": [1, 2]}
        doc = {"a": [shared, shared], "b": shared}
        assert dump_json(doc) == _reference(doc)

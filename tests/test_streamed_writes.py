"""Streamed writes: `save_panel` and `write_report` write their JSON as it is
encoded, and the files hold the bytes of the one-string form.

- Bytes: `save_panel` writes `dump_json(panel_to_dict(panel))`, and
  `write_report` writes `dump_json` of the doc stamped with `schema_version`,
  over the golden corpus, the all-optional-fields panel of `test_write_side`
  and drawn panels whose series lengths sit around the chunk size
  (`_CHUNK_RECORDS`, or a smaller one patched in).
- Memory: on a one-year (2190-bar) panel, neither write holds more than half
  the size of the file it writes (`tracemalloc` peak).
- Neither writer leaves a reference cycle behind.
"""
import gc
import io
import os
import tempfile
import tracemalloc
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangegov import formats, reports, synth
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

from conftest import SCENARIO_NAMES
from test_golden import coverage_panel, profile_panel
from test_write_side import every_optional_panel

T0 = 1700006400   # 2023-11-15T00:00:00Z, on the 4H and 8H grids
H4 = 14400
CHUNK = formats._CHUNK_RECORDS


def _saved(tmp_path, panel) -> bytes:
    path = str(tmp_path / "panel.json")
    formats.save_panel(path, panel)
    with open(path, "rb") as fh:
        return fh.read()


def _reported(tmp_path, doc) -> bytes:
    path = str(tmp_path / "report.json")
    formats.write_report(path, doc)
    with open(path, "rb") as fh:
        return fh.read()


def _stamped(doc) -> dict:
    return {"schema_version": formats.SCHEMA_VERSION, **doc}


@pytest.fixture(scope="module")
def corpus(scenario_panels):
    """name -> panel: the packaged scenarios and the golden coverage panels."""
    out = {name: scenario_panels[name][0] for name in SCENARIO_NAMES}
    out.update(coverage=coverage_panel(), profile=profile_panel(),
               every_optional=every_optional_panel())
    return out


def test_saved_panels_are_their_documents(corpus, tmp_path):
    for name, panel in corpus.items():
        assert _saved(tmp_path, panel) \
            == formats.dump_json(formats.panel_to_dict(panel)).encode(), name


def test_written_reports_are_their_documents(corpus, tmp_path):
    docs = {"%s/%s" % (name, build.__name__): build(corpus[name])
            for name in (*SCENARIO_NAMES, "coverage", "profile")
            for build in (reports.metrics_report, reports.hypotheses_report,
                          reports.regime_report)}
    docs["backtest"] = synth.backtest([corpus[name] for name in SCENARIO_NAMES])
    docs["stamped"] = {"schema_version": "0", "kind": "quality"}   # a doc's own stamp stays
    for key, doc in docs.items():
        text = formats.dump_json(_stamped(doc))
        assert _reported(tmp_path, doc) == text.encode(), key
        stream = io.StringIO()
        formats.write_report(stream, doc)
        assert stream.getvalue() == text, key


def _panel(lengths, annotations) -> Panel:
    """A panel whose five record series have `lengths`; each optional field is
    set on some records and absent on others."""
    n_candles, n_funding, n_oi, n_books, n_liqs = lengths
    candles = [Candle4H(T0 + i * H4, d12(100 + i % 7), d12(101 + i % 5), d12(99 - i % 3),
                        d12(Decimal(100) + Decimal(i) / 1000), d12(i * 1.5),
                        exchange_count=1 + i % 3, interpolated=i % 5 == 0)
               for i in range(n_candles)]
    funding = [FundingRecord(T0 + i * 2 * H4, d12(Decimal(i % 9 - 4) / 10000), 4 + 4 * (i % 2),
                             1 + i % 3, *((d12(100 + i), d12(99 + i)) if i % 3 else ()))
               for i in range(n_funding)]
    oi = [OpenInterestRecord(
        T0 + i * H4, d12(5e8 + i), *((d12(3e8), d12(2e8 + i)) if i % 2 else (None, None)),
        leverage_histogram=({"10": str(i), "25": "2500000.50"} if i % 4 == 1
                            else {} if i % 4 == 2 else None),
        holder_shares=((d12("0.4"), d12("0.6")) if i % 3 == 1 else () if i % 3 == 2 else None))
        for i in range(n_oi)]
    books = [BookSnapshot(T0 + i * H4,
                          levels_text(((d12(99.5 - i % 4), d12(5 + i)), (d12(99 - i % 4), d12(9)))),
                          levels_text(((d12(100.5 + i % 3), d12(4)),)))
             for i in range(n_books)]
    liqs = [LiquidationEvent(T0 + i * 3600, d12(99 + i % 11), d12(1000 * (i + 1)),
                             "long" if i % 2 else "short")
            for i in range(n_liqs)]
    return Panel("CHUNK-PERP", candles, funding, oi, books, liqs, annotations)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20)


def _lengths(chunk: int) -> tuple:
    return (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)


# a chunk size, and five series lengths around it
_SIZES = st.sampled_from([1, 4, CHUNK]).flatmap(
    lambda chunk: st.tuples(st.just(chunk), st.tuples(*[st.sampled_from(_lengths(chunk))] * 5)))


HOLD = formats._HOLD_PARTS


@given(_SIZES, st.dictionaries(st.text(max_size=6), _JSON, max_size=4), st.sampled_from([HOLD, 0]))
@settings(max_examples=40, deadline=None)
@example((CHUNK, (0,) * 5), {}, HOLD)
@example((CHUNK, (1,) * 5), {"a": {"b": [1, {"c": None}]}}, 0)
@example((CHUNK, (CHUNK - 1,) * 5), {}, HOLD)
@example((CHUNK, (CHUNK,) * 5), {}, HOLD)
@example((CHUNK, (CHUNK + 1,) * 5), {}, 0)
@example((CHUNK, (2 * CHUNK + 1,) * 5), {"nested": [[1], {"x": "y"}]}, HOLD)
def test_chunked_series_are_the_document(sizes, annotations, hold):
    """Each series is written `chunk` records at a time; `hold` 0 passes the
    parts on at every member boundary of a member that is not a series."""
    chunk, lengths = sizes
    panel = _panel(lengths, annotations)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(formats, "_CHUNK_RECORDS", chunk), \
            mock.patch.object(formats, "_HOLD_PARTS", hold):
        path = os.path.join(tmp, "panel.json")
        formats.save_panel(path, panel)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == formats.dump_json(formats.panel_to_dict(panel)).encode()


YEAR = {"name": "year", "seed": 7, "base_price": 100.0, "instrument": "YEAR-PERP",
        "segments": [{"template": "noise", "length": 60, "overrides": {"sigma": 0.004}},
                     {"template": "range", "length": 2100, "overrides": {}},
                     {"template": "cascade", "length": 30, "overrides": {}}],
        "ground_truth": {}}


def _peak(write) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_write_holds_under_half_its_file(tmp_path):
    """The whole document in memory, as a dict, its text parts and the joined
    string, held several times the file's size."""
    panel = synth.generate(synth.scenario_from_dict(YEAR))[0]
    assert len(panel.candles) == 2190
    metrics = reports.metrics_report(panel)
    writes = {"panel.json": lambda path: formats.save_panel(path, panel),
              "metrics.json": lambda path: formats.write_report(path, metrics)}
    for name, write in writes.items():
        path = str(tmp_path / name)
        write(path)   # once first, so one-time caches are not counted
        peak = _peak(lambda: write(path))
        assert peak < 0.5 * os.path.getsize(path), (name, peak, os.path.getsize(path))


def test_writers_leave_no_reference_cycle(tmp_path):
    """What a write builds is freed on return, not held by a cycle until a
    later collection."""
    panel = _panel((CHUNK + 1,) * 5, {"a": [{"b": 1}]})
    doc = {"a": [{"b": [1, 2]}, [3, [4]]]}
    gc.collect()
    gc.disable()
    try:
        formats.save_panel(str(tmp_path / "panel.json"), panel)
        formats.write_report(str(tmp_path / "report.json"), doc)
        formats.write_report(io.StringIO(), doc)
        formats.dump_json(doc, [].append)
        assert gc.collect() == 0
    finally:
        gc.enable()

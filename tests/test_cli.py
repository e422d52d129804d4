"""End-to-end command-line flows, run in process through main(argv)."""

import errno
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import rangegov
from rangegov import formats
from rangegov.cli import main
from rangegov.config import DEFAULTS
from rangegov.formats import (
    load_panel,
    load_report,
    save_panel,
    write_books,
    write_candles_csv,
    write_funding_csv,
    write_liquidations_csv,
    write_oi_csv,
)
from rangegov.hypotheses import evaluate_all
from rangegov.model import d12

from conftest import SCENARIO_NAMES, scenario_path


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("RG_CONFIG", raising=False)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """All eight packaged scenarios realized into panel files via the CLI."""
    root = tmp_path_factory.mktemp("corpus")
    for name in SCENARIO_NAMES:
        rc = main(["synth", "--scenario", scenario_path(name),
                   "--out", str(root / (name + ".json"))])
        assert rc == 0
    return root


@pytest.fixture(scope="module")
def panel_file(corpus_dir):
    return str(corpus_dir / "h4-confirm.json")


# ------------------------------------------------------------- exit codes

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["validate", "--panel", "x.json", "--frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_config_key(panel_file, tmp_path, capsys):
    rc = main(["metrics", "--panel", panel_file, "--set", "bogus=1",
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("item, message", [
    ("swing_lookback=5.5", "config swing_lookback: want an integer, got 5.5"),
    ('swing_lookback="x"', "config swing_lookback: want an integer, got 'x'"),
    ("swing_lookback=true", "config swing_lookback: want an integer, got True"),
    ("range_window=-3", "config range_window: must be >= 1, got -3"),
    ("funding_spike_lookback=0", "config funding_spike_lookback: must be >= 2, got 0"),
    ("funding_spike_lookback=1", "config funding_spike_lookback: must be >= 2, got 1"),
    ("regime_window=1", "config regime_window: must be >= 2, got 1"),
    ("funding_spike_sigma=NaN", "config funding_spike_sigma: want a finite number, got nan"),
    ('funding_spike_sigma="2"', "config funding_spike_sigma: want a finite number, got '2'"),
    # `Infinity` had passed: a density of nulls and `"bandwidth": Infinity`,
    # which is not JSON
    ("kde_bandwidth_frac=Infinity", "config kde_bandwidth_frac: want a finite number, got inf"),
    ("slippage_order_usd=Infinity", "config slippage_order_usd: want a finite number, got inf"),
    ("funding_spike_sigma=-Infinity", "config funding_spike_sigma: want a finite number, got -inf"),
    # each had ended `metrics` in a ValueError traceback: a bandwidth that is
    # not positive, an order size of 0 at 12 decimal places
    ("kde_bandwidth_frac=0", "config kde_bandwidth_frac: must be > 0, got 0"),
    ("kde_bandwidth_frac=-1", "config kde_bandwidth_frac: must be > 0, got -1"),
    ("slippage_order_usd=0", "config slippage_order_usd: must be > 5e-13, got 0"),
    ("slippage_order_usd=-1", "config slippage_order_usd: must be > 5e-13, got -1"),
    ("slippage_order_usd=1e-300", "config slippage_order_usd: must be > 5e-13, got 1e-300"),
    ("slippage_order_usd=5e-13", "config slippage_order_usd: must be > 5e-13, got 5e-13"),
    # a profile bin as wide as 0 is no bin; the bin count's own bound is
    # test_volume_profile_work_is_bounded
    ("volume_bin_frac=0", "config volume_bin_frac: must be > 0, got 0"),
    ("volume_bin_frac=-0.005", "config volume_bin_frac: must be > 0, got -0.005"),
    # each had ended `metrics` in "not a fixed-point number", naming neither
    # the key nor the config: `d12` holds 16 integer digits
    ("depth_extreme_band=1e16",
     "config depth_extreme_band: must be > -1e16 and < 1e16, got 1e+16"),
    ("absorption_min_usd=1e20",
     "config absorption_min_usd: must be > -1e16 and < 1e16, got 1e+20"),
    ("spread_uncertainty=1e17",
     "config spread_uncertainty: must be > -1e16 and < 1e16, got 1e+17"),
    ("funding_elevated_abs=1e300",
     "config funding_elevated_abs: must be > -1e16 and < 1e16, got 1e+300"),
    ("funding_elevated_abs=-1e16",
     "config funding_elevated_abs: must be > -1e16 and < 1e16, got -1e+16"),
    ("absorption_min_usd=10000000000000000",
     "config absorption_min_usd: must be > -1e16 and < 1e16, got 10000000000000000"),
])
def test_bad_config_value_is_a_schema_error(panel_file, tmp_path, capsys, item, message):
    out = str(tmp_path / "m.json")
    assert main(["metrics", "--panel", panel_file, "--set", item, "--out", out]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err

    key, _, raw = item.partition("=")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"%s": %s}' % (key, raw))
    assert main(["metrics", "--panel", panel_file, "--config", str(cfg_file),
                 "--out", out]) == 3
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_a_config_value_past_d12_is_refused_in_every_command_and_source(
        panel_file, tmp_path, capsys, monkeypatch):
    """`hypotheses` had exited 0 where `metrics` exited 3 on the same flags."""
    message = "config depth_extreme_band: must be > -1e16 and < 1e16, got 1e+16"
    out = str(tmp_path / "r.json")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"depth_extreme_band": 1e16}')
    for flags in (["--set", "depth_extreme_band=1e16"], ["--config", str(cfg_file)]):
        assert main(["hypotheses", "--panel", panel_file, "--out", out] + flags) == 3
        assert message in capsys.readouterr().err
    monkeypatch.setenv("RG_CONFIG", str(cfg_file))
    assert main(["hypotheses", "--panel", panel_file, "--out", out]) == 3
    assert message in capsys.readouterr().err
    monkeypatch.delenv("RG_CONFIG")
    assert not os.path.exists(out)

    _write_inputs(tmp_path, load_panel(panel_file))
    manifest = tmp_path / "manifest.json"
    _manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["config"] = {"depth_extreme_band": 1e16}
    manifest.write_text(json.dumps(doc))
    assert main(["ingest", "--manifest", str(manifest), "--out", out]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.path.exists(out)

    # the largest floats below the bound are taken
    assert main(["metrics", "--panel", panel_file, "--out", out,
                 "--set", "depth_extreme_band=9999999999999998.0",
                 "--set", "funding_elevated_abs=-9999999999999998.0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key", ["h3_structural_closes", "price_mad_sigma", "bars_per_day",
                                 "settlements_per_day", "cumulative_short_days",
                                 "cumulative_long_days", "leverage_vol_days", "liq_mode_days",
                                 "h2_funding_moderation_abs"])
def test_removed_config_key_is_a_schema_error(panel_file, tmp_path, capsys, key):
    out = str(tmp_path / "m.json")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: 1}))
    for flags in (["--set", key + "=1"], ["--config", str(cfg_file)]):
        assert main(["metrics", "--panel", panel_file, "--out", out] + flags) == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    assert not os.path.exists(out)

    _write_inputs(tmp_path, load_panel(panel_file))
    manifest = tmp_path / "manifest.json"
    _manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["config"] = {key: 1}
    manifest.write_text(json.dumps(doc))
    assert main(["ingest", "--manifest", str(manifest), "--out", out]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_config_floors_and_int_for_float_are_accepted(panel_file, tmp_path, capsys):
    out = str(tmp_path / "m.json")
    assert main(["metrics", "--panel", panel_file, "--set", "funding_spike_lookback=2",
                 "--set", "timestamp_tolerance_s=0", "--set", "funding_spike_sigma=3",
                 "--set", "kde_bandwidth_frac=1e-9", "--set", "slippage_order_usd=6e-13",
                 "--set", "regime_window=2", "--out", out]) == 0
    capsys.readouterr()


def _run_bounded(argv, seconds=60, address_space=1 << 30):
    """`rangegov argv` in a child process that may run `seconds` and map
    `address_space` bytes (RLIMIT_AS, set on the child alone)."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = os.path.dirname(os.path.dirname(rangegov.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("RG_CONFIG", None)
    return subprocess.run([sys.executable, "-m", "rangegov", *argv], capture_output=True,
                          text=True, env=env, timeout=seconds, preexec_fn=limit)


def _high_times_1e5(doc):
    doc["candles"][20]["high"] = str(d12(doc["candles"][20]["high"]) * 100000)


def _every_bar_spans_the_range(doc):
    low = min((d12(c["low"]) for c in doc["candles"]))
    high = max((d12(c["high"]) for c in doc["candles"]))
    for c in doc["candles"]:
        c["low"], c["high"] = str(low), str(high)


@pytest.mark.parametrize("edit, flags", [
    pytest.param(_high_times_1e5, [], id="one-high-x1e5"),
    pytest.param(None, ["--set", "volume_bin_frac=1e-9"], id="bin-frac-1e-9"),
    pytest.param(None, ["--set", "volume_bin_frac=5e-324"], id="bin-frac-least-float"),
    pytest.param(_every_bar_spans_the_range, ["--set", "volume_bin_frac=1e-9"],
                 id="every-bar-spans-the-range-bin-frac-1e-9"),
])
def test_volume_profile_work_is_bounded(panel_file, tmp_path, edit, flags):
    """The profile's bin count grew with the price span over the bin width:
    the first two rows had ended `metrics` in MemoryError under this bound
    (tens of millions of bins), the third in OverflowError (an infinite bin
    count), while `validate`, `hypotheses` and `regime` exit 0. In the last
    row every bar spans every one of the bins: the most bar-bin pairs a panel
    can have."""
    from rangegov.structure import PROFILE_MAX_BINS

    doc = json.loads(pathlib.Path(panel_file).read_text())
    if edit:
        edit(doc)
    panel = tmp_path / "panel.json"
    panel.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    for argv in (["validate"], ["metrics", "--out", str(out)]):
        done = _run_bounded(argv + ["--panel", str(panel)] + flags)
        assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    profile = load_report(str(out))["families"]["structural"]["volume_profile"]
    assert len(profile["volumes"]) == PROFILE_MAX_BINS
    assert profile["bin_edges"][0] < profile["peak_price"] < profile["bin_edges"][-1]


def test_malformed_panel_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["validate", "--panel", str(p)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "metrics", "regime"])
def test_nan_price_is_a_schema_error(panel_file, tmp_path, capsys, command):
    with open(panel_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["candles"][5]["high"] = "NaN"
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--panel", str(path)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "bad decimal 'NaN'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("series, field", [
    ("candles", "close"), ("candles", "time"), ("funding", "rate_8h"),
    ("open_interest", "oi_usd"), ("liquidations", "price"),
])
def test_missing_record_field_is_a_schema_error(corpus_dir, tmp_path, capsys,
                                                series, field):
    with open(corpus_dir / "h4-confirm.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc[series][1][field]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--panel", str(path)]) == 3
    err = capsys.readouterr().err
    assert "%s[1] missing field %r" % (series, field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, message", [
    (None, "bad decimal None"), (["x"], "not an object"),
])
def test_null_or_non_object_record_is_a_schema_error(panel_file, tmp_path, capsys,
                                                     value, message):
    with open(panel_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(value, list):
        doc["candles"][2] = value
    else:
        doc["candles"][2]["close"] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--panel", str(path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda d, s=series, k=key, v=value: d[s][3].update({k: v}),
                 "%s[3]" % series, id="%s-%s-%s" % (series, key, label))
    for series, key, value, label in (
        ("candles", "exchange_count", "x", "text"),
        ("candles", "exchange_count", [1], "list"),
        ("candles", "interpolated", "yes", "text"),
        ("funding", "source_interval_hours", "x", "text"),
        ("open_interest", "holder_shares", 5, "number"),
        ("open_interest", "leverage_histogram", [1], "list"),
        ("open_interest", "leverage_histogram", {"x": "1"}, "label"),
        ("liquidations", "side", "sideways", "text"),
    )
] + [
    pytest.param(lambda d: d.update(candles=5), "candles must be a list", id="candles-number"),
    pytest.param(lambda d: d.update(books=5), "books must be a list", id="books-number"),
    pytest.param(lambda d: d["books"].__setitem__(3, 5), "books[3] is not a string",
                 id="book-line-number"),
    pytest.param(lambda d: d.update(annotations=[1]), "annotations must be an object",
                 id="annotations-list"),
    # a JSON boolean or list is not a decimal; each had read as 1 or 0
    pytest.param(lambda d: d["candles"][3].update(volume=True),
                 "candles[3]: bad decimal True", id="candles-volume-bool"),
    pytest.param(lambda d: d["funding"][3].update(rate_8h=False),
                 "funding[3]: bad decimal False", id="funding-rate-bool"),
    pytest.param(lambda d: d["open_interest"][3].update(oi_usd=[0, [1], 0]),
                 "open_interest[3]: bad decimal [0, [1], 0]", id="oi-decimal-tuple-list"),
] + [
    pytest.param(lambda d, v=value: d.update(instrument=v), "instrument must be a string",
                 id="instrument-%s" % label)
    for label, value in (("number", 5), ("null", None), ("list", ["X"]))
])
def test_malformed_panel_field_is_a_schema_error(panel_file, tmp_path, capsys, edit, named):
    with open(panel_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["metrics", "--out", str(tmp_path / "m.json")]):
        assert main(argv + ["--panel", str(path)]) == 3, argv[0]
        err = capsys.readouterr().err
        assert "%s: %s" % (path, named) in err and "Traceback" not in err, err
    assert not (tmp_path / "m.json").exists()


def test_a_bare_time_book_line_out_of_order_is_judged_by_the_gate_first(
        corpus_dir, tmp_path, capsys):
    """A book line that is only a valid time, earlier than the line before it:
    `validate` reads the line and refuses its shape (3), while an analytic
    command's panel gate, which reads every time before any snapshot is built,
    refuses the order (5)."""
    with open(corpus_dir / "h1-confirm.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["books"][10] = doc["books"][8].split("|")[0]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--panel", str(path)]) == 3
    assert capsys.readouterr().err == \
        "error (schema): %s: books[10]: want time|bids|asks, got 1 fields\n" % path
    out = tmp_path / "m.json"
    assert main(["metrics", "--panel", str(path), "--out", str(out)]) == 5
    assert capsys.readouterr().err == \
        "error (quality): %s: books timestamps not ascending\n" % path
    assert not out.exists()


def test_directory_path_is_a_missing_file(panel_file, tmp_path, capsys):
    assert main(["validate", "--panel", str(tmp_path)]) == 4
    assert "missing file: %s" % tmp_path in capsys.readouterr().err

    _write_inputs(tmp_path, load_panel(panel_file))
    manifest = tmp_path / "manifest.json"
    _manifest(tmp_path)
    (tmp_path / "venue").mkdir()
    doc = json.loads(manifest.read_text())
    doc["exchanges"][0]["candles"] = "venue"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    assert main(["ingest", "--manifest", str(manifest), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "missing file: %s" % (tmp_path / "venue") in err and "Traceback" not in err
    assert not out.exists()


def test_zero_oi_before_a_break_leaves_h2_not_evaluable(corpus_dir, tmp_path, capsys):
    source = corpus_dir / "h2-confirm.json"
    panel = load_panel(str(source))
    start = evaluate_all(panel, DEFAULTS)["H2"].window[0]
    close_t = panel.candles[start].close_time
    k = max(i for i, r in enumerate(panel.open_interest) if r.time <= close_t)
    doc = json.loads(source.read_text())
    doc["open_interest"][k].update(oi_usd="0", long_oi_usd="0", short_oi_usd="0")
    path = tmp_path / "zero-oi.json"
    path.write_text(json.dumps(doc))

    out = tmp_path / "h.json"
    assert main(["hypotheses", "--panel", str(path), "--h", "2", "--out", str(out)]) == 0
    h2 = load_report(str(out))["verdicts"]["H2"]
    assert h2["outcome"] == "not-evaluable"
    assert "OI zero at the start of the window: change undefined" in h2["notes"]
    assert [s["met"] for s in h2["signals"] if s["name"] == "oi_rotation"] == [None]
    assert main(["regime", "--panel", str(path), "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()


def _with_last_bids(source, tmp_path, edit, count=1):
    """The panel at `source` with `edit(bids)` applied to the bid side of its
    last `count` book snapshots."""
    doc = json.loads(source.read_text())
    for i in range(len(doc["books"]) - count, len(doc["books"])):
        time, bids, asks = doc["books"][i].split("|")
        doc["books"][i] = "|".join([time, edit(bids), asks])
    path = tmp_path / "books.json"
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.mark.parametrize("edit, reason", [
    pytest.param(lambda bids: "0:1 " + bids,
                 "bids non-positive price; bids levels not strictly ordered best-first",
                 id="zero-price"),
    pytest.param(lambda bids: "", "bids empty", id="empty-side"),
])
def test_invalid_latest_book_is_skipped_in_metrics(corpus_dir, tmp_path, capsys,
                                                   edit, reason):
    source = corpus_dir / "h2-confirm.json"
    path, doc = _with_last_bids(source, tmp_path, edit)
    for command in ("validate", "metrics", "hypotheses", "regime"):
        out = ["--out", str(tmp_path / (command + ".json"))] if command != "validate" else []
        expected = main([command, "--panel", str(source)] + out)
        assert main([command, "--panel", str(path)] + out) == expected, command
        assert "Traceback" not in capsys.readouterr().err
    liquidity = load_report(str(tmp_path / "metrics.json"))["families"]["liquidity"]
    skipped, previous = doc["books"][-1][:20], doc["books"][-2][:20]
    assert liquidity["latest"]["time"] == previous
    assert liquidity["notes"] == ["book snapshot %s skipped: %s" % (skipped, reason)]


def test_extremes_tail_skips_an_invalid_latest_snapshot(corpus_dir, tmp_path, capsys):
    source = corpus_dir / "h2-confirm.json"
    path, doc = _with_last_bids(source, tmp_path, lambda bids: "0:1 " + bids)
    out = tmp_path / "m.json"
    assert main(["metrics", "--panel", str(path), "--family", "liquidity",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    liquidity = load_report(str(out))["families"]["liquidity"]
    accepted = [line[:20] for line in doc["books"][:-1]][-DEFAULTS.depth_trend_snapshots:]
    assert [row["time"] for row in liquidity["extremes_series"]] == accepted
    assert accepted[-1] == liquidity["latest"]["time"] == "2023-11-26T08:00:00Z"
    assert liquidity["extremes_trend"]["snapshots"] == len(accepted)


def test_no_valid_book_leaves_latest_null(corpus_dir, tmp_path, capsys):
    source = corpus_dir / "h2-confirm.json"
    count = len(json.loads(source.read_text())["books"])
    path, doc = _with_last_bids(source, tmp_path, lambda bids: "", count)
    out = tmp_path / "m.json"
    assert main(["metrics", "--panel", str(path), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    liquidity = load_report(str(out))["families"]["liquidity"]
    assert liquidity["latest"] is None and liquidity["snapshots"] == count
    assert liquidity["notes"] == ["no valid book snapshot among %d; the latest, %s, has: "
                                  "bids empty" % (count, doc["books"][-1][:20])]


def test_missing_panel_file(tmp_path, capsys):
    assert main(["validate", "--panel", str(tmp_path / "nope.json")]) == 4
    capsys.readouterr()


def test_backtest_without_matches(tmp_path, capsys):
    rc = main(["backtest", "--panels", str(tmp_path / "*.json"),
               "--out", str(tmp_path / "bt.json")])
    assert rc == 4
    capsys.readouterr()


def test_validate_clean_panel(panel_file, tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["validate", "--panel", panel_file, "--out", str(out)]) == 0
    doc = load_report(str(out))
    assert doc["kind"] == "quality"
    assert doc["passed"] is True
    capsys.readouterr()


def test_validate_prints_the_report_it_writes(panel_file, tmp_path, capsys):
    """Without --out the quality report goes to stdout, stamped as every report is."""
    out = tmp_path / "q.json"
    assert main(["validate", "--panel", panel_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", "--panel", panel_file]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_validate_rejects_hot_funding(panel_file, tmp_path, capsys):
    panel = load_panel(panel_file)
    hot = panel.funding[0]._replace(rate_8h=d12("0.04"))
    bad = panel._replace(funding=[hot] + list(panel.funding[1:]))
    path = tmp_path / "hot.json"
    save_panel(str(path), bad)
    out = tmp_path / "q.json"
    assert main(["validate", "--panel", str(path), "--out", str(out)]) == 5
    doc = load_report(str(out))
    assert doc["passed"] is False
    assert any(f["severity"] == "reject" for f in doc["flags"])
    capsys.readouterr()


def _swap(seq, i, j):
    seq[i], seq[j] = seq[j], seq[i]


def _empty_every_series(doc):
    for key in ("candles", "funding", "open_interest", "books", "liquidations"):
        doc[key] = []


CONTIGUITY = "not contiguous on the 4H grid: "


@pytest.mark.parametrize("source, edit, field, reason", [
    pytest.param("h2-confirm", lambda d: d["candles"].reverse(), "candles[1].open_time",
                 CONTIGUITY, id="candles-reversed"),
    pytest.param("h4-confirm", lambda d: _swap(d["candles"], 3, 4), "candles[3].open_time",
                 CONTIGUITY, id="candles-swapped"),
    pytest.param("h4-confirm", lambda d: d["candles"].insert(4, d["candles"][3]),
                 "candles[4].open_time", CONTIGUITY, id="candle-duplicated"),
    pytest.param("h4-confirm", lambda d: d["candles"].__delitem__(slice(5, 8)),
                 "candles[5].open_time", CONTIGUITY, id="three-bar-gap"),
    pytest.param("h4-confirm", lambda d: d["funding"][3].update(rate_8h="0.05"),
                 "funding[3].rate_8h", "|0.05| at or past hard bound 0.0375", id="hot-funding"),
    pytest.param("h4-confirm", lambda d: d["funding"][3].update(source_interval_hours=0),
                 "funding[3].source_interval_hours", "must be 4, 8 or 12", id="zero-interval"),
    pytest.param("h4-confirm", lambda d: d["candles"][3].update(low="200"),
                 "candles[3].low", "exceeds min(open, close)", id="low-above-high"),
    pytest.param("h4-confirm", lambda d: d["open_interest"][3].update(oi_usd="-5"),
                 "open_interest[3].oi_usd", "negative", id="negative-oi"),
    pytest.param("h4-confirm", lambda d: d["open_interest"][3].update(oi_usd="0"),
                 "open_interest[3].oi_usd", "long + short does not reconcile with total",
                 id="zero-oi-with-legs"),
    pytest.param("h4-confirm", lambda d: d["liquidations"][3].update(size_usd="0"),
                 "liquidations[3].size_usd", "must be > 0", id="zero-liquidation"),
    pytest.param("h4-confirm", lambda d: d["open_interest"].reverse(), "open_interest",
                 "timestamps not ascending", id="oi-reversed"),
    pytest.param("h4-confirm", _empty_every_series, "candles", "empty panel",
                 id="every-series-empty"),
    pytest.param("h4-confirm", lambda d: _swap(d["funding"], 3, 4), "funding",
                 "timestamps not ascending", id="funding-swapped"),
    pytest.param("h4-confirm", lambda d: _swap(d["books"], 3, 4), "books",
                 "timestamps not ascending", id="books-swapped"),
    pytest.param("h4-confirm", lambda d: d["candles"].__delitem__(10), "candles[10].open_time",
                 CONTIGUITY, id="single-bar-gap"),
])
def test_every_command_refuses_a_panel_validate_rejects(corpus_dir, tmp_path, capsys,
                                                        source, edit, field, reason):
    doc = json.loads((corpus_dir / (source + ".json")).read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--panel", str(path)]) == 5
    captured = capsys.readouterr()
    assert reason in captured.out and "Traceback" not in captured.err
    out = str(tmp_path / "out.json")
    for argv in (["metrics", "--panel"], ["hypotheses", "--panel"], ["regime", "--panel"],
                 ["backtest", "--panels"]):
        assert main(argv + [str(path), "--out", out]) == 5, argv[0]
        err = capsys.readouterr().err
        assert "error (quality): %s: %s %s" % (path, field, reason) in err, err
        assert "Traceback" not in err
    assert not os.path.exists(out)


def test_break_at_bar_zero_is_not_a_breakout(panel_file, tmp_path, capsys):
    doc = json.loads(pathlib.Path(panel_file).read_text(encoding="utf-8"))
    doc["candles"][0].update(close="103.5", high="104")
    path = tmp_path / "bar0.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "h.json")
    assert main(["validate", "--panel", str(path)]) == 0
    assert main(["hypotheses", "--panel", str(path), "--h", "2", "--out", out]) == 0
    h2 = load_report(out)["verdicts"]["H2"]
    assert h2["outcome"] == "not-evaluable" and "no breakout candidate bar" in h2["notes"]
    assert main(["regime", "--panel", str(path), "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flows", [5, [[1]]], ids=["number", "short-row"])
def test_malformed_daily_net_flow_is_a_schema_error(panel_file, tmp_path, capsys, flows):
    doc = json.loads(pathlib.Path(panel_file).read_text(encoding="utf-8"))
    doc["annotations"]["daily_net_flow_usd"] = flows
    path = tmp_path / "flows.json"
    path.write_text(json.dumps(doc))
    _write_inputs(tmp_path, load_panel(panel_file))
    manifest = json.loads(pathlib.Path(_manifest(tmp_path)).read_text(encoding="utf-8"))
    manifest["annotations"] = {"daily_net_flow_usd": flows}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "p.json"
    for argv in (["validate", "--panel", str(path)],
                 ["ingest", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out)]):
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert "annotations.daily_net_flow_usd" in err and "Traceback" not in err, err
    assert not out.exists()


def test_hypotheses_exit_encodes_falsified_count(corpus_dir, tmp_path, capsys):
    rc = main(["hypotheses", "--panel", str(corpus_dir / "h4-falsify.json"),
               "--h", "4", "--out", str(tmp_path / "h.json")])
    assert rc == 41
    doc = load_report(str(tmp_path / "h.json"))
    assert doc["verdicts"]["H4"]["outcome"] == "falsified"
    capsys.readouterr()


def test_hypotheses_clean_exit(corpus_dir, tmp_path, capsys):
    rc = main(["hypotheses", "--panel", str(corpus_dir / "h4-confirm.json"),
               "--h", "4", "--out", str(tmp_path / "h.json")])
    assert rc == 0
    capsys.readouterr()


# ---------------------------------------------------------------- happy paths

def test_metrics_single_family_and_umbrella(panel_file, tmp_path, capsys):
    one = tmp_path / "liq.json"
    assert main(["metrics", "--panel", panel_file, "--family", "liquidity",
                 "--out", str(one)]) == 0
    doc = load_report(str(one))
    assert list(doc["families"]) == ["liquidity"]

    full = tmp_path / "all.json"
    assert main(["metrics", "--panel", panel_file, "--out", str(full)]) == 0
    doc = load_report(str(full))
    assert set(doc["families"]) == {"structural", "cost", "positioning",
                                    "liquidity"}
    capsys.readouterr()


def test_regime_report(panel_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["regime", "--panel", panel_file, "--out", str(out)]) == 0
    doc = load_report(str(out))
    assert doc["kind"] == "regime"
    assert doc["advisory_only"] is True
    capsys.readouterr()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_regime_runs_at_the_regime_window_floor(corpus_dir, tmp_path, capsys, name):
    """The regime compares the two halves of its window, so 2 bars is the
    least window it can read (1 exits 3, see the config-value rows above)."""
    assert main(["regime", "--panel", str(corpus_dir / (name + ".json")),
                 "--set", "regime_window=2", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()


def test_backtest_over_corpus(corpus_dir, tmp_path, capsys):
    out = tmp_path / "bt.json"
    rc = main(["backtest", "--panels", str(corpus_dir / "*.json"),
               "--out", str(out)])
    assert rc == 0
    doc = load_report(str(out))
    assert doc["panels"] == len(SCENARIO_NAMES)
    assert doc["ground_truth"]["diagonal_frac"] == 1.0
    capsys.readouterr()


def _edited_panel(source, tmp_path, name, edit) -> str:
    doc = json.loads(pathlib.Path(source).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("ground_truth", [
    {"hypothesis": "H9", "expected_outcome": "confirmed"},
    {"hypothesis": 1, "expected_outcome": "confirmed"},
    {"hypothesis": ["H1"], "expected_outcome": "confirmed"},
    ["hypothesis", "expected_outcome"],
], ids=["H9", "number", "list", "not-an-object"])
def test_backtest_refuses_a_ground_truth_naming_no_hypothesis(corpus_dir, tmp_path, capsys,
                                                              ground_truth):
    def edit(doc):
        doc["instrument"] = "ODD-PERP"
        doc["annotations"]["ground_truth"] = ground_truth
    odd = _edited_panel(corpus_dir / "h1-confirm.json", tmp_path, "odd.json", edit)
    out = tmp_path / "bt.json"
    assert main(["backtest", "--panels", str(corpus_dir / "h2-confirm.json"), odd,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "ODD-PERP: ground_truth must be an object whose hypothesis is one of " \
        "H1, H2, H3, H4" in err and "Traceback" not in err, err
    assert not out.exists()


def test_backtest_refuses_an_instrument_that_is_not_a_string(corpus_dir, tmp_path, capsys):
    # a number and a string do not sort together
    odd = _edited_panel(corpus_dir / "h1-confirm.json", tmp_path, "odd.json",
                        lambda doc: doc.update(instrument=5))
    named = _edited_panel(corpus_dir / "h2-confirm.json", tmp_path, "named.json",
                          lambda doc: doc.update(instrument="X"))
    out = tmp_path / "bt.json"
    assert main(["backtest", "--panels", odd, named, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "%s: instrument must be a string" % odd in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("source, key", [("h3-confirm", "volatility_1h"),
                                         ("h1-confirm", "basis")])
def test_annotation_row_with_a_numeric_time_is_skipped(corpus_dir, tmp_path, capsys,
                                                       source, key):
    plain = str(corpus_dir / (source + ".json"))
    odd = _edited_panel(plain, tmp_path, "odd.json", lambda doc: doc["annotations"]
                        .setdefault(key, []).append({"time": 5, "value": 0.1}))
    for command in ("hypotheses", "regime"):
        codes, texts = [], []
        for panel, name in ((plain, "plain"), (odd, "odd")):
            out = tmp_path / ("%s-%s.json" % (command, name))
            codes.append(main([command, "--panel", panel, "--out", str(out)]))
            texts.append(out.read_bytes())
        assert codes[0] == codes[1] and texts[0] == texts[1], command
    capsys.readouterr()


def test_synth_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    src = scenario_path("h2-confirm")
    assert main(["synth", "--scenario", src, "--out", str(a)]) == 0
    assert main(["synth", "--scenario", src, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("base_price", [0, -100, float("nan"), float("inf")])
def test_synth_rejects_a_base_price_that_is_not_positive(tmp_path, capsys, base_price):
    doc = json.loads(pathlib.Path(scenario_path("h4-confirm")).read_text(encoding="utf-8"))
    doc["base_price"] = base_price
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "base_price must be finite and > 0" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("template, length, overrides", [
    ("range", 40, {"amplitude": "x"}),
    ("breakout", 20, {"post_bars": "x"}),
    ("trend", 20, {"volume_start": 3000, "volume_end": "z"}),
    ("breakout", 29, {"mode": "H1"}),
    ("breakout", 29, {"mode": "h3"}),
    ("breakout", 29, {"mode": None}),
])
def test_synth_names_an_unreadable_override(tmp_path, capsys, template, length, overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "odd", "seed": 1,
        "segments": [{"template": "range", "length": 30},
                     {"template": template, "length": length, "overrides": overrides}]}))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "scenario 'odd' segment 1 (%s): unreadable override" % template in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lead, segment", [
    (30, {"template": "breakout", "length": 20, "overrides": {"post_bars": -50}}),
    (40, {"template": "spike-revert", "length": 36, "overrides": {"quiet_bars": -10}}),
    (30, {"template": "breakout", "length": 20, "overrides": {"post_bars": -10 ** 9}}),
    (40, {"template": "spike-revert", "length": 36, "overrides": {"quiet_bars": -10 ** 9}}),
])
def test_synth_refuses_a_segment_longer_than_its_length(tmp_path, capsys, lead, segment):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "long", "seed": 1,
        "segments": [{"template": "range", "length": lead}, segment]}))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "scenario 'long' segment 1 (%s): " % segment["template"] in err, err
    assert "the segment writes more bars than its length" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("template, length, overrides, message", [
    ("range", 40, {"amplitud": 2}, "override not read for this segment: amplitud"),
    ("trend", 20, {"volume_end": "z"}, "volume_start and volume_end must be given together"),
    ("cascade", 20, {"recoil": []}, "recoil must be true or false, not []"),
    ("breakout", 29, {"sustain": "false"}, "sustain must be true or false, not 'false'"),
])
def test_synth_refuses_an_override_it_would_ignore(tmp_path, capsys, template, length,
                                                  overrides, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "odd", "seed": 1,
        "segments": [{"template": "range", "length": 40},
                     {"template": template, "length": length, "overrides": overrides}]}))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "scenario 'odd' segment 1 (%s): " % template in err and message in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("length", [40.9, True, 0, -3, "40", None])
def test_synth_refuses_a_segment_length_that_is_not_a_positive_integer(tmp_path, capsys,
                                                                     length):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "odd", "seed": 1,
        "segments": [{"template": "range", "length": 40},
                     {"template": "range", "length": length}]}))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "scenario 'odd' segment 1: segment length must be an integer >= 1, got %r" \
        % (length,) in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("segment, message", [
    ({"template": "rnage", "length": 40}, "unknown template 'rnage'"),
    ({"length": 40}, "missing key 'template'"),
    ({"template": "range"}, "missing key 'length'"),
])
def test_synth_names_the_scenario_and_segment_of_a_bad_segment(tmp_path, capsys, segment,
                                                                message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "odd", "seed": 1,
        "segments": [{"template": "range", "length": 40}, segment]}))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "scenario 'odd' segment 1: %s" % message in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["h4-confirm", "noise"])
@pytest.mark.parametrize("seed, argv", [
    (-1, []), (2.9, []), (True, []), ("4", []), (None, []),
    (7, ["--seed", "-5"]),
])
def test_synth_refuses_a_seed_that_is_not_a_nonnegative_integer(tmp_path, capsys, name,
                                                                seed, argv):
    if name == "noise":
        doc = {"name": "noise", "segments": [{"template": "noise", "length": 20}]}
    else:
        doc = json.loads(pathlib.Path(scenario_path(name)).read_text(encoding="utf-8"))
    doc["seed"] = seed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    assert main(["synth", "--scenario", str(path), *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    bad = -5 if argv else seed
    assert "scenario %r: seed must be an integer >= 0, got %r" % (name, bad) in err, err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_keeps_its_own_segment_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "short", "seed": 1,
        "segments": [{"template": "range", "length": 30},
                     {"template": "breakout", "length": 8}]}))
    assert main(["synth", "--scenario", str(path), "--out", str(tmp_path / "p.json")]) == 3
    assert capsys.readouterr().err == \
        "error (schema): breakout segment too short for hover + post bars\n"


def test_synth_seed_override_changes_noise(tmp_path, capsys):
    sc = tmp_path / "noise.json"
    sc.write_text(json.dumps({
        "name": "n", "seed": 3,
        "segments": [{"template": "noise", "length": 48}],
    }))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["synth", "--scenario", str(sc), "--out", str(a)]) == 0
    assert main(["synth", "--scenario", str(sc), "--seed", "99",
                 "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()
    capsys.readouterr()


def test_stamp_breaks_determinism_only_when_asked(panel_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["metrics", "--panel", panel_file, "--family", "cost",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "generated_at" not in load_report(str(a))

    stamped = tmp_path / "s.json"
    assert main(["metrics", "--panel", panel_file, "--family", "cost",
                 "--stamp", "--out", str(stamped)]) == 0
    assert "generated_at" in load_report(str(stamped))
    capsys.readouterr()


def test_plot_writes_svg_and_csv_twin(panel_file, tmp_path, capsys):
    report = tmp_path / "m.json"
    assert main(["metrics", "--panel", panel_file, "--out", str(report)]) == 0
    out = tmp_path / "fig.svg"
    assert main(["plot", "--report", str(report), "--kind", "range",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")
    twin = tmp_path / "fig.csv"
    assert twin.exists()
    assert twin.read_text().splitlines()[0] == "time,close,range_lower,range_upper"
    capsys.readouterr()


@pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
def test_plot_refuses_a_report_that_is_not_an_object(tmp_path, capsys, text):
    report = tmp_path / "m.json"
    report.write_text(text)
    assert main(["plot", "--report", str(report), "--kind", "range",
                 "--out", str(tmp_path / "fig.svg")]) == 3
    assert capsys.readouterr().err == "error (schema): %s: report must be an object\n" % report
    assert os.listdir(tmp_path) == ["m.json"]


@pytest.fixture(scope="module")
def h1_metrics(corpus_dir, tmp_path_factory):
    """The metrics report of packaged `h1-confirm`, as a JSON text."""
    out = tmp_path_factory.mktemp("h1-metrics") / "m.json"
    assert main(["metrics", "--panel", str(corpus_dir / "h1-confirm.json"),
                 "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("kind, edit", [
    pytest.param("range", lambda f: f["structural"]["per_bar"][2].pop("close"),
                 id="per-bar-row-without-close"),
    pytest.param("range", lambda f: f["structural"].update(per_bar="x"),
                 id="per-bar-a-string"),
    pytest.param("funding", lambda f: f.update(cost=5), id="cost-a-number"),
])
def test_plot_refuses_a_report_it_cannot_draw(h1_metrics, tmp_path, capsys, kind, edit):
    doc = json.loads(h1_metrics)
    edit(doc["families"])
    report = tmp_path / "m.json"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["plot", "--report", str(report), "--kind", kind,
                 "--out", str(tmp_path / "fig.svg")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error (schema): report cannot be drawn as %r: " % kind), err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["m.json"]


@pytest.mark.parametrize("close", ["nan", "1e400", True, 10 ** 400],
                         ids=["nan", "1e400", "true", "a-401-digit-integer"])
def test_plot_refuses_a_close_that_is_not_a_finite_number(h1_metrics, tmp_path, capsys, close):
    doc = json.loads(h1_metrics)
    doc["families"]["structural"]["per_bar"][2]["close"] = close
    report = tmp_path / "m.json"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["plot", "--report", str(report), "--kind", "range",
                 "--out", str(tmp_path / "fig.svg")]) == 3
    assert capsys.readouterr().err \
        == "error (schema): non-numeric value in plotted series: %r\n" % (close,)
    assert os.listdir(tmp_path) == ["m.json"]


def test_plot_rejects_unknown_kind(panel_file, tmp_path, capsys):
    report = tmp_path / "m.json"
    assert main(["metrics", "--panel", panel_file, "--out", str(report)]) == 0
    rc = main(["plot", "--report", str(report), "--kind", "pie",
               "--out", str(tmp_path / "fig.svg")])
    assert rc == 2
    capsys.readouterr()


# -------------------------------------------------------------------- ingest

def _write_inputs(root, panel):
    write_candles_csv(str(root / "candles.csv"), panel.candles)
    write_funding_csv(str(root / "funding.csv"),
                      [(r.settle_time, r.rate_8h, r.mark_price, r.index_price)
                       for r in panel.funding])
    write_oi_csv(str(root / "oi.csv"), panel.open_interest)


def _manifest(root, funding_csv="funding.csv"):
    doc = {
        "instrument": "TEST-PERP",
        "exchanges": [{"name": "alpha", "candles": "candles.csv",
                       "volume_30d": 1.0e6}],
        "funding": [{"path": funding_csv, "interval_hours": 8,
                     "authoritative": True}],
        "open_interest": "oi.csv",
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_ingest_round_trip(panel_file, tmp_path, capsys):
    source = load_panel(panel_file)
    _write_inputs(tmp_path, source)
    out = tmp_path / "panel.json"
    rc = main(["ingest", "--manifest", _manifest(tmp_path), "--out", str(out),
               "--quality", str(tmp_path / "q.json")])
    assert rc == 0
    panel = load_panel(str(out))
    assert panel.instrument == "TEST-PERP"
    assert len(panel.candles) == len(source.candles)
    assert [c.close for c in panel.candles] == [c.close for c in source.candles]
    assert load_report(str(tmp_path / "q.json"))["passed"] is True
    capsys.readouterr()


@pytest.mark.parametrize("edit, field", [
    pytest.param(lambda d, v=value: d["exchanges"][0].update(volume_30d=v), "volume_30d",
                 id="volume_30d-%s" % label)
    for label, value in (("string", "abc"), ("null", None), ("bool", True), ("list", [1]),
                         ("nan", float("nan")), ("infinity", float("inf")), ("negative", -1),
                         ("past-d12", 1e16))
] + [
    pytest.param(lambda d: d.update(exchanges=[5]), "exchanges[0]", id="exchange-not-object"),
    pytest.param(lambda d: d.update(funding="funding.csv"), "funding", id="funding-string"),
    pytest.param(lambda d: d["funding"][0].pop("path"), "path", id="funding-without-path"),
    pytest.param(lambda d: d["funding"][0].update(interval_hours="x"), "interval_hours",
                 id="interval-string"),
    pytest.param(lambda d: d.update(open_interest=5), "open_interest", id="oi-number"),
    pytest.param(lambda d: d.update(books=["b"]), "books", id="books-list"),
    pytest.param(lambda d: d.update(config=[1]), "config", id="config-list"),
] + [
    pytest.param(lambda d, v=value: d.update(instrument=v), "manifest instrument must be",
                 id="instrument-%s" % label)
    for label, value in (("number", 5), ("list", ["TEST-PERP"]), ("bool", True))
])
def test_malformed_manifest_is_a_schema_error(panel_file, tmp_path, capsys, edit, field):
    _write_inputs(tmp_path, load_panel(panel_file))
    manifest = tmp_path / "manifest.json"
    _manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    assert main(["ingest", "--manifest", str(manifest), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


def test_ingest_rejects_then_allows_flagged(panel_file, tmp_path, capsys):
    source = load_panel(panel_file)
    _write_inputs(tmp_path, source)
    rows = [(r.settle_time, r.rate_8h, r.mark_price, r.index_price)
            for r in source.funding]
    rows[0] = (rows[0][0], d12("0.04"), rows[0][2], rows[0][3])
    write_funding_csv(str(tmp_path / "hot.csv"), rows)
    manifest = _manifest(tmp_path, funding_csv="hot.csv")

    out = tmp_path / "panel.json"
    assert main(["ingest", "--manifest", manifest, "--out", str(out)]) == 5
    assert not out.exists()
    assert "reject" in capsys.readouterr().err

    rc = main(["ingest", "--manifest", manifest, "--out", str(out),
               "--allow-flagged"])
    assert rc == 0
    assert out.exists()
    capsys.readouterr()


# command -> modules its child process must not load: ingest, validate and
# plot run no numpy, metrics no masked arrays, and synth runs only the
# generator, not the analytics; without numpy, nothing loads `inspect`, since
# no module imports `dataclasses`
NEVER_LOADED = {
    "ingest": ("numpy", "statistics", "dataclasses", "inspect"),
    "metrics": ("numpy.ma", "statistics"),
    "validate": ("numpy", "statistics", "dataclasses", "inspect"),
    "plot": ("numpy", "statistics", "dataclasses", "inspect"),
    "synth": ("numpy", "rangegov.hypotheses", "rangegov.structure", "rangegov.liquidity",
              "rangegov.positioning", "rangegov.cost", "rangegov.regime",
              "rangegov.reports", "statistics", "dataclasses", "inspect"),
}
_LOADED = ("import json, sys\n"
           "import rangegov.cli\n"
           "code = rangegov.cli.main(json.loads(sys.argv[1]))\n"
           "print(json.dumps([code, [m for m in json.loads(sys.argv[2])\n"
           "                         if m in sys.modules]]))\n")


def _run_and_list_loaded(argv, modules) -> list:
    """[exit code, the modules of `modules` loaded] of `argv` in a fresh child."""
    src = os.path.dirname(os.path.dirname(rangegov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RG_CONFIG", None)
    done = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv),
                           json.dumps(modules)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_never_import_what_they_do_not_run(panel_file, tmp_path, capsys):
    source = load_panel(panel_file)
    _write_inputs(tmp_path, source)
    report = tmp_path / "m.json"
    assert main(["metrics", "--panel", panel_file, "--out", str(report)]) == 0
    capsys.readouterr()
    argvs = {
        "ingest": ["ingest", "--manifest", _manifest(tmp_path),
                   "--out", str(tmp_path / "p.json")],
        "validate": ["validate", "--panel", str(tmp_path / "p.json")],
        "metrics": ["metrics", "--panel", panel_file, "--out", str(tmp_path / "m2.json")],
        "plot": ["plot", "--report", str(report), "--kind", "range",
                 "--out", str(tmp_path / "fig.svg")],
        "synth": ["synth", "--scenario", scenario_path("h4-confirm"),
                  "--out", str(tmp_path / "s.json")],
    }
    for command, modules in NEVER_LOADED.items():
        assert _run_and_list_loaded(argvs[command], modules) == [0, []], command


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_synth_of_a_packaged_scenario_never_imports_numpy(name, tmp_path):
    # no packaged scenario scripts a noise segment, so none needs the generator
    argv = ["synth", "--scenario", scenario_path(name), "--out", str(tmp_path / "s.json")]
    assert _run_and_list_loaded(argv, ["numpy", "inspect"]) == [0, []]


def test_synth_of_a_noise_scenario_imports_numpy(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({"name": "n", "seed": 3, "segments": [
        {"template": "range", "length": 30}, {"template": "noise", "length": 20}]}))
    argv = ["synth", "--scenario", str(path), "--out", str(tmp_path / "s.json")]
    assert _run_and_list_loaded(argv, ["numpy"]) == [0, ["numpy"]]


def _python_floor_env():
    """The environment in which `python3.10` runs a Python 3.10, or None."""
    env = dict(os.environ, PYENV_VERSION="3.10")
    try:
        done = subprocess.run(["python3.10", "-c", "import sys; print(sys.version_info[:2])"],
                              capture_output=True, text=True, env=env, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return env if done.returncode == 0 and done.stdout.strip() == "(3, 10)" else None


def test_numpy_free_commands_write_the_same_bytes_on_the_python_floor(panel_file, tmp_path,
                                                                     capsys):
    """pyproject.toml declares Python >= 3.10. `ingest`, `validate` and `plot`
    import no numpy, so they run on a bare 3.10; their outputs must equal this
    interpreter's. A syntax or `re` feature newer than 3.10 (a possessive
    quantifier in CANONICAL_LEVELS, say) fails here."""
    floor_env = _python_floor_env()
    if floor_env is None:
        pytest.skip("no Python 3.10 interpreter")
    source = load_panel(panel_file)
    _write_inputs(tmp_path, source)
    write_books(str(tmp_path / "books.txt"), source.books)
    write_liquidations_csv(str(tmp_path / "liq.csv"), source.liquidations)
    manifest = tmp_path / "manifest.json"
    _manifest(tmp_path)
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()),
                                        books="books.txt", liquidations="liq.csv")))
    report = tmp_path / "m.json"
    assert main(["metrics", "--panel", panel_file, "--out", str(report)]) == 0
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(rangegov.__file__))
    outputs = {}
    for name, python, env in (("here", sys.executable, os.environ), ("floor", "python3.10",
                                                                      floor_env)):
        out = tmp_path / name
        out.mkdir()
        env = dict(env, PYTHONPATH=src)
        env.pop("RG_CONFIG", None)
        for argv in (["ingest", "--manifest", str(manifest), "--out", str(out / "p.json"),
                      "--quality", str(out / "q.json")],
                     ["validate", "--panel", str(out / "p.json"), "--out", str(out / "v.json")],
                     ["plot", "--report", str(report), "--kind", "range",
                      "--out", str(out / "fig.svg")]):
            done = subprocess.run([python, "-m", "rangegov", *argv], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert done.returncode == 0, (name, argv[0], done.stderr)
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["here"]) == 5
    assert outputs["floor"] == outputs["here"]


# ------------------------------------------------------------ config layers

def _order_usd(report_path):
    doc = load_report(report_path)
    return doc["families"]["liquidity"]["latest"]["slippage"]["order_usd"]


def test_config_file_replaces_rg_config(panel_file, tmp_path, monkeypatch, capsys):
    """`--config` is read instead of RG_CONFIG, not on top of it: a key that
    only RG_CONFIG sets keeps its default."""
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps({"slippage_order_usd": 50000}))
    cli_cfg = tmp_path / "cli.json"
    cli_cfg.write_text(json.dumps({"depth_trend_snapshots": 7}))
    monkeypatch.setenv("RG_CONFIG", str(env_cfg))
    out = tmp_path / "m.json"
    assert main(["metrics", "--panel", panel_file, "--family", "liquidity",
                 "--config", str(cli_cfg), "--out", str(out)]) == 0
    doc = load_report(str(out))["families"]["liquidity"]
    assert len(doc["extremes_series"]) == 7
    assert doc["latest"]["slippage"]["order_usd"] == DEFAULTS.slippage_order_usd != 50000
    capsys.readouterr()


def test_config_precedence_env_file_flag(panel_file, tmp_path, monkeypatch,
                                         capsys):
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps({"slippage_order_usd": 50000}))
    cli_cfg = tmp_path / "cli.json"
    cli_cfg.write_text(json.dumps({"slippage_order_usd": 75000}))
    monkeypatch.setenv("RG_CONFIG", str(env_cfg))

    base = ["metrics", "--panel", panel_file, "--family", "liquidity"]
    a = tmp_path / "a.json"
    assert main(base + ["--out", str(a)]) == 0
    assert _order_usd(str(a)) == 50000

    b = tmp_path / "b.json"
    assert main(base + ["--config", str(cli_cfg), "--out", str(b)]) == 0
    assert _order_usd(str(b)) == 75000

    c = tmp_path / "c.json"
    assert main(base + ["--config", str(cli_cfg),
                        "--set", "slippage_order_usd=125000",
                        "--out", str(c)]) == 0
    assert _order_usd(str(c)) == 125000
    capsys.readouterr()


# ------------------------------------------------------------ shared flags

# each command's own flags; all but plot also take --config and --set, and all
# but synth and plot take --stamp
OWN_FLAGS = {
    "ingest": {"--manifest", "--out", "--quality", "--allow-flagged"},
    "validate": {"--panel", "--out"},
    "metrics": {"--panel", "--family", "--out"},
    "hypotheses": {"--panel", "--h", "--out"},
    "regime": {"--panel", "--out"},
    "synth": {"--scenario", "--seed", "--out"},
    "backtest": {"--panels", "--out"},
    "plot": {"--report", "--kind", "--out"},
}
CONFIG_FLAGS = {"--config", "--set"}


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_each_command_takes_its_own_flags_and_the_shared_ones(command, capsys):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?m)^  (?:-h, )?(--[a-z][a-z-]*)", capsys.readouterr().out))
    want = OWN_FLAGS[command] | {"--help"}
    if command != "plot":
        want |= CONFIG_FLAGS
    if command not in ("synth", "plot"):
        want.add("--stamp")
    assert listed == want


# argv of each command that takes the config; no input is read, because a
# config error is reported before any
CONFIG_ARGVS = {
    "ingest": ["--manifest", "nope.json", "--out", "x.json"],
    "validate": ["--panel", "nope.json"],
    "metrics": ["--panel", "nope.json", "--out", "x.json"],
    "hypotheses": ["--panel", "nope.json", "--out", "x.json"],
    "regime": ["--panel", "nope.json", "--out", "x.json"],
    "synth": ["--scenario", "nope.json", "--out", "x.json"],
    "backtest": ["--panels", "nope.json", "--out", "x.json"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_ARGVS))
@pytest.mark.parametrize("flags, message", [
    (["--set", "bogus"], "--set expects key=value, got 'bogus'"),
    # a value that is not JSON is kept as its text, which the key then refuses
    (["--set", "funding_elevated_abs=abc"],
     "config funding_elevated_abs: want a finite number, got 'abc'"),
    (["--config", "list.json"], "config overrides must be a JSON object"),
    (["--config", "junk.json"], "junk.json: Expecting value: line 1 column 1 (char 0)"),
])
def test_a_bad_config_exits_3_in_every_command_that_takes_one(command, flags, message,
                                                              tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "junk.json").write_text("not json")
    assert main([command] + CONFIG_ARGVS[command] + flags) == 3
    assert "error (schema): " + message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["junk.json", "list.json"]


@pytest.mark.parametrize("command", sorted(CONFIG_ARGVS))
@pytest.mark.parametrize("rg_config", [None, "", "/nonexistent/rg.json"])
def test_an_empty_config_path_exits_4_whatever_rg_config_holds(command, rg_config, tmp_path,
                                                               monkeypatch, capsys):
    """`--config ""` names a file that is missing, as `--panel ""` does: it
    had been read as no --config, running on the defaults or on RG_CONFIG."""
    monkeypatch.chdir(tmp_path)
    if rg_config is not None:
        monkeypatch.setenv("RG_CONFIG", rg_config)
    assert main([command] + CONFIG_ARGVS[command] + ["--config", ""]) == 4
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", ["error (missing series): missing file: "])
    assert os.listdir(tmp_path) == []


def test_an_empty_rg_config_is_unset(panel_file, tmp_path, monkeypatch, capsys):
    plain, empty = tmp_path / "plain.json", tmp_path / "empty.json"
    assert main(["metrics", "--panel", panel_file, "--out", str(plain)]) == 0
    monkeypatch.setenv("RG_CONFIG", "")
    assert main(["metrics", "--panel", panel_file, "--out", str(empty)]) == 0
    assert empty.read_bytes() == plain.read_bytes()
    capsys.readouterr()


# ------------------------------------------------------------- file faults
# A path the command cannot use exits 4 in every command, with one error line
# naming it and no file left behind: an input that is missing, a directory or
# refused, and an output that is a directory, under a missing directory or
# refused.

# command -> its path flags, inputs first; --quality is given only when it is the fault
PATH_FLAGS = {
    "ingest": ("--manifest", "--out", "--quality"),
    "validate": ("--panel", "--out"),
    "metrics": ("--panel", "--out"),
    "hypotheses": ("--panel", "--out"),
    "regime": ("--panel", "--out"),
    "synth": ("--scenario", "--out"),
    "backtest": ("--panels", "--out"),
    "plot": ("--report", "--kind", "--out"),
}
OUTPUT_FLAGS = ("--out", "--quality")
INPUT_FAULTS = [(command, flag) for command, flags in PATH_FLAGS.items()
                for flag in flags if flag not in OUTPUT_FLAGS + ("--kind",)] \
    + [(command, source) for command in sorted(CONFIG_ARGVS)
       for source in ("--config", "RG_CONFIG")]
# (command, output, fault); "twin" is plot's .csv, written beside the .svg
# that --out names, so it has no directory of its own to be missing
OUTPUT_FAULTS = [(command, flag, kind) for command, flags in PATH_FLAGS.items()
                 for flag in flags if flag in OUTPUT_FLAGS
                 for kind in ("directory", "missing directory", "refused")] \
    + [("plot", "twin", "directory"), ("plot", "twin", "refused")] \
    + [(command, flag, "empty") for command, flag in
       (("synth", "--out"), ("metrics", "--out"), ("ingest", "--quality"),
        ("validate", "--out"), ("plot", "--out"))]
OLD_BYTES = b'{"kind": "old"}\n'


@pytest.fixture(scope="module")
def good_inputs(corpus_dir, tmp_path_factory):
    """A readable value for each input flag (and --kind)."""
    root = tmp_path_factory.mktemp("inputs")
    panel = str(corpus_dir / "h4-confirm.json")
    _write_inputs(root, load_panel(panel))
    report = str(root / "m.json")
    assert main(["metrics", "--panel", panel, "--out", report]) == 0
    return {"--manifest": _manifest(root), "--panel": panel, "--panels": panel,
            "--scenario": scenario_path("h4-confirm"), "--report": report, "--kind": "range"}


def _fault_argv(command, good_inputs, work, flag, path) -> list:
    """`command` reading `good_inputs` and writing into `work`, but for `flag`,
    which names `path`."""
    out = str(work / ("fig.svg" if command == "plot" else "out.json"))
    argv = [command]
    for name in PATH_FLAGS[command]:
        if name == flag:
            argv += [name, path]
        elif name == "--out":
            argv += [name, out]
        elif name != "--quality":
            argv += [name, good_inputs[name]]
    return argv + (["--config", path] if flag == "--config" else [])


def _tree_of(work) -> list:
    return sorted(str(p.relative_to(work)) for p in work.rglob("*"))


def _assert_one_error(capsys, line) -> None:
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", [line])


@pytest.mark.parametrize("kind", ["missing", "directory", "refused"])
@pytest.mark.parametrize("command, flag", INPUT_FAULTS)
def test_an_input_path_the_command_cannot_read_exits_4(command, flag, kind, good_inputs,
                                                       tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.json"
    line = "error (missing series): missing file: %s" % path
    if kind == "directory":
        path.mkdir()
    elif kind == "refused":   # as the kernel refuses a user, simulated so it runs as root too
        path.write_text("{}")
        line = "error (file): %s: %s" % (path, os.strerror(errno.EACCES))

        def denying_open(target, *args, **kwargs):
            if target == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)
            return open(target, *args, **kwargs)

        monkeypatch.setattr(formats, "open", denying_open, raising=False)
    if flag == "RG_CONFIG":
        monkeypatch.setenv("RG_CONFIG", str(path))
    before = _tree_of(tmp_path)
    assert main(_fault_argv(command, good_inputs, tmp_path, flag, str(path))) == 4
    _assert_one_error(capsys, line)
    assert _tree_of(tmp_path) == before


@pytest.mark.parametrize("command, flag, kind", OUTPUT_FAULTS)
def test_an_output_path_the_command_cannot_write_exits_4(command, flag, kind, good_inputs,
                                                         tmp_path, monkeypatch, capsys):
    name = {"twin": "fig.csv", "--out": "fig.svg" if command == "plot" else "out.json",
            "--quality": "quality.json"}[flag]
    path = tmp_path / "nodir" / name if kind == "missing directory" else tmp_path / name
    if kind == "directory":
        path.mkdir()
    elif kind == "empty":   # realpath("") is the working directory, here below tmp_path
        path = ""
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
    elif kind == "refused":   # as the kernel refuses a user, simulated so it runs as root too
        path.write_bytes(OLD_BYTES)
        real_open = os.open

        def denying_open(target, flags, *rest):
            if target == str(path) and flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)
            return real_open(target, flags, *rest)

        monkeypatch.setattr(os, "open", denying_open)
    before = _tree_of(tmp_path) + (["fig.svg"] if flag == "twin" else [])
    assert main(_fault_argv(command, good_inputs, tmp_path, flag, str(path))) == 4
    reason = {"directory": errno.EISDIR, "missing directory": errno.ENOENT,
              "refused": errno.EACCES, "empty": errno.ENOENT}[kind]
    _assert_one_error(capsys, "error (file): %s: %s" % (path, os.strerror(reason)))
    assert _tree_of(tmp_path) == sorted(before)
    if kind == "refused":
        assert path.read_bytes() == OLD_BYTES


def test_a_file_fault_prints_no_traceback(tmp_path):
    path = str(tmp_path / "nodir" / "out.json")
    done = _run_bounded(["synth", "--scenario", scenario_path("h4-confirm"), "--out", path])
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.splitlines() == ["error (file): %s: %s"
                                        % (path, os.strerror(errno.ENOENT))]
    assert os.listdir(tmp_path) == []

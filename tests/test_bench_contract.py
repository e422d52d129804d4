"""The benchmark's view of the package still matches the package.

bench/tracer.py times each function named in its SPANS, and counts calls of
`model.d12`, by rebinding those names in every rangegov namespace; it counts
the panels analysed by the first argument of its ANALYSIS entry points. A
rename or a changed signature would otherwise only show in traced bench runs.
"""
import importlib
import importlib.util
import inspect
import json
import os

from test_ingest import VENUES, inputs, source  # noqa: F401 (fixtures)

from rangegov.config import DEFAULTS

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _function(qualname: str):
    layer, name = qualname.split(".")
    mod = importlib.import_module("rangegov." + layer)
    return mod, getattr(mod, name, None)


def test_every_traced_name_is_a_module_level_function():
    tracer = _tracer()
    names = ["%s.%s" % (layer, fn) for layer, fns in tracer.SPANS.items()
             for fn in fns] + ["model.d12"]
    for qualname in names:
        mod, fn = _function(qualname)
        assert inspect.isfunction(fn), qualname
        assert fn.__module__ == mod.__name__, qualname


def test_analysis_entry_points_take_the_panel_first():
    for qualname in _tracer().ANALYSIS:
        _, fn = _function(qualname)
        params = list(inspect.signature(fn).parameters.values())
        assert params[0].name == "panel", qualname
        assert params[0].default is inspect.Parameter.empty, qualname
        assert params[1].name == "cfg" and params[1].default is DEFAULTS, qualname


def test_tracer_sees_the_layers_a_command_imports_late(tmp_path, capsys):
    from conftest import scenario_path
    from rangegov import cli

    panel = str(tmp_path / "panel.json")
    assert cli.main(["synth", "--scenario", scenario_path("h1-confirm"), "--out", panel]) == 0
    tracer = _tracer()
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        assert cli.main(["metrics", "--panel", panel, "--out", str(tmp_path / "m.json")]) == 0
    finally:
        uninstall()
    spans = rec.summary()["spans"]
    for name in ("cli.main", "formats.load_panel", "reports.metrics_report",
                 "reports.structural_report", "structure.resolve_range"):
        assert spans[name][0] >= 1, name
    capsys.readouterr()


def test_three_reports_on_a_panel_derive_and_evaluate_it_once():
    from rangegov import formats, reports, synth

    panel, _ = synth.generate(synth.load_builtin_scenario("h2-confirm"))
    three = (reports.metrics_report, reports.hypotheses_report, reports.regime_report)
    plain = [formats.dump_json(report(panel)) for report in three]
    # the tracer is installed after the panel was reported once untraced, as
    # in bench/tests: its wrappers must still see each computation
    tracer = _tracer()
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        traced = [formats.dump_json(report(panel)) for report in three]
    finally:
        uninstall()
    assert traced == plain
    summary = rec.summary()
    calls = {name: v[0] for name, v in summary["spans"].items()}
    assert summary["panels"] == 1
    assert calls["structure.resolve_range"] == 1
    assert calls["structure.map_swings"] == calls["structure.realized_volatility"] == 1
    assert calls["hypotheses.evaluate_all"] == 2
    for h in ("h1", "h2", "h3", "h4"):
        assert calls["hypotheses.evaluate_" + h] == 1, h


def test_the_layers_the_tracer_times_load_with_the_entry_modules():
    """`install` rebinds names in the modules already loaded; a layer that
    loads later (a lazy import) would be imported afresh by it and then
    rebound, which bench/tests/test_bench.py cannot tell from a fresh run."""
    import subprocess
    import sys

    import rangegov

    script = ("import json, sys\n"
              "import rangegov.cli, rangegov.formats, rangegov.reports, rangegov.synth\n"
              "print(json.dumps([m for m in json.loads(sys.argv[1]) if m not in sys.modules]))\n")
    layers = ["rangegov." + layer for layer in _tracer().SPANS]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rangegov.__file__)))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(layers)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_a_traced_ingest_counts_ticks_and_merged_bars_and_times_each_layer(inputs, capsys):
    """`ingest` of the three-venue fixture of tests/test_ingest.py, traced:
    the tick and bar counters equal the tick rows and the merged bars, and
    each layer that the per-layer bench metrics of `daily-chain` read off
    `ingest` records a span, so a faster path cannot blank one of them."""
    from rangegov import cli, formats

    ticks = sum(len((inputs / path).read_text().splitlines()) - 1
                for _, _, path, _, _ in VENUES if path.endswith("_ticks.csv"))
    tracer = _tracer()
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        assert cli.main(["ingest", "--manifest", str(inputs / "manifest.json"),
                         "--out", str(inputs / "panel.json")]) == 0
    finally:
        uninstall()
    summary = rec.summary()
    merged = [c for c in formats.load_panel(str(inputs / "panel.json")).candles
              if not c.interpolated]
    assert ticks > 0 and summary["counts"]["ingestion.ticks_in"] == ticks
    assert summary["counts"]["ingestion.bars_out"] == len(merged) > 0
    for name in ("formats.read_ticks_csv", "formats.read_books", "ingestion.align_4h",
                 "ingestion.vwap_merge", "quality.run_pipeline"):
        assert summary["spans"][name][0] >= 1, name
    capsys.readouterr()

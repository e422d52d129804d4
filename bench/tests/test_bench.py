"""Tests of the benchmark itself: tracer coverage, output checks, contract.

    python3 -m pytest -q bench/tests

The run-level tests start bench/run.py for about 15 s per workload.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from rangegov import formats, reports, synth  # noqa: E402

# Per-layer metrics that must be non-zero on a workload: each names work that
# workload's ops really do (the README table says which end-to-end metric
# each should move).
NONZERO = {
    "daily-chain": [
        "cli.import_s", "cli.import_numpy_s", "cli.command_self_s",
        "cli.ingest_s", "cli.validate_s", "cli.metrics_s", "cli.hypotheses_s",
        "cli.regime_s", "cli.plot_s",
        "formats.load_panel_s", "formats.load_panel_calls", "formats.save_panel_s",
        "formats.read_csv_s", "formats.read_books_s", "formats.write_report_s",
        "formats.dump_json_s", "formats.bytes_read", "formats.bytes_written",
        "model.d12_calls", "model.d12_calls_per_bar",
        "ingestion.align_4h_s", "ingestion.vwap_merge_s", "ingestion.ticks_in",
        "ingestion.bars_out",
        "quality.run_pipeline_s", "quality.flags", "quality.bars_interpolated",
        "quality.records_dropped",
        "structure.resolve_range_calls", "structure.resolve_range_s",
        "structure.realized_volatility_calls", "structure.map_swings_calls",
        "reports.structural_s", "reports.cost_s", "reports.positioning_s",
        "reports.liquidity_s", "reports.hypotheses_report_s",
        "reports.regime_report_s",
        "hypotheses.h1_s", "hypotheses.h2_s", "hypotheses.h3_s", "hypotheses.h4_s",
        "hypotheses.evaluate_all_calls",
        "regime.classify_regime_s", "regime.assemble_trigger_states_s",
        "plots.render_plot_s",
    ],
    "scenario-backtest": [
        "cli.import_s", "cli.import_numpy_s", "cli.command_self_s",
        "cli.synth_s", "cli.backtest_s", "cli.backtest_load_s",
        "formats.load_panel_s", "formats.load_panel_calls", "formats.save_panel_s",
        "formats.write_report_s", "formats.dump_json_s", "formats.bytes_read",
        "formats.bytes_written",
        "model.d12_calls", "model.d12_calls_per_bar", "model.validate_panel_s",
        "synth.generate_s", "synth.bars_generated", "synth.backtest_s",
        "structure.resolve_range_calls", "structure.resolve_range_s",
        "hypotheses.h1_s", "hypotheses.h2_s", "hypotheses.h3_s", "hypotheses.h4_s",
        "hypotheses.evaluate_all_calls", "regime.classify_regime_s",
    ],
    "analytics-hot": [
        "formats.dump_json_s", "model.d12_calls",
        "structure.resolve_range_calls", "structure.resolve_range_s",
        "structure.realized_volatility_calls", "structure.map_swings_calls",
        "reports.structural_s", "reports.cost_s", "reports.positioning_s",
        "reports.liquidity_s", "reports.hypotheses_report_s",
        "reports.regime_report_s",
        "hypotheses.h1_s", "hypotheses.h2_s", "hypotheses.h3_s", "hypotheses.h4_s",
        "hypotheses.evaluate_all_calls",
        "regime.classify_regime_s", "regime.assemble_trigger_states_s",
        "plots.render_plot_s",
    ],
}
# Work analytics-hot must not do inside its ops.
ZERO_ON_HOT = ["formats.load_panel_calls", "formats.read_csv_s", "synth.generate_s",
               "quality.run_pipeline_s", "cli.command_self_s"]


def test_benchmark_json_lists_what_the_tracer_measures():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(NONZERO)
    assert set(m for names in NONZERO.values() for m in names) <= set(run.PER_LAYER)
    assert set(tracer.layer_metrics([], 0)) <= set(run.PER_LAYER)


def _function_bindings() -> dict:
    """(id(namespace), key) -> value for every callable a rangegov module
    namespace, or a dict inside one, holds."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("rangegov"):
            continue
        for ns in [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]:
            for key, value in ns.items():
                if callable(value):
                    out[(id(ns), key)] = value
    return out


def test_install_reaches_every_binding_and_uninstall_restores():
    import rangegov.cli  # noqa: F401
    before = _function_bindings()
    import importlib
    originals = {id(getattr(importlib.import_module("rangegov." + layer), fn))
                 for layer, fns in tracer.SPANS.items() for fn in fns}
    originals.add(id(importlib.import_module("rangegov.model").d12))
    uninstall = tracer.install(tracer.Recorder())
    try:
        stale = [key for key, value in _function_bindings().items()
                 if id(value) in originals]
    finally:
        uninstall()
    assert stale == []
    assert _function_bindings() == before


def test_traced_reports_equal_untraced_and_spans_nest():
    panel, _ = synth.generate(synth.load_builtin_scenario("h4-confirm"))

    def docs():
        return [formats.dump_json(f(panel)) for f in
                (reports.metrics_report, reports.hypotheses_report,
                 reports.regime_report)]

    plain = docs()
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        traced = docs()
    finally:
        uninstall()
    assert traced == plain
    s = rec.summary()
    calls, total, self_s, errors = s["spans"]["reports.regime_report"][:4]
    assert calls == 1 and errors == 0 and 0 < self_s < total
    assert s["panels"] == 1 and s["d12_calls"] > 0
    m = tracer.layer_metrics([s], len(panel.candles))
    assert m["structure.resolve_range_calls"] == s["spans"]["structure.resolve_range"][0]


def test_errors_are_counted_per_call():
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    try:
        with pytest.raises(Exception):
            formats.load_panel(os.path.join(ROOT, "no-such-panel.json"))
    finally:
        uninstall()
    m = tracer.layer_metrics([rec.summary()], 0)
    assert m["formats.errors"] == 1.0


def test_tail_leaves_ten_values_beyond():
    assert run.tail(list(range(24))) == (13, 100.0 * 14 / 24)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_every_op_counts_scaled_by_its_own_yardstick():
    ops = [{"wall_s": w, "cal_s": c, "bars": 10, "problems": [], "rss_kb": 2048}
           for w, c in [(1.0, 0.5), (2.0, 0.5), (9.0, 1.0)]]
    setup = [{"wall_s": w, "cal_s": c} for w, c in [(1.0, 0.28), (3.0, 0.56), (2.0, 0.28)]]
    m = run.end_to_end(setup, ops, 0.5)
    assert m == {"setup_s": 1.5, "op_p50_s": 2.0, "bars_per_s": 30 / 7.5, "peak_rss_mb": 2.0}


def test_seed_changes_the_inputs(tmp_path):
    digests = set()
    for seed in (0, 1):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "inputs.py"), "--workload",
             "daily-chain", "--seed", str(seed), "--out", str(tmp_path / str(seed))],
            capture_output=True, text=True, check=True).stdout
        digests.add(json.loads(out)["digest"])
    assert len(digests) == 2


def _bench(workload: str, trace: int, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", list(NONZERO))
def test_traced_run_measures_its_layers_and_matches_untraced(workload):
    plain = _bench(workload, 0)
    traced = _bench(workload, 1)
    assert plain.returncode == 0, plain.stdout[-2000:]
    assert traced.returncode == 0, traced.stdout[-2000:]
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    zero = [m for m in NONZERO[workload] if result["metrics"][m]["value"] == 0]
    assert zero == []
    if workload == "analytics-hot":
        assert all(result["metrics"][m]["value"] == 0 for m in ZERO_ON_HOT)
    digests = [sorted(line for line in p.stdout.splitlines() if "sha256" in line)
               for p in (plain, traced)]
    assert digests[0] and digests[0] == digests[1]
    assert set(json.loads(plain.stdout.splitlines()[-1])["metrics"]) == set(run.END_TO_END)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("daily-chain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "{" not in proc.stdout

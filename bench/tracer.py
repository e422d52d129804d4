"""Span recorder installed from outside the program.

`install(recorder)` replaces each function named in SPANS (and `model.d12`,
which is only counted: it runs ~10^5 times per panel load) with a wrapper that
records into the recorder. Modules bind names at import (`from .model import
d12`, the report-family table in `reports`, `from .structure import
resolve_range`), so the wrapper goes into every `rangegov` module namespace,
and every dict in one, that holds the original; a call through a stale
binding would go round it.
Nothing under `src/` changes. `install` returns the function that restores
the originals.

Self time is a span's duration minus the time its child spans (on the same
thread) cover.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time

# layer module -> functions timed as spans
SPANS = {
    "cli": ("main",),
    "formats": ("load_panel", "save_panel", "read_candles_csv", "read_ticks_csv",
                "read_funding_csv", "read_oi_csv", "read_liquidations_csv",
                "read_books", "load_report", "write_report", "dump_json"),
    "model": ("validate_panel",),
    "ingestion": ("align_4h", "vwap_merge"),
    "quality": ("run_pipeline",),
    "synth": ("generate", "backtest"),
    "structure": ("resolve_range", "realized_volatility", "map_swings"),
    "reports": ("structural_report", "cost_report", "positioning_report",
                "liquidity_report", "metrics_report", "hypotheses_report",
                "regime_report"),
    "hypotheses": ("evaluate_h1", "evaluate_h2", "evaluate_h3", "evaluate_h4",
                   "evaluate_all"),
    "regime": ("classify_regime", "assemble_trigger_states"),
    "plots": ("render_plot",),
}
MODULES = tuple(SPANS)
READ_CSV = ("read_candles_csv", "read_ticks_csv", "read_funding_csv",
            "read_oi_csv", "read_liquidations_csv")
# entry points whose first argument is a panel being analysed
ANALYSIS = {"reports.metrics_report", "reports.hypotheses_report",
            "reports.regime_report", "hypotheses.evaluate_all",
            "regime.classify_regime"}
SIDE_SERIES = ("funding", "open_interest", "books", "liquidations")


class Recorder:
    """Aggregates spans and counters for one op; `reset()` starts the next."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            # name -> [calls, total_s, self_s, errors, first_start, last_end]
            self.spans = {}
            self.counts = {}
            self.panels = set()
            self.d12 = itertools.count()   # next() on it is atomic under the GIL

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, name: str, start: float, dur: float, self_s: float,
               failed: bool) -> None:
        with self._lock:
            s = self.spans.get(name)
            if s is None:
                self.spans[name] = [1, dur, self_s, int(failed), start, start + dur]
                return
            s[0] += 1
            s[1] += dur
            s[2] += self_s
            s[3] += failed
            s[4] = min(s[4], start)
            s[5] = max(s[5], start + dur)

    def summary(self) -> dict:
        """JSON-able totals; `d12_calls` is read destructively, so call once."""
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "counts": dict(self.counts),
                    "panels": len(self.panels),
                    "d12_calls": next(self.d12)}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _observe(rec: Recorder, name: str, args, result) -> None:
    """Counters read off a call's arguments and result."""
    if name in ANALYSIS:
        rec.panels.add(id(args[0]))
    elif name == "synth.backtest":
        rec.panels.update(id(p) for p in args[0])
    elif name == "synth.generate":
        rec.count("synth.bars_generated", len(result[0].candles))
    elif name in ("formats.save_panel", "formats.write_report"):
        rec.count("formats.bytes_written", _size(args[0]))
    elif name.startswith(("formats.read_", "formats.load_")):
        rec.count("formats.bytes_read", _size(args[0]))
    elif name == "ingestion.align_4h":
        rec.count("ingestion.ticks_in", len(args[0]))
    elif name == "ingestion.vwap_merge":
        rec.count("ingestion.bars_out", len(result))
    elif name == "quality.run_pipeline":
        from rangegov.quality import INTERPOLATED
        before, (after, report) = args[0], result
        rec.count("quality.flags", len(report.flags))
        rec.count("quality.bars_interpolated",
                  sum(f.severity == INTERPOLATED for f in report.flags))
        rec.count("quality.records_dropped",
                  sum(max(0, len(getattr(before, s)) - len(getattr(after, s)))
                      for s in SIDE_SERIES))


def _span(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec._stack()
        stack.append(0.0)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            dur = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += dur
            rec._close(name, start, dur, dur - child, failed)
        _observe(rec, name, args, result)
        return result
    return wrapper


def _counted(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        next(rec.d12)
        return fn(*args, **kwargs)
    return wrapper


def _rebind(original, wrapper, undo: list) -> None:
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "rangegov" or modname.startswith("rangegov.")):
            continue
        for ns in [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapper
                    undo.append((ns, key, original))


def install(rec: Recorder):
    """Wrap every traced function; returns a callable that undoes it."""
    import rangegov.cli  # noqa: F401  (binds the names the CLI uses)
    undo: list = []
    for layer, names in SPANS.items():
        mod = importlib.import_module("rangegov." + layer)
        for name in names:
            fn = getattr(mod, name)
            _rebind(fn, _span(rec, layer + "." + name, fn), undo)
    model = importlib.import_module("rangegov.model")
    _rebind(model.d12, _counted(rec, model.d12), undo)

    def uninstall() -> None:
        for ns, key, original in reversed(undo):
            ns[key] = original
    return uninstall


# --------------------------------------------------------------- metrics

def layer_metrics(summaries: list, bars: int) -> dict:
    """Per-layer metrics from the summaries of `len(summaries)` traced ops
    that carried `bars` bars in total. Values are per op unless the name
    says otherwise; the `*_calls` of resolve_range and evaluate_all are per
    panel analysed, and `<module>.errors` is exceptions per call."""
    ops = max(len(summaries), 1)
    spans: dict = {}
    counts: dict = {}
    panels = d12 = 0
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += v[i]
        for name, n in s["counts"].items():
            counts[name] = counts.get(name, 0) + n
        panels += s["panels"]
        d12 += s["d12_calls"]

    def calls(name):
        return spans.get(name, [0])[0]

    def secs(*names):
        return sum(spans.get(n, [0, 0.0])[1] for n in names) / ops

    out = {
        "formats.load_panel_s": secs("formats.load_panel"),
        "formats.load_panel_calls": calls("formats.load_panel") / ops,
        "formats.save_panel_s": secs("formats.save_panel"),
        "formats.read_csv_s": secs(*("formats." + n for n in READ_CSV)),
        "formats.read_books_s": secs("formats.read_books"),
        "formats.write_report_s": secs("formats.write_report"),
        "formats.dump_json_s": secs("formats.dump_json"),
        "formats.bytes_read": counts.get("formats.bytes_read", 0) / ops,
        "formats.bytes_written": counts.get("formats.bytes_written", 0) / ops,
        "model.d12_calls": d12 / ops,
        "model.d12_calls_per_bar": d12 / bars if bars else 0.0,
        "model.validate_panel_s": secs("model.validate_panel"),
        "ingestion.align_4h_s": secs("ingestion.align_4h"),
        "ingestion.vwap_merge_s": secs("ingestion.vwap_merge"),
        "ingestion.ticks_in": counts.get("ingestion.ticks_in", 0) / ops,
        "ingestion.bars_out": counts.get("ingestion.bars_out", 0) / ops,
        "quality.run_pipeline_s": secs("quality.run_pipeline"),
        "quality.flags": counts.get("quality.flags", 0) / ops,
        "quality.bars_interpolated": counts.get("quality.bars_interpolated", 0) / ops,
        "quality.records_dropped": counts.get("quality.records_dropped", 0) / ops,
        "synth.generate_s": secs("synth.generate"),
        "synth.bars_generated": counts.get("synth.bars_generated", 0) / ops,
        "synth.backtest_s": secs("synth.backtest"),
        "structure.resolve_range_calls":
            calls("structure.resolve_range") / panels if panels else 0.0,
        "structure.resolve_range_s": secs("structure.resolve_range"),
        "structure.realized_volatility_calls":
            calls("structure.realized_volatility") / ops,
        "structure.map_swings_calls": calls("structure.map_swings") / ops,
        "reports.structural_s": secs("reports.structural_report"),
        "reports.cost_s": secs("reports.cost_report"),
        "reports.positioning_s": secs("reports.positioning_report"),
        "reports.liquidity_s": secs("reports.liquidity_report"),
        "reports.hypotheses_report_s": secs("reports.hypotheses_report"),
        "reports.regime_report_s": secs("reports.regime_report"),
        "hypotheses.h1_s": secs("hypotheses.evaluate_h1"),
        "hypotheses.h2_s": secs("hypotheses.evaluate_h2"),
        "hypotheses.h3_s": secs("hypotheses.evaluate_h3"),
        "hypotheses.h4_s": secs("hypotheses.evaluate_h4"),
        "hypotheses.evaluate_all_calls":
            calls("hypotheses.evaluate_all") / panels if panels else 0.0,
        "regime.classify_regime_s": secs("regime.classify_regime"),
        "regime.assemble_trigger_states_s": secs("regime.assemble_trigger_states"),
        "plots.render_plot_s": secs("plots.render_plot"),
    }
    for layer in MODULES:
        mine = [v for k, v in spans.items() if k.startswith(layer + ".")]
        n = sum(v[0] for v in mine)
        out[layer + ".errors"] = sum(v[3] for v in mine) / n if n else 0.0
        if layer != "cli":
            out[layer + ".self_s"] = sum(v[2] for v in mine) / ops
    return out


def span_window(summary: dict, name: str) -> float:
    """Wall time from the first start to the last end of `name`'s spans."""
    v = summary["spans"].get(name)
    return v[5] - v[4] if v else 0.0

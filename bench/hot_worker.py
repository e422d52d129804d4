"""The analytics-hot workload, in a fresh single-threaded process.

    python3 bench/hot_worker.py PANEL_DIR SECONDS TRACE OUT_JSON

Repeats one op until SECONDS have passed (at least one op, or one untraced
and one traced op with TRACE 1). Before each op, outside its timing, it
unpickles every `*.panel.pickle` in PANEL_DIR (set-up pickled each panel
after `load_panel`), so every op gets fresh panel objects and nothing one op
leaves on a panel speeds up the next: a user runs one command per process.
The op, over every panel: `metrics_report`, `hypotheses_report` and
`regime_report`, `dump_json` of each report and `render_plot` of each kind
the panel supports (`density` needs a liquidation series). With TRACE 1 the
ops alternate untraced and traced, and each traced op's recorder summary is
kept. Writes op times, digests and summaries to OUT_JSON, with the time of
`calibrate.work()` run just before each op (outside its timing); the parent
reads peak RSS from this process's rusage.
"""
import hashlib
import json
import os
import pickle
import sys
import time
import traceback

from rangegov import formats, plots, reports

import calibrate
from tracer import Recorder, install


def kinds(panel) -> tuple:
    return plots.KINDS if panel.liquidations else \
        tuple(k for k in plots.KINDS if k != "density")


def load(panel_dir: str, names: list) -> list:
    panels = []
    for name in names:
        with open(os.path.join(panel_dir, name + ".panel.pickle"), "rb") as fh:
            panels.append((name, pickle.load(fh)))
    return panels


def one_op(panels: list) -> tuple:
    digest = hashlib.sha256()
    year = None
    for name, panel in panels:
        metrics = reports.metrics_report(panel)
        hyp = reports.hypotheses_report(panel)
        regime = reports.regime_report(panel)
        for doc in (metrics, hyp, regime):
            digest.update(formats.dump_json(doc).encode())
        for kind in kinds(panel):
            svg, csv_text = plots.render_plot(metrics, kind)
            digest.update(svg.encode())
            digest.update(csv_text.encode())
        if name == "year":
            year = {"verdicts": {h: v["outcome"] for h, v in hyp["verdicts"].items()},
                    "regime": regime["regime"]["label"]}
    return digest.hexdigest(), year


def main() -> int:
    panel_dir, seconds, trace, out = sys.argv[1], float(sys.argv[2]), \
        sys.argv[3] == "1", sys.argv[4]
    names = sorted(f[:-len(".panel.pickle")] for f in os.listdir(panel_dir)
                   if f.endswith(".panel.pickle"))
    panels = load(panel_dir, names)
    bars = sum(len(p.candles) for _, p in panels)
    rec = Recorder()
    ops = []
    start = time.perf_counter()
    while len(ops) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 1
        del panels
        panels = load(panel_dir, names)
        t0 = time.perf_counter()
        calibrate.work()
        op = {"traced": traced, "cal_s": time.perf_counter() - t0}
        rec.reset()
        uninstall = install(rec) if traced else None
        t0 = time.perf_counter()
        try:
            op["digest"], op["year"] = one_op(panels)
        except Exception:
            op["error"] = traceback.format_exc(limit=3)
        finally:
            op["wall_s"] = time.perf_counter() - t0
            if uninstall:
                uninstall()
        if traced:
            op["summary"] = rec.summary()
        ops.append(op)
    phase_s = time.perf_counter() - start
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "phase_s": phase_s, "bars": bars,
                   "panels": len(panels)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

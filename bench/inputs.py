"""Seeded inputs for the benchmark workloads.

Run as a script it builds one workload's inputs into a directory and prints a
JSON summary (file digests, bar counts) on stdout:

    python3 bench/inputs.py --workload daily-chain --seed 3 --out DIR

The benchmark runs this in a fresh interpreter for every set-up repetition, so
`setup_s` covers interpreter start, the `rangegov` import and the writes. The
program under test only ever sees the files written here; the seed never
reaches it as an argument.

`--record-expected FIRST LAST` re-derives `expected.json`, the verdicts,
regime labels and `hypotheses` exit codes that seeds FIRST..LAST-1 produce.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import pickle
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rangegov import formats, synth  # noqa: E402
from rangegov.model import BAR_SECONDS, Candle4H, d12, fmt_dec, iso  # noqa: E402

YEAR_BARS = 2190
# The seeded noise lead moves every later price; the scripted range and
# cascade tail fix the range the verdicts are read against.
NOISE_BARS = 60
CASCADE_BARS = 30
TICKS_PER_BAR = 6
CROSSED_BOOKS = 2
# (name, 30-day volume, source kind); all three survive merge_top_exchanges=3
VENUES = (("alpha", 5.0e6, "candles"), ("beta", 3.0e6, "candles"),
          ("gamma", 2.0e6, "ticks"))
SCENARIO_DIR = os.path.join(ROOT, "src", "rangegov", "scenarios")
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def year_scenario_doc(seed: int) -> dict:
    return {
        "name": "year-%d" % seed,
        "seed": seed,
        "base_price": 100.0,
        "instrument": "YEAR-PERP",
        "segments": [
            {"template": "noise", "length": NOISE_BARS,
             "overrides": {"sigma": 0.004}},
            {"template": "range",
             "length": YEAR_BARS - NOISE_BARS - CASCADE_BARS, "overrides": {}},
            {"template": "cascade", "length": CASCADE_BARS, "overrides": {}},
        ],
        "ground_truth": {},
    }


def packaged_scenario_names() -> list:
    return sorted(f[:-5] for f in os.listdir(SCENARIO_DIR) if f.endswith(".json"))


def scenario_names() -> list:
    """Stems of the scenario-backtest / analytics-hot panels, year last."""
    return packaged_scenario_names() + ["year"]


# ------------------------------------------------------------- daily-chain

def _shifted(c: Candle4H, factor, vol_share) -> Candle4H:
    o, cl = d12(c.open * factor), d12(c.close * factor)
    return Candle4H(c.open_time, o, max(d12(c.high * factor), o, cl),
                    min(d12(c.low * factor), o, cl),
                    cl, d12(c.volume * vol_share))


def _tick_rows(c: Candle4H, rng, vol_share) -> list:
    """TICKS_PER_BAR trades whose 4H bucket has exactly c's open/high/low/close."""
    lo, hi = float(c.low), float(c.high)
    mids = [d12(lo + (hi - lo) * float(u))
            for u in rng.uniform(0.0, 1.0, TICKS_PER_BAR - 4)]
    extremes = [c.high, c.low] if rng.uniform() < 0.5 else [c.low, c.high]
    prices = [c.open, extremes[0]] + mids + [extremes[1], c.close]
    step = BAR_SECONDS // (TICKS_PER_BAR - 1)
    offsets = [k * step for k in range(TICKS_PER_BAR - 1)] + [BAR_SECONDS - 1]
    vol = fmt_dec(d12(c.volume * vol_share / TICKS_PER_BAR))
    return [(iso(c.open_time + off), fmt_dec(p), vol)
            for off, p in zip(offsets, prices)]


def build_daily_chain(seed: int, out: str) -> dict:
    """One instrument-year as three venues plus the side series.

    Every venue misses the same seeded bar (one single-bar gap for ingest to
    interpolate) and CROSSED_BOOKS snapshots are crossed (for quality to drop),
    as real venue exports do.
    """
    panel, _ = synth.generate(synth.scenario_from_dict(year_scenario_doc(seed)))
    rng = np.random.default_rng([seed, 1])
    n = len(panel.candles)
    gap = int(rng.integers(NOISE_BARS, n - 2 * CASCADE_BARS))
    kept = [c for i, c in enumerate(panel.candles) if i != gap]

    formats.write_candles_csv(os.path.join(out, "alpha.csv"),
                              [_shifted(c, 1, d12(0.5)) for c in kept])
    factors = [d12(1.0 + float(x)) for x in rng.normal(0.0, 2e-4, len(kept))]
    formats.write_candles_csv(os.path.join(out, "beta.csv"),
                              [_shifted(c, f, d12(0.3)) for c, f in zip(kept, factors)])
    with open(os.path.join(out, "gamma_ticks.csv"), "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "price", "volume"])
        for c in kept:
            w.writerows(_tick_rows(c, rng, d12(0.2)))

    formats.write_funding_csv(os.path.join(out, "funding.csv"),
                              [(r.settle_time, r.rate_8h, r.mark_price, r.index_price)
                               for r in panel.funding])
    formats.write_oi_csv(os.path.join(out, "oi.csv"), panel.open_interest)
    formats.write_liquidations_csv(os.path.join(out, "liq.csv"), panel.liquidations)
    books = list(panel.books)
    for i in rng.choice(n - 2 * CASCADE_BARS, CROSSED_BOOKS, replace=False):
        b = books[int(i)]
        books[int(i)] = type(b)(b.time, b.asks, b.bids)
    formats.write_books(os.path.join(out, "books.txt"), books)

    manifest = {
        "instrument": "YEAR-PERP",
        "exchanges": [{"name": name, kind: "gamma_ticks.csv" if kind == "ticks"
                       else name + ".csv", "volume_30d": vol}
                      for name, vol, kind in VENUES],
        "funding": [{"path": "funding.csv", "interval_hours": 8,
                     "authoritative": True}],
        "open_interest": "oi.csv",
        "liquidations": "liq.csv",
        "books": "books.txt",
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return {"bars_per_panel": n, "panels": 1, "venues": len(VENUES),
            "venue_bars": len(kept), "ticks": len(kept) * TICKS_PER_BAR,
            "gap_bar": gap}


# ------------------------------------------------ scenario-backtest / analytics

def build_scenarios(seed: int, out: str) -> dict:
    """The packaged scenarios plus the seeded year, as scenario files."""
    for name in packaged_scenario_names():
        shutil.copyfile(os.path.join(SCENARIO_DIR, name + ".json"),
                        os.path.join(out, name + ".json"))
    with open(os.path.join(out, "year.json"), "w", encoding="utf-8") as fh:
        json.dump(year_scenario_doc(seed), fh, indent=2, sort_keys=True)
    bars = {}
    for name in scenario_names():
        sc = synth.load_scenario(os.path.join(out, name + ".json"))
        bars[name] = sum(s.length for s in sc.segments)
    return {"bars": bars, "panels": len(bars)}


def build_panels(seed: int, out: str) -> dict:
    """Realize and save every scenario, then load each panel once and pickle
    it, so that every analytics op can start from fresh panel objects."""
    info = build_scenarios(seed, out)
    for name in scenario_names():
        sc = synth.load_scenario(os.path.join(out, name + ".json"))
        panel, _ = synth.generate(sc)
        formats.save_panel(os.path.join(out, name + ".panel.json"), panel)
    for name in scenario_names():
        panel = formats.load_panel(os.path.join(out, name + ".panel.json"))
        with open(os.path.join(out, name + ".panel.pickle"), "wb") as fh:
            pickle.dump(panel, fh, pickle.HIGHEST_PROTOCOL)
    return info


INPUTS = {
    "daily-chain": build_daily_chain,
    "scenario-backtest": build_scenarios,
    "analytics-hot": build_panels,
}


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# --------------------------------------------------------- recorded outcomes

def derive_expected(seed: int, work: str) -> dict:
    """What the chain should conclude for one seed, computed in-process."""
    from rangegov import reports

    os.makedirs(work)
    build_daily_chain(seed, work)
    panel, _, _ = formats.ingest_manifest(os.path.join(work, "manifest.json"))
    path = os.path.join(work, "panel.json")
    formats.save_panel(path, panel)
    panel = formats.load_panel(path)
    hyp = reports.hypotheses_report(panel)
    falsified = sum(v["outcome"] == "falsified" for v in hyp["verdicts"].values())
    year, _ = synth.generate(synth.scenario_from_dict(year_scenario_doc(seed)))
    row = synth.backtest([year])["rows"][0]
    shutil.rmtree(work)
    return {
        "daily-chain": {
            "hypotheses_exit": min(40 + falsified, 49) if falsified else 0,
            "verdicts": {h: v["outcome"] for h, v in hyp["verdicts"].items()},
            "regime": reports.regime_report(panel)["regime"]["label"],
        },
        "year": {"verdicts": row["verdicts"], "regime": row["regime"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--record-expected", nargs=2, type=int, metavar=("FIRST", "LAST"))
    args = ap.parse_args(argv)
    if args.record_expected:
        first, last = args.record_expected
        work = os.path.join(ROOT, ".bench_work", "expected-%d" % os.getpid())
        seeds = {str(s): derive_expected(s, os.path.join(work, str(s)))
                 for s in range(first, last)}
        shutil.rmtree(work, ignore_errors=True)
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if not (args.workload and args.out and args.seed is not None):
        ap.error("--workload, --seed and --out are required")
    os.makedirs(args.out)
    info = INPUTS[args.workload](args.seed, args.out)
    info["digest"] = tree_digest(args.out)
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

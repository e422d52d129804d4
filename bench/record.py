"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/record.py --seeds 1-10 [--out FILE]

For each seed it runs every workload in turn (so the workloads interleave in
time), then prints per workload and end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound from BENCHMARK.json. With --out it also runs one traced
run per workload on the first seed and writes medians, spreads, per-layer
values and the machine description to FILE as JSON. Exits 1 if any run
failed its checks or any spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_once(cmd: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    result["returncode"] = proc.returncode
    return result


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            r = run_once(bench["command"], w, seed, bench["run_seconds"], 0)
            ok &= r.get("returncode") == 0 and bool(r.get("correct"))
            for m in bounds:
                if m in r.get("metrics", {}):
                    values[w][m].append(r["metrics"][m]["value"])
            print("seed %d %-18s %s" % (seed, w, " ".join(
                "%s=%.4g" % (m, r["metrics"][m]["value"])
                for m in bounds if m in r.get("metrics", {}))), flush=True)

    summary = {}
    for w in workloads:
        summary[w] = {}
        for m, bound in bounds.items():
            v = values[w][m]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "runs": len(v)}
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            print("%-18s %-12s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.4f "
                  "(bound %.2f)%s" % (w, m, med, q1, q3, spread, bound, flag))

    if args.out:
        traced = {w: run_once(bench["command"], w, seeds[0], bench["run_seconds"], 1)
                  for w in workloads}
        doc = {"machine": machine(), "seeds": seeds, "run_seconds": bench["run_seconds"],
               "end_to_end": summary,
               "per_layer": {w: {k: v["value"] for k, v in r.get("metrics", {}).items()}
                             for w, r in traced.items()}}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

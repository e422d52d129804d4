"""rangegov benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload daily-chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Set-up builds the workload's inputs
from the seed SETUP_REPS times, each in a fresh interpreter, and reports the
median. The timed phase then repeats whole passes (closed loop, one client,
one op at a time, at most one child process alive) until --seconds have
passed, and checks every output:

- every command exits with the code expected of it (`hypotheses` per seed,
  from expected.json, or 0/41-44 and the same on every pass for seeds not
  recorded there);
- every op's output bytes (sha256) equal the first op's for the same command;
- verdicts and regime labels equal those recorded for the seed;
- `validate` passes, and `backtest` grades 8 scenarios with diagonal 1.0.

With --trace 0 the result holds the end-to-end metrics, measured untraced
over every op of the run: `op_p50_s` the median op time, `bars_per_s` the
bars of the completed ops over their summed time, `peak_rss_mb` the largest
child `ru_maxrss`. Every set-up repetition and every op is timed right after
the yardstick calibrate.py and scaled to the reference host speed by it (see
`at_ref`); the measured values are printed next to them. `op_tail_s` and
`failed_frac` are printed with their sample counts but are not in the
result: with 20-60 ops per run the tail is not steady, and failures are the
result's `failed` count.
With --trace 1 passes alternate untraced and traced (see tracer.py), the
traced outputs must equal the untraced ones, and the result holds the
per-layer metrics; `trace.overhead_s` is the traced minus the untraced mean
op time, both scaled by their yardsticks. Human-readable lines come first; the last line of stdout is the
JSON result. Exits 1 if any check fails, 2 if the checkout has no source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150
IMPORT_REPS = 3
HYPOTHESES_EXITS = {0, 41, 42, 43, 44}
# Reference times of calibrate.py: as a child process (set-up and the CLI
# workloads) and as calibrate.work() inside the analytics-hot worker. Times
# are reported at the host speed at which the yardstick takes these.
CAL_REF_S = {"child": 0.28, "inproc": 0.045}
CLI_COMMANDS = ("ingest", "validate", "metrics", "hypotheses", "regime", "plot",
                "synth", "backtest")



def _units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


END_TO_END = _units("end_to_end")
PER_LAYER = _units("per_layer")


# ------------------------------------------------------------------ children

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RG_")}
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Child:
    rc: int
    wall_s: float
    maxrss_kb: int
    out: str
    err: str


def run_child(argv: list, cwd: str, work: str) -> Child:
    """Run one child to completion; wall time and its own peak RSS."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        errors = fh.read()
    return Child(rc, wall, usage.ru_maxrss, text, errors)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_expected(seed: int):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


# ------------------------------------------------------------------- set-up

def calibrate(work: str) -> float:
    """Wall time of one yardstick child process."""
    c = run_child([PY, os.path.join(HERE, "calibrate.py")], work, work)
    if c.rc != 0:
        raise RuntimeError("calibrate.py exited %d: %s" % (c.rc, c.err[-400:]))
    return c.wall_s


def setup(workload: str, seed: int, work: str, problems: list):
    """SETUP_REPS fresh builds, each right after a yardstick run; returns
    (samples of wall_s and cal_s, inputs dir, build summary)."""
    samples, info, last = [], None, None
    for k in range(SETUP_REPS):
        cal = calibrate(work)
        out = os.path.join(work, "inputs-%d" % k)
        c = run_child([PY, os.path.join(HERE, "inputs.py"), "--workload", workload,
                       "--seed", str(seed), "--out", out], work, work)
        if c.rc != 0:
            problems.append("set-up exited %d: %s" % (c.rc, c.err.strip()[-400:]))
            return samples, None, None
        samples.append({"wall_s": c.wall_s, "cal_s": cal})
        built = json.loads(c.out.splitlines()[-1])
        if info is None:
            info = built
        elif built != info:
            problems.append("set-up is not deterministic: %s vs %s"
                            % (built["digest"], info["digest"]))
        if last is not None:
            shutil.rmtree(last)
        last = out
    return samples, last, info


# ------------------------------------------------------------ CLI workloads

@dataclass
class Step:
    name: str
    argv: list
    outputs: tuple
    bars: int
    exits: set


def daily_chain_steps(info: dict, expected) -> list:
    bars = info["bars_per_panel"]
    hyp_exits = {expected["daily-chain"]["hypotheses_exit"]} if expected \
        else HYPOTHESES_EXITS
    return [
        # ingest reads every venue series and writes the merged panel
        Step("ingest", ["ingest", "--manifest", "manifest.json", "--out", "panel.json",
                        "--quality", "ingest_quality.json"],
             ("panel.json", "ingest_quality.json"),
             info["venues"] * info["venue_bars"] + bars, {0}),
        Step("validate", ["validate", "--panel", "panel.json", "--out", "validate.json"],
             ("validate.json",), bars, {0}),
        Step("metrics", ["metrics", "--panel", "panel.json", "--out", "metrics.json"],
             ("metrics.json",), bars, {0}),
        Step("hypotheses", ["hypotheses", "--panel", "panel.json", "--out", "hypotheses.json"],
             ("hypotheses.json",), bars, hyp_exits),
        Step("regime", ["regime", "--panel", "panel.json", "--out", "regime.json"],
             ("regime.json",), bars, {0}),
        Step("plot", ["plot", "--report", "metrics.json", "--kind", "range",
                      "--out", "plot.svg"], ("plot.svg", "plot.csv"), 0, {0}),
    ]


def scenario_backtest_steps(info: dict, expected) -> list:
    names = sorted(info["bars"], key=lambda n: (n == "year", n))
    steps = [Step("synth", ["synth", "--scenario", n + ".json", "--out", n + ".panel.json"],
                  (n + ".panel.json",), info["bars"][n], {0}) for n in names]
    steps.append(Step("backtest", ["backtest", "--panels"]
                      + [n + ".panel.json" for n in names] + ["--out", "backtest.json"],
                      ("backtest.json",), sum(info["bars"].values()), {0}))
    return steps


def _read(cwd: str, name: str) -> dict:
    with open(os.path.join(cwd, name), encoding="utf-8") as fh:
        return json.load(fh)


def daily_chain_check(step: Step, rc: int, cwd: str, expected) -> list:
    """Semantic checks on one daily-chain op's outputs."""
    if step.name == "validate" and not _read(cwd, "validate.json")["passed"]:
        return ["validate did not pass the generated inputs"]
    if step.name == "hypotheses":
        verdicts = {h: v["outcome"] for h, v in
                    _read(cwd, "hypotheses.json")["verdicts"].items()}
        falsified = sum(v == "falsified" for v in verdicts.values())
        if rc != (40 + falsified if falsified else 0):
            return ["hypotheses exit %d with %d falsified" % (rc, falsified)]
        if expected and verdicts != expected["daily-chain"]["verdicts"]:
            return ["verdicts %s, recorded %s" % (verdicts, expected["daily-chain"]["verdicts"])]
    if step.name == "regime" and expected:
        label = _read(cwd, "regime.json")["regime"]["label"]
        if label != expected["daily-chain"]["regime"]:
            return ["regime %s, recorded %s" % (label, expected["daily-chain"]["regime"])]
    return []


def scenario_backtest_check(step: Step, rc: int, cwd: str, expected) -> list:
    if step.name != "backtest":
        return []
    doc = _read(cwd, "backtest.json")
    gt = doc["ground_truth"]
    if doc["panels"] != 9 or gt["graded"] != 8 or gt["diagonal_frac"] != 1.0:
        return ["backtest: %d panels, %d graded, diagonal %s"
                % (doc["panels"], gt["graded"], gt["diagonal_frac"])]
    if expected:
        year = next(r for r in doc["rows"] if "expected" not in r)
        got = {"verdicts": year["verdicts"], "regime": year["regime"]}
        if got != expected["year"]:
            return ["year panel %s, recorded %s" % (got, expected["year"])]
    return []


def run_pass(steps: list, check, cwd: str, work: str, traced: bool,
             expected, first: dict) -> list:
    """One pass of the chain, each op right after a yardstick run; `first`
    maps step index -> first op's outputs."""
    ops = []
    spans_path = os.path.join(work, "spans.json")
    for i, step in enumerate(steps):
        if traced:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            argv = [PY, os.path.join(HERE, "traced_cli.py"), spans_path, "--"] + step.argv
        else:
            argv = [PY, "-m", "rangegov"] + step.argv
        cal = calibrate(work)
        c = run_child(argv, cwd, work)
        op = {"cmd": step.name, "step": i, "wall_s": c.wall_s, "cal_s": cal,
              "rss_kb": c.maxrss_kb, "bars": step.bars, "traced": traced, "problems": []}
        if c.rc not in step.exits:
            op["problems"].append("%s exited %d: %s" % (step.name, c.rc, c.err.strip()[-400:]))
        else:
            outs = {o: sha256_file(os.path.join(cwd, o)) for o in step.outputs}
            seen = first.setdefault(i, {"rc": c.rc, "digests": outs})
            if (c.rc, outs) != (seen["rc"], seen["digests"]):
                op["problems"].append("%s output differs from the first op: exit %d, %s"
                                      % (step.name, c.rc, outs))
            op["problems"] += check(step, c.rc, cwd, expected)
        if traced:
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    op["summary"] = json.load(fh)
            else:
                op["problems"].append("%s wrote no spans" % step.name)
                op["summary"] = {"spans": {}, "counts": {}, "panels": 0, "d12_calls": 0,
                                 "main_s": c.wall_s}
        ops.append(op)
    return ops


def run_cli_workload(steps, check, cwd, work, seconds, trace, expected):
    """Passes until `seconds` have passed."""
    first: dict = {}
    ops: list = []
    passes = 0
    start = time.perf_counter()
    while passes < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and passes % 2 == 1
        ops += run_pass(steps, check, cwd, work, traced, expected, first)
        passes += 1
    phase_s = time.perf_counter() - start
    digests = {steps[i].name + ":" + o: d for i, s in sorted(first.items())
               for o, d in s["digests"].items()}
    return ops, phase_s, digests


# ----------------------------------------------------------------- analytics

def run_analytics_hot(cwd, work, seconds, trace, expected):
    out = os.path.join(work, "hot.json")
    c = run_child([PY, os.path.join(HERE, "hot_worker.py"), cwd, repr(seconds),
                   "1" if trace else "0", out], work, work)
    if c.rc != 0:
        return [{"cmd": "analytics", "step": 0, "wall_s": c.wall_s, "cal_s": 0.0,
                 "rss_kb": c.maxrss_kb, "bars": 0, "traced": False,
                 "problems": ["worker exited %d: %s" % (c.rc, c.err.strip()[-400:])]}], \
            0.0, {}
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    ops, first = [], None
    for raw in doc["ops"]:
        op = {"cmd": "analytics", "step": 0, "wall_s": raw["wall_s"], "cal_s": raw["cal_s"],
              "rss_kb": c.maxrss_kb, "bars": doc["bars"], "traced": raw["traced"],
              "problems": []}
        if "error" in raw:
            op["problems"].append(raw["error"])
        else:
            first = first or raw["digest"]
            if raw["digest"] != first:
                op["problems"].append("report digest %s differs from the first op's %s"
                                      % (raw["digest"], first))
            if expected and raw["year"] != expected["year"]:
                op["problems"].append("year panel %s, recorded %s"
                                      % (raw["year"], expected["year"]))
        if raw["traced"]:
            op["summary"] = raw["summary"]
        ops.append(op)
    return ops, doc["phase_s"], {"analytics:reports+plots": first}


# ------------------------------------------------------------------ metrics

def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 values beyond."""
    v = sorted(values)
    i = max(len(v) - 11, 0)
    return v[i], 100.0 * (i + 1) / len(v)


def import_times(work: str) -> tuple:
    """Median (rangegov.cli import, numpy import) over fresh interpreters."""
    total, numpy = [], []
    for _ in range(IMPORT_REPS):
        c = run_child([PY, "-X", "importtime", "-c", "import rangegov.cli"], work, work)
        top = np_us = 0
        for line in c.err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip()) - 1
            pkg = name.strip()
            if not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1])
            if depth == 0 and pkg.split(".")[0] == "rangegov":
                top += cumulative
            if pkg == "numpy":
                np_us = cumulative
        total.append(top / 1e6)
        numpy.append(np_us / 1e6)
    return statistics.median(total), statistics.median(numpy)


def at_ref(sample: dict, ref: float) -> float:
    """A sample's wall time at the reference host speed.

    The same work on a shared host takes up to 1.9x longer in bursts of
    15-30 s, and slower or faster for minutes. The yardstick, run just before
    each set-up repetition and each op, sees that but not the program, so
    each sample is scaled by its own yardstick and none is dropped: a change
    that slows only some ops still counts.
    """
    return sample["wall_s"] * ref / sample["cal_s"]


def end_to_end(setup_samples: list, ops: list, ref: float) -> dict:
    """Times in seconds at the reference host speed (see calibrate.py)."""
    times = [at_ref(op, ref) for op in ops]
    return {
        "setup_s": statistics.median(at_ref(s, CAL_REF_S["child"]) for s in setup_samples),
        "op_p50_s": statistics.median(times),
        "bars_per_s": sum(op["bars"] for op in ops if not op["problems"]) / sum(times),
        "peak_rss_mb": max(op["rss_kb"] for op in ops) / 1024.0,
    }


def per_layer(ops: list, work: str, ref: float) -> dict:
    from tracer import layer_metrics, span_window

    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    m = layer_metrics([op["summary"] for op in traced], sum(op["bars"] for op in traced))
    m["cli.import_s"], m["cli.import_numpy_s"] = import_times(work)
    cli = [op for op in traced if op["cmd"] != "analytics"]
    m["cli.command_self_s"] = statistics.mean(
        op["wall_s"] - op["summary"]["main_s"] for op in cli) if cli else 0.0
    for cmd in CLI_COMMANDS:
        walls = [op["wall_s"] for op in plain if op["cmd"] == cmd]
        m["cli.%s_s" % cmd] = statistics.median(walls) if walls else 0.0
    loads = [span_window(op["summary"], "formats.load_panel")
             for op in traced if op["cmd"] == "backtest"]
    m["cli.backtest_load_s"] = statistics.mean(loads) if loads else 0.0
    m["trace.overhead_s"] = (statistics.mean(at_ref(op, ref) for op in traced)
                             - statistics.mean(at_ref(op, ref) for op in plain))
    return m


# --------------------------------------------------------------------- main

def report(workload: str, seed: int, trace: bool, setup_samples: list, ops: list,
           phase_s: float, ref: float, metrics: dict, digests: dict,
           problems: list) -> None:
    n = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    print("workload %s, seed %d, trace %d: %d ops, closed loop, 1 client"
          % (workload, seed, trace, n))
    print("  set-up: %d fresh builds, %s s" % (
        len(setup_samples), " ".join("%.3f" % s["wall_s"] for s in setup_samples)))
    if metrics and not trace:
        value, pct = tail([at_ref(op, ref) for op in ops])
        print("  timed phase %.3f s; op_p50_s and bars_per_s over all n=%d ops"
              % (phase_s, n))
        print("  %-36s %14.6g s (p%.1f of n=%d ops)" % ("op_tail_s", value, pct, n))
        for name, samples, r in (("op_p50_s", ops, ref),
                                 ("setup_s", setup_samples, CAL_REF_S["child"])):
            print("  %-36s %14.6g s (measured; median host factor %.4f)" % (
                name, statistics.median(s["wall_s"] for s in samples),
                statistics.median(r / s["cal_s"] for s in samples)))
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        if name in metrics:
            print("  %-36s %14.6g %s" % (name, metrics[name], unit))
    print("  %-36s %14.6g ratio (%d/%d)" % ("failed_frac", failed / n if n else 1.0,
                                           failed, n))
    for key, d in digests.items():
        print("  sha256 %s %s" % (d, key))
    for p in problems + [p for op in ops for p in op["problems"]][:10]:
        print("  FAILED: " + p.replace("\n", " | "))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("daily-chain", "scenario-backtest", "analytics-hot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rangegov", "cli.py")):
        print("error: no rangegov source under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    expected = load_expected(args.seed)
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (args.workload, args.seed,
                                                           os.getpid()))
    os.makedirs(work)
    problems: list = []
    try:
        setup_samples, cwd, info = setup(args.workload, args.seed, work, problems)
        ops, phase_s, digests = [], 0.0, {}
        if cwd is not None:
            if args.workload == "analytics-hot":
                ops, phase_s, digests = run_analytics_hot(cwd, work, args.seconds,
                                                          trace, expected)
            else:
                steps, check = {
                    "daily-chain": (daily_chain_steps, daily_chain_check),
                    "scenario-backtest": (scenario_backtest_steps, scenario_backtest_check),
                }[args.workload]
                ops, phase_s, digests = run_cli_workload(
                    steps(info, expected), check, cwd, work, args.seconds, trace, expected)
        ref = CAL_REF_S["inproc" if args.workload == "analytics-hot" else "child"]
        metrics: dict = {}
        if ops and not problems and not any(op["problems"] for op in ops):
            metrics = per_layer(ops, work, ref) if trace else \
                end_to_end(setup_samples, ops, ref)
            units = PER_LAYER if trace else END_TO_END
            problems += ["metric %s was not measured" % k for k in units if k not in metrics]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    failed = sum(1 for op in ops if op["problems"])
    correct = not problems and failed == 0 and bool(metrics)
    report(args.workload, args.seed, trace, setup_samples, ops, phase_s, ref, metrics,
           digests, problems)
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(ops), 1),
        "failed": failed if ops else 1,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand is file-in/file-out and deterministic: the same inputs and
flags produce byte-identical outputs. Reports carry no wall-clock fields
unless --stamp asks for one.

Exit codes:
  0   success
  2   usage error (unknown flag, missing argument)
  3   schema violation (malformed file, bad config key, bad scenario)
  4   a missing series, or a path the command cannot read or write
  5   quality rejection (reject-severity flags on ingest/validate, or a
      panel metrics/hypotheses/regime/backtest refuse: see `_load_valid`)
  6   insufficient inputs (trigger matrix starved)
  40+ hypothesis run with falsified verdicts: 40 + count, capped at 49
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from datetime import datetime, timezone
from operator import attrgetter
from typing import NamedTuple

from . import formats
from .config import DEFAULTS, FAMILIES, Config, from_dict
from .errors import (
    DataError,
    InsufficientInputsError,
    MissingSeriesError,
    QualityError,
    SchemaError,
)
from .model import validate_panel
from .plots import KINDS, render_plot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_MISSING = 4
EXIT_QUALITY = 5
EXIT_INSUFFICIENT = 6
EXIT_FALSIFIED_BASE = 40
EXIT_FALSIFIED_CAP = 49

# how `main` reports each error: the first class the error is an instance of
_ERRORS = (
    (SchemaError, "schema", EXIT_SCHEMA),
    (MissingSeriesError, "missing series", EXIT_MISSING),
    (QualityError, "quality", EXIT_QUALITY),
    (InsufficientInputsError, "insufficient inputs", EXIT_INSUFFICIENT),
    (DataError, "data", EXIT_SCHEMA),
)


def _resolve_config(args) -> Config:
    """The override file --config names, or else RG_CONFIG's (read as every
    input file is, so `--config ""` is a missing file; the two do not stack;
    an empty RG_CONFIG is unset), then each --set in turn."""
    path = args.config if args.config is not None else os.environ.get("RG_CONFIG") or None
    cfg = DEFAULTS if path is None else from_dict(formats._read_json(path))
    for item in args.set or []:
        if "=" not in item:
            raise SchemaError("--set expects key=value, got %r" % item)
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg = cfg.replace(**{key.strip(): value})
    return cfg


def _write(out, doc: dict, args) -> None:
    """`doc` as a report to `out`, with the time it was written if --stamp asks."""
    if args.stamp:
        doc = dict(doc, generated_at=datetime.now(timezone.utc).isoformat())
    formats.write_report(out, doc)


def _load_valid(path: str, cfg: Config):
    """The panel at `path` for an analytic command; QualityError names the
    first rule of `validate_panel` it breaks, so no report is built on a panel
    `validate` rejects."""
    panel = formats.load_panel(path)
    violations = validate_panel(panel, cfg.funding_hard_bound)
    if violations:
        raise QualityError("%s: %s %s" % (path, violations[0].field, violations[0].reason))
    return panel


def _quality_to_dict(report) -> dict:
    return {"kind": "quality", "passed": report.passed, "checks_run": report.checks_run,
            "flags": [f._asdict() for f in report.flags], "notes": list(report.notes)}


# ------------------------------------------------------------- subcommands
# Each takes the parsed flags and the resolved config (None for `plot`).

def _cmd_ingest(args, cfg) -> int:
    panel, qreport, _ = formats.ingest_manifest(args.manifest, cfg)
    if args.quality is not None:   # "" is a path open() refuses, not no path
        _write(args.quality, _quality_to_dict(qreport), args)
    if not qreport.passed and not args.allow_flagged:
        for f in qreport.flags:
            if f.severity == "reject":
                print("reject: %s %s: %s" % (f.check, f.location, f.detail),
                      file=sys.stderr)
        print("error: quality rejects; rerun with --allow-flagged to keep "
              "the panel", file=sys.stderr)
        return EXIT_QUALITY
    formats.save_panel(args.out, panel)
    print("wrote %s: %d bars, %d flags" % (args.out, len(panel.candles),
                                           len(qreport.flags)))
    return EXIT_OK


def _cmd_validate(args, cfg) -> int:
    panel = formats.load_panel(args.panel)
    from .quality import run_pipeline
    _, qreport = run_pipeline(panel, cfg, judge_input=True)
    _write(sys.stdout if args.out is None else args.out, _quality_to_dict(qreport), args)
    return EXIT_OK if qreport.passed else EXIT_QUALITY


def _cmd_metrics(args, cfg) -> int:
    from . import reports
    panel = _load_valid(args.panel, cfg)
    _write(args.out, reports.metrics_report(panel, cfg, args.family and [args.family]), args)
    print("wrote %s" % args.out)
    return EXIT_OK


def _cmd_hypotheses(args, cfg) -> int:
    from . import reports
    panel = _load_valid(args.panel, cfg)
    doc = reports.hypotheses_report(panel, cfg, ["H" + args.h] if args.h else None)
    _write(args.out, doc, args)
    falsified = sum(v["outcome"] == "falsified" for v in doc["verdicts"].values())
    print("wrote %s (%d falsified)" % (args.out, falsified))
    return min(EXIT_FALSIFIED_BASE + falsified, EXIT_FALSIFIED_CAP) if falsified else EXIT_OK


def _cmd_regime(args, cfg) -> int:
    from . import reports
    doc = reports.regime_report(_load_valid(args.panel, cfg), cfg)
    _write(args.out, doc, args)
    print("wrote %s: %s, conviction %s" % (args.out, doc["regime"]["label"],
                                           doc["trigger_matrix"]["conviction"]))
    return EXIT_OK


def _cmd_synth(args, cfg) -> int:
    from . import synth
    scenario = synth.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario._replace(seed=args.seed)
    panel, _ = synth.generate(scenario, cfg)
    formats.save_panel(args.out, panel)
    print("wrote %s: %d bars" % (args.out, len(panel.candles)))
    return EXIT_OK


def _cmd_backtest(args, cfg) -> int:
    from . import synth
    # a pattern with no match stays a path, which then exits 4 as a missing file
    paths = [path for pattern in args.panels for path in sorted(glob.glob(pattern)) or [pattern]]
    panels = sorted((_load_valid(path, cfg) for path in paths), key=attrgetter("instrument"))
    summary = synth.backtest(panels, cfg)
    _write(args.out, summary, args)
    gt = summary["ground_truth"]
    diag = "n/a" if gt["diagonal_frac"] is None else "%.3f" % gt["diagonal_frac"]
    print("wrote %s: %d panels, %d graded, diagonal %s" % (
        args.out, len(panels), gt["graded"], diag))
    return EXIT_OK


def _cmd_plot(args, _cfg) -> int:
    doc = formats.load_report(args.report)
    svg, csv_text = render_plot(doc, args.kind)
    stem, ext = os.path.splitext(args.out)
    # "" stays the path, which the write refuses as every output refuses it
    svg_path = args.out if ext.lower() == ".svg" or not args.out else args.out + ".svg"
    csv_path = (stem if ext.lower() == ".svg" else args.out) + ".csv"
    for path, text in ((svg_path, svg), (csv_path, csv_text)):
        with formats.replacing(path, newline="") as fh:
            fh.write(text)
    print("wrote %s and %s" % (svg_path, csv_path))
    return EXIT_OK


# ------------------------------------------------------------------ parser

class _Command(NamedTuple):
    name: str
    help: str
    run: object            # handler(args, cfg) -> exit code
    flags: dict            # its own flags: flag -> argparse keywords
    config: bool = True    # takes --config and --set; `main` resolves the config
    stamp: bool = True     # takes --stamp


_REQUIRED = {"required": True}
_CONFIG_FLAGS = {
    "--config": {"help": "config file path (overrides RG_CONFIG)"},
    "--set": {"action": "append", "metavar": "KEY=VALUE",
              "help": "override one config key (repeatable)"},
}
_STAMP_FLAG = {"--stamp": {"action": "store_true",
                           "help": "embed a generation timestamp (breaks determinism)"}}

_COMMANDS = (
    _Command("ingest", "merge and clean everything a manifest points at into one panel file",
             _cmd_ingest, {
                 "--manifest": _REQUIRED, "--out": _REQUIRED,
                 "--quality": {"help": "also write the quality report here"},
                 "--allow-flagged": {"action": "store_true",
                                     "help": "keep the panel even on reject-severity flags"}}),
    _Command("validate", "run the quality pipeline on a panel", _cmd_validate, {
        "--panel": _REQUIRED, "--out": {"help": "write the report here instead of stdout"}}),
    _Command("metrics", "per-bar metric tables by family", _cmd_metrics, {
        "--panel": _REQUIRED, "--family": {"choices": FAMILIES}, "--out": _REQUIRED}),
    _Command("hypotheses", "evaluate the falsifiable playbook", _cmd_hypotheses, {
        "--panel": _REQUIRED,
        "--h": {"choices": ["1", "2", "3", "4"], "help": "evaluate a single hypothesis"},
        "--out": _REQUIRED}),
    _Command("regime", "regime label, trigger matrix, advisories", _cmd_regime, {
        "--panel": _REQUIRED, "--out": _REQUIRED}),
    _Command("synth", "realize a scenario into a panel file", _cmd_synth, {
        "--scenario": _REQUIRED,
        "--seed": {"type": int, "help": "override the scenario seed"},
        "--out": _REQUIRED}, stamp=False),
    _Command("backtest", "grade hypothesis verdicts across panels", _cmd_backtest, {
        "--panels": {"nargs": "+", "required": True, "help": "panel files or glob patterns"},
        "--out": _REQUIRED}),
    _Command("plot", "render an SVG figure plus its CSV twin", _cmd_plot, {
        "--report": _REQUIRED, "--kind": {"required": True, "choices": KINDS},
        "--out": {"required": True, "help": "output path (.svg)"}}, config=False, stamp=False),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangegov",
        description="Range-governance analytics for perpetual-futures panels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag, keywords in {**cmd.flags, **(_CONFIG_FLAGS if cmd.config else {}),
                               **(_STAMP_FLAG if cmd.stamp else {})}.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.cmd.run(args, _resolve_config(args) if args.cmd.config else None)
    except DataError as exc:
        label, code = next((label, code) for kind, label, code in _ERRORS
                           if isinstance(exc, kind))
        print("error (%s): %s" % (label, exc), file=sys.stderr)
        return code
    except OSError as exc:
        if exc.filename is None:
            raise
        print("error (file): %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())

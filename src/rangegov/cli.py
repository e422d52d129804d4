"""Command-line front end.

Every subcommand is file-in/file-out and deterministic: the same inputs and
flags produce byte-identical outputs. Reports carry no wall-clock fields
unless --stamp asks for one.

Exit codes:
  0   success
  2   usage error (unknown flag, missing argument)
  3   schema violation (malformed file, bad config key, bad scenario)
  4   missing series or file
  5   quality rejection (reject-severity flags on ingest/validate, or a
      panel metrics/hypotheses/regime/backtest refuse: see `_load_valid`)
  6   insufficient inputs (trigger matrix starved, empty backtest set)
  40+ hypothesis run with falsified verdicts: 40 + count, capped at 49
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys
from datetime import datetime, timezone

from . import formats
from .config import FAMILIES, Config, from_env
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
    cfg = from_env(getattr(args, "config", None))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise SchemaError("--set expects key=value, got %r" % item)
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg = cfg.replace(**{key.strip(): value})
    return cfg


def _stamped(doc: dict, args) -> dict:
    if getattr(args, "stamp", False):
        doc = dict(doc)
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return doc


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
    return {
        "kind": "quality",
        "checks_run": report.checks_run,
        "passed": report.passed,
        "flags": [{"check": f.check, "location": f.location,
                   "severity": f.severity, "detail": f.detail}
                  for f in report.flags],
        "notes": list(report.notes),
    }


# ------------------------------------------------------------- subcommands

def _cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    panel, qreport, _ = formats.ingest_manifest(args.manifest, cfg)
    doc = _quality_to_dict(qreport)
    if args.quality:
        formats.write_report(args.quality, _stamped(doc, args))
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


def _cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    panel = formats.load_panel(args.panel)
    from .quality import run_pipeline
    _, qreport = run_pipeline(panel, cfg, judge_input=True)
    formats.write_report(args.out or sys.stdout, _stamped(_quality_to_dict(qreport), args))
    return EXIT_OK if qreport.passed else EXIT_QUALITY


def _cmd_metrics(args) -> int:
    from . import reports
    cfg = _resolve_config(args)
    panel = _load_valid(args.panel, cfg)
    families = [args.family] if args.family else None
    doc = reports.metrics_report(panel, cfg, families)
    formats.write_report(args.out, _stamped(doc, args))
    print("wrote %s" % args.out)
    return EXIT_OK


def _cmd_hypotheses(args) -> int:
    from . import reports
    cfg = _resolve_config(args)
    panel = _load_valid(args.panel, cfg)
    only = ["H%s" % args.h] if args.h else None
    doc = reports.hypotheses_report(panel, cfg, only)
    formats.write_report(args.out, _stamped(doc, args))
    falsified = sum(1 for v in doc["verdicts"].values()
                    if v["outcome"] == "falsified")
    print("wrote %s (%d falsified)" % (args.out, falsified))
    if falsified:
        return min(EXIT_FALSIFIED_BASE + falsified, EXIT_FALSIFIED_CAP)
    return EXIT_OK


def _cmd_regime(args) -> int:
    from . import reports
    cfg = _resolve_config(args)
    panel = _load_valid(args.panel, cfg)
    doc = reports.regime_report(panel, cfg)
    formats.write_report(args.out, _stamped(doc, args))
    print("wrote %s: %s, conviction %s" % (
        args.out, doc["regime"]["label"], doc["trigger_matrix"]["conviction"]))
    return EXIT_OK


def _cmd_synth(args) -> int:
    from . import synth
    cfg = _resolve_config(args)
    scenario = synth.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    panel, _ = synth.generate(scenario, cfg)
    formats.save_panel(args.out, panel)
    print("wrote %s: %d bars" % (args.out, len(panel.candles)))
    return EXIT_OK


def _cmd_backtest(args) -> int:
    from . import synth
    cfg = _resolve_config(args)
    paths = []
    for pattern in args.panels:
        hits = sorted(glob.glob(pattern))
        paths.extend(hits if hits else [pattern])
    if not paths:
        raise MissingSeriesError("no panel files matched")
    panels = [_load_valid(path, cfg) for path in paths]
    panels.sort(key=lambda p: p.instrument)
    summary = synth.backtest(panels, cfg)
    formats.write_report(args.out, _stamped(summary, args))
    gt = summary["ground_truth"]
    diag = "n/a" if gt["diagonal_frac"] is None else "%.3f" % gt["diagonal_frac"]
    print("wrote %s: %d panels, %d graded, diagonal %s" % (
        args.out, len(panels), gt["graded"], diag))
    return EXIT_OK


def _cmd_plot(args) -> int:
    doc = formats.load_report(args.report)
    svg, csv_text = render_plot(doc, args.kind)
    stem, ext = os.path.splitext(args.out)
    svg_path = args.out if ext.lower() == ".svg" else args.out + ".svg"
    csv_path = (stem if ext.lower() == ".svg" else args.out) + ".csv"
    with open(svg_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)
    print("wrote %s and %s" % (svg_path, csv_path))
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_config_flags(p) -> None:
    p.add_argument("--config", help="config file path (overrides RG_CONFIG)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def _add_stamp(p) -> None:
    p.add_argument("--stamp", action="store_true",
                   help="embed a generation timestamp (breaks determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangegov",
        description="Range-governance analytics for perpetual-futures panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="merge and clean everything a manifest "
                                      "points at into one panel file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quality", help="also write the quality report here")
    p.add_argument("--allow-flagged", action="store_true",
                   help="keep the panel even on reject-severity flags")
    _add_config_flags(p)
    _add_stamp(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("validate", help="run the quality pipeline on a panel")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", help="write the report here instead of stdout")
    _add_config_flags(p)
    _add_stamp(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("metrics", help="per-bar metric tables by family")
    p.add_argument("--panel", required=True)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_stamp(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("hypotheses", help="evaluate the falsifiable playbook")
    p.add_argument("--panel", required=True)
    p.add_argument("--h", choices=["1", "2", "3", "4"],
                   help="evaluate a single hypothesis")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_stamp(p)
    p.set_defaults(func=_cmd_hypotheses)

    p = sub.add_parser("regime", help="regime label, trigger matrix, advisories")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_stamp(p)
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("synth", help="realize a scenario into a panel file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("backtest", help="grade hypothesis verdicts across panels")
    p.add_argument("--panels", nargs="+", required=True,
                   help="panel files or glob patterns")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_stamp(p)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("plot", help="render an SVG figure plus its CSV twin")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--out", required=True, help="output path (.svg)")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DataError as exc:
        label, code = next((label, code) for kind, label, code in _ERRORS
                           if isinstance(exc, kind))
        print("error (%s): %s" % (label, exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

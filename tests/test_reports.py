"""Report builders, their published schemas, and the SVG/CSV plot layer."""

import csv
import io
import re

import jsonschema
import numpy as np
import pytest

from rangegov.config import DEFAULTS
from rangegov.errors import MissingSeriesError, SchemaError
from rangegov.formats import dump_json
from rangegov.plots import KINDS, render_plot
from rangegov.reports import (
    FAMILIES,
    cost_report,
    hypotheses_report,
    liquidity_report,
    metrics_report,
    positioning_report,
    regime_report,
    structural_report,
)
from rangegov.schemas import REPORT_SCHEMAS
from rangegov.structure import derive
from rangegov.synth import backtest, generate, scenario_from_dict

from conftest import SCENARIO_NAMES
from test_golden import coverage_panel, profile_panel

_BUILDERS = {
    "structural": structural_report,
    "cost": cost_report,
    "positioning": positioning_report,
    "liquidity": liquidity_report,
}


@pytest.fixture(scope="module")
def rich_panel(scenario_panels):
    # cascade scenario carries every optional series
    return scenario_panels["h4-confirm"][0]


@pytest.mark.parametrize("family", FAMILIES)
def test_family_report_matches_schema(family, rich_panel):
    doc = _BUILDERS[family](derive(rich_panel, DEFAULTS))
    jsonschema.validate(doc, REPORT_SCHEMAS[family])
    assert doc["kind"] == family


def test_metrics_umbrella(rich_panel):
    # top-level kinds are persisted with the writer's schema_version stamp
    doc = {**metrics_report(rich_panel, DEFAULTS), "schema_version": "1"}
    jsonschema.validate(doc, REPORT_SCHEMAS["metrics"])
    assert set(doc["families"]) == set(FAMILIES)


@pytest.mark.parametrize("name", SCENARIO_NAMES + ("coverage", "profile"))
def test_every_pinned_metrics_report_matches_schema(name, scenario_panels):
    """The packaged scenarios and the golden coverage panels."""
    panel = coverage_panel() if name == "coverage" else profile_panel() \
        if name == "profile" else scenario_panels[name][0]
    doc = {**metrics_report(panel, DEFAULTS), "schema_version": "1"}
    jsonschema.validate(doc, REPORT_SCHEMAS["metrics"])


def test_an_extremes_row_without_a_boundary_depth_is_refused(rich_panel):
    doc = {**metrics_report(rich_panel, DEFAULTS), "schema_version": "1"}
    del doc["families"]["liquidity"]["extremes_series"][0]["lower_usd"]
    with pytest.raises(jsonschema.ValidationError, match="lower_usd"):
        jsonschema.validate(doc, REPORT_SCHEMAS["metrics"])


def test_hypotheses_report_schema(rich_panel):
    doc = {**hypotheses_report(rich_panel, DEFAULTS), "schema_version": "1"}
    jsonschema.validate(doc, REPORT_SCHEMAS["hypotheses"])
    assert set(doc["verdicts"]) == {"H1", "H2", "H3", "H4"}


def test_regime_report_schema(rich_panel):
    doc = {**regime_report(rich_panel, DEFAULTS), "schema_version": "1"}
    jsonschema.validate(doc, REPORT_SCHEMAS["regime"])
    assert doc["advisory_only"] is True
    platform = doc["platform"]
    if platform is not None:
        assert DEFAULTS.leverage_min <= platform["max_leverage"] <= DEFAULTS.leverage_max


def test_backtest_report_schema(scenario_panels):
    # a panel with no ground truth writes neither `scenario` nor `expected`
    ungraded, _ = generate(scenario_from_dict({
        "name": "ungraded", "seed": 5, "instrument": "UNGRADED-PERP",
        "segments": [{"template": "noise", "length": 40},
                     {"template": "range", "length": 60}]}))
    panels = [panel for panel, _ in scenario_panels.values()] + [ungraded]
    doc = {**backtest(panels, DEFAULTS), "schema_version": "1"}
    jsonschema.validate(doc, REPORT_SCHEMAS["backtest"])
    assert doc["ground_truth"]["graded"] == len(scenario_panels)
    assert "expected" not in doc["rows"][-1]


def test_reports_serialize_deterministically(rich_panel):
    a = dump_json(metrics_report(rich_panel, DEFAULTS))
    b = dump_json(metrics_report(rich_panel, DEFAULTS))
    assert a == b


def test_cost_report_convention_and_direction(rich_panel):
    doc = cost_report(derive(rich_panel, DEFAULTS))
    assert doc["cumulative_convention"] == \
        "simple sum of per-period rates, non-compounding"
    assert doc["direction"] in ("rising", "moderating", "neutral")
    for row in doc["per_settlement"]:
        assert row["magnitude"] in ("neutral", "normal", "elevated")


def test_density_grid_integrates_to_one(rich_panel):
    doc = positioning_report(derive(rich_panel, DEFAULTS))
    block = doc["liquidation_density"]
    area = float(np.trapezoid(block["density"], block["prices"]))
    assert abs(area - 1.0) < 1e-3


def test_boundary_cluster_present_on_cascade(rich_panel):
    doc = positioning_report(derive(rich_panel, DEFAULTS))
    cluster = doc["boundary_cluster"]
    assert cluster is not None
    assert 0.0 <= cluster["share"] <= 1.0
    assert cluster["clustered"] is True


def test_extremes_series_respects_snapshot_cap(rich_panel):
    doc = liquidity_report(derive(rich_panel, DEFAULTS))
    series = doc.get("extremes_series")
    assert series
    assert len(series) <= DEFAULTS.depth_trend_snapshots
    for row in series:
        assert set(row) >= {"time", "lower_usd", "upper_usd", "total_usd"}


# ------------------------------------------------------------------- plots

def test_every_plot_kind_renders(rich_panel):
    doc = metrics_report(rich_panel, DEFAULTS)
    for kind in KINDS:
        svg, csv_text = render_plot(doc, kind)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        rows = list(csv.reader(io.StringIO(csv_text)))
        assert len(rows) > 1  # header plus data


def test_plots_render_deterministically(rich_panel):
    doc = metrics_report(rich_panel, DEFAULTS)
    for kind in KINDS:
        assert render_plot(doc, kind) == render_plot(doc, kind)


def test_density_peak_lands_on_scripted_cluster(scenario_panels):
    panel, gt = scenario_panels["h4-confirm"]
    doc = positioning_report(derive(panel, DEFAULTS))
    svg, _ = render_plot(doc, "density")
    m = re.search(r'data-peak-price="([^"]+)"', svg)
    assert m, "peak marker missing"
    peak = float(m.group(1))
    prices = doc["liquidation_density"]["prices"]
    spacing = prices[1] - prices[0]
    assert abs(peak - gt["cluster_price"]) <= spacing


def test_plot_unknown_kind(rich_panel):
    doc = metrics_report(rich_panel, DEFAULTS)
    with pytest.raises(SchemaError):
        render_plot(doc, "sideways")


def test_plot_missing_series(rich_panel):
    bare = rich_panel._replace(books=[], liquidations=[])
    doc = metrics_report(bare, DEFAULTS)
    with pytest.raises(MissingSeriesError):
        render_plot(doc, "depth")
    with pytest.raises(MissingSeriesError):
        render_plot(doc, "density")


def test_plot_rejects_wrong_family(rich_panel):
    doc = cost_report(derive(rich_panel, DEFAULTS))
    with pytest.raises(SchemaError):
        render_plot(doc, "range")

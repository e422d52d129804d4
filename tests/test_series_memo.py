"""`structure.derive` computes a panel's series once and `evaluate_all` each
verdict once: later calls on the same panel, under an equal config, share that
work. A panel's records cannot be edited; a panel built with other records, a
replaced annotation or another config derives afresh. Nothing of it outlives
the panel or travels with a copy."""
import copy
import gc
import hashlib
import pickle
import weakref

import numpy as np
import pytest

from rangegov import formats, hypotheses, reports, structure, synth
from rangegov.config import DEFAULTS
from rangegov.hypotheses import evaluate_all
from rangegov.model import BAR_SECONDS
from rangegov.structure import PanelSeries, derive

from conftest import SCENARIO_NAMES, filled
from test_golden import DIGESTS

REPORTS = (reports.metrics_report, reports.hypotheses_report, reports.regime_report)
KINDS = ("metrics", "hypotheses", "regime")
COMPUTED = ("map_swings", "resolve_range", "realized_volatility")
EVALUATORS = ("evaluate_h1", "evaluate_h2", "evaluate_h3", "evaluate_h4")


def _fresh(panel):
    """An equal panel that has derived nothing yet, with its own annotations."""
    return panel._replace(annotations=dict(panel.annotations))


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of the functions derive and evaluate_all run."""
    counts = {}

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    for name in COMPUTED:
        counted(structure, name)
    for name in EVALUATORS:
        counted(hypotheses, name)
    return counts


def _verdict_bytes(verdicts) -> str:
    return formats.dump_json({h: reports.verdict_to_dict(v) for h, v in verdicts.items()})


def assert_same_series(got: PanelSeries, want: PanelSeries):
    for name in PanelSeries._fields:
        if name in ("panel", "verdicts"):
            continue
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, name


def test_three_reports_derive_and_evaluate_once(scenario_panels, calls):
    panel = _fresh(scenario_panels["h1-confirm"][0])
    for report in REPORTS:
        report(panel)
    assert calls == {name: 1 for name in COMPUTED + EVALUATORS}
    series = derive(panel, DEFAULTS)
    assert series.panel is panel and series.cfg is DEFAULTS
    assert derive(panel, DEFAULTS.replace()).swings is series.swings   # equal config
    assert set(series.verdicts) == {getattr(hypotheses, name) for name in EVALUATORS}
    assert calls["map_swings"] == 1


def test_backtest_derives_and_evaluates_each_panel_once(scenario_panels, calls):
    panels = [_fresh(scenario_panels[name][0]) for name in SCENARIO_NAMES]
    assert _sha(synth.backtest(panels)) == DIGESTS["backtest"]
    assert calls == {name: len(panels) for name in COMPUTED + EVALUATORS}


def test_a_rebound_function_computes_afresh(scenario_panels, monkeypatch):
    """A wrapper installed after the panel was derived (a span tracer, a
    counter) sees one call of each function, and the reports do not change."""
    panel = _fresh(scenario_panels["h1-confirm"][0])
    plain = [formats.dump_json(report(panel)) for report in REPORTS]
    counts = {}
    for mod, names in ((structure, COMPUTED), (hypotheses, EVALUATORS)):
        for name in names:
            def wrapper(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)
    assert [formats.dump_json(report(panel)) for report in REPORTS] == plain
    assert counts == {name: 1 for name in COMPUTED + EVALUATORS}


def _replace_candle(panel):
    c = panel.candles[-1]
    panel.candles[-1] = c._replace(close=c.high)


def _append_candle(panel):
    c = panel.candles[-1]
    panel.candles.append(c._replace(open_time=c.open_time + BAR_SECONDS))


def _set(name, value):
    def edit(panel):
        setattr(panel, name, value(getattr(panel, name)))
    return edit


EDITS = {
    "replace a candle": _replace_candle,
    "append a candle": _append_candle,
    "pop a candle": lambda panel: panel.candles.pop(),
    "reassign funding": _set("funding", lambda rows: rows[:-6]),
    "reassign open interest": _set("open_interest", lambda rows: rows[:-6]),
    "reassign books": _set("books", lambda rows: rows[:-3]),
    "reassign liquidations": _set("liquidations", lambda rows: []),
    "replace an annotation": lambda panel: panel.annotations.update(basis=[]),
}
# what each in-place edit of a record raises: the series are tuples, the
# panel's fields read-only
RAISES = {
    "replace a candle": TypeError,
    "append a candle": AttributeError,
    "pop a candle": AttributeError,
    "reassign funding": AttributeError,
    "reassign open interest": AttributeError,
    "reassign books": AttributeError,
    "reassign liquidations": AttributeError,
}


@pytest.mark.parametrize("scenario, edit", [
    (scenario, edit) for scenario in ("h2-confirm", "h3-confirm", "h4-confirm")
    for edit in sorted(EDITS)
    # only the H4 scenarios hold liquidations
    if scenario == "h4-confirm" or edit != "reassign liquidations"])
def test_a_replaced_record_derives_afresh(scenario_panels, scenario, edit):
    """A record cannot be replaced in place: the edit raises, and the panel
    keeps its memo and reports its golden bytes. An annotation can, and the
    panel then derives afresh."""
    panel = _fresh(scenario_panels[scenario][0])
    for report in REPORTS:
        report(panel)
    kept = panel._derived
    if edit in RAISES:
        with pytest.raises(RAISES[edit]):
            EDITS[edit](panel)
        for kind, report in zip(KINDS, REPORTS):
            assert _sha(report(panel)) == DIGESTS["%s/%s" % (scenario, kind)], kind
        assert panel._derived is kept
        return
    EDITS[edit](panel)
    series = derive(panel, DEFAULTS)
    assert panel._derived is not kept
    twin = _fresh(panel)
    assert_same_series(series, derive(twin, DEFAULTS))
    assert _verdict_bytes(evaluate_all(panel, DEFAULTS)) == \
        _verdict_bytes(evaluate_all(twin, DEFAULTS))
    for report in REPORTS:
        assert formats.dump_json(report(panel)) == formats.dump_json(report(_fresh(panel)))


def test_a_panel_with_one_changed_candle_derives_afresh(scenario_panels, calls):
    panel = _fresh(scenario_panels["h2-confirm"][0])
    for report in REPORTS:
        report(panel)
    c = panel.candles[-1]
    assert c.close != c.high
    changed = panel._replace(candles=panel.candles[:-1] + (
        c._replace(close=c.high),))
    series = derive(changed, DEFAULTS)
    assert calls["map_swings"] == 2 and changed._derived is not panel._derived
    assert series.close[-1] == float(c.high) != derive(panel, DEFAULTS).close[-1]
    assert_same_series(series, derive(_fresh(changed), DEFAULTS))
    for report in REPORTS:
        assert formats.dump_json(report(changed)) == formats.dump_json(report(_fresh(changed)))
    for kind, report in zip(KINDS, REPORTS):
        assert _sha(report(panel)) == DIGESTS["h2-confirm/%s" % kind], kind


def test_another_config_derives_afresh(scenario_panels, calls):
    panel = _fresh(scenario_panels["h1-confirm"][0])
    cfg = DEFAULTS.replace(swing_lookback=4)
    derive(panel, DEFAULTS)
    series = derive(panel, cfg)
    assert series.cfg is cfg and calls["map_swings"] == 2
    assert_same_series(series, derive(_fresh(panel), cfg))
    assert _verdict_bytes(evaluate_all(panel, cfg)) == \
        _verdict_bytes(evaluate_all(_fresh(panel), cfg))


def test_a_reported_panel_needs_no_cycle_collector(scenario_panels):
    panel = _fresh(scenario_panels["h4-confirm"][0])
    gc.collect()
    gc.disable()
    try:
        for report in REPORTS:
            report(panel)
        assert panel._derived is not None
        ref = weakref.ref(panel)
        del panel
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)),
                                   copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_a_copy_carries_no_memo(scenario_panels, calls, clone):
    panel = _fresh(scenario_panels["h1-confirm"][0])
    evaluate_all(panel, DEFAULTS)
    thawed = clone(panel)
    assert thawed == panel and "_derived" not in filled(thawed)
    assert thawed._derived is None
    evaluate_all(thawed, DEFAULTS)
    assert calls["map_swings"] == 2 and calls["evaluate_h1"] == 2


def test_evaluate_all_returns_a_new_dict(scenario_panels):
    panel = _fresh(scenario_panels["h2-confirm"][0])
    first = evaluate_all(panel, DEFAULTS)
    first.pop("H1")
    again = evaluate_all(panel, DEFAULTS)
    assert again is not first and list(again) == ["H1", "H2", "H3", "H4"]
    assert all(again[h] is first[h] for h in first)


@pytest.mark.parametrize("only", [["H1"], ["H4", "H2"], ("H3",), {"H2", "H3", "H4"}])
def test_only_gives_the_verdicts_of_the_full_set(scenario_panels, calls, only):
    base = scenario_panels["h2-confirm"][0]
    full = evaluate_all(_fresh(base), DEFAULTS)
    want = {h: full[h] for h in full if h in only}
    calls.clear()
    panel = _fresh(base)
    got = evaluate_all(panel, DEFAULTS, only=only)
    assert list(got) == list(want)
    assert _verdict_bytes(got) == _verdict_bytes(want)
    assert sum(calls.get(name, 0) for name in EVALUATORS) == len(only)
    # the rest are evaluated when asked for, and nothing twice
    assert _verdict_bytes(evaluate_all(panel, DEFAULTS)) == _verdict_bytes(full)
    assert all(calls.get(name) == 1 for name in EVALUATORS)


def test_reports_in_reverse_order_give_the_golden_bytes(scenario_panels):
    panels = [_fresh(scenario_panels[name][0]) for name in SCENARIO_NAMES]
    for name, panel in zip(SCENARIO_NAMES, panels):
        for kind, report in reversed(list(zip(KINDS, REPORTS))):
            assert _sha(report(panel)) == DIGESTS["%s/%s" % (name, kind)], (name, kind)
    assert _sha(synth.backtest(panels)) == DIGESTS["backtest"]


def _sha(doc) -> str:
    return hashlib.sha256(formats.dump_json(doc).encode()).hexdigest()

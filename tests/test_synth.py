"""Scenario generator and batch backtest behaviour."""

import hashlib
import json
import re

import pytest

from rangegov import synth
from rangegov.cli import main
from rangegov.config import DEFAULTS
from rangegov.errors import MissingSeriesError, SchemaError
from rangegov.formats import dump_json, panel_to_dict, save_panel
from rangegov.quality import run_pipeline
from rangegov.synth import (
    Scenario,
    Segment,
    backtest,
    builtin_scenario_names,
    generate,
    load_builtin_scenario,
    load_scenario,
    scenario_from_dict,
)

from conftest import SCENARIO_NAMES, scale_panel, scenario_to_dict


def test_builtin_corpus_is_the_eight_scenarios():
    assert tuple(builtin_scenario_names()) == tuple(sorted(SCENARIO_NAMES))


def test_generate_is_deterministic():
    s = load_builtin_scenario("h3-confirm")
    a, _ = generate(s)
    b, _ = generate(s)
    assert dump_json(panel_to_dict(a)) == dump_json(panel_to_dict(b))


def test_noise_template_reacts_to_seed():
    base = Scenario(name="n", seed=7, segments=(Segment("noise", 40),))
    other = Scenario(name="n", seed=8, segments=(Segment("noise", 40),))
    pa, _ = generate(base)
    pb, _ = generate(other)
    assert [c.close for c in pa.candles] != [c.close for c in pb.candles]


class _Forgetful(dict):
    """A book memo that keeps nothing, so every bar formats its own sides."""

    def __setitem__(self, key, value):
        pass


def _year(seed):
    # the bench year's shape, shortened: noise, then a long range, then a cascade
    return Scenario(name="year", seed=seed, segments=(
        Segment("noise", 60, {"sigma": 0.004}), Segment("range", 240),
        Segment("cascade", 30)))


_TWO_NOISE = Scenario(name="two-noise", seed=11, segments=(
    Segment("noise", 30), Segment("range", 40), Segment("noise", 30, {"sigma": 0.006})))

# The bytes of the noise path: its draw order, np.exp and np.clip, and one
# generator shared by every noise segment of a scenario, in script order.
NOISE_DIGESTS = {
    "year-4": "f8330a388ce8a19600d1bc71cc15c35c998cb8b652e8028bf854efe28eecd053",
    "two-noise": "bb430da9d3e8e2ce520fd4b490c53442d891b65fac4a41e5a671b42f0b22dd91",
    "year-4 --seed 9": "761f5179fd8509a2a04ccdceed51da47b407dbd57c8ae06f6e62b3014049561e",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("key, scenario", [("year-4", _year(4)), ("two-noise", _TWO_NOISE)])
def test_noise_panel_bytes_are_pinned(key, scenario, tmp_path):
    out = tmp_path / "p.json"
    save_panel(str(out), generate(scenario)[0])
    assert _digest(out) == NOISE_DIGESTS[key]


def test_noise_panel_bytes_under_a_seed_override_are_pinned(tmp_path, capsys):
    path, out = tmp_path / "year.json", tmp_path / "p.json"
    path.write_text(json.dumps(scenario_to_dict(_year(4))))
    assert main(["synth", "--scenario", str(path), "--seed", "9", "--out", str(out)]) == 0
    assert _digest(out) == NOISE_DIGESTS["year-4 --seed 9"]
    capsys.readouterr()


# h2-confirm's breakout thins the shelf, so its states also differ in zone_mult
@pytest.mark.parametrize("scenario", [_year(1), _year(4), _year(7),
                                      load_builtin_scenario("h2-confirm")],
                         ids=["year-1", "year-4", "year-7", "h2-confirm"])
def test_book_memo_formats_each_state_once(scenario, tmp_path, monkeypatch):
    states = []
    sides = synth._sides

    def counted(*state):
        states.append(state)
        return sides(*state)

    monkeypatch.setattr(synth, "_sides", counted)
    save_panel(str(tmp_path / "memo.json"), generate(scenario)[0])
    memo_states = list(states)

    init = synth._Builder.__init__

    def forgetful_init(self, s):
        init(self, s)
        self.sides = _Forgetful()

    states.clear()
    monkeypatch.setattr(synth._Builder, "__init__", forgetful_init)
    panel, _ = generate(scenario)
    save_panel(str(tmp_path / "every-bar.json"), panel)

    assert (tmp_path / "memo.json").read_bytes() == (tmp_path / "every-bar.json").read_bytes()
    assert len(states) == len(panel.candles)
    assert len(memo_states) == len(set(memo_states)) < len(states)
    assert set(memo_states) == set(states)


def test_scenario_panels_pass_quality_clean(scenario_panels):
    # generated data must never trip its own validation pipeline
    for name, (panel, _) in scenario_panels.items():
        cleaned, report = run_pipeline(panel, DEFAULTS)
        assert report.passed, f"{name}: {report.flags}"
        assert len(cleaned.candles) == len(panel.candles)


def test_segment_lengths_add_up(scenario_panels):
    for name in SCENARIO_NAMES:
        s = load_builtin_scenario(name)
        panel, _ = scenario_panels[name]
        assert len(panel.candles) == sum(seg.length for seg in s.segments)


def test_ground_truth_rides_in_annotations(scenario_panels):
    panel, gt = scenario_panels["h1-confirm"]
    assert panel.annotations["ground_truth"] == gt
    assert gt["scenario"] == "h1-confirm"
    assert gt["hypothesis"] == "H1"


def test_backtest_full_corpus_diagonal(scenario_panels):
    panels = [scenario_panels[n][0] for n in SCENARIO_NAMES]
    out = backtest(panels, DEFAULTS)
    assert out["panels"] == len(SCENARIO_NAMES)
    assert out["ground_truth"]["graded"] == len(SCENARIO_NAMES)
    assert out["ground_truth"]["mismatches"] == []
    assert out["ground_truth"]["diagonal_frac"] == 1.0


def test_backtest_verdict_counts_sum_to_panel_count(scenario_panels):
    panels = [scenario_panels[n][0] for n in SCENARIO_NAMES]
    out = backtest(panels, DEFAULTS)
    for h, buckets in out["verdict_counts"].items():
        assert sum(buckets.values()) == out["panels"], h


def test_backtest_rows_carry_expectations(scenario_panels):
    panels = [scenario_panels[n][0] for n in SCENARIO_NAMES]
    out = backtest(panels, DEFAULTS)
    for row in out["rows"]:
        assert row["expected"] == row["verdicts"][row["scenario"].split("-")[0].upper()]


def test_backtest_empty_input():
    out = backtest([], DEFAULTS)
    assert out["panels"] == 0
    assert out["rows"] == []
    assert out["ground_truth"]["graded"] == 0
    assert out["ground_truth"]["diagonal_frac"] is None


def test_scale_panel_touches_prices_only(scenario_panels):
    panel, _ = scenario_panels["h4-confirm"]
    scaled = scale_panel(panel, 1000.0)
    for a, b in zip(panel.candles, scaled.candles):
        assert b.close == a.close * 1000
        assert b.volume == a.volume
    for a, b in zip(panel.funding, scaled.funding):
        assert b.rate_8h == a.rate_8h
    for a, b in zip(panel.open_interest, scaled.open_interest):
        assert b.oi_usd == a.oi_usd
    for a, b in zip(panel.liquidations, scaled.liquidations):
        assert b.price == a.price * 1000
        assert b.size_usd == a.size_usd
    assert scaled.annotations == panel.annotations


def test_scenario_dict_round_trip():
    s = load_builtin_scenario("h2-confirm")
    again = scenario_from_dict(scenario_to_dict(s))
    assert again == s


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(MissingSeriesError):
        load_scenario(str(tmp_path / "nope.json"))


def test_load_scenario_names_a_file_that_is_not_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json")
    with pytest.raises(SchemaError, match="^%s: Expecting value" % re.escape(str(p))):
        load_scenario(str(p))


def test_load_scenario_rejects_bad_template(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "x", "seed": 1, "segments": '
                 '[{"template": "lunar", "length": 5}]}')
    with pytest.raises(SchemaError):
        load_scenario(str(p))


def test_load_scenario_rejects_nonpositive_length():
    with pytest.raises(SchemaError):
        scenario_from_dict({"name": "x", "seed": 1,
                            "segments": [{"template": "range", "length": 0}]})


@pytest.mark.parametrize("seed", [-1, 2.9, True, "4", None])
def test_generate_refuses_a_seed_before_any_bar(seed, monkeypatch):
    def no_builder(scenario):
        raise AssertionError("a bar was built")

    monkeypatch.setattr(synth, "_Builder", no_builder)
    for segment in (Segment("range", 40), Segment("noise", 40)):
        with pytest.raises(SchemaError, match=r"^scenario 'x': seed must be an integer >= 0, "
                                              r"got %s$" % re.escape(repr(seed))):
            generate(Scenario(name="x", seed=seed, segments=(segment,)))


def test_generate_rejects_empty_scenario():
    with pytest.raises(SchemaError):
        generate(Scenario(name="void", seed=1, segments=()))


def test_generate_names_the_first_violation():
    scenario = load_builtin_scenario("h4-confirm")._replace(base_price=-100.0)
    with pytest.raises(SchemaError, match=r"invalid panel: candles\[0\]\.open must be > 0"):
        generate(scenario)


def test_unknown_builtin_name():
    with pytest.raises(SchemaError):
        load_builtin_scenario("h9-maybe")

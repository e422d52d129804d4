import pytest

from rangegov.config import DEFAULTS
from rangegov.cost import FundingState
from rangegov.errors import InsufficientInputsError
from rangegov.hypotheses import HypothesisVerdict
from rangegov.model import Panel, RangeDefinition, d12
from rangegov.regime import (
    ALIGNED,
    DIVERGENT,
    NEUTRAL,
    VOL_WINDOW_30D,
    RegimeLabel,
    advise_platform_parameters,
    assemble_trigger_states,
    build_trigger_matrix,
    classify_regime,
    percentile_rank,
    range_position,
    recommend_action,
)
from rangegov.synth import generate, scenario_from_dict

from conftest import scale_panel

T0 = 1700006400


def recipe(name, seed, segments, regime):
    return scenario_from_dict({
        "name": name, "seed": seed, "instrument": "SYNTH-" + name.upper(),
        "segments": segments, "ground_truth": {"regime": regime},
    })


ACCUMULATION_DOC = recipe("accum", 11, [
    {"template": "range", "length": 40},
    {"template": "compression", "length": 20,
     "overrides": {"late_wicks": False, "absorption": True,
                   "oi_start": 4.0e8, "oi_end": 4.1e8}},
], "accumulation")

DISTRIBUTION_DOC = recipe("dist", 12, [
    {"template": "range", "length": 40},
    {"template": "trend", "length": 20,
     "overrides": {"drift": 0.002, "toppy_wick": 0.004,
                   "volume_start": 4000.0, "volume_end": 2500.0,
                   "oi_start": 5.2e8, "oi_end": 4.7e8}},
], "distribution")

TRENDING_DOC = recipe("trend", 13, [
    {"template": "range", "length": 40},
    {"template": "trend", "length": 20,
     "overrides": {"drift": 0.005, "share_start": 0.50, "share_end": 0.59}},
], "trending")


# --- classification -------------------------------------------------------------

@pytest.mark.parametrize("scenario", [ACCUMULATION_DOC, DISTRIBUTION_DOC,
                                      TRENDING_DOC],
                         ids=["accumulation", "distribution", "trending"])
def test_classify_regime_matches_scripted_phase(scenario):
    panel, gt = generate(scenario)
    label = classify_regime(panel, DEFAULTS)
    assert label.label == gt["regime"]
    met = {c for c, _, m in label.evidence if m}
    assert met    # the evidence trail names what fired


def test_plain_range_is_unclassified(scenario_panels):
    panel, _ = scenario_panels["h1-confirm"]
    assert classify_regime(panel, DEFAULTS).label == "unclassified"


def test_classification_is_price_scale_invariant():
    panel, gt = generate(DISTRIBUTION_DOC)
    assert classify_regime(scale_panel(panel, 1000.0), DEFAULTS).label == gt["regime"]


# --- trigger matrix --------------------------------------------------------------

def test_matrix_requires_four_evaluated_metrics():
    states = {"funding": ALIGNED, "shelf_migration": ALIGNED,
              "oi_rotation": ALIGNED, "volatility_compression": None}
    with pytest.raises(InsufficientInputsError):
        build_trigger_matrix(states, DEFAULTS)


def test_matrix_all_core_aligned_is_high_and_elevated():
    states = {"funding": ALIGNED, "shelf_migration": ALIGNED,
              "oi_rotation": ALIGNED, "volatility_compression": NEUTRAL}
    m = build_trigger_matrix(states, DEFAULTS)
    assert m.conviction == "high"
    assert m.expansion_probability_band == "elevated"


def test_matrix_one_core_divergent_caps_at_low():
    states = {"funding": ALIGNED, "shelf_migration": DIVERGENT,
              "oi_rotation": ALIGNED, "volatility_compression": ALIGNED,
              "liquidation_cluster": ALIGNED}
    m = build_trigger_matrix(states, DEFAULTS)
    assert m.conviction == "low"
    assert m.expansion_probability_band == "baseline"


def test_matrix_mixed_core_is_medium_baseline():
    states = {"funding": ALIGNED, "shelf_migration": NEUTRAL,
              "oi_rotation": ALIGNED, "liquidation_cluster": NEUTRAL}
    m = build_trigger_matrix(states, DEFAULTS)
    assert m.conviction == "medium"
    assert m.expansion_probability_band == "baseline"


def test_matrix_rejects_unknown_state():
    states = {"funding": "sideways", "shelf_migration": ALIGNED,
              "oi_rotation": ALIGNED, "liquidation_cluster": ALIGNED}
    with pytest.raises(ValueError):
        build_trigger_matrix(states, DEFAULTS)


def test_assemble_states_covers_all_five(scenario_panels):
    panel, _ = scenario_panels["h4-confirm"]
    from rangegov.structure import derive
    states = assemble_trigger_states(derive(panel, DEFAULTS))
    assert set(states) == {"funding", "shelf_migration", "oi_rotation",
                           "volatility_compression", "liquidation_cluster"}
    evaluated = [v for v in states.values() if v is not None]
    assert len(evaluated) >= DEFAULTS.trigger_min_metrics


def test_shelf_migration_state_reads_the_latest_valid_snapshot(scenario_panels):
    from rangegov.model import BookSnapshot, levels_text
    from rangegov.structure import derive
    panel, _ = scenario_panels["h2-confirm"]
    assert assemble_trigger_states(derive(panel, DEFAULTS))["shelf_migration"] == ALIGNED
    # an invalid last snapshot (zero-price bid) with every ask inside the range
    # would read divergent; the state comes from the snapshot before it
    bad = BookSnapshot(panel.books[-1].time + 3600, levels_text(((d12(0), d12(1)),)),
                       levels_text(((d12(100), d12(1)),)))
    edited = Panel(panel.instrument, panel.candles, panel.funding,
                   panel.open_interest, panel.books + (bad,), panel.liquidations,
                   panel.annotations)
    assert assemble_trigger_states(derive(edited, DEFAULTS))["shelf_migration"] == ALIGNED


# --- platform advisory -----------------------------------------------------------

def test_leverage_endpoints():
    n = VOL_WINDOW_30D
    rising = [0.01 + 0.0001 * i for i in range(n)]
    assert advise_platform_parameters(rising, DEFAULTS)["max_leverage"] \
        == pytest.approx(DEFAULTS.leverage_min)          # current is the max
    falling = list(reversed(rising))
    assert advise_platform_parameters(falling, DEFAULTS)["max_leverage"] \
        == pytest.approx(DEFAULTS.leverage_max)          # current is the min


def test_aggressive_mode_is_strict_above_80th():
    # history of 101 distinct values; the current value's rank is
    # (#strictly below) / 100, so 80 below = exactly the threshold
    base = [float(i) for i in range(100)]
    at_threshold = base + [79.5]
    out = advise_platform_parameters(at_threshold, DEFAULTS)
    assert out["vol_percentile_90d"] == pytest.approx(0.80)
    assert out["liquidation_mode"] == "gradual"
    above = base + [80.5]
    out = advise_platform_parameters(above, DEFAULTS)
    assert out["vol_percentile_90d"] > 0.80
    assert out["liquidation_mode"] == "aggressive"


def test_advisor_rejects_empty_history():
    with pytest.raises(InsufficientInputsError):
        advise_platform_parameters([float("nan")], DEFAULTS)


def test_percentile_rank_short_history_is_zero():
    assert percentile_rank([1.0], 1.0) == 0.0
    assert percentile_rank([], 5.0) == 0.0


# --- action mapping --------------------------------------------------------------

def _verdict(h, outcome):
    return HypothesisVerdict(h, (0, 10), True, (), outcome)


def _state(annualized_pct=87.6, magnitude="elevated"):
    return FundingState("positive", 5, magnitude, annualized_pct, 0.0056, 0.024)


IDLE = RegimeLabel("unclassified", ())


def test_confirmed_breakout_wins_precedence():
    verdicts = {"H2": _verdict("H2", "confirmed"),
                "H4": _verdict("H4", "confirmed")}
    out = recommend_action(IDLE, "near_upper", _state(), verdicts, DEFAULTS)
    assert out["action"] == "validate breakout"
    assert out["advisory_only"] is True


def test_cascade_fade_needs_boundary_proximity():
    verdicts = {"H4": _verdict("H4", "confirmed")}
    near = recommend_action(IDLE, "near_lower", _state(), verdicts, DEFAULTS)
    assert near["action"] == "fade cascade extreme"
    interior = recommend_action(IDLE, "interior", _state(), verdicts, DEFAULTS)
    assert interior["action"] != "fade cascade extreme"


def test_spike_fade_and_boundary_fade():
    spike = recommend_action(IDLE, "interior", _state(),
                             {"H3": _verdict("H3", "confirmed")}, DEFAULTS)
    assert spike["action"] == "fade spike toward midpoint"
    fade = recommend_action(IDLE, "near_upper", _state(), {}, DEFAULTS)
    assert fade["action"] == "fade extreme"
    # H1 falsified flips the same setup to expansion-following
    follow = recommend_action(IDLE, "near_upper", _state(),
                              {"H1": _verdict("H1", "falsified")}, DEFAULTS)
    assert follow["action"] == "follow expansion"


def test_trending_follows_and_quiet_stands_aside():
    trending = RegimeLabel("trending", ())
    out = recommend_action(trending, "interior", _state(magnitude="normal"),
                           {}, DEFAULTS)
    assert out["action"] == "follow expansion"
    idle = recommend_action(IDLE, "interior", _state(magnitude="normal"),
                            {}, DEFAULTS)
    assert idle["action"] == "stand aside"


def test_funding_drag_at_published_rate():
    # 0.0008 per period held 10 days at 3 settlements/day
    out = recommend_action(IDLE, "interior", _state(annualized_pct=87.6),
                           {}, DEFAULTS)
    assert out["funding_drag_frac"] == pytest.approx(0.024, rel=1e-9)


def test_range_position_buckets():
    rng = RangeDefinition(d12(100), d12(110), T0)
    assert range_position(d12(109.5), rng, DEFAULTS) == "near_upper"
    assert range_position(d12(112), rng, DEFAULTS) == "near_upper"
    assert range_position(d12(100.5), rng, DEFAULTS) == "near_lower"
    assert range_position(d12(99), rng, DEFAULTS) == "near_lower"
    assert range_position(d12(105), rng, DEFAULTS) == "interior"
    assert range_position(d12(105), None, DEFAULTS) == "no-range"

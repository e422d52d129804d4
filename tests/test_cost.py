import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangegov import cost, ingestion
from rangegov.config import DEFAULTS
from rangegov.cost import (
    ELEVATED,
    NEUTRAL,
    NORMAL,
    build_funding_state,
    funding_bias_duration,
    funding_spike,
    magnitude_classifier,
    trailing_mean_std,
)
from rangegov.ingestion import (
    annualize_funding, basis_spread, cumulative_funding, normalize_funding,
)
from rangegov.model import FundingRecord, SETTLE_SECONDS, d12


def records(rates, start=0):
    return [FundingRecord(settle_time=start + i * SETTLE_SECONDS, rate_8h=d12(r))
            for i, r in enumerate(rates)]


class TestBiasDuration:
    def test_run_length_counting(self):
        assert funding_bias_duration([0.0001, 0.0002, 0.0003, -0.0001]) == [1, 2, 3, 1]

    def test_all_zeros_stay_neutral(self):
        assert funding_bias_duration([0, 0, 0]) == [0, 0, 0]

    def test_zero_resets_a_run(self):
        assert funding_bias_duration([0.0001, 0, 0.0001]) == [1, 0, 1]

    def test_sign_flip_resets(self):
        assert funding_bias_duration([-0.1, -0.1, 0.2, -0.3]) == [1, 2, 1, 1]

    @given(st.lists(st.sampled_from([-0.0004, 0.0, 0.0003]), max_size=40),
           st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariance(self, rates, k):
        scaled = [r * k for r in rates]
        assert funding_bias_duration(rates) == funding_bias_duration(scaled)


classify = magnitude_classifier(DEFAULTS)


class TestMagnitude:
    def test_elevated(self):
        assert classify(d12(0.0006)) == ELEVATED
        assert classify(d12(-0.0006)) == ELEVATED

    def test_neutral(self):
        assert classify(d12(0.00005)) == NEUTRAL

    def test_normal_between(self):
        assert classify(d12(0.0003)) == NORMAL

    def test_boundaries_are_strict(self):
        # exactly at a threshold falls in the middle class
        assert classify(d12(0.0005)) == NORMAL
        assert classify(d12(0.0001)) == NORMAL

    @given(st.floats(min_value=0, max_value=0.01),
           st.floats(min_value=0, max_value=0.01))
    def test_monotone_in_abs_rate(self, a, b):
        lo, hi = sorted([a, b])
        order = {NEUTRAL: 0, NORMAL: 1, ELEVATED: 2}
        assert order[classify(d12(lo))] <= order[classify(d12(hi))]


class TestSpike:
    def test_short_history_not_evaluated(self):
        flags = funding_spike([0.0001] * 29)
        assert flags == [None] * 29

    def test_constant_then_jump_is_flagged(self):
        rates = [0.0001] * 30 + [0.01]
        flags = funding_spike(rates)
        assert flags[:30] == [None] * 30
        assert flags[30] is True

    def test_constant_series_never_flags_itself(self):
        flags = funding_spike([0.0002] * 40)
        assert all(f is False for f in flags[30:])

    def test_window_sits_strictly_before_the_tested_value(self):
        # jump at 30 must not contaminate its own window
        rates = [0.0001] * 30 + [0.01, 0.0001]
        flags = funding_spike(rates)
        assert flags[30] is True

    def test_iid_noise_flag_rate_near_tail_expectation(self):
        rng = np.random.default_rng(7)
        rates = rng.normal(0.0, 1e-4, size=3000).tolist()
        flags = funding_spike(rates)
        evaluated = [f for f in flags if f is not None]
        rate = sum(evaluated) / len(evaluated)
        # two-sided 2-sigma tail of a normal is ~4.6%; sample-std windows widen it a bit
        assert 0.02 < rate < 0.10

    @given(st.lists(st.floats(min_value=-0.001, max_value=0.001), min_size=32, max_size=40),
           st.floats(min_value=-0.01, max_value=0.01))
    @settings(max_examples=30)
    def test_translation_invariance(self, rates, shift):
        base = funding_spike(rates)
        moved = funding_spike([r + shift for r in rates])
        assert base == moved


def _loop_spike(rates, cfg=DEFAULTS):
    """The per-settlement reference: (means, stds, flags) from one numpy
    reduction per window."""
    look = cfg.funding_spike_lookback
    values = np.array([float(d12(r)) for r in rates])
    means, stds, flags = [], [], [None] * len(values)
    for t in range(look, len(values)):
        window = values[t - look:t]
        means.append(window.mean())
        stds.append(window.std(ddof=1))
        std = max(stds[-1], cfg.funding_spike_sigma_floor)
        flags[t] = bool(abs(values[t] - means[-1]) > cfg.funding_spike_sigma * std)
    return np.array(means), np.array(stds), flags


class TestSpikeMatchesLoop:
    """`funding_spike` reduces all windows in one pass; its window means and
    standard deviations must be bit-equal to the per-window loop's."""

    def _check(self, rates, cfg=DEFAULTS):
        means, stds, flags = _loop_spike(rates, cfg)
        assert funding_spike(rates, cfg) == flags
        if len(rates) >= cfg.funding_spike_lookback:
            values = np.array([float(d12(r)) for r in rates])
            got_mean, got_std = trailing_mean_std(values, cfg.funding_spike_lookback)
            assert got_mean.tobytes() == means.tobytes()
            assert got_std.tobytes() == stds.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_series(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        look = int(rng.integers(2, 60))
        rates = (rng.normal(0.0, 1e-4, size=n) * rng.choice([1, 10, 100], size=n)).tolist()
        self._check(rates, DEFAULTS.replace(funding_spike_lookback=look))

    @given(st.lists(st.floats(min_value=-0.03, max_value=0.03), max_size=80),
           st.integers(min_value=2, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_any_series_and_lookback(self, rates, look):
        self._check(rates, DEFAULTS.replace(funding_spike_lookback=look))

    def test_constant_series(self):
        self._check([0.0003] * 90)

    def test_history_shorter_than_lookback(self):
        self._check([0.0001, -0.0002] * 7)
        assert funding_spike([]) == []

    def test_lookback_equal_to_length(self):
        rates = [0.0001 * i for i in range(DEFAULTS.funding_spike_lookback)]
        self._check(rates)
        self._check(rates + [0.05])


def _state(rates):
    return build_funding_state(records(rates), funding_bias_duration(rates))


class TestFundingState:
    def test_empty_history(self):
        assert build_funding_state([], []) is None

    def test_composed_fields(self):
        rates = [0.0] * 3 + [0.0008] * 90
        state = _state(rates)
        assert state.bias_sign == "positive"
        assert state.bias_duration == 90
        assert state.magnitude_class == ELEVATED
        assert state.annualized_pct == pytest.approx(87.6, rel=1e-9)
        assert state.cumulative_7d == pytest.approx(21 * 0.0008, rel=1e-9)
        assert state.cumulative_30d == pytest.approx(90 * 0.0008, rel=1e-9)

    def test_windows_longer_than_history_are_omitted(self):
        state = _state([0.0002] * 30)
        assert state.cumulative_7d == pytest.approx(21 * 0.0002, rel=1e-9)
        assert state.cumulative_30d is None

    def test_negative_bias(self):
        state = _state([-0.0003, -0.0002])
        assert state.bias_sign == "negative"
        assert state.bias_duration == 2
        assert state.magnitude_class == NORMAL

    def test_zero_last_rate_is_neutral(self):
        state = _state([0.0004, 0.0])
        assert state.bias_sign == "neutral"
        assert state.bias_duration == 0

    def test_duration_at_least_one_when_signed(self):
        for rates in ([0.0001], [0.0005, -0.0005], [-0.001, 0.002, 0.003]):
            state = _state(rates)
            if state.bias_sign != "neutral":
                assert state.bias_duration >= 1


RATES = [d12(r) for r in (0.0003, -0.0006, 0.0, 0.00005, 0.0001)] * 8


@pytest.mark.parametrize("call, quantized", [
    pytest.param(lambda: funding_bias_duration(RATES), 0, id="funding_bias_duration"),
    pytest.param(lambda: funding_spike(RATES), 0, id="funding_spike"),
    pytest.param(lambda: list(map(magnitude_classifier(DEFAULTS), RATES)), 2,
                 id="magnitude_classifier"),   # its two thresholds, once
    pytest.param(lambda: normalize_funding(RATES[0], 4), 1, id="normalize_funding"),
    pytest.param(lambda: annualize_funding(RATES[0]), 1, id="annualize_funding"),
    pytest.param(lambda: cumulative_funding(RATES, 30), 1, id="cumulative_funding"),
    pytest.param(lambda: basis_spread(d12(30150), d12(30000), d12(0.005)), 1,
                 id="basis_spread"),
])
def test_a_rule_takes_each_rate_as_the_record_holds_it(monkeypatch, call, quantized):
    """`d12` runs only on a result or a threshold, never on a rate as read: the
    number of calls does not grow with the number of rates."""
    calls = []

    def counted(value):
        calls.append(value)
        return d12(value)
    for module in (cost, ingestion):
        monkeypatch.setattr(module, "d12", counted)
    call()
    assert len(calls) == quantized, calls

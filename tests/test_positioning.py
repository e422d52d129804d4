import math

import numpy as np
import pytest

from rangegov.config import DEFAULTS
from rangegov.model import LiquidationEvent, RangeDefinition, d12
from rangegov.positioning import (
    COLLAPSE,
    NEITHER,
    ROTATION,
    boundary_cluster_share,
    classify_oi_event,
    concentration_gini,
    leverage_summary,
    liquidation_density,
    long_short_ratio,
    oi_rotation,
    trapezoid,
)


def ev(price, usd, t=0, side="long"):
    return LiquidationEvent(time=t, price=d12(price), size_usd=d12(usd), side=side)


class TestOiRotation:
    def test_flat_oi_scores_zero(self):
        scores = oi_rotation([100, 100, 100], [0.01, 0.01, 0.01])
        assert scores[0] is None
        assert scores[1] == 0.0
        assert scores[2] == 0.0

    def test_one_percent_step_with_one_percent_vol(self):
        scores = oi_rotation([100.0, 101.0], [0.01, 0.01])
        assert scores[1] == pytest.approx(1.0, rel=1e-9)

    def test_zero_previous_oi_not_evaluated(self):
        scores = oi_rotation([0.0, 50.0], [0.01, 0.01])
        assert scores == [None, None]

    def test_volatility_floor(self):
        scores = oi_rotation([100.0, 101.0], [0.0, 0.0])
        assert scores[1] == pytest.approx(0.01 / 1e-6, rel=1e-9)

    def test_matches_two_line_oracle(self):
        rng = np.random.default_rng(11)
        oi = (1e8 * (1 + rng.uniform(-0.3, 0.3, size=50))).tolist()
        vol = rng.uniform(0.001, 0.05, size=50).tolist()
        scores = oi_rotation(oi, vol)
        for t in range(1, 50):
            expected = ((oi[t] - oi[t - 1]) / oi[t - 1]) / max(vol[t], 1e-6)
            assert scores[t] == pytest.approx(expected, rel=1e-12)

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            oi_rotation([1, 2], [0.01])


def decs(*values) -> list:
    """The values as the 12-place `Decimal`s a record holds."""
    return [d12(v) for v in values]


class TestOiEvent:
    def test_mix_shift_with_small_decline_is_rotation(self):
        out = classify_oi_event(decs(100.0, 99.0, 98.0), decs(0.55, 0.58, 0.62))
        assert out.label == ROTATION
        assert out.mix_shift_pp == pytest.approx(0.07)
        assert not out.partial

    def test_large_decline_is_collapse(self):
        out = classify_oi_event(decs(100.0, 92.0), decs(0.5, 0.5))
        assert out.label == COLLAPSE

    def test_flat_mix_flat_oi_is_neither(self):
        out = classify_oi_event(decs(100.0, 101.0), decs(0.5, 0.5))
        assert out.label == NEITHER

    def test_decline_boundary_is_strict(self):
        # exactly -5% is not a collapse; rotation still decidable
        out = classify_oi_event(decs(100.0, 95.0), decs(0.50, 0.56))
        assert out.label == ROTATION

    def test_mix_boundary_is_inclusive(self):
        out = classify_oi_event(decs(100.0, 100.0), decs(0.50, 0.55))
        assert out.label == ROTATION

    def test_missing_mix_marks_partial(self):
        out = classify_oi_event(decs(100.0, 99.0))
        assert out.label == NEITHER
        assert out.partial
        collapse = classify_oi_event(decs(100.0, 90.0))
        assert collapse.label == COLLAPSE

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            classify_oi_event(decs(100.0))
        with pytest.raises(ValueError):
            classify_oi_event(decs(0.0, 10.0))


def manual_trapezoid(y, x):
    return sum((x[i + 1] - x[i]) * (y[i + 1] + y[i]) / 2.0 for i in range(len(x) - 1))


def direct_kde(prices, weights, h, grid):
    total = sum(weights)
    raw = []
    for x in grid:
        acc = 0.0
        for p, w in zip(prices, weights):
            u = (x - p) / h
            acc += w * math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        raw.append(acc / (total * h))
    area = manual_trapezoid(raw, list(grid))
    return [r / area for r in raw]


class TestLiquidationDensity:
    def test_point_mass_peaks_at_the_price(self):
        events = [ev(50000, 1e6) for _ in range(5)]
        dens = liquidation_density(events)
        assert dens.bandwidth == pytest.approx(500.0)
        # default grid spans +-5 bandwidths; peak lands on the nearest grid node
        step = dens.prices[1] - dens.prices[0]
        peak = dens.prices[int(np.argmax(dens.density))]
        assert abs(peak - 50000) <= step
        assert trapezoid(dens.density, dens.prices) == pytest.approx(1.0, abs=1e-3)
        # the grid is symmetric about the price, so the two nodes either side
        # of it share the peak
        d = np.array(dens.density)
        assert int(np.argmax(d)) in (255, 256)
        assert d[255] == pytest.approx(d[256], rel=1e-9)

    def test_two_equal_clusters_are_symmetric(self):
        events = [ev(100, 1e6), ev(110, 1e6)]
        dens = liquidation_density(events)
        grid = np.array(dens.prices)
        d = np.array(dens.density)
        peaks = [float(grid[i]) for i in range(1, len(d) - 1)
                 if d[i] > d[i - 1] and d[i] > d[i + 1]]
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(100, abs=0.1)
        assert peaks[1] == pytest.approx(110, abs=0.1)
        i100 = int(np.argmin(np.abs(grid - 100)))
        i110 = int(np.argmin(np.abs(grid - 110)))
        assert d[i100] == pytest.approx(d[i110], rel=1e-9)

    def test_random_events_match_direct_sum_oracle(self):
        rng = np.random.default_rng(23)
        events = [ev(float(p), float(w))
                  for p, w in zip(rng.uniform(900, 1100, size=500),
                                  rng.uniform(1e4, 1e7, size=500))]
        dens = liquidation_density(events)
        assert trapezoid(dens.density, dens.prices) == pytest.approx(1.0, abs=1e-3)
        prices = [float(e.price) for e in events]
        weights = [float(e.size_usd) for e in events]
        oracle = direct_kde(prices, weights, dens.bandwidth, list(dens.prices))
        probe_idx = np.linspace(0, len(dens.prices) - 1, 10).astype(int)
        for i in probe_idx:
            assert dens.density[i] == pytest.approx(oracle[i], rel=1e-9)

    def test_size_scaling_leaves_density_unchanged(self):
        events = [ev(100, 5e5), ev(103, 2e6), ev(107, 8e5)]
        base = liquidation_density(events)
        doubled = liquidation_density(
            [ev(float(e.price), float(e.size_usd) * 2) for e in events])
        assert base.prices == doubled.prices
        for a, b in zip(base.density, doubled.density):
            assert a == pytest.approx(b, rel=1e-9)

    def test_reordering_is_invariant(self):
        events = [ev(100, 5e5), ev(103, 2e6), ev(107, 8e5)]
        assert liquidation_density(events) == liquidation_density(list(reversed(events)))

    def test_empty_events_flagged(self):
        dens = liquidation_density([])
        assert dens.flagged_empty
        assert dens.prices == ()


class TestBoundaryCluster:
    RANGE = RangeDefinition(lower=d12(100), upper=d12(110), established_at=0)

    def test_forty_percent_share_is_clustered(self):
        events = [ev(100.5, 4e6), ev(105, 6e6)]
        share, clustered = boundary_cluster_share(events, self.RANGE)
        assert share == pytest.approx(0.4)
        assert clustered

    def test_midpoint_events_do_not_cluster(self):
        events = [ev(105, 1e6), ev(105.2, 2e6)]
        share, clustered = boundary_cluster_share(events, self.RANGE)
        assert share == 0.0
        assert not clustered

    def test_twenty_nine_percent_is_not_clustered(self):
        events = [ev(100.0, 29e6), ev(105.0, 71e6)]
        share, clustered = boundary_cluster_share(events, self.RANGE)
        assert share == pytest.approx(0.29)
        assert not clustered

    def test_threshold_is_inclusive(self):
        events = [ev(110.0, 30e6), ev(105.0, 70e6)]
        share, clustered = boundary_cluster_share(events, self.RANGE)
        assert share == pytest.approx(0.30)
        assert clustered

    def test_distance_is_relative_to_event_price(self):
        # 102 sits 2 away from 100: 2/102 < 0.02, inside tolerance
        inside, _ = boundary_cluster_share([ev(102.0, 1e6)], self.RANGE)
        assert inside == pytest.approx(1.0)
        # 102.1 sits 2.1 away: 2.1/102.1 > 0.02
        outside, _ = boundary_cluster_share([ev(102.1, 1e6)], self.RANGE)
        assert outside == 0.0

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(5)
        events = [ev(float(p), float(w))
                  for p, w in zip(rng.uniform(98, 112, size=40),
                                  rng.uniform(1e5, 1e6, size=40))]
        shares = []
        for tol in (0.005, 0.01, 0.02, 0.05):
            cfg = DEFAULTS.replace(boundary_cluster_distance=tol)
            shares.append(boundary_cluster_share(events, self.RANGE, cfg)[0])
        assert shares == sorted(shares)
        assert all(0 <= s <= 1 for s in shares)

    def test_no_events(self):
        assert boundary_cluster_share([], self.RANGE) == (0.0, False)


class TestLongShortRatio:
    def test_exactly_two_is_not_extreme(self):
        ratio, extreme = long_short_ratio(200, 100)
        assert ratio == pytest.approx(2.0)
        assert not extreme

    def test_balanced_book(self):
        assert long_short_ratio(100, 100) == (pytest.approx(1.0), False)

    def test_below_half_is_extreme(self):
        ratio, extreme = long_short_ratio(49, 100)
        assert ratio == pytest.approx(0.49)
        assert extreme

    def test_zero_short_side_sentinel(self):
        ratio, extreme = long_short_ratio(100, 0)
        assert math.isinf(ratio)
        assert extreme

    def test_negative_legs_rejected(self):
        with pytest.raises(ValueError):
            long_short_ratio(-1, 100)


def pairwise_gini(shares):
    n = len(shares)
    total = sum(shares)
    if total == 0:
        return 0.0
    acc = sum(abs(a - b) for a in shares for b in shares)
    return acc / (2 * n * n * (total / n))


class TestGini:
    def test_equal_shares_are_zero(self):
        gini, risk = concentration_gini([0.25] * 4)
        assert gini == pytest.approx(0.0, abs=1e-12)
        assert not risk

    def test_single_holder_of_hundred(self):
        gini, risk = concentration_gini([1.0] + [0.0] * 99)
        assert gini == pytest.approx(0.99, rel=1e-9)
        assert risk

    def test_textbook_example(self):
        gini, risk = concentration_gini([0.5, 0.3, 0.2])
        assert gini == pytest.approx(pairwise_gini([0.5, 0.3, 0.2]), rel=1e-9)
        assert not risk

    def test_matches_pairwise_oracle_on_random_vectors(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            shares = rng.uniform(0, 1, size=n).tolist()
            gini, _ = concentration_gini(shares)
            assert gini == pytest.approx(pairwise_gini(shares), rel=1e-9)
            assert 0 <= gini < 1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(37)
        shares = rng.uniform(0, 1, size=12).tolist()
        shuffled = list(shares)
        rng.shuffle(shuffled)
        assert concentration_gini(shares)[0] == \
            pytest.approx(concentration_gini(shuffled)[0], rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            concentration_gini([])
        with pytest.raises(ValueError):
            concentration_gini([0.5, -0.1])


class TestLeverageSummary:
    def test_histogram_stats(self):
        out = leverage_summary({"10": 1e6, "25": 3e6})
        assert out["total_usd"] == pytest.approx(4e6)
        assert out["weighted_mean"] == pytest.approx((10 * 1 + 25 * 3) / 4)
        assert out["max_bucket"] == 25.0

    def test_empty_histogram(self):
        out = leverage_summary({})
        assert out["weighted_mean"] is None

"""Threshold configuration.

Every numeric threshold the metric, hypothesis and advisory layers read
lives here under a name that states which rule it bounds, and nothing else
does: `model` fixes the 4H grid (6 bars a day) and the 8H funding basis (3
settlements a day), and `cost` and `regime` each window a report key names
(`cumulative_7d`, `vol_percentile_90d`). Defaults are the published reference
values; overrides are a JSON object of exactly these keys, which the CLI
reads from the file --config or the RG_CONFIG environment variable names.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import SchemaError

# the metric families `reports.metrics_report` builds, in report order
FAMILIES = ("structural", "cost", "positioning", "liquidity")


class Config(NamedTuple):
    # funding (8H basis, fractions per period)
    funding_elevated_abs: float = 0.0005       # |rate| above this is elevated
    funding_neutral_abs: float = 0.0001        # |rate| below this is neutral
    funding_bias_min_periods: int = 3          # consecutive same-sign settlements
    funding_spike_sigma: float = 2.0
    funding_spike_lookback: int = 30           # settlements, strictly before t
    funding_spike_sigma_floor: float = 1e-6
    basis_dislocation_abs: float = 0.005       # |(perp-spot)/spot| beyond this dislocates

    # open interest / positioning
    oi_baseline_days: int = 90                 # moving-average window for "elevated"
    oi_rotation_mix_shift: float = 0.05        # long-share shift, 5 percentage points
    oi_collapse_decline: float = 0.05          # total OI decline beyond this collapses
    long_short_extreme_high: float = 2.0       # ratio strictly above -> extreme
    long_short_extreme_low: float = 0.5        # ratio strictly below -> extreme
    gini_risk_threshold: float = 0.7
    kde_bandwidth_frac: float = 0.01           # of size-weighted mean event price
    boundary_cluster_min_share: float = 0.30
    boundary_cluster_distance: float = 0.02    # relative distance to a boundary

    # structural
    swing_lookback: int = 5                    # bars each side
    volume_bin_frac: float = 0.005             # of window median close
    absorption_min_usd: float = 500000.0
    realized_vol_window: int = 20              # log returns per estimate
    wick_baseline_window: int = 20
    wick_recent_window: int = 5
    range_window: int = 30                     # bars resolve_range considers per anchor
    range_touch_tolerance: float = 0.005
    range_min_touches: int = 2
    range_min_width: float = 0.001             # upper/lower - 1 must exceed this

    # hypothesis evaluators
    h1_signal_quorum: int = 3                  # of the three compression signals
    h1_tap_oi_drop_limit: float = 0.05         # OI drop on a failed tap stays under this
    h2_premoderation_bars: int = 3             # bars before breakout checked for moderation
    h2_shelf_migration_share: float = 0.20
    h2_sustain_closes: int = 3                 # post-break closes that must hold
    h3_reversion_max_bars: int = 4
    h3_reversion_sigma: float = 1.0            # corridor width in realized-vol units
    h4_recoil_frac: float = 0.5                # of the boundary excursion, strictly more
    h4_funding_decline_frac: float = 0.20
    h4_hit_rate_min: float = 0.5               # tap hit rate strictly above -> confirmed

    # liquidity
    depth_extreme_band: float = 0.005          # around each boundary, inclusive
    depth_trend_snapshots: int = 20
    slippage_order_usd: float = 1000000.0
    imbalance_depth_levels: int = 20
    imbalance_extreme: float = 0.3             # dominant-side ratio minus 1, strict
    impact_window_bars: int = 6                # 24h of 4H bars
    spread_uncertainty: float = 0.001          # spread fraction strictly above flags

    # quality
    timestamp_tolerance_s: int = 30
    funding_hard_bound: float = 0.0375         # |rate_8h| at or past this rejects
    book_spread_exclusion: float = 0.01
    oi_flow_discrepancy: float = 0.05
    max_interpolation_gap: int = 1             # single missing bars only
    wash_volume_mult: float = 5.0
    wash_volume_window: int = 20
    wash_body_frac: float = 0.0005

    # regime / advisory
    regime_window: int = 20
    trend_directional_frac: float = 0.60
    trigger_min_metrics: int = 4
    position_proximity_frac: float = 0.01      # "near boundary" band
    stop_band_near: float = 0.01
    stop_band_far: float = 0.02
    leverage_max: float = 100.0
    leverage_min: float = 20.0
    liq_mode_pctl: float = 0.80                # strictly above -> aggressive
    holding_days: float = 10.0                 # advisory funding-drag horizon

    # ingest
    merge_top_exchanges: int = 3

    def replace(self, **overrides) -> "Config":
        """A copy with `overrides` applied; SchemaError names the first key
        that is unknown, of the wrong type or below its field's floor."""
        bad = set(overrides) - set(_FIELD_TYPES)
        if bad:
            raise SchemaError(f"unknown config keys: {sorted(bad)}")
        for name, value in overrides.items():
            _check(name, value)
        return self._replace(**overrides)


# each field's type (int or float), read from its default, whose type the
# tests hold to the field's annotation
_FIELD_TYPES = {name: type(default) for name, default in Config._field_defaults.items()}

# Every int field is a window, lookback, count or tolerance: at least 1, except
# where zero means "none", where a sample std needs two points, and where the
# regime compares the two halves of its window.
_INT_FLOORS = {
    "timestamp_tolerance_s": 0,
    "max_interpolation_gap": 0,
    "funding_spike_lookback": 2,
    "realized_vol_window": 2,
    "regime_window": 2,
}
# Float fields with an exclusive floor: a kernel bandwidth and a profile bin
# width divide, and the order the slippage walk fills is read at 12 decimal
# places (`d12`), where 5e-13 and less round to 0
_FLOAT_FLOORS = {"kde_bandwidth_frac": 0, "volume_bin_frac": 0, "slippage_order_usd": 5e-13}


def _check(name: str, value) -> None:
    """An int field takes an int (not a bool); a float field takes an int or
    a finite float, above its floor in `_FLOAT_FLOORS`, if any, and below
    1e16 in magnitude, the most a threshold read at 12 decimal places (`d12`)
    can hold."""
    if _FIELD_TYPES[name] is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"config {name}: want an integer, got {value!r}")
        floor = _INT_FLOORS.get(name, 1)
        if value < floor:
            raise SchemaError(f"config {name}: must be >= {floor}, got {value!r}")
    elif not isinstance(value, (int, float)) or isinstance(value, bool) \
            or isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"config {name}: want a finite number, got {value!r}")
    elif name in _FLOAT_FLOORS and value <= _FLOAT_FLOORS[name]:
        raise SchemaError(f"config {name}: must be > {_FLOAT_FLOORS[name]}, got {value!r}")
    elif abs(value) >= 1e16:
        raise SchemaError(f"config {name}: must be > -1e16 and < 1e16, got {value!r}")


DEFAULTS = Config()


def from_dict(overrides: dict) -> Config:
    if not isinstance(overrides, dict):
        raise SchemaError("config overrides must be a JSON object")
    return DEFAULTS.replace(**overrides)

"""Published JSON schemas for every report document the CLI emits.

Consumers can validate against these; the test suite does. Schemas pin the
load-bearing structure (required keys, types, enums) and deliberately allow
extra fields so reports can grow without a version bump.
"""

_DEC_STRING = {"type": "string", "pattern": r"^-?\d+(\.\d+)?$"}
_NULLABLE_NUMBER = {"type": ["number", "null"]}

_RANGE = {
    "type": ["object", "null"],
    "required": ["lower", "upper", "midpoint", "established_at", "anchor_bar"],
    "properties": {
        "lower": _DEC_STRING,
        "upper": _DEC_STRING,
        "midpoint": _DEC_STRING,
        "width_frac": {"type": "number"},
        "established_at": {"type": "string"},
        "touch_count_lower": {"type": "integer", "minimum": 0},
        "touch_count_upper": {"type": "integer", "minimum": 0},
        "anchor_bar": {"type": "integer", "minimum": 0},
    },
}

_SIGNAL = {
    "type": "object",
    "required": ["name", "met", "measured", "threshold"],
    "properties": {
        "name": {"type": "string"},
        "met": {"type": ["boolean", "null"]},
        "measured": _NULLABLE_NUMBER,
        "threshold": {"type": "string"},
    },
}

_VERDICT = {
    "type": "object",
    "required": ["hypothesis", "window", "condition_met", "outcome",
                 "signals", "notes", "evidence"],
    "properties": {
        "hypothesis": {"enum": ["H1", "H2", "H3", "H4"]},
        "window": {"type": "array", "items": {"type": "integer"},
                   "minItems": 2, "maxItems": 2},
        "condition_met": {"type": "boolean"},
        "outcome": {"enum": ["confirmed", "falsified", "not-evaluable"]},
        "signals": {"type": "array", "items": _SIGNAL},
        "notes": {"type": "array", "items": {"type": "string"}},
        "evidence": {"type": "object"},
    },
}

QUALITY_SCHEMA = {
    "type": "object",
    "required": ["kind", "checks_run", "passed", "flags", "schema_version"],
    "properties": {
        "kind": {"const": "quality"},
        "schema_version": {"type": "string"},
        "checks_run": {"type": "integer", "minimum": 0},
        "passed": {"type": "boolean"},
        "flags": {"type": "array", "items": {
            "type": "object",
            "required": ["check", "location", "severity", "detail"],
            "properties": {"severity": {"enum": ["flag", "reject"]}},
        }},
        "notes": {"type": "array"},
    },
}

STRUCTURAL_SCHEMA = {
    "type": "object",
    "required": ["kind", "cadence", "instrument", "bars", "range", "swings",
                 "per_bar", "volume_profile", "absorption"],
    "properties": {
        "kind": {"const": "structural"},
        "cadence": {"const": "weekly assessment"},
        "bars": {"type": "integer", "minimum": 0},
        "range": _RANGE,
        "swings": {"type": "array", "items": {
            "type": "object",
            "required": ["bar", "kind", "price", "time"],
            "properties": {"kind": {"enum": ["high", "low"]},
                           "price": _DEC_STRING},
        }},
        "per_bar": {"type": "array", "items": {
            "type": "object",
            "required": ["time", "close", "realized_vol",
                         "upper_wick_pct", "lower_wick_pct"],
            "properties": {"close": _DEC_STRING,
                           "realized_vol": _NULLABLE_NUMBER},
        }},
    },
}

COST_SCHEMA = {
    "type": "object",
    "required": ["kind", "cadence", "instrument", "settlements", "state",
                 "direction", "per_settlement", "cumulative_convention"],
    "properties": {
        "kind": {"const": "cost"},
        "cadence": {"const": "per funding period"},
        "direction": {"enum": ["rising", "moderating", "neutral"]},
        "cumulative_convention":
            {"const": "simple sum of per-period rates, non-compounding"},
        "state": {
            "type": ["object", "null"],
            "required": ["bias_sign", "bias_duration", "magnitude_class",
                         "annualized_pct", "cumulative_7d", "cumulative_30d"],
            "properties": {
                "bias_sign": {"enum": ["positive", "negative", "neutral"]},
                "magnitude_class": {"enum": ["neutral", "normal", "elevated"]},
                "bias_duration": {"type": "integer", "minimum": 0},
                "cumulative_7d": _NULLABLE_NUMBER,
                "cumulative_30d": _NULLABLE_NUMBER,
            },
        },
        "per_settlement": {"type": "array", "items": {
            "type": "object",
            "required": ["time", "rate_8h", "annualized_pct", "run_length",
                         "magnitude", "spike", "basis"],
            "properties": {"rate_8h": _DEC_STRING,
                           "spike": {"type": ["boolean", "null"]}},
        }},
    },
}

POSITIONING_SCHEMA = {
    "type": "object",
    "required": ["kind", "cadence", "instrument", "range", "per_record",
                 "liquidation_density", "boundary_cluster", "long_short_ratio",
                 "concentration", "leverage"],
    "properties": {
        "kind": {"const": "positioning"},
        "cadence": {"const": "weekly deep-dive"},
        "range": _RANGE,
        "liquidation_density": {
            "type": "object",
            "required": ["prices", "density", "bandwidth", "total_usd",
                         "flagged_empty"],
            "properties": {
                "prices": {"type": "array", "items": {"type": "number"}},
                "density": {"type": "array", "items": {"type": "number"}},
            },
        },
        "boundary_cluster": {
            "type": ["object", "null"],
            "required": ["share", "clustered"],
        },
    },
}

LIQUIDITY_SCHEMA = {
    "type": "object",
    "required": ["kind", "cadence", "instrument", "snapshots", "range",
                 "latest", "extremes_trend", "impact"],
    "properties": {
        "kind": {"const": "liquidity"},
        "cadence": {"const": "daily updates"},
        "snapshots": {"type": "integer", "minimum": 0},
        "latest": {
            "type": ["object", "null"],
            "required": ["time", "spread", "imbalance", "depth_quartiles",
                         "slippage"],
        },
        "impact": {
            "type": ["object", "null"],
            "required": ["slope", "r_squared"],
        },
        "extremes_series": {   # the rows the depth plot draws
            "type": "array",
            "items": {"type": "object",
                      "required": ["time", "lower_usd", "upper_usd", "total_usd"]},
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

METRICS_SCHEMA = {
    "type": "object",
    "required": ["kind", "instrument", "families", "schema_version"],
    "properties": {
        "kind": {"const": "metrics"},
        "families": {
            "type": "object",
            "properties": {
                "structural": STRUCTURAL_SCHEMA,
                "cost": COST_SCHEMA,
                "positioning": POSITIONING_SCHEMA,
                "liquidity": LIQUIDITY_SCHEMA,
            },
            "additionalProperties": False,
        },
    },
}

HYPOTHESES_SCHEMA = {
    "type": "object",
    "required": ["kind", "instrument", "range", "verdicts", "schema_version"],
    "properties": {
        "kind": {"const": "hypotheses"},
        "range": _RANGE,
        "verdicts": {
            "type": "object",
            "additionalProperties": _VERDICT,
        },
    },
}

REGIME_SCHEMA = {
    "type": "object",
    "required": ["kind", "cadence", "instrument", "regime", "range",
                 "trigger_matrix", "verdicts", "action", "platform",
                 "advisory_only", "schema_version"],
    "properties": {
        "kind": {"const": "regime"},
        "advisory_only": {"const": True},
        "regime": {
            "type": "object",
            "required": ["label", "evidence"],
            "properties": {
                "label": {"enum": ["accumulation", "distribution",
                                   "trending", "unclassified"]},
            },
        },
        "trigger_matrix": {
            "type": "object",
            "required": ["entries", "conviction",
                         "expansion_probability_band"],
            "properties": {
                "conviction": {"enum": ["low", "medium", "high"]},
                "expansion_probability_band":
                    {"enum": ["baseline", "elevated"]},
            },
        },
        "action": {
            "type": "object",
            "required": ["action", "stop_distance_band", "stop_placement",
                         "sizing_note", "funding_drag_frac", "holding_days",
                         "regime", "range_position", "advisory_only"],
            "properties": {
                "action": {"enum": [
                    "validate breakout", "fade cascade extreme",
                    "fade spike toward midpoint", "fade extreme",
                    "follow expansion", "stand aside"]},
                "advisory_only": {"const": True},
            },
        },
        "platform": {
            "type": ["object", "null"],
            "required": ["max_leverage", "liquidation_mode",
                         "vol_percentile_30d", "vol_percentile_90d",
                         "advisory_only"],
            "properties": {
                "liquidation_mode": {"enum": ["gradual", "aggressive"]},
                "max_leverage": {"type": "number", "minimum": 20,
                                 "maximum": 100},
            },
        },
    },
}

BACKTEST_SCHEMA = {
    "type": "object",
    "required": ["panels", "rows", "verdict_counts", "h4_tap_hit_rates",
                 "ground_truth", "schema_version"],
    "properties": {
        "panels": {"type": "integer", "minimum": 0},
        "rows": {"type": "array", "items": {
            "type": "object",
            "required": ["instrument", "verdicts", "regime"],
        }},
        "ground_truth": {
            "type": "object",
            "required": ["graded", "matched", "diagonal_frac", "mismatches"],
        },
    },
}

REPORT_SCHEMAS = {
    "quality": QUALITY_SCHEMA,
    "metrics": METRICS_SCHEMA,
    "structural": STRUCTURAL_SCHEMA,
    "cost": COST_SCHEMA,
    "positioning": POSITIONING_SCHEMA,
    "liquidity": LIQUIDITY_SCHEMA,
    "hypotheses": HYPOTHESES_SCHEMA,
    "regime": REGIME_SCHEMA,
    "backtest": BACKTEST_SCHEMA,
}

"""Every plain record is a `NamedTuple`: it is built by position or by keyword
with the defaults it had as a frozen dataclass, changed only into a new record
by `_replace`, pickled whole, and never assigned. `Config` is one too, and its
`replace` still checks each key."""
import pickle

import pytest

from rangegov import cost, hypotheses, liquidity, model, positioning, quality, regime, structure
from rangegov import synth
from rangegov.config import _FIELD_TYPES, DEFAULTS, Config
from rangegov.errors import SchemaError
from rangegov.model import d12

T0 = 1_700_006_400

# each record class -> (a value for each field without a default, in order;
# the defaults of the other fields, as the frozen dataclass had them)
RECORDS = {
    model.Violation: (("low", "exceeds high"), {}),
    model.Candle4H: ((T0, d12(100), d12(101), d12(99), d12("100.5"), d12(10)),
                     {"exchange_count": 1, "interpolated": False}),
    model.FundingRecord: ((T0, d12("0.0001")),
                          {"source_interval_hours": 8, "exchange_count": 1,
                           "mark_price": None, "index_price": None}),
    model.OpenInterestRecord: ((T0, d12(500)),
                               {"long_oi_usd": None, "short_oi_usd": None,
                                "leverage_histogram": None, "holder_shares": None}),
    model.LiquidationEvent: ((T0, d12(98), d12(25000), "long"), {}),
    model.RangeDefinition: ((d12(95), d12(105), T0),
                            {"touch_count_lower": 0, "touch_count_upper": 0}),
    quality.QualityFlag: (("gap_fill", "candle@2023-11-15T00:00:00Z", "interpolated",
                           "single-bar gap filled at 100"), {}),
    structure.SwingPoint: ((7, "high", d12(105), T0), {}),
    structure.VolumeProfile: (([99.0, 99.5, 100.0], [3.0, 4.0], 0.5), {}),
    structure.AbsorptionEvent: ((T0, 100.0, 750000.0), {}),
    cost.FundingState: (("positive", 4, "elevated", 65.7, 0.0021, None), {}),
    liquidity.DepthProfile: ((d12("99.5"), d12("100.5")), {}),
    liquidity.ShelfMigration: ((0.25, 0.1, True, False), {}),
    liquidity.SlippageResult: ((0.0012, 1e6, False), {}),
    positioning.OiEvent: (("rotation", 0.08, 0.06), {"partial": False}),
    positioning.LiquidationDensity: (((99.0, 100.0), (0.5, 0.5), 1.0, 5e4),
                                     {"flagged_empty": False}),
    hypotheses.Signal: (("funding_moderation", True, 0.0002, "< 0.0005"), {}),
    hypotheses.HypothesisVerdict: (("H1", (0, 10), True, (), "confirmed"),
                                   {"notes": (), "evidence": {}}),
    regime.RegimeLabel: (("accumulation", (("window", 20.0, True),)), {}),
    regime.TriggerMatrix: (((("funding", "aligned"),), "high", "elevated"), {}),
    synth.Segment: (("range", 40), {"overrides": {}}),
    synth.Scenario: (("s", 7, (synth.Segment("range", 40),)),
                     {"base_price": 100.0, "instrument": "SYNTH-PERP", "ground_truth": {}}),
    Config: ((0.0006,), None),   # its defaults are DEFAULTS, tested below
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_a_named_tuple(cls):
    given, defaults = RECORDS[cls]
    record = cls(*given)
    assert type(record) is cls and record._fields == cls._fields
    assert cls(**dict(zip(cls._fields, given))) == record
    assert record[:len(given)] == given
    if defaults is not None:
        assert cls._field_defaults == defaults
        assert record._asdict() == dict(zip(cls._fields, given), **defaults)

    name = cls._fields[0]
    changed = record._replace(**{name: "changed"})
    assert type(changed) is cls and changed is not record
    assert getattr(changed, name) == "changed" and getattr(record, name) == given[0]
    assert changed[1:] == record[1:]

    thawed = pickle.loads(pickle.dumps(record))
    assert type(thawed) is cls and thawed == record

    with pytest.raises(AttributeError):
        setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.unknown = 1   # no instance dict either
    assert getattr(record, name) == given[0]


def test_config_defaults_are_the_defaults():
    assert Config() == DEFAULTS
    assert DEFAULTS._asdict() == Config._field_defaults
    assert sorted(_FIELD_TYPES) == sorted(Config._fields)


def test_config_replace_checks_its_keys():
    cfg = DEFAULTS.replace(swing_lookback=3)
    assert type(cfg) is Config and cfg.swing_lookback == 3
    assert DEFAULTS.swing_lookback == 5 and cfg._replace(swing_lookback=5) == DEFAULTS
    with pytest.raises(SchemaError, match=r"unknown config keys: \['swing_lookbak'\]"):
        DEFAULTS.replace(swing_lookbak=3)
    with pytest.raises(SchemaError, match="config swing_lookback: want an integer"):
        DEFAULTS.replace(swing_lookback=3.0)

import importlib.resources as resources
from unittest import mock

import numpy as np
import pytest

from rangegov import structure
from rangegov.model import (
    BookSnapshot,
    Candle4H,
    FundingRecord,
    LiquidationEvent,
    Panel,
    d12,
    levels_text,
)
from rangegov.synth import Scenario, generate, load_scenario

SCENARIO_NAMES = (
    "h1-confirm", "h1-falsify", "h2-confirm", "h2-falsify",
    "h3-confirm", "h3-falsify", "h4-confirm", "h4-falsify",
)


def scenario_path(name: str) -> str:
    return str(resources.files("rangegov.scenarios").joinpath(name + ".json"))


@pytest.fixture(scope="session")
def scenario_panels():
    """name -> (panel, ground truth) for every packaged scenario."""
    out = {}
    for name in SCENARIO_NAMES:
        panel, gt = generate(load_scenario(scenario_path(name)))
        out[name] = (panel, gt)
    return out


def filled(value) -> set:
    """The slots beyond its fields that a panel or a book snapshot has filled:
    what a snapshot decoded and kept (`_bid_levels`, `_checked`, ...), and a
    panel's `_derived` memo once `structure.derive` has kept one."""
    return {name for name in type(value).__slots__ if name not in value._fields
            and not name.startswith("__") and getattr(value, name, None) is not None}


def profile_columns(candles) -> tuple:
    """The close, low, high and volume float columns `structure.volume_nodes`
    reads, as `structure.derive` holds them."""
    return tuple(np.array([float(getattr(c, name)) for c in candles])
                 for name in ("close", "low", "high", "volume"))


def side_of(candles, rng) -> tuple:
    """`structure.derive(...).side` of a panel of the candles whose range
    resolves to `rng`, so a test can place closes against a range it chose."""
    with mock.patch.object(structure, "resolve_range", lambda *args: (rng, len(candles) - 1)):
        return structure.derive(Panel("TEST", candles)).side


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "seed": s.seed,
        "base_price": s.base_price,
        "instrument": s.instrument,
        "segments": [{"template": g.template, "length": g.length,
                      "overrides": dict(g.overrides)} for g in s.segments],
        "ground_truth": dict(s.ground_truth),
    }


def scale_panel(panel: Panel, factor: float) -> Panel:
    """Multiply every price by `factor`; volumes, OI notionals and liquidation
    sizes keep their units."""
    f = d12(factor)
    candles = [Candle4H(c.open_time, d12(c.open * f), d12(c.high * f),
                        d12(c.low * f), d12(c.close * f), c.volume,
                        c.exchange_count, c.interpolated)
               for c in panel.candles]
    funding = [FundingRecord(r.settle_time, r.rate_8h, r.source_interval_hours,
                             r.exchange_count,
                             None if r.mark_price is None else d12(r.mark_price * f),
                             None if r.index_price is None else d12(r.index_price * f))
               for r in panel.funding]
    books = [BookSnapshot(s.time,
                          levels_text((d12(p * f), z) for p, z in s.bid_levels),
                          levels_text((d12(p * f), z) for p, z in s.ask_levels))
             for s in panel.books]
    liqs = [LiquidationEvent(e.time, d12(e.price * f), e.size_usd, e.side)
            for e in panel.liquidations]
    return Panel(instrument=panel.instrument, candles=candles, funding=funding,
                 open_interest=list(panel.open_interest), books=books,
                 liquidations=liqs, annotations=dict(panel.annotations))

"""Funding-side cost metrics on the normalized 8H basis."""
from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import Config, DEFAULTS
from .ingestion import annualize_funding, cumulative_funding
from .model import SETTLEMENTS_PER_DAY, d12

ELEVATED = "elevated"
NORMAL = "normal"
NEUTRAL = "neutral"


class FundingState(NamedTuple):
    bias_sign: str           # positive | negative | neutral
    bias_duration: int       # consecutive same-sign settlements at the end
    magnitude_class: str
    annualized_pct: float
    cumulative_7d: Optional[float]   # None when history is shorter than the window
    cumulative_30d: Optional[float]


def funding_bias_duration(rates: Sequence) -> list:
    """Run length of strictly same-sign settlements, each rate read as it is;
    zero rates reset."""
    out = []
    for sign, group in groupby((r > 0) - (r < 0) for r in rates):
        n = len(list(group))
        out.extend(range(1, n + 1) if sign else [0] * n)
    return out


def magnitude_classifier(cfg: Config = DEFAULTS):
    """The magnitude class of a funding rate, read as it is, under `cfg`, with
    both thresholds quantized once: above `funding_elevated_abs` in size is
    elevated, below `funding_neutral_abs` neutral, and on either one normal."""
    elevated = d12(cfg.funding_elevated_abs)
    neutral = d12(cfg.funding_neutral_abs)

    def classify(rate) -> str:
        value = abs(rate)
        return ELEVATED if value > elevated else NEUTRAL if value < neutral else NORMAL
    return classify


def trailing_mean_std(values: np.ndarray, look: int) -> tuple:
    """Mean and sample std of each window of `look` values that ends just
    before index t, for t from `look` to the end; `look` >= 2."""
    windows = sliding_window_view(values, look)[:-1]
    return windows.mean(axis=1), windows.std(axis=1, ddof=1)


def funding_spike(rates: Sequence, cfg: Config = DEFAULTS) -> list:
    """Per-settlement spike flags of each rate's float vs the trailing window,
    which sits strictly before the tested value. None until enough history."""
    look = cfg.funding_spike_lookback
    values = np.array([float(r) for r in rates])
    if len(values) <= look:
        return [None] * len(values)
    mean, std = trailing_mean_std(values, look)
    std = np.maximum(std, cfg.funding_spike_sigma_floor)
    flags = np.abs(values[look:] - mean) > cfg.funding_spike_sigma * std
    return [None] * look + flags.tolist()


# the trailing windows, in settlements, that `cumulative_7d` and `cumulative_30d`
# sum; the 7-day one is also the window of `reports.cost_report`'s direction
FUNDING_WINDOW_7D = 7 * SETTLEMENTS_PER_DAY
FUNDING_WINDOW_30D = 30 * SETTLEMENTS_PER_DAY

def build_funding_state(records: Sequence, durations: Sequence[int],
                        cfg: Config = DEFAULTS) -> Optional[FundingState]:
    """`durations` are the records' `funding_bias_duration` run lengths."""
    if not records:
        return None
    rates = [r.rate_8h for r in records]
    last = rates[-1]

    def cum(window: int) -> Optional[float]:
        if window > len(rates):
            return None
        return float(cumulative_funding(rates, window))

    return FundingState(
        bias_sign="positive" if last > 0 else "negative" if last < 0 else "neutral",
        bias_duration=durations[-1],
        magnitude_class=magnitude_classifier(cfg)(last),
        annualized_pct=float(annualize_funding(last)),
        cumulative_7d=cum(FUNDING_WINDOW_7D),
        cumulative_30d=cum(FUNDING_WINDOW_30D),
    )

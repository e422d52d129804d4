from decimal import Decimal

import numpy as np
import pytest

from rangegov.errors import DataError
from rangegov.ingestion import (
    RawTick, align_4h, annualize_funding, basis_spread, cumulative_funding,
    normalize_funding, vwap_merge,
)
from rangegov.model import BAR_SECONDS, Candle4H, d12

T0 = 1609459200


def tick(t, p, v, ex="a"):
    return RawTick(t, d12(p), d12(v), ex)


def test_align_4h_splits_buckets():
    ticks = [
        tick(T0 + 600, "100", "1"),
        tick(T0 + 7800, "110", "2"),
        tick(T0 + BAR_SECONDS + 300, "105", "1"),
    ]
    candles = align_4h(ticks)
    assert len(candles) == 2
    c0, c1 = candles
    assert (c0.open_time, c0.open, c0.high, c0.low, c0.close, c0.volume) == \
        (T0, Decimal("100"), Decimal("110"), Decimal("100"), Decimal("110"), Decimal("3"))
    assert (c1.open_time, c1.open, c1.close, c1.volume) == \
        (T0 + BAR_SECONDS, Decimal("105"), Decimal("105"), Decimal("1"))


def test_align_4h_rejects_unsorted_with_index():
    ticks = [tick(T0 + 100, "100", "1"), tick(T0 + 50, "101", "1")]
    with pytest.raises(DataError, match="index 1"):
        align_4h(ticks)


def test_align_4h_counts_distinct_exchanges():
    ticks = [tick(T0, "100", "1", "a"), tick(T0 + 10, "101", "1", "b"),
             tick(T0 + 20, "99", "1", "a")]
    (c,) = align_4h(ticks)
    assert c.exchange_count == 2


def test_align_4h_matches_bucket_oracle():
    # oracle: independent dict-of-buckets scan in plain floats
    rng = np.random.default_rng(11)
    times = np.sort(rng.integers(T0, T0 + 3 * 86400, size=1000))
    prices = np.round(rng.uniform(90, 110, size=1000), 6)
    vols = np.round(rng.uniform(0.1, 5.0, size=1000), 6)
    ticks = [tick(int(t), repr(float(p)), repr(float(v))) for t, p, v in zip(times, prices, vols)]

    buckets = {}
    for t, p, v in zip(times, prices, vols):
        buckets.setdefault(int(t) // BAR_SECONDS, []).append((int(t), float(p), float(v)))
    expected = {}
    for key, rows in buckets.items():
        ps = [r[1] for r in rows]
        expected[key * BAR_SECONDS] = (rows[0][1], max(ps), min(ps), rows[-1][1],
                                       sum(r[2] for r in rows))

    candles = align_4h(ticks)
    assert {c.open_time for c in candles} == set(expected)
    for c in candles:
        o, h, lo, cl, v = expected[c.open_time]
        for got, want in [(c.open, o), (c.high, h), (c.low, lo), (c.close, cl), (c.volume, v)]:
            assert abs(float(got) - want) <= 1e-9 * max(1.0, abs(want))


def candle(open_time, close, volume, o=None, h=None, lo=None, count=1):
    c = d12(close)
    return Candle4H(open_time, d12(o) if o else c, d12(h) if h else c,
                    d12(lo) if lo else c, c, d12(volume), exchange_count=count)


def test_vwap_merge_weighted_mean_example():
    a = [candle(T0, "100", "1")]
    b = [candle(T0, "200", "3")]
    (m,) = vwap_merge([a, b], weights=["1", "1"])
    assert m.close == Decimal("175")
    assert m.volume == Decimal("4")
    assert m.exchange_count == 2


def test_vwap_merge_single_series_is_identity():
    a = [candle(T0, "100.123456", "2.5"), candle(T0 + BAR_SECONDS, "101", "1")]
    assert vwap_merge([a], weights=["1"]) == a


def test_vwap_merge_takes_the_union_of_venue_bar_times():
    # b misses the second bar, a the third; the fifth bar is no venue's
    a = [candle(T0, "100", "1"), candle(T0 + BAR_SECONDS, "101", "2"),
         candle(T0 + 3 * BAR_SECONDS, "103", "1", count=2)]
    b = [candle(T0 + 2 * BAR_SECONDS, "202", "1"), candle(T0 + 3 * BAR_SECONDS, "203", "3"),
         candle(T0 + 5 * BAR_SECONDS, "205", "1"), candle(T0, "200", "3")]
    merged = vwap_merge([a, b], weights=["1", "1"])
    assert [(m.open_time - T0) // BAR_SECONDS for m in merged] == [0, 1, 2, 3, 5]
    assert [m.close for m in merged] == [Decimal(x) for x in ("175", "101", "202", "178", "205")]
    assert [m.volume for m in merged] == [Decimal(x) for x in ("4", "2", "1", "4", "1")]
    assert [m.exchange_count for m in merged] == [2, 1, 1, 3, 1]


def test_vwap_merge_zero_volume_bar_weighs_only_the_venues_present():
    a = [candle(T0, "100", "0")]
    b = [candle(T0 + BAR_SECONDS, "500", "0")]
    c = [candle(T0, "104", "0")]
    (m, _) = vwap_merge([a, b, c], weights=["1", "5", "3"])
    assert (m.close, m.volume, m.exchange_count) == (Decimal("103"), 0, 2)


def test_vwap_merge_refuses_two_bars_at_one_time_in_a_series():
    a = [candle(T0, "100", "1"), candle(T0 + BAR_SECONDS, "101", "1")]
    b = [candle(T0, "100", "1"), candle(T0 + BAR_SECONDS, "101", "1"), candle(T0, "99", "1")]
    with pytest.raises(DataError, match="series 1 has two bars at open_time %d" % T0):
        vwap_merge([a, b], weights=["1", "1"])


def test_vwap_merge_zero_volume_falls_back_to_static_weights():
    a = [candle(T0, "100", "0")]
    b = [candle(T0, "104", "0")]
    (m,) = vwap_merge([a, b], weights=["1", "3"])
    assert m.close == Decimal("103")
    assert m.volume == 0


def test_vwap_merge_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    n_bars, n_ex = 50, 3
    closes = rng.uniform(95, 105, size=(n_ex, n_bars))
    vols = rng.uniform(0.0, 10.0, size=(n_ex, n_bars))
    series = []
    for e in range(n_ex):
        series.append([candle(T0 + i * BAR_SECONDS, repr(float(closes[e, i])),
                              repr(float(vols[e, i]))) for i in range(n_bars)])
    merged = vwap_merge(series, weights=["1", "1", "1"])
    for i in range(n_bars):
        wsum = float(vols[:, i].sum())
        if wsum == 0:
            want = float(closes[:, i].mean())
        else:
            want = float((closes[:, i] * vols[:, i]).sum()) / wsum
        assert abs(float(merged[i].close) - want) <= 1e-9 * max(1.0, abs(want))


def test_normalize_funding_rescales_to_8h():
    assert normalize_funding(d12("0.0001"), 4) == Decimal("0.0002")
    assert normalize_funding(d12("0.0003"), 12) == Decimal("0.0002")
    assert normalize_funding(d12("0.00025"), 8) == Decimal("0.00025")
    with pytest.raises(DataError):
        normalize_funding(d12("0.0001"), 6)


def test_normalize_funding_round_trips_at_source_granularity():
    # venue rates are 1e-6-granular; scaling to 4h/12h and back must be exact
    rng = np.random.default_rng(3)
    for _ in range(200):
        micro = int(rng.integers(-3000, 3000))
        rate = Decimal(micro) / Decimal(10 ** 6)
        for interval in (4, 8, 12):
            raw = d12(rate * interval / 8)
            assert normalize_funding(raw, interval) == rate


def test_annualize_funding_reference_points():
    assert annualize_funding(d12("0.0005")) == Decimal("54.75")
    assert annualize_funding(d12("0.0008")) == Decimal("87.6")
    assert annualize_funding(d12("-0.0002")) == Decimal("-21.9")


def test_cumulative_funding_is_plain_sum():
    assert cumulative_funding([d12("0.0008")] * 30, 30) == Decimal("0.024")
    assert cumulative_funding([d12("0.0005")] * 90, 90) == Decimal("0.045")
    assert cumulative_funding([d12("0.001"), d12("0.002"), d12("0.003")], 2) == Decimal("0.005")
    with pytest.raises(DataError):
        cumulative_funding([d12("0.001")], 2)


def test_cumulative_funding_matches_float_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        rates = np.round(rng.uniform(-0.002, 0.002, size=n), 8)
        window = int(rng.integers(1, n + 1))
        got = float(cumulative_funding([d12(float(r)) for r in rates], window))
        want = float(rates[-window:].sum())
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_basis_spread_flags_strictly_beyond_half_percent():
    frac, flag = basis_spread(d12("30150"), d12("30000"), d12("0.005"))
    assert frac == Decimal("0.005") and flag is False
    frac, flag = basis_spread(d12("29700"), d12("30000"), d12("0.005"))
    assert frac == Decimal("-0.01") and flag is True
    with pytest.raises(DataError):
        basis_spread(d12("100"), d12("0"), d12("0.005"))

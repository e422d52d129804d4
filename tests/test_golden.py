"""Cross-commit byte gate: the report and panel bytes of the packaged
scenarios.

`test_c6` shows that two runs on one commit agree; this module shows that a
commit still writes the bytes an earlier commit wrote. It pins the sha256 of
`formats.dump_json` of the metrics, hypotheses and regime reports of each
packaged scenario, of the `synth.backtest` summary over all of them, and of
the file `formats.save_panel` writes for each scenario's synth panel.

Synth books are symmetric, so on a packaged panel at most one boundary has
depth within `depth_extreme_band` at a time, and the imbalance and the share of
bids below the range read 0. The coverage panel (`coverage_panel`) gives its
books asymmetric ladders that reach past both boundaries, with a level exactly
on each edge of each band, and its metrics and hypotheses bytes are pinned too.
No packaged panel has a flat or a zero-volume bar or a bar across more than a
few profile bins; the profile panel (`profile_panel`) has each, and lows and
highs on bin edges, and its metrics bytes are pinned. No packaged panel raises
a quality flag; the quality panel (`quality_panel`) raises one of each of the
seven checks, and the `validate` and `ingest --quality` reports of
`quality.run_pipeline` over it are pinned, with the panel it cleans.

The digests hold for the numpy build the package is tested with; float
summation can differ in the last digit on another build. When a change alters
a report on purpose, re-record the digests and paste them over DIGESTS:

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes which reports moved and why.
"""
import hashlib
import json
import os
import tempfile
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

import pytest

from rangegov import formats, reports, synth
from rangegov.cli import _quality_to_dict
from rangegov.config import DEFAULTS
from rangegov.model import BookSnapshot, d12, fmt_dec, iso, levels_text
from rangegov.quality import run_pipeline
from rangegov.structure import derive

from conftest import SCENARIO_NAMES

REPORTS = {
    "metrics": reports.metrics_report,
    "hypotheses": reports.hypotheses_report,
    "regime": reports.regime_report,
}

DIGESTS = {
    "backtest":
        "97da74eb1a03c741338f01996871ddcc41ffe79df199714310325450bd6b8454",
    "coverage/hypotheses":
        "2844b615f0d5b801df5b2006b508d6f8a28b3a294d829935901d03aaa5187c3e",
    "coverage/metrics":
        "738438d72a21251230319eada4f681e49e621e420347e5e795e535f6e644686f",
    "h1-confirm/hypotheses":
        "ac3702d421673989b82eebdf014b32dc2f524b9b44d884e67409cefc8562b86e",
    "h1-confirm/metrics":
        "0de603454844835a0dcb98075defa7df17107a54a5b7d493239c7d8618022d85",
    "h1-confirm/regime":
        "6db7665b2b184c3fa70429b5db5e16bff870c1dbcfe9a1572287ed8fe57c552c",
    "h1-confirm/panel":
        "90e47eb594eef50146dbd4f494c7848996e7335a5833c2a9fee1bc1fb0dc9a5d",
    "h1-falsify/hypotheses":
        "f3c2f1b5f134de01c5daeb751dfd0aaea3adce50ba6ff1fa764b6405c7a84389",
    "h1-falsify/metrics":
        "7d7471efae4026929d48cabf0860b7ee6d455317d01d392daaf6a18c17cf8b84",
    "h1-falsify/regime":
        "4676ee1f47fee856bd6426b77933c052146bb0a35549a6770c052d038cb488dc",
    "h1-falsify/panel":
        "e180344605eac1eb36b489995f0b48eddbd1934592d8d60a7db7933d4a527885",
    "h2-confirm/hypotheses":
        "64e2408029bf43f6bc39dcd98184d539b3e53543b6e61f7a83bcf85140a985bf",
    "h2-confirm/metrics":
        "f8072d46ff949d924d26e91d58c5d6b9d4f11cd4e05db14e72d4a17ae59449b5",
    "h2-confirm/regime":
        "60a6bd1ed36eac0fec6556ab19f5f25ceda3782e8d80d589b33190c522240ef0",
    "h2-confirm/panel":
        "912c8db0bccab3b562ff65286ca5b3cce602dc021efce530777163c6530e61c9",
    "h2-falsify/hypotheses":
        "bcacc279c4882e05a9f8db9eee6e8e2d846e9b411dd18bbdaf05db88a4a346ca",
    "h2-falsify/metrics":
        "8f1919c9e548188bfff76721f15bf5c2c0bdde18290958caf9817ec2d5f2e52b",
    "h2-falsify/regime":
        "fe1133f576415529397d2cb84e6ff5a3bed5bf7d6ea6711377fcdda6cc517195",
    "h2-falsify/panel":
        "1855bfe9ecda573bd83faac7a4db53577432076e495d8164371079427be24f72",
    "h3-confirm/hypotheses":
        "fac53957baa95eb28e7219a712c134d47e8e55d0d22360045aaba4fbcdcac618",
    "h3-confirm/metrics":
        "a6edf2462041bb87e60e0fd8d17bbbe2646cf2dfda23c7fdff588424ef123e8b",
    "h3-confirm/regime":
        "ccb22b4813b47d5424161cc2f4e22cd3a418cbb368126284290bfb89654574ae",
    "h3-confirm/panel":
        "8ee5d3748ae720a9a54475bc81c621655650d964ed086eba6b5add2cf5703ddd",
    "h3-falsify/hypotheses":
        "b69c55d298ffb86d6ef2ce2c7007156afe77c6fb9e75bb52e798038c9f831d98",
    "h3-falsify/metrics":
        "6a02c629703b140ffd34e1f322f55652b954ca9834fc3614c85c37d3d52216e7",
    "h3-falsify/regime":
        "23de7d7c2c4c6e4faad65d813c10d44e1b6e234dda33d391ed7aa3d857dc19f3",
    "h3-falsify/panel":
        "7a1699d6c61bf78379d648e15524be55858c27ed815bb2b5c6d70f33be0ded24",
    "h4-confirm/hypotheses":
        "169ba18e514b41043154fd7fa4510b05d7d56cd05a6e88a763e6eb5efdbec627",
    "h4-confirm/metrics":
        "0864c60cb04d8600076db6b2ede9c2a0b837b36fb9aafc642ae27a66f4f6d6aa",
    "h4-confirm/regime":
        "552c049b2c6b3d73a1b5c8fe9d298b251651a91c368121972298becbf2c8211f",
    "h4-confirm/panel":
        "de9a32aa605c645661c147dbc939bf4f56f295bff6866ac1c61b693d6611b15f",
    "h4-falsify/hypotheses":
        "39dbe33aed6b99ea71bc98d7d8754b192ead61e5aeda98bc4f343dd3b94ded00",
    "h4-falsify/metrics":
        "eea515c754174d6ce834aea835837c57dd306ef907c3277b3cdda1b20a0eb115",
    "h4-falsify/regime":
        "acdf9773f5223b5eefc93f163c5bd675b159a56db1fbcea37ed0e9ad8082a34f",
    "h4-falsify/panel":
        "a01ecb6a52787449857d6ac46a1f19bde51b4c9ec8a48a4af972928429043959",
    "profile/metrics":
        "45283f028ce7fcc30f754fc280f028ff06c634db134ae924fff2739e12092a5b",
    "quality/ingest":
        "c9ecd451655d21700eb898aee331913a4c4252111dbacbf34863eb7cb66d7118",
    "quality/panel":
        "72ace0c45bff1131fafe6a34c31fe7c4577a67ed4df45dd1fc299f3f455d8b66",
    "quality/validate":
        "254d48f4d67c054b4f4c52fac72f871f8c939bbacd42e36a69dbc2a784f58175",
}


def _sha(doc) -> str:
    return hashlib.sha256(formats.dump_json(doc).encode()).hexdigest()


def _panel_sha(panel) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.json")
        formats.save_panel(path, panel)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def coverage_panel():
    """The packaged h2-confirm with each book replaced by a ladder of 50 levels
    a side, 0.25 apart around its mid, plus a level on each edge of the band
    around each boundary of the resolved range; bid and ask sizes follow
    different cycles."""
    base = synth.generate(synth.load_builtin_scenario("h2-confirm"))[0]
    rng = derive(base).range
    band = d12(DEFAULTS.depth_extreme_band)
    edges = {d12(b * (1 + k * band)) for b in (rng.lower, rng.upper) for k in (-1, 1)}
    step = Decimal("0.25")
    books = []
    for i, snap in enumerate(base.books):
        mid = (snap.mid / step).quantize(Decimal(1)) * step
        ladder = {mid + sign * (k + Decimal("0.2")) * step
                  for k in range(50) for sign in (-1, 1)} | edges
        bids = sorted((p for p in ladder if p < mid), reverse=True)
        asks = sorted(p for p in ladder if p > mid)
        books.append(BookSnapshot(
            snap.time,
            levels_text((d12(p), d12(1 + (7 * i + 3 * k) % 17 * Decimal("0.5")))
                        for k, p in enumerate(bids)),
            levels_text((d12(p), d12(2 + (5 * i + 11 * k) % 13 * Decimal("0.25")))
                        for k, p in enumerate(asks))))
    return base._replace(books=books)


def profile_panel():
    """The packaged h1-confirm, whose median close is 100 and lowest low 97, so
    its volume-profile bins are exactly 0.5 wide from 97, with bars edited to
    reach each branch of the profile: flat bars (some on a bin edge),
    zero-volume bars (some flat), lows and highs moved out to the nearest bin
    edge, and one bar reaching 120, across 46 bins. No close changes."""
    base = synth.generate(synth.load_builtin_scenario("h1-confirm"))[0]
    lo, width = Decimal(97), Decimal("0.5")

    def edge(price, rounding):
        return lo + ((price - lo) / width).to_integral_value(rounding) * width

    candles = list(base.candles)
    for i, c in enumerate(candles):
        if i % 37 == 0:
            c = c._replace(open=c.close, high=c.close, low=c.close)
        elif i % 41 == 3:
            c = c._replace(low=d12(edge(c.low, ROUND_FLOOR)))
        elif i % 43 == 7:
            c = c._replace(high=d12(edge(c.high, ROUND_CEILING)))
        if i % 53 == 0 or i % 59 == 5:
            c = c._replace(volume=d12(0))
        candles[i] = c
    candles[290] = candles[290]._replace(high=d12(120))
    return base._replace(candles=candles)


def quality_panel():
    """The packaged h1-confirm edited so each quality check has work: one
    missing bar (gap fill) and a two-bar hole (left for `panel_rules`), a
    funding rate at the hard bound, a funding record and a book snapshot more
    than 30 s off their grids, a crossed and a wide snapshot, a volume spike
    with a flat body, and a day's trade flow per day for a week, one of which
    disagrees with the change in open interest."""
    base = synth.generate(synth.load_builtin_scenario("h1-confirm"))[0]
    candles = list(base.candles)
    c = candles[200]
    candles[200] = c._replace(close=c.open, high=max(c.high, c.open),
                              low=min(c.low, c.open), volume=d12(c.volume * 10))
    del candles[300:302], candles[100]

    funding = list(base.funding)
    funding[10] = funding[10]._replace(rate_8h=d12("0.0375"))
    funding[20] = funding[20]._replace(settle_time=funding[20].settle_time + 45)

    books = list(base.books)
    books[30] = books[30]._replace(time=books[30].time + 100)
    for i, (bid, ask) in ((40, ("100.2", "100.1")), (50, ("99", "101"))):
        books[i] = BookSnapshot(books[i].time, levels_text(((d12(bid), d12(5)),)),
                                levels_text(((d12(ask), d12(5)),)))

    last = {}
    for r in base.open_interest:
        last[iso(r.time)[:10]] = r.oi_usd
    days = sorted(last)[:8]
    flows = [[day, fmt_dec(last[day] - last[prev] + (10 ** 8 if day == days[4] else 0))]
             for prev, day in zip(days, days[1:])]
    return base._replace(
        candles=candles, funding=funding, books=books,
        annotations={**base.annotations, "daily_net_flow_usd": flows})


def current_digests() -> dict:
    panels = [synth.generate(synth.load_builtin_scenario(name))[0]
              for name in SCENARIO_NAMES]
    out = {"%s/%s" % (name, kind): _sha(build(panel))
           for name, panel in zip(SCENARIO_NAMES, panels)
           for kind, build in REPORTS.items()}
    out.update({"%s/panel" % name: _panel_sha(panel)
                for name, panel in zip(SCENARIO_NAMES, panels)})
    out["backtest"] = _sha(synth.backtest(panels))
    coverage = coverage_panel()
    out.update({"coverage/%s" % kind: _sha(REPORTS[kind](coverage))
                for kind in ("metrics", "hypotheses")})
    out["profile/metrics"] = _sha(reports.metrics_report(profile_panel()))
    quality = quality_panel()
    cleaned, report = run_pipeline(quality)
    out["quality/ingest"] = _sha(_quality_to_dict(report))
    out["quality/validate"] = _sha(_quality_to_dict(run_pipeline(quality, judge_input=True)[1]))
    out["quality/panel"] = _panel_sha(cleaned)
    return out


@pytest.fixture(scope="module")
def digests():
    return current_digests()


PANEL_KEYS = sorted(k for k in DIGESTS if k.endswith("/panel"))


@pytest.mark.parametrize("key", sorted(set(DIGESTS) - set(PANEL_KEYS)))
def test_report_bytes_unchanged(digests, key):
    assert digests[key] == DIGESTS[key]


@pytest.mark.parametrize("key", PANEL_KEYS)
def test_panel_bytes_unchanged(digests, key):
    assert digests[key] == DIGESTS[key]


def test_every_report_is_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=4, sort_keys=True))

"""Static SVG figures with a CSV twin of every plotted series.

The SVG is assembled by hand from a fixed template: no library, no random
ids, no timestamps, so the same report always renders to the same bytes.
Four kinds: funding trajectory, liquidation density, depth migration at the
range extremes, and the range overlay on closes.
"""
from __future__ import annotations

import io
import csv
import math

from .errors import MissingSeriesError, SchemaError

KINDS = ("funding", "density", "depth", "range")

_W, _H = 800, 420
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 70, 20, 30, 40
_SERIES = "#2a6fb0"
_SECOND = "#b05a2a"
_GUIDE = "#888888"
_TEXT = "#222222"


def _num(v) -> float:
    try:
        out = float(v)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if type(v) is bool or not math.isfinite(out):
        raise SchemaError("non-numeric value in plotted series: %r" % (v,))
    return out


def _fmt(v: float) -> str:
    # fixed short form keeps coordinates stable across platforms
    return "%.2f" % v


class _Canvas:
    def __init__(self, title: str, x_label: str, y_label: str,
                 x_range, y_range):
        self.parts = []
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        self.x_lo, self.x_span = x_lo, (x_hi - x_lo) or 1.0
        self.y_lo, self.y_span = y_lo, (y_hi - y_lo) or 1.0
        self.parts.append(
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (_W, _H, _W, _H))
        self.parts.append('<rect width="%d" height="%d" fill="#ffffff"/>' % (_W, _H))
        self.text(_W / 2, 18, title, anchor="middle", size=14)
        self.text(_W / 2, _H - 8, x_label, anchor="middle")
        self.parts.append(
            '<text x="14" y="%d" font-family="monospace" font-size="11" '
            'fill="%s" text-anchor="middle" transform="rotate(-90 14 %d)">%s'
            '</text>' % (_H // 2, _TEXT, _H // 2, _esc(y_label)))
        # frame
        self.parts.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="%s" stroke-width="1"/>'
            % (_PAD_L, _PAD_T, _W - _PAD_L - _PAD_R, _H - _PAD_T - _PAD_B, _GUIDE))
        self.text(_PAD_L, _H - _PAD_B + 14, "%.6g" % x_lo)
        self.text(_W - _PAD_R, _H - _PAD_B + 14, "%.6g" % x_hi, anchor="end")
        self.text(_PAD_L - 6, _H - _PAD_B, "%.6g" % y_lo, anchor="end")
        self.text(_PAD_L - 6, _PAD_T + 10, "%.6g" % y_hi, anchor="end")

    def sx(self, x: float) -> float:
        return _PAD_L + (x - self.x_lo) / self.x_span * (_W - _PAD_L - _PAD_R)

    def sy(self, y: float) -> float:
        return _H - _PAD_B - (y - self.y_lo) / self.y_span * (_H - _PAD_T - _PAD_B)

    def polyline(self, xs, ys, color=_SERIES, dash=None):
        pts = " ".join("%s,%s" % (_fmt(self.sx(x)), _fmt(self.sy(y)))
                       for x, y in zip(xs, ys))
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        self.parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"%s/>'
            % (pts, color, extra))

    def hline(self, y: float, color=_GUIDE, dash="4 3", label=None):
        sy = _fmt(self.sy(y))
        self.parts.append(
            '<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="%s" '
            'stroke-dasharray="%s"/>' % (_PAD_L, sy, _W - _PAD_R, sy, color, dash))
        if label:
            self.text(_W - _PAD_R - 4, self.sy(y) - 4, label, anchor="end")

    def vline(self, x: float, color=_SECOND, label=None, peak=None):
        sx = _fmt(self.sx(x))
        attr = ' data-peak-price="%.12g"' % peak if peak is not None else ""
        self.parts.append(
            '<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="%s"%s/>'
            % (sx, _PAD_T, sx, _H - _PAD_B, color, attr))
        if label:
            self.text(self.sx(x) + 4, _PAD_T + 12, label)

    def text(self, x, y, s, anchor="start", size=11):
        self.parts.append(
            '<text x="%s" y="%s" font-family="monospace" font-size="%d" '
            'fill="%s" text-anchor="%s">%s</text>'
            % (_fmt(x), _fmt(y), size, _TEXT, anchor, _esc(s)))

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _family(report: dict, name: str) -> dict:
    """Accept either the family report itself or the metrics umbrella."""
    if report.get("kind") == name:
        return report
    if report.get("kind") == "metrics":
        fam = report.get("families", {}).get(name)
        if fam is not None:
            return fam
    raise SchemaError("report does not carry the %r family" % name)


# ------------------------------------------------------------------- kinds

def _plot_funding(report: dict):
    fam = _family(report, "cost")
    rows = fam.get("per_settlement") or []
    if not rows:
        raise MissingSeriesError("cost report has no settlements to plot")
    rates = [_num(r["rate_8h"]) for r in rows]
    xs = list(range(len(rates)))
    c = _Canvas("funding trajectory (%s)" % fam.get("instrument", ""),
                "settlement", "rate per 8h",
                (0, len(rates) - 1), (min(min(rates), 0.0), max(max(rates), 0.0)))
    if min(rates) < 0 < max(rates):
        c.hline(0.0, label="0")
    c.polyline(xs, rates)
    csv_text = _csv(("time", "rate_8h", "annualized_pct"),
                    [(r["time"], r["rate_8h"], r["annualized_pct"]) for r in rows])
    return c.render(), csv_text


def _plot_density(report: dict):
    fam = _family(report, "positioning")
    block = fam.get("liquidation_density") or {}
    prices = block.get("prices") or []
    density = block.get("density") or []
    if not prices or len(prices) != len(density):
        raise MissingSeriesError("positioning report has no density grid to plot")
    peak_i = max(range(len(density)), key=lambda i: density[i])
    peak_price = _num(prices[peak_i])
    c = _Canvas("liquidation density (%s)" % fam.get("instrument", ""),
                "price", "density",
                (_num(prices[0]), _num(prices[-1])),
                (0.0, max(_num(v) for v in density)))
    c.polyline([_num(p) for p in prices], [_num(v) for v in density])
    c.vline(peak_price, label="peak %.6g" % peak_price, peak=peak_price)
    csv_text = _csv(("price", "density"),
                    [(repr(_num(p)), repr(_num(v))) for p, v in zip(prices, density)])
    return c.render(), csv_text


def _plot_depth(report: dict):
    fam = _family(report, "liquidity")
    rows = fam.get("extremes_series") or []
    if not rows:
        raise MissingSeriesError(
            "liquidity report has no boundary-depth series to plot "
            "(needs books and a resolved range)")
    lower = [_num(r["lower_usd"]) for r in rows]
    upper = [_num(r["upper_usd"]) for r in rows]
    xs = list(range(len(rows)))
    lo = min(min(lower), min(upper))
    hi = max(max(lower), max(upper))
    c = _Canvas("depth at range extremes (%s)" % fam.get("instrument", ""),
                "snapshot", "resting notional (USD)",
                (0, max(len(rows) - 1, 1)), (min(lo, 0.0), hi))
    c.polyline(xs, lower, color=_SERIES)
    c.polyline(xs, upper, color=_SECOND)
    c.text(_PAD_L + 6, _PAD_T + 14, "lower boundary", size=11)
    c.parts.append(
        '<text x="%d" y="%d" font-family="monospace" font-size="11" '
        'fill="%s">upper boundary</text>' % (_PAD_L + 6, _PAD_T + 28, _SECOND))
    csv_text = _csv(("time", "lower_usd", "upper_usd", "total_usd"),
                    [(r["time"], repr(_num(r["lower_usd"])),
                      repr(_num(r["upper_usd"])), repr(_num(r["total_usd"])))
                     for r in rows])
    return c.render(), csv_text


def _plot_range(report: dict):
    fam = _family(report, "structural")
    rows = fam.get("per_bar") or []
    if not rows:
        raise MissingSeriesError("structural report has no bars to plot")
    closes = [_num(r["close"]) for r in rows]
    xs = list(range(len(closes)))
    rng = fam.get("range")
    lo, hi = min(closes), max(closes)
    if rng:
        lo = min(lo, _num(rng["lower"]))
        hi = max(hi, _num(rng["upper"]))
    c = _Canvas("range overlay (%s)" % fam.get("instrument", ""),
                "bar", "close",
                (0, max(len(closes) - 1, 1)), (lo, hi))
    if rng:
        c.hline(_num(rng["lower"]), label="lower %.6g" % _num(rng["lower"]))
        c.hline(_num(rng["upper"]), label="upper %.6g" % _num(rng["upper"]))
        c.hline(_num(rng["midpoint"]), dash="1 3")
    c.polyline(xs, closes)
    lower = rng["lower"] if rng else ""
    upper = rng["upper"] if rng else ""
    csv_text = _csv(("time", "close", "range_lower", "range_upper"),
                    [(r["time"], r["close"], lower, upper) for r in rows])
    return c.render(), csv_text


_PLOTS = {
    "funding": _plot_funding,
    "density": _plot_density,
    "depth": _plot_depth,
    "range": _plot_range,
}


def render_plot(report: dict, kind: str):
    """(svg text, csv text) for the requested kind. A report is outside
    input: a field the plotter cannot read as it expects is a `SchemaError`."""
    if kind not in _PLOTS:
        raise SchemaError("unknown plot kind: %r (expected one of %s)"
                          % (kind, "/".join(KINDS)))
    try:
        return _PLOTS[kind](report)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise SchemaError("report cannot be drawn as %r: %s: %s"
                          % (kind, type(exc).__name__, exc)) from exc

"""Hand-rolled SVG charts: boxplot with jitter, line chart, scatter, bars.

No plotting library: every figure is assembled from a fixed element
vocabulary with pixel coordinates formatted to two decimals, so identical
inputs render byte-identical files. Every chart takes a list of labelled
groups, one color each, and `_frame` makes its canvas, draws its axes and
gives the scales that map data onto them. Charts accept an optional comment
string (the run configuration) embedded at the top of the file.
"""
from __future__ import annotations

import numpy as np

from ._util import quartiles, seeded_rng
from .errors import DataError

WIDTH = 800
HEIGHT = 520
# edges of the plotting area; the right margin holds the legend
LEFT, RIGHT = 64.0, WIDTH - 160.0
TOP, BOTTOM = 48.0, HEIGHT - 56.0

PALETTE = (
    "#4269d0",
    "#efb118",
    "#ff725c",
    "#6cc5b0",
    "#3ca951",
    "#ff8ab7",
    "#a463f2",
    "#97bbf5",
    "#9c6b4e",
    "#9498a0",
)

_AXIS = "#444444"
_FONT = "font-family=\"monospace\" font-size=\"12\""


def escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape does.

    Importing xml.sax.saxutils would pull urllib and http.client into every
    CLI start.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _px(v: float) -> str:
    return f"{float(v):.2f}"


def _tick(v: float) -> str:
    return f"{float(v):.4g}"


class Canvas:
    """Accumulates SVG elements; render() yields the full document."""

    def __init__(self, title: str, comment: str | None = None):
        self.title = title
        self.comment = comment
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, color=_AXIS, width=1.0):
        self.parts.append(
            f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}"'
            f' stroke="{color}" stroke-width="{_px(width)}"/>'
        )

    def rect(self, x, y, w, h, fill="none", stroke=_AXIS):
        self.parts.append(
            f'<rect x="{_px(x)}" y="{_px(y)}" width="{_px(w)}" height="{_px(h)}"'
            f' fill="{fill}" stroke="{stroke}"/>'
        )

    def circle(self, cx, cy, r, fill, opacity=1.0):
        op = "" if opacity >= 1.0 else f' fill-opacity="{_px(opacity)}"'
        self.parts.append(
            f'<circle cx="{_px(cx)}" cy="{_px(cy)}" r="{_px(r)}" fill="{fill}"{op}/>'
        )

    def polyline(self, xs, ys, color):
        pts = " ".join(f"{_px(x)},{_px(y)}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.50"/>'
        )

    def text(self, x, y, s, anchor="start", rotate=False):
        r = f' transform="rotate(-90 {_px(x)} {_px(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_px(x)}" y="{_px(y)}" {_FONT} text-anchor="{anchor}"'
            f' fill="#000000"{r}>{escape(s)}</text>'
        )

    def render(self) -> str:
        head = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}"'
            f' height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        ]
        if self.comment is not None:
            head.append(f"<!-- config: {escape(self.comment)} -->")
        head.append(f"<title>{escape(self.title)}</title>")
        head.append(
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>'
        )
        return "\n".join(head + self.parts + ["</svg>"]) + "\n"


class _Scale:
    """Affine data -> pixel map over the plotting area."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi, self.px_lo, self.px_hi = lo, hi, px_lo, px_hi

    def __call__(self, v):
        frac = (np.asarray(v, dtype=np.float64) - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def _frame(title: str, comment: str | None, xlabel: str, ylabel: str,
           xspan: tuple[float, float], yspan: tuple[float, float]):
    """A canvas holding the plotting area's box, axis labels, title and ticks,
    and the scales that map the (lo, hi) data spans onto that area."""
    xs = _Scale(*xspan, LEFT, RIGHT)
    ys = _Scale(*yspan, BOTTOM, TOP)
    canvas = Canvas(title, comment)
    canvas.rect(LEFT, TOP, RIGHT - LEFT, BOTTOM - TOP, stroke=_AXIS)
    canvas.text((LEFT + RIGHT) / 2, HEIGHT - 16, xlabel, anchor="middle")
    canvas.text(18, (TOP + BOTTOM) / 2, ylabel, anchor="middle", rotate=True)
    canvas.text((LEFT + RIGHT) / 2, 24, title, anchor="middle")
    for frac in (0.0, 0.5, 1.0):
        vy = ys.lo + frac * (ys.hi - ys.lo)
        py = float(ys(vy))
        canvas.line(LEFT - 4, py, LEFT, py)
        canvas.text(LEFT - 8, py + 4, _tick(vy), anchor="end")
        vx = xs.lo + frac * (xs.hi - xs.lo)
        px = float(xs(vx))
        canvas.line(px, BOTTOM, px, BOTTOM + 4)
        canvas.text(px, BOTTOM + 18, _tick(vx), anchor="middle")
    return canvas, xs, ys


def _legend(canvas: Canvas, labels: list[str]):
    x, y = RIGHT + 14, TOP + 8
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        canvas.circle(x, y + 18 * i, 5, color)
        canvas.text(x + 10, y + 18 * i + 4, label)


def _values(chart: str, arrays) -> np.ndarray:
    """A chart's data arrays end to end; DataError when they hold no value."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if sum(a.size for a in arrays) == 0:
        raise DataError(f"{chart} needs at least one value")
    return np.concatenate(arrays)


def _span(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    pad = 0.05 * (hi - lo) if hi > lo else max(abs(hi), 1.0) * 0.05
    return lo - pad, hi + pad


def boxplot_chart(
    groups: list[tuple[str, np.ndarray]],
    title: str,
    ylabel: str,
    seed: int = 0,
    comment: str | None = None,
) -> str:
    """One box (q1, median, q3) per (label, values) group with seeded jittered points."""
    allv = _values("boxplot", [v for _, v in groups])
    canvas, _, ys = _frame(title, comment, "", ylabel, (0.0, float(len(groups))), _span(allv))
    slot = (RIGHT - LEFT) / len(groups)
    box_w = slot * 0.4
    for i, (label, values) in enumerate(groups):
        values = np.asarray(values, dtype=np.float64)
        color = PALETTE[i % len(PALETTE)]
        cx = LEFT + slot * (i + 0.5)
        rng = seeded_rng(seed, 9, i)
        jitter = (rng.random(values.size) - 0.5) * box_w * 0.9
        for dx, v in zip(jitter, values):
            canvas.circle(cx + dx, float(ys(v)), 2, color, opacity=0.45)
        q1, med, q3 = quartiles(values)
        y1, ym, y3 = float(ys(q1)), float(ys(med)), float(ys(q3))
        canvas.rect(cx - box_w / 2, y3, box_w, y1 - y3, fill="none", stroke="#000000")
        canvas.line(cx - box_w / 2, ym, cx + box_w / 2, ym, color="#000000", width=2.0)
        canvas.text(cx, BOTTOM + 34, label, anchor="middle")
    return canvas.render()


def line_chart(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    comment: str | None = None,
) -> str:
    """One polyline per (label, x, y) series."""
    all_x = _values("line chart", [x for _, x, _ in series])
    all_y = _values("line chart", [y for _, _, y in series])
    canvas, xs, ys = _frame(title, comment, xlabel, ylabel, _span(all_x), _span(all_y))
    for i, (label, x, y) in enumerate(series):
        canvas.polyline(xs(x), ys(y), PALETTE[i % len(PALETTE)])
    _legend(canvas, [label for label, _, _ in series])
    return canvas.render()


def scatter_chart(
    groups: list[tuple[str, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    comment: str | None = None,
) -> str:
    """2-D scatter, one color per (label, n x 2 points) group; one circle per point."""
    points = [np.asarray(p, dtype=np.float64) for _, p in groups]
    if any(p.ndim != 2 or p.shape[1] != 2 for p in points):
        raise DataError("each scatter group must be an n x 2 array")
    allp = _values("scatter", points)
    canvas, xs, ys = _frame(
        title, comment, xlabel, ylabel, _span(allp[:, 0]), _span(allp[:, 1])
    )
    for i, p in enumerate(points):
        for x, y in zip(xs(p[:, 0]), ys(p[:, 1])):
            canvas.circle(x, y, 2.5, PALETTE[i % len(PALETTE)], opacity=0.7)
    _legend(canvas, [label for label, _ in groups])
    return canvas.render()


def bar_chart(
    bars: list[tuple[str, float]],
    title: str,
    ylabel: str,
    comment: str | None = None,
) -> str:
    """One bar per (label, value), from zero, with its value above it."""
    values = _values("bar chart", [[v] for _, v in bars])
    lo = min(0.0, float(values.min()))
    hi = max(0.0, float(values.max()))
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    canvas, _, ys = _frame(title, comment, "", ylabel, (0.0, float(len(bars))), (lo, hi + pad))
    slot = (RIGHT - LEFT) / len(bars)
    zero = float(ys(0.0))
    for i, (label, v) in enumerate(bars):
        color = PALETTE[i % len(PALETTE)]
        x0 = LEFT + slot * (i + 0.2)
        y1 = float(ys(v))
        canvas.rect(x0, min(zero, y1), slot * 0.6, abs(zero - y1), fill=color, stroke="none")
        canvas.text(LEFT + slot * (i + 0.5), BOTTOM + 34, label, anchor="middle")
        canvas.text(LEFT + slot * (i + 0.5), min(zero, y1) - 6, _tick(v), anchor="middle")
    return canvas.render()

"""Hand-rolled SVG charts: boxplot with jitter, line chart, scatter, bars.

No plotting library: every figure is assembled from a fixed element
vocabulary with pixel coordinates formatted to two decimals, so identical
inputs render byte-identical files. Charts accept an optional comment string
(the run configuration) embedded at the top of the file.
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


def _frame(canvas: Canvas, xlabel: str, ylabel: str, xs: _Scale, ys: _Scale):
    canvas.rect(LEFT, TOP, RIGHT - LEFT, BOTTOM - TOP, stroke=_AXIS)
    canvas.text((LEFT + RIGHT) / 2, HEIGHT - 16, xlabel, anchor="middle")
    canvas.text(18, (TOP + BOTTOM) / 2, ylabel, anchor="middle", rotate=True)
    canvas.text((LEFT + RIGHT) / 2, 24, canvas.title, anchor="middle")
    for frac in (0.0, 0.5, 1.0):
        vy = ys.lo + frac * (ys.hi - ys.lo)
        py = float(ys(vy))
        canvas.line(LEFT - 4, py, LEFT, py)
        canvas.text(LEFT - 8, py + 4, _tick(vy), anchor="end")
        vx = xs.lo + frac * (xs.hi - xs.lo)
        px = float(xs(vx))
        canvas.line(px, BOTTOM, px, BOTTOM + 4)
        canvas.text(px, BOTTOM + 18, _tick(vx), anchor="middle")


def _legend(canvas: Canvas, labels: list[str]):
    x, y = RIGHT + 14, TOP + 8
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        canvas.circle(x, y + 18 * i, 5, color)
        canvas.text(x + 10, y + 18 * i + 4, label)


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
    """One box (q1, median, q3) per group with seeded jittered points."""
    if not groups:
        raise DataError("boxplot needs at least one group")
    canvas = Canvas(title, comment)
    allv = np.concatenate([np.asarray(v, dtype=np.float64) for _, v in groups])
    if allv.size == 0:
        raise DataError("boxplot groups must be non-empty")
    lo, hi = _span(allv)
    ys = _Scale(lo, hi, BOTTOM, TOP)
    xs = _Scale(0.0, float(len(groups)), LEFT, RIGHT)
    _frame(canvas, "", ylabel, xs, ys)

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
    if not series:
        raise DataError("line chart needs at least one series")
    canvas = Canvas(title, comment)
    all_x = np.concatenate([np.asarray(x, dtype=np.float64) for _, x, _ in series])
    all_y = np.concatenate([np.asarray(y, dtype=np.float64) for _, _, y in series])
    if all_x.size == 0:
        raise DataError("line chart series must be non-empty")
    xlo, xhi = _span(all_x)
    ylo, yhi = _span(all_y)
    xs = _Scale(xlo, xhi, LEFT, RIGHT)
    ys = _Scale(ylo, yhi, BOTTOM, TOP)
    _frame(canvas, xlabel, ylabel, xs, ys)
    for i, (label, x, y) in enumerate(series):
        canvas.polyline(xs(x), ys(y), PALETTE[i % len(PALETTE)])
    _legend(canvas, [label for label, _, _ in series])
    return canvas.render()


def scatter_chart(
    points: np.ndarray,
    groups: np.ndarray,
    group_labels: list[str],
    title: str,
    xlabel: str,
    ylabel: str,
    comment: str | None = None,
) -> str:
    """2-D scatter with one color per group index; one circle per point."""
    points = np.asarray(points, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        raise DataError("scatter needs a non-empty n x 2 array")
    if groups.shape != (points.shape[0],):
        raise DataError("one group index per point required")
    if len(group_labels) == 0 or groups.max() >= len(group_labels) or groups.min() < 0:
        raise DataError("group indices must address the label list")
    canvas = Canvas(title, comment)
    xlo, xhi = _span(points[:, 0])
    ylo, yhi = _span(points[:, 1])
    xs = _Scale(xlo, xhi, LEFT, RIGHT)
    ys = _Scale(ylo, yhi, BOTTOM, TOP)
    _frame(canvas, xlabel, ylabel, xs, ys)
    px, py = xs(points[:, 0]), ys(points[:, 1])
    for i in range(points.shape[0]):
        canvas.circle(
            float(px[i]),
            float(py[i]),
            2.5,
            PALETTE[int(groups[i]) % len(PALETTE)],
            opacity=0.7,
        )
    _legend(canvas, list(group_labels))
    return canvas.render()


def bar_chart(
    bars: list[tuple[str, float]],
    title: str,
    ylabel: str,
    comment: str | None = None,
) -> str:
    if not bars:
        raise DataError("bar chart needs at least one bar")
    canvas = Canvas(title, comment)
    values = np.array([v for _, v in bars], dtype=np.float64)
    lo = min(0.0, float(values.min()))
    hi = max(0.0, float(values.max()))
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    ys = _Scale(lo, hi + pad, BOTTOM, TOP)
    xs = _Scale(0.0, float(len(bars)), LEFT, RIGHT)
    _frame(canvas, "", ylabel, xs, ys)
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

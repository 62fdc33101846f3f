"""Standalone SVG line charts from summary records.

Every chart uses the same layout: one panel per facet level (content bias
by default), round on the x axis, the mean of one metric on the y axis with
95% CI error bars, and one line per connectivity condition. For the
delta_adaptiveness metric, burst rounds (local maxima of the mean series)
are marked with hollow circles.

The output is plain text assembled with fixed formatting: identical records
give byte-identical SVG. No plotting library is involved.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict

from . import metrics
from .errors import InvalidParamsError
from .output import ROUND_METRICS

LINE_COLORS = {
    "early": "#1f77b4",
    "mid": "#ff7f0e",
    "late": "#d62728",
    "custom": "#2ca02c",
}
CONNECTIVITY_ORDER = ("early", "mid", "late", "custom")
FACET_COLUMNS = ("content_bias", "coordination_bias", "memory")

PANEL_W, PANEL_H = 300, 220
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 52, 16, 34, 40
GAP_X, GAP_Y = 24, 34
PANELS_PER_ROW = 4


def _fmt(x: float) -> str:
    """Fixed two-decimal coordinate formatting keeps the SVG stable."""
    return f"{x:.2f}"


def _fmt_level(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """A handful of round tick values covering [lo, hi], a finite range at
    least as wide as the smallest normal float."""
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    # Multiples of step, not a running sum, which stalls where step is below
    # half an ulp of the sum: at most n + 2 of them.
    return [round(i * step, 10) for i in range(math.floor(lo / step), math.ceil(hi / step) + 1)
            if lo - step / 2 <= i * step <= hi + step / 2]


def _pool_series(records, metric: str, facet: str):
    """mean/ci series per (facet level, connectivity), pooled over other dims.

    Returns {facet_level: {connectivity: (rounds, means, cis)}} with exact
    pooling of the summary rows that share (facet level, connectivity, round).
    """
    groups: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for rec in records:
        if rec.connectivity not in CONNECTIVITY_ORDER:
            raise InvalidParamsError(f"unknown connectivity label {rec.connectivity!r}")
        if rec.metric != metric or rec.round_no == 0:
            continue
        level = getattr(rec, facet)
        groups[level][rec.connectivity][rec.round_no].append(
            metrics.AggregateStats(rec.mean, rec.sd, rec.ci95, rec.n)
        )
    out = {}
    for level in sorted(groups):
        out[level] = {}
        for conn in CONNECTIVITY_ORDER:
            if conn not in groups[level]:
                continue
            rounds = sorted(groups[level][conn])
            pooled = [metrics.pooled(groups[level][conn][t]) for t in rounds]
            out[level][conn] = (
                rounds,
                [p.mean for p in pooled],
                [p.ci95 for p in pooled],
            )
    return out


def render_svg(records, metric: str, facet: str = "content_bias") -> str:
    """The full SVG document for a faceted line chart of one metric."""
    if metric not in ROUND_METRICS:
        raise InvalidParamsError(
            f"metric must be one of {ROUND_METRICS}, got {metric!r}"
        )
    if facet not in FACET_COLUMNS:
        raise InvalidParamsError(
            f"facet must be one of {FACET_COLUMNS}, got {facet!r}"
        )
    panels = _pool_series(records, metric, facet)
    if not panels:
        raise InvalidParamsError(f"no {metric!r} rows in the summary")

    xs_all = [t for level in panels.values() for s in level.values() for t in s[0]]
    ys_lo = [m - c for level in panels.values() for s in level.values()
             for m, c in zip(s[1], s[2])]
    ys_hi = [m + c for level in panels.values() for s in level.values()
             for m, c in zip(s[1], s[2])]
    x_min, x_max = min(xs_all), max(xs_all)
    x_step = max(1, math.ceil((x_max - x_min) / 10))  # at most 11 round labels
    y_lo, y_hi = min(0.0, min(ys_lo)), max(ys_hi)
    if not y_hi - y_lo >= sys.float_info.min:
        # Too narrow to tick: one unit wider, or 2**-40 of y_lo where one
        # unit is lost in y_lo's rounding.
        y_hi = y_lo + max(1.0, -y_lo / 2**40)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not all(map(math.isfinite, (*ys_lo, *ys_hi, y_hi - y_lo))):
        raise InvalidParamsError(
            f"cannot plot {metric!r}: a pooled statistic or the y range is not finite")

    levels = sorted(panels)
    n_cols = min(PANELS_PER_ROW, len(levels))
    n_rows = (len(levels) + n_cols - 1) // n_cols
    cell_w = MARGIN_L + PANEL_W + MARGIN_R
    cell_h = MARGIN_T + PANEL_H + MARGIN_B
    width = n_cols * cell_w + GAP_X * (n_cols - 1)
    height = n_rows * cell_h + GAP_Y * (n_rows - 1) + 28

    def sx(x0: float, t: float) -> float:
        if x_max == x_min:
            return x0 + PANEL_W / 2
        return x0 + (t - x_min) / (x_max - x_min) * PANEL_W

    def sy(y0: float, v: float) -> float:
        return y0 + PANEL_H - (v - y_lo) / (y_hi - y_lo) * PANEL_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    legend_x = 8.0
    for conn in CONNECTIVITY_ORDER:
        present = any(conn in level for level in panels.values())
        if not present:
            continue
        color = LINE_COLORS[conn]
        parts.append(
            f'<line x1="{_fmt(legend_x)}" y1="14" x2="{_fmt(legend_x + 22)}" '
            f'y2="14" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 27)}" y="18" font-size="12">{conn}</text>'
        )
        legend_x += 32 + 8 * len(conn)

    y_ticks = _nice_ticks(y_lo, y_hi)
    for idx, level in enumerate(levels):
        row, col = divmod(idx, n_cols)
        x0 = col * (cell_w + GAP_X) + MARGIN_L
        y0 = row * (cell_h + GAP_Y) + MARGIN_T + 28
        parts.append(
            f'<text x="{_fmt(x0 + PANEL_W / 2)}" y="{_fmt(y0 - 8)}" '
            f'font-size="12" text-anchor="middle">{facet} = {_fmt_level(level)}</text>'
        )
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{PANEL_W}" '
            f'height="{PANEL_H}" fill="none" stroke="#888888"/>'
        )
        for v in y_ticks:
            if not y_lo <= v <= y_hi:
                continue
            yy = sy(y0, v)
            parts.append(
                f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(yy)}" x2="{_fmt(x0)}" '
                f'y2="{_fmt(yy)}" stroke="#888888"/>'
            )
            parts.append(
                f'<text x="{_fmt(x0 - 7)}" y="{_fmt(yy + 4)}" font-size="10" '
                f'text-anchor="end">{v:g}</text>'
            )
        for t in range(x_min, x_max + 1, x_step):
            xx = sx(x0, t)
            parts.append(
                f'<line x1="{_fmt(xx)}" y1="{_fmt(y0 + PANEL_H)}" x2="{_fmt(xx)}" '
                f'y2="{_fmt(y0 + PANEL_H + 4)}" stroke="#888888"/>'
            )
            parts.append(
                f'<text x="{_fmt(xx)}" y="{_fmt(y0 + PANEL_H + 16)}" '
                f'font-size="10" text-anchor="middle">{t}</text>'
            )
        parts.append(
            f'<text x="{_fmt(x0 + PANEL_W / 2)}" y="{_fmt(y0 + PANEL_H + 30)}" '
            f'font-size="11" text-anchor="middle">round</text>'
        )

        for conn in CONNECTIVITY_ORDER:
            if conn not in panels[level]:
                continue
            rounds, means, cis = panels[level][conn]
            color = LINE_COLORS[conn]
            for t, m, ci in zip(rounds, means, cis):
                xx = sx(x0, t)
                parts.append(
                    f'<line x1="{_fmt(xx)}" y1="{_fmt(sy(y0, m - ci))}" '
                    f'x2="{_fmt(xx)}" y2="{_fmt(sy(y0, m + ci))}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
            path = " ".join(
                f"{'M' if i == 0 else 'L'}{_fmt(sx(x0, t))},{_fmt(sy(y0, m))}"
                for i, (t, m) in enumerate(zip(rounds, means))
            )
            parts.append(
                f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            if metric == "delta_adaptiveness" and len(means) >= 3:
                for pos in metrics.detect_bursts(means):
                    t = rounds[pos - 1]
                    parts.append(
                        f'<circle cx="{_fmt(sx(x0, t))}" cy="{_fmt(sy(y0, means[pos - 1]))}" '
                        f'r="4" fill="none" stroke="{color}" stroke-width="1.5"/>'
                    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(records, metric: str, out_path, facet: str = "content_bias") -> None:
    svg = render_svg(records, metric, facet=facet)
    with open(str(out_path), "wb") as fh:
        fh.write(svg.encode("utf-8"))

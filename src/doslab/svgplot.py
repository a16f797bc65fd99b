"""Minimal SVG line charts.

Plots are derived views of trace/report data; every plotted series also
exists in a CSV, so this stays a dependency-free polyline writer rather
than a rendering stack.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart"]

_WIDTH, _HEIGHT = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * step:
        ticks.append(v)
        v += step
    return ticks


def _polyline_points(xs, ys, px, py) -> str:
    """``x,y`` pixel pairs of one series, two decimals each; ``px`` and
    ``py`` map whole arrays to pixels."""
    pairs = np.column_stack((px(xs), py(ys))).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(pairs)


def line_chart(path, series, title="", xlabel="", ylabel="", ylog=False):
    """Write a multi-series line chart as a standalone SVG file.

    ``series`` is a list of ``(name, xs, ys)`` triples.  With ``ylog`` the
    y-axis is log10; nonpositive values are dropped from log plots.
    """
    title, xlabel, ylabel = (s.translate(_XML_TEXT) for s in (title, xlabel, ylabel))
    cleaned = []
    for name, xs, ys in series:
        name = name.translate(_XML_TEXT)
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if ylog:
            keep &= ys > 0.0
        if np.any(keep):
            cleaned.append((name, xs[keep], np.log10(ys[keep]) if ylog else ys[keep]))
    if not cleaned:
        cleaned = [("empty", np.array([0.0, 1.0]), np.array([0.0, 0.0]))]

    x_lo = min(s[1].min() for s in cleaned)
    x_hi = max(s[1].max() for s in cleaned)
    y_lo = min(s[2].min() for s in cleaned)
    y_hi = max(s[2].max() for s in cleaned)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{_MARGIN_T}" x2="{px(tx):.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(tx):.1f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py(ty):.1f}" '
            f'x2="{_MARGIN_L + plot_w}" y2="{py(ty):.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        label = f"1e{ty:.3g}" if ylog else f"{ty:.4g}"
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333"/>'
    )
    for i, (name, xs, ys) in enumerate(cleaned):
        color = _COLORS[i % len(_COLORS)]
        points = _polyline_points(xs, ys, px, py)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 150}" y1="{ly - 4}" '
            f'x2="{_MARGIN_L + plot_w - 128}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 122}" y="{ly}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f'{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")

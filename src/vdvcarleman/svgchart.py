"""Minimal deterministic SVG line charts.

Pure string assembly, no plotting dependency: identical input produces
byte-identical output, which the chart emission contract requires.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 48, 56
MAX_POINTS = 2000

DASH = {"solid": None, "dashed": "8,5", "dotted": "2,4"}

# XML escapes of text content.  The same as `xml.sax.saxutils.escape`,
# whose import pulls in `urllib.request` and adds about 7 MB and 40 ms to
# every CLI call.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    color: str = "#000000"
    style: str = "solid"  # solid | dashed | dotted


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else float(v))
        if v + step == v:  # a range a few ulps wide: the step is lost in rounding
            break
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _downsample(arr: np.ndarray) -> np.ndarray:
    if arr.shape[0] <= MAX_POINTS:
        return arr
    stride = int(np.ceil(arr.shape[0] / MAX_POINTS))
    idx = np.arange(0, arr.shape[0], stride)
    if idx[-1] != arr.shape[0] - 1:
        idx = np.append(idx, arr.shape[0] - 1)
    return arr[idx]


def line_chart(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Render labelled line series into a standalone SVG document.

    The title, axis labels and series labels are plain text: ``&``, ``<``
    and ``>`` are escaped.
    """
    if not series:
        raise ValueError("line_chart needs at least one series")
    xs = np.concatenate([np.asarray(s.x, float) for s in series])
    ys = np.concatenate([np.asarray(s.y, float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not np.any(finite):
        raise ValueError("no finite data to plot")
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title.translate(_ESCAPES)}</text>'
    )
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    out.append(
        f'<path d="M {x0} {MARGIN_T} L {x0} {y0} L {x0 + plot_w} {y0}" '
        f'stroke="#000000" fill="none" stroke-width="1"/>'
    )
    for tx in _nice_ticks(x_lo, x_hi):
        X = px(tx)
        out.append(f'<line x1="{X:.2f}" y1="{y0}" x2="{X:.2f}" y2="{y0 + 5}" stroke="#000000"/>')
        out.append(
            f'<text x="{X:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        Y = py(ty)
        out.append(f'<line x1="{x0 - 5}" y1="{Y:.2f}" x2="{x0}" y2="{Y:.2f}" stroke="#000000"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel.translate(_ESCAPES)}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{ylabel.translate(_ESCAPES)}</text>'
    )
    # series
    for s in series:
        pts = _downsample(np.column_stack([np.asarray(s.x, float), np.asarray(s.y, float)]))
        x, y = pts[np.isfinite(pts).all(axis=1)].T
        # px and py on whole rows: each point sees the operations of the scalar form.
        coords = " ".join(["%.2f,%.2f" % xy for xy in zip(px(x).tolist(), py(y).tolist())])
        dash = DASH.get(s.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
    # legend
    lx, ly = MARGIN_L + plot_w - 180, MARGIN_T + 10
    out.append(
        f'<rect x="{lx - 8}" y="{ly - 14}" width="186" height="{18 * len(series) + 8}" '
        f'fill="#ffffff" stroke="#999999"/>'
    )
    for i, s in enumerate(series):
        Y = ly + 18 * i
        dash = DASH.get(s.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{lx}" y1="{Y - 4}" x2="{lx + 30}" y2="{Y - 4}" '
            f'stroke="{s.color}" stroke-width="1.5"{dash_attr}/>'
        )
        out.append(
            f'<text x="{lx + 36}" y="{Y}" font-family="sans-serif" font-size="11">{s.label.translate(_ESCAPES)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Self-contained SVG line plots for trajectories (no plotting dependency)."""

from __future__ import annotations

import numpy as np

from .dae import Trajectory

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
]
MAX_POINTS = 1500


def escape(text: str) -> str:
    """Text as SVG character data: &, < and > as entities, & first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return list(np.linspace(lo, hi, count))


def render_svg(traj: Trajectory, columns=None, title: str = "") -> str:
    """Render selected trajectory columns as an SVG time-series plot."""
    names = list(columns) if columns is not None else list(traj.names)
    width, height = 900, 420
    ml, mr, mt, mb = 60, 160, 30, 45
    pw, ph = width - ml - mr, height - mt - mb

    t = traj.times
    stride = max(1, len(t) // MAX_POINTS)
    t = t[::stride]
    series = [traj.column(nm)[::stride] for nm in names]

    t_lo, t_hi = (float(t[0]), float(t[-1])) if len(t) else (0.0, 1.0)
    if series:
        y_lo = min(float(np.min(s)) for s in series)
        y_hi = max(float(np.max(s)) for s in series)
    else:
        y_lo, y_hi = 0.0, 1.0
    if y_hi - y_lo < 1e-15:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return ml + (x - t_lo) / (t_hi - t_lo or 1.0) * pw

    def sy(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">'
            f"{escape(title)}</text>"
        )
    # grid and tick labels
    for xv in _ticks(t_lo, t_hi):
        px = sx(xv)
        out.append(
            f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{mt + ph}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{mt + ph + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{xv:g}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(
            f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" y2="{py:.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{py + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{yv:.3g}</text>'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333333"/>'
    )
    out.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" font-family="sans-serif" '
        'font-size="12" text-anchor="middle">t</text>'
    )
    for i, (nm, ys) in enumerate(zip(names, series)):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(t, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = mt + 14 + 16 * i
        out.append(
            f'<line x1="{ml + pw + 8}" y1="{ly - 4}" x2="{ml + pw + 28}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{ml + pw + 33}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(nm)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"

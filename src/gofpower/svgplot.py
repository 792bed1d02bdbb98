"""Minimal native SVG output for power-curve overlays (no plot dependencies)."""

from __future__ import annotations

import numpy as np

_SIZE = 520
_MARGIN = 60.0
_SPAN = _SIZE - 2 * _MARGIN


def _px(alpha: float) -> float:
    return _MARGIN + _SPAN * alpha


def _py(power: float) -> float:
    return _SIZE - _MARGIN - _SPAN * power


def _polyline(alpha, power, color: str, width: float = 1.5,
              dash: str | None = None) -> str:
    pts = " ".join(f"{_px(a):.2f},{_py(p):.2f}" for a, p in
                   zip(np.asarray(alpha).tolist(), np.asarray(power).tolist()))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f'{dash_attr} points="{pts}"/>')


def power_overlay_svg(fh, asymptotic_alpha, asymptotic_power,
                      empirical_alpha=None, empirical_power=None,
                      title: str = "") -> None:
    """Write an alpha-vs-power plot: asymptotic curve in black, Monte-Carlo
    overlay in green, the null diagonal dashed for reference."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SPAN}" height="{_SPAN}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _px(frac)
        y = _py(frac)
        parts.append(f'<line x1="{x:.2f}" y1="{_SIZE - _MARGIN}" x2="{x:.2f}" '
                     f'y2="{_SIZE - _MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_SIZE - _MARGIN + 20}" font-size="12" '
                     f'text-anchor="middle">{frac:g}</text>')
        parts.append(f'<line x1="{_MARGIN - 6}" y1="{y:.2f}" x2="{_MARGIN}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN - 10}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{frac:g}</text>')
    parts.append(f'<text x="{_SIZE / 2}" y="{_SIZE - 12}" font-size="13" '
                 'text-anchor="middle">significance level</text>')
    parts.append(f'<text x="16" y="{_SIZE / 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_SIZE / 2})">power</text>')
    if title:
        parts.append(f'<text x="{_SIZE / 2}" y="30" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    parts.append(_polyline([0.0, 1.0], [0.0, 1.0], "gray", 1.0, dash="4,4"))
    if empirical_alpha is not None and len(np.atleast_1d(empirical_alpha)):
        parts.append(_polyline(empirical_alpha, empirical_power, "green", 2.0))
    parts.append(_polyline(asymptotic_alpha, asymptotic_power, "black"))
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")

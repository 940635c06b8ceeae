"""Static SVG pictures of arrangements: lines, labels, ranked points.

Output is deterministic for a fixed input: coordinates are formatted with
a fixed precision and nothing (timestamps, random ids) leaks in.  The
bounding box is grown around the intersection points, or around the origin
when there are none.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Arrangement, intersections

_WIDTH = 800.0
_HEIGHT = 600.0
_MARGIN = 40.0

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_arrangement_svg(arr: Arrangement) -> str:
    """The arrangement as an SVG document.

    Drawing needs floats: exact coordinates beyond the float range raise
    `ValueError` rather than `OverflowError`, since they are a property of
    the input.
    """
    try:
        return _render(arr)
    except OverflowError as exc:
        raise ValueError(f"coordinates too large to draw ({exc})") from exc


def _render(arr: Arrangement) -> str:
    points = intersections(arr) if arr.n >= 2 else ()

    xs = [float(p.x) for p in points] or [0.0]
    ys = [float(p.y) for p in points] or [0.0]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    pad = 0.35 * span + 0.5
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)
        py = _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
    ]
    for line in arr.lines:
        color = _PALETTE[(line.id - 1) % len(_PALETTE)]
        xa, xb = Fraction(x_lo).limit_denominator(10**6), Fraction(x_hi).limit_denominator(10**6)
        pa = to_px(float(xa), float(line.y_at(xa)))
        pb = to_px(float(xb), float(line.y_at(xb)))
        parts.append(
            f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" x2="{_fmt(pb[0])}" '
            f'y2="{_fmt(pb[1])}" stroke="{color}" stroke-width="1.5"/>'
        )
        label_x = x_lo + 0.06 * (line.id) * (x_hi - x_lo) / (arr.n + 1)
        lx = Fraction(label_x).limit_denominator(10**6)
        lp = to_px(float(lx), float(line.y_at(lx)))
        parts.append(
            f'<text x="{_fmt(lp[0])}" y="{_fmt(lp[1] - 6)}" font-family="monospace" '
            f'font-size="13" fill="{color}">{line.display_name}</text>'
        )
    for point in points:
        px, py = to_px(float(point.x), float(point.y))
        label = f"p{point.rank} {{{','.join(str(i) for i in point.lines)}}}"
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px + 7)}" y="{_fmt(py - 7)}" font-family="monospace" '
            f'font-size="12" fill="black">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

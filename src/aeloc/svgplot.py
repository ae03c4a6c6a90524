"""Minimal deterministic SVG scatter plots for result reports.

Hand-rolled on purpose: report files must be byte-identical across reruns,
so no plotting library with embedded ids or metadata is involved.
"""

from __future__ import annotations

_WIDTH = 720
_HEIGHT = 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 48, 64
_COLORS = ("#1f6fb2", "#c44e52", "#2e8b57", "#8a6d3b")


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def scatter_svg(
    title: str,
    xlabel: str,
    ylabel: str,
    series,
    lines=(),
) -> str:
    """Render labelled point series (marker 'plus' or 'circle') and polylines.

    ``series``: iterable of (label, xs, ys, marker); ``lines``: iterable of
    (label, xs, ys).  Returns the SVG document as a string.
    """
    # lines first, then series, each in its own colour; marker None draws a polyline
    drawn = [(lab, xs, ys, None) for lab, xs, ys in lines] + list(series)
    drawn = [(lab, list(map(float, xs)), list(map(float, ys)), mk) for lab, xs, ys, mk in drawn]
    all_x = [x for _, xs, _, _ in drawn for x in xs]
    all_y = [y for _, _, ys, _ in drawn for y in ys]
    if not all_x:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds(all_x)
    y_lo, y_hi = _bounds(all_y)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    axis = (
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(axis)
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN_B}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B + 6}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN_B + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tx:.5g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{_MARGIN_L - 6}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 10}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{ty:.5g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )
    legend_y = _MARGIN_T + 16
    for color_idx, (label, xs, ys, marker) in enumerate(drawn):
        color = _COLORS[color_idx % len(_COLORS)]
        stroke = f'stroke="{color}" stroke-width="1.5"'
        if marker is None:
            points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            out.append(f'<polyline points="{points}" fill="none" {stroke}/>')
        else:
            for x, y in zip(xs, ys):
                cx, cy = px(x), py(y)
                if marker == "plus":
                    out.append(
                        f'<path d="M {cx - 4:.2f} {cy:.2f} H {cx + 4:.2f} '
                        f'M {cx:.2f} {cy - 4:.2f} V {cy + 4:.2f}" {stroke}/>'
                    )
                else:
                    out.append(
                        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="none" {stroke}/>'
                    )
        if label:
            out.append(
                f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{legend_y}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
            )
            legend_y += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


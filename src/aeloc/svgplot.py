"""Minimal deterministic SVG scatter plots for result reports.

Hand-rolled on purpose: report files must be byte-identical across reruns,
so no plotting library with embedded ids or metadata is involved.  One
function, :func:`_element`, writes every element.
"""

from __future__ import annotations

_WIDTH = 720
_HEIGHT = 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 48, 64
_COLORS = ("#1f6fb2", "#c44e52", "#2e8b57", "#8a6d3b")
_TICKS = 6  # per axis, both ends included


def _element(tag: str, text: str | None = None, **attrs) -> str:
    """``<tag a="v" .../>``, or ``<tag ...>text</tag>`` when ``text`` is given; an
    underscore in an attribute name is written as a hyphen."""
    head = " ".join([tag] + [f'{key.replace("_", "-")}="{value}"' for key, value in attrs.items()])
    return f"<{head}/>" if text is None else f"<{head}>{text}</{tag}>"


def _text(x, y, size: int, text: str, anchor: str = "middle", **attrs) -> str:
    return _element("text", text, x=x, y=y, text_anchor=anchor, font_family="sans-serif",
                    font_size=size, **attrs)


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def scatter_svg(title: str, xlabel: str, ylabel: str, marks) -> str:
    """Render labelled marks and return the SVG document as a string.

    ``marks``: iterable of (label, xs, ys, marker), drawn in order, each in its
    own colour; marker ``"line"`` joins the points with a polyline, ``"plus"``
    and ``"circle"`` mark each point.  An empty label adds no legend entry.
    """
    marks = [(lab, list(map(float, xs)), list(map(float, ys)), mk) for lab, xs, ys, mk in marks]
    if not any(xs for _, xs, _, _ in marks):
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds([x for _, xs, _, _ in marks for x in xs])
    y_lo, y_hi = _bounds([y for _, _, ys, _ in marks for y in ys])
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    bottom = _HEIGHT - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _text(f"{_WIDTH / 2:.1f}", 26, 16, title),
        _element("rect", x=_MARGIN_L, y=_MARGIN_T, width=plot_w, height=plot_h, fill="none",
                 stroke="black", stroke_width=1),
    ]
    for tx in _ticks(x_lo, x_hi):
        x = f"{px(tx):.2f}"
        out += [_element("line", x1=x, y1=bottom, x2=x, y2=bottom + 6, stroke="black"),
                _text(x, bottom + 22, 12, f"{tx:.5g}")]
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out += [_element("line", x1=_MARGIN_L - 6, y1=f"{y:.2f}", x2=_MARGIN_L, y2=f"{y:.2f}",
                         stroke="black"),
                _text(_MARGIN_L - 10, f"{y + 4:.2f}", 12, f"{ty:.5g}", anchor="end")]
    mid_y = f"{_MARGIN_T + plot_h / 2:.1f}"
    out += [_text(f"{_MARGIN_L + plot_w / 2:.1f}", _HEIGHT - 16, 14, xlabel),
            _text(20, mid_y, 14, ylabel, transform=f"rotate(-90 20 {mid_y})")]
    legend_y = _MARGIN_T + 16
    for color_idx, (label, xs, ys, marker) in enumerate(marks):
        color = _COLORS[color_idx % len(_COLORS)]
        stroke = {"stroke": color, "stroke_width": 1.5}
        points = [(px(x), py(y)) for x, y in zip(xs, ys)]
        if marker == "line":
            polyline = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in points)
            out.append(_element("polyline", points=polyline, fill="none", **stroke))
        elif marker == "plus":
            out += [_element("path", d=f"M {cx - 4:.2f} {cy:.2f} H {cx + 4:.2f} "
                             f"M {cx:.2f} {cy - 4:.2f} V {cy + 4:.2f}", **stroke)
                    for cx, cy in points]
        else:
            out += [_element("circle", cx=f"{cx:.2f}", cy=f"{cy:.2f}", r=3.5, fill="none", **stroke)
                    for cx, cy in points]
        if label:
            out.append(_text(_WIDTH - _MARGIN_R - 8, legend_y, 12, label, anchor="end", fill=color))
            legend_y += 16
    return _element("svg", "\n" + "\n".join(out) + "\n", xmlns="http://www.w3.org/2000/svg",
                    width=_WIDTH, height=_HEIGHT, viewBox=f"0 0 {_WIDTH} {_HEIGHT}") + "\n"

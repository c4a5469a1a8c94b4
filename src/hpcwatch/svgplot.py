"""Single-file SVG charts for counter series, no plotting framework.

One chart per counter: its values as a polyline over seconds, the
top-ranked outliers as filled circles titled with their scores, and
optionally one vertical marker line at a caller-supplied moment.  ``analyze``
draws each counter's aligned column, one point per tick that holds a value,
and circles the same ranked results that ``outliers.csv`` lists.  Circles
are used for nothing else, so a chart with top_n outliers contains exactly
top_n circle elements; the marker is the only element with class
"event-mark".  Identical inputs give identical bytes.

``emit_plot`` writes the document part by part: the polyline is formatted
CHUNK points at a time from the time and value arrays, so a chart of an
hour-long column never holds a Python float or string for every point at
once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .lof import LofResult

WIDTH = 880
HEIGHT = 360
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 28
MARGIN_BOTTOM = 48

SERIES_COLOR = "#2a6f97"
OUTLIER_COLOR = "#d62828"
MARK_COLOR = "#c1121f"
AXIS_COLOR = "#444444"

# Points of the polyline formatted at once.
CHUNK = 4096


def _coord(v: float) -> str:
    return f"{v:.2f}"


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_plot(
    name: str,
    times: np.ndarray | Sequence[float],
    values: np.ndarray | Sequence[float],
    top: Sequence[LofResult],
    out: str,
    mark_time: float | None = None,
) -> None:
    """Write the SVG document to ``out``; bad inputs raise before it opens.

    ``times`` (seconds) and ``values`` are the points in order, and each
    result in ``top`` circles the point its ``index`` names.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(times) == 0:
        raise ValueError(f"series {name} has no usable samples")
    if len(times) != len(values):
        raise ValueError(f"{len(times)} times for {len(values)} values of {name}")

    t_lo, t_hi = float(times.min()), float(times.max())
    v_lo, v_hi = float(values.min()), float(values.max())
    if mark_time is not None:
        t_lo, t_hi = min(t_lo, mark_time), max(t_hi, mark_time)
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # the same operations in the same order on a float or on an array
    def x(t):
        return MARGIN_LEFT + (t - t_lo) / (t_hi - t_lo) * plot_w

    def y(v):
        return MARGIN_TOP + (v_hi - v) / (v_hi - v_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="18" font-family="sans-serif" font-size="13" '
        f'fill="{AXIS_COLOR}">{_xml_text(name)}</text>',
    ]

    # axes
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 14}" font-family="sans-serif" '
        f'font-size="12" fill="{AXIS_COLOR}" text-anchor="middle">seconds</text>'
    )
    for t_val, anchor in ((t_lo, "start"), (t_hi, "end")):
        parts.append(
            f'<text x="{_coord(x(t_val))}" y="{y0 + 16}" font-family="sans-serif" '
            f'font-size="11" fill="{AXIS_COLOR}" text-anchor="{anchor}">{t_val:.9g}</text>'
        )
    for v_val in (v_lo, v_hi):
        parts.append(
            f'<text x="{x0 - 6}" y="{_coord(y(v_val) + 4)}" font-family="sans-serif" '
            f'font-size="11" fill="{AXIS_COLOR}" text-anchor="end">{v_val:.9g}</text>'
        )

    tail = [f'" fill="none" stroke="{SERIES_COLOR}" stroke-width="1.5"/>']
    if mark_time is not None:
        tail.append(
            f'<line class="event-mark" x1="{_coord(x(mark_time))}" y1="{y1}" '
            f'x2="{_coord(x(mark_time))}" y2="{y0}" stroke="{MARK_COLOR}" '
            f'stroke-width="1.5" stroke-dasharray="5,3"/>'
        )

    for result in top:
        tail.append(
            f'<circle cx="{_coord(x(float(times[result.index])))}" '
            f'cy="{_coord(y(float(values[result.index])))}" r="4" '
            f'fill="{OUTLIER_COLOR}"><title>lof={result.lof:.9g}</title></circle>'
        )
    tail.append("</svg>")

    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + '\n<polyline points="')
        for start in range(0, len(times), CHUNK):
            xs = x(times[start:start + CHUNK]).tolist()
            ys = y(values[start:start + CHUNK]).tolist()
            fh.write((" " if start else "") + " ".join(
                f"{_coord(a)},{_coord(b)}" for a, b in zip(xs, ys)
            ))
        fh.write("\n".join(tail) + "\n")

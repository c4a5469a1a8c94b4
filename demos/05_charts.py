"""
Charting a counter with its outliers marked
===========================================

Reports ship as single-file SVG charts: the delta series as a line, the
top-ranked outliers as circles, and one optional vertical marker at a
moment of interest (say, when a request hit the server).  No plotting
framework, identical bytes on every run.
"""

import math
import os

from hpcwatch.lof import lof_all, top_n_outliers
from hpcwatch.svgplot import emit_plot

# A counter with a daily rhythm and a two-tick burst at t=6.0s, one
# reading every 0.1s.
values = [
    200 + round(60 * math.sin(i / 6.0)) + (i * 13) % 7 for i in range(80)
]
values[59] = 2600
values[60] = 2150
times = [(i + 1) * 0.1 for i in range(len(values))]

# Score the whole series and keep the five strongest outliers.
results = lof_all([float(v) for v in values], 5)
top = [results[idx] for idx in top_n_outliers(results, 5)]
print("top outliers:")
for rank, result in enumerate(top, start=1):
    print(f"  {rank}. t={times[result.index]:.1f}s "
          f"value={values[result.index]} lof={result.lof:.3g}")

out = os.path.join(os.path.dirname(__file__) or ".", "chart.svg")
emit_plot("LLC-load-misses", times, values, top, out, mark_time=6.0)
print(f"\nwrote {out}")
print("circles mark the outliers; the dashed vertical line is mark_time")

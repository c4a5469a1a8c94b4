"""SVG chart contract: circles mean outliers, one optional event marker."""

import pytest

from hpcwatch.lof import LofResult
from hpcwatch.svgplot import emit_plot, render_plot

NAME = "LLC-loads"


def points_of(values):
    """Times and values of a series sampled every 0.1 s from 0.1 s on."""
    return [(i + 1) * 0.1 for i in range(len(values))], [float(v) for v in values]


def top_of(lofs, indices):
    return [LofResult(index=i, lrd=1.0, lof=lofs[i]) for i in indices]


def test_circles_mark_exactly_the_outliers():
    times, values = points_of([5, 5, 5, 90, 5, 5, 5, 70, 5, 5])
    lofs = [1.0] * 10
    svg = render_plot(NAME, times, values, top_of(lofs, [3, 7]))
    assert svg.count("<circle") == 2
    assert svg.count("event-mark") == 0
    assert svg.count("<polyline") == 1


def test_marker_present_only_when_requested():
    times, values = points_of([5, 6, 7, 8, 9])
    plain = render_plot(NAME, times, values, top=[])
    marked = render_plot(NAME, times, values, top=[], mark_time=0.3)
    assert plain.count("event-mark") == 0
    assert marked.count("event-mark") == 1
    assert marked.count("<circle") == 0


def test_times_and_values_must_match_in_length():
    times, values = points_of([5, 6, 7])
    with pytest.raises(ValueError, match="3 times for 2 values"):
        render_plot(NAME, times, values[:2], top=[])


def test_no_usable_samples_is_an_error():
    with pytest.raises(ValueError, match="no usable samples"):
        render_plot(NAME, [], [], top=[])


def test_identical_inputs_identical_bytes(tmp_path):
    times, values = points_of([5, 5, 90, 5, 5])
    top = top_of([1.0, 1.0, 9.0, 1.0, 1.0], [2])
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_plot(NAME, times, values, top, a, 0.3)
    emit_plot(NAME, times, values, top, b, 0.3)
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a).read() == render_plot(NAME, times, values, top, 0.3)


def test_chart_labels_event_and_axis():
    svg = render_plot(NAME, *points_of([5, 6, 7]), [])
    assert "LLC-loads" in svg
    assert ">seconds</text>" in svg
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_marker_outside_data_stretches_time_axis():
    svg = render_plot(NAME, *points_of([5, 6, 7]), [], mark_time=2.0)
    assert svg.count("event-mark") == 1
    assert ">2</text>" in svg  # axis end label follows the marker

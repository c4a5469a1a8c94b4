"""SVG chart contract: circles mean outliers, one optional event marker."""

import pytest

from hpcwatch.lof import LofResult
from hpcwatch.svgplot import emit_plot

NAME = "LLC-loads"


def points_of(values):
    """Times and values of a series sampled every 0.1 s from 0.1 s on."""
    return [(i + 1) * 0.1 for i in range(len(values))], [float(v) for v in values]


def top_of(lofs, indices):
    return [LofResult(index=i, lrd=1.0, lof=lofs[i]) for i in indices]


@pytest.fixture
def render(tmp_path):
    """emit_plot into a fresh file, read back as text."""
    made = []

    def render(name, times, values, top, mark_time=None):
        made.append(tmp_path / f"{len(made)}.svg")
        emit_plot(name, times, values, top, str(made[-1]), mark_time)
        return made[-1].read_text(encoding="utf-8")

    return render


def test_circles_mark_exactly_the_outliers(render):
    times, values = points_of([5, 5, 5, 90, 5, 5, 5, 70, 5, 5])
    lofs = [1.0] * 10
    svg = render(NAME, times, values, top_of(lofs, [3, 7]))
    assert svg.count("<circle") == 2
    assert svg.count("event-mark") == 0
    assert svg.count("<polyline") == 1


def test_marker_present_only_when_requested(render):
    times, values = points_of([5, 6, 7, 8, 9])
    plain = render(NAME, times, values, top=[])
    marked = render(NAME, times, values, top=[], mark_time=0.3)
    assert plain.count("event-mark") == 0
    assert marked.count("event-mark") == 1
    assert marked.count("<circle") == 0


def test_times_and_values_must_match_in_length(render, tmp_path):
    times, values = points_of([5, 6, 7])
    with pytest.raises(ValueError, match="3 times for 2 values"):
        render(NAME, times, values[:2], top=[])
    assert not list(tmp_path.iterdir())  # raised before the file opened


def test_no_usable_samples_is_an_error(render):
    with pytest.raises(ValueError, match="no usable samples"):
        render(NAME, [], [], top=[])


def test_identical_inputs_identical_bytes(tmp_path):
    times, values = points_of([5, 5, 90, 5, 5])
    top = top_of([1.0, 1.0, 9.0, 1.0, 1.0], [2])
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_plot(NAME, times, values, top, a, 0.3)
    emit_plot(NAME, times, values, top, b, 0.3)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_chart_labels_event_and_axis(render):
    svg = render(NAME, *points_of([5, 6, 7]), [])
    assert "LLC-loads" in svg
    assert ">seconds</text>" in svg
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_marker_outside_data_stretches_time_axis(render):
    svg = render(NAME, *points_of([5, 6, 7]), [], mark_time=2.0)
    assert svg.count("event-mark") == 1
    assert ">2</text>" in svg  # axis end label follows the marker

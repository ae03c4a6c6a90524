"""The SVG renderer draws the points it is given, at finite coordinates whatever their spread."""

import pytest

from aeloc.svgplot import scatter_svg


def test_equal_xs_are_drawn_at_finite_coordinates():
    # a zero span is widened by one unit each side, not divided by: both markers sit on
    # the plot's middle column, x = 80 + 616 / 2
    svg = scatter_svg("t", "x", "y", [("points", [5.0, 5.0], [1.0, 2.0], "plus")],
                      lines=[("line", [5.0, 5.0], [1.0, 2.0])])
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<path") == 2 and svg.count(" M 388.00 ") == 2
    assert '<polyline points="388.00,' in svg


def test_no_points_is_refused():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        scatter_svg("t", "x", "y", [("points", [], [], "circle")])

"""The SVG renderer draws the points it is given, at finite coordinates whatever their spread."""

import csv
import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from aeloc import cli
from aeloc.grnn import load_prototypes
from aeloc.svgplot import scatter_svg

_SVG = {"svg": "http://www.w3.org/2000/svg"}

# every mark kind: a line, plus and circle series, unlabelled series, equal xs within a
# series, and a fifth mark that wraps round the colours
_MARKS = [
    ("fit", [0.0, 10.0], [-1.0, 3.0], "line"),
    ("plus points", [1.0, 2.5, 7.0], [0.5, 1.5, 2.0], "plus"),
    ("circles", [3.0, 3.0, 9.5], [-0.5, 2.5, 1.0], "circle"),
    ("", [4.0, 6.0], [0.0, 0.25], "plus"),
    ("", [8.0], [-0.75], "circle"),
]
# the same marks with every x equal: the zero x span is widened, not divided by
_EQUAL_XS = [(label, [5.0] * len(xs), ys, marker) for label, xs, ys, marker in _MARKS]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_plot_bytes_are_pinned_and_cli_plots_mark_every_point(learned, tmp_path):
    # the bytes the plots had before svgplot was rebuilt around one element writer
    assert _sha256(scatter_svg("Marks", "x [mm]", "y [s]", _MARKS)) == (
        "8bdcdbb53c8ff51f04b58b3fcf5341e02dd9c212e33c92712dfdeeb1b5d3178e"
    )
    assert _sha256(scatter_svg("Equal xs", "x", "y", _EQUAL_XS)) == (
        "90756d74526591520bd5ad712b51503d9ce07946a136af28ee7f96025f2463c9"
    )

    _, data, report, db = learned
    cal_svg, eval_csv, eval_svg = tmp_path / "cal.svg", tmp_path / "eval.csv", tmp_path / "e.svg"
    grid = ["--f-start", "30000", "--f-stop", "50000", "--step", "5000"]
    argv = ["calibrate", str(data), "--report", str(tmp_path / "cal.csv"), "--svg", str(cal_svg)]
    assert cli.main(argv + grid) == 0
    argv = ["evaluate", str(db), str(data), "--report", str(eval_csv), "--svg", str(eval_svg)]
    assert cli.main(argv) == 0
    n_protos = len(load_prototypes(db))
    with open(eval_csv) as fh:
        n_tests = sum(1 for row in csv.reader(fh) if row[0].startswith("test_"))
    assert n_protos == 12 and n_tests == 5
    # calibration: one plus per prototype delay; evaluation: one plus per prototype, one
    # circle per located test source; each plot has one line
    for path, plus, circles in ((cal_svg, n_protos, 0), (eval_svg, n_protos, n_tests)):
        root = ET.parse(path).getroot()
        paths = root.findall("svg:path", _SVG)
        rings = root.findall("svg:circle", _SVG)
        assert (len(paths), len(rings)) == (plus, circles)
        assert len(root.findall("svg:polyline", _SVG)) == 1
        coords = [float(v) for p in paths for v in p.get("d").split() if v not in "MHV"]
        coords += [float(c.get(k)) for c in rings for k in ("cx", "cy")]
        assert all(math.isfinite(v) for v in coords)


def test_equal_xs_are_drawn_at_finite_coordinates():
    # a zero span is widened by one unit each side, not divided by: both markers sit on
    # the plot's middle column, x = 80 + 616 / 2
    svg = scatter_svg("t", "x", "y", [("line", [5.0, 5.0], [1.0, 2.0], "line"),
                                      ("points", [5.0, 5.0], [1.0, 2.0], "plus")])
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<path") == 2 and svg.count(" M 388.00 ") == 2
    assert '<polyline points="388.00,' in svg


def test_no_points_is_refused():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        scatter_svg("t", "x", "y", [("points", [], [], "circle")])

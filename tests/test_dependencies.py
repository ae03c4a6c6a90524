"""Every third-party package the library imports is a declared runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {_normalized(re.match(r"[A-Za-z0-9_.\-]+", r).group()) for r in project["dependencies"]}


def _imported_top_level_packages(path: Path) -> set[str]:
    """First components of the absolute imports anywhere in ``path``, function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    # a package installed in the development environment but not declared passes the tests
    # and fails on the first `pip install` into a clean one
    third_party = {}
    for path in sorted((ROOT / "src" / "aeloc").glob("*.py")):
        for name in _imported_top_level_packages(path):
            if name not in sys.stdlib_module_names and name not in ("__future__", "aeloc"):
                third_party.setdefault(name, path.name)
    assert {"numpy", "orjson"} <= set(third_party)  # the scan sees the imports it must
    declared = _declared_dependencies()
    undeclared = {n: f for n, f in third_party.items() if _normalized(n) not in declared}
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


def _import_time_imports(node) -> set[str]:
    """Top-level packages imported by ``node`` when its module loads: function bodies excluded."""
    names = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            names.update(alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names.add(child.module.split(".")[0])
        names |= _import_time_imports(child)
    return names


def test_no_module_imports_scipy_when_it_loads():
    # scipy costs a CLI call about 0.4 s of start-up; apply_filter, which no stage calls,
    # imports it in its body
    eager = [path.name for path in sorted((ROOT / "src" / "aeloc").glob("*.py"))
             if "scipy" in _import_time_imports(ast.parse(path.read_text()))]
    assert not eager, f"import scipy when loaded: {eager}"
    signals = ast.parse((ROOT / "src" / "aeloc" / "signals.py").read_text())
    assert "numpy" in _import_time_imports(signals)  # the scan sees module-level imports


def test_svgplot_imports_only_the_standard_library():
    # the renderer draws the points it is given; what a plot shows is built beside the
    # result it shows (calibration.calibration_scatter_svg, pipeline.evaluation_scatter_svg)
    tree = ast.parse((ROOT / "src" / "aeloc" / "svgplot.py").read_text())
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    assert not relative, f"svgplot imports from its own package: {relative}"
    outside = _imported_top_level_packages(ROOT / "src" / "aeloc" / "svgplot.py")
    outside -= set(sys.stdlib_module_names)
    assert not outside, f"svgplot imports beyond the standard library: {sorted(outside)}"

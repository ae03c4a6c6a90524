"""The package root serves the scripts and the README, and no public name is test-only."""

import argparse
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from aeloc import cli
from aeloc.simulator import default_config

ROOT = Path(__file__).resolve().parents[1]


def _readme_library_code() -> str:
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _fresh_interpreter(probe: str, *args: str) -> subprocess.CompletedProcess:
    """``probe`` run by a new Python that imports this checkout's aeloc."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True,
                          text=True)


def test_scripts_and_readme_imports_resolve():
    for script in ("run_band_experiment", "density_sweep", "stage_memory", "cold_start"):
        spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # runs the imports; main() stays behind __main__
        assert callable(module.main)

    code = _readme_library_code()
    imports = [ln for ln in code.splitlines() if ln.startswith(("import ", "from "))]
    assert any("aeloc" in ln for ln in imports)
    exec("\n".join(imports), {})

    # a fresh interpreter: in this one other imports have attached the submodules already
    modules = ("calibration", "grnn", "pipeline", "signals", "simulator", "svgplot", "util")
    probe = "import aeloc; print(' '.join(getattr(aeloc, m).__name__ for m in %r))" % (modules,)
    out = _fresh_interpreter(probe)
    assert out.stdout.split() == [f"aeloc.{m}" for m in modules], out.stderr


def _names_used(node, skip: str = "") -> set[str]:
    """Names, attributes and imports under ``node``, minus those inside a definition of ``skip``."""
    used = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
            continue
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.update(child.name.split("."))
        used |= _names_used(child, skip)
    return used


def test_every_public_definition_is_used_outside_the_tests():
    # a public function or class that only tests call is a second copy of something
    # the program computes elsewhere, so the tests would check code that never runs
    sources = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
    trees = [ast.parse(path.read_text()) for d in sources for path in sorted(d.rglob("*.py"))]
    trees.append(ast.parse(_readme_library_code()))
    unused = []
    for path in sorted((ROOT / "src" / "aeloc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(node.name in _names_used(tree, skip=node.name) for tree in trees):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public but used only by tests: {unused}"


# an import kept on purpose although its module never uses the name: the reason in parentheses
_PINNED = re.compile(r"#\s*noqa: F401\s+\(.+\)")


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs here, so this is the F401 check; __init__.py's imports are the re-exports.
    # A pinned import whose name the module does use carries a stale reason
    unused, stale = [], []
    for path in sorted([*(ROOT / "src" / "aeloc").glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                pinned = _PINNED.search(lines[alias.lineno - 1]) is not None
                if bound in used and pinned:
                    stale.append(f"{path.stem}.{bound}")
                elif bound not in used and not pinned:
                    unused.append(f"{path.stem}.{bound}")
    assert not unused, f"imported but never used: {unused}"
    assert not stale, f"pinned as unused but used: {stale}"


def _attributes_and_strings(tree) -> set[str]:
    """Attribute names and string constants under ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _public_fields(cls: ast.ClassDef) -> list[str]:
    """The public annotated fields and properties of a class definition."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and any(
            isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
        ):
            names.append(node.name)
    return [name for name in names if not name.startswith("_")]


def test_every_public_field_is_read_outside_the_tests():
    # a field that only tests read is state the program carries for nothing.  A read is an
    # attribute access or a string naming the field (write_evaluation_report reads its fields
    # through getattr); an annotation or a keyword argument only writes it.  Names are matched
    # across classes, so a field is missed when another class has one of the same name
    # (CorrelationFunction.max_lag would pass on BandpassFilter.max_lag's reads)
    sources = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
    trees = [ast.parse(path.read_text()) for d in sources for path in sorted(d.rglob("*.py"))]
    trees.append(ast.parse(_readme_library_code()))
    read = set().union(*map(_attributes_and_strings, trees))
    unread = [
        f"{path.stem}.{node.name}.{name}"
        for path in sorted((ROOT / "src" / "aeloc").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for name in _public_fields(node)
        if name not in read
    ]
    assert not unread, f"public fields read only by tests: {unread}"


# the scipy modules a probe has loaded, printed as its last line
_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_importing_the_cli_leaves_scipy_unloaded():
    # importing scipy.fft costs every CLI call about 0.4 s of start-up, and scipy.signal
    # pulls in scipy.stats, optimize, interpolate and spatial: no stage uses either
    out = _fresh_interpreter("import sys, aeloc.cli\n" + _LOADED_SCIPY)
    assert out.stdout.splitlines() == ["[]"], out.stderr


def test_correlating_a_pair_leaves_scipy_unloaded():
    # cross_correlate and pair_delay take CrossSpectra's lag-window FFT, from numpy.fft
    probe = (
        "import sys\n"
        "from aeloc.signals import Waveform, cross_correlate, pair_delay\n"
        "a, b = Waveform([0.0, 1.0, 0.0, 0.0], 10.0), Waveform([0.0, 0.0, 1.0, 0.0], 10.0)\n"
        "cross_correlate(a, b, 2)\n"
        "pair_delay(b, a, 2)\n"
    )
    out = _fresh_interpreter(probe + _LOADED_SCIPY)
    assert out.stdout.splitlines() == ["[]"], out.stderr


def test_the_five_stages_leave_scipy_unloaded(tmp_path):
    # only apply_filter, which no stage calls, imports scipy
    config = default_config()
    config["specimen"]["record_length"] = 8192
    config["prototype_positions_mm"] = [900.0 + 400.0 * k for k in range(6)]
    config["test_positions_mm"] = [900.0, 1500.0, 2100.0]
    (tmp_path / "config.json").write_text(json.dumps(config))
    data, report, db = tmp_path / "data", tmp_path / "cal.csv", tmp_path / "p.db"
    stages = [
        ["simulate", "--config", tmp_path / "config.json", "--out", data],
        ["calibrate", data, "--report", report, "--svg", tmp_path / "cal.svg"],
        ["learn", data, "--db", db, "--calibration", report],
        ["locate", db, data / "test_01.txt", "--out", tmp_path / "loc.csv"],
        ["evaluate", db, data, "--report", tmp_path / "eval.csv", "--svg", tmp_path / "e.svg"],
    ]
    probe = (
        "import json, sys\n"
        "from aeloc import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    out = _fresh_interpreter(probe + _LOADED_SCIPY, json.dumps(stages, default=str))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_names_exactly_the_flags_the_parser_defines():
    # a flag the README names but the parser lacks is a stale sentence, and the reverse
    # is an undocumented flag; the install block's pip flag is not aeloc's
    readme = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (ROOT / "README.md").read_text()))
    assert readme - {"--no-build-isolation"} == _parser_flags(cli.build_parser())

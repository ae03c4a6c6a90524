"""The package root serves the scripts and the README, and no public name is test-only."""

import argparse
import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from aeloc import cli

ROOT = Path(__file__).resolve().parents[1]


def _readme_library_code() -> str:
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
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


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # scipy.signal pulls in scipy.stats, optimize, interpolate and spatial: about a second
    # of start-up for every CLI call, and no stage uses it
    probe = "import sys, aeloc.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["False"], out.stderr


def test_correlating_a_pair_leaves_scipy_signal_unloaded():
    # cross_correlate and pair_delay take CrossSpectra's lag-window FFT, which needs scipy.fft only
    probe = (
        "import sys\n"
        "from aeloc.signals import Waveform, cross_correlate, pair_delay\n"
        "a, b = Waveform([0.0, 1.0, 0.0, 0.0], 10.0), Waveform([0.0, 0.0, 1.0, 0.0], 10.0)\n"
        "cross_correlate(a, b, 2)\n"
        "pair_delay(b, a, 2)\n"
        "print('scipy.signal' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["False"], out.stderr


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

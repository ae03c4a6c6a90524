"""The package root stays wide enough for the scripts and the README examples."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_and_readme_imports_resolve():
    for script in ("run_band_experiment", "density_sweep"):
        spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # runs the imports; main() stays behind __main__
        assert callable(module.main)

    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imports = [ln for ln in code.splitlines() if ln.startswith(("import ", "from "))]
    assert any("aeloc" in ln for ln in imports)
    exec("\n".join(imports), {})

    # a fresh interpreter: in this one other imports have attached the submodules already
    modules = ("calibration", "grnn", "pipeline", "signals", "simulator", "svgplot", "util")
    probe = "import aeloc; print(' '.join(getattr(aeloc, m).__name__ for m in %r))" % (modules,)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.split() == [f"aeloc.{m}" for m in modules], out.stderr

"""The scripts run end to end: a flag a script passes but the CLI no longer takes fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_band_experiment_script_writes_its_five_artefacts(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    script = ROOT / "scripts" / "run_band_experiment.py"
    run = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path), "--seed", "0"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    artefacts = ["calibration.csv", "calibration.svg", "prototypes.db", "evaluation.csv",
                 "evaluation.svg"]
    assert [name for name in artefacts if not (tmp_path / name).is_file()] == []

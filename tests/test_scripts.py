"""The scripts run end to end: a flag a script passes but the CLI no longer takes fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True)


def test_band_experiment_script_writes_its_five_artefacts(tmp_path):
    run = _run_script("run_band_experiment.py", "--out", str(tmp_path), "--seed", "0")
    assert run.returncode == 0, run.stderr
    artefacts = ["calibration.csv", "calibration.svg", "prototypes.db", "evaluation.csv",
                 "evaluation.svg"]
    assert [name for name in artefacts if not (tmp_path / name).is_file()] == []


def test_density_sweep_script_prints_one_row_per_pitch():
    # stage_memory.py is left out: it takes about 12 s
    run = _run_script("density_sweep.py", "--pitches", "400")
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["pitch", "[mm]", "prototypes", "mean", "error", "[mm]"]
    assert [row.split()[:2] for row in rows] == [["400", "6"]]


def test_cold_start_script_times_one_locate_process():
    run = _run_script("cold_start.py", "--runs", "1")
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    assert line.startswith("locate, one event, 1 fresh processes: median ")
    assert line.endswith(" MB")

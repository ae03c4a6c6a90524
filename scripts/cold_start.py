#!/usr/bin/env python3
"""Wall time and peak memory of a fresh ``aeloc locate`` process on one event.

Builds the default dataset (seed 0), its calibration report and its prototype
database in a temporary directory, in this process through ``aeloc.cli.main``.
It then runs ``python -m aeloc locate <db> test_11.txt --calibration <report>``
``--runs`` times, each in a new interpreter that imports the same aeloc as this
script, one after another.  It prints the median, min and max wall seconds of
those processes, from start to exit, and the largest peak resident set size
any of them reached (``ru_maxrss``, in MB of 2^20 bytes).  Interpreter start
and imports are in the figure: this is what a command-line user waits for one
event, which an in-process benchmark cannot see.
"""

import argparse
import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import aeloc
from aeloc import cli


def build(root: Path) -> list[str]:
    """Simulate, calibrate and learn under ``root``; the locate command line to time."""
    data, report, db = str(root / "data"), str(root / "calibration.csv"), str(root / "p.db")
    for argv in (["simulate", "--out", data, "--seed", "0"],
                 ["calibrate", data, "--report", report],
                 ["learn", data, "--db", db, "--calibration", report]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"aeloc {argv[0]} exited {code}")
    event = str(root / "data" / "test_11.txt")
    return [sys.executable, "-m", "aeloc", "locate", db, event, "--calibration", report]


def timed(argv: list[str], env: dict) -> float:
    """Wall seconds of one process running ``argv``, from start to exit."""
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=7, help="locate processes to time")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    # the children import the aeloc this script imported, wherever it came from
    src = str(Path(aeloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}
    with tempfile.TemporaryDirectory() as tmp:
        argv = build(Path(tmp))
        walls = [timed(argv, env) for _ in range(args.runs)]
    # the build ran in this process, so the locate processes are the only children
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"locate, one event, {args.runs} fresh processes: "
          f"median {statistics.median(walls):.3f} s "
          f"(min {min(walls):.3f} s, max {max(walls):.3f} s), peak RSS {rss:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

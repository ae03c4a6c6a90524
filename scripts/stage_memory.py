#!/usr/bin/env python3
"""Peak traced memory of each CLI stage on the default dataset.

Runs simulate, calibrate, learn, locate and evaluate on a temporary directory
through ``aeloc.cli.main``, in this process and with the criterion-7 chain's
arguments, so every stage runs as the command line runs it: calibrate and
learn stream the prototype records into the cross-spectra, one file at a
time, and evaluate locates one test at a time.  For comparison, the row
``held`` reads every prototype record into memory at once
(``pipeline.load_prototype_pairs``), the working set that streaming avoids.
The rows ``read`` and ``write`` read one default pair file (``test_00.txt``)
and write that pair back out, the file I/O every stage goes through; each
holds one block of the file's text and floats at a time.  For each row it
prints the ``tracemalloc`` peak above what was held when the step began, and
what the step still holds when it returns.  The stages' own output is
discarded.  Only allocations made through Python and numpy are
traced; buffers that native code allocates outside numpy's allocator are not.
"""

import argparse
import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

from aeloc import cli
from aeloc.pipeline import load_prototype_pairs
from aeloc.signals import read_waveform_pair, write_waveform_pair


def traced(stage: str, fn) -> None:
    """Run ``fn()`` and print its peak and retained traced bytes in MB."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    result = fn()
    current, peak = tracemalloc.get_traced_memory()
    del result
    print(f"{stage:>10} {(peak - held) / 1e6:10.2f} {(current - held) / 1e6:10.2f}")


def command(argv: list[str]):
    """``cli.main(argv)`` as a step, its output discarded; a non-zero exit ends the script."""

    def run() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"aeloc {argv[0]} exited {code}")

    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    args = parser.parse_args()

    print(f"{'stage':>10} {'peak [MB]':>10} {'kept [MB]':>10}")
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data, cal, db = str(root / "data"), str(root / "calibration.csv"), str(root / "p.db")
            band = ["--calibration", cal]
            tests = [str(root / "data" / f"test_{i:02d}.txt") for i in (0, 11, 22)]
            traced("simulate", command(["simulate", "--out", data, "--seed", str(args.seed)]))
            traced("held", lambda: load_prototype_pairs(data))
            traced("read", lambda: read_waveform_pair(tests[0]))
            pair = read_waveform_pair(tests[0])
            traced("write", lambda: write_waveform_pair(root / "pair.txt", *pair))
            del pair
            traced("calibrate", command(["calibrate", data, "--report", cal]))
            traced("learn", command(["learn", data, "--db", db, *band]))
            traced("locate", command(["locate", db, *tests, *band, "--out", str(root / "l.csv")]))
            report = ["--report", str(root / "e.csv")]
            traced("evaluate", command(["evaluate", db, data, *report, *band]))
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

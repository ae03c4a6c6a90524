#!/usr/bin/env python3
"""Peak traced memory of each pipeline stage on the default dataset.

Simulates the 12-prototype / 23-test dataset into a temporary directory, then
loads the prototype pairs, sweeps the default band grid, learns the database
through the best band and evaluates the test sources, all in this process.
For each stage it prints the ``tracemalloc`` peak above what was held when the
stage began, and what the stage still holds when it returns.  The sweep runs
on the pairs the load stage returned, so their bytes are in the load figure,
not the sweep's.  Only allocations made through Python and numpy are traced;
native buffers such as scipy's FFT plans are not.
"""

import argparse
import tempfile
import tracemalloc

from aeloc import design_bandpass, parse_config, run_experiment
from aeloc.calibration import BandGrid, sweep_bands
from aeloc.pipeline import (
    DEFAULT_MAX_DELAY_S,
    evaluate_dataset,
    learn_prototypes,
    load_prototype_pairs,
)
from aeloc.signals import lag_window


def traced(stage: str, fn):
    """Run ``fn()`` and print its peak and retained traced bytes in MB."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    result = fn()
    current, peak = tracemalloc.get_traced_memory()
    print(f"{stage:>10} {(peak - held) / 1e6:10.2f} {(current - held) / 1e6:10.2f}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    args = parser.parse_args()

    config = parse_config({"seed": args.seed})
    print(f"{'stage':>10} {'peak [MB]':>10} {'kept [MB]':>10}")
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as data:
            traced("simulate", lambda: run_experiment(config, data))
            _, entries = traced("load", lambda: load_prototype_pairs(data))
            rate = entries[0][1][0].sample_rate
            prototypes = [(row.position_mm, chans) for row, chans in entries]
            result = traced(
                "sweep",
                lambda: sweep_bands(
                    prototypes, BandGrid(), max_lag=lag_window(DEFAULT_MAX_DELAY_S, rate)
                ),
            )
            filt = design_bandpass(result.best_band, rate)
            pset, _ = traced("learn", lambda: learn_prototypes(data, filt))
            traced("evaluate", lambda: evaluate_dataset(pset, filt, data))
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
